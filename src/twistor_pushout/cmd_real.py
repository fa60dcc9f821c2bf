"""The ``real`` command: the real structure of the quadric and its invariant pencil."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .cli import Report
    from .realstruct import QuadricPoint
    from .scenario import Scenario


def _point_str(p: QuadricPoint) -> str:
    return f"([{p.z[0]} : {p.z[1]}], [{p.w[0]} : {p.w[1]}])"


def handle(scenario: Scenario, args, report: Report) -> None:
    import random

    from .gaussian import GaussianScalar
    from .realstruct import (
        BASEPOINT,
        base_locus,
        evaluate_section,
        invariant_section_from_reals,
        is_fixed_point,
        is_invariant_section,
        pairs_projectively_equal,
        pencil_value,
        point,
        real_structure,
    )

    locus = base_locus()
    report.results["base_locus"] = [_point_str(p) for p in locus]
    report.results["base_locus_exact"] = [p.to_json() for p in locus]
    basis = [
        invariant_section_from_reals(*params)
        for params in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    ]
    report.results["fixed_space_dimension"] = len(basis)
    sample_section = invariant_section_from_reals(2, -1, 3, 5)

    two_points = len(locus) == 2 and not locus[0].projectively_equal(locus[1])
    report.check("base locus consists of two points", two_points)
    report.check(
        "involution swaps the two base points",
        real_structure(locus[0]).projectively_equal(locus[1])
        and real_structure(locus[1]).projectively_equal(locus[0]),
    )
    report.check(
        "fixed-space basis sections are invariant",
        all(is_invariant_section(s) for s in (*basis, sample_section)),
    )

    rng = random.Random(20240817)
    def random_scalar() -> GaussianScalar:
        return GaussianScalar.of(rng.randint(-6, 6), rng.randint(-6, 6))

    fixed_free = True
    equivariant = True
    samples_done = 0
    while samples_done < args.samples:
        try:
            p = point(random_scalar(), random_scalar(), random_scalar(), random_scalar())
        except ValueError:
            continue
        samples_done += 1
        if is_fixed_point(p):
            fixed_free = False
        value = pencil_value(p)
        image = pencil_value(real_structure(p))
        if value is BASEPOINT or image is BASEPOINT:
            continue
        conjugated = (value[0].conjugate(), value[1].conjugate())
        if not pairs_projectively_equal(image, conjugated):
            equivariant = False
    report.results["samples"] = samples_done
    report.check("involution is fixed-point free on all samples", fixed_free)
    report.check("pencil is equivariant: value at the image is the conjugate", equivariant)
    report.check(
        "pencil vanishes exactly on the base locus",
        all(pencil_value(p) is BASEPOINT for p in locus),
    )
    report.check(
        "invariant sections have involution-stable zero sets (spot check)",
        evaluate_section(sample_section, locus[0]).is_zero()
        == evaluate_section(sample_section, real_structure(locus[0])).is_zero(),
    )
