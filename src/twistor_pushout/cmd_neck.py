"""The ``neck`` command: fixed-phase circle bundle arithmetic."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .scenario import decoration_from_dict, read_json

if TYPE_CHECKING:
    from .cli import Report
    from .scenario import Scenario


def handle(scenario: Scenario, args, report: Report) -> None:
    from .neck import (
        antidiagonal_quotient_over_fibre,
        character_quotient,
        kn_fixed_phase_bundle,
        lens_space_of,
        raw_fibre_pairing,
        restrict_to_curve,
        restrict_to_ruling_fibre_bundle,
    )
    from .quadric import Bidegree

    # a --decorate file replaces the scenario's decoration, which is then never decoded
    decorate = args.decorate
    decoration = scenario.decoration if decorate is None else read_json(decorate, decoration_from_dict)
    bundle = kn_fixed_phase_bundle()
    raw, fibre = raw_fibre_pairing(bundle), restrict_to_ruling_fibre_bundle(bundle)
    report.results["fixed_phase_c1_bw"] = list(bundle.c1_class.coeffs_bw())
    report.results["fibre_restriction"] = {
        "raw": raw,
        "oriented": fibre.c1_int,
        "total_space": lens_space_of(fibre.c1_int),
    }
    character = tuple(args.character) if args.character else (1, 1)
    chern_vector = (fibre.c1_int, 1)
    quotient_c1 = character_quotient(chern_vector, character)
    report.results["character_quotient"] = {
        "chern_vector": list(chern_vector),
        "character": list(character),
        "c1": quotient_c1,
        "total_space": lens_space_of(quotient_c1),
    }
    if args.curve:
        a, b = args.curve
        restricted = restrict_to_curve(bundle, Bidegree(a, b))
        report.results["curve_restriction"] = {
            "bidegree": [a, b],
            "c1": restricted.c1_int,
        }
    report.check(
        "fibre restriction has magnitude one and oriented value +1",
        abs(raw) == 1 and fibre.c1_int == 1,
    )
    report.check(
        "anti-diagonal character gives the lens space of class 2",
        antidiagonal_quotient_over_fibre() == "RP3",
    )
    report.check(
        "diagonal character gives the trivial bundle over the sphere",
        antidiagonal_quotient_over_fibre(character=(1, -1)) == "S2xS1",
    )
    if decoration:
        report.results["decoration"] = decoration.to_json_dict()
        report.check(
            "decoration phase pairs satisfy rho1 * rho2 = theta",
            all(pair.rho1 * pair.rho2 == decoration.theta_unit for _, pair in decoration.points),
        )
