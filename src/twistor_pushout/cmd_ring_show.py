"""The ``ring-show`` command: a ring's basis and product table, with the blow-up identities."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .cli import Report
    from .scenario import Scenario


def handle(scenario: Scenario, args, report: Report) -> None:
    from .quadric import _RING, hyperplane_class
    from .rings import format_vector

    blown = None if args.branch == "quadric" else getattr(scenario, f"branch{args.branch}")
    ring = _RING if blown is None else blown.ring
    report.results["name"] = ring.name
    report.results["ranks"] = [ring.rank(d) for d in range(ring.top_degree + 1)]
    report.results["basis"] = [list(labels) for labels in ring.basis_labels]
    table, labels = [], ring.basis_labels
    for d1 in range(1, ring.top_degree + 1):
        for i1 in range(ring.rank(d1)):
            for d2 in range(d1, ring.top_degree + 1 - d1):
                start = i1 if d1 == d2 else 0
                for i2, xy in enumerate(ring.product_table(d1, d2)[i1][start:], start):
                    product = format_vector(labels[d1 + d2], xy)
                    table.append(f"{labels[d1][i1]} . {labels[d2][i2]} = {product}")
    report.results["products"] = table
    if blown is None:
        b, w = ring.basis_element(1, 0), ring.basis_element(1, 1)
        report.check("the two rulings intersect in a point", b * w == ring.basis_element(2, 0))
        report.check("each ruling squares to zero", (b * b).is_zero() and (w * w).is_zero())
        return

    report.check(
        "pushforward of (b + w) equals the pulled-back line class",
        blown.pushforward_from_quadric.apply(hyperplane_class().element) == blown.pulled_back_line(),
    )
    exceptional = blown.exceptional_class()
    report.check(
        "exceptional divisor restricts to z = b - w",
        blown.restrict_to_quadric(exceptional).coeffs_bw() == (1, -1),
    )
    try:
        blown.check_projection_formula()
        report.check("projection formula on all basis pairs", True)
    except ValueError as exc:
        report.check("projection formula on all basis pairs", False, str(exc))
    report.check(
        "exceptional self-intersection is 2 j.b - f.[line]",
        exceptional * exceptional
        == 2 * blown.pushed_fibre_class() - blown.pulled_back_line(),
    )
