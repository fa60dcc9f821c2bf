"""The ``equalizer`` command: the matched-pair lattices of the glued space."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .cli import ORACLE_GATE
from .scenario import member_from_dict, read_json

if TYPE_CHECKING:
    from .cli import Report
    from .scenario import Scenario


def handle(scenario: Scenario, args, report: Report) -> None:
    from .pushout import brute_force_matched_lattice

    geometry = scenario.geometry
    member = None
    if args.member is not None:
        member = read_json(args.member, lambda doc: member_from_dict(geometry, doc))
    equalizer = geometry.equalizer()
    report.results["ranks"] = list(equalizer.ranks())
    report.results["lattice_bases"] = {
        str(degree): [list(vec) for vec in basis] for degree, basis in enumerate(equalizer.lattices)
    }
    try:
        equalizer.check_product_closure()
        report.check("lattice closed under componentwise product", True)
    except ValueError as exc:
        report.check("lattice closed under componentwise product", False, str(exc))
    degrees = range(len(equalizer.lattices))
    if all(geometry.branch1.ring.rank(d) + geometry.branch2.ring.rank(d) <= ORACLE_GATE for d in degrees):
        agree = all(
            brute_force_matched_lattice(geometry, d) == list(basis)
            for d, basis in enumerate(equalizer.lattices)
        )
        report.check("kernel lattice matches bounded brute-force enumeration", agree)
    exceptional_pair = geometry.exceptional_pair()
    report.check(
        "([Q1], -[Q2]) is a matched member",
        geometry.is_matched(exceptional_pair) and equalizer.contains(exceptional_pair),
    )
    if member:
        degree, pair = member
        report.results["member_query"] = {
            "degree": degree,
            "matched": geometry.is_matched(pair),
            "in_lattice": equalizer.contains(pair),
        }
