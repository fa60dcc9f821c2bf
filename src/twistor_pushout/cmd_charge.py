"""The ``charge`` command: branch degrees and polarized charges of the bundle blocks."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .cli import Report
    from .scenario import Scenario


def handle(scenario: Scenario, args, report: Report) -> None:
    # the default scenario has no blocks; a file's bundle blocks are decoded here, after its pair
    if args.scenario is None or not scenario.bundles or scenario.polarization is None:
        where = "" if args.scenario is None else f"{args.scenario}: "
        raise ValueError(f"{where}charge needs bundle and polarization blocks in the scenario")
    from .charges import branch_charge_degrees, obstruction_dim, polarized_charge

    polarization = scenario.polarization
    matched = scenario.geometry.is_matched(polarization)
    label = (
        "smooth-fibre charge"
        if (scenario.assumption_def and matched)
        else "central-fibre degree"
    )
    rows = []
    for index, bundle in enumerate(scenario.bundles):
        degrees = branch_charge_degrees(bundle, polarization)
        entry = {
            "bundle": index,
            "rank": bundle.rank,
            "branch_degrees": list(degrees),
            "total": degrees[0] + degrees[1],
            "label": label,
        }
        if matched:
            entry["polarized_charge"] = polarized_charge(bundle, polarization)
        if bundle.restriction_to_quadric_trivial:
            entry["obstruction_dim"] = obstruction_dim(bundle)
        rows.append(entry)
    report.results["polarization_matched"] = matched
    report.results["assumption_DEF"] = scenario.assumption_def
    report.results["charges"] = rows
    report.check(
        "charge equals the sum of the branch degrees",
        all(row["total"] == sum(row["branch_degrees"]) for row in rows),
    )
    if matched:
        report.check(
            "matched polarization: totals agree with the polarized charge",
            all(row["polarized_charge"] == row["total"] for row in rows),
        )
    report.check(
        "obstruction dimensions are additive for bundles trivial on the double locus",
        all(
            row.get("obstruction_dim") == sum(scenario.bundles[row["bundle"]].h2_end_dims)
            for row in rows
            if "obstruction_dim" in row
        ),
    )
