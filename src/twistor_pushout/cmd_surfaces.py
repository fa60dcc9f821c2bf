"""The ``surfaces`` command: surface traces and the gluing classification."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .scenario import preview

if TYPE_CHECKING:
    from .cli import Report
    from .scenario import Scenario


def handle(scenario: Scenario, args, report: Report) -> None:
    from .quadric import arithmetic_genus, hyperplane_class, intersection_number, ruling_swap_pushforward
    from .surfaces import SurfaceData, classify_all, glue_check, trace_bidegree, trace_class

    if args.pair:
        d1, f1, d2, f2 = args.pair
        try:  # int() refuses a degree beyond the interpreter's digit limit
            degrees = [int(d) for d in (d1, d2) if d.removeprefix("-").isdecimal()]
        except ValueError:
            degrees = []
        if len(degrees) < 2 or not {f1, f2} <= {"in", "out"}:
            shape = "D1 IN1 D2 IN2, an integer degree then in or out for each surface"
            raise ValueError(f"--pair takes {shape}, got {preview(repr(' '.join(args.pair)))}")
        try:
            s1, s2 = SurfaceData(degrees[0], f1 == "in"), SurfaceData(degrees[1], f2 == "in")
        except ValueError as exc:
            raise ValueError(f"--pair: {exc}") from exc
        ok = glue_check(s1, s2)
        trace1 = trace_class(s1)
        report.results["pair"] = {
            "glues": ok,
            "trace1": str(trace1),
            "trace2": str(trace_class(s2)),
            "swapped_trace1": str(ruling_swap_pushforward(trace1)),
        }
        report.check("glue check is symmetric", ok == glue_check(s2, s1))
        return
    surfaces = scenario.surfaces or tuple(
        SurfaceData(d, flag) for d in (1, 2) for flag in (True, False)
    )
    rows = []
    for s in surfaces:
        trace = trace_class(s)
        rows.append(
            {
                "degree": s.twistor_degree,
                "contains_line": s.contains_line,
                "trace": str(trace),
                "genus": arithmetic_genus(trace_bidegree(s)),
                "points_on_twistor_line": intersection_number(trace, hyperplane_class()),
            }
        )
    report.results["surfaces"] = rows
    report.results["glue_checks"] = [
        {"first": a, "second": b, "glues": glue_check(surfaces[a], surfaces[b])}
        for a in range(len(surfaces))
        for b in range(a, len(surfaces))
    ]
    table = classify_all(args.dmax)
    report.results["admissible"] = [list(row) for row in table]
    report.check(
        "classification is the rigid three-case table",
        set(table) == {(2, "in", 2, "in"), (1, "in", 1, "out"), (1, "out", 1, "in")}
        if args.dmax >= 2
        else set(table) == {(1, "in", 1, "out"), (1, "out", 1, "in")},
    )
    report.check(
        "every trace meets a generic twistor line in its twistor degree",
        all(
            row["points_on_twistor_line"] == row["degree"] for row in report.results["surfaces"]
        ),
    )
    report.check(
        "contained-line traces are rational",
        all(row["genus"] == 0 for row in rows if row["contains_line"]),
    )
