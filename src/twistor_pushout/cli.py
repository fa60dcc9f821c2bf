"""Command-line front end: load a scenario, dispatch, emit a report.

``run`` owns each report: it makes it with the subcommand's parsed flags as
its options, hands it to that subcommand's ``cmd_*`` handler to fill, renders
it and sets the exit code.  A report is deterministic (sorted keys, exact
integers) and lists the identities it verified.  The exit code is 1 exactly when
one fails and 2 on bad input, including a result past the interpreter's
4,300-digit limit for printing an integer, so logged runs double as certificates.

Each ``cmd_*`` handler imports the modules it runs when it is called, and a
scenario builds its pair only when a handler reads it, so one process loads and
builds only what its subcommand uses.  ``ring-show``, ``equalizer`` and
``charge`` read the pair, and so refuse a file whose pair is malformed;
``real``, ``neck`` and ``surfaces`` never build it, and ``real`` on the default
scenario loads neither ``pushout`` nor ``neck``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from . import __version__
from .scenario import (
    Scenario,
    decoration_from_dict,
    default_scenario,
    load_scenario,
    member_from_dict,
    preview,
    read_json,
)

if TYPE_CHECKING:
    from .realstruct import QuadricPoint


class Report:
    """Results plus the list of verified identities for one command."""

    def __init__(self, command: str, options: dict) -> None:
        self.command = command
        self.options = options
        self.results: dict = {}
        self.identities: list[dict] = []

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        entry = {"name": name, "passed": bool(passed)}
        if detail:
            entry["detail"] = detail
        self.identities.append(entry)

    def all_passed(self) -> bool:
        return all(entry["passed"] for entry in self.identities)

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "options": self.options,
            "results": self.results,
            "identities": self.identities,
            "all_identities_passed": self.all_passed(),
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"== {self.command} =="]
        lines.extend(_render_value(self.results, indent=0))
        lines.append("identities:")
        for entry in self.identities:
            mark = "ok " if entry["passed"] else "FAIL"
            detail = f"  ({entry['detail']})" if entry.get("detail") else ""
            lines.append(f"  [{mark}] {entry['name']}{detail}")
        return "\n".join(lines)


def _is_flat(value) -> bool:
    return isinstance(value, list) and not any(isinstance(v, (dict, list)) for v in value)


def _render_value(value, indent: int) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key in value:
            sub = value[key]
            if _is_flat(sub):
                lines.append(f"{pad}{key}: [{', '.join(str(v) for v in sub)}]")
            elif isinstance(sub, (dict, list)) and sub:
                lines.append(f"{pad}{key}:")
                lines.extend(_render_value(sub, indent + 1))
            else:
                lines.append(f"{pad}{key}: {sub}")
    elif isinstance(value, list):
        for sub in value:
            if _is_flat(sub):
                lines.append(f"{pad}- [{', '.join(str(v) for v in sub)}]")
            elif isinstance(sub, dict):
                rendered = _render_value(sub, indent + 1)
                if rendered:
                    first = rendered[0].lstrip()
                    lines.append(f"{pad}- {first}")
                    lines.extend(rendered[1:])
            elif isinstance(sub, list):
                lines.extend(_render_value(sub, indent))
    return lines


# -- commands -------------------------------------------------------------------


def cmd_ring_show(scenario: Scenario, args, report: Report) -> None:
    from .rings import format_vector

    geometry = scenario.geometry
    blown = {"1": geometry.branch1, "2": geometry.branch2}.get(args.branch)
    ring = geometry.quadric if blown is None else blown.ring
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
        b = ring.basis_element(1, 0)
        w = ring.basis_element(1, 1)
        report.check("the two rulings intersect in a point", b * w == ring.basis_element(2, 0))
        report.check("each ruling squares to zero", (b * b).is_zero() and (w * w).is_zero())
        return

    # blow_up refuses (exit 2) a ring failing this or the projection formula below
    report.check("pushforward of (b + w) equals the pulled-back line class", True)
    exceptional = blown.exceptional_class()
    report.check(
        "exceptional divisor restricts to z = b - w",
        blown.restrict_to_quadric(exceptional).coeffs_bw() == (1, -1),
    )
    report.check("projection formula on all basis pairs", True)
    report.check(
        "exceptional self-intersection is 2 j.b - f.[line]",
        exceptional * exceptional
        == 2 * blown.pushed_fibre_class() - blown.pulled_back_line(),
    )


def cmd_equalizer(scenario: Scenario, args, report: Report) -> None:
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


def cmd_surfaces(scenario: Scenario, args, report: Report) -> None:
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


def cmd_charge(scenario: Scenario, args, report: Report) -> None:
    # the default scenario has no blocks; a file's come with its pair, which is read first
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


def cmd_neck(scenario: Scenario, args, report: Report) -> None:
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

    decoration = scenario.decoration
    if args.decorate is not None:
        decoration = read_json(args.decorate, decoration_from_dict)
    bundle = kn_fixed_phase_bundle()
    fibre = restrict_to_ruling_fibre_bundle(bundle)
    report.results["fixed_phase_c1_bw"] = list(bundle.c1_class.coeffs_bw())
    report.results["fibre_restriction"] = {
        "raw": raw_fibre_pairing(bundle),
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
        abs(raw_fibre_pairing(bundle)) == 1 and fibre.c1_int == 1,
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


def _point_str(p: QuadricPoint) -> str:
    return f"([{p.z[0]} : {p.z[1]}], [{p.w[0]} : {p.w[1]}])"


def cmd_real(scenario: Scenario, args, report: Report) -> None:
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

    report.check("base locus consists of two points", len(locus) == 2)
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


# -- entry point ------------------------------------------------------------------


# flags that buy work are bounded: surfaces compares 4 * dmax**2 pairs of traces,
# and real needs at least one sample for its sampled identities to mean anything;
# neck's results are linear in each entry of --curve and --character, so their bound
# keeps every printed integer far inside the interpreter's digit limit
DMAX_BOUND, SAMPLES_BOUND, NECK_BOUND = 200, 10_000, 10**6
# equalizer runs its brute-force oracle when every degree's rank sum is at most this;
# at 6 (flag_flag) the oracle costs about 5 ms in process on a 2-vCPU host
ORACLE_GATE = 6
FLAG_BOUNDS = (
    ("dmax", 1, DMAX_BOUND),
    ("samples", 1, SAMPLES_BOUND),
    ("curve", -NECK_BOUND, NECK_BOUND),
    ("character", -NECK_BOUND, NECK_BOUND),
)


def _int(text: str) -> int:
    try:  # a refusal echoes at most 40 characters, also of a value past the digit limit
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {preview(repr(text))}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistor-pushout",
        description="Exact intersection theory on a glued pair of blown-up twistor spaces",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    parser.add_argument("--scenario", help="path to a scenario JSON file")
    positional = argparse.ArgumentParser(add_help=False)
    positional.add_argument("scenario_path", nargs="?", help="scenario JSON file")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, text: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[positional], help=text)

    ring_show = command("ring-show", "show a blown-up ring's basis and table")
    ring_show.add_argument("--branch", choices=("1", "2", "quadric"), default="1")

    equalizer = command("equalizer", "matched-pair lattices of the glued space")
    equalizer.add_argument("--member", help="JSON file with a pair to test for membership")

    surfaces = command("surfaces", "gluing classification for surface traces")
    surfaces.add_argument("--dmax", type=_int, default=50)
    surfaces.add_argument(
        "--pair",
        nargs=4,
        metavar=("D1", "IN1", "D2", "IN2"),
        help="explicit pair: degree in|out degree in|out",
    )

    command("charge", "branch degrees and polarized charges")

    neck = command("neck", "fixed-phase circle bundle arithmetic")
    neck.add_argument("--curve", nargs=2, type=_int, metavar=("A", "B"))
    neck.add_argument("--character", nargs=2, type=_int, metavar=("A", "B"))
    neck.add_argument("--decorate", help="JSON file with theta and per-point eta choices")

    real = command("real", "real structure checks on the quadric")
    real.add_argument("--samples", type=_int, default=100)

    return parser


_HANDLERS = {
    "ring-show": cmd_ring_show,
    "equalizer": cmd_equalizer,
    "surfaces": cmd_surfaces,
    "charge": cmd_charge,
    "neck": cmd_neck,
    "real": cmd_real,
}


def run(argv: list[str]) -> tuple[int, str]:
    """Parse arguments, execute one command, and return (exit code, output)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, low, high in FLAG_BOUNDS:
        given = getattr(args, flag, None)  # an int, a list of two for neck's flags, or None
        for value in [given] if isinstance(given, int) else given or ():
            if not low <= value <= high:
                return 2, f"error: --{flag} must lie in {low}..{high}, got {preview(str(value))}"
    for flag in ("scenario", "scenario_path", "member", "decorate"):  # "" names no file
        if getattr(args, flag, None) == "":
            name = "the scenario path" if flag == "scenario_path" else f"--{flag}"
            return 2, f"error: {name} must name a file, got ''"
    if args.scenario is not None and args.scenario_path is not None:
        given = f"--scenario {preview(repr(args.scenario))} and {preview(repr(args.scenario_path))}"
        return 2, f"error: the scenario is given twice, as {given}; give one path"
    shared = ("command", "json", "scenario", "scenario_path")  # every other key is the command's own flag
    report = Report(args.command, {key: value for key, value in vars(args).items() if key not in shared})
    args.scenario = args.scenario_path if args.scenario is None else args.scenario
    try:
        scenario = default_scenario() if args.scenario is None else load_scenario(args.scenario)
        _HANDLERS[args.command](scenario, args, report)
        output = report.to_json() if args.json else report.to_text()
    except (ValueError, OSError) as exc:
        return 2, f"error: {exc}"
    return (0 if report.all_passed() else 1), output


def main() -> None:
    code, output = run(sys.argv[1:])
    try:
        print(output, flush=True)
    except BrokenPipeError:
        # the reader closed the pipe: devnull keeps the flush at exit from raising (signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
