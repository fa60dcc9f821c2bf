"""Command-line front end: load a scenario, dispatch, emit a report.

``run`` owns each report: it makes it with the subcommand's parsed flags as
its options, hands it to that subcommand's handler to fill, renders it and
sets the exit code.  A report is deterministic (sorted keys, exact integers)
and lists the identities it verified.  The exit code is 1 exactly when one
fails and 2 on bad input, including a result past the interpreter's
4,300-digit limit for printing an integer, so logged runs double as certificates.

Each command's handler is ``handle`` in a module of its own, ``cmd_<command>``
(``cmd_ring_show`` for ``ring-show``), which ``run`` imports when the command
runs; a handler imports the modules it runs when it is called, and a scenario
decodes each block on its first read, so one process compiles, loads and builds
only what its subcommand uses.  A scenario that is not a JSON object is refused
at load, any other only for a fault in a block the subcommand reads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import import_module

from . import __version__
from .scenario import default_scenario, load_scenario, preview


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
        handler = import_module(f".cmd_{args.command.replace('-', '_')}", __package__)
        handler.handle(scenario, args, report)
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
