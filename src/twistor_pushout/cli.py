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

The command line is declared once, in ``GLOBAL_FLAGS`` and ``COMMANDS``: each
flag's arity, kind, default, work bound and help.  ``run`` first reads argv with
``read_canonical``, which takes only the spelled-out form (global flags, then
the command, then its flags, each given once in full with its values) and
returns the namespace argparse would.  Any other argv, help and every refusal
among them, goes to the argparse parser that ``build_parser`` makes from the
same table, so the canonical form, which the goldens and the benchmark use,
never imports argparse, and everything else reads and prints as argparse does.
"""

from __future__ import annotations

import json
import os
import sys
from importlib import import_module
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import __version__
from .scenario import default_scenario, load_scenario, preview

if TYPE_CHECKING:
    import argparse


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
# equalizer runs its brute-force oracle when every degree's rank sum is at most this; at 6
# (flag_flag) its four degrees take 6.0 ms, first call in process (median of 25, 2-vCPU host)
ORACLE_GATE = 6

# The command line, declared once.  A flag is (arity, kind, default, bound, help options):
# arity 0 is a switch, 1 holds one value and n > 1 a list of n; the kind is int, str or the
# tuple of accepted choices; a bounded flag's value, or each entry of it, must lie in
# (low, high), checked by ``run`` in this order; the help options only reach --help.
GLOBAL_FLAGS = {
    "json": (0, None, False, None, {"help": "emit the report as JSON"}),
    "scenario": (1, str, None, None, {"help": "path to a scenario JSON file"}),
}
PAIR_HELP = "explicit pair: degree in|out degree in|out"
COMMANDS = {  # command -> (help, flags)
    "ring-show": ("show a blown-up ring's basis and table", {"branch": (1, ("1", "2", "quadric"), "1", None, {})}),
    "equalizer": (
        "matched-pair lattices of the glued space",
        {"member": (1, str, None, None, {"help": "JSON file with a pair to test for membership"})},
    ),
    "surfaces": (
        "gluing classification for surface traces",
        {
            "dmax": (1, int, 50, (1, DMAX_BOUND), {}),
            "pair": (4, str, None, None, {"metavar": ("D1", "IN1", "D2", "IN2"), "help": PAIR_HELP}),
        },
    ),
    "charge": ("branch degrees and polarized charges", {}),
    "neck": (
        "fixed-phase circle bundle arithmetic",
        {
            "curve": (2, int, None, (-NECK_BOUND, NECK_BOUND), {"metavar": ("A", "B")}),
            "character": (2, int, None, (-NECK_BOUND, NECK_BOUND), {"metavar": ("A", "B")}),
            "decorate": (1, str, None, None, {"help": "JSON file with theta and per-point eta choices"}),
        },
    ),
    "real": ("real structure checks on the quadric", {"samples": (1, int, 100, (1, SAMPLES_BOUND), {})}),
}


def _is_value(token: str) -> bool:
    # a token argparse reads as a value, never as an option: no leading -, or a negative integer
    return token[:1] != "-" or token[1:].isdecimal()


def read_canonical(argv: list[str]) -> SimpleNamespace | None:
    """The namespace ``build_parser`` gives a canonical ``argv``, or None for any other argv.

    Canonical is ``--json`` and ``--scenario PATH``, each at most once, then the command,
    then its ``--flag value...`` groups, each flag at most once, and at most one scenario
    path; a value is a token that does not start with ``-``, or ``-`` and decimal digits;
    an int is read with ``int()`` and a choice must match exactly.  Help, ``--version``,
    abbreviations, ``--flag=value``, ``--``, repeats and every refusal are not canonical.
    """
    args, flags, seen, i = {"json": False, "scenario": None}, GLOBAL_FLAGS, set(), 0
    while i < len(argv):
        token = argv[i]
        if "command" not in args and token in COMMANDS:
            flags = COMMANDS[token][1]
            args.update(command=token, scenario_path=None)
            args.update((flag, row[2]) for flag, row in flags.items())
            i += 1
            continue
        if "command" in args and "scenario_path" not in seen and _is_value(token):
            seen.add("scenario_path")
            args["scenario_path"], i = token, i + 1
            continue
        flag = token[2:]
        if token[:2] != "--" or flag not in flags or flag in seen:
            return None
        seen.add(flag)
        arity, kind, _, _, _ = flags[flag]
        values = argv[i + 1 : i + 1 + arity]
        if len(values) < arity or not all(map(_is_value, values)):
            return None
        if kind is int:
            try:
                values = [int(value) for value in values]
            except ValueError:
                return None
        elif kind is not str and not all(value in kind for value in values):
            return None
        args[flag] = True if arity == 0 else values[0] if arity == 1 else values
        i += 1 + arity
    return SimpleNamespace(**args) if "command" in args else None


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the same command line, for help and every argv not canonical."""
    import argparse

    def _int(text: str) -> int:
        try:  # a refusal echoes at most 40 characters, also of a value past the digit limit
            return int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {preview(repr(text))}") from None

    def add(parser: argparse.ArgumentParser, flags: dict) -> None:
        for flag, (arity, kind, default, _, shown) in flags.items():
            if arity == 0:
                parser.add_argument(f"--{flag}", action="store_true", **shown)
                continue
            parser.add_argument(
                f"--{flag}",
                nargs=arity if arity > 1 else None,
                type=_int if kind is int else None,
                choices=kind if isinstance(kind, tuple) else None,
                default=default,
                **shown,
            )

    parser = argparse.ArgumentParser(
        prog="twistor-pushout",
        description="Exact intersection theory on a glued pair of blown-up twistor spaces",
    )
    parser.add_argument("--version", action="version", version=__version__)
    add(parser, GLOBAL_FLAGS)
    positional = argparse.ArgumentParser(add_help=False)
    positional.add_argument("scenario_path", nargs="?", help="scenario JSON file")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, flags) in COMMANDS.items():
        add(sub.add_parser(command, parents=[positional], help=text), flags)
    return parser


def run(argv: list[str]) -> tuple[int, str]:
    """Parse arguments, execute one command, and return (exit code, output)."""
    args = read_canonical(argv) or build_parser().parse_args(argv)
    for flag, (_, _, _, bound, _) in COMMANDS[args.command][1].items():
        given = getattr(args, flag) if bound else None  # an int, a list of two for neck's flags, or None
        for value in [given] if isinstance(given, int) else given or ():
            if not bound[0] <= value <= bound[1]:
                return 2, f"error: --{flag} must lie in {bound[0]}..{bound[1]}, got {preview(str(value))}"
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
