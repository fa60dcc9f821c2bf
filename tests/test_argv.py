"""How argv is read: the canonical reader agrees with argparse, and help and refusals are pinned.

``cli.read_canonical`` reads the spelled-out command line that the goldens and
the benchmark run, without importing argparse; it declines every other argv,
which ``cli.build_parser`` reads as before.  The property below checks that the
reader never accepts an argv that argparse would read differently or refuse.
The usage goldens under ``golden/usage`` pin what a fresh process prints for
help, ``--version`` and three refusals, all of which argparse reads.

After a deliberate change of that text, rewrite the usage goldens from the
repository root with

    PYTHONPATH=src python tests/test_argv.py --update
"""

from __future__ import annotations

import importlib.util
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_golden import golden_cases
from twistor_pushout import cli

ROOT = Path(__file__).resolve().parent.parent
USAGE = Path(__file__).resolve().parent / "golden" / "usage"
USAGE_CASES = {
    "help": ["--help"],
    "ring-show-help": ["ring-show", "--help"],
    "equalizer-help": ["equalizer", "--help"],
    "surfaces-help": ["surfaces", "--help"],
    "neck-help": ["neck", "--help"],
    "real-help": ["real", "--help"],
    "version": ["--version"],
    "invalid-branch": ["ring-show", "--branch", "3"],
    "invalid-int": ["real", "--samples", "5x"],
    "missing-command": ["--json"],
}

FLAGS = {f"--{flag}" for flag in cli.GLOBAL_FLAGS}
FLAGS |= {f"--{flag}" for _, flags in cli.COMMANDS.values() for flag in flags}
# values of every kind, good and bad: ints in and out of each bound, a 5,000-digit one
# (past the digit limit for int()), the forms int() reads beyond ASCII digits, choices,
# paths, and tokens argparse reads as options or refuses
GOOD_INTS = ["0", "1", "3", "-3", "50", "200", "201", "10000", "-1000001", "+5", " 7", "5_0", "٣"]
BAD_INTS = ["x", "1.5", "-1.5", "0x5", "9" * 5000, "-" + "9" * 5000, "-٣"]
WORDS = ["1", "2", "quadric", "in", "out", "p3.json", "", "x y", "a=b", *cli.COMMANDS]
ODD = ["-", "--", "-h", "--help", "--version", "--js", "--samples=5", "--branch=1", "-x", "---json"]
ALPHABET = sorted({*FLAGS, *GOOD_INTS, *BAD_INTS, *WORDS, *ODD})


PARSER = cli.build_parser()  # parsing leaves a parser as it was, so one serves every example


def _argparse(argv: list[str]):
    """``vars()`` of argparse's namespace for ``argv``, or None when it exits (help or a refusal)."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


@st.composite
def canonical_argv(draw) -> list[str]:
    """An argv in the canonical form, with values drawn from every kind."""
    value = st.sampled_from(GOOD_INTS + WORDS)
    argv = []
    for flag in draw(st.permutations(["--json", "--scenario"]))[: draw(st.integers(0, 2))]:
        argv += [flag] if flag == "--json" else [flag, draw(value)]
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    groups = [[draw(value)]]  # the scenario path
    for flag, (arity, kind, *_) in cli.COMMANDS[command][1].items():
        kind_value = st.sampled_from(kind) if isinstance(kind, tuple) else value
        groups.append([f"--{flag}", *(draw(kind_value) for _ in range(arity))])
    groups = draw(st.permutations(groups))[: draw(st.integers(0, len(groups)))]
    return [*argv, command, *(token for group in groups for token in group)]


@st.composite
def mutated_argv(draw) -> list[str]:
    """A canonical argv with one token inserted, replaced or deleted."""
    argv = draw(canonical_argv())
    at = draw(st.integers(0, len(argv)))
    token = [draw(st.sampled_from(ODD + BAD_INTS) | st.sampled_from(ALPHABET))]  # odd or bad half the time
    edit = draw(st.sampled_from([(at, at), (at, at + 1)]))
    return argv[: edit[0]] + draw(st.sampled_from([token, []])) + argv[edit[1] :]


# About 2 ms an example, most of it drawing the argv, so 1,000 examples cost about 2 s.
# A third of the draws are token soup, which the reader almost always declines; the rest
# are canonical argv, whole or with one token changed, so it accepts about 40% of all draws.
@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(ALPHABET), max_size=9), canonical_argv(), mutated_argv()))
def test_argparse_reads_every_canonical_argv_alike(argv):
    read = cli.read_canonical(argv)
    if read is not None:
        # the same keys in the same order, so a report's options are the same too
        assert list(vars(read).items()) == list((_argparse(argv) or {}).items()), argv


def test_the_reader_declines_help_abbreviations_and_refusals():
    for argv in (
        [],
        ["--json"],
        ["--help"],
        ["--version"],
        ["real", "-h"],
        ["real", "--samp", "5"],
        ["real", "--samples=5"],
        ["real", "--", "p3.json"],
        ["--json", "--json", "real"],
        ["real", "--samples", "5", "--samples", "6"],
        ["real", "a.json", "b.json"],
        ["real", "--samples", "x"],
        ["real", "--samples", "9" * 5000],
        ["ring-show", "--branch", "3"],
        ["neck", "--curve", "1"],
        ["real", "--json"],
        ["--scenario", "real"],
    ):
        assert cli.read_canonical(argv) is None, argv


def test_the_goldens_take_the_canonical_reader():
    for argv in golden_cases().values():
        assert cli.read_canonical(argv) is not None, argv


def _bench_run():
    """``bench/run.py``, loaded by path with the modules it imports beside it."""
    with mock.patch.dict(sys.modules), mock.patch.object(sys, "path", [str(ROOT / "bench"), *sys.path]):
        spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
        module = sys.modules["bench_run"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def test_the_benchmark_operations_take_the_canonical_reader(tmp_path):
    bench = _bench_run()
    with mock.patch.object(bench, "_write_json", lambda path, doc: path.name):  # writes no input file
        workloads = [bench.Shipped(1, tmp_path, False), bench.Synthetic(1, tmp_path, True)]
    for workload in workloads:
        forms = [*workload.warmup, *(op.argv for index in range(4) for op in workload.ops(index))]
        for argv in forms:
            # each child runs ``python -m twistor_pushout`` with ``--json`` first
            assert bench.cli_cmd(argv)[3:] == ["--json", *argv]
            assert cli.read_canonical(["--json", *argv]) is not None, argv


def _usage(argv: list[str]) -> dict:
    """What ``python -m twistor_pushout`` prints for ``argv`` in an 80-column terminal."""
    src = str(ROOT / "src")
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "twistor_pushout", *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    return {"argv": argv, "exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


@pytest.mark.parametrize("name", sorted(USAGE_CASES))
def test_help_version_and_usage_errors_are_unchanged(name):
    expected = json.loads((USAGE / f"{name}.json").read_text(encoding="utf-8"))
    assert _usage(USAGE_CASES[name]) == expected


def _update() -> None:
    USAGE.mkdir(parents=True, exist_ok=True)
    for name, argv in USAGE_CASES.items():
        doc = json.dumps(_usage(argv), indent=2, sort_keys=True) + "\n"
        (USAGE / f"{name}.json").write_text(doc, encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_argv.py --update")
    _update()
