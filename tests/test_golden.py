"""Golden ``--json`` reports: stdout and exit code of each command, byte for byte.

The goldens pin all six subcommands on the default scenario and the two
shipped scenarios, with fixed ``--member``, ``--curve``, ``--character`` and
``--samples`` arguments, and ``ring-show --branch 1|2|quadric`` and
``equalizer`` on a dense synthetic scenario, and ``ring-show --branch 1`` and
``equalizer`` on a larger one.  ``data/synthetic_r7.json`` holds two successive
draws of ``bench/gen.py``'s ``synthetic_base(7, rng)`` with
``rng = random.Random(7)``: benchmark-only bases of blown-up degree-1 rank 7 in
dense unimodular bases; ``data/synthetic_r11.json`` holds the same two draws at
rank 11.  Any change that must keep the reports as they are is checked against
these files.

After a deliberate change of output, rewrite the goldens from the repository
root with

    PYTHONPATH=src python tests/test_golden.py --update
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

from twistor_pushout.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

SCENARIOS = {
    "default": ([], "tests/data/member_p3.json"),
    "p3_p3": (["--scenario", "scenarios/p3_p3.json"], "tests/data/member_p3.json"),
    "flag_flag": (["--scenario", "scenarios/flag_flag.json"], "tests/data/member_flag.json"),
}
SYNTHETIC = ["--scenario", "tests/data/synthetic_r7.json"]
SYNTHETIC_R11 = ["--scenario", "tests/data/synthetic_r11.json"]


def golden_cases() -> dict[str, list[str]]:
    """Case name -> argv, with paths relative to the repository root."""
    cases = {}
    for scenario, (pre, member) in SCENARIOS.items():
        commands = {
            "ring-show": ["ring-show"],
            "equalizer": ["equalizer", "--member", member],
            "surfaces": ["surfaces"],
            "charge": ["charge"],
            "neck": ["neck", "--curve", "3", "1", "--character", "1", "-1"],
            "real": ["real", "--samples", "40"],
        }
        for command, argv in commands.items():
            cases[f"{scenario}-{command}"] = ["--json", *pre, *argv]
    for branch in ("1", "2", "quadric"):
        cases[f"synthetic_r7-ring-show-{branch}"] = ["--json", *SYNTHETIC, "ring-show", "--branch", branch]
    cases["synthetic_r7-equalizer"] = ["--json", *SYNTHETIC, "equalizer"]
    # named to sort after the rank-7 cases, whose test ids carry their sorted position
    cases["synthetic_rank11-ring-show-1"] = ["--json", *SYNTHETIC_R11, "ring-show", "--branch", "1"]
    cases["synthetic_rank11-equalizer"] = ["--json", *SYNTHETIC_R11, "equalizer"]
    return cases


def stdout_of(argv: list[str]) -> tuple[int, bytes]:
    """Exit code and the exact stdout bytes ``main`` prints for ``argv``."""
    code, output = run(argv)
    return code, (output + "\n").encode("utf-8")


@pytest.mark.parametrize("name, argv", sorted(golden_cases().items()))
def test_golden_output(name, argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out = stdout_of(argv)
    assert out == (GOLDEN / f"{name}.json").read_bytes(), f"stdout of {name} differs from its golden"
    assert code == json.loads(EXIT_CODES.read_text(encoding="utf-8"))[name]


def test_every_golden_file_has_a_case():
    names = {p.stem for p in GOLDEN.glob("*.json")} - {EXIT_CODES.stem}
    assert names == set(golden_cases())


def _update() -> None:
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(golden_cases().items()):
        codes[name], out = stdout_of(argv)
        (GOLDEN / f"{name}.json").write_bytes(out)
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --update")
    _update()
