"""Start-up: each subcommand, run in a fresh interpreter, loads only the modules it uses."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SYNTHETIC = str(ROOT / "tests" / "data" / "synthetic_r7.json")
P3_P3 = str(ROOT / "scenarios" / "p3_p3.json")
FLAG_FLAG = str(ROOT / "scenarios" / "flag_flag.json")
COMMANDS = ("ring-show", "equalizer", "surfaces", "charge", "neck", "real")

# runs one command through cli.run and prints its exit code and the package modules loaded
CHILD = """
import sys
from twistor_pushout.cli import run
code, _ = run(sys.argv[1:])
print(code, *sorted(m.split(".")[1] for m in sys.modules if m.startswith("twistor_pushout.")))
"""

# runs one command through cli.run and prints its exit code and the code-generation modules loaded
CODEGEN_CHILD = """
import sys
from twistor_pushout.cli import run
code, _ = run(sys.argv[1:])
print(code, *sorted({"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(sys.modules)))
"""

# runs one command through cli.run and prints its exit code and the rational-arithmetic modules loaded
RATIONAL_CHILD = """
import sys
from twistor_pushout.cli import run
code, _ = run(sys.argv[1:])
print(code, *sorted({"fractions", "decimal"} & set(sys.modules)))
"""


def _fresh(*args: str) -> str:
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "argv, code, absent",
    [
        (["real", "--samples", "5"], 0, {"pushout", "charges", "neck", "surfaces"}),
        # a neck with no decoration is integer arithmetic on the quadric ring
        (["neck"], 0, {"pushout", "charges", "surfaces", "realstruct", "intlin", "gaussian"}),
        (["surfaces", "--dmax", "3"], 0, {"pushout", "charges", "neck", "gaussian", "realstruct", "intlin"}),
        (["surfaces", "--pair", "1", "in", "1", "out"], 0, {"pushout", "charges", "neck", "gaussian", "intlin"}),
        (["charge"], 2, {"pushout", "charges", "neck", "gaussian", "realstruct", "surfaces"}),
        # only the equalizer's kernels, membership, certificate and oracle load the lattice code
        (
            ["--scenario", SYNTHETIC, "ring-show"],
            0,
            {"charges", "neck", "gaussian", "realstruct", "surfaces", "intlin"},
        ),
        (["--scenario", SYNTHETIC, "equalizer"], 0, {"charges", "neck", "gaussian", "realstruct", "surfaces"}),
        # a file's pair is built only by the commands that read it, and each other block is
        # decoded only by the command that reads it
        (
            ["--scenario", P3_P3, "real", "--samples", "5"],
            0,
            {"pushout", "charges", "rings", "intlin", "quadric", "surfaces", "neck"},
        ),
        (["--scenario", FLAG_FLAG, "real", "--samples", "5"], 0, {"pushout", "charges", "rings", "intlin", "quadric"}),
        (["--scenario", P3_P3, "neck"], 0, {"pushout", "charges", "surfaces", "intlin"}),
        (["--scenario", FLAG_FLAG, "neck"], 0, {"pushout", "charges", "intlin", "gaussian"}),
        (
            ["--scenario", P3_P3, "surfaces", "--dmax", "3"],
            0,
            {"pushout", "charges", "neck", "gaussian", "intlin"},
        ),
        (["--scenario", FLAG_FLAG, "surfaces", "--dmax", "3"], 0, {"pushout", "charges", "intlin"}),
        # the bundle and polarization blocks are decoded only by charge, which reads them
        (
            ["--scenario", P3_P3, "ring-show"],
            0,
            {"charges", "neck", "gaussian", "realstruct", "surfaces", "intlin"},
        ),
        (
            ["--scenario", FLAG_FLAG, "ring-show"],
            0,
            {"charges", "neck", "gaussian", "realstruct", "surfaces", "intlin"},
        ),
        (["--scenario", P3_P3, "equalizer"], 0, {"charges", "neck", "gaussian", "realstruct", "surfaces"}),
        (["--scenario", FLAG_FLAG, "equalizer"], 0, {"charges", "neck", "gaussian", "realstruct", "surfaces"}),
        (["--scenario", P3_P3, "charge"], 0, {"neck", "gaussian", "realstruct", "surfaces", "intlin"}),
        # the quadric view reads no block and shows the quadric module's ring
        (
            ["--scenario", P3_P3, "ring-show", "--branch", "quadric"],
            0,
            {"pushout", "charges", "neck", "gaussian", "realstruct", "surfaces", "intlin"},
        ),
    ],
    ids=[
        "real", "neck", "surfaces", "surfaces-pair", "charge", "ring-show-r7", "equalizer-r7",
        "real-p3_p3", "real-flag_flag", "neck-p3_p3", "neck-flag_flag", "surfaces-p3_p3", "surfaces-flag_flag",
        "ring-show-p3_p3", "ring-show-flag_flag", "equalizer-p3_p3", "equalizer-flag_flag", "charge-p3_p3",
        "ring-show-quadric-p3_p3",
    ],
)
def test_a_command_loads_only_what_it_runs(argv, code, absent):
    got, *loaded = _fresh("-c", CHILD, *argv).split()
    assert int(got) == code
    assert "cli" in loaded and not absent & set(loaded), loaded
    # each command compiles its own handler module and no other command's
    command = next(arg for arg in argv if arg in COMMANDS)
    handlers = {module for module in loaded if module.startswith("cmd_")}
    assert handlers == {"cmd_" + command.replace("-", "_")}, loaded
    if code == 0 and command == "charge":
        assert "charges" in loaded, loaded


@pytest.mark.parametrize(
    "argv, modules, rational",
    [
        (["equalizer"], {"intlin"}, set()),
        (["--scenario", P3_P3, "equalizer"], {"intlin"}, set()),
        (["--scenario", P3_P3, "neck"], {"gaussian"}, {"fractions", "decimal"}),
    ],
    ids=["equalizer", "equalizer-p3_p3", "neck-p3_p3"],
)
def test_a_command_that_uses_a_deferred_module_loads_it(argv, modules, rational):
    # the absent sets above hold because these modules are deferred, not because nothing
    # loads them: the equalizer's kernels load intlin, and p3_p3's decoration has Gaussian
    # rational phases
    got, *loaded = _fresh("-c", CHILD, *argv).split()
    assert int(got) == 0 and modules <= set(loaded), loaded
    got, *loaded = _fresh("-c", RATIONAL_CHILD, *argv).split()
    assert int(got) == 0 and rational <= set(loaded), loaded


@pytest.mark.parametrize(
    "argv, code", [(["real", "--samples", "5"], 0), (["charge"], 2)], ids=["real", "charge"]
)
def test_a_command_without_rings_loads_neither_rings_nor_intlin(argv, code):
    got, *loaded = _fresh("-c", CHILD, *argv).split()
    assert int(got) == code
    assert not {"rings", "intlin"} & set(loaded), loaded


@pytest.mark.parametrize(
    "scenario", [[], ["--scenario", P3_P3], ["--scenario", FLAG_FLAG]], ids=["default", "p3_p3", "flag_flag"]
)
def test_real_stays_integer_only(scenario):
    # its samples are Gaussian integers; only a division or a decoration makes a Fraction
    got, *loaded = _fresh("-c", RATIONAL_CHILD, *scenario, "real", "--samples", "5").split()
    assert int(got) == 0
    assert not loaded, loaded


@pytest.mark.parametrize("scenario", [[], ["--scenario", FLAG_FLAG]], ids=["default", "flag_flag"])
def test_neck_without_a_decoration_stays_integer_only(scenario):
    # the bundle classes and lens-space tags are integers; only a decoration's phases are rational
    got, *loaded = _fresh("-c", RATIONAL_CHILD, *scenario, "neck").split()
    assert int(got) == 0
    assert not loaded, loaded


@pytest.mark.parametrize("scenario", [SYNTHETIC, P3_P3, FLAG_FLAG], ids=["synthetic_r7", "p3_p3", "flag_flag"])
@pytest.mark.parametrize("command", ["equalizer", "ring-show"])
def test_ring_commands_stay_integer_only(scenario, command):
    # kernels, certificates and ring documents are read without rational arithmetic
    got, *loaded = _fresh("-c", RATIONAL_CHILD, "--scenario", scenario, command).split()
    assert int(got) == 0
    assert not loaded, loaded


def test_star_import_binds_every_public_name():
    script = (
        "import twistor_pushout\n"
        "from twistor_pushout import *\n"
        "missing = [n for n in twistor_pushout.__all__ if n not in globals()]\n"
        "print(len(twistor_pushout.__all__), *missing)\n"
    )
    count, *missing = _fresh("-c", script).split()
    assert int(count) == 34 and not missing


def test_package_import_loads_no_module():
    assert _fresh("-c", "import sys, twistor_pushout; print(sorted(sys.modules))").count(
        "'twistor_pushout."
    ) == 0


@pytest.mark.parametrize("scenario", [[], ["--scenario", P3_P3]], ids=["default", "p3_p3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["ring-show"],
        ["equalizer"],
        ["surfaces", "--dmax", "3"],
        ["surfaces", "--pair", "1", "in", "1", "out"],
        ["charge"],
        ["neck"],
        ["real", "--samples", "5"],
    ],
    ids=["ring-show", "equalizer", "surfaces", "surfaces-pair", "charge", "neck", "real"],
)
def test_no_command_loads_class_code_generation(scenario, argv):
    # p3_p3 holds every block, each decoded by the command that reads it; charge on the
    # default scenario is refused
    got, *loaded = _fresh("-c", CODEGEN_CHILD, *scenario, *argv).split()
    assert int(got) == (2 if argv == ["charge"] and not scenario else 0)
    assert not loaded, loaded


# runs one argv through cli.run, help and refusals included, and prints which argv modules loaded
ARGV_CHILD = """
import sys
from twistor_pushout.cli import run
try:
    run(sys.argv[1:])
except SystemExit:  # help, --version and usage errors exit inside argparse
    pass
print("loaded:", *sorted({"argparse", "gettext"} & set(sys.modules)))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["--json", "--scenario", P3_P3, "ring-show", "--branch", "2"],
        ["--json", "--scenario", P3_P3, "equalizer", "--member", str(ROOT / "tests" / "data" / "member_p3.json")],
        ["--json", "surfaces", "--pair", "1", "in", "2", "out"],
        ["--json", "charge", FLAG_FLAG],
        ["--json", "neck", "--curve", "3", "-1", "--character", "1", "-1"],
        ["--json", "real", "--samples", "5"],
    ],
    ids=COMMANDS,
)
def test_a_canonical_command_line_loads_no_argparse(argv):
    # the spelled-out form that the goldens and the benchmark run is read without argparse
    assert _fresh("-c", ARGV_CHILD, *argv).splitlines()[-1] == "loaded:"


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["real", "--samp", "5"], ["real", "--samples=5"], ["real", "--samples", "5x"]],
    ids=["help", "abbreviation", "equals", "usage-error"],
)
def test_every_other_command_line_goes_to_argparse(argv):
    assert _fresh("-c", ARGV_CHILD, *argv).splitlines()[-1] == "loaded: argparse gettext"
