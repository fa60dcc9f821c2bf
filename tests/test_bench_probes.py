"""The benchmark's probes (``bench/tracer.py``) still fit the package.

The tracer wraps package functions and methods by name, so renaming or
deleting one of them breaks only a traced benchmark run.  Here the probes are
installed around one CLI run: every name must resolve, the traced output must
equal the untraced one, the run must reach the probes its command passes
through, and every wrapped attribute must be restored on exit.  ``neck`` runs
the circle-bundle probes; ``charge`` runs the render probe, which wraps the
report's JSON rendering inside the CLI's error handling, and the scenario-load
and charge probes; ``equalizer`` on ``flag_flag`` runs the ring-build,
``blow_up``, ring-hom, closure and oracle probes; ``ring-show`` on
``flag_flag``, the one command that checks the projection formula, runs the
``blow_up`` and projection-formula probes.
"""

import importlib.util
from pathlib import Path

import pytest

from twistor_pushout.cli import run

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"
RUNS = {
    "neck": (["--json", "neck", "--curve", "3", "1"], ["neck"]),
    "charge": (
        ["--json", "charge", str(ROOT / "scenarios" / "p3_p3.json")],
        ["cli.render", "scenario.load", "charges.charge"],
    ),
    "equalizer": (
        ["--json", "equalizer", str(ROOT / "scenarios" / "flag_flag.json")],
        [
            "rings.ring_build",
            "pushout.blow_up",
            "rings.hom_check",
            "pushout.closure",
            "pushout.oracle",
        ],
    ),
    "ring-show": (
        ["--json", "ring-show", str(ROOT / "scenarios" / "flag_flag.json")],
        ["pushout.blow_up", "pushout.projection_formula"],
    ),
}


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv, spans", list(RUNS.values()), ids=list(RUNS))
def test_probes_wrap_a_run_without_changing_it_and_come_off(argv, spans):
    tracer = _tracer()
    expected = run(argv)
    recorder = tracer.Recorder()
    instrumentation = tracer.Instrumentation(recorder)
    with instrumentation:
        wrapped = list(instrumentation.undo)
        assert all(getattr(owner, attr) is not original for owner, attr, original in wrapped)
        traced = run(argv)
    assert traced == expected and expected[0] == 0
    totals = recorder.totals()
    assert all(totals.get(name, {}).get("calls", 0) > 0 for name in spans)
    assert wrapped and all(getattr(owner, attr) is original for owner, attr, original in wrapped)
