"""The benchmark's probes (``bench/tracer.py``) still fit the package.

The tracer wraps package functions and methods by name, so renaming or
deleting one of them breaks only a traced benchmark run.  Here the probes are
installed around one CLI run: every name must resolve, the traced output must
equal the untraced one, and every wrapped attribute must be restored on exit.
"""

import importlib.util
from pathlib import Path

from twistor_pushout.cli import run

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
ARGV = ["--json", "neck", "--curve", "3", "1"]


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probes_wrap_a_run_without_changing_it_and_come_off():
    tracer = _tracer()
    expected = run(ARGV)
    recorder = tracer.Recorder()
    instrumentation = tracer.Instrumentation(recorder)
    with instrumentation:
        wrapped = list(instrumentation.undo)
        assert all(getattr(owner, attr) is not original for owner, attr, original in wrapped)
        traced = run(ARGV)
    assert traced == expected
    assert recorder.totals()["neck"]["calls"] > 0
    assert wrapped and all(getattr(owner, attr) is original for owner, attr, original in wrapped)
