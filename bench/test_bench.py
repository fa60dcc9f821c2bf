"""The benchmark's own tests: smoke runs, failure accounting, and the bare-directory refusal.

Run from the repository root with ``python -m pytest bench``.  Smoke mode
uses the smallest inputs, one pass and no timing bounds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import expect
import run


def _declared(kind: str) -> list[str]:
    return [m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())[kind]]


def _smoke(capsys, monkeypatch, workload: str, trace: int = 0) -> dict:
    monkeypatch.chdir(run.ROOT)
    argv = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_reports_every_end_to_end_metric(capsys, monkeypatch, workload):
    result = _smoke(capsys, monkeypatch, workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["synthetic-cli", "warm-queries"])
def test_traced_smoke_reports_every_per_layer_metric(capsys, monkeypatch, workload):
    result = _smoke(capsys, monkeypatch, workload, trace=1)
    assert result["correct"] is True
    metrics = result["metrics"]
    assert list(metrics) == _declared("per_layer")
    assert metrics["rings.ring_builds"]["value"] > 0
    assert metrics["trace.overhead_ratio"]["value"] > 0
    if workload == "synthetic-cli":
        # rank 3 is the one synthetic rank whose rank sums admit the oracle
        assert metrics["pushout.oracle_ms"]["value"] > 0
        assert metrics["pushout.oracle_skips"]["value"] == 0
    else:
        assert metrics["charges.lift_ms"]["value"] > 0
        assert metrics["realstruct.basepoint_hits"]["value"] > 0


def test_one_wrong_expectation_makes_failures_nonzero(capsys, monkeypatch):
    true_ranks = expect.equalizer_ranks
    monkeypatch.setattr(expect, "equalizer_ranks", lambda b1, b2: [r + 1 for r in true_ranks(b1, b2)])
    result = _smoke(capsys, monkeypatch, "synthetic-cli")
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["failed"] < result["attempted"]


def test_changed_output_for_a_repeated_command_is_a_failure():
    tally = run.Tally()
    tally.record("op", ("argv",), "first", [])
    tally.record("op", ("argv",), "second", [])
    assert (tally.attempted, tally.failed) == (2, 1)


def test_host_clock_scales_by_the_references_on_either_side(monkeypatch):
    references = iter([0.1, 0.05, 0.15, 0.3, 0.2])
    monkeypatch.setattr(run, "reference_s", lambda: next(references))
    clock = run.HostClock()
    # one job after a short interval, the median of 1 + 2 jobs after a 2.5 s one
    assert clock.scaled(0.5) == pytest.approx(0.5 * run.REFERENCE_NOMINAL_S / 0.075)
    assert clock.scaled(2.5) == pytest.approx(2.5 * run.REFERENCE_NOMINAL_S / 0.125)
    assert len(clock.references) == 5


def test_reference_job_prints_its_checksum():
    assert run.reference_s() > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "shipped-cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
