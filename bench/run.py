#!/usr/bin/env python3
"""The certificate benchmark: three verdict-checked workloads and a traced run.

Run from the repository root:

    python3 bench/run.py --workload shipped-cli --seed 1 --seconds 55 --trace 0

Workloads (closed loop, one client, at most one child process at a time):

* ``shipped-cli``   fresh ``python -m twistor_pushout --json`` processes for all
  six subcommands on the default, p3_p3 and flag_flag scenarios, plus one
  ``surfaces --pair``; how certificates are produced.
* ``synthetic-cli`` fresh ``equalizer`` and ``ring-show`` processes on the
  benchmark-only synthetic family at blown-up degree-1 ranks 3, 5, 7, 11, 19;
  the cubic ring, ring-hom and projection-formula checks dominate.
* ``warm-queries``  one process: set-up builds flag_flag and a rank-11
  synthetic pair with their equalizers, then a seeded stream of library
  queries; per-element arithmetic dominates.

``BENCHMARK.json`` declares the first two; ``warm-queries`` runs the same way
but is too sensitive to the shared host's speed to gate on (see README.md).

Times of the ``-cli`` workloads are in reference-host units: each raw time is
scaled by ``REFERENCE_NOMINAL_S`` over the mean of the ``reference.py`` jobs
timed just before and just after it, so the shared host's changing speed
cancels out (README.md, Noise).  The raw figures go to the run record.

Every answer is checked against a closed form derived in ``expect.py``.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of an in-process traced run with ``--trace 1``.  A run
record (and, when traced, the spans) is written under ``.bench_out/``.
``--smoke`` runs the smallest inputs once, with no timing loop.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import expect  # noqa: E402
import gen  # noqa: E402
import reference  # noqa: E402

SETUP_REPEATS = 3
REAL_SAMPLES = 100
WARM_RANK = 11
TRACE_WARM_ROUNDS = 20
FLOOR_REPEATS = 5
# What one reference job takes on the host the figures are expressed for: a
# typical time of ``reference.py`` on the 2-vCPU reference machine.
REFERENCE_NOMINAL_S = 0.09
# After an interval, one reference job plus one more per this many seconds of it,
# so a long operation is compared with a steadier median.
REFERENCE_EVERY_S = 1.0
SHIPPED = (("default", None), ("p3_p3", "scenarios/p3_p3.json"), ("flag_flag", "scenarios/flag_flag.json"))
BUILTIN = {"p3": gen.P3, "flag": gen.FLAG}


@dataclass
class Op:
    """One fresh-process invocation: arguments after ``--json`` and its checker."""

    label: str
    argv: list[str]
    check: Callable[[int, str], list[str]]
    skips_oracle: bool = False
    unused_geometry: bool = False


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    # a compact array: the samples' own growth counts in warm-queries' RSS
    latencies_ms: array = field(default_factory=lambda: array("d"))
    failures: list[str] = field(default_factory=list)
    seen: dict = field(default_factory=dict)

    def record(self, label: str, key, output, errors: list[str]) -> None:
        """Count one answer; ``key`` groups repeats whose output must be byte-identical."""
        self.attempted += 1
        if key is not None:
            first = self.seen.setdefault(key, output)
            if first != output:
                errors = errors + ["output differs from an earlier run of the same command"]
        if errors:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {'; '.join(errors)}")


# -- fresh processes --------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


ENV = _child_env()


def spawn(cmd: list[str]) -> tuple[int, str, float, int]:
    """Run one child to completion: (exit code, stdout, seconds spawn-to-exit, max RSS in KiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode("utf-8", "replace"), time.perf_counter() - start, usage.ru_maxrss


def cli_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "twistor_pushout", "--json", *argv]


def reference_s() -> float:
    """Seconds one fresh ``reference.py`` job takes now."""
    code, out, elapsed, _ = spawn([sys.executable, str(HERE / "reference.py")])
    if code != 0 or out.strip() != str(reference.CHECKSUM):
        raise RuntimeError(f"reference job exited with {code} and printed {out.strip()!r}")
    return elapsed


class HostClock:
    """Converts raw seconds to reference-host seconds.

    A reference job runs before the first timed interval, and after each one
    one job plus one per ``REFERENCE_EVERY_S`` of the interval; an interval's
    scale is ``REFERENCE_NOMINAL_S`` over the mean of the median job times on
    either side of it.
    """

    def __init__(self) -> None:
        self.references = [reference_s()]
        self.before = self.references[0]

    def scaled(self, raw_s: float) -> float:
        """Call right after a timed interval of ``raw_s`` seconds."""
        jobs = [reference_s() for _ in range(1 + int(raw_s / REFERENCE_EVERY_S))]
        self.references.extend(jobs)
        after = statistics.median(jobs)
        scale = REFERENCE_NOMINAL_S / ((self.before + after) / 2)
        self.before = after
        return raw_s * scale


# -- inputs ----------------------------------------------------------------------------


def _write_json(path: Path, doc) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path.relative_to(ROOT))


def _scenario_bases(doc: dict | None) -> tuple[gen.Base, gen.Base]:
    if doc is None:
        return gen.P3, gen.P3
    return BUILTIN[doc["branch1"]["builtin"]], BUILTIN[doc["branch2"]["builtin"]]


def _random_surface_pair(rng: random.Random) -> tuple:
    """A (d1, in|out, d2, in|out) configuration: from the rigid table half of the time."""
    if rng.random() < 0.5:
        return rng.choice(sorted(expect.RIGID_TABLE))
    return (rng.randint(1, 4), rng.choice(("in", "out")), rng.randint(1, 4), rng.choice(("in", "out")))


class Shipped:
    """All six subcommands x {default, p3_p3, flag_flag}, plus one ``surfaces --pair``."""

    name = "shipped-cli"

    def __init__(self, seed: int, work: Path, smoke: bool) -> None:
        self.seed = seed
        rng = random.Random(f"{self.name}-{seed}-members")
        self.scenarios = []
        for scen, path in SHIPPED:
            doc = json.loads((ROOT / path).read_text(encoding="utf-8")) if path else None
            b1, b2 = _scenario_bases(doc)
            members = {True: [], False: []}
            for want in (True, False):
                for i, degree in enumerate((1, 2, 1, 2)):
                    v1, v2 = gen.random_pair(rng, b1, b2, degree, want)
                    file = _write_json(
                        work / f"member-{scen}-{int(want)}{i}.json",
                        {"degree": degree, "branch1": v1, "branch2": v2},
                    )
                    members[want].append((file, (degree, v1, v2)))
            self.scenarios.append((scen, path, doc, b1, b2, members))
        self.warmup = [(["--scenario", path] if path else []) + ["ring-show"] for _, path in SHIPPED]

    def ops(self, index: int) -> list[Op]:
        rng = random.Random(f"{self.name}-{self.seed}-pass{index}")
        ops = []
        for si, (scen, path, doc, b1, b2, members) in enumerate(self.scenarios):
            pre = ["--scenario", path] if path else []
            default = path is None
            branch = rng.choice(("1", "2"))
            ops.append(
                Op(f"ring-show@{scen}", pre + ["ring-show", "--branch", branch], expect.check_ring_show(b1, b2, branch))
            )
            file, member = rng.choice(members[(index + si) % 2 == 0])
            ops.append(
                Op(
                    f"equalizer@{scen}",
                    pre + ["equalizer", "--member", file],
                    expect.check_equalizer(b1, b2, member),
                    skips_oracle=not expect.oracle_runs(b1, b2),
                )
            )
            surfaces = [(s["degree"], s["contains_line"]) for s in (doc or {}).get("surfaces", [])]
            ops.append(
                Op(f"surfaces@{scen}", pre + ["surfaces"], expect.check_surfaces(surfaces), unused_geometry=default)
            )
            ops.append(Op(f"charge@{scen}", pre + ["charge"], expect.check_charge(b1, b2, doc)))
            curve = (rng.randint(-5, 5), rng.randint(-5, 5))
            character = (rng.randint(-3, 3), rng.randint(-3, 3))
            ops.append(
                Op(
                    f"neck@{scen}",
                    pre + ["neck", "--curve", *map(str, curve), "--character", *map(str, character)],
                    expect.check_neck(curve, character, (doc or {}).get("decoration")),
                    unused_geometry=default,
                )
            )
            real = pre + ["real", "--samples", str(REAL_SAMPLES)]
            ops.append(Op(f"real@{scen}", real, expect.check_real(REAL_SAMPLES), unused_geometry=default))
        pair = _random_surface_pair(rng)
        argv = ["surfaces", "--pair", *map(str, pair)]
        ops.append(Op("surfaces-pair@default", argv, expect.check_surface_pair(*pair), unused_geometry=True))
        rng.shuffle(ops)
        return ops


class Synthetic:
    """``equalizer`` and ``ring-show`` on the benchmark-only synthetic family."""

    name = "synthetic-cli"

    def __init__(self, seed: int, work: Path, smoke: bool) -> None:
        self.seed = seed
        self.ranks = gen.SYNTHETIC_RANKS[:1] if smoke else gen.SYNTHETIC_RANKS
        rng = random.Random(f"{self.name}-{seed}-bases")
        self.inputs = {}
        for rank in self.ranks:
            b1, b2 = gen.synthetic_base(rank, rng), gen.synthetic_base(rank, rng)
            scenario = {"branch1": b1.doc, "branch2": b2.doc}
            self.inputs[rank] = (_write_json(work / f"synthetic-r{rank}.json", scenario), b1, b2)
        self.warmup = [["--scenario", self.inputs[self.ranks[0]][0], "ring-show"]]

    def ops(self, index: int) -> list[Op]:
        rng = random.Random(f"{self.name}-{self.seed}-pass{index}")
        ops = []
        for rank, (path, b1, b2) in self.inputs.items():
            ops.append(
                Op(
                    f"equalizer@r{rank}",
                    ["--scenario", path, "equalizer"],
                    expect.check_equalizer(b1, b2),
                    skips_oracle=not expect.oracle_runs(b1, b2),
                )
            )
            branch = rng.choice(("1", "2"))
            argv = ["--scenario", path, "ring-show", "--branch", branch]
            ops.append(Op(f"ring-show@r{rank}", argv, expect.check_ring_show(b1, b2, branch)))
        # The quadric view at the smallest rank loads and checks a whole scenario
        # but prints no table: a floor-sized operation, and an odd count per
        # pass, so the median lands inside a block of like operations.
        path, b1, b2 = self.inputs[self.ranks[0]]
        ops.append(
            Op(
                f"ring-show-quadric@r{self.ranks[0]}",
                ["--scenario", path, "ring-show", "--branch", "quadric"],
                expect.check_ring_show(b1, b2, "quadric"),
            )
        )
        rng.shuffle(ops)
        return ops


# -- the -cli workloads ------------------------------------------------------------------


def _quantiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=10)
    return q[4], q[8]


def _another_pass(start: float, pass_began: float, seconds: float, smoke: bool) -> bool:
    """Whether one more pass, as long as the last, still ends within the run's seconds."""
    now = time.perf_counter()
    return not smoke and (now - start) + (now - pass_began) <= seconds


def cli_setup(workload, clock: HostClock) -> tuple[list[float], list[float]]:
    """Set-up: the warm-up invocations (bytecode and file caches), timed SETUP_REPEATS times.

    Returns the scaled and the raw seconds of each repeat.
    """
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        for argv in workload.warmup:
            code, _, _, _ = spawn(cli_cmd(argv))
            if code != 0:
                raise RuntimeError(f"warm-up {' '.join(argv)} exited with {code}")
        raw.append(time.perf_counter() - start)
        scaled.append(clock.scaled(raw[-1]))
    return scaled, raw


def run_cli(workload, seconds: float, smoke: bool) -> dict:
    clock = HostClock()
    setup, setup_raw = cli_setup(workload, clock)
    tally = Tally()
    raw_ms = array("d")
    by_label: dict[str, list[float]] = {}
    busy_s = 0.0
    peak_kib = 0
    passes = 0
    start = time.perf_counter()
    while True:
        pass_began = time.perf_counter()
        for op in workload.ops(passes):
            code, out, elapsed, kib = spawn(cli_cmd(op.argv))
            latency_s = clock.scaled(elapsed)
            busy_s += latency_s
            tally.latencies_ms.append(latency_s * 1e3)
            raw_ms.append(elapsed * 1e3)
            by_label.setdefault(op.label, []).append(latency_s * 1e3)
            peak_kib = max(peak_kib, kib)
            tally.record(op.label, tuple(op.argv), out, op.check(code, out))
        passes += 1
        if not _another_pass(start, pass_began, seconds, smoke):
            break
    loop_s = time.perf_counter() - start
    p50, p90 = _quantiles(tally.latencies_ms)
    raw_p50, raw_p90 = _quantiles(raw_ms)
    metrics = {
        "ops_per_s": ((tally.attempted - tally.failed) / busy_s, "1/s"),
        "latency_ms_p50": (p50, "ms"),
        "latency_ms_p90": (p90, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }
    raw = {
        "ops_per_s": (tally.attempted - tally.failed) / (sum(raw_ms) / 1e3),
        "latency_ms_p50": raw_p50,
        "latency_ms_p90": raw_p90,
        "setup_s": statistics.median(setup_raw),
        "reference_ms_median": statistics.median(clock.references) * 1e3,
        "reference_ms_range": max(clock.references) / min(clock.references),
    }
    return {
        "tally": tally,
        "metrics": metrics,
        "raw": raw,
        "passes": passes,
        "loop_s": loop_s,
        "setup_samples_s": setup,
        "latency_ms_p50_by_operation": {label: statistics.median(v) for label, v in sorted(by_label.items())},
    }


def trace_cli(workload, seconds: float, smoke: bool) -> dict:
    import tracer
    from twistor_pushout import cli

    floors = {"interpreter": [], "import": []}
    for _ in range(1 if smoke else FLOOR_REPEATS):
        floors["interpreter"].append(spawn([sys.executable, "-c", "pass"])[2] * 1e3)
        floors["import"].append(spawn([sys.executable, "-c", "import twistor_pushout.cli"])[2] * 1e3)
    interpreter = statistics.median(floors["interpreter"])
    rec = tracer.Recorder()
    tally = Tally()
    untraced_s = traced_s = 0.0
    passes = 0
    start = time.perf_counter()
    while True:
        pass_began = time.perf_counter()
        ops = workload.ops(passes)
        # alternate which side runs first, so warming up favours neither
        for traced in (False, True) if passes % 2 == 0 else (True, False):
            began = time.perf_counter()
            with tracer.Instrumentation(rec) if traced else nullcontext():
                for op in ops:
                    with rec.operation("cli.run", op.label) if traced else nullcontext():
                        code, out = cli.run(["--json", *op.argv])
                    tally.record(op.label, tuple(op.argv), out, op.check(code, out))
            if traced:
                traced_s += time.perf_counter() - began
            else:
                untraced_s += time.perf_counter() - began
        passes += 1
        if not _another_pass(start, pass_began, seconds, smoke):
            break
    last = workload.ops(0)
    layers = tracer.layer_metrics(rec, passes)
    unused = {op.label for op in last if op.unused_geometry}
    pairs = rec.totals(select=lambda label: label in unused).get("pushout.pair", {}).get("calls", 0)
    layers.update(
        {
            "cli.interpreter_ms": interpreter,
            "cli.import_ms": statistics.median(floors["import"]) - interpreter,
            "scenario.geometry_builds": pairs / passes,
            "pushout.oracle_skips": sum(op.skips_oracle for op in last),
            "trace.overhead_ratio": traced_s / untraced_s,
        }
    )
    scaling = _scaling(rec, workload, passes) if isinstance(workload, Synthetic) else {}
    layers.update(scaling.get("exponents", NO_SCALING))
    return {"tally": tally, "layers": layers, "rec": rec, "passes": passes, "scaling": scaling}


def _fit_exponent(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x: the growth exponent."""
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if y > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / sxx


SCALING_STAGES = {
    "ring_build_ms": "rings.ring_build",
    "blow_up_ms": "pushout.blow_up",
    "closure_ms": "pushout.closure",
}
NO_SCALING = {f"scaling.{key}_exponent": 0.0 for key in SCALING_STAGES}  # workloads without the rank family


def _scaling(rec, workload: "Synthetic", passes: int) -> dict:
    """Per-rank stage times of synthetic-cli with their fitted growth exponents (reported, never gated)."""
    table = {}
    for rank in workload.ranks:
        suffix = f"@r{rank}"
        totals = rec.totals(select=lambda label, s=suffix: label is not None and label.endswith(s))
        table[rank] = {key: totals.get(span, {}).get("ms", 0.0) / passes for key, span in SCALING_STAGES.items()}
    ranks = list(table)
    exponents = {
        f"scaling.{key}_exponent": _fit_exponent(ranks, [table[r][key] for r in ranks]) for key in SCALING_STAGES
    }
    return {"per_rank": table, "exponents": exponents}


# -- warm-queries --------------------------------------------------------------------------


class Warm:
    """Library queries on geometries built once in set-up."""

    name = "warm-queries"

    def __init__(self, seed: int, work: Path, smoke: bool) -> None:
        self.seed = seed
        rank = gen.SYNTHETIC_RANKS[0] if smoke else WARM_RANK
        rng = random.Random(f"{self.name}-{seed}-bases")
        self.synthetic = (gen.synthetic_base(rank, rng), gen.synthetic_base(rank, rng))
        self.flag_path = ROOT / "scenarios" / "flag_flag.json"

    def setup(self):
        """Program set-up: both geometries and their equalizers."""
        from twistor_pushout.scenario import load_scenario, scenario_from_dict

        b1, b2 = self.synthetic
        flag = load_scenario(self.flag_path)
        synth = scenario_from_dict({"branch1": b1.doc, "branch2": b2.doc})
        return [
            (flag.geometry, flag.geometry.equalizer(), gen.FLAG, gen.FLAG),
            (synth.geometry, synth.geometry.equalizer(), b1, b2),
        ]

    def queries(self, contexts, rng: random.Random) -> list[tuple[str, Callable, Callable]]:
        """One round: (label, call, check) triples, 13 per round in a fixed mix."""
        from twistor_pushout.charges import GluedBundleData, practical_lift, polarized_charge
        from twistor_pushout.gaussian import GaussianScalar
        from twistor_pushout.pushout import ComponentPair
        from twistor_pushout.realstruct import BASEPOINT, pencil_value, point
        from twistor_pushout.surfaces import SurfaceData, glue_check

        out = []
        for name, (geometry, equalizer, b1, b2) in zip(("flag", "synthetic"), contexts):
            r1, r2 = geometry.branch1.ring, geometry.branch2.ring

            def pair(degree, v1, v2):
                return ComponentPair(r1.homogeneous(degree, v1), r2.homogeneous(degree, v2))

            for label, method in (("contains", equalizer.contains), ("is_matched", geometry.is_matched)):
                degree, want = rng.choice((1, 2)), rng.random() < 0.5
                p = pair(degree, *gen.random_pair(rng, b1, b2, degree, want))
                out.append((f"{label}@{name}", lambda m=method, p=p: m(p), _expecting(want)))

            va, vb = (gen.random_pair(rng, b1, b2, 1, True) for _ in range(2))
            coeffs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(5)]
            poly = dict(zip([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)], coeffs))
            divisors = [pair(1, *va), pair(1, *vb)]

            def check_lift(result, va=va, vb=vb, c=coeffs, b1=b1, b2=b2):
                errors = []
                first, second = result.pair.first, result.pair.second
                if result.matched is not True:
                    errors.append("lift is not flagged matched")
                for d in range(4):
                    if not gen.matched(b1, b2, d, first.degree_part(d), second.degree_part(d)):
                        errors.append(f"lift is unmatched in degree {d}")
                for element, k in ((first, 0), (second, 1)):
                    if element.degree_part(0) != (c[0],):
                        errors.append("constant term")
                    linear = tuple(c[1] * x + c[2] * y for x, y in zip(va[k], vb[k]))
                    if element.degree_part(1) != linear:
                        errors.append("linear term")
                return errors

            lift = lambda g=geometry, po=poly, dv=divisors: practical_lift(g, po, dv)  # noqa: E731
            out.append((f"practical_lift@{name}", lift, check_lift))

            c2 = [[rng.randint(-3, 3) for _ in range(b.blown_ranks()[2])] for b in (b1, b2)]
            h = gen.random_pair(rng, b1, b2, 1, True)
            want = expect.branch_degree(b1, c2[0], h[0]) + expect.branch_degree(b2, c2[1], h[1])
            zero = ComponentPair(r1.zero(), r2.zero())
            c2_pair, polarization = pair(2, *c2), pair(1, *h)

            def charge(g=geometry, z=zero, c=c2_pair, pol=polarization):
                return polarized_charge(GluedBundleData(g, 2, z, c, False, (0, 0)), pol)

            out.append((f"charge@{name}", charge, _expecting(want)))

        for _ in range(2):
            d1, f1, d2, f2 = _random_surface_pair(rng)
            s1, s2 = SurfaceData(d1, f1 == "in"), SurfaceData(d2, f2 == "in")
            want = (d1, f1, d2, f2) in expect.RIGID_TABLE
            out.append(("glue_check", lambda s1=s1, s2=s2: glue_check(s1, s2), _expecting(want)))

        def gauss():
            while True:
                re, im = rng.randint(-6, 6), rng.randint(-6, 6)
                if re or im:
                    return (re, im)

        for k in range(3):
            if k < 2:
                coords = [gauss() for _ in range(4)]
            else:  # a base point (lambda, +-i lambda) x (mu, +-i mu)
                lam, mu, s = gauss(), gauss(), rng.choice((1, -1))
                coords = [lam, (-s * lam[1], s * lam[0]), mu, (-s * mu[1], s * mu[0])]
            p = point(*(GaussianScalar.of(re, im) for re, im in coords))
            want = _pencil(coords)

            def check_pencil(result, want=want):
                if want is None:
                    return [] if result is BASEPOINT else ["expected the base point marker"]
                if result is BASEPOINT:
                    return ["unexpected base point"]
                got = tuple((v.re, v.im) for v in result)
                return [] if got == want else [f"pencil value {got}, expected {want}"]

            out.append(("pencil_value", lambda p=p: pencil_value(p), check_pencil))
        return out


def _expecting(want):
    """A checker comparing a query's result with its expected value (by identity for booleans)."""

    def check(result) -> list[str]:
        same = result is want if isinstance(want, bool) else result == want
        return [] if same else [f"got {result!r}, expected {want!r}"]

    return check


def _pencil(coords):
    """[s1 : -s2] for s1 = z0 w0 + z1 w1, s2 = z0 w1 - z1 w0 over Gaussian integers.

    None at the base points, where both vanish.
    """

    def mul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    z0, z1, w0, w1 = coords
    a, b = mul(z0, w0), mul(z1, w1)
    s1 = (a[0] + b[0], a[1] + b[1])
    c, d = mul(z0, w1), mul(z1, w0)
    minus_s2 = (d[0] - c[0], d[1] - c[1])
    if s1 == (0, 0) and minus_s2 == (0, 0):
        return None
    return tuple(tuple(map(int, v)) for v in (s1, minus_s2))


def _run_round(queries, tally: Tally, rec=None) -> float:
    """Run one round, returning the seconds spent inside the calls."""
    busy = 0.0
    for label, call, check in queries:
        with rec.operation("query", label) if rec is not None else nullcontext():
            began = time.perf_counter_ns()
            result = call()
            elapsed = time.perf_counter_ns() - began
        busy += elapsed / 1e9
        tally.latencies_ms.append(elapsed / 1e6)
        tally.record(label, None, None, check(result))
    return busy


def _timed_setup(workload: Warm, rec=None):
    with rec.operation("setup", "setup") if rec is not None else nullcontext():
        began = time.perf_counter()
        contexts = workload.setup()
        elapsed = time.perf_counter() - began
    return contexts, elapsed


def run_warm(workload: Warm, seconds: float, smoke: bool) -> dict:
    setup = []
    for _ in range(SETUP_REPEATS):
        contexts, elapsed = _timed_setup(workload)
        setup.append(elapsed)
    tally = Tally()
    busy = 0.0
    rounds = 0
    start = time.perf_counter()
    while True:
        pass_began = time.perf_counter()
        rng = random.Random(f"{workload.name}-{workload.seed}-round{rounds}")
        busy += _run_round(workload.queries(contexts, rng), tally)
        rounds += 1
        if not _another_pass(start, pass_began, seconds, smoke):
            break
    loop_s = time.perf_counter() - start
    # read before the quantiles, whose sorted copy of the samples is the benchmark's, not the program's
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    p50, p90 = _quantiles(tally.latencies_ms)
    metrics = {
        "ops_per_s": ((tally.attempted - tally.failed) / busy, "1/s"),
        "latency_ms_p50": (p50, "ms"),
        "latency_ms_p90": (p90, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }
    return {"tally": tally, "metrics": metrics, "raw": None, "passes": rounds, "loop_s": loop_s, "setup_samples_s": setup}


def trace_warm(workload: Warm, seconds: float, smoke: bool) -> dict:
    """A pass is one set-up plus TRACE_WARM_ROUNDS rounds, run untraced and then traced."""
    import tracer

    rec = tracer.Recorder()
    tally = Tally()
    untraced_s = traced_s = 0.0
    rounds = 1 if smoke else TRACE_WARM_ROUNDS
    passes = 0
    start = time.perf_counter()
    while True:
        pass_began = time.perf_counter()
        for traced in (False, True) if passes % 2 == 0 else (True, False):
            began = time.perf_counter()
            with tracer.Instrumentation(rec) if traced else nullcontext():
                contexts, _ = _timed_setup(workload, rec if traced else None)
                for r in range(rounds):
                    rng = random.Random(f"{workload.name}-{workload.seed}-pass{passes}-round{r}")
                    _run_round(workload.queries(contexts, rng), tally, rec if traced else None)
            if traced:
                traced_s += time.perf_counter() - began
            else:
                untraced_s += time.perf_counter() - began
        passes += 1
        if not _another_pass(start, pass_began, seconds, smoke):
            break
    layers = tracer.layer_metrics(rec, passes)
    layers.update(
        {
            "cli.interpreter_ms": 0.0,
            "cli.import_ms": 0.0,
            "scenario.geometry_builds": 0.0,
            "pushout.oracle_skips": 0.0,
            "trace.overhead_ratio": traced_s / untraced_s,
            **NO_SCALING,
        }
    )
    return {"tally": tally, "layers": layers, "rec": rec, "passes": passes, "scaling": {}}


# -- entry point ------------------------------------------------------------------------------

WORKLOADS = {cls.name: cls for cls in (Shipped, Synthetic, Warm)}


def _git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))


def _declared(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest inputs, one pass, no timing loop")
    args = parser.parse_args(argv)

    if not (SRC / "twistor_pushout" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    work = OUT / f"{args.workload}-seed{args.seed}"
    workload = WORKLOADS[args.workload](args.seed, work, args.smoke)

    if args.trace:
        result = (trace_warm if isinstance(workload, Warm) else trace_cli)(workload, args.seconds, args.smoke)
        declared = _declared("per_layer")
        metrics = {m["name"]: {"value": result["layers"][m["name"]], "unit": m["unit"]} for m in declared}
    else:
        result = (run_warm if isinstance(workload, Warm) else run_cli)(workload, args.seconds, args.smoke)
        declared = _declared("end_to_end")
        metrics = {m["name"]: {"value": result["metrics"][m["name"]][0], "unit": m["unit"]} for m in declared}
    tally: Tally = result["tally"]
    failure_share = tally.failed / tally.attempted

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_revision": _git_revision(),
        "src_lines": _src_lines(),
        "passes": result["passes"],
        "samples": len(tally.latencies_ms),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failure_share": failure_share,
        "failures": tally.failures,
        "metrics": metrics,
    }
    if args.trace:
        rec = result["rec"]
        record["scaling"] = result["scaling"]
        record["self_ms_by_operation"] = {
            label: dict(sorted(((k, v / result["passes"]) for k, v in names.items()), key=lambda kv: -kv[1]))
            for label, names in sorted(rec.self_by_label().items())
        }
        _write_json(OUT / f"spans-{args.workload}-seed{args.seed}.json", rec.dump())
    else:
        record["setup_samples_s"] = result["setup_samples_s"]
        record["loop_s"] = result["loop_s"]
        record["raw"] = result["raw"]
        record["latency_ms_p50_by_operation"] = result.get("latency_ms_p50_by_operation")
    _write_json(OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json", record)

    print(f"{args.workload}  seed {args.seed}  passes {result['passes']}  samples {len(tally.latencies_ms)}")
    for name, entry in metrics.items():
        print(f"  {name:34s} {entry['value']:.6g} {entry['unit']}")
    print(f"  {'failure_share':34s} {failure_share:.6g} ({tally.failed}/{tally.attempted})")
    if not args.trace and result["raw"]:
        print("  unscaled: " + "  ".join(f"{k} {v:.4g}" for k, v in result["raw"].items()))
    if args.trace and result["scaling"]:
        for rank, row in result["scaling"]["per_rank"].items():
            print(f"  rank {rank:2d}: " + "  ".join(f"{k} {v:.4g}" for k, v in row.items()))
    if args.trace:
        for label, names in record["self_ms_by_operation"].items():
            top = next(iter(names.items()), None)
            if top:
                print(f"  largest self time in {label}: {top[0]} {top[1]:.4g} ms")
    for line in tally.failures:
        print(f"  FAILED {line}")
    print(
        json.dumps(
            {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
