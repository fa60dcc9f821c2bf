"""Stdlib-only span and counter recorder, attached to the package from outside.

Two kinds of probe wrap the package's public functions:

* spans, for stage functions called a handful of times per operation: each
  call records (name, start, end, parent) in memory, and a span's self time is
  its duration minus the time its child spans cover;
* timed counters, for per-element functions called up to millions of times
  (``GradedRing.multiply``, ``GradedMap.apply``, ``lattice_contains``,
  ``glue_check``, ``pencil_value``): each call adds to a call count and a total
  time, and records no span, so memory stays flat and parents' self times
  include them.

Work counts the program does not expose are computed from the ranks of the
objects a probe sees (associativity triples, ring-hom pairs, closure products,
oracle box size).  A function is wrapped in its defining module and under every
other name the package binds it to (``from .x import y``), so calls through
``cli`` and ``scenario`` are seen as well.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

MODULES = (
    "cli", "scenario", "rings", "intlin", "quadric", "pushout",
    "surfaces", "charges", "neck", "realstruct", "gaussian",
)
NECK_FUNCTIONS = (
    "kn_fixed_phase_bundle", "raw_fibre_pairing", "restrict_to_ruling_fibre_bundle",
    "restrict_to_curve", "character_quotient", "lens_space_of",
    "antidiagonal_quotient_over_fibre", "phase_solve", "neck_point", "phase_decoration",
)


class Recorder:
    """Spans and counters of one traced run, kept in memory until the end."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.labels: dict[int, str] = {}  # root span index -> operation label
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.times_ns: dict[str, int] = defaultdict(int)

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter_ns(), 0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.stack.pop()
        self.spans[index][2] = perf_counter_ns()

    @contextmanager
    def operation(self, name: str, label: str):
        """A root span for one operation of the workload, labelled for grouping."""
        index = self.open(name)
        self.labels[index] = label
        try:
            yield
        finally:
            self.close(index)

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    # -- summaries ---------------------------------------------------------------

    def self_ns(self) -> list[int]:
        own = [end - start for _, start, end, _ in self.spans]
        for name, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def root_labels(self) -> list[str | None]:
        """The operation label of each span's root span (None outside operations)."""
        labels: list[str | None] = []
        for i, (_, _, _, parent) in enumerate(self.spans):
            labels.append(self.labels.get(i) if parent < 0 else labels[parent])
        return labels

    def totals(self, select=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, outermost inclusive ms, and self ms.

        ``select`` filters spans by the label of their operation.
        """
        own = self.self_ns()
        labels = self.root_labels()
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            if select is not None and not select(labels[i]):
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["self_ms"] += own[i] / 1e6
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                entry["ms"] += (end - start) / 1e6
        return dict(out)

    def self_by_label(self) -> dict[str, dict[str, float]]:
        """Self ms per span name, grouped by the operation label of the root span."""
        own = self.self_ns()
        labels = self.root_labels()
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, _, _, _) in enumerate(self.spans):
            label = labels[i]
            if label is not None:
                out[label][name] += own[i] / 1e6
        return {k: dict(v) for k, v in out.items()}

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p, "op": self.labels.get(i)}
            for i, (n, s, e, p) in enumerate(self.spans)
        ]


def _span(rec: Recorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def _timed(rec: Recorder, name: str, fn, after=None):
    counts, times = rec.counts, rec.times_ns

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = perf_counter_ns()
        result = fn(*args, **kwargs)
        times[name] += perf_counter_ns() - start
        counts[name] += 1
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def _counted(rec: Recorder, name: str, fn):
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


class Instrumentation:
    """Installs probes on the imported package and removes them again."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self.mods = {name: importlib.import_module(f"twistor_pushout.{name}") for name in MODULES}
        # every namespace that may bind a wrapped function, the package itself included
        self.namespaces = [importlib.import_module("twistor_pushout"), *self.mods.values()]
        self.undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self.undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def function(self, module: str, name: str, wrap) -> None:
        original = getattr(self.mods[module], name)
        wrapped = wrap(original)
        for mod in self.namespaces:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def method(self, cls, name: str, wrap) -> None:
        self._set(cls, name, wrap(cls.__dict__[name]))

    def __enter__(self) -> "Instrumentation":
        rec, m = self.rec, self.mods
        counts = rec.counts
        rings, pushout = m["rings"], m["pushout"]

        def ring_built(args, kwargs, result):
            ring = args[0]
            r = [ring.rank(d) for d in range(ring.top_degree + 1)]
            counts["rings.assoc_triples"] += sum(
                r[a] * r[b] * r[c]
                for a in range(len(r))
                for b in range(len(r) - a)
                for c in range(len(r) - a - b)
            )

        def hom_checked(args, kwargs, result):
            src = args[1]
            r = [src.rank(d) for d in range(src.top_degree + 1)]
            counts["rings.hom_pairs"] += sum(r[a] * r[b] for a in range(len(r)) for b in range(a, len(r)))

        def map_init(fn):
            # only maps built with is_ring_hom=True (the sixth argument) run the check
            spanned = _span(rec, "rings.hom_check", fn, hom_checked)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                is_hom = kwargs["is_ring_hom"] if "is_ring_hom" in kwargs else len(args) > 5 and args[5]
                return (spanned if is_hom else fn)(*args, **kwargs)

            return wrapper

        def ring_eq(fn):
            @functools.wraps(fn)
            def wrapper(self, other):
                if self is not other and isinstance(other, rings.GradedRing):
                    counts["rings.ring_eq_full"] += 1
                return fn(self, other)

            return wrapper

        def hermite(fn):
            spanned = _span(rec, "intlin.hermite", fn)

            @functools.wraps(fn)
            def wrapper(rows):
                rows = list(rows)
                counts["intlin.hermite_rows_in"] += len(rows)
                if rec.current() == "pushout.oracle":
                    # the oracle hands its whole solution set to one Hermite call
                    counts["pushout.oracle_solutions"] += len(rows)
                return spanned(rows)

            return wrapper

        def closure_done(args, kwargs, result):
            r = args[0].ranks()
            counts["pushout.closure_products"] += sum(
                r[a] * r[b] for a in range(len(r)) for b in range(a, len(r) - a)
            )

        def oracle_done(args, kwargs, result):
            geometry, degree = args[0], args[1]
            bound = args[2] if len(args) > 2 else kwargs.get("bound", 3)
            n = geometry.branch1.ring.rank(degree) + geometry.branch2.ring.rank(degree)
            counts["pushout.oracle_box_points"] += (2 * bound + 1) ** n

        def classify_done(args, kwargs, result):
            d_max = args[0] if args else kwargs["d_max"]
            counts["surfaces.admissible"] += len(result)
            counts["surfaces.classified"] += (2 * d_max) ** 2

        basepoint = m["realstruct"].BASEPOINT

        def pencil_done(args, kwargs, result):
            if result is basepoint:
                counts["realstruct.basepoint_hits"] += 1

        self.method(m["cli"].Report, "to_json", lambda f: _span(rec, "cli.render", f))
        for name in ("load_scenario", "default_scenario", "scenario_from_dict"):
            self.function("scenario", name, lambda f: _span(rec, "scenario.load", f))
        self.method(rings.GradedRing, "__init__", lambda f: _span(rec, "rings.ring_build", f, ring_built))
        self.method(rings.GradedRing, "multiply", lambda f: _timed(rec, "rings.multiply", f))
        self.method(rings.GradedRing, "__eq__", ring_eq)
        self.method(rings.GradedMap, "__init__", map_init)
        self.method(rings.GradedMap, "apply", lambda f: _timed(rec, "rings.map_apply", f))
        self.function("intlin", "hermite_row_basis", hermite)
        self.function("intlin", "kernel_basis", lambda f: _span(rec, "intlin.kernel", f))
        self.function("intlin", "lattice_contains", lambda f: _timed(rec, "intlin.contains", f))
        self.function("quadric", "quadric_ring", lambda f: _span(rec, "quadric.ring", f))
        self.function("quadric", "ruling_swap_map", lambda f: _span(rec, "quadric.swap", f))
        self.function("pushout", "blow_up", lambda f: _span(rec, "pushout.blow_up", f))
        self.method(
            pushout.BlownUpChow, "check_projection_formula", lambda f: _span(rec, "pushout.projection_formula", f)
        )
        self.method(pushout.PushoutPair, "__init__", lambda f: _span(rec, "pushout.pair", f))
        self.method(pushout.PushoutPair, "equalizer", lambda f: _span(rec, "pushout.equalizer", f))
        self.method(
            pushout.EqualizerRing, "check_product_closure", lambda f: _span(rec, "pushout.closure", f, closure_done)
        )
        self.function(
            "pushout", "brute_force_matched_lattice", lambda f: _span(rec, "pushout.oracle", f, oracle_done)
        )
        self.function("surfaces", "classify_all", lambda f: _span(rec, "surfaces.classify", f, classify_done))
        self.function("surfaces", "glue_check", lambda f: _timed(rec, "surfaces.glue_check", f))
        self.function("charges", "practical_lift", lambda f: _span(rec, "charges.lift", f))
        self.function("charges", "polarized_charge", lambda f: _span(rec, "charges.charge", f))
        for name in NECK_FUNCTIONS:
            self.function("neck", name, lambda f: _span(rec, "neck", f))
        self.function(
            "realstruct", "pencil_value", lambda f: _timed(rec, "realstruct.pencil", f, pencil_done)
        )
        gaussian = m["gaussian"].GaussianScalar
        self.method(gaussian, "__mul__", lambda f: _counted(rec, "gaussian.mul", f))
        self.method(gaussian, "__rmul__", lambda f: _counted(rec, "gaussian.mul", f))
        self.method(gaussian, "__truediv__", lambda f: _counted(rec, "gaussian.div", f))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self.undo):
            setattr(owner, attr, value)
        self.undo.clear()


def layer_metrics(rec: Recorder, passes: int) -> dict[str, float]:
    """Per-layer metric values per pass, from one traced run's spans and counters."""
    t = rec.totals()
    c, ns = rec.counts, rec.times_ns

    def ms(name: str) -> float:
        return t.get(name, {}).get("ms", 0.0)

    def self_ms(name: str) -> float:
        return t.get(name, {}).get("self_ms", 0.0)

    def calls(name: str) -> int:
        return int(t.get(name, {}).get("calls", 0))

    box = c["pushout.oracle_box_points"]
    classified = c["surfaces.classified"]
    raw = {
        "cli.render_ms": self_ms("cli.render"),
        "scenario.load_ms": self_ms("scenario.load"),
        "rings.ring_build_ms": ms("rings.ring_build"),
        "rings.ring_builds": calls("rings.ring_build"),
        "rings.assoc_triples": c["rings.assoc_triples"],
        "rings.hom_check_ms": ms("rings.hom_check"),
        "rings.hom_pairs": c["rings.hom_pairs"],
        "rings.multiply_calls": c["rings.multiply"],
        "rings.multiply_ms": ns["rings.multiply"] / 1e6,
        "rings.map_apply_calls": c["rings.map_apply"],
        "rings.map_apply_ms": ns["rings.map_apply"] / 1e6,
        "rings.ring_eq_full": c["rings.ring_eq_full"],
        "intlin.hermite_ms": ms("intlin.hermite"),
        "intlin.hermite_rows_in": c["intlin.hermite_rows_in"],
        "intlin.kernel_ms": ms("intlin.kernel"),
        "intlin.contains_calls": c["intlin.contains"],
        "intlin.contains_ms": ns["intlin.contains"] / 1e6,
        "quadric.ring_builds": calls("quadric.ring"),
        "quadric.swap_builds": calls("quadric.swap"),
        "pushout.blow_up_ms": ms("pushout.blow_up"),
        "pushout.blow_ups": calls("pushout.blow_up"),
        "pushout.projection_formula_ms": ms("pushout.projection_formula"),
        "pushout.projection_formula_runs": calls("pushout.projection_formula"),
        "pushout.equalizer_ms": ms("pushout.equalizer"),
        "pushout.closure_ms": ms("pushout.closure"),
        "pushout.closure_products": c["pushout.closure_products"],
        "pushout.oracle_ms": ms("pushout.oracle"),
        "pushout.oracle_box_points": box,
        "pushout.oracle_solutions": c["pushout.oracle_solutions"],
        "surfaces.classify_ms": ms("surfaces.classify"),
        "surfaces.glue_checks": c["surfaces.glue_check"],
        "charges.lift_ms": ms("charges.lift"),
        "charges.charge_ms": ms("charges.charge"),
        "neck.ms": ms("neck"),
        "realstruct.pencil_ms": ns["realstruct.pencil"] / 1e6,
        "realstruct.pencil_calls": c["realstruct.pencil"],
        "realstruct.basepoint_hits": c["realstruct.basepoint_hits"],
        "gaussian.mul_calls": c["gaussian.mul"],
        "gaussian.div_calls": c["gaussian.div"],
    }
    out = {name: value / passes for name, value in raw.items()}
    # ratios are not divided by the pass count
    out["pushout.oracle_useful_ratio"] = c["pushout.oracle_solutions"] / box if box else 0.0
    out["surfaces.admissible_ratio"] = c["surfaces.admissible"] / classified if classified else 0.0
    return out
