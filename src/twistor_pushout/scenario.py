"""Scenario files: JSON descriptions of a glued pair plus optional bundle data.

A scenario names the two branches (built-in bases or inline ring documents),
and may carry bundle blocks, a polarization pair, a surface list, a phase
decoration, and the deformation-assumption flag that decides whether
charge outputs may be labelled as smooth-fibre charges.  This module also
decodes the CLI's ``--member`` and ``--decorate`` files; it reads every input.

Decoding is strict: an integer is a JSON integer (not a float, string or ``true``), a flag
a boolean, a label, id or name a string, and a vector has its declared length; a valid
integer list or ``mult`` entry is read in one pass.  A refusal names the JSON path:
``branch1.mult[3].out[1] must be an integer, got 1.5``.

Loading a scenario checks only that it is a JSON object.  Each block, branches included, is
decoded once, by its own property, on its first read, where a refusal names the file, so a command
ignores faults in blocks it never reads and loads only what those need: ``pushout`` for a branch,
``charges`` for bundles, ``surfaces`` for surfaces, ``neck`` and ``gaussian`` for a decoration.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

if TYPE_CHECKING:
    from .charges import GluedBundleData
    from .gaussian import GaussianScalar
    from .neck import PhaseDecoration
    from .pushout import BlownUpChow, ComponentPair, PushoutPair, TwistorChow
    from .rings import GradedRing
    from .surfaces import SurfaceData

# A document buys work at least cubic in its rank.  The synthetic benchmark
# family peaks at rank 19; from a rank-40 pair, a fresh ring-show takes about
# 0.19 s and equalizer about 0.17 s on a shared 2-vCPU host (README.md, same figures).
MAX_DOCUMENT_RANK = 40
# surfaces reports a glue check for each of the n(n + 1)/2 pairs of listed surfaces.  At 24, a
# fresh --dmax 1 run costs less than surfaces --dmax 200 on p3_p3.json (README.md, same figures).
MAX_SURFACES = 24


class Scenario:
    """A scenario document's blocks, each decoded once, by its own property, on its first read.
    ``geometry`` glues ``branch1`` and ``branch2``; ``bundles`` and ``polarization`` read against it."""

    def __init__(self, doc: dict, path: str | Path | None = None) -> None:
        self._doc, self._path = doc, path

    def _decode(self, read: Callable, *args):
        """``read(document, *args)``; a refusal names the file, if there is one."""
        doc, path = _Json(self._doc), self._path
        return read(doc, *args) if path is None else _naming(path, read, doc, *args)

    @cached_property
    def branch1(self) -> BlownUpChow:
        return self._decode(_branch, "branch1")

    @cached_property
    def branch2(self) -> BlownUpChow:
        return self._decode(_branch, "branch2")

    @cached_property
    def geometry(self) -> PushoutPair:
        from .pushout import PushoutPair

        return PushoutPair(self.branch1, self.branch2)

    @cached_property
    def bundles(self) -> tuple[GluedBundleData, ...]:
        return self._decode(_bundles, self.geometry)

    @cached_property
    def polarization(self) -> ComponentPair | None:
        if "polarization" not in self._doc:
            return None
        return self._decode(lambda doc, pair: _pair(pair, doc["polarization"], 1), self.geometry)

    @cached_property
    def surfaces(self) -> tuple[SurfaceData, ...]:
        return self._decode(_surfaces)

    @cached_property
    def decoration(self) -> PhaseDecoration | None:
        return self._decode(
            lambda doc: decoration_from_dict(doc["decoration"]) if "decoration" in doc else None
        )

    @cached_property
    def assumption_def(self) -> bool:
        return self._decode(lambda doc: doc.get("assumption_DEF", False).read(bool))


_KINDS = {int: "an integer", bool: "a boolean", str: "a string", list: "a list", dict: "an object"}


def preview(text: str) -> str:
    """``text`` as an error message echoes it: at most 40 characters, the first 36 then " ..."."""
    return text if len(text) <= 40 else text[:36] + " ..."


class _Json:
    """A value in a JSON document and its path there, such as ``branch1.mult[3].out[1]``."""

    def __init__(self, value, path: str = "") -> None:
        self.value, self.path = value, path

    @classmethod
    def of(cls, doc) -> "_Json":
        return doc if isinstance(doc, cls) else cls(doc)

    def refuse(self, expected: str) -> NoReturn:
        # the pure-Python encoder yields lazily: 41 chunks cover the preview and nest at most 41 deep
        got = preview("".join(islice(json.JSONEncoder().iterencode(self.value), 41)))
        raise ValueError(f"{self.path or 'the document'} must be {expected}, got {got}")

    def make(self, kind: Callable, *args, **kwargs):
        """``kind(*args, **kwargs)``, whose arguments are read first; a refusal names this
        block, as in ``bundles[1]: rank must be non-negative``, unless it is the document."""
        try:
            return kind(*args, **kwargs)
        except ValueError as exc:
            if not self.path:
                raise
            raise ValueError(f"{self.path}: {exc}") from exc

    def read(self, kind: type, span: range | None = None):
        """The value, if its type is exactly ``kind`` (a bool is no int) and it lies in ``span``."""
        if type(self.value) is not kind:
            self.refuse(_KINDS[kind])
        if span is not None and self.value not in span:
            self.refuse(f"an integer in {span[0]}..{span[-1]}" if len(span) > 1 else f"{span[0]}")
        return self.value

    def __contains__(self, key: str) -> bool:
        return key in self.read(dict)

    def __getitem__(self, key: str) -> "_Json":
        if key not in self:
            raise ValueError(f"{self.path or 'the document'} is missing field {key!r}")
        return _Json(self.value[key], f"{self.path}.{key}" if self.path else key)

    def get(self, key: str, default) -> "_Json":
        return self[key] if key in self else _Json(default)

    def items(self, length: int | None = None) -> list["_Json"]:
        values = self.read(list)
        if length is not None and len(values) != length:
            self.refuse(f"a list of length {length}")
        return [_Json(value, f"{self.path}[{i}]") for i, value in enumerate(values)]

    def integers(self, length: int | None) -> list[int]:
        if type(self.value) is list and len(self.value) == length and set(map(type, self.value)) <= {int}:
            return self.value  # types read in one pass; a refusal takes the per-item path below
        return [item.read(int) for item in self.items(length)]


def ring_from_dict(doc) -> GradedRing:
    """A ring document: ``top_degree``, one ``basis`` label list per degree, ``mult``
    entries ``{"d1", "i1", "d2", "i2", "out"}``, optional ``degree_functional`` and
    ``name``.  A rank above ``MAX_DOCUMENT_RANK`` is refused before any table is built."""
    from .rings import GradedRing

    doc = _Json.of(doc)
    top = doc["top_degree"].read(int)
    basis = []
    for degree, degree_labels in enumerate(doc["basis"].items(top + 1)):
        labels = degree_labels.items()
        if len(labels) > MAX_DOCUMENT_RANK:
            raise ValueError(
                f"ring document has rank {len(labels)} in degree {degree}; "
                f"at most {MAX_DOCUMENT_RANK} is accepted"
            )
        basis.append([label.read(str) for label in labels])
    products, keys, mult = {}, ("d1", "i1", "d2", "i2"), doc.get("mult", [])
    for n, raw in enumerate(mult.read(list)):
        key = tuple(map(raw.get, keys)) if type(raw) is dict else ()
        d = key[0] + key[2] if set(map(type, key)) == {int} else -1  # a missing key reads None
        out = raw.get("out") if 0 <= d <= top and key not in products else None
        if type(out) is list and len(out) == len(basis[d]) and set(map(type, out)) <= {int}:
            products[key] = out  # a plainly valid entry, read in one pass; any other is read below
            continue
        entry = _Json(raw, f"{mult.path}[{n}]")
        key = tuple(entry[k].read(int) for k in keys)
        if key in products:
            raise ValueError(f"{entry.path} repeats the product {key}")
        d = key[0] + key[2]  # above the top degree, GradedRing checks that the product is zero
        products[key] = entry["out"].integers(len(basis[d]) if 0 <= d <= top else None)
    functional = None
    if "degree_functional" in doc:
        functional = doc["degree_functional"].integers(len(basis[top]))
    return doc.make(GradedRing, top, basis, products, functional, name=doc.get("name", "").read(str))


def twistor_base_from_dict(doc) -> TwistorChow:
    """A top-degree-3 ring document plus ``line_class``, ``twistor_degrees`` and ``point_class``."""
    from .pushout import TWISTOR_TOP, TwistorChow

    doc = _Json.of(doc)
    top = doc["top_degree"].read(int, range(TWISTOR_TOP, TWISTOR_TOP + 1))  # before any cubic check
    ring = ring_from_dict(doc)
    return doc.make(
        TwistorChow,
        ring=ring,
        line_class=ring.homogeneous(2, doc["line_class"].integers(ring.rank(2))),
        twistor_degrees=tuple(doc["twistor_degrees"].integers(ring.rank(1))),
        point_class=ring.homogeneous(top, doc["point_class"].integers(ring.rank(top))),
    )


def _pair(geometry: PushoutPair, doc: _Json, degree: int) -> ComponentPair:
    from .pushout import ComponentPair

    return ComponentPair(*(
        blown.ring.homogeneous(degree, doc[key].integers(blown.ring.rank(degree)))
        for key, blown in (("branch1", geometry.branch1), ("branch2", geometry.branch2))
    ))


def member_from_dict(geometry: PushoutPair, doc) -> tuple[int, ComponentPair]:
    """A membership query ``{"degree", "branch1", "branch2"}``: its degree and pair."""
    from .pushout import TWISTOR_TOP

    doc = _Json.of(doc)
    degree = doc["degree"].read(int, range(TWISTOR_TOP + 1))
    return degree, _pair(geometry, doc, degree)


def scalar_from_dict(doc) -> GaussianScalar:
    """A phase: a Gaussian rational ``{"re_num", "re_den", "im_num", "im_den"}`` of modulus 1."""
    from fractions import Fraction

    from .gaussian import GaussianScalar

    doc = _Json.of(doc)
    for denominator in (doc["re_den"], doc["im_den"]):
        if denominator.read(int) == 0:
            denominator.refuse("a nonzero integer")
    re, im = (Fraction(doc[f"{p}_num"].read(int), doc[f"{p}_den"].value) for p in ("re", "im"))
    scalar = GaussianScalar(re, im)
    if not scalar.is_unit():
        doc.refuse("a Gaussian rational of squared modulus 1")
    return scalar


def decoration_from_dict(doc) -> PhaseDecoration:
    """A phase decoration ``{"theta", "points": [{"id", "eta"}]}``, solved point by point."""
    from .neck import phase_decoration

    doc = _Json.of(doc)
    points = doc.get("points", []).items()
    return doc.make(
        phase_decoration,
        [p["id"].read(str) for p in points],
        scalar_from_dict(doc["theta"]),
        [scalar_from_dict(p["eta"]) for p in points],
    )


def _branch(doc: _Json, key: str) -> BlownUpChow:
    """The branch ``key``, a built-in base or an inline ring document, blown up."""
    from .pushout import BUILTIN_BASES, blow_up

    block = doc[key]
    if "builtin" not in block:
        return block.make(blow_up, twistor_base_from_dict(block))
    name = block["builtin"]
    if name.read(str) not in BUILTIN_BASES:
        name.refuse(f"one of {sorted(BUILTIN_BASES)}")
    return block.make(blow_up, BUILTIN_BASES[name.value]())


def _bundles(doc: _Json, geometry: PushoutPair) -> tuple[GluedBundleData, ...]:
    """The ``bundles`` block, read against the pair's ranks; ``()`` without one."""
    if "bundles" not in doc:
        return ()
    from .charges import GluedBundleData

    return tuple(
        block.make(
            GluedBundleData,
            geometry=geometry,
            rank=block.get("rank", 2).read(int),
            c1_pair=_pair(geometry, block["c1"], 1),
            c2_pair=_pair(geometry, block["c2"], 2),
            restriction_to_quadric_trivial=block.get("trivial_on_Q", False).read(bool),
            h2_end_dims=tuple(block.get("h2_end", [0, 0]).integers(2)),
        )
        for block in doc["bundles"].items()
    )


def _surfaces(doc: _Json) -> tuple[SurfaceData, ...]:
    """The ``surfaces`` block, a non-empty list; ``()`` without one."""
    if "surfaces" not in doc:
        return ()
    from .surfaces import SurfaceData

    given = doc["surfaces"]
    listed = given.items()
    if not listed:  # an empty list would read as no block, so as the default surfaces
        given.refuse("a non-empty list")
    if len(listed) > MAX_SURFACES:
        raise ValueError(f"{given.path} lists {len(listed)} surfaces; at most {MAX_SURFACES} are accepted")
    return tuple(s.make(SurfaceData, s["degree"].read(int), s["contains_line"].read(bool)) for s in listed)


def scenario_from_dict(doc, path: str | Path | None = None) -> Scenario:
    """A scenario document, which must be an object; its blocks are decoded on first
    read, where a refusal names ``path`` if given."""
    return Scenario(_Json.of(doc).read(dict), path)


def _naming(path: str | Path, decode: Callable, *args):
    """``decode(*args)``; a bad document raises a ``ValueError`` naming ``path``."""
    try:
        return decode(*args)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, TypeError, LookupError, AttributeError, ZeroDivisionError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def read_json(path: str | Path, decode: Callable):
    """Decode the JSON file at ``path``; a bad document raises a ``ValueError`` naming it."""
    return _naming(path, lambda: decode(json.loads(Path(path).read_text(encoding="utf-8"))))


def load_scenario(path: str | Path) -> Scenario:
    """The scenario file at ``path``; each block is decoded, or refused naming ``path``, on first read."""
    return read_json(path, lambda doc: scenario_from_dict(doc, path))


_DEFAULT = {"branch1": {"builtin": "p3"}, "branch2": {"builtin": "p3"}}


def default_scenario() -> Scenario:
    """The built-in p3/p3 pair with no other block; the pair is built on first read."""
    return scenario_from_dict(_DEFAULT)
