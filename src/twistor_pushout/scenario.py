"""Scenario files: JSON descriptions of a glued pair plus optional bundle data.

A scenario names the two branches (built-in bases or inline ring documents),
and may carry bundle blocks, a polarization pair, a surface list, a phase
decoration, and the deformation-assumption flag that decides whether
charge outputs may be labelled as smooth-fibre charges.  This module also
decodes the CLI's ``--member`` and ``--decorate`` files; it reads every input.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from .charges import GluedBundleData
from .gaussian import GaussianScalar
from .neck import PhaseDecoration, phase_decoration
from .pushout import (
    BlownUpChow,
    ComponentPair,
    PushoutPair,
    blow_up,
    builtin_base,
    twistor_base_from_json_dict,
)
from .surfaces import SurfaceData


@dataclass(frozen=True)
class Scenario:
    geometry: PushoutPair
    bundles: tuple[GluedBundleData, ...] = ()
    polarization: ComponentPair | None = None
    surfaces: tuple[SurfaceData, ...] = ()
    decoration: PhaseDecoration | None = None
    assumption_def: bool = False


def _load_branch(doc) -> BlownUpChow:
    if not isinstance(doc, dict):
        raise ValueError("branch specification must be an object")
    if "builtin" in doc:
        return blow_up(builtin_base(str(doc["builtin"])))
    return blow_up(twistor_base_from_json_dict(doc))


def _integer(value, what: str) -> int:
    # a float or a boolean is refused, not truncated or read as 0/1
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {json.dumps(value)}")
    return value


def _integers(values, what: str) -> list[int]:
    if not isinstance(values, list) or any(type(v) is not int for v in values):
        raise ValueError(f"{what} must be a list of integers, got {json.dumps(values)}")
    return values


def _element_pair(geometry: PushoutPair, doc, degree: int) -> ComponentPair:
    if not isinstance(doc, dict) or "branch1" not in doc or "branch2" not in doc:
        raise ValueError("a class pair needs branch1 and branch2 coefficient vectors")
    return ComponentPair(
        geometry.branch1.ring.homogeneous(degree, _integers(doc["branch1"], "branch1")),
        geometry.branch2.ring.homogeneous(degree, _integers(doc["branch2"], "branch2")),
    )


def member_from_dict(geometry: PushoutPair, doc) -> tuple[int, ComponentPair]:
    """A membership query ``{"degree", "branch1", "branch2"}``: its degree and pair."""
    if not isinstance(doc, dict) or "degree" not in doc:
        raise ValueError("a member query needs a degree and branch1/branch2 vectors")
    degree = _integer(doc["degree"], "member degree")
    return degree, _element_pair(geometry, doc, degree)


def decoration_from_dict(doc) -> PhaseDecoration:
    """A phase decoration ``{"theta", "points": [{"id", "eta"}]}``, solved point by point."""
    points = doc.get("points", [])
    return phase_decoration(
        [str(p["id"]) for p in points],
        GaussianScalar.from_json_dict(doc["theta"]),
        [GaussianScalar.from_json_dict(p["eta"]) for p in points],
    )


def scenario_from_dict(doc) -> Scenario:
    if not isinstance(doc, dict):
        raise ValueError("scenario document must be a JSON object")
    for key in ("branch1", "branch2"):
        if key not in doc:
            raise ValueError(f"scenario is missing field {key!r}")
    geometry = PushoutPair(_load_branch(doc["branch1"]), _load_branch(doc["branch2"]))

    bundles = []
    for block in doc.get("bundles", []):
        bundles.append(
            GluedBundleData(
                geometry=geometry,
                rank=_integer(block.get("rank", 2), "bundle rank"),
                c1_pair=_element_pair(geometry, block["c1"], 1),
                c2_pair=_element_pair(geometry, block["c2"], 2),
                restriction_to_quadric_trivial=bool(block.get("trivial_on_Q", False)),
                h2_end_dims=tuple(_integers(block.get("h2_end", [0, 0]), "bundle h2_end")),
            )
        )

    polarization = None
    if "polarization" in doc:
        polarization = _element_pair(geometry, doc["polarization"], 1)

    surfaces = tuple(
        SurfaceData(_integer(s["degree"], "surface degree"), bool(s["contains_line"]))
        for s in doc.get("surfaces", [])
    )

    return Scenario(
        geometry=geometry,
        bundles=tuple(bundles),
        polarization=polarization,
        surfaces=surfaces,
        decoration=decoration_from_dict(doc["decoration"]) if "decoration" in doc else None,
        assumption_def=bool(doc.get("assumption_DEF", False)),
    )


def read_json(path: str | Path, decode: Callable):
    """Decode the JSON file at ``path``; a bad document raises a ``ValueError`` naming it."""
    try:
        return decode(json.loads(Path(path).read_text(encoding="utf-8")))
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from exc
    except (ValueError, TypeError, IndexError, AttributeError, ZeroDivisionError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_scenario(path: str | Path) -> Scenario:
    return read_json(path, scenario_from_dict)


def default_scenario() -> Scenario:
    return scenario_from_dict({"branch1": {"builtin": "p3"}, "branch2": {"builtin": "p3"}})
