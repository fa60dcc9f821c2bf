"""Malformed input files: every run ends in exit code 0, 1 or 2, never a traceback.

Each input document is mutated one JSON value at a time: the value is deleted,
or replaced with ``null``, ``"x"``, ``[]``, ``{}`` or ``0``.  To keep the run
short, only the first element of each list is mutated (the others have the
same shape), and the dense synthetic scenario gets the deletion plus one
replacement per value, cycling through the replacements.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from twistor_pushout.cli import run

ROOT = Path(__file__).resolve().parent.parent
P3_P3 = ROOT / "scenarios" / "p3_p3.json"
DELETE = object()
REPLACEMENTS = (None, "x", [], {}, 0)
DECORATION = {
    "theta": {"re_num": 3, "re_den": 5, "im_num": 4, "im_den": 5},
    "points": [{"id": "p", "eta": {"re_num": 1, "re_den": 1, "im_num": 0, "im_den": 1}}],
}


def json_paths(node, prefix=()):
    """Paths to every value below ``node``, taking only index 0 of each list."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = list(enumerate(node))[:1]
    else:
        children = ()
    for key, child in children:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


def mutated(doc, path, replacement):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if replacement is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return doc


def mutants(doc, every_replacement: bool):
    for n, path in enumerate(json_paths(doc)):
        replacements = REPLACEMENTS if every_replacement else REPLACEMENTS[n % 5 : n % 5 + 1]
        for replacement in (DELETE, *replacements):
            yield path, replacement, mutated(doc, path, replacement)


def _load(relative: str):
    return json.loads((ROOT / relative).read_text(encoding="utf-8"))


# input name -> (document, every replacement?, argv running the mutant file at {})
INPUTS = {
    "p3_p3": (_load("scenarios/p3_p3.json"), True, ["--scenario", "{}", "charge"]),
    "flag_flag": (_load("scenarios/flag_flag.json"), True, ["--scenario", "{}", "charge"]),
    "synthetic_r7": (
        _load("tests/data/synthetic_r7.json"), False, ["--scenario", "{}", "equalizer"]
    ),
    "member": (_load("tests/data/member_p3.json"), True, ["equalizer", "--member", "{}"]),
    "decoration": (DECORATION, True, ["neck", "--decorate", "{}"]),
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_mutated_input_never_raises(name, tmp_path):
    doc, every_replacement, argv = INPUTS[name]
    target = tmp_path / "mutant.json"
    argv = [str(target) if arg == "{}" else arg for arg in argv]
    bad = []
    for path, replacement, mutant in mutants(doc, every_replacement):
        target.write_text(json.dumps(mutant), encoding="utf-8")
        what = "deleted" if replacement is DELETE else f"set to {replacement!r}"
        try:
            code, out = run(argv)
        except Exception as exc:
            bad.append(f"{list(path)} {what}: {type(exc).__name__}: {exc}")
            continue
        if code not in (0, 1, 2) or (code == 2 and not out.startswith("error: ")):
            bad.append(f"{list(path)} {what}: exit code {code}: {out[:80]!r}")
    assert not bad, "\n".join(bad)


MEMBER_ARGV = ["--scenario", str(P3_P3), "equalizer", "--member", "{}"]
# case -> (document, argv running it at {})
NAMED = {
    "bundle-without-c1": (
        mutated(_load("scenarios/p3_p3.json"), ("bundles", 0, "c1"), DELETE),
        ["--scenario", "{}", "charge"],
    ),
    "member-without-branch1": (
        mutated(_load("tests/data/member_p3.json"), ("branch1",), DELETE),
        MEMBER_ARGV,
    ),
    "member-that-is-a-list": ([1, [0, 1], [0, -1]], MEMBER_ARGV),
    "member-degree-float": ({"degree": 1.5, "branch1": [0, 1], "branch2": [0, -1]}, MEMBER_ARGV),
    "member-vector-float-and-bool": (
        {"degree": 1, "branch1": [0.7, True], "branch2": [0, -1]},
        MEMBER_ARGV,
    ),
    "bundle-rank-float": (
        mutated(_load("scenarios/p3_p3.json"), ("bundles", 0, "rank"), 1.5),
        ["--scenario", "{}", "charge"],
    ),
    "bundle-h2-end-bool": (
        mutated(_load("scenarios/p3_p3.json"), ("bundles", 0, "h2_end"), [True, 0]),
        ["--scenario", "{}", "charge"],
    ),
    "surface-degree-bool": (
        mutated(_load("scenarios/p3_p3.json"), ("surfaces", 0, "degree"), True),
        ["--scenario", "{}", "surfaces"],
    ),
    "decoration-without-theta": (
        mutated(DECORATION, ("theta",), DELETE),
        ["neck", "--decorate", "{}"],
    ),
}


@pytest.mark.parametrize("case", sorted(NAMED))
def test_malformed_input_exits_2_naming_the_file(case, tmp_path):
    doc, argv = NAMED[case]
    target = tmp_path / "input.json"
    target.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run([str(target) if arg == "{}" else arg for arg in argv])
    assert code == 2
    assert out.startswith(f"error: {target}: "), out
