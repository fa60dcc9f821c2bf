"""Malformed input files: every run ends in exit code 0, 1 or 2, never a traceback.

Each input document is mutated one JSON value at a time: the value is deleted,
or replaced with ``null``, ``"x"``, ``[]``, ``{}`` or ``0``.  To keep the run
short, only the first element of each list is mutated (the others have the
same shape), and the dense synthetic scenario gets the deletion plus one
replacement per value, cycling through the replacements.

On the same paths, every integer, boolean or string value replaced by one of
the wrong JSON type exits 2 with an error naming the file and that path, under
the command that reads its block, and named malformed inputs exit 2 with their
exact error line.  A fault in one block of a scenario is met only by the
command that reads that block; every other command runs as on the intact file.
A scenario that is not a JSON object is refused by every command.  A document nested
deeper than the interpreter's recursion limit exits 2 with one line naming the file.

A result past the interpreter's 4,300-digit limit for printing an integer
exits 2 with one line, in text and in JSON; every result within it is printed
exactly as with the limit lifted.
"""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistor_pushout import scenario
from twistor_pushout.cli import run
from twistor_pushout.pushout import flag_threefold_base, projective_space_base

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
SCENARIO_ARGV = ["--scenario", "{}", "charge"]
# p3_p3.json with branch1 written out as an inline ring document
INLINE_P3 = {**_load("scenarios/p3_p3.json"), "branch1": projective_space_base().to_json_dict()}


def with_product(d1, i1, d2, i2, out):
    """INLINE_P3 with one more ``mult`` entry in branch1, after the two it has."""
    doc = copy.deepcopy(INLINE_P3)
    doc["branch1"]["mult"].append({"d1": d1, "i1": i1, "d2": d2, "i2": i2, "out": out})
    return doc


def _non_associative_flag() -> dict:
    """The flag threefold's ring document with x.y2 doubled, so (x.y).y != x.(y.y)."""
    doc = flag_threefold_base().to_json_dict()
    (entry,) = [e for e in doc["mult"] if (e["d1"], e["i1"], e["d2"], e["i2"]) == (1, 0, 2, 1)]
    entry["out"] = [2 * entry["out"][0]]
    return doc


# p3_p3.json with a malformed pair: only the commands that read the pair refuse it
MALFORMED_PAIR = {**_load("scenarios/p3_p3.json"), "branch1": _non_associative_flag()}
# an associative base whose line times h is not the point (test_pushout.py holds the same
# witness): its blow-up fails associativity on (f.h, Q, Q)
LINE_TIMES_H_NOT_THE_POINT = {
    "top_degree": 3,
    "basis": [["1"], ["h"], ["h2"], ["p", "q"]],
    "mult": [
        {"d1": 1, "d2": 1, "i1": 0, "i2": 0, "out": [1]},
        {"d1": 1, "d2": 2, "i1": 0, "i2": 0, "out": [1, 0]},
    ],
    "degree_functional": [1, 0],
    "line_class": [1],
    "point_class": [1, 1],
    "twistor_degrees": [1],
}


R11 = _load("tests/data/synthetic_r11.json")
R11_LAST = len(R11["branch2"]["mult"]) - 1  # faults there are met after every other entry is read
R11_ARGV = ["--scenario", "{}", "equalizer"]


# one surface more than the cap
SURFACES = [{"degree": 1 + n % 5, "contains_line": n % 2 == 1} for n in range(scenario.MAX_SURFACES + 1)]


# case -> (document, argv running it at {}, the error after "error: <file>: ")
NAMED = {
    "bundle-without-c1": (
        mutated(_load("scenarios/p3_p3.json"), ("bundles", 0, "c1"), DELETE),
        SCENARIO_ARGV,
        "bundles[0] is missing field 'c1'",
    ),
    "member-without-branch1": (
        mutated(_load("tests/data/member_p3.json"), ("branch1",), DELETE),
        MEMBER_ARGV,
        "the document is missing field 'branch1'",
    ),
    "member-that-is-a-list": (
        [1, [0, 1], [0, -1]],
        MEMBER_ARGV,
        "the document must be an object, got [1, [0, 1], [0, -1]]",
    ),
    "member-degree-float": (
        {"degree": 1.5, "branch1": [0, 1], "branch2": [0, -1]},
        MEMBER_ARGV,
        "degree must be an integer, got 1.5",
    ),
    "member-degree-above-top": (
        {"degree": 7, "branch1": [], "branch2": []},
        MEMBER_ARGV,
        "degree must be an integer in 0..3, got 7",
    ),
    "member-vector-float-and-bool": (
        {"degree": 1, "branch1": [0.7, True], "branch2": [0, -1]},
        MEMBER_ARGV,
        "branch1[0] must be an integer, got 0.7",
    ),
    "member-vector-too-short": (
        {"degree": 1, "branch1": [0], "branch2": [0, -1]},
        MEMBER_ARGV,
        "branch1 must be a list of length 2, got [0]",
    ),
    "bundle-rank-float": (
        mutated(_load("scenarios/p3_p3.json"), ("bundles", 0, "rank"), 1.5),
        SCENARIO_ARGV,
        "bundles[0].rank must be an integer, got 1.5",
    ),
    "bundle-h2-end-bool": (
        mutated(_load("scenarios/p3_p3.json"), ("bundles", 0, "h2_end"), [True, 0]),
        SCENARIO_ARGV,
        "bundles[0].h2_end[0] must be an integer, got true",
    ),
    "surface-degree-bool": (
        mutated(_load("scenarios/p3_p3.json"), ("surfaces", 0, "degree"), True),
        ["--scenario", "{}", "surfaces"],
        "surfaces[0].degree must be an integer, got true",
    ),
    "surface-degree-zero": (  # refused by the value, after every field decoded
        mutated(_load("scenarios/p3_p3.json"), ("surfaces", 0, "degree"), 0),
        ["--scenario", "{}", "surfaces"],
        "surfaces[0]: twistor degree must be at least 1",
    ),
    "surfaces-empty": (  # an empty list would otherwise read as the four default surfaces
        mutated(_load("scenarios/p3_p3.json"), ("surfaces",), []),
        ["--scenario", "{}", "surfaces"],
        "surfaces must be a non-empty list, got []",
    ),
    "surfaces-over-the-cap": (  # each listed pair buys a glue check
        mutated(_load("scenarios/p3_p3.json"), ("surfaces",), SURFACES),
        ["--scenario", "{}", "surfaces"],
        f"surfaces lists {scenario.MAX_SURFACES + 1} surfaces; at most {scenario.MAX_SURFACES} are accepted",
    ),
    "bundle-rank-negative": (
        mutated(_load("scenarios/p3_p3.json"), ("bundles", 0, "rank"), -1),
        SCENARIO_ARGV,
        "bundles[0]: rank must be non-negative",
    ),
    "bundle-h2-end-negative": (
        mutated(_load("scenarios/p3_p3.json"), ("bundles", 1, "h2_end"), [0, -1]),
        SCENARIO_ARGV,
        "bundles[1]: obstruction dimensions are non-negative",
    ),
    "bundle-trivial-on-q-with-unmatched-c1": (  # bundles[0] is trivial on Q; (f.h, 0) restricts to (b, 0)
        mutated(_load("scenarios/p3_p3.json"), ("bundles", 0, "c1", "branch1"), [1, 0]),
        SCENARIO_ARGV,
        "bundles[0]: a bundle trivial on the double locus needs a matched c1 pair",
    ),
    "assumption-def-string": (
        mutated(_load("scenarios/flag_flag.json"), ("assumption_DEF",), "false"),
        SCENARIO_ARGV,
        'assumption_DEF must be a boolean, got "false"',
    ),
    "inline-twistor-degrees-and-line-class-float": (
        mutated(mutated(INLINE_P3, ("branch1", "twistor_degrees"), [1.5]), ("branch1", "line_class"), [1.9]),
        ["--scenario", "{}", "equalizer"],
        "branch1.line_class[0] must be an integer, got 1.9",
    ),
    "inline-top-degree-float": (
        mutated(INLINE_P3, ("branch1", "top_degree"), 3.7),
        SCENARIO_ARGV,
        "branch1.top_degree must be an integer, got 3.7",
    ),
    "inline-top-degree-not-3": (
        mutated(INLINE_P3, ("branch1", "top_degree"), 120),
        SCENARIO_ARGV,
        "branch1.top_degree must be 3, got 120",
    ),
    "inline-basis-label-integer": (
        mutated(INLINE_P3, ("branch1", "basis", 1, 0), 7),
        SCENARIO_ARGV,
        "branch1.basis[1][0] must be a string, got 7",
    ),
    "inline-mult-output-bool": (
        mutated(INLINE_P3, ("branch1", "mult", 0, "out", 0), True),
        SCENARIO_ARGV,
        "branch1.mult[0].out[0] must be an integer, got true",
    ),
    "inline-mult-output-too-short-and-bool": (
        mutated(INPUTS["synthetic_r7"][0], ("branch1", "mult", 0, "out"), [26, True]),
        SCENARIO_ARGV,
        "branch1.mult[0].out must be a list of length 6, got [26, true]",
    ),
    "inline-mult-degree-out-of-range": (
        with_product(4, 0, 1, 0, []),
        SCENARIO_ARGV,
        "branch1: table degree out of range: (4, 0, 1, 0)",
    ),
    "inline-mult-index-out-of-range": (
        with_product(1, 3, 1, 0, [0]),
        SCENARIO_ARGV,
        "branch1: table index out of range: (1, 3, 1, 0)",
    ),
    "inline-mult-nonzero-above-top-degree": (
        with_product(2, 0, 2, 0, [1]),
        SCENARIO_ARGV,
        "branch1: product (2, 0, 2, 0) lands above top degree",
    ),
    "inline-line-class-zero": (
        mutated(INLINE_P3, ("branch1", "line_class"), [0]),
        SCENARIO_ARGV,
        "branch1: line_class must be a nonzero degree-2 class",
    ),
    "inline-point-class-zero": (
        mutated(INLINE_P3, ("branch1", "point_class"), [0]),
        SCENARIO_ARGV,
        "branch1: point_class must be a degree-3 class",
    ),
    "inline-point-class-of-degree-2": (
        mutated(INLINE_P3, ("branch1", "point_class"), [2]),
        SCENARIO_ARGV,
        "branch1: point_class must have degree 1",
    ),
    "inline-branch2-twistor-degree-inconsistent": (  # the line's prefix says which branch is at fault
        {**INLINE_P3, "branch2": {**INLINE_P3["branch1"], "twistor_degrees": [2]}},
        SCENARIO_ARGV,
        "branch2: twistor degree of h is inconsistent with the line class",
    ),
    "inline-mult-entry-repeated": (
        mutated(
            INLINE_P3,
            ("branch1", "mult", 1),
            {"d1": 1, "i1": 0, "d2": 1, "i2": 0, "out": [2]},
        ),
        SCENARIO_ARGV,
        "branch1.mult[1] repeats the product (1, 0, 1, 0)",
    ),
    "deep-mult-output-bool": (
        mutated(R11, ("branch2", "mult", R11_LAST, "out", 0), True),
        R11_ARGV,
        "branch2.mult[154].out[0] must be an integer, got true",
    ),
    "deep-mult-index-float": (
        mutated(R11, ("branch2", "mult", R11_LAST, "i2"), 9.5),
        R11_ARGV,
        "branch2.mult[154].i2 must be an integer, got 9.5",
    ),
    "deep-mult-output-too-short": (
        mutated(R11, ("branch2", "mult", R11_LAST, "out"), []),
        R11_ARGV,
        "branch2.mult[154].out must be a list of length 1, got []",
    ),
    "deep-mult-entry-repeated": (
        mutated(R11, ("branch2", "mult", R11_LAST), {**R11["branch2"]["mult"][0], "out": [0] * 10}),
        R11_ARGV,
        "branch2.mult[154] repeats the product (1, 0, 1, 0)",
    ),
    **{
        f"non-associative-pair-{command}": (
            MALFORMED_PAIR, ["--scenario", "{}", command], "branch1: associativity fails on (x, y, y)"
        )
        for command in ("ring-show", "equalizer", "charge")
    },
    # a blow-up refusal names its branch, for each command that reads that branch
    **{
        f"blow-up-refused-in-{key}-{argv[0]}": (
            {**_load("scenarios/p3_p3.json"), key: LINE_TIMES_H_NOT_THE_POINT},
            ["--scenario", "{}", *argv],
            f"{key}: associativity fails on (f.h, Q, Q)",
        )
        for key in ("branch1", "branch2")
        for argv in (["equalizer"], ["ring-show", "--branch", key[-1]])
    },
    # an unknown built-in name is refused at its JSON path, echoed with at most 40 characters
    **{
        f"unknown-long-builtin-in-{key}": (
            {**_load("scenarios/p3_p3.json"), key: {"builtin": "x" * 10_000}},
            SCENARIO_ARGV,
            f"{key}.builtin must be one of ['flag', 'p3'], got \"{'x' * 35} ...",
        )
        for key in ("branch1", "branch2")
    },
    "decoration-without-theta": (
        mutated(DECORATION, ("theta",), DELETE),
        ["neck", "--decorate", "{}"],
        "the document is missing field 'theta'",
    ),
    "decoration-re-num-float": (
        mutated(DECORATION, ("theta", "re_num"), 3.9),
        ["neck", "--decorate", "{}"],
        "theta.re_num must be an integer, got 3.9",
    ),
    "decoration-theta-not-unit-without-points": (
        {"theta": {"re_num": 1, "re_den": 2, "im_num": 0, "im_den": 1}, "points": []},
        ["neck", "--decorate", "{}"],
        'theta must be a Gaussian rational of squared modulus 1, got {"re_num": 1, "re_den": 2, "im_num": ...',
    ),
    "decoration-eta-not-unit": (
        mutated(DECORATION, ("points", 0, "eta", "re_den"), 2),
        ["neck", "--decorate", "{}"],
        'points[0].eta must be a Gaussian rational of squared modulus 1, got {"re_num": 1, "re_den": 2, "im_num": ...',
    ),
    "decoration-zero-denominator": (
        mutated(DECORATION, ("points", 0, "eta", "im_den"), 0),
        ["neck", "--decorate", "{}"],
        "points[0].eta.im_den must be a nonzero integer, got 0",
    ),
    "decoration-point-id-repeated": (  # one point given two phase pairs
        {**DECORATION, "points": [*DECORATION["points"], {**DECORATION["points"][0], "eta": DECORATION["theta"]}]},
        ["neck", "--decorate", "{}"],
        "point ids must be distinct, 'p' repeats",
    ),
    "scenario-decoration-point-id-repeated": (
        mutated(_load("scenarios/p3_p3.json"), ("decoration", "points", 1, "id"), "p1"),
        ["--scenario", "{}", "neck"],
        "decoration: point ids must be distinct, 'p1' repeats",
    ),
}


def _run_at(argv, target):
    return run([str(target) if arg == "{}" else arg for arg in argv])


@pytest.mark.parametrize("case", sorted(NAMED))
def test_malformed_input_exits_2_naming_the_file(case, tmp_path):
    doc, argv, message = NAMED[case]
    target = tmp_path / "input.json"
    target.write_text(json.dumps(doc), encoding="utf-8")
    code, out = _run_at(argv, target)
    assert code == 2
    assert out == f"error: {target}: {message}"


def test_a_surface_list_at_the_cap_is_read(tmp_path):
    target = tmp_path / "input.json"
    target.write_text(json.dumps({**_load("scenarios/p3_p3.json"), "surfaces": SURFACES[:-1]}), encoding="utf-8")
    code, out = run(["--json", "--scenario", str(target), "surfaces", "--dmax", "1"])
    assert code == 0 and len(json.loads(out)["results"]["surfaces"]) == scenario.MAX_SURFACES


# an empty path names no file: argv -> the flag its refusal names
EMPTY_PATHS = {
    "scenario-option": (["--scenario", "", "ring-show"], "--scenario"),
    "scenario-positional": (["ring-show", ""], "the scenario path"),
    "member": (["equalizer", "--member", ""], "--member"),
    "decorate": (["neck", "--decorate", ""], "--decorate"),
}


def _no_work():
    raise AssertionError("a refused path reached the scenario build")


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("case", sorted(EMPTY_PATHS))
def test_an_empty_path_exits_2_naming_its_flag(case, json_flag, monkeypatch):
    argv, flag = EMPTY_PATHS[case]
    monkeypatch.setattr("twistor_pushout.cli.default_scenario", _no_work)
    assert run([*json_flag, *argv]) == (2, f"error: {flag} must name a file, got ''")


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_a_scenario_given_twice_exits_2_naming_both_paths(json_flag, monkeypatch):
    monkeypatch.setattr("twistor_pushout.cli.load_scenario", _no_work)
    second = "scenarios/" + "x" * 40 + ".json"  # each path echoes at most 40 characters
    echo = [text if len(text) <= 40 else text[:36] + " ..." for text in (repr(str(P3_P3)), repr(second))]
    code, out = run([*json_flag, "--scenario", str(P3_P3), "ring-show", second])
    assert (code, out) == (
        2,
        f"error: the scenario is given twice, as --scenario {echo[0]} and {echo[1]}; give one path",
    )
    assert echo[1] == "'scenarios/" + "x" * 25 + " ..."


@pytest.mark.parametrize(
    "argv", [["real", "--samples", "3"], ["neck"], ["surfaces"]], ids=["real", "neck", "surfaces"]
)
def test_a_command_that_never_reads_the_pair_ignores_its_faults(argv, tmp_path):
    target = tmp_path / "input.json"
    target.write_text(json.dumps(MALFORMED_PAIR), encoding="utf-8")
    code, out = run(["--scenario", str(target), *argv])
    assert (code, out) == run(["--scenario", str(P3_P3), *argv]) and code == 0


# argv key -> a command's argv; "{decorate}" is a valid --decorate file
READERS = {
    "ring-show": ["ring-show"],
    "ring-show-2": ["ring-show", "--branch", "2"],
    "ring-show-quadric": ["ring-show", "--branch", "quadric"],
    "equalizer": ["equalizer"],
    "surfaces": ["surfaces", "--dmax", "3"],
    "surfaces-pair": ["surfaces", "--pair", "1", "in", "1", "out"],
    "charge": ["charge"],
    "neck": ["neck"],
    "neck-decorate": ["neck", "--decorate", "{decorate}"],
    "real": ["real", "--samples", "3"],
}
# a fault in one block of p3_p3.json: name -> (path, replacement, the argv keys that read the block)
PAIR_READERS = {"equalizer", "charge"}
BLOCK_FAULTS = {
    "branch1-missing": (("branch1",), DELETE, {"ring-show", *PAIR_READERS}),
    "branch1-builtin-integer": (("branch1", "builtin"), 3, {"ring-show", *PAIR_READERS}),
    "branch2-unknown-builtin": (("branch2", "builtin"), "nope", {"ring-show-2", *PAIR_READERS}),
    "branch2-inline-without-fields": (("branch2", "builtin"), DELETE, {"ring-show-2", *PAIR_READERS}),
    "bundle-rank-float": (("bundles", 0, "rank"), 1.5, {"charge"}),
    "bundle-c1-too-short": (("bundles", 1, "c1", "branch2"), [1], {"charge"}),
    "bundles-not-a-list": (("bundles",), {}, {"charge"}),
    "polarization-without-branch1": (("polarization", "branch1"), DELETE, {"charge"}),
    "polarization-not-an-object": (("polarization",), "x", {"charge"}),
    "assumption-def-string": (("assumption_DEF",), "false", {"charge"}),
    "surface-degree-bool": (("surfaces", 0, "degree"), True, {"surfaces"}),
    "surfaces-empty": (("surfaces",), [], {"surfaces"}),
    "decoration-theta-not-unit": (("decoration", "theta", "re_den"), 7, {"neck"}),
    "decoration-point-id-integer": (("decoration", "points", 0, "id"), 0, {"neck"}),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("fault", sorted(BLOCK_FAULTS))
def test_a_command_that_never_reads_a_block_ignores_its_faults(fault, reader, tmp_path):
    path, replacement, reads = BLOCK_FAULTS[fault]
    target, decorate = tmp_path / "input.json", tmp_path / "decoration.json"
    target.write_text(json.dumps(mutated(_load("scenarios/p3_p3.json"), path, replacement)), encoding="utf-8")
    decorate.write_text(json.dumps(DECORATION), encoding="utf-8")
    argv = [str(decorate) if arg == "{decorate}" else arg for arg in READERS[reader]]
    code, out = run(["--scenario", str(target), *argv])
    if reader in reads:  # each command that reads the block refuses the fault, naming the file
        assert code == 2 and out.startswith(f"error: {target}: ")
    else:
        assert (code, out) == run(["--scenario", str(P3_P3), *argv]) and code == 0


NOT_OBJECTS = {"list": [1], "null": None, "string": "x", "integer": 3}


@pytest.mark.parametrize("command", ["ring-show", "equalizer", "surfaces", "charge", "neck", "real"])
@pytest.mark.parametrize("doc", sorted(NOT_OBJECTS))
def test_a_scenario_that_is_not_an_object_is_refused_at_load(doc, command, tmp_path):
    target = tmp_path / "input.json"
    target.write_text(json.dumps(NOT_OBJECTS[doc]), encoding="utf-8")
    message = f"error: {target}: the document must be an object, got {json.dumps(NOT_OBJECTS[doc])}"
    assert run(["--scenario", str(target), command]) == (2, message)


def test_an_all_zero_product_above_the_top_degree_is_accepted(tmp_path):
    outputs = []
    for name, doc in (("plain", INLINE_P3), ("with-zero", with_product(2, 0, 2, 0, [0]))):
        target = tmp_path / f"{name}.json"
        target.write_text(json.dumps(doc), encoding="utf-8")
        outputs.append(_run_at(SCENARIO_ARGV, target))
    assert outputs[1] == outputs[0] and outputs[0][0] == 0


NESTED = "[" * 100_000  # deeper than the decoder's recursion limit


@pytest.mark.parametrize(
    "argv",
    [SCENARIO_ARGV, ["equalizer", "--member", "{}"], ["neck", "--decorate", "{}"]],
    ids=["scenario", "member", "decoration"],
)
def test_deeply_nested_input_exits_2_naming_the_file(argv, tmp_path):
    target = tmp_path / "input.json"
    target.write_text(NESTED, encoding="utf-8")
    code, out = _run_at(argv, target)
    assert code == 2
    assert out.startswith(f"error: {target}: ") and "\n" not in out


def test_a_deeply_nested_value_is_refused_with_a_preview():
    value = 0
    for _ in range(100_000):
        value = [value]
    with pytest.raises(ValueError) as refusal:
        scenario._Json(value, "branch1.builtin").refuse("a string")
    assert str(refusal.value) == f"branch1.builtin must be a string, got {'[' * 36} ..."


def test_a_nested_builtin_name_exits_2_naming_the_file(tmp_path):
    value = "[" * 985 + "0" + "]" * 985  # near the recursion limit, where a full preview would fail
    target = tmp_path / "input.json"
    target.write_text(f'{{"branch1": {{"builtin": {value}}}, "branch2": {{"builtin": "p3"}}}}')
    code, out = _run_at(SCENARIO_ARGV, target)
    assert code == 2
    assert out.startswith(f"error: {target}: ") and "\n" not in out


def dotted(path) -> str:
    """A path as the decoders print it, such as ``branch1.mult[0].out[0]``."""
    out = ""
    for key in path:
        out += f"[{key}]" if isinstance(key, int) else f".{key}" if out else key
    return out


# a leaf's type -> values of a wrong JSON type for it (bool is tested before int)
WRONG_TYPES = {bool: (0,), int: (1.5, True, "1"), str: (0,)}
# a scenario block -> the command that reads it, where that is not charge
BLOCK_READER = {"surfaces": "surfaces", "decoration": "neck"}
# input name -> (document, argv running it at {}; charge runs as the leaf's block's reader)
TYPED = {
    "p3_p3-inline": (INLINE_P3, SCENARIO_ARGV),
    "synthetic_r7": (INPUTS["synthetic_r7"][0], ["--scenario", "{}", "equalizer"]),
    "decoration": (DECORATION, ["neck", "--decorate", "{}"]),
}


@pytest.mark.parametrize("name", sorted(TYPED))
def test_wrong_json_type_exits_2_naming_its_path(name, tmp_path):
    doc, argv = TYPED[name]
    target = tmp_path / "input.json"
    bad = []
    for path in json_paths(doc):
        leaf = doc
        for key in path:
            leaf = leaf[key]
        for wrong in WRONG_TYPES.get(type(leaf), ()):
            target.write_text(json.dumps(mutated(doc, path, wrong)), encoding="utf-8")
            reader = BLOCK_READER.get(path[0], "charge")
            code, out = _run_at([reader if arg == "charge" else arg for arg in argv], target)
            if code != 2 or not out.startswith(f"error: {target}: {dotted(path)} "):
                bad.append(f"{dotted(path)} set to {wrong!r}: exit {code}: {out[:120]!r}")
    assert not bad, "\n".join(bad)


def big(max_digits: int = 4300):
    """Integers of 1 to ``max_digits`` digits, and small ones when the leading digit is 0."""
    return st.builds(
        lambda digits, lead, tail: lead * 10 ** (digits - 1) + tail,
        st.integers(1, max_digits),
        st.integers(-9, 9),
        st.integers(-99, 99),
    )


def phase(m: int, n: int) -> dict:
    """The Pythagorean unit ((m^2 - n^2) + 2mn i) / (m^2 + n^2) as a document scalar."""
    h = m * m + n * n
    return {"re_num": m * m - n * n, "re_den": h, "im_num": 2 * m * n, "im_den": h}


def charge_doc(c2_0, c2_1, polarization) -> dict:
    """p3_p3.json with the c2 pairs of its two bundles and its polarization replaced."""
    doc = _load("scenarios/p3_p3.json")
    for bundle, (first, second) in zip(doc["bundles"], (c2_0, c2_1)):
        bundle["c2"] = {"branch1": first, "branch2": second}
    doc["polarization"] = {"branch1": polarization[0], "branch2": polarization[1]}
    return doc


B = int("7" * 4000)
# every integer in a document or flag below is within the limit, but a product of two is not
PAST_LIMIT = {
    "charge": (charge_doc(([B, B], [B, B]), ([B, B], [B, B]), ([B, -B], [B, 0])), SCENARIO_ARGV),
    "neck-decorate": (
        {
            "theta": phase(10**1080 + 7, 10**1079 + 3),
            "points": [{"id": "p", "eta": phase(10**1080 + 11, 10**1079 + 13)}],
        },
        ["neck", "--decorate", "{}"],
    ),
    "neck-character": (None, ["neck", "--character", "9" * 4300, "1"]),
}


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("case", sorted(PAST_LIMIT))
def test_a_result_past_the_digit_limit_exits_2_with_one_error_line(case, json_flag, tmp_path):
    doc, argv = PAST_LIMIT[case]
    target = tmp_path / "input.json"
    target.write_text(json.dumps(doc), encoding="utf-8")
    code, out = _run_at([*json_flag, *argv], target)
    assert code == 2
    assert out.startswith("error: ") and "\n" not in out


def assert_verdict_total(argv):
    """A report with no integer past the limit is printed as with the limit lifted; else one error line."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        lifted_code, lifted_out = run(argv)
    finally:
        sys.set_int_max_str_digits(limit)
    code, out = run(argv)
    assert code in (0, 1, 2)
    if lifted_code != 2 and not re.search(r"\d{4301}", lifted_out):
        assert (code, out) == (lifted_code, lifted_out)
    else:
        assert code == 2 and out.startswith("error: ") and "\n" not in out


matched_c2 = st.builds(lambda x, y, z: ([x, y], [z, y]), big(), big(), big())  # the degree-2 lattice
free_pair = st.builds(lambda a, b, c, d: ([a, b], [c, d]), big(), big(), big(), big())
matched_polarization = st.builds(lambda a, b: ([a, b], [a, -a - b]), big(4299), big(4299))


@settings(max_examples=25, deadline=None)
@given(
    c2_0=matched_c2,
    c2_1=free_pair,
    polarization=st.one_of(matched_polarization, free_pair),
    json_flag=st.sampled_from([[], ["--json"]]),
)
def test_charge_verdict_is_total_for_entries_up_to_the_digit_limit(
    c2_0, c2_1, polarization, json_flag, tmp_path_factory
):
    target = tmp_path_factory.mktemp("charge") / "scenario.json"
    target.write_text(json.dumps(charge_doc(c2_0, c2_1, polarization)), encoding="utf-8")
    assert_verdict_total([*json_flag, "charge", str(target)])


# m and n of up to 2,149 digits keep every part of the phase within 4,300 digits
phase_parameters = st.tuples(big(2149), big(2149))


@settings(max_examples=25, deadline=None)
@given(
    theta=phase_parameters,
    etas=st.lists(phase_parameters, min_size=1, max_size=2),
    json_flag=st.sampled_from([[], ["--json"]]),
)
def test_neck_decorate_verdict_is_total_for_phases_up_to_the_digit_limit(
    theta, etas, json_flag, tmp_path_factory
):
    doc = {
        "theta": phase(*theta),
        "points": [{"id": f"p{k}", "eta": phase(*eta)} for k, eta in enumerate(etas)],
    }
    target = tmp_path_factory.mktemp("decorate") / "decoration.json"
    target.write_text(json.dumps(doc), encoding="utf-8")
    assert_verdict_total([*json_flag, "neck", "--decorate", str(target)])
