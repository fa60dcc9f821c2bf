"""Command-line behaviour: determinism, exit codes, error reporting."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistor_pushout import cli
from twistor_pushout.cli import run

SCENARIOS = [
    Path(__file__).resolve().parent.parent / "scenarios" / "p3_p3.json",
    Path(__file__).resolve().parent.parent / "scenarios" / "flag_flag.json",
]

COMMANDS = [
    ["ring-show"],
    ["ring-show", "--branch", "2"],
    ["ring-show", "--branch", "quadric"],
    ["equalizer"],
    ["surfaces", "--dmax", "6"],
    ["charge"],
    ["neck", "--curve", "3", "1"],
    ["real", "--samples", "40"],
]


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda p: p.stem)
@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: "-".join(c))
def test_commands_succeed_and_are_deterministic(scenario, command):
    for flags in ([], ["--json"]):
        argv = flags + ["--scenario", str(scenario)] + command
        code1, out1 = run(argv)
        code2, out2 = run(argv)
        assert code1 == 0, out1
        assert (code1, out1) == (code2, out2)
        assert out1.encode() == out2.encode()


def test_json_reports_are_sorted_and_parseable():
    code, out = run(["--json", "--scenario", str(SCENARIOS[0]), "equalizer"])
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "equalizer"
    assert doc["all_identities_passed"] is True
    assert doc["results"]["ranks"] == [1, 2, 3, 2]
    assert list(doc) == sorted(doc)


def test_default_scenario_used_when_none_given():
    code, out = run(["equalizer"])
    assert code == 0
    assert "1" in out


def test_positional_scenario_path():
    code, out = run(["equalizer", str(SCENARIOS[1])])
    assert code == 0
    assert "[ok ]" in out


def test_malformed_scenario_reports_location(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"branch1": {"builtin": "p3",}}', encoding="utf-8")
    code, out = run(["--scenario", str(bad), "equalizer"])
    assert code == 2
    assert "line 1" in out and "column" in out


def test_unknown_builtin_is_an_error(tmp_path):
    doc = {"branch1": {"builtin": "nope"}, "branch2": {"builtin": "p3"}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run(["--scenario", str(path), "equalizer"])
    assert code == 2
    assert "nope" in out


def test_charge_requires_bundle_blocks():
    code, out = run(["charge"])  # default scenario has no bundles
    assert code == 2
    assert "bundle" in out


def test_charge_labels_follow_deformation_flag():
    code, out = run(["--json", "--scenario", str(SCENARIOS[0]), "charge"])
    assert code == 0
    doc = json.loads(out)
    assert all(row["label"] == "smooth-fibre charge" for row in doc["results"]["charges"])
    code, out = run(["--json", "--scenario", str(SCENARIOS[1]), "charge"])
    doc = json.loads(out)
    assert all(row["label"] == "central-fibre degree" for row in doc["results"]["charges"])


def test_equalizer_membership_query(tmp_path):
    member = tmp_path / "pair.json"
    member.write_text(
        json.dumps({"degree": 1, "branch1": [0, 1], "branch2": [0, -1]}), encoding="utf-8"
    )
    code, out = run(["--json", "--scenario", str(SCENARIOS[0]), "equalizer", "--member", str(member)])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["member_query"] == {
        "degree": 1,
        "matched": True,
        "in_lattice": True,
    }
    member.write_text(
        json.dumps({"degree": 1, "branch1": [0, 1], "branch2": [0, 1]}), encoding="utf-8"
    )
    code, out = run(["--json", "--scenario", str(SCENARIOS[0]), "equalizer", "--member", str(member)])
    doc = json.loads(out)
    assert doc["results"]["member_query"]["matched"] is False


def test_surfaces_pair_mode():
    code, out = run(["--json", "surfaces", "--pair", "2", "in", "2", "in"])
    assert code == 0
    assert json.loads(out)["results"]["pair"]["glues"] is True
    code, out = run(["--json", "surfaces", "--pair", "1", "out", "1", "out"])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["pair"]["glues"] is False
    assert "swapped_trace1" in doc["results"]["pair"]


@pytest.mark.parametrize(
    "pair", [["1.5", "in", "1", "out"], ["1", "in", "1", "maybe"], ["9" * 4301, "in", "1", "out"]]
)
def test_surfaces_pair_refusal_names_the_flag_and_its_shape(pair):
    code, out = run(["surfaces", "--pair", *pair])
    assert code == 2
    echo = repr(" ".join(pair))
    if len(echo) > 40:  # the first 36 characters, then " ..."
        echo = "'" + "9" * 35 + " ..."
    assert out == (
        "error: --pair takes D1 IN1 D2 IN2, an integer degree then in or out for each "
        f"surface, got {echo}"
    )


@pytest.mark.parametrize("pair", [["0", "in", "1", "out"], ["2", "in", "-3", "out"]])
def test_surfaces_pair_value_refusal_names_the_flag(pair):
    assert run(["surfaces", "--pair", *pair]) == (2, "error: --pair: twistor degree must be at least 1")


@pytest.mark.parametrize(
    "argv",
    [
        ["surfaces", "--dmax"],
        ["real", "--samples"],
        ["neck", "--curve", "1"],
        ["neck", "--character", "1"],
    ],
    ids=["dmax", "samples", "curve", "character"],
)
@pytest.mark.parametrize("value", ["12x", "9" * 5000], ids=["short", "past-digit-limit"])
def test_integer_flag_refusal_echoes_at_most_40_characters(argv, value, capsys):
    # argparse's own message for a short value; a long one ends after 36 characters
    with pytest.raises(SystemExit) as exit_info:
        run([*argv[:2], value, *argv[2:]] if len(argv) > 2 else [*argv, value])
    echo = repr(value) if len(repr(value)) <= 40 else "'" + "9" * 35 + " ..."
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument {argv[1]}: invalid int value: {echo}\n")


def test_work_flag_out_of_bounds_echoes_at_most_40_characters():
    code, out = run(["surfaces", "--dmax", "9" * 4000])
    assert (code, out) == (2, "error: --dmax must lie in 1..200, got " + "9" * 36 + " ...")


@pytest.mark.parametrize("flag", ["--curve", "--character"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_neck_flags_are_bounded_and_echo_at_most_40_characters(flag, json_flag):
    # 4,300 digits is within the interpreter's limit for int(), so the bound refuses it
    for pair in (["9" * 4300, "1"], ["1", "-" + "9" * 4300], ["1", "1000001"]):
        code, out = run([*json_flag, "neck", flag, *pair])
        value = pair[0] if pair[1] == "1" else pair[1]
        echo = value if len(value) <= 40 else value[:36] + " ..."
        assert (code, out) == (2, f"error: {flag} must lie in -1000000..1000000, got {echo}")
    assert run([*json_flag, "neck", flag, "-1000000", "1000000"])[0] == 0


def test_oracle_gate_is_the_one_the_benchmark_expects():
    # bench/expect.py predicts when equalizer runs its oracle; it is read, not imported
    expect = ast.parse((Path(__file__).resolve().parent.parent / "bench" / "expect.py").read_text())
    gates = [
        ast.literal_eval(node.value)
        for node in expect.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["ORACLE_GATE"]
    ]
    assert gates == [cli.ORACLE_GATE]


def test_options_are_exactly_the_subcommand_flags(tmp_path):
    decorate = tmp_path / "decorate.json"
    decorate.write_text(json.dumps({"theta": {"re_num": 1, "re_den": 1, "im_num": 0, "im_den": 1}}))
    for argv, options in (
        (["surfaces", "--pair", "1", "in", "1", "out"], {"dmax": 50, "pair": ["1", "in", "1", "out"]}),
        (["neck", "--decorate", str(decorate)], {"curve": None, "character": None, "decorate": str(decorate)}),
    ):
        code, out = run(["--json", *argv])
        assert code == 0 and json.loads(out)["options"] == options


def test_neck_character_flag():
    code, out = run(["--json", "neck", "--character", "1", "-1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["character_quotient"]["c1"] == 0
    assert doc["results"]["character_quotient"]["total_space"] == "S2xS1"


def test_neck_decoration_from_file(tmp_path):
    decorate = tmp_path / "decorate.json"
    decorate.write_text(
        json.dumps(
            {
                "theta": {"re_num": 3, "re_den": 5, "im_num": 4, "im_den": 5},
                "points": [
                    {"id": "p", "eta": {"re_num": 1, "re_den": 1, "im_num": 0, "im_den": 1}}
                ],
            }
        ),
        encoding="utf-8",
    )
    code, out = run(["--json", "neck", "--decorate", str(decorate)])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["decoration"]["points"][0]["rho1"] == {
        "re_num": 3,
        "re_den": 5,
        "im_num": 4,
        "im_den": 5,
    }


def test_inline_ring_branch(tmp_path):
    from twistor_pushout.pushout import projective_space_base

    doc = {
        "branch1": projective_space_base().to_json_dict(),
        "branch2": {"builtin": "p3"},
    }
    path = tmp_path / "inline.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run(["--json", "--scenario", str(path), "equalizer"])
    assert code == 0
    assert json.loads(out)["results"]["ranks"] == [1, 2, 3, 2]


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["surfaces", "--dmax", "201"], "--dmax must lie in 1..200"),
        (["surfaces", "--dmax", "-1"], "--dmax must lie in 1..200"),
        (["real", "--samples", "10001"], "--samples must lie in 1..10000"),
        (["real", "--samples", "-1"], "--samples must lie in 1..10000"),
        (["real", "--samples", "0"], "--samples must lie in 1..10000"),
    ],
    ids=["dmax-above", "dmax-negative", "samples-above", "samples-negative", "samples-zero"],
)
def test_work_flags_out_of_bounds_are_refused_before_any_work(argv, bound, monkeypatch):
    def no_work():
        raise AssertionError("an out-of-range flag reached the scenario build")

    monkeypatch.setattr("twistor_pushout.cli.default_scenario", no_work)
    code, out = run(argv)
    assert code == 2
    assert out.startswith(f"error: {bound}, got {argv[-1]}")


def test_inline_ring_above_rank_cap_is_refused_before_any_work(tmp_path, monkeypatch):
    from twistor_pushout.scenario import MAX_DOCUMENT_RANK

    def no_work(*args, **kwargs):
        raise AssertionError("an over-rank ring document reached the table checks")

    rank = MAX_DOCUMENT_RANK + 1
    doc = {
        "top_degree": 3,
        "basis": [["1"], [f"a{i}" for i in range(rank)], ["l"], ["p"]],
        "mult": [],
        "degree_functional": [1],
        "line_class": [1],
        "twistor_degrees": [0] * rank,
        "point_class": [1],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"branch1": doc, "branch2": {"builtin": "p3"}}), encoding="utf-8")
    monkeypatch.setattr("twistor_pushout.rings.GradedRing", no_work)
    code, out = run(["--scenario", str(path), "equalizer"])
    assert code == 2
    assert out == (
        f"error: {path}: ring document has rank {rank} in degree 1; "
        f"at most {MAX_DOCUMENT_RANK} is accepted"
    )


@pytest.mark.parametrize("flag", [["--scenario"], []], ids=["option", "positional"])
def test_charge_refusal_names_the_scenario_file(tmp_path, flag):
    path = tmp_path / "no_bundles.json"
    path.write_text(json.dumps({"branch1": {"builtin": "p3"}, "branch2": {"builtin": "p3"}}))
    argv = [*flag, str(path), "charge"] if flag else ["charge", str(path)]
    code, out = run(argv)
    assert code == 2
    assert out == f"error: {path}: charge needs bundle and polarization blocks in the scenario"


def test_closed_stdout_ends_with_the_verdict_and_no_traceback():
    # the reader goes away before the report is written, as with `| head -c 10`
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "twistor_pushout", "--json", "real"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert b"Traceback" not in stderr, stderr.decode()


def without_first_degree_2_pair(closure):
    """``closure`` run on the lattices less their first degree-2 pair, which products of
    degree-1 pairs then leave."""
    from twistor_pushout.pushout import EqualizerRing

    def check(self):
        lattices = (*self.lattices[:2], self.lattices[2][1:], *self.lattices[3:])
        closure(EqualizerRing(self.geometry, lattices))

    return check


def test_a_product_closure_failure_is_reported_and_exits_1(monkeypatch):
    from twistor_pushout.pushout import EqualizerRing

    closure = without_first_degree_2_pair(EqualizerRing.check_product_closure)
    monkeypatch.setattr(EqualizerRing, "check_product_closure", closure)
    name = "lattice closed under componentwise product"
    detail = "product of lattice pairs leaves the lattice in degree 2"
    code, out = run(["--json", "equalizer"])
    doc = json.loads(out)
    assert code == 1
    assert [entry for entry in doc["identities"] if not entry["passed"]] == [
        {"name": name, "passed": False, "detail": detail}
    ]
    assert doc["all_identities_passed"] is False
    code, out = run(["equalizer"])
    assert code == 1
    assert f"  [FAIL] {name}  ({detail})" in out.splitlines()


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("p3_p3-equalizer", ["scenarios/p3_p3.json", "equalizer", "--member", "tests/data/member_p3.json"]),
        ("synthetic_rank11-equalizer", ["tests/data/synthetic_r11.json", "equalizer"]),
    ],
)
def test_a_certified_equalizer_forms_no_product(golden, argv, monkeypatch):
    # the kernel certificate and the ring-hom checks give closure: the product loop never runs
    from twistor_pushout.pushout import EqualizerRing

    def refuse(self):
        raise AssertionError("a certified equalizer formed its products")

    monkeypatch.setattr(EqualizerRing, "_check_each_product", refuse)
    root = Path(__file__).resolve().parent.parent
    monkeypatch.chdir(root)
    code, out = run(["--json", "--scenario", *argv])
    assert code == 0
    assert (out + "\n").encode() == (root / "tests" / "golden" / f"{golden}.json").read_bytes()


# -- every reported identity can fail -------------------------------------------------


def _plus_one(f):
    return lambda *args, **kwargs: f(*args, **kwargs) + 1


def _quadric_w(replacement):
    """``GradedRing.basis_element`` with the quadric's w replaced by ``replacement(b, w)``."""

    def falsify(f):
        def basis_element(ring, degree, index):
            if ring.name == "CH(P1xP1)" and (degree, index) == (1, 1):
                return replacement(f(ring, 1, 0), f(ring, 1, 1))
            return f(ring, degree, index)

        return basis_element

    return falsify


def _decoration_at_the_conjugate_angle(f):
    from twistor_pushout.neck import PhaseDecoration

    return lambda ids, theta, etas: PhaseDecoration(theta.conjugate(), f(ids, theta, etas).points)


def _outside_the_fixed_space(f):
    from twistor_pushout.realstruct import section

    return lambda *reals: f(*reals) + section(1, 0, 0, 0)  # (1, 0, 0, 0) is not invariant


def _spot_check_on_a_section_vanishing_at_one_point(f):
    from twistor_pushout.gaussian import GaussianScalar
    from twistor_pushout.realstruct import section

    one_point = section(1, GaussianScalar.i(), 0, 0)  # zero at the first base point only
    return lambda *reals: one_point if reals == (2, -1, 3, 5) else f(*reals)


def _turned_pencil(f):
    """``pencil_value`` with its second entry turned by i, which conjugation does not commute with."""
    from twistor_pushout.gaussian import GaussianScalar
    from twistor_pushout.realstruct import BASEPOINT

    def pencil_value(p):
        value = f(p)
        return value if value is BASEPOINT else (value[0], value[1] * GaussianScalar.i())

    return pencil_value


def _nowhere_vanishing_pencil(f):
    from twistor_pushout.gaussian import GaussianScalar

    return lambda p: (GaussianScalar.one(), GaussianScalar.one())


P3_P3 = ["--scenario", str(SCENARIOS[0])]
QUADRIC = ["ring-show", "--branch", "quadric"]
REAL = ["real", "--samples", "5"]
# identity name -> (argv, the patched function's owner, its name, falsify(original) -> patch);
# the owner is a module of the package or a class in one
FALSIFIERS = {
    "exceptional divisor restricts to z = b - w": (
        ["ring-show"],
        "pushout.BlownUpChow",
        "restrict_to_quadric",
        lambda f: lambda blown, x: -f(blown, x),
    ),
    "exceptional self-intersection is 2 j.b - f.[line]": (
        ["ring-show"], "pushout.BlownUpChow", "pushed_fibre_class", lambda f: lambda blown: 2 * f(blown)
    ),
    "pushforward of (b + w) equals the pulled-back line class": (
        ["ring-show"], "pushout.BlownUpChow", "pulled_back_line", lambda f: lambda blown: 2 * f(blown)
    ),
    "the two rulings intersect in a point": (
        QUADRIC, "rings.GradedRing", "basis_element", _quadric_w(lambda b, w: b)
    ),
    "each ruling squares to zero": (
        QUADRIC, "rings.GradedRing", "basis_element", _quadric_w(lambda b, w: b + w)
    ),
    "lattice closed under componentwise product": (
        ["equalizer"], "pushout.EqualizerRing", "check_product_closure", without_first_degree_2_pair
    ),
    "kernel lattice matches bounded brute-force enumeration": (
        ["equalizer"], "pushout", "brute_force_matched_lattice", lambda f: lambda *args: f(*args)[1:]
    ),
    "([Q1], -[Q2]) is a matched member": (  # ([Q1], [Q2]) has matching defect 2z
        ["equalizer"],
        "pushout.PushoutPair",
        "exceptional_pair",
        lambda f: lambda geometry: geometry.pair(f(geometry).first, -f(geometry).second),
    ),
    "classification is the rigid three-case table": (
        ["surfaces"], "surfaces", "classify_all", lambda f: lambda d_max: [*f(d_max), (3, "in", 3, "in")]
    ),
    "every trace meets a generic twistor line in its twistor degree": (
        ["surfaces"], "quadric", "intersection_number", _plus_one
    ),
    "contained-line traces are rational": (["surfaces"], "quadric", "arithmetic_genus", _plus_one),
    "glue check is symmetric": (
        ["surfaces", "--pair", "1", "in", "1", "out"],
        "surfaces",
        "glue_check",
        lambda f: lambda s1, s2: s1.contains_line,
    ),
    "matched polarization: totals agree with the polarized charge": (
        [*P3_P3, "charge"], "charges", "polarized_charge", _plus_one
    ),
    "obstruction dimensions are additive for bundles trivial on the double locus": (
        [*P3_P3, "charge"], "charges", "obstruction_dim", _plus_one
    ),
    "fibre restriction has magnitude one and oriented value +1": (
        ["neck"], "neck", "raw_fibre_pairing", lambda f: lambda bundle: 2 * f(bundle)
    ),
    "anti-diagonal character gives the lens space of class 2": (  # (-1, 1) is the diagonal quotient
        ["neck"],
        "neck",
        "antidiagonal_quotient_over_fibre",
        lambda f: lambda character=(1, 1): f((-character[0], character[1])),
    ),
    "diagonal character gives the trivial bundle over the sphere": (
        ["neck"], "neck", "character_quotient", _plus_one
    ),
    "decoration phase pairs satisfy rho1 * rho2 = theta": (
        [*P3_P3, "neck"], "neck", "phase_decoration", _decoration_at_the_conjugate_angle
    ),
    "base locus consists of two points": (
        REAL, "realstruct", "base_locus", lambda f: lambda: [*f(), f()[0]]
    ),
    "involution swaps the two base points": (
        REAL, "realstruct", "base_locus", lambda f: lambda: [f()[0]] * 2
    ),
    "fixed-space basis sections are invariant": (
        REAL, "realstruct", "invariant_section_from_reals", _outside_the_fixed_space
    ),
    "involution is fixed-point free on all samples": (
        REAL, "realstruct", "is_fixed_point", lambda f: lambda p: True
    ),
    "pencil is equivariant: value at the image is the conjugate": (
        REAL, "realstruct", "pencil_value", _turned_pencil
    ),
    "pencil vanishes exactly on the base locus": (
        REAL, "realstruct", "pencil_value", _nowhere_vanishing_pencil
    ),
    "invariant sections have involution-stable zero sets (spot check)": (
        REAL, "realstruct", "invariant_section_from_reals", _spot_check_on_a_section_vanishing_at_one_point
    ),
    "projection formula on all basis pairs": (  # its right side, x . j_*(g), off by one
        ["ring-show"], "pushout", "combination", lambda f: lambda *args: tuple(c + 1 for c in f(*args))
    ),
}
UNFALSIFIABLE = {
    "charge equals the sum of the branch degrees": (
        "holds by definition: total is built as the sum of the branch degrees it is compared "
        "with (ROADMAP item 2)"
    ),
}


def _owner(dotted: str):
    import importlib

    module, _, cls = dotted.partition(".")
    owner = importlib.import_module(f"twistor_pushout.{module}")
    return getattr(owner, cls) if cls else owner


def test_every_reported_identity_has_a_falsifier_or_a_reason():
    names = {
        entry["name"]
        for golden in (Path(__file__).resolve().parent / "golden").glob("*-*.json")
        if golden.read_text().startswith("{")
        for entry in json.loads(golden.read_text())["identities"]
    }
    assert len(names) == 26
    listed = [*FALSIFIERS, *UNFALSIFIABLE]
    assert sorted(listed) == sorted(names | {"glue check is symmetric"})


@pytest.mark.parametrize("name", sorted(FALSIFIERS))
def test_a_falsified_identity_reads_fail_and_exits_1(name, monkeypatch):
    argv, owner, attribute, falsify = FALSIFIERS[name]
    owner = _owner(owner)
    monkeypatch.setattr(owner, attribute, falsify(getattr(owner, attribute)))
    code, out = run(argv)
    assert code == 1 and f"  [FAIL] {name}" in out, out
    code, out = run(["--json", *argv])
    assert code == 1
    identities = json.loads(out)["identities"]
    assert [entry["passed"] for entry in identities if entry["name"] == name] == [False]


def test_a_section_failing_invariance_is_reported_not_raised(monkeypatch):
    from twistor_pushout import realstruct

    invariant = realstruct.is_invariant_section
    monkeypatch.setattr(realstruct, "is_invariant_section", lambda s: not invariant(s))
    code, out = run(["real", "--samples", "3"])
    assert code == 1 and "  [FAIL] fixed-space basis sections are invariant" in out.splitlines(), out


def test_a_perturbed_section_evaluation_is_reported_not_raised(monkeypatch):
    from twistor_pushout import realstruct
    from twistor_pushout.gaussian import GaussianScalar

    evaluate = realstruct.evaluate_section
    monkeypatch.setattr(realstruct, "evaluate_section", lambda s, p: evaluate(s, p) + GaussianScalar.one())
    code, out = run(["real", "--samples", "3"])
    assert code == 1 and "  [FAIL] pencil vanishes exactly on the base locus" in out.splitlines(), out


def test_a_base_locus_of_one_point_twice_is_not_two_points(monkeypatch):
    from twistor_pushout import realstruct

    base_locus = realstruct.base_locus
    monkeypatch.setattr(realstruct, "base_locus", lambda: [base_locus()[0]] * 2)
    code, out = run(REAL)
    assert code == 1 and "  [FAIL] base locus consists of two points" in out.splitlines(), out


def test_only_ring_show_on_a_branch_checks_the_projection_formula_once_on_that_branch(monkeypatch, tmp_path):
    # ring-show on a branch blows up that branch alone and builds no pair; the quadric view
    # blows up none; equalizer and charge blow up each branch once and glue them once
    from twistor_pushout import pushout

    blown, pairs, checked = [], [], []
    blow_up, init = pushout.blow_up, pushout.PushoutPair.__init__
    check = pushout.BlownUpChow.check_projection_formula

    def record_blow_up(base):
        blown.append(blow_up(base))
        return blown[-1]

    def record_pair(pair, *branches):
        init(pair, *branches)
        pairs.append(pair)

    def record_check(branch):
        checked.append(branch)
        check(branch)

    monkeypatch.setattr(pushout, "blow_up", record_blow_up)
    monkeypatch.setattr(pushout.PushoutPair, "__init__", record_pair)
    monkeypatch.setattr(pushout.BlownUpChow, "check_projection_formula", record_check)
    mixed = tmp_path / "p3_flag.json"
    mixed.write_text(json.dumps({"branch1": {"builtin": "p3"}, "branch2": {"builtin": "flag"}}), encoding="utf-8")
    for argv, shown, blow_ups in (
        (["--scenario", str(mixed), "ring-show", "--branch", "1"], "CH(P3)", 1),
        (["--scenario", str(mixed), "ring-show", "--branch", "2"], "CH(Flag)", 1),
        ([*P3_P3, *QUADRIC], None, 0),
        ([*P3_P3, "equalizer"], None, 2),
        ([*P3_P3, "charge"], None, 2),
    ):
        blown.clear()
        pairs.clear()
        checked.clear()
        assert run(argv)[0] == 0
        assert len(blown) == blow_ups and len(pairs) == (blow_ups == 2), argv
        if shown is None:
            assert checked == [], argv
        else:
            assert len(checked) == 1 and checked[0] is blown[0] and checked[0].base.ring.name == shown


# -- random geometries against the benchmark's closed forms ------------------------------


BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_modules():
    """``bench/gen.py`` and ``bench/expect.py``, loaded by path.  Each is in ``sys.modules``
    while it loads, as ``gen``'s dataclass and ``expect``'s ``from gen import`` need, and
    leaves it after."""
    modules = []
    with mock.patch.dict(sys.modules):
        for name in ("gen", "expect"):
            spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
            modules.append(importlib.util.module_from_spec(spec))
            sys.modules[name] = modules[-1]
            spec.loader.exec_module(modules[-1])
    return modules


GEN, EXPECT = _bench_modules()
# ring-show on a branch, equalizer, and equalizer --member with a matched or an unmatched pair
RANDOM_COMMANDS = [("ring-show", "1"), ("ring-show", "2"), ("ring-show", "quadric"), ("equalizer", None)]
RANDOM_COMMANDS += [("member", True), ("member", False)]


# Ranks up to 11 keep each example under about 35 ms in process (about 11 ms on
# average), so 100 examples cost one to two seconds; rank 3 runs the brute-force
# oracle and the larger ranks do not.  Degrees 1 and 2 only: every degree-3 pair
# is matched, so ``random_pair`` finds no unmatched one there.
@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([rank for rank in GEN.SYNTHETIC_RANKS if rank <= 11]),
    st.integers(0, 2**32),
    st.integers(0, 2**32),
    st.sampled_from(RANDOM_COMMANDS),
    st.sampled_from([1, 2]),
)
def test_random_geometries_give_the_closed_form_answers(rank, seed1, seed2, command, degree):
    b1, b2 = GEN.synthetic_base(rank, Random(seed1)), GEN.synthetic_base(rank, Random(seed2))
    verb, arg = command
    with tempfile.TemporaryDirectory() as work:
        scenario = Path(work) / "pair.json"
        scenario.write_text(json.dumps({"branch1": b1.doc, "branch2": b2.doc}), encoding="utf-8")
        argv = ["--json", "--scenario", str(scenario)]
        if verb == "ring-show":
            argv += ["ring-show", "--branch", arg]
            check = EXPECT.check_ring_show(b1, b2, arg)
        elif verb == "equalizer":
            argv += ["equalizer"]
            check = EXPECT.check_equalizer(b1, b2)
        else:
            v1, v2 = GEN.random_pair(Random(seed1 ^ seed2), b1, b2, degree, arg)
            member = Path(work) / "member.json"
            member.write_text(json.dumps({"degree": degree, "branch1": v1, "branch2": v2}), encoding="utf-8")
            argv += ["equalizer", "--member", str(member)]
            check = EXPECT.check_equalizer(b1, b2, (degree, v1, v2))
        code, out = run(argv)
    assert check(code, out) == []
