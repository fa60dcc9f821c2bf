"""Closed-form expected answers for every operation the benchmark runs.

Each expectation is derived here from the generated inputs and textbook
formulas, never read back from the program: equalizer ranks from the branch
ranks, matching from the README restriction table, the rigid three-case
surface table, curve restriction c1 = b - a, charges from the blow-up product
rules, and the real-structure base locus (1 : +-i) x (1 : +-i).

A checker takes ``(exit_code, stdout)`` and returns a list of mismatch
descriptions; an empty list means the answer is correct.
"""

from __future__ import annotations

import json
from fractions import Fraction

from gen import Base, matched

RIGID_TABLE = {(2, "in", 2, "in"), (1, "in", 1, "out"), (1, "out", 1, "in")}
# classify_all's iteration order: d1, then in before out, then d2, then flag.
ADMISSIBLE_50 = [[1, "in", 1, "out"], [1, "out", 1, "in"], [2, "in", 2, "in"]]
DEFAULT_SURFACES = ((1, True), (1, False), (2, True), (2, False))
ORACLE_GATE = 6  # the equalizer runs its brute-force oracle when every rank sum is at most this


def format_class(coeffs, labels) -> str:
    """Render a coefficient vector the way the report prints ring elements."""
    terms = []
    for c, label in zip(coeffs, labels):
        if not c:
            continue
        if label == "1":
            terms.append(str(c))
        elif c == 1:
            terms.append(label)
        elif c == -1:
            terms.append(f"-{label}")
        else:
            terms.append(f"{c}*{label}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def blown_labels(base: Base) -> list[list[str]]:
    return [
        list(base.labels[0]),
        [f"f.{s}" for s in base.labels[1]] + ["Q"],
        [f"f.{s}" for s in base.labels[2]] + ["j.b"],
        [f"f.{s}" for s in base.labels[3]],
    ]


def equalizer_ranks(b1: Base, b2: Base) -> list[int]:
    m, n = b1.blown_ranks(), b2.blown_ranks()
    return [1, m[1] + n[1] - 2, m[2] + n[2] - 1, m[3] + n[3]]


def oracle_runs(b1: Base, b2: Base) -> bool:
    return all(a + b <= ORACLE_GATE for a, b in zip(b1.blown_ranks(), b2.blown_ranks()))


def product_lines(ranks) -> int:
    """Number of product lines ring-show prints for blown-up ranks (1, r1, r2, r3)."""
    count = 0
    for d1 in range(1, 4):
        for d2 in range(d1, 4 - d1):
            if d1 == d2:
                count += ranks[d1] * (ranks[d1] + 1) // 2
            else:
                count += ranks[d1] * ranks[d2]
    return count


def branch_degree(base: Base, c2, h) -> int:
    """deg(c2 . H) on a blown-up branch: f*a . f*b as in the base, Q . f*b = 0,
    f*a . j*b = 0, Q . j*b = -pt."""
    *c2_pulled, c2_jb = c2
    *h_pulled, h_q = h
    pulled = sum(
        h_pulled[i] * base.mult13[i][j] * c2_pulled[j]
        for i in range(len(h_pulled))
        for j in range(len(c2_pulled))
    )
    return pulled - h_q * c2_jb * base.point[0]


# -- helpers ---------------------------------------------------------------------------


def _parse(code: int, stdout: str, want_code: int, errors: list[str]):
    if code != want_code:
        errors.append(f"exit code {code}, expected {want_code}")
        return None
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        errors.append("stdout is not a JSON report")
        return None
    if doc.get("all_identities_passed") is not True:
        errors.append("all_identities_passed is not true")
    if not all(entry.get("passed") for entry in doc.get("identities", [])):
        errors.append("an identity failed")
    return doc


def _expect(errors: list[str], what: str, got, want) -> None:
    if got != want:
        errors.append(f"{what}: got {got!r}, expected {want!r}")


# -- per-command checkers -----------------------------------------------------------------


def check_ring_show(b1: Base, b2: Base, branch: str):
    def check(code: int, stdout: str) -> list[str]:
        errors: list[str] = []
        doc = _parse(code, stdout, 0, errors)
        if doc is None:
            return errors
        res = doc.get("results", {})
        if branch == "quadric":
            _expect(errors, "ranks", res.get("ranks"), [1, 2, 1])
            _expect(errors, "identity count", len(doc.get("identities", [])), 2)
            return errors
        base = b1 if branch == "1" else b2
        ranks = list(base.blown_ranks())
        labels = blown_labels(base)
        _expect(errors, "ranks", res.get("ranks"), ranks)
        _expect(errors, "basis", res.get("basis"), labels)
        products = res.get("products", [])
        _expect(errors, "product lines", len(products), product_lines(ranks))
        # Q^2 = 2 j*b - f*[line] and Q . j*b = -f*[pt]
        q_square = format_class([-c for c in base.line] + [2], labels[2])
        q_jb = format_class([-c for c in base.point], labels[3])
        for line in (f"Q . Q = {q_square}", f"Q . j.b = {q_jb}"):
            if line not in products:
                errors.append(f"missing product line {line!r}")
        _expect(errors, "identity count", len(doc.get("identities", [])), 4)
        return errors

    return check


def check_equalizer(b1: Base, b2: Base, member=None):
    """``member`` is (degree, v1, v2) written to the --member file, or None."""

    def check(code: int, stdout: str) -> list[str]:
        errors: list[str] = []
        doc = _parse(code, stdout, 0, errors)
        if doc is None:
            return errors
        res = doc.get("results", {})
        _expect(errors, "ranks", res.get("ranks"), equalizer_ranks(b1, b2))
        n_ids = 3 if oracle_runs(b1, b2) else 2
        _expect(errors, "identity count", len(doc.get("identities", [])), n_ids)
        if member is not None:
            degree, v1, v2 = member
            m = matched(b1, b2, degree, v1, v2)
            _expect(
                errors,
                "member_query",
                res.get("member_query"),
                {"degree": degree, "matched": m, "in_lattice": m},
            )
        return errors

    return check


def _trace(degree: int, contains: bool) -> tuple[int, int]:
    """(b, w) coefficients of a surface's trace: (d-1) b + w with the line, d b without."""
    return (degree - 1, 1) if contains else (degree, 0)


def _surface_row(degree: int, contains: bool) -> dict:
    m, n = _trace(degree, contains)
    return {
        "degree": degree,
        "contains_line": contains,
        "trace": format_class([m, n], ["b", "w"]),
        "genus": (m - 1) * (n - 1),
        "points_on_twistor_line": m + n,
    }


def _flag(contains: bool) -> str:
    return "in" if contains else "out"


def check_surfaces(surfaces):
    """Full classification at --dmax 50 for the scenario's surface list."""
    surfaces = tuple(surfaces) or DEFAULT_SURFACES

    def check(code: int, stdout: str) -> list[str]:
        errors: list[str] = []
        doc = _parse(code, stdout, 0, errors)
        if doc is None:
            return errors
        res = doc.get("results", {})
        _expect(errors, "admissible", res.get("admissible"), ADMISSIBLE_50)
        _expect(errors, "surfaces", res.get("surfaces"), [_surface_row(d, c) for d, c in surfaces])
        glue = [
            {
                "first": a,
                "second": b,
                "glues": (surfaces[a][0], _flag(surfaces[a][1]), surfaces[b][0], _flag(surfaces[b][1]))
                in RIGID_TABLE,
            }
            for a in range(len(surfaces))
            for b in range(a, len(surfaces))
        ]
        _expect(errors, "glue_checks", res.get("glue_checks"), glue)
        _expect(errors, "identity count", len(doc.get("identities", [])), 3)
        return errors

    return check


def check_surface_pair(d1: int, f1: str, d2: int, f2: str):
    def check(code: int, stdout: str) -> list[str]:
        errors: list[str] = []
        doc = _parse(code, stdout, 0, errors)
        if doc is None:
            return errors
        t1, t2 = _trace(d1, f1 == "in"), _trace(d2, f2 == "in")
        want = {
            "glues": (d1, f1, d2, f2) in RIGID_TABLE,
            "trace1": format_class(t1, ["b", "w"]),
            "trace2": format_class(t2, ["b", "w"]),
            "swapped_trace1": format_class((t1[1], t1[0]), ["b", "w"]),
        }
        _expect(errors, "pair", doc.get("results", {}).get("pair"), want)
        return errors

    return check


def check_charge(b1: Base, b2: Base, scenario_doc: dict | None):
    """Charges of a scenario's bundle blocks; without them the answer is exit 2."""
    if scenario_doc is None or not scenario_doc.get("bundles") or "polarization" not in scenario_doc:

        def refused(code: int, stdout: str) -> list[str]:
            errors: list[str] = []
            _expect(errors, "exit code", code, 2)
            if not stdout.startswith("error:"):
                errors.append("refusal does not start with 'error:'")
            return errors

        return refused

    pol = scenario_doc["polarization"]
    is_matched = matched(b1, b2, 1, pol["branch1"], pol["branch2"])
    smooth = scenario_doc.get("assumption_DEF") and is_matched
    label = "smooth-fibre charge" if smooth else "central-fibre degree"
    rows = []
    for index, block in enumerate(scenario_doc["bundles"]):
        degrees = [
            branch_degree(b1, block["c2"]["branch1"], pol["branch1"]),
            branch_degree(b2, block["c2"]["branch2"], pol["branch2"]),
        ]
        row = {
            "bundle": index,
            "rank": block.get("rank", 2),
            "branch_degrees": degrees,
            "total": sum(degrees),
            "label": label,
        }
        if is_matched:
            row["polarized_charge"] = sum(degrees)
        if block.get("trivial_on_Q"):
            row["obstruction_dim"] = sum(block.get("h2_end", (0, 0)))
        rows.append(row)
    want = {
        "polarization_matched": is_matched,
        "assumption_DEF": bool(scenario_doc.get("assumption_DEF", False)),
        "charges": rows,
    }

    def check(code: int, stdout: str) -> list[str]:
        errors: list[str] = []
        doc = _parse(code, stdout, 0, errors)
        if doc is not None:
            _expect(errors, "results", doc.get("results"), want)
        return errors

    return check


def _lens(c1: int) -> str:
    n = abs(c1)
    return {0: "S2xS1", 1: "S3", 2: "RP3"}.get(n, f"L({n},1)")


def _gaussian_json(re: Fraction, im: Fraction) -> dict:
    return {
        "re_num": re.numerator,
        "re_den": re.denominator,
        "im_num": im.numerator,
        "im_den": im.denominator,
    }


def _scalar(doc: dict) -> tuple[Fraction, Fraction]:
    return Fraction(doc["re_num"], doc["re_den"]), Fraction(doc["im_num"], doc["im_den"])


def check_neck(curve, character, decoration: dict | None):
    a, b = curve
    c, d = character
    want = {
        "fixed_phase_c1_bw": [1, -1],
        "fibre_restriction": {"raw": -1, "oriented": 1, "total_space": "S3"},
        "character_quotient": {
            "chern_vector": [1, 1],
            "character": [c, d],
            "c1": c + d,
            "total_space": _lens(c + d),
        },
        "curve_restriction": {"bidegree": [a, b], "c1": b - a},
    }
    if decoration is not None:
        tr, ti = _scalar(decoration["theta"])
        points = []
        for p in decoration.get("points", []):
            er, ei = _scalar(p["eta"])
            # rho1 = theta / eta = theta * conj(eta) for a unit eta
            points.append(
                {
                    "id": p["id"],
                    "rho1": _gaussian_json(tr * er + ti * ei, ti * er - tr * ei),
                    "rho2": _gaussian_json(er, ei),
                }
            )
        want["decoration"] = {"theta": _gaussian_json(tr, ti), "points": points}

    def check(code: int, stdout: str) -> list[str]:
        errors: list[str] = []
        doc = _parse(code, stdout, 0, errors)
        if doc is None:
            return errors
        _expect(errors, "results", doc.get("results"), want)
        _expect(errors, "identity count", len(doc.get("identities", [])), 4 if decoration else 3)
        return errors

    return check


_ONE = [["1", "1"], ["0", "1"]]
_I = [["0", "1"], ["1", "1"]]
_MINUS_I = [["0", "1"], ["-1", "1"]]


def check_real(samples: int):
    want = {
        "base_locus": ["([1 : 1i], [1 : 1i])", "([1 : -1i], [1 : -1i])"],
        "base_locus_exact": [[[_ONE, _I], [_ONE, _I]], [[_ONE, _MINUS_I], [_ONE, _MINUS_I]]],
        "fixed_space_dimension": 4,
        "samples": samples,
    }

    def check(code: int, stdout: str) -> list[str]:
        errors: list[str] = []
        doc = _parse(code, stdout, 0, errors)
        if doc is None:
            return errors
        _expect(errors, "results", doc.get("results"), want)
        _expect(errors, "identity count", len(doc.get("identities", [])), 7)
        return errors

    return check
