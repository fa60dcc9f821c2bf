"""Blow-up tables, both built-in bases, and the glued equalizer lattices."""

import functools
import itertools
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twistor_pushout import intlin
from twistor_pushout.intlin import hermite_row_basis, kernel_lattice
from twistor_pushout.pushout import (
    BlownUpChow,
    ComponentPair,
    EqualizerRing,
    PushoutPair,
    _matched_lattice_in_box,
    blow_up,
    brute_force_matched_lattice,
    builtin_base,
    flag_threefold_base,
    projective_space_base,
)
from twistor_pushout.quadric import QuadricClass, canonical_class
from twistor_pushout.rings import DegreeError, GradedMap, RingMismatchError
from twistor_pushout.scenario import load_scenario, twistor_base_from_dict


@pytest.fixture(scope="module")
def blown_p3():
    return blow_up(projective_space_base())

@pytest.fixture(scope="module")
def blown_flag():
    return blow_up(flag_threefold_base())

@pytest.fixture(scope="module")
def p3_pair():
    return PushoutPair(blow_up(projective_space_base()), blow_up(projective_space_base()))

@pytest.fixture(scope="module")
def flag_pair():
    return PushoutPair(blow_up(flag_threefold_base()), blow_up(flag_threefold_base()))


# -- the centre's normal data ------------------------------------------------------


def test_exceptional_normal_class_adjunction_oracle(blown_p3, blown_flag):
    # Independent derivation of O(Q)|_Q.  The centre is a rational curve with
    # normal bundle of degree 2, so K_base restricts to degree -2 - 2 = -4 and
    # pulls back to -4b on the quadric.  Adjunction K_Q = (f*K + 2Q)|_Q then
    # determines the restriction of Q with no reference to the blow-up table:
    #   -2b - 2w = -4b + 2*nu  =>  nu = b - w.
    K_quadric = canonical_class()
    pulled_canonical = QuadricClass.from_bw(-4, 0)
    doubled = K_quadric - pulled_canonical
    nu_b, nu_w = (c // 2 for c in doubled.coeffs_bw())
    assert (nu_b, nu_w) == (1, -1)
    for blown in (blown_p3, blown_flag):
        assert blown.restrict_to_quadric(blown.exceptional_class()).coeffs_bw() == (nu_b, nu_w)


def test_exceptional_cube_has_classical_degree(blown_p3):
    # deg E^3 = -(degree of the centre's normal bundle) = -2
    Q = blown_p3.exceptional_class()
    assert blown_p3.ring.zero_cycle_degree(Q * Q * Q) == -2


# -- blow-up of P3 ------------------------------------------------------------------


def test_p3_blowup_ranks(blown_p3):
    assert [blown_p3.ring.rank(d) for d in range(4)] == [1, 2, 2, 1]


def test_p3_blowup_products(blown_p3):
    ring = blown_p3.ring
    Q = blown_p3.exceptional_class()
    jb = blown_p3.pushed_fibre_class()
    fh = ring.basis_element(1, 0)
    fh2 = ring.basis_element(2, 0)
    assert Q * fh == jb  # twistor degree one
    assert Q * Q == 2 * jb - blown_p3.pulled_back_line()
    assert Q * fh2 == ring.zero()
    assert Q * jb == -blown_p3.point()
    assert fh * jb == ring.zero()
    assert (jb * jb).is_zero()
    assert fh * fh == fh2
    assert blown_p3.ring.zero_cycle_degree(fh * fh * fh) == 1


def test_pushforward_identities(blown_p3):
    quad = blown_p3.quadric
    push = blown_p3.pushforward_from_quadric
    xi = quad.homogeneous(1, [1, 1])
    assert push.apply(xi) == blown_p3.pulled_back_line()
    assert push.apply(quad.one()) == blown_p3.exceptional_class()
    assert push.apply(quad.basis_element(1, 0)) == blown_p3.pushed_fibre_class()
    assert push.apply(quad.basis_element(2, 0)) == blown_p3.point()


def test_restriction_values(blown_p3):
    ring = blown_p3.ring
    assert blown_p3.restrict_to_quadric(blown_p3.exceptional_class()).coeffs_bw() == (1, -1)
    assert blown_p3.restrict_to_quadric(ring.basis_element(1, 0)) == QuadricClass.from_bw(1, 0)
    assert blown_p3.restrict_to_quadric(ring.basis_element(2, 0)).is_zero()
    assert blown_p3.restrict_to_quadric(blown_p3.pushed_fibre_class()) == -QuadricClass.point()
    assert blown_p3.restrict_to_quadric(blown_p3.point()).is_zero()


def test_restriction_is_ring_homomorphism(blown_p3, blown_flag):
    for blown in (blown_p3, blown_flag):
        assert blown.restriction_to_quadric_map.is_ring_hom
        Q = blown.exceptional_class()
        lhs = blown.restrict_to_quadric(Q * Q)
        rhs = blown.restrict_to_quadric(Q) * blown.restrict_to_quadric(Q)
        assert lhs == rhs


def test_projection_formula_all_pairs(blown_p3, blown_flag):
    blown_p3.check_projection_formula()
    blown_flag.check_projection_formula()


def test_projection_formula_rejects_perturbed_pushforward(blown_flag):
    # w -> f.[line] - j.b gains one f.xy: the first pair to notice is (f.x, w)
    push = blown_flag.pushforward_from_quadric
    matrices = {d: [list(row) for row in rows] for d, rows in push.matrices.items()}
    matrices[1][0][1] += 1
    bad = BlownUpChow(
        base=blown_flag.base,
        ring=blown_flag.ring,
        quadric=blown_flag.quadric,
        restriction_to_quadric_map=blown_flag.restriction_to_quadric_map,
        pushforward_from_quadric=GradedMap(blown_flag.quadric, blown_flag.ring, 1, matrices),
    )
    with pytest.raises(ValueError, match=re.escape("projection formula fails on (f.x, w)")):
        bad.check_projection_formula()


def test_blow_up_rejects_inconsistent_twistor_degrees():
    base = projective_space_base()
    doc = base.to_json_dict()
    doc["twistor_degrees"] = [2]
    with pytest.raises(ValueError):
        twistor_base_from_dict(doc)


def test_blow_up_refuses_a_base_whose_line_times_h_is_not_the_point():
    # A rank-2 top degree: h . line = p, but the point is p + q, of the same degree.  The
    # projection formula on (f.h, w) says f*(h . line) = f*[point]; blow_up leaves that
    # formula to ring-show and refuses the ring on the associativity of (f.h, Q, Q), which
    # states the same identity.
    doc = {
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
    base = twistor_base_from_dict(doc)
    with pytest.raises(ValueError, match=re.escape("associativity fails on (f.h, Q, Q)")):
        blow_up(base)


def test_builtin_lookup():
    assert builtin_base("p3").ring.name == "CH(P3)"
    assert builtin_base("flag").ring.name == "CH(Flag)"
    with pytest.raises(ValueError):
        builtin_base("quintic")


# -- the flag threefold table, against a normal-form oracle -------------------------


def _flag_normal_form(poly):
    """Reduce an exponent-dict polynomial in x, y modulo x^2 - xy + y^2 and y^3.

    The rewriting system {x^2 -> xy - y^2, y^3 -> 0} is confluent for this
    ideal; degrees above three vanish for grading reasons.
    """
    result = {}
    work = dict(poly)
    while work:
        (a, b), coeff = work.popitem()
        if coeff == 0:
            continue
        if a + b > 3 or b >= 3:
            continue
        if a >= 2:
            for mono, c in (((a - 1, b + 1), coeff), ((a - 2, b + 2), -coeff)):
                work[mono] = work.get(mono, 0) + c
            continue
        result[(a, b)] = result.get((a, b), 0) + coeff
    return {m: c for m, c in result.items() if c}


_FLAG_MONOMIALS = {
    (1, (0,)): {(0, 0): 1},
    (1, (1, 0)): {(1, 0): 1},
    (1, (0, 1)): {(0, 1): 1},
    (2, (1, 0)): {(1, 1): 1},
    (2, (0, 1)): {(0, 2): 1},
    (3, (1,)): {(1, 2): 1},
}


def test_flag_table_matches_normal_form_oracle(blown_flag):
    ring = flag_threefold_base().ring
    basis_polys = {
        (1, 0): {(1, 0): 1},
        (1, 1): {(0, 1): 1},
        (2, 0): {(1, 1): 1},
        (2, 1): {(0, 2): 1},
        (3, 0): {(1, 2): 1},
    }
    def to_poly(degree, vec):
        out = {}
        for i, c in enumerate(vec):
            if c:
                for mono, cc in basis_polys[(degree, i)].items():
                    out[mono] = out.get(mono, 0) + c * cc
        return {m: c for m, c in out.items() if c}

    for d1, d2 in itertools.product((1, 2), repeat=2):
        if d1 + d2 > 3:
            continue
        for i1 in range(ring.rank(d1)):
            for i2 in range(ring.rank(d2)):
                table_vec = ring.table_entry(d1, i1, d2, i2)
                p1 = basis_polys[(d1, i1)]
                p2 = basis_polys[(d2, i2)]
                product = {}
                for (a1, b1), c1 in p1.items():
                    for (a2, b2), c2 in p2.items():
                        mono = (a1 + a2, b1 + b2)
                        product[mono] = product.get(mono, 0) + c1 * c2
                assert _flag_normal_form(product) == _flag_normal_form(
                    to_poly(d1 + d2, table_vec)
                )


def test_flag_twistor_degrees_and_point(blown_flag):
    base = flag_threefold_base()
    assert base.twistor_degrees == (1, 1)
    ring = base.ring
    x, y = ring.basis_element(1, 0), ring.basis_element(1, 1)
    assert ring.zero_cycle_degree(x * x * y) == 1
    assert ring.zero_cycle_degree(x * y * y) == 1
    assert (x * x * x).is_zero()
    assert (y * y * y).is_zero()


def test_flag_blowup_ranks(blown_flag):
    assert [blown_flag.ring.rank(d) for d in range(4)] == [1, 3, 3, 1]


# -- equalizer lattices ---------------------------------------------------------------


def test_matching_matrix_shape_and_kernel_rank(p3_pair):
    matrix = p3_pair.matching_matrix(1)
    assert len(matrix) == 2 and len(matrix[0]) == 4
    assert len(hermite_row_basis(brute_force_matched_lattice(p3_pair, 1))) == 2


def test_equalizer_ranks_p3(p3_pair):
    assert p3_pair.equalizer().ranks() == (1, 2, 3, 2)


def test_equalizer_ranks_flag(flag_pair):
    assert flag_pair.equalizer().ranks() == (1, 4, 5, 2)


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_equalizer_matches_brute_force_p3(p3_pair, degree):
    equalizer = p3_pair.equalizer()
    assert brute_force_matched_lattice(p3_pair, degree) == list(equalizer.lattices[degree])


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_equalizer_matches_brute_force_flag(flag_pair, degree):
    equalizer = flag_pair.equalizer()
    assert brute_force_matched_lattice(flag_pair, degree) == list(equalizer.lattices[degree])


def full_box_reference(matrix, n, bound):
    """Hermite basis of every solution in the box, enumerated point by point."""
    return hermite_row_basis(
        v
        for v in itertools.product(range(-bound, bound + 1), repeat=n)
        if all(sum(a * b for a, b in zip(row, v)) == 0 for row in matrix)
    )


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=2),
            st.integers(0, 3),
        )
    )
)
def test_meet_in_the_middle_oracle_matches_full_box(case):
    n, matrix, bound = case
    assert _matched_lattice_in_box(matrix, n, bound) == full_box_reference(matrix, n, bound)


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
@pytest.mark.parametrize("name", ["p3_pair", "flag_pair"])
def test_oracle_matches_full_box_on_shipped_geometries(name, degree, request):
    geometry = request.getfixturevalue(name)
    n = geometry.branch1.ring.rank(degree) + geometry.branch2.ring.rank(degree)
    reference = full_box_reference(geometry.matching_matrix(degree), n, 3)
    assert brute_force_matched_lattice(geometry, degree) == reference


def test_equalizer_product_closure(p3_pair, flag_pair):
    p3_pair.equalizer().check_product_closure()
    flag_pair.equalizer().check_product_closure()


def test_product_closure_rejects_lattice_missing_a_generator(flag_pair):
    lattices = list(flag_pair.equalizer().lattices)
    lattices[2] = lattices[2][1:]
    with pytest.raises(ValueError, match="^product of lattice pairs leaves the lattice in degree 2$"):
        EqualizerRing(flag_pair, tuple(lattices)).check_product_closure()


def test_product_closure_rejects_unmatched_generator(p3_pair):
    # (f.h, 0) restricts to (b, 0): its product with the unit pair is unmatched
    lattices = list(p3_pair.equalizer().lattices)
    lattices[1] = ((1, 0, 0, 0),) + lattices[1]
    with pytest.raises(ValueError, match="^product of matched pairs is unmatched in degree 1$"):
        EqualizerRing(p3_pair, tuple(lattices)).check_product_closure()


def test_exceptional_pair_membership(p3_pair):
    equalizer = p3_pair.equalizer()
    pair = p3_pair.exceptional_pair()
    assert p3_pair.is_matched(pair)
    assert equalizer.contains(pair)
    # the same-sign pair restricts to z on one side and -z on the other
    same_sign = ComponentPair(
        p3_pair.branch1.exceptional_class(), p3_pair.branch2.exceptional_class()
    )
    assert not p3_pair.is_matched(same_sign)
    assert not equalizer.contains(same_sign)


def test_pulled_back_hyperplanes_do_not_match(p3_pair):
    fh1 = p3_pair.branch1.ring.basis_element(1, 0)
    fh2 = p3_pair.branch2.ring.basis_element(1, 0)
    assert not p3_pair.is_matched(ComponentPair(fh1, fh2))
    assert not p3_pair.is_matched(ComponentPair(fh1, p3_pair.branch2.ring.zero()))
    assert p3_pair.is_matched(
        ComponentPair(p3_pair.branch1.ring.zero(), p3_pair.branch2.ring.zero())
    )


def test_matched_section_pair(p3_pair):
    # f.h - Q restricts to w, and the swap carries b to w: (f.h - Q, f.h) matches
    branch1 = p3_pair.branch1
    pair = ComponentPair(
        branch1.ring.basis_element(1, 0) - branch1.exceptional_class(),
        p3_pair.branch2.ring.basis_element(1, 0),
    )
    assert p3_pair.is_matched(pair)


def test_mixed_geometry_builds_and_closes():
    mixed = PushoutPair(blow_up(projective_space_base()), blow_up(flag_threefold_base()))
    equalizer = mixed.equalizer()
    assert equalizer.ranks()[0] == 1
    equalizer.check_product_closure()


def test_pair_validation(p3_pair):
    # rings are value-semantic: twin branches share one ring, so mismatches
    # only arise across genuinely different bases
    mixed = PushoutPair(blow_up(projective_space_base()), blow_up(flag_threefold_base()))
    with pytest.raises(RingMismatchError):
        mixed.pair(mixed.branch2.ring.one(), mixed.branch2.ring.one())
    mismatched = ComponentPair(
        p3_pair.branch1.ring.basis_element(1, 0),
        p3_pair.branch2.ring.basis_element(2, 0),
    )
    with pytest.raises(DegreeError):
        mismatched.codimension()
    inhomogeneous = ComponentPair(
        p3_pair.branch1.ring.one() + p3_pair.branch1.ring.basis_element(1, 0),
        p3_pair.branch2.ring.one(),
    )
    with pytest.raises(DegreeError):
        inhomogeneous.codimension()
    assert inhomogeneous.supported_degrees() == (0, 1)


def test_kernel_lattice_through_restriction_map(blown_p3):
    # degree-3 classes restrict into the zero group, so everything is kernel
    kernel = kernel_lattice(blown_p3.restriction_to_quadric_map, 3)
    assert kernel == [(1,)]


# -- the closure check against a reference that forms every ordered product ---------


DATA_DIR = Path(__file__).resolve().parent / "data"
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
CLOSURE_SCENARIOS = {
    "p3_p3": SCENARIO_DIR / "p3_p3.json",
    "flag_flag": SCENARIO_DIR / "flag_flag.json",
    "synthetic_r7": DATA_DIR / "synthetic_r7.json",
}


DERIVED_SCENARIOS = {**CLOSURE_SCENARIOS, "synthetic_r11": DATA_DIR / "synthetic_r11.json"}


@functools.lru_cache(maxsize=None)
def _closure_geometry(name):
    geometry = load_scenario(str(DERIVED_SCENARIOS[name])).geometry
    return geometry, geometry.equalizer()


def _closure_reference(equalizer):
    """The first closure failure found by forming every ordered product of basis
    pairs, mirrors included, in ``_check_each_product``'s (d1, d2 >= d1, u, v) order,
    as its message; None when every product holds.

    Independent of the equalizer's own methods: each branch's part of a product is
    summed from that branch's ``product_table``, the product is matched when
    ``matching_matrix`` annihilates it, and it is in the lattice when appending it
    to the lattice rows leaves their Hermite form unchanged."""
    geometry = equalizer.geometry
    rings = (geometry.branch1.ring, geometry.branch2.ring)

    def part(ring, u, v, d1, d2):
        table, out = ring.product_table(d1, d2), [0] * ring.rank(d1 + d2)
        for (i, a), (k, b) in itertools.product(enumerate(u), enumerate(v)):
            if a and b:
                for m, c in enumerate(table[i][k]):
                    out[m] += a * b * c
        return out

    for d1 in range(4):
        for d2 in range(d1, 4 - d1):
            split1, split2 = rings[0].rank(d1), rings[0].rank(d2)
            matching = geometry.matching_matrix(d1 + d2)
            rows = equalizer.lattices[d1 + d2]
            hermite = hermite_row_basis(rows)
            for u in equalizer.lattices[d1]:
                for v in equalizer.lattices[d2]:
                    uv = part(rings[0], u[:split1], v[:split2], d1, d2)
                    uv += part(rings[1], u[split1:], v[split2:], d1, d2)
                    if any(sum(a * b for a, b in zip(row, uv)) for row in matching):
                        return f"product of matched pairs is unmatched in degree {d1 + d2}"
                    if hermite_row_basis([*rows, uv]) != hermite:
                        return f"product of lattice pairs leaves the lattice in degree {d1 + d2}"
    return None


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CLOSURE_SCENARIOS)), st.sampled_from(["drop", "unmatched", "outside"]), st.data())
def test_closure_kernel_agrees_with_element_reference(name, kind, data):
    geometry, true_equalizer = _closure_geometry(name)
    lattices = [list(basis) for basis in true_equalizer.lattices]
    degree = data.draw(st.sampled_from([d for d in range(4) if lattices[d]]))
    basis = lattices[degree]
    index = data.draw(st.integers(0, len(basis) - 1))
    if kind == "drop":
        del basis[index]
    elif kind == "unmatched":
        # a random vector the matching matrix does not annihilate (degree 3 has none)
        matching = geometry.matching_matrix(degree)
        n = len(basis[0])
        vec = tuple(data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
        assume(any(sum(a * b for a, b in zip(row, vec)) for row in matching))
        basis.insert(data.draw(st.integers(0, len(basis))), vec)
    else:
        # twice a dropped generator: matched, but outside the lattice the others span
        generator = basis.pop(index)
        basis.insert(data.draw(st.integers(0, len(basis))), tuple(2 * a for a in generator))
    equalizer = EqualizerRing(geometry, tuple(tuple(b) for b in lattices))
    expected = _closure_reference(equalizer)
    try:
        equalizer.check_product_closure()
        found = None
    except ValueError as exc:
        found = str(exc)
    assert found == expected


def _verdict(check):
    try:
        check()
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(DERIVED_SCENARIOS)),
    st.sampled_from(["none", "remix", "drop", "unmatched", "outside"]),
    st.data(),
)
def test_derived_closure_verdict_agrees_with_forming_every_product(name, kind, data):
    geometry, true_equalizer = _closure_geometry(name)
    lattices = [list(basis) for basis in true_equalizer.lattices]
    matching = [geometry.matching_matrix(d) for d in range(4)]
    seen = [sorted({k for row in rows for k, a in enumerate(row) if a}) for rows in matching]
    degree = data.draw(st.sampled_from([d for d in range(4) if len(lattices[d]) > 1 and seen[d]]))
    basis = lattices[degree]
    i, j = data.draw(st.permutations(range(len(basis))))[:2]
    if kind == "remix":  # another basis of the same lattice, out of echelon form
        c = data.draw(st.integers(1, 3))
        basis[i] = tuple(a + c * b for a, b in zip(basis[i], basis[j]))
    elif kind == "drop":
        del basis[i]
    elif kind == "unmatched":  # moved along a column the matching matrix sees
        column = data.draw(st.sampled_from(seen[degree]))
        basis[i] = tuple(a + (k == column) for k, a in enumerate(basis[i]))
    elif kind == "outside":
        basis[i] = tuple(2 * a for a in basis[i])
    equalizer = EqualizerRing(geometry, tuple(tuple(b) for b in lattices))
    assert equalizer._closure_is_derived() == (kind in ("none", "remix"))
    verdict = _verdict(equalizer.check_product_closure)
    assert verdict == _verdict(equalizer._check_each_product) == _closure_reference(equalizer)


@pytest.mark.parametrize("name", sorted(DERIVED_SCENARIOS))
def test_equalizer_kernels_are_read_off_the_column_sweep(name, monkeypatch):
    geometry = load_scenario(str(DERIVED_SCENARIOS[name])).geometry

    def refuse(rows):
        raise AssertionError("the kernel went through the Hermite reduction")

    monkeypatch.setattr(intlin, "hermite_row_basis", refuse)
    # every pivot 1: the sweep's rows, certified without a Hermite form either
    assert geometry.equalizer()._closure_is_derived()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(CLOSURE_SCENARIOS)), st.data())
def test_membership_agrees_with_the_matching_condition(name, data):
    # each lattice is certified as the saturated kernel (above), so an integer pair lies
    # in it exactly when it is matched; is_matched reads the restriction maps and the
    # swap, never the lattice rows
    geometry, equalizer = _closure_geometry(name)
    degree = data.draw(st.integers(0, len(equalizer.lattices) - 1))
    n1 = geometry.branch1.ring.rank(degree)
    vec = [0] * (n1 + geometry.branch2.ring.rank(degree))
    for row in equalizer.lattices[degree]:
        c = data.draw(st.integers(-3, 3))
        vec = [a + c * b for a, b in zip(vec, row)]
    if data.draw(st.booleans()):  # moved at one coordinate
        vec[data.draw(st.integers(0, len(vec) - 1))] += data.draw(st.sampled_from([-2, -1, 1, 2]))
    pair = geometry.pair(
        geometry.branch1.ring.homogeneous(degree, vec[:n1]),
        geometry.branch2.ring.homogeneous(degree, vec[n1:]),
    )
    assert equalizer.contains(pair) == geometry.is_matched(pair)


def _projection_formula_reference(blown):
    """The first projection-formula failure found with ring elements and
    ``GradedMap.apply``, in the check's (d1, i1, d2, i2) order, as its message;
    None when every pair holds."""
    ring, quad = blown.ring, blown.quadric
    push, restrict = blown.pushforward_from_quadric, blown.restriction_to_quadric_map
    for d1 in range(ring.top_degree + 1):
        for i1 in range(ring.rank(d1)):
            x = ring.basis_element(d1, i1)
            for d2 in range(quad.top_degree + 1):
                for i2 in range(quad.rank(d2)):
                    g = quad.basis_element(d2, i2)
                    if push.apply(restrict.apply(x) * g) != x * push.apply(g):
                        labels = (ring.basis_labels[d1][i1], quad.basis_labels[d2][i2])
                        return "projection formula fails on ({}, {})".format(*labels)
    return None


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CLOSURE_SCENARIOS)), st.sampled_from(["branch1", "branch2"]), st.data())
def test_projection_formula_locator_agrees_with_element_reference(name, branch, data):
    # One entry of the pushforward of a p3, flag or rank-7 synthetic blow-up changes.
    blown = getattr(_closure_geometry(name)[0], branch)
    push = blown.pushforward_from_quadric
    matrices = {d: [list(row) for row in rows] for d, rows in push.matrices.items()}
    d = data.draw(st.sampled_from(sorted(matrices)))
    row = data.draw(st.integers(0, len(matrices[d]) - 1))
    col = data.draw(st.integers(0, len(matrices[d][row]) - 1))
    matrices[d][row][col] += data.draw(st.sampled_from((-2, -1, 1, 3)))
    bad = BlownUpChow(
        base=blown.base,
        ring=blown.ring,
        quadric=blown.quadric,
        restriction_to_quadric_map=blown.restriction_to_quadric_map,
        pushforward_from_quadric=GradedMap(blown.quadric, blown.ring, 1, matrices),
    )
    expected = _projection_formula_reference(bad)
    try:
        bad.check_projection_formula()
        found = None
    except ValueError as exc:
        found = str(exc)
    assert found == expected
