"""The fixed-point-free involution, invariant sections, pencil, base locus."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twistor_pushout.gaussian import GaussianScalar
from twistor_pushout.realstruct import (
    BASEPOINT,
    _PENCIL_1,
    _PENCIL_2,
    QuadricPoint,
    Section11,
    base_locus,
    evaluate_section,
    invariant_section_from_reals,
    is_fixed_point,
    is_invariant_section,
    pairs_projectively_equal,
    pencil_value,
    point,
    real_structure,
    section,
    section_involution,
)

ONE = GaussianScalar.one()
I = GaussianScalar.i()


def random_point(rng) -> QuadricPoint:
    while True:
        coords = [
            GaussianScalar.of(
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            )
            for _ in range(4)
        ]
        try:
            return point(*coords)
        except ValueError:
            continue


def test_involution_on_coordinate_point():
    p = point(1, 0, 1, 0)
    image = real_structure(p)
    assert image.projectively_equal(point(0, 1, 0, 1))


def test_involution_is_projectively_involutive():
    rng = random.Random(13)
    for _ in range(100):
        p = random_point(rng)
        assert real_structure(real_structure(p)).projectively_equal(p)


def test_involution_swaps_base_points():
    p = point(1, I, 1, I)
    image = real_structure(p)
    assert image.projectively_equal(point(1, -I, 1, -I))


def test_no_fixed_points_on_grid():
    values = [
        GaussianScalar.zero(),
        ONE,
        -ONE,
        I,
        GaussianScalar.of(1, 1),
    ]
    count = 0
    for z0, z1, w0, w1 in itertools.product(values, repeat=4):
        try:
            p = point(z0, z1, w0, w1)
        except ValueError:
            continue
        count += 1
        assert not is_fixed_point(p)
    assert count == 24 * 24  # nonzero projective pairs squared


def test_no_fixed_points_random():
    rng = random.Random(17)
    for _ in range(1000):
        assert not is_fixed_point(random_point(rng))


def test_section_involution_on_basis():
    assert section_involution(section(1, 0, 0, 0)) == section(0, 0, 0, 1)
    assert section_involution(section(0, 1, 0, 0)) == section(0, 0, -1, 0)
    assert section_involution(section(0, 0, 1, 0)) == section(0, -1, 0, 0)
    assert section_involution(section(0, 0, 0, 1)) == section(1, 0, 0, 0)


def test_section_involution_squares_to_identity():
    rng = random.Random(19)
    for _ in range(100):
        s = Section11(
            *(GaussianScalar.of(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(4))
        )
        assert section_involution(section_involution(s)) == s


def test_section_involution_is_antilinear():
    rng = random.Random(29)
    for _ in range(50):
        factor = GaussianScalar.of(rng.randint(-4, 4), rng.randint(-4, 4))
        s = Section11(
            *(GaussianScalar.of(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(4))
        )
        assert section_involution(s.scale(factor)) == section_involution(s).scale(
            factor.conjugate()
        )


def test_invariance_predicate():
    assert is_invariant_section(section(0, 1, -1, 0))  # the second pencil generator
    assert is_invariant_section(section(1, 0, 0, 1))   # the first pencil generator
    assert not is_invariant_section(section(1, 0, 0, 0))
    assert is_invariant_section(section(0, 0, 0, 0))


GAUSSIAN_INTEGERS = st.builds(GaussianScalar.of, st.integers(-6, 6), st.integers(-6, 6))


@given(GAUSSIAN_INTEGERS, GAUSSIAN_INTEGERS, GAUSSIAN_INTEGERS, GAUSSIAN_INTEGERS, st.booleans(), st.booleans())
def test_invariance_is_the_closed_form_condition(a, b, c, d, conjugate_a, conjugate_b):
    # d = conj(a) and c = -conj(b), read off the coefficients rather than through the involution;
    # each condition is forced or left to chance, so all four cases are drawn
    d = a.conjugate() if conjugate_a else d
    c = -b.conjugate() if conjugate_b else c
    assert is_invariant_section(Section11(a, b, c, d)) == (d == a.conjugate() and c == -b.conjugate())


def test_fixed_space_embedding_examples():
    assert invariant_section_from_reals(1, 0, 0, 0) == _PENCIL_1
    assert invariant_section_from_reals(0, 0, 1, 0) == _PENCIL_2
    assert invariant_section_from_reals(0, 1, 0, 0) == Section11(I, GaussianScalar.zero(), GaussianScalar.zero(), -I)
    with pytest.raises(ValueError):
        invariant_section_from_reals(0, 0, 0, 0)


def test_fixed_space_has_rational_dimension_four():
    basis = [
        invariant_section_from_reals(*params)
        for params in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    ]
    # linear independence over the rationals: stack real and imaginary parts
    rows = [
        [x for c in s.coefficients() for x in (c.re, c.im)]
        for s in basis
    ]
    rank = _rational_rank(rows)
    assert rank == 4
    # spanning: a general invariant section decomposes through its a, b parts
    rng = random.Random(37)
    for _ in range(50):
        a = GaussianScalar.of(
            Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
        )
        b = GaussianScalar.of(
            Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
        )
        s = Section11(a, b, -b.conjugate(), a.conjugate())
        assert is_invariant_section(s)
        rebuilt = (
            basis[0].scale(GaussianScalar.of(a.re))
            + basis[1].scale(GaussianScalar.of(a.im))
            + basis[2].scale(GaussianScalar.of(b.re))
            + basis[3].scale(GaussianScalar.of(b.im))
        )
        assert rebuilt == s


def _rational_rank(rows):
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(mat[0])
    for c in range(cols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        mat[rank] = [x / mat[rank][c] for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def test_evaluation_examples():
    base_point = point(1, I, 1, I)
    assert evaluate_section(_PENCIL_1, base_point).is_zero()
    assert evaluate_section(_PENCIL_2, base_point).is_zero()
    assert evaluate_section(_PENCIL_1, point(1, 0, 1, 0)) == ONE


def test_invariant_sections_have_stable_zero_sets():
    rng = random.Random(43)
    for _ in range(50):
        s = Section11(
            *(GaussianScalar.of(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4))
        )
        s = s + section_involution(s)  # symmetrize into an invariant section
        if not is_invariant_section(s):
            continue
        p = random_point(rng)
        assert evaluate_section(s, p).is_zero() == evaluate_section(
            s, real_structure(p)
        ).is_zero()


def test_pencil_values():
    assert pencil_value(point(1, I, 1, I)) is BASEPOINT
    value = pencil_value(point(1, 0, 0, 1))
    assert value is not BASEPOINT
    assert pairs_projectively_equal(value, (GaussianScalar.zero(), ONE))


def test_pencil_equivariance():
    rng = random.Random(47)
    checked = 0
    while checked < 100:
        p = random_point(rng)
        value = pencil_value(p)
        image = pencil_value(real_structure(p))
        if value is BASEPOINT or image is BASEPOINT:
            continue
        checked += 1
        conjugated = (value[0].conjugate(), value[1].conjugate())
        assert pairs_projectively_equal(image, conjugated)


def test_base_locus():
    locus = base_locus()
    assert len(locus) == 2
    for p in locus:
        assert evaluate_section(_PENCIL_1, p).is_zero()
        assert evaluate_section(_PENCIL_2, p).is_zero()
    assert real_structure(locus[0]).projectively_equal(locus[1])
    assert real_structure(locus[1]).projectively_equal(locus[0])
    assert not locus[0].projectively_equal(locus[1])


def test_point_validation_and_json():
    with pytest.raises(ValueError):
        point(0, 0, 1, 0)
    # exact [numerator, denominator] string pairs, real part then imaginary part
    assert point(1, I, Fraction(1, 2), -1).to_json() == [
        [[["1", "1"], ["0", "1"]], [["0", "1"], ["1", "1"]]],
        [[["1", "2"], ["0", "1"]], [["-1", "1"], ["0", "1"]]],
    ]
    assert section(1, I, 0, Fraction(2, 3)).to_json() == [
        [["1", "1"], ["0", "1"]],
        [["0", "1"], ["1", "1"]],
        [["0", "1"], ["0", "1"]],
        [["2", "3"], ["0", "1"]],
    ]
