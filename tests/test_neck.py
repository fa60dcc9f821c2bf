"""Fixed-phase circle bundle classes, lens tags, and exact phase algebra."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twistor_pushout.gaussian import GaussianScalar
from twistor_pushout.neck import (
    CircleBundleClass,
    antidiagonal_quotient_over_fibre,
    character_quotient,
    kn_fixed_phase_bundle,
    lens_space_of,
    neck_point,
    phase_decoration,
    phase_solve,
    raw_fibre_pairing,
    restrict_to_curve,
    restrict_to_ruling_fibre_bundle,
)
from twistor_pushout.quadric import (
    Bidegree,
    QuadricClass,
    class_b,
    class_z,
    intersection_number,
)
from twistor_pushout.scenario import scalar_from_dict


def test_fixed_phase_class():
    bundle = kn_fixed_phase_bundle()
    assert bundle.c1_class == class_z()
    assert bundle.c1_class.coeffs_bw() == (1, -1)
    assert intersection_number(bundle.c1_class, class_b()) == -1


def test_fibre_restriction_orientation():
    bundle = kn_fixed_phase_bundle()
    assert raw_fibre_pairing(bundle) == -1
    assert restrict_to_ruling_fibre_bundle(bundle).c1_int == 1
    trivial = CircleBundleClass(QuadricClass.zero())
    assert restrict_to_ruling_fibre_bundle(trivial).c1_int == 0
    doubled = CircleBundleClass(QuadricClass.from_bw(-2, -2))
    assert abs(restrict_to_ruling_fibre_bundle(doubled).c1_int) == 2


def test_curve_restriction_values():
    bundle = kn_fixed_phase_bundle()
    assert restrict_to_curve(bundle, Bidegree(0, 0)).c1_int == 0
    # with the normal class z = b - w the restriction to a curve of bidegree
    # (a, b) has degree b - a; see the adjunction oracle in test_pushout
    assert restrict_to_curve(bundle, Bidegree(1, 1)).c1_int == 0
    assert restrict_to_curve(bundle, Bidegree(3, 1)).c1_int == -2
    assert restrict_to_curve(bundle, Bidegree(0, 5)).c1_int == 5


def test_curve_restriction_is_the_ring_pairing():
    # closed form of the quadric's pairing, b.b = w.w = 0 and b.w = 1:
    # (m*b + n*w) . (a*b + c*w) = m*c + n*a, and against the fibre class b it is n
    rng = random.Random(3)
    for _ in range(50):
        m, n = rng.randint(-4, 4), rng.randint(-4, 4)
        a, c = rng.randint(-4, 4), rng.randint(-4, 4)
        bundle = CircleBundleClass(QuadricClass.from_bw(m, n))
        assert restrict_to_curve(bundle, Bidegree(a, c)).c1_int == m * c + n * a
        assert raw_fibre_pairing(bundle) == n


def test_character_quotient_values():
    assert character_quotient((1, 1), (1, 1)) == 2
    assert character_quotient((1, 1), (1, -1)) == 0
    assert character_quotient((5, 7), (0, 1)) == 7


def test_character_quotient_bilinearity():
    rng = random.Random(9)
    for _ in range(40):
        v1 = (rng.randint(-5, 5), rng.randint(-5, 5))
        v2 = (rng.randint(-5, 5), rng.randint(-5, 5))
        chi = (rng.randint(-5, 5), rng.randint(-5, 5))
        total = (v1[0] + v2[0], v1[1] + v2[1])
        assert character_quotient(total, chi) == character_quotient(
            v1, chi
        ) + character_quotient(v2, chi)
        doubled = (2 * chi[0], 2 * chi[1])
        assert character_quotient(v1, doubled) == 2 * character_quotient(v1, chi)


def test_lens_space_tags():
    assert lens_space_of(0) == "S2xS1"
    assert lens_space_of(1) == "S3"
    assert lens_space_of(-1) == "S3"
    assert lens_space_of(2) == "RP3"
    assert lens_space_of(-2) == "RP3"
    assert lens_space_of(5) == "L(5,1)"


def test_antidiagonal_quotient():
    assert antidiagonal_quotient_over_fibre() == "RP3"
    assert antidiagonal_quotient_over_fibre(character=(1, -1)) == "S2xS1"
    assert lens_space_of(character_quotient((1, 1), (2, 0))) == "RP3"


def test_phase_solve_examples():
    one = GaussianScalar.one()
    i = GaussianScalar.i()
    assert phase_solve(one, one).rho1 == one
    assert phase_solve(i, one).rho1 == i
    theta = GaussianScalar(Fraction(3, 5), Fraction(4, 5))
    rho2 = GaussianScalar(Fraction(4, 5), Fraction(3, 5))
    pair = phase_solve(theta, rho2)
    assert pair.rho1 == GaussianScalar(Fraction(24, 25), Fraction(7, 25))
    assert pair.rho1.is_unit()


def test_phase_solve_rejects_non_units():
    with pytest.raises(ValueError):
        phase_solve(GaussianScalar.of(2), GaussianScalar.one())
    with pytest.raises(ValueError):
        phase_solve(GaussianScalar.one(), GaussianScalar.of(Fraction(1, 2)))


def test_phase_invariant_over_random_units():
    rng = random.Random(41)
    for _ in range(1000):
        theta = GaussianScalar.random_unit(rng)
        rho2 = GaussianScalar.random_unit(rng)
        pair = phase_solve(theta, rho2)
        assert pair.rho1 * pair.rho2 == theta
        assert pair.rho1.is_unit() and pair.rho2.is_unit()


def test_neck_point_examples():
    one = GaussianScalar.one()
    i = GaussianScalar.i()
    u, v = neck_point(0, i, one)
    assert u.modulus_sq == 0 and v.modulus_sq == 0
    assert u.phase == i and v.phase == one  # phases survive the limit
    u, v = neck_point(1, one, one)
    assert (u.modulus_sq, u.phase) == (1, one)
    assert (v.modulus_sq, v.phase) == (1, one)
    eta = GaussianScalar(Fraction(4, 5), Fraction(3, 5))
    u, v = neck_point(Fraction(1, 4), i, eta)
    assert u.phase == GaussianScalar(Fraction(3, 5), Fraction(4, 5))
    assert u.phase * v.phase == i
    assert u.modulus_sq == v.modulus_sq == Fraction(1, 4)


def test_neck_point_phases_independent_of_modulus():
    rng = random.Random(59)
    for _ in range(100):
        theta = GaussianScalar.random_unit(rng)
        eta = GaussianScalar.random_unit(rng)
        rho = Fraction(rng.randint(0, 20), rng.randint(1, 20))
        rho_prime = Fraction(rng.randint(0, 20), rng.randint(1, 20))
        u1, v1 = neck_point(rho, theta, eta)
        u2, v2 = neck_point(rho_prime, theta, eta)
        assert u1.phase == u2.phase and v1.phase == v2.phase


def test_neck_point_validation():
    with pytest.raises(ValueError):
        neck_point(-1, GaussianScalar.one(), GaussianScalar.one())
    with pytest.raises(ValueError):
        neck_point(1, GaussianScalar.of(3), GaussianScalar.one())


def test_phase_decoration():
    one = GaussianScalar.one()
    empty = phase_decoration([], one, [])
    assert empty.points == ()
    single = phase_decoration(["p"], one, [one])
    assert single.points[0][1].rho1 == one
    theta = GaussianScalar(Fraction(3, 5), Fraction(4, 5))
    eta2 = GaussianScalar(Fraction(4, 5), Fraction(3, 5))
    double = phase_decoration(["p", "q"], theta, [one, eta2])
    pairs = [pair for _, pair in double.points]
    assert pairs[0] != pairs[1]
    for pair in pairs:
        assert pair.rho1 * pair.rho2 == theta
    with pytest.raises(ValueError):
        phase_decoration(["p"], theta, [])


def test_decoration_serialization():
    theta = GaussianScalar(Fraction(3, 5), Fraction(4, 5))
    decoration = phase_decoration(["p1"], theta, [GaussianScalar.one()])
    doc = decoration.to_json_dict()
    assert doc["theta"] == {"re_num": 3, "re_den": 5, "im_num": 4, "im_den": 5}
    assert doc["points"][0]["id"] == "p1"
    assert scalar_from_dict(doc["points"][0]["rho1"]) == theta


def test_gaussian_scalar_arithmetic():
    a = GaussianScalar.of(Fraction(1, 2), 3)
    b = GaussianScalar.of(-2, Fraction(1, 3))
    assert (a + b) - b == a
    assert a * b == b * a
    assert (a / b) * b == a
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).im == 0
    with pytest.raises(ZeroDivisionError):
        a / GaussianScalar.zero()


def test_pythagorean_units_are_units():
    rng = random.Random(77)
    for _ in range(200):
        u = GaussianScalar.random_unit(rng)
        assert u.is_unit()
    assert GaussianScalar.unit_from_triple(2, 1) == GaussianScalar(
        Fraction(3, 5), Fraction(4, 5)
    )


# -- the integer case of GaussianScalar, against arithmetic done only in Fraction ----------

# integers, Fractions with denominator 1 (which must come out as ints) and proper fractions;
# a float or a bool part is refused (tests/test_values.py)
_PARTS = st.one_of(
    st.integers(-40, 40),
    st.integers(-40, 40).map(Fraction),
    st.fractions(min_value=-40, max_value=40, max_denominator=12),
)
_SCALARS = st.tuples(_PARTS, _PARTS)
_FACTORS = st.one_of(_PARTS, st.booleans())  # what `*` takes besides scalars


def _reference_str(re: Fraction, im: Fraction) -> str:
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    return f"{re} {'+' if im > 0 else '-'} {abs(im)}i"


def _assert_matches(z: GaussianScalar, re, im) -> None:
    """``z`` equals the reference (re, im) and stores each part in its canonical type."""
    re, im = Fraction(re), Fraction(im)
    for part, want in ((z.re, re), (z.im, im)):
        assert type(part) is (int if want.denominator == 1 else Fraction), (part, want)
        assert part == want
    assert z == GaussianScalar(re, im) and hash(z) == hash((re, im)) == hash((z.re, z.im))
    assert str(z) == _reference_str(re, im)
    assert z.to_json_dict() == {
        "re_num": re.numerator, "re_den": re.denominator,
        "im_num": im.numerator, "im_den": im.denominator,
    }
    assert all(type(v) is int for v in z.to_json_dict().values())
    assert z.to_string_pairs() == [
        [str(re.numerator), str(re.denominator)], [str(im.numerator), str(im.denominator)]
    ]


@settings(max_examples=300, deadline=None)
@given(_SCALARS, _SCALARS, _FACTORS)
def test_gaussian_integer_case_agrees_with_fraction_arithmetic(x, y, k):
    (a, b), (c, d) = (tuple(map(Fraction, v)) for v in (x, y))
    z, w = GaussianScalar(*x), GaussianScalar.of(*y)
    _assert_matches(z, a, b)
    _assert_matches(z + w, a + c, b + d)
    _assert_matches(z - w, a - c, b - d)
    _assert_matches(-z, -a, -b)
    _assert_matches(z * w, a * c - b * d, a * d + b * c)
    _assert_matches(z * k, a * k, b * k)
    _assert_matches(k * z, a * k, b * k)
    _assert_matches(z.conjugate(), a, -b)
    norm = a * a + b * b
    assert z.norm_sq() == norm and type(z.norm_sq()) is not bool
    assert z.is_unit() == (norm == 1)
    assert z.is_zero() == (norm == 0)
    assume(c or d)
    n = c * c + d * d
    _assert_matches(z / w, (a * c + b * d) / n, (b * c - a * d) / n)
    _assert_matches(GaussianScalar.one() / w, c / n, -d / n)

