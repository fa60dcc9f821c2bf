"""The quadric's ring, the ruling swap, genus, and line-bundle cohomology."""

import random

import pytest

from twistor_pushout.quadric import (
    Bidegree,
    QuadricClass,
    arithmetic_genus,
    canonical_class,
    class_b,
    class_w,
    class_z,
    hyperplane_class,
    intersection_number,
    line_bundle_cohomology,
    quadric_ring,
    ruling_swap_pushforward,
)
from twistor_pushout.rings import DegreeError


def test_defining_relations():
    b, w = class_b(), class_w()
    pt = QuadricClass.point()
    assert (b * b).is_zero()
    assert (w * w).is_zero()
    assert b * w == pt
    z = class_z()
    assert (z * z + 2 * (z * w)).is_zero()
    assert hyperplane_class() == b + w
    assert hyperplane_class() == z + 2 * w


def test_products_in_zw_presentation():
    z, w = class_z(), class_w()
    assert z * z == -2 * QuadricClass.point()  # z^2 = -2 zw with zw = pt
    assert (z + 2 * w) * (z + 2 * w) == 2 * QuadricClass.point()


def test_ruling_swap_values():
    assert ruling_swap_pushforward(class_w()) == class_b()
    assert ruling_swap_pushforward(class_b()) == class_w()
    assert ruling_swap_pushforward(class_z()) == -class_z()
    xi = hyperplane_class()
    assert ruling_swap_pushforward(xi) == xi
    assert ruling_swap_pushforward(QuadricClass.point()) == QuadricClass.point()


def test_ruling_swap_is_involutive_and_multiplicative():
    rng = random.Random(5)
    for _ in range(50):
        x = QuadricClass.from_bw(rng.randint(-4, 4), rng.randint(-4, 4))
        y = QuadricClass.from_bw(rng.randint(-4, 4), rng.randint(-4, 4))
        assert ruling_swap_pushforward(ruling_swap_pushforward(x)) == x
        assert ruling_swap_pushforward(x * y) == ruling_swap_pushforward(
            x
        ) * ruling_swap_pushforward(y)


def test_intersection_numbers():
    b, w = class_b(), class_w()
    d = 4
    assert intersection_number(QuadricClass.from_bw(d - 1, 1), b + w) == d
    assert intersection_number(b, b) == 0
    d = 7
    assert intersection_number(QuadricClass.from_bw(d - 1, 1), b) == 1
    # the pairing matrix in the (b, w) basis
    assert [
        [intersection_number(x, y) for y in (b, w)] for x in (b, w)
    ] == [[0, 1], [1, 0]]


def test_intersection_number_requires_degree_one():
    with pytest.raises(DegreeError):
        intersection_number(QuadricClass.point(), class_b())


def test_arithmetic_genus_closed_form():
    assert arithmetic_genus(Bidegree(3, 1)) == 0  # sections for any degree
    assert arithmetic_genus(Bidegree(1, 1)) == 0
    assert arithmetic_genus(Bidegree(3, 2)) == 2


def test_genus_agrees_with_adjunction_oracle():
    # p_a(D) = D.(D + K)/2 + 1, computed in the ring
    K = canonical_class()
    for m in range(11):
        for n in range(11):
            D = QuadricClass.from_bw(m, n)
            pairing = intersection_number(D, D + K)
            assert pairing % 2 == 0
            assert arithmetic_genus(Bidegree(m, n)) == pairing // 2 + 1


def test_canonical_class_values():
    K = canonical_class()
    assert K.coeffs_bw() == (-2, -2)
    assert K * K == 8 * QuadricClass.point()


def test_cohomology_basics():
    assert line_bundle_cohomology(0, 0) == (1, 0, 0)
    assert line_bundle_cohomology(-2, -2) == (0, 0, 1)
    for m in range(21):
        assert line_bundle_cohomology(m + 1, m + 1)[1] == 0


def test_cohomology_serre_duality_and_euler():
    for a in range(-6, 7):
        for b in range(-6, 7):
            h0, h1, h2 = line_bundle_cohomology(a, b)
            assert (h2, h1, h0) == line_bundle_cohomology(-a - 2, -b - 2)
            assert h0 - h1 + h2 == (a + 1) * (b + 1)


def test_quadric_ring_is_emittable():
    doc = quadric_ring().to_json_dict()
    assert doc["top_degree"] == 2
    assert doc["basis"][1] == ["b", "w"]
