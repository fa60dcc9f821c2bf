"""Specialization records, polynomial lifting, glued-bundle charge arithmetic."""

import random

import pytest

from twistor_pushout.charges import (
    CentralFibreCycle,
    GluedBundleData,
    branch_charge_degrees,
    formal_triviality_obstructions,
    glued_c2_cycle,
    obstruction_dim,
    polarized_charge,
    practical_lift,
    specialize,
    ward_gluing_space_dim,
)
from twistor_pushout.pushout import (
    ComponentPair,
    PushoutPair,
    blow_up,
    projective_space_base,
)
from twistor_pushout.quadric import line_bundle_cohomology


@pytest.fixture(scope="module")
def geometry():
    return PushoutPair(blow_up(projective_space_base()), blow_up(projective_space_base()))


@pytest.fixture(scope="module")
def matched_polarization(geometry):
    # (f.h, f.h - Q): restrictions b and w transport to each other under the swap
    return ComponentPair(
        geometry.branch1.ring.basis_element(1, 0),
        geometry.branch2.ring.basis_element(1, 0) - geometry.branch2.exceptional_class(),
    )


def random_matched_divisor(geometry, equalizer, rng) -> ComponentPair:
    pairs = equalizer.basis_pairs(1)
    first = geometry.branch1.ring.zero()
    second = geometry.branch2.ring.zero()
    for pair in pairs:
        c = rng.randint(-3, 3)
        first = first + c * pair.first
        second = second + c * pair.second
    return ComponentPair(first, second)


def test_specialize_flags(geometry):
    assert specialize(geometry, geometry.exceptional_pair()).matched
    zero = ComponentPair(geometry.branch1.ring.zero(), geometry.branch2.ring.zero())
    assert specialize(geometry, zero).matched
    hyperplanes = ComponentPair(
        geometry.branch1.ring.basis_element(1, 0),
        geometry.branch2.ring.basis_element(1, 0),
    )
    assert not specialize(geometry, hyperplanes).matched


def test_practical_lift_constant(geometry):
    result = practical_lift(geometry, {(): 1}, [])
    assert result.matched
    assert result.pair.first == geometry.branch1.ring.one()
    assert result.pair.second == geometry.branch2.ring.one()


def test_practical_lift_square_of_exceptional_pair(geometry):
    pair = geometry.exceptional_pair()
    result = practical_lift(geometry, {(2,): 1}, [pair])
    assert result.matched
    assert result.pair.first == pair.first * pair.first
    assert result.pair.second == pair.second * pair.second


def test_practical_lift_product_of_two_pairs(geometry, matched_polarization):
    result = practical_lift(
        geometry, {(1, 1): 1}, [geometry.exceptional_pair(), matched_polarization]
    )
    assert result.matched


def test_specialize_rejects_codimension_mismatch(geometry):
    from twistor_pushout.rings import DegreeError

    mismatched = ComponentPair(
        geometry.branch1.ring.basis_element(1, 0),
        geometry.branch2.ring.basis_element(2, 0),
    )
    with pytest.raises(DegreeError):
        specialize(geometry, mismatched)


def test_practical_lift_mixed_degree_polynomial(geometry):
    # P = t + t^2 on a matched pair can kill one branch's top component while
    # the other survives; the output still matches degree by degree
    b1, b2 = geometry.branch1, geometry.branch2
    u = ComponentPair(
        b1.exceptional_class() - b1.ring.basis_element(1, 0),
        -b2.ring.basis_element(1, 0),
    )
    assert geometry.is_matched(u)
    result = practical_lift(geometry, {(1,): 1, (2,): 1}, [u])
    assert result.matched
    assert result.pair.first.degree_part(2) != result.pair.second.degree_part(2)


def test_practical_lift_rejects_unmatched_input(geometry):
    unmatched = ComponentPair(
        geometry.branch1.ring.basis_element(1, 0),
        geometry.branch2.ring.basis_element(1, 0),
    )
    with pytest.raises(ValueError):
        practical_lift(geometry, {(1,): 1}, [unmatched])


def test_practical_lift_random_polynomials(geometry):
    rng = random.Random(97)
    equalizer = geometry.equalizer()
    for _ in range(60):
        nvars = rng.randint(1, 3)
        divisors = [random_matched_divisor(geometry, equalizer, rng) for _ in range(nvars)]
        poly = {}
        for _ in range(rng.randint(1, 4)):
            exponents = tuple(rng.randint(0, 3) for _ in range(nvars))
            if sum(exponents) > 3:
                continue
            poly[exponents] = rng.randint(-3, 3)
        if not poly:
            poly = {(0,) * nvars: 1}
        assert practical_lift(geometry, poly, divisors).matched


def test_glued_c2_cycle_passthrough(geometry, matched_polarization):
    b1 = geometry.branch1
    b2 = geometry.branch2
    curves = ComponentPair(b1.ring.basis_element(2, 0), b2.ring.basis_element(2, 0))
    bundle = GluedBundleData(
        geometry=geometry,
        rank=2,
        c1_pair=ComponentPair(b1.ring.zero(), b2.ring.zero()),
        c2_pair=curves,
        restriction_to_quadric_trivial=True,
        h2_end_dims=(0, 0),
    )
    cycle = glued_c2_cycle(bundle)
    assert isinstance(cycle, CentralFibreCycle)
    assert cycle.pair == curves
    zero_bundle = GluedBundleData(
        geometry=geometry,
        rank=2,
        c1_pair=ComponentPair(b1.ring.zero(), b2.ring.zero()),
        c2_pair=ComponentPair(b1.ring.zero(), b2.ring.zero()),
        restriction_to_quadric_trivial=True,
        h2_end_dims=(0, 0),
    )
    assert glued_c2_cycle(zero_bundle).pair.first.is_zero()


def test_trivial_restriction_requires_matched_chern_pairs(geometry):
    b1, b2 = geometry.branch1, geometry.branch2
    with pytest.raises(ValueError):
        GluedBundleData(
            geometry=geometry,
            rank=2,
            c1_pair=ComponentPair(b1.ring.zero(), b2.ring.zero()),
            c2_pair=ComponentPair(b1.pushed_fibre_class(), b2.ring.zero()),
            restriction_to_quadric_trivial=True,
            h2_end_dims=(0, 0),
        )


def _bundle(geometry, c2_first, c2_second, trivial=False, h2=(0, 0)):
    return GluedBundleData(
        geometry=geometry,
        rank=2,
        c1_pair=ComponentPair(geometry.branch1.ring.zero(), geometry.branch2.ring.zero()),
        c2_pair=ComponentPair(c2_first, c2_second),
        restriction_to_quadric_trivial=trivial,
        h2_end_dims=h2,
    )


@pytest.mark.parametrize("h2", [(), (0,), (0, 0, 0)])
def test_h2_end_needs_one_dimension_per_branch(geometry, h2):
    zero1, zero2 = geometry.branch1.ring.zero(), geometry.branch2.ring.zero()
    with pytest.raises(ValueError, match="h2_end needs one obstruction dimension per branch"):
        _bundle(geometry, zero1, zero2, trivial=True, h2=h2)


def test_worked_example_charge_is_one(geometry):
    # c2 = f.h2 + j.b on the first branch, zero bundle data on the second;
    # polarization f.h completed on the second branch to a matched pair
    b1, b2 = geometry.branch1, geometry.branch2
    bundle = _bundle(
        geometry, b1.ring.basis_element(2, 0) + b1.pushed_fibre_class(), b2.ring.zero()
    )
    polarization = ComponentPair(
        b1.ring.basis_element(1, 0),
        b2.ring.basis_element(1, 0) - b2.exceptional_class(),
    )
    assert geometry.is_matched(polarization)
    assert branch_charge_degrees(bundle, polarization) == (1, 0)
    assert polarized_charge(bundle, polarization) == 1


def test_charge_additivity(geometry, matched_polarization):
    b1, b2 = geometry.branch1, geometry.branch2
    bundle = _bundle(
        geometry, 3 * b1.ring.basis_element(2, 0), 5 * b2.ring.basis_element(2, 0)
    )
    degrees = branch_charge_degrees(bundle, matched_polarization)
    assert degrees == (3, 5)
    assert polarized_charge(bundle, matched_polarization) == 8


def test_zero_polarization(geometry):
    b1, b2 = geometry.branch1, geometry.branch2
    bundle = _bundle(geometry, b1.ring.basis_element(2, 0), b2.ring.basis_element(2, 0))
    zero = ComponentPair(b1.ring.zero(), b2.ring.zero())
    assert polarized_charge(bundle, zero) == 0


def test_charge_rejects_unmatched_polarization(geometry):
    b1, b2 = geometry.branch1, geometry.branch2
    bundle = _bundle(geometry, b1.ring.basis_element(2, 0), b2.ring.zero())
    unmatched = ComponentPair(b1.ring.basis_element(1, 0), b2.ring.basis_element(1, 0))
    with pytest.raises(ValueError):
        polarized_charge(bundle, unmatched)
    # the raw branch degrees remain available
    assert branch_charge_degrees(bundle, unmatched) == (1, 0)


def test_charge_invariant_under_null_pairings(geometry, matched_polarization):
    # j.b pairs to zero with f.h on the first branch; adding it changes nothing
    b1, b2 = geometry.branch1, geometry.branch2
    base = _bundle(geometry, b1.ring.basis_element(2, 0), b2.ring.basis_element(2, 0))
    shifted = _bundle(
        geometry,
        b1.ring.basis_element(2, 0) + b1.pushed_fibre_class(),
        b2.ring.basis_element(2, 0),
    )
    assert polarized_charge(base, matched_polarization) == polarized_charge(
        shifted, matched_polarization
    )


def test_obstruction_dims(geometry):
    b1, b2 = geometry.branch1, geometry.branch2
    zero_pair = ComponentPair(b1.ring.zero(), b2.ring.zero())
    for dims, expected in (((0, 0), 0), ((1, 0), 1), ((2, 3), 5)):
        bundle = GluedBundleData(
            geometry=geometry,
            rank=2,
            c1_pair=zero_pair,
            c2_pair=zero_pair,
            restriction_to_quadric_trivial=True,
            h2_end_dims=dims,
        )
        assert obstruction_dim(bundle) == expected
    loose = GluedBundleData(
        geometry=geometry,
        rank=2,
        c1_pair=zero_pair,
        c2_pair=zero_pair,
        restriction_to_quadric_trivial=False,
        h2_end_dims=(0, 0),
    )
    with pytest.raises(ValueError):
        obstruction_dim(loose)


def test_formal_triviality_obstructions():
    assert formal_triviality_obstructions(20, 2) == [0] * 21
    assert formal_triviality_obstructions(0, 1) == [0]
    for m in range(10):
        assert formal_triviality_obstructions(m, 3)[m] == 9 * line_bundle_cohomology(
            m + 1, m + 1
        )[1]
    with pytest.raises(ValueError):
        formal_triviality_obstructions(-1, 2)


def test_ward_gluing_space_dim():
    assert ward_gluing_space_dim(2) == 4
    assert ward_gluing_space_dim(1) == 1
    for r in range(1, 6):
        assert ward_gluing_space_dim(r) == r * r * line_bundle_cohomology(0, 0)[0]
