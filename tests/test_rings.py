"""Table-presented graded rings, their maps, and the twistor base JSON document."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import twistor_pushout
from twistor_pushout import intlin
from twistor_pushout.intlin import kernel_lattice, lattice_membership
from twistor_pushout.pushout import projective_space_base
from twistor_pushout.quadric import quadric_ring, ruling_swap_map
from twistor_pushout.rings import DegreeError, GradedMap, GradedRing, RingMismatchError
from twistor_pushout.scenario import twistor_base_from_dict


@pytest.fixture
def quad():
    return quadric_ring()


def test_addition_and_unit(quad):
    b = quad.basis_element(1, 0)
    w = quad.basis_element(1, 1)
    xi = b + w
    assert xi.degree_part(1) == (1, 1)
    assert (b + quad.zero()) == b
    assert (b + (-b)).is_zero()
    assert quad.one() * xi == xi


def test_scalar_multiples_and_powers(quad):
    b = quad.basis_element(1, 0)
    w = quad.basis_element(1, 1)
    assert 3 * b - b == 2 * b
    assert (b + w) ** 2 == 2 * quad.basis_element(2, 0)


def test_ring_mismatch_raises(quad):
    other = quadric_ring()
    assert quad == other  # value semantics: equal data means equal ring
    p3 = projective_space_base().ring
    with pytest.raises(RingMismatchError):
        quad.basis_element(1, 0) + p3.basis_element(1, 0)
    with pytest.raises(RingMismatchError):
        quad.basis_element(1, 0) * p3.basis_element(1, 0)


def test_construction_rejects_broken_associativity():
    # A unit row that doubles t is refused while the table is built, before
    # any associativity triple is checked.
    with pytest.raises(ValueError, match=re.escape("unit does not act as identity on (0, 0, 1, 0)")):
        GradedRing(
            top_degree=1,
            basis_labels=[["1"], ["t"]],
            products={(0, 0, 1, 0): (2,)},
        )


def test_construction_rejects_a_unit_square_other_than_the_unit():
    with pytest.raises(ValueError, match=re.escape("unit does not act as identity on (0, 0, 0, 0)")):
        GradedRing(top_degree=0, basis_labels=[["1"]], products={(0, 0, 0, 0): (2,)})


def test_construction_rejects_non_associative_table():
    # Symmetric, with a correct unit, but (a.a).b = p.b = q while a.(a.b) = 0.
    with pytest.raises(ValueError, match=re.escape("associativity fails on (a, a, b)")):
        GradedRing(
            top_degree=3,
            basis_labels=[["1"], ["a", "b"], ["p"], ["q"]],
            products={
                (1, 0, 1, 0): (1,),  # a.a = p
                (1, 0, 1, 1): (0,),  # a.b = 0
                (1, 1, 1, 1): (0,),  # b.b = 0
                (1, 0, 2, 0): (1,),  # a.p = q
                (1, 1, 2, 0): (1,),  # b.p = q
            },
        )


def test_associativity_failure_is_the_first_ordered_triple_over_every_multiset():
    # The multiset {a0, a1, a2} is checked first and fails only when a1 is
    # outside: (a0.a2).a1 = q but (a0.a1).a2 = (a1.a2).a0 = 0, so its least
    # failing ordering is (a0, a2, a1).  {a0, a1, a3} fails when a0 is outside,
    # at (a0, a1, a3), which comes first in the order i1, i2, i3.
    with pytest.raises(ValueError, match=re.escape("associativity fails on (a0, a1, a3)")):
        GradedRing(
            top_degree=3,
            basis_labels=[["1"], ["a0", "a1", "a2", "a3"], ["p0", "p1"], ["q"]],
            products={
                (1, 0, 1, 2): (1, 0),  # a0.a2 = p0
                (1, 1, 1, 3): (0, 1),  # a1.a3 = p1
                (1, 3, 1, 3): (1, 1),  # a3.a3 = p0 + p1
                (1, 0, 2, 1): (1,),  # a0.p1 = q
                (1, 1, 2, 0): (1,),  # a1.p0 = q
            },
        )


def test_construction_rejects_nonsymmetric_table():
    with pytest.raises(ValueError):
        GradedRing(
            top_degree=2,
            basis_labels=[["1"], ["a", "b"], ["p"]],
            products={(1, 0, 1, 1): (1,), (1, 1, 1, 0): (2,)},
        )


NOT_INTEGERS = pytest.mark.parametrize("entry", [2.7, 1.9, "5", True])


@NOT_INTEGERS
def test_a_product_entry_that_is_not_an_integer_is_refused(entry):
    # int() would truncate 1.9 to 1, parse "5" and read True as 1; the table must stay exact.
    with pytest.raises(ValueError, match=re.escape("product (1, 0, 1, 0): expected a sequence of integers")):
        GradedRing(top_degree=2, basis_labels=[["1"], ["t"], ["p"]], products={(1, 0, 1, 0): (entry,)})


@NOT_INTEGERS
def test_an_element_coefficient_that_is_not_an_integer_is_refused(quad, entry):
    with pytest.raises(ValueError, match=re.escape("degree 1: expected a sequence of integers")):
        quad.homogeneous(1, [entry, 0])


@NOT_INTEGERS
def test_a_map_matrix_entry_that_is_not_an_integer_is_refused(quad, entry):
    with pytest.raises(ValueError, match=re.escape("matrix[1] row: expected a sequence of integers")):
        GradedMap(quad, quad, 0, {1: [[1, 0], [0, entry]]})


def test_degree_functional(quad):
    pt = quad.basis_element(2, 0)
    assert quad.zero_cycle_degree(3 * pt) == 3
    bare = GradedRing(1, [["1"], ["t"]], {})
    with pytest.raises(ValueError):
        bare.zero_cycle_degree(bare.one())


def test_twistor_base_json_round_trip():
    base = projective_space_base()
    doc = base.to_json_dict()
    again = twistor_base_from_dict(doc)
    assert again.ring == base.ring
    assert again.line_class == base.line_class
    assert again.twistor_degrees == base.twistor_degrees
    assert again.point_class == base.point_class


def test_map_apply_identity_and_zero(quad):
    identity = GradedMap(
        quad, quad, 0, {0: [[1]], 1: [[1, 0], [0, 1]], 2: [[1]]}, is_ring_hom=True
    )
    b = quad.basis_element(1, 0)
    assert identity.apply(b) == b
    zero = GradedMap(quad, quad, 0, {})
    assert zero.apply(b).is_zero()


def test_map_apply_ruling_swap(quad):
    swap = ruling_swap_map(quad)
    b = quad.basis_element(1, 0)
    w = quad.basis_element(1, 1)
    assert swap.apply(w) == b
    assert swap.apply(b) == w
    assert swap.apply(quad.basis_element(2, 0)) == quad.basis_element(2, 0)


def test_ring_hom_validation_catches_bad_map(quad):
    # b -> b, w -> b + w: F(w.w) = 0 but F(w).F(w) = 2 pt
    with pytest.raises(ValueError, match=re.escape("multiplicativity fails on (w, w)")):
        GradedMap(quad, quad, 0, {0: [[1]], 1: [[1, 1], [0, 1]], 2: [[1]]}, is_ring_hom=True)
    with pytest.raises(ValueError, match="must preserve the unit"):
        GradedMap(quad, quad, 0, {0: [[2]], 1: [[1, 0], [0, 1]], 2: [[1]]}, is_ring_hom=True)
    with pytest.raises(ValueError):
        # shifted maps cannot be ring homomorphisms
        GradedMap(quad, quad, 1, {}, is_ring_hom=True)


def test_map_rejects_wrong_shape(quad):
    with pytest.raises(ValueError):
        GradedMap(quad, quad, 0, {1: [[1, 0]]})  # needs two rows in degree 1
    with pytest.raises(ValueError, match=re.escape("matrix for out-of-range source degree 3")):
        GradedMap(quad, quad, 0, {3: []})
    with pytest.raises(ValueError, match=re.escape("matrix for out-of-range source degree -1")):
        GradedMap(quad, quad, 0, {-1: []})
    with pytest.raises(ValueError, match=re.escape("nonzero matrix into missing target degree 3")):
        GradedMap(quad, quad, 1, {2: [[1]]})
    # every given row is read as a source vector, into a missing degree too
    with pytest.raises(ValueError, match=re.escape("matrix[2] row: expected length 1, got 2")):
        GradedMap(quad, quad, 1, {2: [[0], [0, 0]]})
    with pytest.raises(ValueError, match=re.escape("matrix[2] row: expected a sequence of integers")):
        GradedMap(quad, quad, 1, {2: [[0.0]]})
    # an all-zero matrix into a missing degree is accepted and stored as the zero group
    drop = GradedMap(quad, quad, 1, {2: [[0]]})
    assert drop.matrix(2) == ()
    assert drop.columns(2) == ((),)
    assert drop.apply(quad.basis_element(2, 0)).is_zero()


@given(st.sampled_from([0, 1, 2]), st.data())
def test_every_source_degree_stores_one_matrix(shift, data):
    # the property holds for any subset of given degrees: omitted ones are zero
    quad = quadric_ring()
    given_degrees = data.draw(st.sets(st.integers(0, 2)))
    rows = {d: st.lists(st.integers(-5, 5), min_size=quad.rank(d), max_size=quad.rank(d)) for d in range(3)}
    matrices = {d: [data.draw(rows[d]) for _ in range(quad.rank(d + shift))] for d in given_degrees}
    f = GradedMap(quad, quad, shift, matrices)
    for d in range(5):
        matrix = f.matrix(d)
        assert len(matrix) == quad.rank(d + shift)
        assert all(len(row) == quad.rank(d) for row in matrix)
        if d > quad.top_degree:
            continue
        expected = matrices.get(d, [[0] * quad.rank(d)] * quad.rank(d + shift))
        assert matrix == tuple(map(tuple, expected))
        columns = f.columns(d)
        assert len(columns) == quad.rank(d)
        assert all(column == tuple(row[i] for row in matrix) for i, column in enumerate(columns))
        for i, column in enumerate(columns):
            image = f.apply(quad.basis_element(d, i))
            if column:
                assert image == quad.homogeneous(d + shift, column)
            else:
                assert image.is_zero()


def test_map_out_of_range_degrees_drop(quad):
    shift = GradedMap(quad, quad, 1, {0: [[0], [0]], 1: [[1, 1]]})
    # degree-2 input has nowhere to go; it maps into the zero group
    assert shift.apply(quad.basis_element(2, 0)).is_zero()
    assert shift.apply(quad.basis_element(1, 0)) == quad.basis_element(2, 0)


def test_kernel_lattice_of_sum_map(quad):
    # quadric degree 1 -> top via multiplication by nothing: use an explicit map
    to_z = GradedMap(quad, quad, 1, {1: [[1, 1]]})
    kernel = kernel_lattice(to_z, 1)
    assert kernel == [(1, -1)]
    assert kernel_lattice(to_z, 0) == [(1,)]  # zero matrix: everything
    with pytest.raises(DegreeError):
        kernel_lattice(to_z, 9)


def test_lattice_membership_wrapper():
    basis = [(1, -1, 0), (0, 2, 2)]
    assert lattice_membership(basis, (1, -1, 0))
    assert lattice_membership(basis, (0, 0, 0))
    assert lattice_membership(basis, (1, 1, 2))
    assert not lattice_membership(basis, (0, 1, 1))
    # the export is intlin's membership test itself, under the name the package exports
    assert lattice_membership is twistor_pushout.lattice_membership is intlin.lattice_contains


def test_element_string_rendering(quad):
    b = quad.basis_element(1, 0)
    w = quad.basis_element(1, 1)
    pt = quad.basis_element(2, 0)
    assert str(b - w + 2 * pt) == "b - w + 2*pt"
    assert str(quad.zero()) == "0"
    assert str(3 * quad.one()) == "3"
