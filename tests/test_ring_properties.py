"""Construction-time ring checks against element-level oracles, on random rings.

The random rings are monomial quotients: the monomials of degree at most the
top degree in a few degree-1 generators, less a random monomial ideal, with
the product of two surviving monomials their product if it survives and zero
otherwise.  Such a ring is associative and commutative by construction.  Each
is written in a random unimodular change of its degree-1 and degree-2 bases,
so its table is dense.

The checks must accept these rings and the basis change, which is a ring
isomorphism from the monomial presentation.  After one table entry or one
matrix entry is perturbed they must report the same first failing triple or
pair as an oracle that walks the documented order with ``RingElement``
arithmetic, or accept exactly when the oracle finds no failure; so must the
associativity check of a built ring whose unit row was then tampered with.  Written out
with ``to_json_dict`` and read back by the scenario decoder, each ring is
the same ring again; listing some of its zero products explicitly gives the
same ring, hash and document.
"""

from __future__ import annotations

import json
from itertools import combinations_with_replacement

from hypothesis import given, settings
from hypothesis import strategies as st

from twistor_pushout.quadric import QuadricClass, quadric_ring
from twistor_pushout.rings import GradedMap, GradedRing
from twistor_pushout.scenario import ring_from_dict

SETTINGS = settings(max_examples=60, deadline=None)


class _UncheckedRing(GradedRing):
    """A ring whose table is taken as given, for the oracle's own arithmetic."""

    def _check_associativity(self) -> None:
        pass


def _monomials(n: int, degree: int) -> list[tuple[int, ...]]:
    out = []
    for combo in combinations_with_replacement(range(n), degree):
        out.append(tuple(combo.count(k) for k in range(n)))
    return out


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


@st.composite
def _unimodular(draw, n: int):
    """A random unimodular n x n matrix and its inverse, by elementary row operations."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    if n < 2:
        return a, inv
    steps = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2)),
            max_size=3 * n,
        )
    )
    for i, j, c in steps:
        if i == j or not c:
            continue
        # A <- (I + c e_i e_j^T) A and A^-1 <- A^-1 (I - c e_i e_j^T)
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        for row in inv:
            row[j] -= c * row[i]
    return a, inv


@st.composite
def monomial_rings(draw):
    """(top, labels, standard products, dense products, basis changes by degree)."""
    n = draw(st.integers(1, 3))
    top = draw(st.integers(2, 4))
    surviving = [[(0,) * n], _monomials(n, 1)]
    killed = []
    for d in range(2, top + 1):
        kept = []
        for mono in _monomials(n, d):
            if any(_divides(k, mono) for k in killed) or draw(st.booleans()) and draw(st.booleans()):
                killed.append(mono)
            else:
                kept.append(mono)
        surviving.append(kept)
    index = [{mono: k for k, mono in enumerate(monos)} for monos in surviving]
    labels = [["1"]] + [[f"e{d}_{k}" for k in range(len(surviving[d]))] for d in range(1, top + 1)]
    change = {d: _unit(len(surviving[d])) for d in range(top + 1)}
    for d in (1, 2):
        change[d] = draw(_unimodular(len(surviving[d])))
    standard, dense = {}, {}
    for d1 in range(1, top + 1):
        for d2 in range(d1, top + 1 - d1):
            r12 = len(surviving[d1 + d2])
            for i1, m1 in enumerate(surviving[d1]):
                for i2, m2 in enumerate(surviving[d2]):
                    out = [0] * r12
                    k = index[d1 + d2].get(tuple(x + y for x, y in zip(m1, m2)))
                    if k is not None:
                        out[k] = 1
                    standard[(d1, i1, d2, i2)] = tuple(out)
            a1, _ = change[d1]
            a2, _ = change[d2]
            _, inv12 = change[d1 + d2]
            for i1 in range(len(surviving[d1])):
                for i2 in range(i1 if d1 == d2 else 0, len(surviving[d2])):
                    old = [0] * r12
                    for p, x in enumerate(a1[i1]):
                        for q, y in enumerate(a2[i2]):
                            if x and y:
                                for r, e in enumerate(standard[(d1, p, d2, q)]):
                                    old[r] += x * y * e
                    new = [sum(old[r] * inv12[r][s] for r in range(r12)) for s in range(r12)]
                    dense[(d1, i1, d2, i2)] = tuple(new)
    return top, labels, standard, dense, change


def _unit(n: int):
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    return eye, [row[:] for row in eye]


def _isomorphism_matrices(change, top):
    """Matrices of the identity map from the monomial basis to the dense basis."""
    # e_j = sum_s inv[j][s] f_s, so column j holds row j of the inverse
    return {d: [list(col) for col in zip(*change[d][1])] for d in range(top + 1)}


def _associativity_oracle(ring: GradedRing) -> str | None:
    top = ring.top_degree
    for d1 in range(top + 1):
        for d2 in range(top + 1 - d1):
            for d3 in range(top + 1 - d1 - d2):
                for i1 in range(ring.rank(d1)):
                    for i2 in range(ring.rank(d2)):
                        for i3 in range(ring.rank(d3)):
                            x = ring.basis_element(d1, i1)
                            y = ring.basis_element(d2, i2)
                            z = ring.basis_element(d3, i3)
                            if (x * y) * z != x * (y * z):
                                labels = ring.basis_labels
                                return (
                                    f"associativity fails on ({labels[d1][i1]}, "
                                    f"{labels[d2][i2]}, {labels[d3][i3]})"
                                )
    return None


def _ring_hom_oracle(f: GradedMap) -> str | None:
    source = f.source
    for d1 in range(source.top_degree + 1):
        for i1 in range(source.rank(d1)):
            x = source.basis_element(d1, i1)
            for d2 in range(d1, source.top_degree + 1):
                for i2 in range(source.rank(d2)):
                    y = source.basis_element(d2, i2)
                    if f.apply(x * y) != f.apply(x) * f.apply(y):
                        labels = source.basis_labels
                        return f"multiplicativity fails on ({labels[d1][i1]}, {labels[d2][i2]})"
    return None


def _error(build) -> str | None:
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


@SETTINGS
@given(monomial_rings(), st.data())
def test_associativity_check_agrees_with_element_oracle(ring_data, data):
    top, labels, standard, dense, _ = ring_data
    GradedRing(top, labels, standard)
    GradedRing(top, labels, dense)
    keys = [key for key, out in sorted(dense.items()) if out]
    if not keys:
        return
    key = data.draw(st.sampled_from(keys))
    k = data.draw(st.integers(0, len(dense[key]) - 1))
    delta = data.draw(st.sampled_from((-2, -1, 1, 3)))
    perturbed = dict(dense)
    perturbed[key] = tuple(v + delta * (j == k) for j, v in enumerate(dense[key]))
    expected = _associativity_oracle(_UncheckedRing(top, labels, perturbed))
    assert _error(lambda: GradedRing(top, labels, perturbed)) == expected


@SETTINGS
@given(monomial_rings(), st.data())
def test_unit_blocks_agree_with_element_oracle_on_a_tampered_unit_row(ring_data, data):
    # The constructor refuses a unit row that is not a unit vector, so the
    # blocks with a degree-0 factor are made to fail by tampering with a built ring.
    top, labels, _, dense, _ = ring_data
    ring = GradedRing(top, labels, dense)
    d = data.draw(st.sampled_from([d for d in range(top + 1) if ring.rank(d)]))
    i = data.draw(st.integers(0, ring.rank(d) - 1))
    k = data.draw(st.integers(0, ring.rank(d) - 1))
    delta = data.draw(st.sampled_from((-2, -1, 1, 3)))
    row = tuple(v + delta * (j == k) for j, v in enumerate(ring.table_entry(0, 0, d, i)))
    for (d1, d2), (i1, i2) in (((0, d), (0, i)), ((d, 0), (i, 0))):
        rows = [list(r) for r in ring._products[d1, d2]]
        rows[i1][i2] = row
        ring._products[d1, d2] = tuple(map(tuple, rows))
    assert _error(ring._check_associativity) == _associativity_oracle(ring)


@SETTINGS
@given(monomial_rings(), st.data())
def test_ring_hom_check_agrees_with_element_oracle(ring_data, data):
    top, labels, standard, dense, change = ring_data
    source = GradedRing(top, labels, standard)
    target = GradedRing(top, labels, dense)
    matrices = _isomorphism_matrices(change, top)
    GradedMap(source, target, 0, matrices, is_ring_hom=True)
    d = data.draw(st.sampled_from([d for d in (1, 2) if matrices[d]]))
    row = data.draw(st.integers(0, len(matrices[d]) - 1))
    col = data.draw(st.integers(0, len(matrices[d][row]) - 1))
    delta = data.draw(st.sampled_from((-1, 1, 2)))
    perturbed = {e: [list(r) for r in rows] for e, rows in matrices.items()}
    perturbed[d][row][col] += delta
    expected = _ring_hom_oracle(GradedMap(source, target, 0, perturbed))
    assert _error(lambda: GradedMap(source, target, 0, perturbed, is_ring_hom=True)) == expected


@SETTINGS
@given(monomial_rings(), st.data())
def test_ring_document_decodes_to_the_same_ring(ring_data, data):
    top, labels, _, dense, _ = ring_data
    rank = len(labels[top])
    functional = data.draw(st.none() | st.lists(st.integers(-3, 3), min_size=rank, max_size=rank))
    ring = GradedRing(top, labels, dense, degree_functional=functional, name=data.draw(st.text(max_size=6)))
    doc = json.loads(json.dumps(ring.to_json_dict()))
    again = ring_from_dict(doc)
    assert again == ring and again.name == ring.name
    assert again.to_json_dict() == doc


@SETTINGS
@given(monomial_rings(), st.data())
def test_explicit_zero_products_change_nothing(ring_data, data):
    top, labels, _, dense, _ = ring_data
    nonzero = {key: out for key, out in dense.items() if any(out)}
    zeros = sorted(set(dense) - set(nonzero))
    listed = data.draw(st.lists(st.sampled_from(zeros), unique=True)) if zeros else []
    padded = dict(nonzero)
    for d1, i1, d2, i2 in listed:  # a zero product may be listed in either order
        key = (d2, i2, d1, i1) if data.draw(st.booleans()) else (d1, i1, d2, i2)
        padded[key] = dense[d1, i1, d2, i2]
    bare, explicit = GradedRing(top, labels, nonzero), GradedRing(top, labels, padded)
    assert explicit == bare and hash(explicit) == hash(bare)
    assert explicit.to_json_dict() == bare.to_json_dict()


QUADRIC_COEFFS = st.lists(st.integers(-1, 1), min_size=4, max_size=4)  # of 1, b, w, pt


@SETTINGS
@given(QUADRIC_COEFFS, QUADRIC_COEFFS)
def test_quadric_class_equality_is_coefficient_equality(first, second):
    x, y = (
        QuadricClass(quadric_ring().element({0: c[:1], 1: c[1:3], 2: c[3:]}))
        for c in (first, second)
    )
    assert (x == y) == (first == second)
    assert x != y or hash(x) == hash(y)
