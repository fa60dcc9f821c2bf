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
associativity check of a built ring one of whose (1,1) or (1,2) entries was
then tampered with.  Identities with a degree-0 factor are proved by the table
builder alone and never sampled by the checks: a unit entry other than the
unit vector, given in either orientation, is refused at construction.
``multiplication`` must give the products that ``RingElement`` arithmetic
gives, for every degree pair.  Written out with ``to_json_dict`` and read back
by the scenario decoder, each ring is the same ring again; listing some of its
zero products explicitly gives the same ring, hash and document.

The branches of the rank-7 synthetic scenario, rewritten in the same way,
blow up with every check passing, and their equalizer is closed under
products and has the same ranks as before the rewrite.  A blown ring is
built as an extension of its base ring: every product of two pulled-back
classes of positive degree is the base's padded with zeros, and a given
product of two such classes that differs is refused as a conflicting table
entry.  The associativity check that ``blow_up`` runs, on the degree-1
multisets with Q, gives the full check's and the oracle's verdict on each
blown ring, also after one positive-degree entry with an exceptional factor
is tampered with.  The restriction of the p3, flag and rank-7 blow-ups to the
quadric, whose top degree is one less, is checked as the oracle finds after
one of its entries is perturbed.
"""

from __future__ import annotations

import json
from itertools import combinations_with_replacement
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twistor_pushout.pushout import (
    PushoutPair,
    TwistorChow,
    blow_up,
    flag_threefold_base,
    projective_space_base,
)
from twistor_pushout.quadric import QuadricClass, quadric_ring
from twistor_pushout.rings import GradedMap, GradedRing
from twistor_pushout.scenario import ring_from_dict, twistor_base_from_dict

SETTINGS = settings(max_examples=60, deadline=None)
SYNTHETIC_R7 = Path(__file__).resolve().parent / "data" / "synthetic_r7.json"


class _UncheckedRing(GradedRing):
    """A ring whose table is taken as given, for the oracle's own arithmetic."""

    def _check_associativity(self, base: GradedRing | None = None) -> None:
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
    standard = {}
    for d1 in range(1, top + 1):
        for d2 in range(d1, top + 1 - d1):
            for i1, m1 in enumerate(surviving[d1]):
                for i2, m2 in enumerate(surviving[d2]):
                    out = [0] * len(surviving[d1 + d2])
                    k = index[d1 + d2].get(tuple(x + y for x, y in zip(m1, m2)))
                    if k is not None:
                        out[k] = 1
                    standard[(d1, i1, d2, i2)] = tuple(out)
    dense = _rewritten_products(lambda *key: standard[key], [len(m) for m in surviving], change)
    return top, labels, standard, dense, change


def _unit(n: int):
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    return eye, [row[:] for row in eye]


def _rewritten_products(entry, ranks, change):
    """The products of positive degrees in the bases f_a = sum_p A[a][p] e_p.

    ``entry(d1, p, d2, q)`` is e_p . e_q in the old bases and ``change[d]`` is
    (A, A^-1) for degree d; each product is listed once, with (d1, i1) <= (d2, i2).
    """
    top = len(ranks) - 1
    products = {}
    for d1 in range(1, top + 1):
        for d2 in range(d1, top + 1 - d1):
            (a1, _), (a2, _), (_, inv12) = change[d1], change[d2], change[d1 + d2]
            r12 = ranks[d1 + d2]
            for i1 in range(ranks[d1]):
                for i2 in range(i1 if d1 == d2 else 0, ranks[d2]):
                    old = [0] * r12
                    for p, x in enumerate(a1[i1]):
                        for q, y in enumerate(a2[i2]):
                            if x and y:
                                for r, e in enumerate(entry(d1, p, d2, q)):
                                    old[r] += x * y * e
                    # e_r = sum_s A^-1[r][s] f_s
                    products[(d1, i1, d2, i2)] = tuple(
                        sum(old[r] * inv12[r][s] for r in range(r12)) for s in range(r12)
                    )
    return products


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


def _tamper(ring: GradedRing, data, d1: int, i1: int, d2: int, i2: int) -> None:
    """Change one coordinate of a built ring's entry (d1, i1) . (d2, i2), in both orientations."""
    k = data.draw(st.integers(0, ring.rank(d1 + d2) - 1))
    delta = data.draw(st.sampled_from((-2, -1, 1, 3)))
    entry = tuple(v + delta * (j == k) for j, v in enumerate(ring.table_entry(d1, i1, d2, i2)))
    for (e1, e2), (j1, j2) in (((d1, d2), (i1, i2)), ((d2, d1), (i2, i1))):
        rows = [list(r) for r in ring._products[e1, e2]]
        rows[j1][j2] = entry
        ring._products[e1, e2] = tuple(map(tuple, rows))


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
def test_packed_associativity_check_agrees_with_element_oracle_at_wide_entries(ring_data, data):
    # Scaling every product of positive degrees by c keeps the ring associative, as
    # (x*y)*z = c^2 (x.y).z.  In the monomial table each (x.y).z is then c^2 or 0, which is
    # exactly the bound the packed fields are sized from, so a field one byte too narrow
    # overflows; the dense table carries the same values in a unimodular change of basis.
    top, labels, standard, dense, _ = ring_data
    magnitude = data.draw(st.sampled_from((2**63, 2**64)) | st.integers(2**299, 2**400))
    c = data.draw(st.sampled_from((1, -1))) * magnitude
    standard, dense = ({key: tuple(c * v for v in out) for key, out in t.items()} for t in (standard, dense))
    for products in (standard, dense):
        assert _error(lambda: GradedRing(top, labels, products)) is None
        assert _associativity_oracle(_UncheckedRing(top, labels, products)) is None
    keys = [key for key, out in sorted(dense.items()) if out]
    if not keys:
        return
    key = data.draw(st.sampled_from(keys))
    k = data.draw(st.integers(0, len(dense[key]) - 1))
    delta = data.draw(st.sampled_from((-1, 1, c, -c, magnitude**2)))
    perturbed = dict(dense)
    perturbed[key] = tuple(v + delta * (j == k) for j, v in enumerate(dense[key]))
    expected = _associativity_oracle(_UncheckedRing(top, labels, perturbed))
    assert _error(lambda: GradedRing(top, labels, perturbed)) == expected


@SETTINGS
@given(monomial_rings(), st.data())
def test_construction_refuses_a_unit_entry_other_than_the_unit_vector(ring_data, data):
    # The table builder is the one check of the identities with a degree-0 factor:
    # a unit entry given in either orientation must be e_i, else it is refused.
    top, labels, _, dense, _ = ring_data
    d = data.draw(st.sampled_from([d for d in range(top + 1) if labels[d]]))
    n = len(labels[d])
    i = data.draw(st.integers(0, n - 1))
    e_i = [int(k == i) for k in range(n)]
    out = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(lambda v: v != e_i))
    key = (d, i, 0, 0) if data.draw(st.booleans()) else (0, 0, d, i)
    message = f"unit does not act as identity on {(0, 0, d, i)}"
    assert _error(lambda: GradedRing(top, labels, {**dense, key: out})) == message


@SETTINGS
@given(monomial_rings(), st.data())
def test_associativity_locator_agrees_with_element_oracle_on_a_tampered_entry(ring_data, data):
    # One (1,1) or (1,2) entry of a built ring is changed in both orientations,
    # so the table stays symmetric; the check must name the oracle's first triple.
    # Below top degree 3 no triple of positive degrees reads such an entry.
    top, labels, _, dense, _ = ring_data
    ring = GradedRing(top, labels, dense)
    blocks = [(1, d2) for d2 in (1, 2) if ring.rank(1) and ring.rank(d2) and ring.rank(1 + d2)]
    assume(top >= 3 and blocks)
    d1, d2 = data.draw(st.sampled_from(blocks))
    i1 = data.draw(st.integers(0, ring.rank(d1) - 1))
    i2 = data.draw(st.integers(0, ring.rank(d2) - 1))
    _tamper(ring, data, d1, i1, d2, i2)
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
def test_multiplication_agrees_with_element_products(ring_data, data):
    # For every degree pair, above the top degree too, u -> u.e_b over the
    # degree-d2 basis; u is zero, a basis vector or random.
    top, labels, _, dense, _ = ring_data
    ring = GradedRing(top, labels, dense)
    for d1 in range(top + 2):
        for d2 in range(top + 2):
            n = ring.rank(d1)
            zero = st.just([0] * n)
            basis = st.integers(0, n - 1).map(lambda i: [int(k == i) for k in range(n)])
            u = data.draw(zero | basis | st.lists(st.integers(-3, 3), min_size=n, max_size=n) if n else zero)
            x = ring.homogeneous(d1, u)
            expected = tuple((x * ring.basis_element(d2, b)).degree_part(d1 + d2) for b in range(ring.rank(d2)))
            assert ring.multiplication(d1, d2)(u) == expected


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


def _rewritten_base(base: TwistorChow, change) -> TwistorChow:
    """The same base in the degree-1 and degree-2 bases that ``change`` gives."""
    ring = base.ring
    ranks = [ring.rank(d) for d in range(ring.top_degree + 1)]
    products = _rewritten_products(ring.table_entry, ranks, change)
    new = GradedRing(ring.top_degree, ring.basis_labels, products, ring.degree_functional, ring.name)
    (a1, _), (_, inv2) = change[1], change[2]
    line = base.line_class.degree_part(2)
    return TwistorChow(
        ring=new,
        line_class=new.homogeneous(2, [sum(c * row[s] for c, row in zip(line, inv2)) for s in range(ranks[2])]),
        twistor_degrees=tuple(sum(a * t for a, t in zip(row, base.twistor_degrees)) for row in a1),
        point_class=new.homogeneous(3, base.point_class.degree_part(3)),
    )


def _synthetic_r7_branches() -> list[TwistorChow]:
    doc = json.loads(SYNTHETIC_R7.read_text())
    return [twistor_base_from_dict(doc[key]) for key in ("branch1", "branch2")]


def _drawn_rewrite(base: TwistorChow, data) -> TwistorChow:
    """``base`` in a random unimodular change of its degree-1 and degree-2 bases."""
    change = {d: _unit(base.ring.rank(d)) for d in range(base.ring.top_degree + 1)}
    for d in (1, 2):
        change[d] = data.draw(_unimodular(base.ring.rank(d)))
    return _rewritten_base(base, change)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_blow_ups_of_random_bases_satisfy_the_projection_formula_and_closure(data):
    # Both branches of the rank-7 synthetic scenario, each in a random unimodular
    # change of its degree-1 and degree-2 bases.  blow_up checks associativity and
    # the ring homomorphism on the new tables, and the projection formula is run here.
    bases = _synthetic_r7_branches()
    blown = []
    for base in bases:
        blown.append(blow_up(_drawn_rewrite(base, data)))
        blown[-1].check_projection_formula()
    equalizer = PushoutPair(*blown).equalizer()
    equalizer.check_product_closure()
    # a change of basis moves the lattices but not their ranks
    assert equalizer.ranks() == PushoutPair(*map(blow_up, bases)).equalizer().ranks()


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_blown_ring_check_agrees_with_the_full_check_and_the_oracle(data):
    # blow_up compares only the degree-1 multisets with Q, as its ring extends the base;
    # one positive-degree entry with an exceptional factor is then changed in both
    # orientations (the table builder refuses a unit row other than the unit vector).
    base = _drawn_rewrite(data.draw(st.sampled_from(_synthetic_r7_branches())), data)
    ring = blow_up(base).ring
    assert ring_from_dict(ring.to_json_dict()) == ring  # rebuilt with the full check
    assert _error(ring._check_associativity) is None
    q, jb = base.ring.rank(1), base.ring.rank(2)  # the exceptional indices
    exceptional = [(1, q, d2, i2) for d2 in (1, 2) for i2 in range(ring.rank(d2))]
    exceptional += [(1, i1, 2, jb) for i1 in range(ring.rank(1))]
    _tamper(ring, data, *data.draw(st.sampled_from(exceptional)))
    restricted = _error(lambda: ring._check_associativity(base.ring))
    assert restricted == _error(ring._check_associativity) == _associativity_oracle(ring)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_blown_ring_extends_its_base_and_refuses_a_conflicting_pulled_back_product(data):
    # The blown ring is built on its base ring: every product of two pulled-back classes
    # of positive degree, in either order, is the base's padded with zeros.  Given only
    # the products with Q or j.b, the constructor builds the same ring; given one
    # pulled-back product other than that, in either order, it refuses the conflict.
    base = _drawn_rewrite(data.draw(st.sampled_from(_synthetic_r7_branches())), data)
    ring, old = blow_up(base).ring, [base.ring.rank(d) for d in range(4)]
    pulled_back, exceptional = {}, {}
    for d1 in range(1, 4):
        for d2 in range(1, 4 - d1):
            for i1 in range(ring.rank(d1)):
                for i2 in range(ring.rank(d2)):
                    key, entry = (d1, i1, d2, i2), ring.table_entry(d1, i1, d2, i2)
                    if i1 < old[d1] and i2 < old[d2]:
                        pulled_back[key] = entry
                        pad = (0,) * (ring.rank(d1 + d2) - old[d1 + d2])
                        assert entry == base.ring.table_entry(*key) + pad
                    else:
                        exceptional[key] = entry

    def build(products):
        return GradedRing(3, ring.basis_labels, products, ring.degree_functional, ring.name, _base=base.ring)

    assert build(exceptional) == ring
    key = data.draw(st.sampled_from(sorted(pulled_back)))
    assert build({**exceptional, key: pulled_back[key]}) == ring  # the built entry, given again
    k = data.draw(st.integers(0, len(pulled_back[key]) - 1))
    delta = data.draw(st.sampled_from((-2, -1, 1, 3)))
    wrong = tuple(v + delta * (j == k) for j, v in enumerate(pulled_back[key]))
    assert _error(lambda: build({**exceptional, key: wrong})) == f"conflicting table entries for {key}"


_BLOW_UPS = [
    blow_up(base)
    for base in (projective_space_base(), flag_threefold_base(), *_synthetic_r7_branches())
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_BLOW_UPS), st.data())
def test_ring_hom_check_agrees_with_element_oracle_on_a_perturbed_restriction(blown, data):
    # The restriction to the quadric (top degree 2) from a ring of top degree 3: the
    # check leaves out the pairs whose product lies above the quadric's top degree.
    f = blown.restriction_to_quadric_map
    d = data.draw(st.sampled_from((1, 2)))
    row = data.draw(st.integers(0, len(f.matrix(d)) - 1))
    col = data.draw(st.integers(0, len(f.matrix(d)[row]) - 1))
    perturbed = {e: [list(r) for r in f.matrix(e)] for e in range(3)}
    perturbed[d][row][col] += data.draw(st.sampled_from((-1, 1, 2)))
    expected = _ring_hom_oracle(GradedMap(f.source, f.target, 0, perturbed))
    assert _error(lambda: GradedMap(f.source, f.target, 0, perturbed, is_ring_hom=True)) == expected


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
