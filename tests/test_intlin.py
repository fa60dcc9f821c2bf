"""Exact linear algebra: canonical bases, saturated kernels, membership."""

import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from twistor_pushout import intlin
from twistor_pushout.intlin import (
    dot,
    hermite_row_basis,
    kernel_basis,
    kernel_certificate,
    lattice_contains,
    mat_mul,
    mat_vec,
    xgcd,
)


def rational_kernel(rows, ncols):
    """Independent oracle: kernel basis over the rationals by Gaussian elimination,
    scaled to integer vectors."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                factor = mat[i][c]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row_idx, c in enumerate(pivots):
            vec[c] = -mat[row_idx][f]
        denom = 1
        for x in vec:
            denom = denom * x.denominator // _gcd(denom, x.denominator)
        basis.append([int(x * denom) for x in vec])
    return basis


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_xgcd_bezout():
    rng = random.Random(7)
    for _ in range(200):
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        x, y, g = xgcd(a, b)
        assert x * a + y * b == g
        if a or b:
            assert g > 0 and a % g == 0 and b % g == 0


def test_hermite_is_canonical_under_row_mixing():
    rng = random.Random(11)
    rows = [[2, 4, 6, 0], [1, 1, 1, 1], [0, 0, 5, 5]]
    reference = hermite_row_basis(rows)
    for _ in range(20):
        mixed = [list(r) for r in rows]
        rng.shuffle(mixed)
        i, j = rng.randrange(3), rng.randrange(3)
        if i != j:
            c = rng.randint(-2, 2)
            mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
        assert hermite_row_basis(mixed) == reference


def test_kernel_of_sum_functional():
    assert kernel_basis([[1, 1]]) == [(1, -1)]


def test_kernel_of_identity_is_empty():
    assert kernel_basis([[1, 0], [0, 1]]) == []


def test_kernel_of_zero_map_is_everything():
    assert kernel_basis([[0, 0, 0]]) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_kernel_vectors_annihilate_and_saturate():
    rng = random.Random(23)
    shapes = [(0, n) for n in range(6)] + [(m, 0) for m in range(1, 5)]
    shapes += [(rng.randint(0, 4), rng.randint(0, 5)) for _ in range(200)]
    for m, n in shapes:
        bound = rng.choice((4, 10**6))
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
        kernel = kernel_basis(rows, ncols=n)
        assert hermite_row_basis(kernel) == kernel
        for vec in kernel:
            assert all(v == 0 for v in mat_vec(rows, vec))
        oracle = rational_kernel(rows, n)
        assert len(kernel) == len(oracle)
        # saturation: integer multiples of rational solutions are members
        for vec in oracle:
            assert lattice_contains(kernel, vec)


def test_membership_basics():
    basis = hermite_row_basis([[2, 0, 1], [0, 3, 0]])
    assert lattice_contains(basis, basis[0])
    assert lattice_contains(basis, [0, 0, 0])
    assert lattice_contains(basis, [2, 3, 1])
    assert not lattice_contains(basis, [1, 0, 0])


def test_membership_outside_rank_one_lattice():
    basis = hermite_row_basis([[1, 2]])
    assert not lattice_contains(basis, [0, 1])


def test_membership_dimension_mismatch():
    with pytest.raises(ValueError):
        lattice_contains([[1, 0]], [1, 0, 0])


def test_membership_of_random_combinations():
    rng = random.Random(31)
    basis = hermite_row_basis([[3, 1, 0, 2], [0, 4, 4, 0], [0, 0, 6, 6]])
    for _ in range(100):
        combo = [0, 0, 0, 0]
        for row in basis:
            c = rng.randint(-10, 10)
            combo = [a + c * b for a, b in zip(combo, row)]
        assert lattice_contains(basis, combo)


def rational_coordinates(basis, vec):
    """Independent oracle: the c with c . basis = vec over the rationals, or None.

    Gaussian elimination on the transposed system; ``basis`` must have full row
    rank, so a solution, when there is one, is unique.
    """
    r = len(basis)
    rows = [[Fraction(row[k]) for row in basis] + [Fraction(vec[k])] for k in range(len(vec))]
    pivots = []
    for col in range(r):
        top = len(pivots)
        pivot_row = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        assert pivot_row is not None, "basis must have full row rank"
        rows[top], rows[pivot_row] = rows[pivot_row], rows[top]
        rows[top] = [x / rows[top][col] for x in rows[top]]
        for i in range(len(rows)):
            if i != top and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[top])]
        pivots.append(col)
    if any(row[r] for row in rows[r:]):
        return None
    return [rows[i][r] for i in range(r)]


@st.composite
def bases_and_vectors(draw):
    """A Hermite basis of random dense, unit and sparse rows, a vector in its
    lattice, and that vector moved by a random offset."""
    n = draw(st.integers(1, 6))
    entry = st.integers(-3, 3)
    dense = st.lists(entry, min_size=n, max_size=n)
    unit = st.integers(0, n - 1).map(lambda i: [int(k == i) for k in range(n)])
    sparse = st.dictionaries(st.integers(0, n - 1), entry, max_size=2).map(
        lambda entries: [entries.get(k, 0) for k in range(n)]
    )
    rows = draw(st.lists(st.one_of(dense, unit, sparse), max_size=n + 1))
    basis = hermite_row_basis(rows)
    member = [0] * n
    for row in basis:
        c = draw(st.integers(-4, 4))
        member = [a + c * b for a, b in zip(member, row)]
    offset = draw(st.lists(entry, min_size=n, max_size=n))
    return basis, member, [a + b for a, b in zip(member, offset)]


@settings(max_examples=300, deadline=None)
@given(bases_and_vectors())
def test_membership_agrees_with_rational_oracle(case):
    basis, member, moved = case
    for vec in (member, moved):
        coords = rational_coordinates(basis, vec)
        expected = coords is not None and all(c.denominator == 1 for c in coords)
        assert lattice_contains(basis, vec) == expected
        assert lattice_contains(list(reversed(basis)), vec) == expected  # out of echelon order
    assert lattice_contains(basis, member)


def test_membership_of_a_spanning_set_out_of_echelon_order(monkeypatch):
    # pivots 1 then 0: the rows are brought to Hermite form first
    reduced = []

    def counted(rows):
        reduced.append(rows)
        return hermite_row_basis(rows)

    monkeypatch.setattr(intlin, "hermite_row_basis", counted)
    assert lattice_contains([[0, 2], [1, 1]], [1, 3])
    assert not lattice_contains([[0, 2], [1, 1]], [0, 1])
    assert reduced == [[[0, 2], [1, 1]]] * 2


def test_mat_mul_and_vec():
    a = [[1, 2], [3, 4]]
    b = [[0, 1], [1, 0]]
    assert mat_mul(a, b) == ((2, 1), (4, 3))
    assert mat_vec(a, [1, 1]) == (3, 7)
    with pytest.raises(ValueError):
        mat_vec(a, [1, 1, 1])


def test_zero_rows_and_empty_factors_take_the_general_path():
    # a zero row's pivot is the sentinel len(row), past every index
    assert intlin._pivot((0, 0, 0)) == 3
    assert intlin._pivot([0, -2, 1]) == 1
    assert hermite_row_basis([(0, 0, 0), (0, -2, 1), (0, 0, 0)]) == [(0, 2, -1)]
    assert hermite_row_basis([(0, 0)]) == []
    assert mat_mul([(), ()], []) == ((), ())
    assert mat_mul([], [(1, 2)]) == ()


@st.composite
def echelon_bases_and_vectors(draw):
    """An echelon basis that is not in Hermite form, which ``lattice_contains``
    uses as given: rows e_p and -e_p, 2.e_p and -2.e_p, and dense rows whose pivots
    may be negative.  Also a vector in its lattice, and that vector moved at one
    column and at every column."""
    n = draw(st.integers(1, 6))
    entry = st.integers(-3, 3)
    basis = []
    for p in sorted(draw(st.sets(st.integers(0, n - 1)))):
        kind = draw(st.sampled_from(((1, -1), (2, -2), (-3, -2, -1, 1, 2, 3))))
        tail = draw(st.lists(entry, min_size=n - p - 1, max_size=n - p - 1)) if len(kind) > 2 else [0] * (n - p - 1)
        basis.append([0] * p + [draw(st.sampled_from(kind))] + tail)
    member = [0] * n
    for row in basis:
        c = draw(st.integers(-4, 4))
        member = [a + c * b for a, b in zip(member, row)]
    at_one = list(member)
    at_one[draw(st.integers(0, n - 1))] += draw(st.integers(1, 3))
    offset = draw(st.lists(entry, min_size=n, max_size=n))
    return basis, member, [at_one, [a + b for a, b in zip(member, offset)]]


@settings(max_examples=300, deadline=None)
@given(echelon_bases_and_vectors())
def test_membership_agrees_with_rational_oracle_on_unit_rows_kept_as_given(case):
    basis, member, moved = case

    def refuse(rows):
        raise AssertionError("an echelon basis went through the Hermite reduction")

    with patch.object(intlin, "hermite_row_basis", refuse):  # the rows are used as given
        assert lattice_contains(basis, member)
        for vec in moved:
            coords = rational_coordinates(basis, vec)
            expected = coords is not None and all(c.denominator == 1 for c in coords)
            assert lattice_contains(basis, vec) == expected


# -- the kernel certificate --------------------------------------------------------


@st.composite
def matrices(draw, max_rows=2, min_cols=1, max_cols=6):
    """An integer matrix with at most ``max_rows`` rows and its column count.  Entries in
    -3..3 give kernels whose Hermite pivots are not all +-1, such as (3, -2) for (2 3)."""
    n = draw(st.integers(min_cols, max_cols))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    return draw(st.lists(row, max_size=max_rows)), n


def remixed(draw, basis):
    """The rows of ``basis`` under random unimodular row operations: the same lattice,
    out of echelon form, so its right inverse is found through the Hermite form."""
    rows = [list(row) for row in basis]
    for _ in range(draw(st.integers(0, 4)) if len(rows) > 1 else 0):
        i, j = draw(st.permutations(range(len(rows))))[:2]
        c = draw(st.integers(-2, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        rows[i], rows[j] = rows[j], rows[i]
    return rows


def is_kernel_basis(matrix, basis, n):
    """Oracle: ``basis`` is annihilated, independent and spans ``kernel_basis``'s lattice."""
    hermite = hermite_row_basis(basis)
    return (
        not any(dot(row, b) for row in matrix for b in basis)
        and len(hermite) == len(basis)
        and hermite == kernel_basis(matrix, n)
    )


def hermite_kernel(matrix, n):
    """Reference: the Hermite form of [A^T | I]; its rows whose A^T-part vanishes carry
    the saturated kernel in their identity part, already in Hermite form."""
    m = len(matrix)
    augmented = [[row[i] for row in matrix] + [int(k == i) for k in range(n)] for i in range(n)]
    return [row[m:] for row in hermite_row_basis(augmented) if not any(row[:m])]


@settings(max_examples=400, deadline=None)
@given(matrices(max_rows=3, min_cols=0, max_cols=8))
@example(([[2, 3, 0]], 3))  # pivot 3, and a zero column
@example(([[1, 2, -1], [2, 4, -2]], 3))  # rank deficient
@example(([], 4))  # no rows
@example(([[0, 0]], 2))  # the zero map: no column is free
def test_kernel_basis_is_the_hermite_reduction_of_the_augmented_matrix(case):
    matrix, n = case
    assert kernel_basis(matrix, n) == hermite_kernel(matrix, n)


@settings(max_examples=300, deadline=None)
@given(matrices(), st.data())
def test_kernel_certificate_agrees_with_kernel_basis(case, data):
    matrix, n = case
    kernel = kernel_basis(matrix, n)
    assert kernel_certificate(matrix, kernel, n) is None
    assert kernel_certificate(matrix, remixed(data.draw, kernel), n) is None
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    other = data.draw(st.lists(row, max_size=n + 1))
    assert (kernel_certificate(matrix, other, n) is None) == is_kernel_basis(matrix, other, n)


@settings(max_examples=200, deadline=None)
@given(matrices(max_rows=4))
def test_kernel_certificate_counts_the_rank_of_taller_matrices(case):
    # fraction-free elimination past a 2 x 2 minor: condition (iii) is read from the rank
    matrix, n = case
    kernel = kernel_basis(matrix, n)
    assert kernel_certificate(matrix, kernel, n) is None
    if kernel:
        assert kernel_certificate(matrix, kernel[1:], n).startswith("(iii)")


@settings(max_examples=300, deadline=None)
@given(matrices(), st.sampled_from(["change", "drop", "double", "zero"]), st.data())
def test_kernel_certificate_names_the_condition_a_damaged_basis_fails(case, kind, data):
    matrix, n = case
    kernel = kernel_basis(matrix, n)
    assume(kernel)
    basis = remixed(data.draw, kernel) if data.draw(st.booleans()) else [list(row) for row in kernel]
    i = data.draw(st.integers(0, len(basis) - 1))
    if kind == "drop":  # a sublattice of lower rank, still saturated
        del basis[i]
        expected = "(iii)"
    elif kind == "double":  # still annihilated, no longer saturated
        basis[i] = [2 * a for a in basis[i]]
        expected = "(ii)"
    elif kind == "zero":  # annihilated, but a zero row has no pivot (read as ncols) and no inverse
        basis[i] = [0] * n
        expected = "(ii)"
    else:
        basis[i][data.draw(st.integers(0, n - 1))] += data.draw(st.sampled_from([-2, -1, 1, 2]))
        if any(dot(row, basis[i]) for row in matrix):
            expected = "(i)"
        else:  # a change the matrix cannot see, such as -e_p for a unit row e_p, may keep the lattice
            expected = None if is_kernel_basis(matrix, basis, n) else "(ii)"
    reason = kernel_certificate(matrix, basis, n)
    assert (reason if reason is None else reason.split()[0]) == expected


def test_kernel_certificate_reads_unit_pivots_and_inverts_any_other_basis(monkeypatch):
    calls = []
    hermite = intlin.hermite_row_basis
    monkeypatch.setattr(intlin, "hermite_row_basis", lambda rows: calls.append(1) or hermite(rows))
    assert kernel_certificate([[1, 1, 1]], [(1, 0, -1), (0, 1, -1)], 3) is None
    assert calls == []  # unit pivots: the triangular minor is the whole of (ii)
    assert kernel_certificate([[2, 3, 0]], [(3, -2, 0), (0, 0, 1)], 3) is None  # pivot 3
    assert kernel_certificate([[2, 3, 0]], [(3, -2, 0), (0, 0, 2)], 3) == "(ii) B.C = I"
    assert calls == [1, 1]
    assert kernel_certificate([], [], 0) is None
    assert kernel_certificate([[0, 0]], [], 2) == "(iii) nonzero (n - r)-minor of A"
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        kernel_certificate([[1, 1]], [(1, -1)], 3)
