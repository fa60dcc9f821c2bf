"""Exact integer lattice algebra; of the commands, only ``equalizer`` loads it.

Hermite-style row reduction of integer matrices with unimodular row operations
gives canonical lattice bases.  Membership reduces a vector against a basis's
rows as given when they are in echelon form, else against their Hermite form.
A saturated kernel whose Hermite pivots are all 1 is read off one sweep of the
matrix's columns, by Cramer's rule; any other kernel takes the row reduction.
Everything is exact over unbounded integers.  ``pushout`` imports each function
where the equalizer's kernels, membership, certificate or oracle call it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Sequence

from .rings import DegreeError, GradedMap, Vector, dot


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b), g >= 0 when a, b not both 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def _pivot(row: Sequence[int]) -> int:
    """Index of the first nonzero entry of ``row``; a zero row gets the sentinel ``len(row)``."""
    first = next(filter(None, row), 0)
    return row.index(first) if first else len(row)


def _accumulate(basis: list[list[int]], pivots: list[int], vec: list[int]) -> None:
    # Row-reduce vec against the echelon basis, inserting whatever survives.
    n = len(vec)
    while True:
        j = next((k for k, a in enumerate(vec) if a), None)
        if j is None:
            return
        pos = bisect_left(pivots, j)
        if pos < len(pivots) and pivots[pos] == j:
            row = basis[pos]
            a, b = row[j], vec[j]
            if b % a == 0:
                q = b // a
                for k in range(j, n):
                    vec[k] -= q * row[k]
            else:
                x, y, g = xgcd(a, b)
                ag, bg = a // g, b // g
                for k in range(j, n):
                    rk, vk = row[k], vec[k]
                    row[k] = x * rk + y * vk
                    vec[k] = ag * vk - bg * rk
        else:
            basis.insert(pos, vec)
            pivots.insert(pos, j)
            return


def hermite_row_basis(rows: Iterable[Sequence[int]]) -> list[Vector]:
    """Canonical (Hermite normal form) basis of the integer row span of ``rows``.

    Rows come back in echelon order with positive pivots and entries above each
    pivot reduced into [0, pivot).  Two inputs span the same lattice iff their
    outputs are equal, which is what makes brute-force cross-checks exact.
    """
    basis: list[list[int]] = []
    pivots: list[int] = []
    for row in rows:
        _accumulate(basis, pivots, list(row))
    for idx, p in enumerate(pivots):
        if basis[idx][p] < 0:
            basis[idx] = [-a for a in basis[idx]]
    # Reduce entries above each pivot, left to right; later reducing rows have
    # zeros in all earlier pivot columns, so earlier reductions stay valid.
    for idx in range(len(basis)):
        p = pivots[idx]
        piv = basis[idx][p]
        for above in range(idx):
            q = basis[above][p] // piv
            if q:
                basis[above] = [a - q * b for a, b in zip(basis[above], basis[idx])]
    return [tuple(row) for row in basis]


def kernel_basis(rows: Sequence[Sequence[int]], ncols: int | None = None) -> list[Vector]:
    """Canonical basis of the saturated integer kernel {x : rows @ x = 0}.

    Saturated means every integral solution is an integer combination of the
    returned vectors, not merely a rational one.  The basis is the Hermite form
    of the kernel lattice, read off in one sweep of the columns from right to
    left.  A column is free when it raises the rank of the columns to its right;
    the free columns F are independent, and every other column j is a kernel
    pivot, with A_j = -A_F c for one rational c, found by Cramer's rule from a
    nonzero minor of A_F (its adjugate grows by a bordering step at each free
    column).  When every such c is integral, the rows e_j + c on F have pivot 1
    and zeros at the other pivots: they are the Hermite form, and any integral
    solution reduces to 0 along them.  Otherwise some pivot exceeds 1, and the
    augmented matrix [A^T | I] is reduced instead: rows whose A^T-part vanishes
    carry the kernel in their identity part, already in Hermite form (Cohen, *A
    Course in Computational Algebraic Number Theory*, 2.4).
    """
    mat = [list(r) for r in rows]
    m = len(mat)
    if ncols is None:
        if m == 0:
            raise ValueError("ncols is required for an empty matrix")
        ncols = len(mat[0])
    if any(len(r) != ncols for r in mat):
        raise ValueError("ragged matrix")
    free: list[int] = []  # the free columns F, right to left
    minor_rows: list[int] = []  # rows R, one per free column, with det = det A[R, F] != 0
    adjugate: list[list[int]] = []  # adj A[R, F], rows indexed by F, columns by R
    det = 1
    kernel = []
    for j in reversed(range(ncols)):
        solved = [dot(row, [mat[r][j] for r in minor_rows]) for row in adjugate]  # det * A[R, F]^-1 A[R, j]
        residual = [det * row[j] - dot(solved, map(row.__getitem__, free)) for row in mat]  # 0 on R
        r = next((k for k, e in enumerate(residual) if e), None)
        if r is None:  # A_j = A_F (solved / det): a kernel pivot
            quotients = [divmod(-y, det) for y in solved]
            if any(rem for _, rem in quotients):
                augmented = [[row[i] for row in mat] + [int(k == i) for k in range(ncols)]
                             for i in range(ncols)]
                return [row[m:] for row in hermite_row_basis(augmented) if not any(row[:m])]
            vec = [0] * ncols
            vec[j] = 1
            for f, (q, _) in zip(free, quotients):
                vec[f] = q
            kernel.append(tuple(vec))
        else:  # a free column; with u = A[R, j] and v = A[r, F], bordering A[R, F] by them gives
            # det' = residual[r] and adj' = [[(det' adj + (adj u)(v adj)) / det, -adj u], [-v adj, det]]
            v_adj = [dot([mat[r][f] for f in free], col) for col in zip(*adjugate)]
            grown = residual[r]
            adjugate = [[(grown * a + y * b) // det for a, b in zip(row, v_adj)] + [-y]
                        for row, y in zip(adjugate, solved)]
            adjugate.append([-b for b in v_adj] + [det])
            det = grown
            free.append(j)
            minor_rows.append(r)
    return kernel[::-1]


def kernel_certificate(
    matrix: Sequence[Sequence[int]], basis: Sequence[Sequence[int]], ncols: int
) -> str | None:
    """None when the rows of ``basis`` span the saturated integer kernel of ``matrix``,
    else the name of the first of three conditions that fails.

    With A = ``matrix`` (k x n, n = ``ncols``) and B = ``basis`` (r x n) the conditions are
    (i) A.b = 0 for every row b of B; (ii) B has an integer right inverse C, B.C = I_r; and
    (iii) A has a nonzero (n - r) x (n - r) minor.  By (iii) the rational kernel of A has
    dimension at most r, so by (i) and the independence (ii) gives it is the rational span
    of B, and by (ii) an integer vector x there is (x.C).B, in B's integer span (Cohen, *A
    Course in Computational Algebraic Number Theory*, 2.4).  When B is in echelon form with
    strictly increasing pivots, all +-1, its pivot columns form a unit triangular minor,
    whose inverse is integral, and reading the pivots is the whole of (ii); any other B
    takes C from the Hermite form of [B^T | I_n] and passes only if the exact product B.C
    is I_r.  (iii) holds exactly when A's rational rank is at least n - r; A's rank is
    counted by fraction-free elimination (Bareiss 1968), whose entries are minors of A.
    """
    if any(len(row) != ncols for row in (*matrix, *basis)):
        raise ValueError("dimension mismatch")
    if any(dot(row, b) for row in matrix for b in basis):
        return "(i) A.b = 0"
    r = len(basis)
    pivots = list(map(_pivot, basis))
    triangular = all(map(int.__lt__, pivots, pivots[1:]))
    if not (triangular and all(p < ncols and b[p] in (1, -1) for b, p in zip(basis, pivots))):
        augmented = ([*col, *(int(k == i) for k in range(ncols))] for i, col in enumerate(zip(*basis)))
        inverse = [row[r:] for row in hermite_row_basis(augmented)[:r]]  # candidate columns of C
        products = (dot(b, c) == (i == k) for i, b in enumerate(basis) for k, c in enumerate(inverse))
        if len(inverse) < r or not all(products):
            return "(ii) B.C = I"
    rows, rank, previous = [list(row) for row in matrix if any(row)], 0, 1
    while rows and rank < ncols - r:
        top = rows.pop()
        j = _pivot(top)
        eliminated = ([(top[j] * a - row[j] * b) // previous for a, b in zip(row, top)] for row in rows)
        rows, rank, previous = [e for e in eliminated if any(e)], rank + 1, top[j]  # entries: minors of A
    if rank < ncols - r:
        return "(iii) nonzero (n - r)-minor of A"
    return None


def lattice_contains(basis: Sequence[Sequence[int]], vec: Sequence[int]) -> bool:
    """True iff ``vec`` is an integer combination of the rows of ``basis``.

    Zero rows are dropped.  Rows whose pivots strictly increase, as an echelon
    basis's do, are used as given; any other spanning set is first brought to
    Hermite form.  An echelon row is zero left of its pivot, so it is
    subtracted from its pivot rightwards; a pivot entry, once cleared, stays
    cleared, so ``vec`` is a member exactly when every pivot divides and
    nothing is left (Cohen, *A Course in Computational Algebraic Number
    Theory*, 2.4).
    """
    rows = [row for row in basis if any(row)]
    if any(len(row) != len(vec) for row in rows):
        raise ValueError("dimension mismatch")
    pivots = [_pivot(row) for row in rows]
    if any(a >= b for a, b in zip(pivots, pivots[1:])):
        rows = hermite_row_basis(rows)
        pivots = [_pivot(row) for row in rows]
    v = list(vec)
    for p, row in zip(pivots, rows):
        if v[p]:
            q, rem = divmod(v[p], row[p])
            if rem:
                return False
            v[p:] = [a - q * b for a, b in zip(v[p:], row[p:])]
    return not any(v)


lattice_membership = lattice_contains  # True iff ``vec`` is in the integer span of ``basis``


def kernel_lattice(f: GradedMap, degree: int) -> list[Vector]:
    """Saturated basis of the integer kernel of ``f`` in one source degree."""
    if not 0 <= degree <= f.source.top_degree:
        raise DegreeError(f"degree {degree} is out of range for the source ring")
    return kernel_basis(f.matrix(degree), ncols=f.source.rank(degree))
