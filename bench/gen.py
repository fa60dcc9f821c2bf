"""Seeded inputs for the benchmark: the synthetic base family and query arguments.

BENCHMARK-ONLY BASES.  The synthetic family is the Chow ring of
P1 x (P2 blown up at k points), blown up along the curve P1 x pt.  That curve
has trivial normal bundle, not O(1)+O(1), so these bases are not twistor
spaces; they are inputs that exercise the cubic construction checks at a
chosen rank while every answer stays known in closed form.

Each base is written in a seeded, dense, unimodular change of its degree-1
and degree-2 bases.  The ring is isomorphic for every seed, so the expected
answers do not depend on the seed, but the tables have no zero pattern a
shortcut could exploit.

Everything here is plain integer arithmetic written for the benchmark; none
of it calls the package under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# Blown-up degree-1 ranks of the synthetic family; k = rank - 3 points blown up.
SYNTHETIC_RANKS = (3, 5, 7, 11, 19)


@dataclass(frozen=True)
class Base:
    """A base ring with the data the closed-form expectations need.

    ``mult13[i][j]`` is the degree of (degree-1 class i) . (degree-2 class j);
    ``twistor_degrees``, ``line`` and ``point`` are in the same (possibly
    transformed) bases as the document.
    """

    name: str
    labels: tuple[tuple[str, ...], ...]
    twistor_degrees: tuple[int, ...]
    line: tuple[int, ...]
    point: tuple[int, ...]
    mult13: tuple[tuple[int, ...], ...]
    doc: dict | None = None  # inline ring document; None for built-in bases

    def ranks(self) -> tuple[int, ...]:
        return tuple(len(labels) for labels in self.labels)

    def blown_ranks(self) -> tuple[int, int, int, int]:
        r = self.ranks()
        return (1, r[1] + 1, r[2] + 1, r[3])


# The two built-in bases, described by their classical intersection numbers.
P3 = Base(
    name="p3",
    labels=(("1",), ("h",), ("h2",), ("h3",)),
    twistor_degrees=(1,),
    line=(1,),
    point=(1,),
    mult13=((1,),),  # h . h2 = pt
)
FLAG = Base(
    name="flag",
    labels=(("1",), ("x", "y"), ("xy", "y2"), ("xy2",)),
    twistor_degrees=(1, 1),
    line=(1, 0),
    point=(1,),
    mult13=((1, 1), (1, 0)),  # x.xy = x.y2 = y.xy = pt, y.y2 = 0
)


def _unit_triangular(rng: random.Random, n: int, lower: bool) -> list[list[int]]:
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if (j < i) if lower else (j > i):
                m[i][j] = rng.choice((-1, 1))
    return m


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _inverse_unimodular(a: list[list[int]]) -> list[list[int]]:
    """Exact inverse by Gauss-Jordan over the rationals; integral since det = +-1."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    inv = [[x for x in row[n:]] for row in aug]
    if any(x.denominator != 1 for row in inv for x in row):
        raise AssertionError("change of basis is not unimodular")
    return [[int(x) for x in row] for row in inv]


def dense_unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """L.U with random +-1 off-diagonal entries: determinant 1, generically dense."""
    return _mat_mul(_unit_triangular(rng, n, True), _unit_triangular(rng, n, False))


def synthetic_base(rank: int, rng: random.Random | None) -> Base:
    """CH(P1 x Bl_k P2) with blown-up degree-1 rank ``rank`` (k = rank - 3).

    Standard bases: degree 1 (t, H, E1..Ek), degree 2 (tH, tE1..tEk, p),
    degree 3 (tp), where t is the P1 class, p the point of the surface.
    Products: t^2 = 0, H^2 = p, Ei^2 = -p, all other degree-1 products of
    distinct surface classes vanish.  The blown-up curve is P1 x pt, of class
    p, so the twistor degrees are (1, 0, ..., 0).  With ``rng`` the degree-1
    and degree-2 bases are replaced by a seeded dense unimodular change.
    """
    k = rank - 3
    if k < 0:
        raise ValueError("synthetic ranks start at 3")
    n = k + 2
    # Indices: degree 1 t = 0, H = 1, Ei = 1 + i; degree 2 tH = 0, tEi = i, p = n - 1.
    # Sparse tables as (a, b, out index, value): degree-1 products land in
    # degree 2, degree-1 times degree-2 products in the single degree-3 class.
    m11 = [(0, a, a - 1, 1) for a in range(1, n)] + [(a, 0, a - 1, 1) for a in range(1, n)]
    m11 += [(1, 1, n - 1, 1)] + [(a, a, n - 1, -1) for a in range(2, n)]
    m12 = [(0, n - 1, 1), (1, 0, 1)] + [(a, a - 1, -1) for a in range(2, n)]
    degrees = [1] + [0] * (n - 1)
    line = [0] * (n - 1) + [1]
    if rng is None:
        a1 = a2 = [[int(i == j) for j in range(n)] for i in range(n)]
    else:
        a1, a2 = dense_unimodular(rng, n), dense_unimodular(rng, n)
    # New basis f_i = sum_j A[i][j] e_j; new coordinates are A^{-T} times old ones.
    a2_inv_t = _transpose(_inverse_unimodular(a2))
    new11 = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            old = [0] * n
            for p, q, r, val in m11:
                old[r] += a1[i][p] * a1[j][q] * val
            new11[i][j] = [sum(a2_inv_t[r][s] * old[s] for s in range(n)) for r in range(n)]
    new12 = [
        [sum(a1[i][p] * a2[j][q] * val for p, q, val in m12) for j in range(n)]
        for i in range(n)
    ]
    new_degrees = [sum(a1[i][j] * degrees[j] for j in range(n)) for i in range(n)]
    new_line = [sum(a2_inv_t[r][s] * line[s] for s in range(n)) for r in range(n)]
    labels = (("1",), tuple(f"u{i}" for i in range(n)), tuple(f"v{i}" for i in range(n)), ("tp",))
    mult = []
    for i in range(n):
        for j in range(i, n):
            mult.append({"d1": 1, "i1": i, "d2": 1, "i2": j, "out": new11[i][j]})
        for j in range(n):
            mult.append({"d1": 1, "i1": i, "d2": 2, "i2": j, "out": [new12[i][j]]})
    doc = {
        "name": f"CH(P1xBl{k}P2)",
        "top_degree": 3,
        "basis": [list(x) for x in labels],
        "mult": mult,
        "degree_functional": [1],
        "line_class": new_line,
        "twistor_degrees": new_degrees,
        "point_class": [1],
    }
    return Base(
        name=f"synthetic-r{rank}",
        labels=labels,
        twistor_degrees=tuple(new_degrees),
        line=tuple(new_line),
        point=(1,),
        mult13=tuple(tuple(row) for row in new12),
        doc=doc,
    )


# -- pairs of classes with a known matching answer ------------------------------------


def restriction(base: Base, degree: int, vec) -> tuple[int, ...]:
    """Restriction of a blown-up class to the quadric, from the README table.

    f*a -> deg(a) b, Q -> b - w, f*(degree 2) -> 0, j*b -> -pt, f*(pt) -> 0.
    Returns (b, w) in degree 1, (pt,) in degree 2, (unit,) in degree 0, ().
    """
    if degree == 0:
        return (vec[0],)
    if degree == 1:
        *pulled, q = vec
        return (sum(d * x for d, x in zip(base.twistor_degrees, pulled)) + q, -q)
    if degree == 2:
        return (-vec[-1],)
    return ()


def swap(degree: int, image: tuple[int, ...]) -> tuple[int, ...]:
    return (image[1], image[0]) if degree == 1 else image


def matched(b1: Base, b2: Base, degree: int, v1, v2) -> bool:
    return restriction(b1, degree, v1) == swap(degree, restriction(b2, degree, v2))


def random_pair(rng: random.Random, b1: Base, b2: Base, degree: int, want_matched: bool, span: int = 3):
    """Coefficient vectors (v1, v2) in one degree, matched exactly when asked."""
    n1, n2 = b1.blown_ranks()[degree], b2.blown_ranks()[degree]
    while True:
        v1 = [rng.randint(-span, span) for _ in range(n1)]
        v2 = [rng.randint(-span, span) for _ in range(n2)]
        if degree == 1:
            # b1 = w2 = -q2 fixes q2; w1 = b2 then fixes one pulled-back class
            # of nonzero twistor degree on branch 2.
            b_1, w_1 = restriction(b1, 1, v1)
            v2[-1] = -b_1
            pivot = next(i for i, d in enumerate(b2.twistor_degrees) if d)
            d = b2.twistor_degrees[pivot]
            rest = sum(dd * x for i, (dd, x) in enumerate(zip(b2.twistor_degrees, v2)) if i != pivot)
            need = w_1 - v2[-1] - rest
            if need % d:
                continue
            v2[pivot] = need // d
        elif degree == 2:
            v2[-1] = v1[-1]
        if not want_matched:
            v2[-1] += rng.choice((-1, 1))
        if matched(b1, b2, degree, v1, v2) == want_matched:
            return v1, v2
