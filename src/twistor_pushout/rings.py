"""Graded commutative rings over the integers, presented by finite tables.

Every ring handled here has a small, fixed basis in each degree and an
explicit multiplication table; a product whose degree exceeds the top degree
is zero and is simply absent from the table.  This keeps commutativity and
associativity finitely checkable, and both hold from construction on: the
table is filled in both argument orders and conflicting entries are refused,
so it is commutative by construction; a unit row other than the unit vector is
refused as it is built, which proves every identity with a degree-0 factor;
and associativity is verified on every basis triple of positive degrees.
Elements carry exact (unbounded) integer coefficients, one vector per degree.

Graded maps are families of integer matrices, one per source degree, each
stored once at construction (zero if omitted, ``()`` outside the target), with
an optional degree shift: pullbacks shift by 0, pushforwards by the codimension.
A map flagged as a ring homomorphism is verified to preserve the unit and to
be multiplicative on all basis pairs of positive degrees.

A ring stores its structure constants once, per degree pair as the product
table ``T[i1][i2]``, and equality compares these tables.  The checks use the
commutativity that construction guarantees.  With V_z(x, y) = (x.y).z, an
ordered triple associates exactly when V_z(x, y) = V_x(y, z).  Associativity
sums V once per unordered basis pair by Kronecker substitution: each flattened
row of the (d1 + d2, d3) table is packed into one integer, in fields as wide as
an exact bound read from the tables, so V_z(x, y) over all z is one big-integer
multiply-add per entry of x.y and one ``to_bytes``.  For each ordered pair the
row (V_z(x, y))_z is then compared whole with (V_x(y, z))_z, a row of a
transpose, and only a row that differs is opened.  The other checks (the
ring-homomorphism check of a map, and in ``pushout`` the projection formula and
the twistor-degree check) read the tables through one map,
``GradedRing.multiplication(d1, d2)``: u -> u.e_b over the degree-d2 basis,
summed over the nonzero entries of u against the table rows they touch; with
``dot``, ``mat_vec`` and ``combination`` that is every sum they take.  The
ring-homomorphism check takes each unordered pair once.  A ring built by
``pushout.blow_up`` extends its base ring: each degree lists the base's
classes first, and their products are built as the base's, padded with zeros,
so the base is a subring by construction and a pair of pulled-back classes is
summed only against the exceptional z, as the base's own check proves the
rest.  Every identity still follows; none is sampled.

All values are immutable after construction and all operations are pure, so
the module is safe for unrestricted concurrent read-only use.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from itertools import chain, compress, cycle, product, repeat
from operator import index, lshift, mul

from ._value import Value
from .intlin import Vector, dot, kernel_basis, lattice_contains, mat_vec

TableKey = tuple[int, int, int, int]


class RingMismatchError(ValueError):
    """Raised when an operation mixes elements of different rings."""


class DegreeError(ValueError):
    """Raised when an element has the wrong degree for an operation."""


def _as_vec(values: Sequence[int], length: int, what: str, *args: object) -> Vector:
    # a refusal names ``what.format(*args)``, formatted only when it is raised
    try:
        if bool in map(type, values):  # index() reads True as 1
            raise TypeError
        vec = tuple(map(index, values))  # exact: a float or a str is refused, not truncated
    except TypeError:
        raise ValueError(f"{what.format(*args)}: expected a sequence of integers") from None
    if len(vec) != length:
        raise ValueError(f"{what.format(*args)}: expected length {length}, got {len(vec)}")
    return vec


class GradedRing:
    """A graded commutative ring over ZZ with unit, given by a multiplication table.

    Parameters
    ----------
    top_degree:
        Largest degree carrying a nonzero group.
    basis_labels:
        One ordered tuple of labels per degree ``0..top_degree``; degree 0 must
        have rank one (the unit).  Label order is part of the data.
    products:
        Map ``(d1, i1, d2, i2) -> coefficient vector`` in degree ``d1+d2``.
        Entries may be given in either argument order; missing in-range entries
        mean the product is zero, and products beyond ``top_degree`` are always
        zero.  Unit products are filled in automatically.
    degree_functional:
        Optional integer row vector on the top degree; the degree of a
        zero-cycle is its pairing with this vector.
    """

    def __init__(
        self,
        top_degree: int,
        basis_labels: Sequence[Sequence[str]],
        products: Mapping[TableKey, Sequence[int]],
        degree_functional: Sequence[int] | None = None,
        name: str = "",
        *,
        _base: GradedRing | None = None,
    ) -> None:
        if top_degree < 0:
            raise ValueError("top_degree must be non-negative")
        if len(basis_labels) != top_degree + 1:
            raise ValueError("need one label list per degree 0..top_degree")
        self.top_degree = top_degree
        self.basis_labels = tuple(tuple(labels) for labels in basis_labels)
        if len(self.basis_labels[0]) != 1:
            raise ValueError("degree 0 must have rank one (the unit)")
        self.name = name
        self.degree_functional = (
            None
            if degree_functional is None
            else _as_vec(degree_functional, self.rank(top_degree), "degree_functional")
        )
        self._products = self._build_table(products, _base)  # the only store of the structure constants
        self._check_associativity(_base)

    # -- construction helpers -------------------------------------------------

    def _build_table(
        self, products: Mapping[TableKey, Sequence[int]], base: GradedRing | None
    ) -> dict[tuple[int, int], tuple[tuple[Vector, ...], ...]]:
        ranks = [*map(len, self.basis_labels), *(0,) * self.top_degree]  # rank(d), d = 0..2 * top_degree
        cells = product(range(self.top_degree + 1), repeat=2)  # (d1, d2): [i1][i2] = e_i1.e_i2 once set
        table = {(d1, d2): [[None] * ranks[d2] for _ in range(ranks[d1])] for d1, d2 in cells}
        for (d1, d2), rows in () if base is None else base._products.items():  # its classes come first
            if d1 and d2 and d1 + d2 <= self.top_degree:  # in both orientations; unit rows come below
                pad = (0,) * (ranks[d1 + d2] - base.rank(d1 + d2))
                for i1, row in enumerate(rows):
                    table[d1, d2][i1][: len(row)] = [ab + pad for ab in row]
        for (d1, i1, d2, i2), out in products.items():
            if not (0 <= d1 <= self.top_degree and 0 <= d2 <= self.top_degree):
                raise ValueError(f"table degree out of range: {(d1, i1, d2, i2)}")
            if not (0 <= i1 < ranks[d1] and 0 <= i2 < ranks[d2]):
                raise ValueError(f"table index out of range: {(d1, i1, d2, i2)}")
            if d1 + d2 > self.top_degree:
                if any(out):
                    raise ValueError(f"product {(d1, i1, d2, i2)} lands above top degree")
                continue
            vec = _as_vec(out, ranks[d1 + d2], "product {}", (d1, i1, d2, i2))
            for a, ia, b, ib in ((d1, i1, d2, i2), (d2, i2, d1, i1)):
                if table[a, b][ia][ib] not in (None, vec):
                    raise ValueError(f"conflicting table entries for {(a, ia, b, ib)}")
                table[a, b][ia][ib] = vec
        for d, n in enumerate(ranks[: self.top_degree + 1]):  # the unit acts as the identity
            units = (0,) * n + (1,) + (0,) * n  # e_i is units[n - i : 2n - i]
            for i in range(n):
                unit_vec = units[n - i : 2 * n - i]
                for a, ia, b, ib in ((0, 0, d, i), (d, i, 0, 0)):
                    if table[a, b][ia][ib] not in (None, unit_vec):
                        raise ValueError(f"unit does not act as identity on {(a, ia, b, ib)}")
                    table[a, b][ia][ib] = unit_vec
        zeros = [(0,) * n for n in ranks]  # () above the top
        return {
            key: tuple(tuple(zeros[sum(key)] if ab is None else ab for ab in row) for row in rows)
            for key, rows in table.items()
        }

    def _check_associativity(self, base: GradedRing | None = None) -> None:
        # V_z(x, y) = (x.y).z is symmetric in x, y because the table is, and x.(y.z) = (y.z).x =
        # V_x(y, z): an ordered triple associates exactly when V_z(x, y) = V_x(y, z).  For each
        # ordered basis pair, (V_z(x, y))_z is compared whole with (V_x(y, z))_z, from a transpose
        # of y's values; only a differing row is opened, and the least failing ordered triple in
        # the order d1, d2, d3, i1, i2, i3 is reported.  V is summed once per unordered pair by
        # Kronecker substitution: each flattened row e_m.z of the (d1 + d2, d3) table is one int
        # of w-byte fields, so V_z(x, y) over all z is one multiply-add per entry of x.y and one
        # to_bytes.  Each field is biased by 2^(8w - 1) > |V|: over every pair and the rows it is
        # packed with, max |x.y| at the nonzero rows times the rows' largest absolute column sum
        # bounds |V|, so two fields have equal bytes exactly when their values are equal.
        # _build_table refused every unit row but e_i, so (1.y).z = y.z = 1.(y.z): degrees start at 1.
        # With ``base``, whose classes come first in each degree (pulled back by f), _build_table
        # built f*a.f*b = pad(a.b) on basis pairs; by linearity (f*a.f*b).f*c = pad((a.b).c) and
        # f*a.(f*b.f*c) = pad(a.(b.c)), equal as base passed this check.  So a pulled-back pair
        # packs only the exceptional z, and a triple of pulled-back classes reads None on both
        # sides of its comparison.
        top, table = self.top_degree, self._products
        old = [0 if base is None else base.rank(d) for d in range(top + 1)]  # pulled-back classes
        blocks = [d for d in product(range(1, top), repeat=3) if d[0] <= d[1] and sum(d) <= top]  # d1 <= d2
        plans = {}  # (d1, d2, d3): (z0, the rows e_m.z over z >= z0, flattened, its pairs (i1, i2 range))
        bound = 0  # per plan, max |x.y| at a nonzero row over its pairs, times its largest column sum
        for d1, d2, d3 in blocks:
            xy_table, by_pack = table[d1, d2], ([], [])  # pairs packed with every z, with the exceptional z
            for i1 in range(self.rank(d1)):
                start = i1 if d1 == d2 else 0
                cut = max(start, old[d2]) if i1 < old[d1] else start  # pulled-back pairs: start <= i2 < cut
                by_pack[0].append((i1, range(cut, self.rank(d2))))
                by_pack[1].append((i1, range(start, cut)))
            plans[d1, d2, d3] = plan = []
            for z0, pairs in zip((0, old[d3]), by_pack):
                if any(i2s for _, i2s in pairs):
                    flat = [tuple(chain.from_iterable(r[z0:])) for r in table[d1 + d2, d3]]
                    xys = chain.from_iterable(xy_table[i1][i2s.start : i2s.stop] for i1, i2s in pairs)
                    xy = list(compress(chain.from_iterable(xys), cycle([any(row) for row in flat]))) or [0]
                    column = max(map(sum, zip(*(map(abs, row) for row in flat))), default=0)
                    bound = max(bound, max(max(xy), -min(xy)) * column)
                    plan.append((z0, flat, pairs))
        w = (bound.bit_length() + 8) // 8  # bytes per field: 2^(8w - 1) > bound
        values = {}  # (d1, d2, d3): [i1][i2][i3] = V_z(x, y), the bytes of its biased fields
        for (d1, d2, d3), plan in plans.items():
            size, xy_table = w * self.rank(d1 + d2 + d3), table[d1, d2]  # bytes per vector
            rows = [[None] * self.rank(d2) for _ in range(self.rank(d1))]
            for z0, flat, pairs in plan:
                none = (None,) * z0  # a pulled-back pair reads None at every z < z0
                slices = [slice(size * z, size * z + size) for z in range(self.rank(d3) - z0)]
                shifts = range(0, 8 * size * len(slices), 8 * w)
                packed = [sum(map(lshift, row, shifts)) for row in flat]
                biased = (bytes(w - 1) + b"\x80") * len(shifts)  # every field 2^(8w - 1)
                bias = int.from_bytes(biased, "little")
                for i1, i2s in pairs:
                    for i2 in i2s:
                        data = sum(map(mul, xy_table[i1][i2], packed), bias).to_bytes(len(biased), "little")
                        rows[i1][i2] = none + tuple(map(data.__getitem__, slices))
                        if d1 == d2:
                            rows[i2][i1] = rows[i1][i2]
            values[d1, d2, d3] = tuple(map(tuple, rows))
            values[d2, d1, d3] = tuple(zip(*rows)) or ((),) * self.rank(d2)
        failures = []
        for d1, d2, d3 in values:
            y_x_z, y_z_x = values[d2, d1, d3], values[d2, d3, d1]
            for i2 in range(self.rank(d2)):
                x_z = tuple(zip(*y_z_x[i2])) or ((),) * self.rank(d1)  # [i1][i3] = V_x(y, z)
                if y_x_z[i2] != x_z:  # [i1][i3] = V_z(x, y)
                    failures += [
                        (d1, d2, d3, i1, i2, i3)
                        for i1, (left, right) in enumerate(zip(y_x_z[i2], x_z))
                        for i3 in range(self.rank(d3))
                        if left[i3] != right[i3]
                    ]
        if failures:
            d1, d2, d3, i1, i2, i3 = min(failures)
            labels = self.basis_labels
            raise ValueError(f"associativity fails on ({labels[d1][i1]}, {labels[d2][i2]}, {labels[d3][i3]})")

    # -- basic queries ---------------------------------------------------------

    def rank(self, degree: int) -> int:
        if not 0 <= degree <= self.top_degree:
            return 0
        return len(self.basis_labels[degree])

    def product_table(self, d1: int, d2: int) -> tuple[tuple[Vector, ...], ...]:
        """Structure constants ``T[i1][i2]``: the product of basis elements
        ``(d1, i1)`` and ``(d2, i2)`` as a degree ``d1 + d2`` vector.

        Products beyond the top degree are empty vectors (the zero group), and
        a degree outside ``0..top_degree`` has no basis elements.
        """
        table = self._products.get((d1, d2))
        if table is None:
            return ((),) * self.rank(d1)
        return table

    def table_entry(self, d1: int, i1: int, d2: int, i2: int) -> Vector:
        return self.product_table(d1, d2)[i1][i2]

    def multiplication(self, d1: int, d2: int) -> Callable[[Sequence[int]], tuple[Vector, ...]]:
        """The map ``u -> (u.e_b over the degree-d2 basis)`` on degree-``d1`` vectors,
        summed over the nonzero entries of ``u`` against the rows of
        ``product_table(d1, d2)`` they touch."""
        table = self.product_table(d1, d2)
        length, count = self.rank(d1 + d2), self.rank(d2)

        def times(u: Sequence[int]) -> tuple[Vector, ...]:
            out = [0] * (count * length)
            for c, row in zip(u, table):
                if c:
                    for k, e in enumerate(chain.from_iterable(row)):
                        out[k] += c * e
            return tuple(zip(*[iter(out)] * length)) if length else ((),) * count

        return times

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, GradedRing):
            return NotImplemented
        return (
            self.top_degree == other.top_degree
            and self.basis_labels == other.basis_labels
            and self._products == other._products
            and self.degree_functional == other.degree_functional
        )

    def __hash__(self) -> int:  # value semantics
        return hash((self.top_degree, self.basis_labels, self.degree_functional))

    def __repr__(self) -> str:
        label = self.name or "GradedRing"
        ranks = ",".join(str(self.rank(d)) for d in range(self.top_degree + 1))
        return f"<{label} ranks=({ranks})>"

    # -- element constructors --------------------------------------------------

    def zero(self) -> "RingElement":
        return self.element({})

    def one(self) -> "RingElement":
        return self.basis_element(0, 0)

    def basis_element(self, degree: int, index: int) -> "RingElement":
        if not 0 <= degree <= self.top_degree or not 0 <= index < self.rank(degree):
            raise ValueError(f"no basis element at degree {degree}, index {index}")
        return self.homogeneous(degree, [int(k == index) for k in range(self.rank(degree))])

    def element(self, coeffs_by_degree: Mapping[int, Sequence[int]]) -> "RingElement":
        coeffs = []
        for d in range(self.top_degree + 1):
            given = coeffs_by_degree.get(d)
            coeffs.append(
                tuple([0] * self.rank(d)) if given is None else _as_vec(given, self.rank(d), "degree {}", d)
            )
        return RingElement(self, tuple(coeffs))

    def homogeneous(self, degree: int, coeffs: Sequence[int]) -> "RingElement":
        return self.element({degree: coeffs})

    # -- ring operations --------------------------------------------------------

    def multiply(self, x: "RingElement", y: "RingElement") -> "RingElement":
        if x.ring != self or y.ring != self:
            raise RingMismatchError("elements live in different rings")
        out = [[0] * self.rank(d) for d in range(self.top_degree + 1)]
        for d1, v1 in enumerate(x.coeffs):
            for i1, c1 in enumerate(v1):
                if not c1:
                    continue
                for d2, v2 in enumerate(y.coeffs):
                    if d1 + d2 > self.top_degree:
                        break
                    for i2, c2 in enumerate(v2):
                        if not c2:
                            continue
                        entry = self.table_entry(d1, i1, d2, i2)
                        row = out[d1 + d2]
                        for k, e in enumerate(entry):
                            row[k] += c1 * c2 * e
        return RingElement(self, tuple(tuple(row) for row in out))

    def zero_cycle_degree(self, x: "RingElement") -> int:
        if self.degree_functional is None:
            raise ValueError("ring has no degree functional")
        if x.ring != self:
            raise RingMismatchError("element lives in a different ring")
        return sum(a * b for a, b in zip(self.degree_functional, x.coeffs[self.top_degree]))

    # -- serialization ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        mult = []  # each nonzero product once, in one orientation; unit rows are implied
        for d1 in range(1, self.top_degree + 1):
            for i1 in range(self.rank(d1)):
                for d2 in range(d1, self.top_degree + 1 - d1):
                    for i2, out in enumerate(self._products[d1, d2][i1]):
                        if (d1, i1) <= (d2, i2) and any(out):
                            mult.append({"d1": d1, "i1": i1, "d2": d2, "i2": i2, "out": list(out)})
        doc = {
            "top_degree": self.top_degree,
            "basis": [list(labels) for labels in self.basis_labels],
            "mult": mult,
        }
        if self.degree_functional is not None:
            doc["degree_functional"] = list(self.degree_functional)
        if self.name:
            doc["name"] = self.name
        return doc


def combination(weights: Sequence[int], vectors: Sequence[Vector], length: int) -> Vector:
    """``sum_m weights[m] vectors[m]`` as a ``length`` vector, skipping the zero weights."""
    out: Sequence[int] = (0,) * length
    for c, vec in zip(weights, vectors):
        if c:
            out = [a + c * b for a, b in zip(out, vec)]
    return tuple(out)


def format_vector(labels: Iterable[str], vec: Iterable[int]) -> str:
    """The combination of ``labels`` with coefficients ``vec``, such as ``2*a - b + 3``
    (a label "1" shows only its coefficient), or "0"."""
    terms = []
    for label, c in zip(labels, vec):
        if not c:
            continue
        if label == "1":
            terms.append(str(c))
        elif c == 1:
            terms.append(label)
        elif c == -1:
            terms.append(f"-{label}")
        else:
            terms.append(f"{c}*{label}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


class RingElement(Value):
    """An element of a :class:`GradedRing`, one integer vector per degree."""

    __slots__ = ("ring", "coeffs")
    ring: GradedRing
    coeffs: tuple[Vector, ...]

    def __init__(self, ring: GradedRing, coeffs: tuple[Vector, ...]) -> None:
        if len(coeffs) != ring.top_degree + 1:
            raise ValueError("coefficient vectors must cover degrees 0..top_degree")
        for d, vec in enumerate(coeffs):
            if len(vec) != ring.rank(d):
                raise ValueError(f"degree {d}: expected {ring.rank(d)} coefficients")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", coeffs)

    def __add__(self, other: "RingElement") -> "RingElement":
        if self.ring != other.ring:
            raise RingMismatchError("elements live in different rings")
        return RingElement(
            self.ring,
            tuple(tuple(a + b for a, b in zip(u, v)) for u, v in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def __neg__(self) -> "RingElement":
        return RingElement(self.ring, tuple(tuple(-a for a in v) for v in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, RingElement):
            return self.ring.multiply(self, other)
        if isinstance(other, int):
            return RingElement(self.ring, tuple(tuple(other * a for a in v) for v in self.coeffs))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int) -> "RingElement":
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        result = self.ring.one()
        for _ in range(exponent):
            result = result * self
        return result

    def is_zero(self) -> bool:
        return all(not a for v in self.coeffs for a in v)

    def degree_part(self, degree: int) -> Vector:
        if not 0 <= degree <= self.ring.top_degree:
            return ()
        return self.coeffs[degree]

    def homogeneous_degree(self) -> int | None:
        """The single degree in which the element is supported, or None."""
        degrees = [d for d, v in enumerate(self.coeffs) if any(v)]
        if len(degrees) != 1:
            return None
        return degrees[0]

    def __str__(self) -> str:
        return format_vector(chain.from_iterable(self.ring.basis_labels), chain.from_iterable(self.coeffs))


class GradedMap:
    """A graded additive map between two :class:`GradedRing` values.

    ``matrices[d]`` sends the degree-``d`` component of the source into degree
    ``d + shift`` of the target (rows indexed by target basis, columns by
    source basis).  Every source degree gets its stored matrix at
    construction: an omitted one is stored as the zero matrix, and one whose
    ``d + shift`` lies outside the target's range as ``()``, the zero group.
    Each matrix is held once; :meth:`columns` reads its transpose when asked.
    """

    def __init__(
        self,
        source: GradedRing,
        target: GradedRing,
        shift: int,
        matrices: Mapping[int, Sequence[Sequence[int]]],
        is_ring_hom: bool = False,
    ) -> None:
        self.source = source
        self.target = target
        self.shift = shift
        # target.rank is 0 outside the target, so such a degree stores ()
        self.matrices = {
            d: ((0,) * source.rank(d),) * target.rank(d + shift) for d in range(source.top_degree + 1)
        }
        for d, matrix in matrices.items():
            if not 0 <= d <= source.top_degree:
                raise ValueError(f"matrix for out-of-range source degree {d}")
            td, rows = d + shift, tuple(_as_vec(row, source.rank(d), "matrix[{}] row", d) for row in matrix)
            if not 0 <= td <= target.top_degree:
                if any(map(any, rows)):
                    raise ValueError(f"nonzero matrix into missing target degree {td}")
                continue
            if len(rows) != target.rank(td):
                raise ValueError(f"matrix[{d}] must have {target.rank(td)} rows")
            self.matrices[d] = rows
        self.is_ring_hom = bool(is_ring_hom)
        if self.is_ring_hom:
            self._check_ring_hom()

    def matrix(self, degree: int) -> tuple[Vector, ...]:
        if 0 <= degree <= self.source.top_degree:
            return self.matrices[degree]
        return ((),) * self.target.rank(degree + self.shift)

    def columns(self, degree: int) -> tuple[Vector, ...]:
        """Images of the degree-``degree`` basis elements, as degree ``degree + shift``
        vectors (empty when that degree is outside the target), read off ``matrices[degree]``."""
        return tuple(zip(*self.matrices[degree])) or ((),) * self.source.rank(degree)

    def apply(self, x: RingElement) -> RingElement:
        if x.ring != self.source:
            raise RingMismatchError("element does not live in the source ring")
        shift, mats = self.shift, self.matrices  # target.element drops degrees outside its range
        return self.target.element({d + shift: mat_vec(mats[d], vec) for d, vec in enumerate(x.coeffs)})

    def _check_ring_hom(self) -> None:
        if self.shift != 0:
            raise ValueError("a ring homomorphism cannot shift degrees")
        if self.matrix(0) != ((1,),):  # the image of the unit is the unit
            raise ValueError("ring homomorphism must preserve the unit")
        # F(x.y), F's rows dotted with T(i1, i2), against F(x).F(y), F(y) dotted with each coordinate
        # of F(x).e'_b over b, on basis pairs in the order d1 >= 1, i1, d2 >= d1, i2: F(1.y) = F(y) =
        # 1'.F(y) by F(1) = 1' and the unit rows.  Both tables are symmetric, so when d2 = d1 only
        # i2 >= i1 is checked: the mirror of a pair with i2 < i1 is the same identity and comes earlier.
        # Above the target's top degree both sides are (), so d2 stops at target.top_degree - d1.
        source, target = self.source, self.target
        columns = [self.columns(d) for d in range(source.top_degree + 1)]  # F(e_i), each transposed once
        for d1 in range(1, source.top_degree + 1):
            per_d2 = [
                (d2, self.matrix(d1 + d2), source.product_table(d1, d2), target.multiplication(d1, d2))
                for d2 in range(d1, min(source.top_degree, target.top_degree - d1) + 1)
            ]
            for i1, fx in enumerate(columns[d1]):
                for d2, rows, xy_table, times in per_d2:
                    fx_cols = tuple(zip(*times(fx))) or ((),) * len(rows)  # F(x).e'_b, by coordinate
                    start = i1 if d2 == d1 else 0
                    for i2, (xy, fy) in enumerate(zip(xy_table[i1][start:], columns[d2][start:]), start):
                        if tuple(map(dot, rows, repeat(xy))) != tuple(map(dot, fx_cols, repeat(fy))):
                            raise ValueError(
                                f"multiplicativity fails on "
                                f"({self.source.basis_labels[d1][i1]}, "
                                f"{self.source.basis_labels[d2][i2]})"
                            )


def kernel_lattice(f: GradedMap, degree: int) -> list[Vector]:
    """Saturated basis of the integer kernel of ``f`` in one source degree."""
    if not 0 <= degree <= f.source.top_degree:
        raise DegreeError(f"degree {degree} is out of range for the source ring")
    return kernel_basis(f.matrix(degree), ncols=f.source.rank(degree))


lattice_membership = lattice_contains  # True iff ``vec`` is in the integer span of ``basis``
