"""Blow-up of a twistor space along a twistor line, and the glued double ring.

Blowing up a compact twistor threefold along a twistor line (normal bundle
O(1)+O(1)) replaces the line with a quadric P1 x P1 and extends the
intersection ring by two exceptional generators: the divisor class ``Q`` of
the quadric and the pushed-forward fibre class ``j*b``.  The full product
table is determined by the base ring, the class of the blown-up line, and the
twistor degrees of the degree-1 generators.

One point deserves emphasis because the literature sometimes gets it wrong.
With centre normal bundle O(1)+O(1), the restriction O(Q)|_Q has bidegree
(1, -1), with degree -1 on the fibres of the contraction and degree +1 on
the sections, as adjunction forces:

    K_Q = (f*K_Z + 2Q)|_Q  =>  -2b - 2w = -4b + 2*c1(O(Q)|_Q).

Consequently Q restricts to z = b - w on the quadric (not to -(b + w)), the
self-intersection is Q^2 = 2*j*b - f*[line], and the compatible operational
pair built from the two exceptional divisors is ([Q1], -[Q2]).  With these
values the restriction map is a ring homomorphism, the projection formula
holds on all basis pairs, and the glued equalizer below is closed under
products; the (-(b+w)) convention breaks all three.

Two blown-up branches glue along their quadrics through the ruling swap, and
the operational classes of the glued space are the pairs whose restrictions
match; they form, degree by degree, a saturated integer lattice computed by
an exact kernel, with componentwise product.  Its product closure is derived:
the matched pairs are the equalizer of two ring homomorphisms, a subring, and a
linear-time certificate shows each lattice is the saturated kernel, so it holds
them all.  A lattice that cannot be certified has each product formed instead.
"""

from __future__ import annotations

from ._value import Value
from .quadric import _RING, _SWAP, QuadricClass
from .rings import (
    DegreeError,
    GradedMap,
    GradedRing,
    RingElement,
    RingMismatchError,
    Vector,
    combination,
    dot,
    mat_mul,
    mat_vec,
)

TWISTOR_TOP = 3


class TwistorChow(Value):
    """Intersection ring of a compact twistor threefold plus blow-up data.

    ``twistor_degrees`` lists, per degree-1 basis class, its degree on the
    blown-up line; consistency with ``line_class`` under the degree functional
    is enforced because the blown-up product table is associative only then.
    """

    ring: GradedRing
    line_class: RingElement
    twistor_degrees: tuple[int, ...]
    point_class: RingElement

    def _check(self) -> None:
        ring = self.ring
        if ring.top_degree != TWISTOR_TOP:
            raise ValueError("twistor base rings have top degree 3")
        if ring.degree_functional is None:
            raise ValueError("twistor base rings need a degree functional")
        if self.line_class.ring != ring or self.point_class.ring != ring:
            raise RingMismatchError("line and point classes must live in the base ring")
        if self.line_class.homogeneous_degree() != 2 or self.line_class.is_zero():
            raise ValueError("line_class must be a nonzero degree-2 class")
        if self.point_class.homogeneous_degree() != TWISTOR_TOP:
            raise ValueError("point_class must be a degree-3 class")
        if ring.zero_cycle_degree(self.point_class) != 1:
            raise ValueError("point_class must have degree 1")
        if len(self.twistor_degrees) != ring.rank(1):
            raise ValueError("one twistor degree per degree-1 basis class")
        # line.e_i for every degree-1 basis class e_i, in one call
        products = ring.multiplication(2, 1)(self.line_class.degree_part(2))
        for i, (d, product) in enumerate(zip(self.twistor_degrees, products)):
            if dot(ring.degree_functional, product) != d:
                raise ValueError(
                    f"twistor degree of {ring.basis_labels[1][i]} is inconsistent "
                    f"with the line class"
                )

    def to_json_dict(self) -> dict:
        doc = self.ring.to_json_dict()
        doc["line_class"] = list(self.line_class.degree_part(2))
        doc["twistor_degrees"] = list(self.twistor_degrees)
        doc["point_class"] = list(self.point_class.degree_part(TWISTOR_TOP))
        return doc


def projective_space_base() -> TwistorChow:
    """CH(P3) = Z[h]/h^4 with a line as blow-up centre (twistor space of S^4)."""
    ring = GradedRing(
        top_degree=3,
        basis_labels=[["1"], ["h"], ["h2"], ["h3"]],
        products={
            (1, 0, 1, 0): (1,),  # h.h = h2
            (1, 0, 2, 0): (1,),  # h.h2 = h3
        },
        degree_functional=[1],
        name="CH(P3)",
    )
    return TwistorChow(
        ring=ring,
        line_class=ring.homogeneous(2, [1]),
        twistor_degrees=(1,),
        point_class=ring.homogeneous(3, [1]),
    )


def flag_threefold_base() -> TwistorChow:
    """The flag threefold (twistor space of the reversed-orientation CP^2).

    Generators x, y are the two hyperplane pullbacks, with x^2 - xy + y^2 = 0
    and x^3 = 0; degree-2 basis {xy, y^2}, point class x*y^2.  Twistor fibres
    have bidegree (1,1), so the line class is xy and both twistor degrees are 1.
    """
    ring = GradedRing(
        top_degree=3,
        basis_labels=[["1"], ["x", "y"], ["xy", "y2"], ["xy2"]],
        products={
            (1, 0, 1, 0): (1, -1),  # x.x = xy - y2
            (1, 0, 1, 1): (1, 0),   # x.y = xy
            (1, 1, 1, 1): (0, 1),   # y.y = y2
            (1, 0, 2, 0): (1,),     # x.xy = x2y = xy2
            (1, 0, 2, 1): (1,),     # x.y2 = xy2
            (1, 1, 2, 0): (1,),     # y.xy = xy2
            (1, 1, 2, 1): (0,),     # y.y2 = y3 = 0
        },
        degree_functional=[1],
        name="CH(Flag)",
    )
    return TwistorChow(
        ring=ring,
        line_class=ring.homogeneous(2, [1, 0]),
        twistor_degrees=(1, 1),
        point_class=ring.homogeneous(3, [1]),
    )


BUILTIN_BASES = {
    "p3": projective_space_base,
    "flag": flag_threefold_base,
}


def builtin_base(name: str) -> TwistorChow:
    try:
        return BUILTIN_BASES[name]()
    except KeyError:
        raise ValueError(f"unknown built-in base {name!r}; choose from {sorted(BUILTIN_BASES)}")


class BlownUpChow(Value):
    """The intersection ring of a blow-up along a twistor line, with both maps.

    ``restriction_to_quadric`` is the ring-homomorphic pullback to the
    exceptional quadric; ``pushforward_from_quadric`` shifts degrees by one
    (the codimension of the quadric's classes in the threefold).
    """

    base: TwistorChow
    ring: GradedRing
    quadric: GradedRing
    restriction_to_quadric_map: GradedMap
    pushforward_from_quadric: GradedMap

    # -- distinguished elements -------------------------------------------------

    def exceptional_class(self) -> RingElement:
        return self.ring.basis_element(1, self.ring.rank(1) - 1)

    def pushed_fibre_class(self) -> RingElement:
        return self.ring.basis_element(2, self.ring.rank(2) - 1)

    def pulled_back(self, x: RingElement) -> RingElement:
        """Embed a base-ring class into the blown-up ring (the map f*)."""
        if x.ring != self.base.ring:
            raise RingMismatchError("element does not live in the base ring")
        ring = self.ring
        return ring.element({d: vec + (0,) * (ring.rank(d) - len(vec)) for d, vec in enumerate(x.coeffs)})

    def pulled_back_line(self) -> RingElement:
        return self.pulled_back(self.base.line_class)

    def point(self) -> RingElement:
        return self.pulled_back(self.base.point_class)

    def restrict_to_quadric(self, x: RingElement) -> QuadricClass:
        return QuadricClass(self.restriction_to_quadric_map.apply(x))

    # -- structural checks --------------------------------------------------------

    def check_projection_formula(self) -> None:
        """j_*(j^*(x) . g) = x . j_*(g) on all basis pairs; raises on failure.

        The left side pushes forward ``multiplication`` of j^*(x) on the quadric, the right
        side combines the row of x . e_m upstairs by j_*(g), compared on the pairs in the order
        d1, i1, d2, i2.  The restriction is a ring homomorphism, so it keeps degrees; where
        d1 + d2 is above the quadric's top degree both sides are zero, so those pairs are left
        out.  ``ring-show`` runs it on the branch it shows; ``blow_up`` says why it does not.
        """
        ring, quad, push = self.ring, self.quadric, self.pushforward_from_quadric
        pushed = [push.columns(d2) for d2 in range(quad.top_degree + 1)]  # j_*(g), by the degree of g
        for d1 in range(quad.top_degree + 1):
            # per degree d2 of g: u -> u.g over g on the quadric, j_* after it, x.e_m upstairs
            per_d2 = [
                (quad.multiplication(d1, d2), push.matrix(d1 + d2), ring.product_table(d1, d2 + push.shift))
                for d2 in range(quad.top_degree + 1 - d1)
            ]
            for i1, jx in enumerate(self.restriction_to_quadric_map.columns(d1)):
                for d2, (times, push_rows, x_table) in enumerate(per_d2):
                    jx_times, length = times(jx), ring.rank(d1 + d2 + push.shift)
                    for i2, pushed_g in enumerate(pushed[d2]):
                        if mat_vec(push_rows, jx_times[i2]) != combination(pushed_g, x_table[i1], length):
                            raise ValueError(
                                f"projection formula fails on "
                                f"({ring.basis_labels[d1][i1]}, "
                                f"{quad.basis_labels[d2][i2]})"
                            )


def blow_up(base: TwistorChow) -> BlownUpChow:
    """Blow up the base along the chosen twistor line and build the full table.

    The ring extends the base ring, whose products it builds padded with zeros, so only the
    products with Q or j.b are given here and only the degree-1 multisets with Q are checked
    for associativity: every identity follows, none sampled.  ``ring-show`` checks the projection
    formula: each basis pair but (f.a, w) reads an entry written here, and on (f.a, w) it is
    f*(a . line) = deg(a) f*[point], the associativity of (f.a, Q, Q) that the ring checks."""
    R = base.ring
    quad = _RING
    labels = [
        list(R.basis_labels[0]),
        [f"f.{s}" for s in R.basis_labels[1]] + ["Q"],
        [f"f.{s}" for s in R.basis_labels[2]] + ["j.b"],
        [f"f.{s}" for s in R.basis_labels[3]],
    ]
    r1, r2 = R.rank(1), R.rank(2)
    q_idx, jb_idx = r1, r2  # positions of the exceptional generators
    line_vec = base.line_class.degree_part(2)
    point_vec = base.point_class.degree_part(3)

    products = {}  # the ring extends R: only the products with Q are given
    # Q . f*a = (twistor degree of a) . j*b   for degree-1 a
    for i, deg in enumerate(base.twistor_degrees):
        out = [0] * len(labels[2])
        out[jb_idx] = deg
        products[(1, q_idx, 1, i)] = tuple(out)

    # Q^2 = 2 j*b - f*[line]   (self-intersection through O(Q)|_Q of bidegree (1,-1))
    q_square = [-c for c in line_vec] + [2]
    products[(1, q_idx, 1, q_idx)] = tuple(q_square)

    # Q . j*b = -[pt]; the ring zero-fills Q . f*b = 0 for degree-2 b (the line has
    # no degree-2 classes) and f*a . j*b = 0 for degree-1 a
    products[(1, q_idx, 2, jb_idx)] = tuple(-c for c in point_vec)

    ring = GradedRing(
        top_degree=TWISTOR_TOP,
        basis_labels=labels,
        products=products,
        degree_functional=list(R.degree_functional or ()),
        name=f"CH(Bl {R.name or 'base'})",
        _base=R,
    )

    # restriction to the quadric: f*a -> deg(a) b, Q -> b - w, f*b -> 0, j*b -> -pt
    restrict_d1 = [
        list(base.twistor_degrees) + [1],   # b row
        [0] * r1 + [-1],                    # w row
    ]
    restrict_d2 = [[0] * r2 + [-1]]         # pt row
    restriction = GradedMap(
        ring,
        quad,
        shift=0,
        matrices={0: [[1]], 1: restrict_d1, 2: restrict_d2},
        is_ring_hom=True,
    )

    # pushforward: 1 -> Q, b -> j*b, w -> f*[line] - j*b, pt -> f*[point]
    push_d0 = [[1] if k == q_idx else [0] for k in range(len(labels[1]))]
    push_d1 = [[0, c] for c in line_vec] + [[1, -1]]  # rows f*b then j*b
    push_d2 = [[point_vec[k]] for k in range(len(labels[3]))]
    pushforward = GradedMap(
        quad,
        ring,
        shift=1,
        matrices={0: push_d0, 1: push_d1, 2: push_d2},
    )

    return BlownUpChow(
        base=base,
        ring=ring,
        quadric=quad,
        restriction_to_quadric_map=restriction,
        pushforward_from_quadric=pushforward,
    )


class ComponentPair(Value):
    """A pair of classes with equal degree support, one on each blown-up branch.

    Cycle pairs are homogeneous of one codimension; polynomial lifting also
    produces honest mixed-degree pairs, so only equality of the two supports
    is enforced here, and a single codimension where a caller needs one.
    """

    first: RingElement
    second: RingElement

    def supported_degrees(self) -> tuple[int, ...]:
        """Degrees in which either component is nonzero."""
        return tuple(
            d
            for d in range(self.first.ring.top_degree + 1)
            if any(self.first.degree_part(d)) or any(self.second.degree_part(d))
        )

    def codimension(self) -> int | None:
        """The common codimension of a homogeneous pair (None for the zero pair)."""
        degrees = []
        for element in (self.first, self.second):
            if element.is_zero():
                continue
            degree = element.homogeneous_degree()
            if degree is None:
                raise DegreeError("pair components must be homogeneous")
            degrees.append(degree)
        if not degrees:
            return None
        if len(set(degrees)) > 1:
            raise DegreeError("pair components have different codimension")
        return degrees[0]


class PushoutPair:
    """Two blown-up branches glued along their quadrics through the ruling swap.

    A pair of branch classes defines a class on the glued space exactly when
    the two restrictions to the double locus agree after transporting the
    second branch through the swap.
    """

    def __init__(self, branch1: BlownUpChow, branch2: BlownUpChow) -> None:
        if branch1.quadric != branch2.quadric:
            raise RingMismatchError("branches must share the quadric ring")
        self.branch1 = branch1
        self.branch2 = branch2
        self.quadric = branch1.quadric
        self.swap = _SWAP

    def pair(self, first: RingElement, second: RingElement) -> ComponentPair:
        if first.ring != self.branch1.ring or second.ring != self.branch2.ring:
            raise RingMismatchError("pair components must live on the two branches")
        return ComponentPair(first, second)

    def matching_defect(self, pair: ComponentPair) -> RingElement:
        """Restriction of branch 1 minus swapped restriction of branch 2."""
        r1 = self.branch1.restriction_to_quadric_map.apply(pair.first)
        r2 = self.branch2.restriction_to_quadric_map.apply(pair.second)
        return r1 - self.swap.apply(r2)

    def is_matched(self, pair: ComponentPair) -> bool:
        """Whether the two restrictions agree on the double locus, degree by degree."""
        return self.matching_defect(pair).is_zero()

    def exceptional_pair(self) -> ComponentPair:
        """The compatible operational divisor class carried by the double locus.

        Both exceptional divisors restrict to z on the quadric and the swap
        negates z, so the matched pair is ([Q1], -[Q2]).
        """
        return ComponentPair(
            self.branch1.exceptional_class(), -self.branch2.exceptional_class()
        )

    def matching_matrix(self, degree: int) -> list[list[int]]:
        """Matrix of (a1, a2) -> j1*(a1) - swap(j2*(a2)) on the degree-k bases."""
        if not 0 <= degree <= TWISTOR_TOP:
            raise DegreeError(f"degree {degree} out of range")
        j1 = self.branch1.restriction_to_quadric_map.matrix(degree)
        j2 = self.branch2.restriction_to_quadric_map.matrix(degree)
        swapped = mat_mul(self.swap.matrix(degree), j2)
        return [list(j1[r]) + [-c for c in swapped[r]] for r in range(self.quadric.rank(degree))]

    def equalizer(self) -> "EqualizerRing":
        from .intlin import kernel_basis

        ncols = [self.branch1.ring.rank(d) + self.branch2.ring.rank(d) for d in range(TWISTOR_TOP + 1)]
        lattices = (kernel_basis(self.matching_matrix(d), ncols=n) for d, n in enumerate(ncols))
        return EqualizerRing(self, tuple(map(tuple, lattices)))


class EqualizerRing(Value):
    """Per-degree lattices of matched pairs, with componentwise product.

    Pairs are stored as concatenated coefficient vectors (branch 1 followed by
    branch 2).  Each lattice is held once, as the Hermite rows of a saturated
    integer kernel, and a membership query reduces against those rows, so
    membership is exact lattice membership; closure under the componentwise
    product is a checkable theorem rather than an assumption.
    """

    geometry: PushoutPair
    lattices: tuple[tuple[Vector, ...], ...]

    def ranks(self) -> tuple[int, ...]:
        return tuple(len(basis) for basis in self.lattices)

    def _split(self, degree: int, vec: Vector) -> ComponentPair:
        n1 = self.geometry.branch1.ring.rank(degree)
        return ComponentPair(
            self.geometry.branch1.ring.homogeneous(degree, vec[:n1]),
            self.geometry.branch2.ring.homogeneous(degree, vec[n1:]),
        )

    def basis_pairs(self, degree: int) -> list[ComponentPair]:
        return [self._split(degree, vec) for vec in self.lattices[degree]]

    def contains(self, pair: ComponentPair) -> bool:
        from .intlin import lattice_contains

        first, second, lattices = pair.first.degree_part, pair.second.degree_part, self.lattices
        return all(lattice_contains(lattices[d], (*first(d), *second(d))) for d in pair.supported_degrees())

    def product(self, a: ComponentPair, b: ComponentPair) -> ComponentPair:
        return ComponentPair(a.first * b.first, a.second * b.second)

    def check_product_closure(self) -> None:
        """Verify products of lattice basis pairs stay matched and in the lattice.

        Closure is first derived.  When both branch restrictions j1, j2 and the swap s are
        ring homomorphisms, checked when they were built, between the rings they join here,
        the matched pairs {(a1, a2) : j1(a1) = s(j2(a2))} are the equalizer of the ring
        homomorphisms (a1, a2) -> j1(a1) and (a1, a2) -> s(j2(a2)), a subring (Fulton,
        *Intersection Theory*, ch. 17): a product of matched pairs is matched.  When, in
        every degree, ``intlin.kernel_certificate`` shows the lattice spans the saturated
        integer kernel of the matching matrix, every integer matched pair lies in it, so
        every product stays in the lattice and nothing is left to check.

        Otherwise, for a lattice that cannot be certified or a map not checked as a ring
        homomorphism, each ``product`` of two ``basis_pairs`` is formed and must be matched
        (``geometry.is_matched``) and in the lattice (``contains``).  Pairs are taken in the
        order d1, d2 >= d1, u, v, with v >= u when d2 = d1: the branch rings are commutative,
        so the mirror of such a pair, which comes earlier in that order, has the same product.
        """
        if not self._closure_is_derived():
            self._check_each_product()

    def _closure_is_derived(self) -> bool:
        """Whether closure follows without forming a product; see :meth:`check_product_closure`."""
        from .intlin import kernel_certificate

        geometry, quad = self.geometry, self.geometry.quadric
        branches = (geometry.branch1, geometry.branch2)
        maps = [branch.restriction_to_quadric_map for branch in branches] + [geometry.swap]
        joins = [(f.source, f.target) for f in maps] == [(b.ring, quad) for b in branches] + [(quad, quad)]
        if not (joins and all(f.is_ring_hom for f in maps) and len(self.lattices) == TWISTOR_TOP + 1):
            return False
        return not any(
            kernel_certificate(geometry.matching_matrix(d), basis, sum(b.ring.rank(d) for b in branches))
            for d, basis in enumerate(self.lattices)
        )

    def _check_each_product(self) -> None:
        """Form every product of two lattice basis pairs; see :meth:`check_product_closure`."""
        degrees = [(d1, d2) for d1 in range(TWISTOR_TOP + 1) for d2 in range(d1, TWISTOR_TOP + 1 - d1)]
        for d1, d2 in degrees:
            vs = self.basis_pairs(d2)
            for iu, u in enumerate(self.basis_pairs(d1)):
                for v in vs[iu:] if d1 == d2 else vs:
                    uv = self.product(u, v)
                    if not self.geometry.is_matched(uv):
                        raise ValueError(f"product of matched pairs is unmatched in degree {d1 + d2}")
                    if not self.contains(uv):
                        raise ValueError(f"product of lattice pairs leaves the lattice in degree {d1 + d2}")


def brute_force_matched_lattice(
    geometry: PushoutPair, degree: int, bound: int = 3
) -> list[Vector]:
    """Canonical basis of the lattice generated by all matched pairs with
    coefficients in [-bound, bound]; an independent oracle for the kernel.

    It reads only the matching matrix, never the equalizer's kernel lattices.
    """
    n = geometry.branch1.ring.rank(degree) + geometry.branch2.ring.rank(degree)
    return _matched_lattice_in_box(geometry.matching_matrix(degree), n, bound)


def _matched_lattice_in_box(matrix: list[list[int]], n: int, bound: int) -> list[Vector]:
    """Hermite basis of the lattice spanned by the solutions of ``matrix @ v = 0``
    in the box [-bound, bound]^n, found by meet in the middle.

    Split v = (x, y) into a left and a right half and bucket x by A_L x and y by
    -A_R y.  A bucket with left set L and right set R holds exactly the
    solutions L x R, and with x0 in L, y0 in R,

        (x, y) = (x0, y0) + (x - x0, 0) + (0, y - y0),
        (x - x0, 0) = (x, y0) - (x0, y0),  (0, y - y0) = (x0, y) - (x0, y0),

    so the |L| + |R| - 1 rows (x0, y0), (x - x0, 0) and (0, y - y0) span the same
    lattice as the |L| |R| solutions.  The Hermite form is canonical, so the
    result is the basis of the span of every solution in the box.
    """
    from itertools import product as iter_product

    from .intlin import hermite_row_basis

    half = n // 2
    box = range(-bound, bound + 1)
    left_rows = [row[:half] for row in matrix]
    right_rows = [row[half:] for row in matrix]
    lefts: dict[Vector, list[Vector]] = {}
    for x in iter_product(box, repeat=half):
        lefts.setdefault(tuple(dot(row, x) for row in left_rows), []).append(x)
    rights: dict[Vector, list[Vector]] = {}
    for y in iter_product(box, repeat=n - half):
        rights.setdefault(tuple(-dot(row, y) for row in right_rows), []).append(y)
    zero_x, zero_y = (0,) * half, (0,) * (n - half)
    generators = []
    for value, xs in lefts.items():
        ys = rights.get(value)
        if ys is None:
            continue
        x0, y0 = xs[0], ys[0]
        generators.append(x0 + y0)
        generators.extend(tuple(a - b for a, b in zip(x, x0)) + zero_y for x in xs[1:])
        generators.extend(zero_x + tuple(a - b for a, b in zip(y, y0)) for y in ys[1:])
    return hermite_row_basis(generators)
