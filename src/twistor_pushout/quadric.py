"""The smooth quadric surface P1 x P1: divisor classes, ruling swap, cohomology.

The intersection ring has one generator per ruling, written ``b`` (fibre of
the projection to the blown-up line) and ``w`` (fibre of the other ruling),
with b^2 = w^2 = 0 and b.w = [pt].  A class is its ring element, stored in
(b, w) coordinates; the normal class z := b - w is :func:`class_z`.

Line-bundle cohomology on the quadric is a product of P1 factors, so the
dimensions come in closed form rather than from complexes.
"""

from __future__ import annotations

from ._value import Value
from .rings import DegreeError, GradedMap, GradedRing, RingElement

_QUADRIC_PRODUCTS = {
    (1, 0, 1, 0): (0,),  # b.b
    (1, 0, 1, 1): (1,),  # b.w = [pt]
    (1, 1, 1, 1): (0,),  # w.w
}


def quadric_ring() -> GradedRing:
    """The intersection ring of P1 x P1 with its degree functional."""
    return GradedRing(
        top_degree=2,
        basis_labels=[["1"], ["b", "w"], ["pt"]],
        products=_QUADRIC_PRODUCTS,
        degree_functional=[1],
        name="CH(P1xP1)",
    )


_RING = quadric_ring()


def ruling_swap_map(ring: GradedRing) -> GradedMap:
    """The ring isomorphism exchanging the two rulings (b <-> w, fixing 1 and pt).

    The two exceptional quadrics of a glued pair are identified through this
    swap; since it is an involution, pushforward and pullback coincide.
    """
    return GradedMap(
        ring,
        ring,
        shift=0,
        matrices={0: [[1]], 1: [[0, 1], [1, 0]], 2: [[1]]},
        is_ring_hom=True,
    )


_SWAP = ruling_swap_map(_RING)


class Bidegree(Value):
    """A divisor class m*b + n*w recorded by its pair of integers."""

    m: int
    n: int


class QuadricClass(Value):
    """An element of the quadric ring; equal classes have equal elements."""

    element: RingElement

    def _check(self) -> None:
        if self.element.ring != _RING:
            raise ValueError("QuadricClass elements must live in the quadric ring")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls) -> "QuadricClass":
        return cls(_RING.zero())

    @classmethod
    def point(cls, multiplicity: int = 1) -> "QuadricClass":
        return cls(_RING.homogeneous(2, [multiplicity]))

    @classmethod
    def from_bw(cls, b: int = 0, w: int = 0) -> "QuadricClass":
        return cls(_RING.homogeneous(1, [b, w]))

    # -- coordinates -----------------------------------------------------------

    def coeffs_bw(self) -> tuple[int, int]:
        b, w = self.element.degree_part(1)
        return b, w

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "QuadricClass") -> "QuadricClass":
        return QuadricClass(self.element + other.element)

    def __sub__(self, other: "QuadricClass") -> "QuadricClass":
        return QuadricClass(self.element - other.element)

    def __neg__(self) -> "QuadricClass":
        return QuadricClass(-self.element)

    def __mul__(self, other):
        if isinstance(other, QuadricClass):
            return QuadricClass(self.element * other.element)
        if isinstance(other, int):
            return QuadricClass(self.element * other)
        return NotImplemented

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.element.is_zero()

    def __str__(self) -> str:
        return str(self.element)


def class_b() -> QuadricClass:
    return QuadricClass.from_bw(1, 0)


def class_w() -> QuadricClass:
    return QuadricClass.from_bw(0, 1)


def class_z() -> QuadricClass:
    return QuadricClass.from_bw(1, -1)


def hyperplane_class() -> QuadricClass:
    """The class b + w of the (1,1) polarization (a generic twistor-line section)."""
    return QuadricClass.from_bw(1, 1)


def ruling_swap_pushforward(x: QuadricClass) -> QuadricClass:
    """Push a class through the ruling-exchanging identification (b <-> w)."""
    return QuadricClass(_SWAP.apply(x.element))


def intersection_number(x: QuadricClass, y: QuadricClass) -> int:
    """Coefficient of [pt] in the product of two degree-1 classes."""
    for cls in (x, y):
        if not cls.is_zero() and cls.element.homogeneous_degree() != 1:
            raise DegreeError("intersection numbers are defined for degree-1 classes")
    return _RING.zero_cycle_degree(x.element * y.element)


def arithmetic_genus(divisor: Bidegree) -> int:
    """Arithmetic genus of a curve of class m*b + n*w: (m-1)(n-1) by adjunction."""
    return (divisor.m - 1) * (divisor.n - 1)


def canonical_class() -> QuadricClass:
    return QuadricClass.from_bw(-2, -2)


def line_bundle_cohomology(a: int, b: int) -> tuple[int, int, int]:
    """(h0, h1, h2) of O(a, b) on the quadric, via the product of P1 factors."""
    def p(n: int) -> int:
        return max(0, n + 1)

    def q(n: int) -> int:
        return max(0, -n - 1)

    return (p(a) * p(b), p(a) * q(b) + q(a) * p(b), q(a) * q(b))
