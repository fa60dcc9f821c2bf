"""The fixed-point-free real structure on the quadric, over exact coordinates.

The antiholomorphic involution acts factorwise by [z0 : z1] -> [-conj(z1) :
conj(z0)], which has no fixed points even projectively.  On sections of the
(1,1) polarization it induces an antilinear involution whose fixed vectors
form a real four-dimensional space; two of them span an invariant pencil
whose base locus is a conjugate pair of non-real points.  All arithmetic is
in the Gaussian rationals and every projective comparison is done by
cross-multiplication, so nothing here is numerical.
"""

from __future__ import annotations

from ._value import Value
from .gaussian import GaussianScalar


BASEPOINT = object()  # returned where the pencil is undefined

ProjectivePair = tuple[GaussianScalar, GaussianScalar]


def _check_pair(pair: ProjectivePair, what: str) -> None:
    if pair[0].is_zero() and pair[1].is_zero():
        raise ValueError(f"{what}: projective coordinates cannot both vanish")


def pairs_projectively_equal(p: ProjectivePair, q: ProjectivePair) -> bool:
    """Equality up to a common nonzero scalar, by cross-multiplication."""
    return p[0] * q[1] == p[1] * q[0]


class QuadricPoint(Value):
    """A point of P1 x P1 with exact Gaussian-rational coordinates."""

    __slots__ = ("z", "w")  # constructed about three times per sampled point
    z: ProjectivePair
    w: ProjectivePair

    def __init__(self, z: ProjectivePair, w: ProjectivePair) -> None:
        _check_pair(z, "first factor")
        _check_pair(w, "second factor")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "w", w)

    def projectively_equal(self, other: "QuadricPoint") -> bool:
        return pairs_projectively_equal(self.z, other.z) and pairs_projectively_equal(
            self.w, other.w
        )

    def to_json(self) -> list:
        return [
            [c.to_string_pairs() for c in self.z],
            [c.to_string_pairs() for c in self.w],
        ]


def _scalar(v) -> GaussianScalar:
    return v if isinstance(v, GaussianScalar) else GaussianScalar.of(v)


def point(z0, z1, w0, w1) -> QuadricPoint:
    """Convenience constructor taking anything GaussianScalar.of accepts."""
    return QuadricPoint((_scalar(z0), _scalar(z1)), (_scalar(w0), _scalar(w1)))


def real_structure(p: QuadricPoint) -> QuadricPoint:
    """The factorwise antiholomorphic involution [-conj(z1) : conj(z0)]."""
    return QuadricPoint(
        (-p.z[1].conjugate(), p.z[0].conjugate()),
        (-p.w[1].conjugate(), p.w[0].conjugate()),
    )


def is_fixed_point(p: QuadricPoint) -> bool:
    """Always false: the involution is fixed-point free."""
    return real_structure(p).projectively_equal(p)


class Section11(Value):
    """A section a*z0w0 + b*z0w1 + c*z1w0 + d*z1w1 of the (1,1) polarization."""

    a: GaussianScalar
    b: GaussianScalar
    c: GaussianScalar
    d: GaussianScalar

    def coefficients(self) -> tuple[GaussianScalar, ...]:
        return (self.a, self.b, self.c, self.d)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coefficients())

    def __add__(self, other: "Section11") -> "Section11":
        return Section11(*(x + y for x, y in zip(self.coefficients(), other.coefficients())))

    def scale(self, factor: GaussianScalar) -> "Section11":
        return Section11(*(factor * c for c in self.coefficients()))

    def to_json(self) -> list:
        return [c.to_string_pairs() for c in self.coefficients()]


def section(a, b, c, d) -> Section11:
    """Convenience constructor taking anything GaussianScalar.of accepts."""
    return Section11(_scalar(a), _scalar(b), _scalar(c), _scalar(d))


def section_involution(s: Section11) -> Section11:
    """The induced antilinear involution: (a,b,c,d) -> (conj d, -conj c, -conj b, conj a)."""
    return Section11(
        s.d.conjugate(),
        -s.c.conjugate(),
        -s.b.conjugate(),
        s.a.conjugate(),
    )


def is_invariant_section(s: Section11) -> bool:
    """Whether :func:`section_involution` fixes ``s``: d = conj(a) and c = -conj(b)."""
    return section_involution(s) == s


def invariant_section_from_reals(a1, a2, b1, b2) -> Section11:
    """The invariant section [a1 + i a2 : b1 + i b2 : -b1 + i b2 : a1 - i a2].

    The four real parameters sweep out the whole fixed space, so the images of
    the standard basis vectors give a rational basis of it.  Invariance is an
    identity the ``real`` report checks, not an assertion here.
    """
    a, b = GaussianScalar.of(a1, a2), GaussianScalar.of(b1, b2)
    s = Section11(a, b, -b.conjugate(), a.conjugate())
    if s.is_zero():
        raise ValueError("the zero section is excluded")
    return s


# the two generators of the invariant pencil, built once: sections are immutable
_PENCIL_1 = section(1, 0, 0, 1)
_PENCIL_2 = section(0, 1, -1, 0)


def evaluate_section(s: Section11, p: QuadricPoint) -> GaussianScalar:
    """Bilinear evaluation in the chosen affine representatives; vanishing is
    well defined projectively."""
    z0, z1 = p.z
    w0, w1 = p.w
    return s.a * z0 * w0 + s.b * z0 * w1 + s.c * z1 * w0 + s.d * z1 * w1


def pencil_value(p: QuadricPoint):
    """[s1 : -s2] at the point, or BASEPOINT when both sections vanish."""
    v1 = evaluate_section(_PENCIL_1, p)
    v2 = evaluate_section(_PENCIL_2, p)
    if v1.is_zero() and v2.is_zero():
        return BASEPOINT
    return (v1, -v2)


def base_locus() -> list[QuadricPoint]:
    """Solve s1 = s2 = 0 exactly.

    Vanishing of s2 forces z0*w1 = z1*w0; if z0 = 0 the equations collapse the
    second factor, so z0 can be normalized to 1, giving w1 = z1*w0 and then
    w0*(1 + z1^2) = 0 from s1.  Since w0 = 0 is impossible, z1^2 = -1, which
    has the two Gaussian-rational solutions below; the ``real`` report checks
    that the pencil vanishes at both.
    """
    i = GaussianScalar.i()
    one = GaussianScalar.one()
    return [QuadricPoint((one, z1), (one, z1)) for z1 in (i, -i)]
