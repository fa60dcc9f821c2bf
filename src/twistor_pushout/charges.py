"""Specialization bookkeeping, glued-bundle data and charge arithmetic.

Cycles on the singular central fibre are represented as component pairs (one
class per branch) plus a matched flag; no quotient presentation of the
central fibre's cycle groups is ever built, because every downstream quantity
(degrees, charges, obstruction counts) is a function of the pair.  Poincare
duality on the smooth branches is used freely: codimension-graded ring
elements stand for dimension-graded cycles.
"""

from __future__ import annotations

from ._value import Value
from .pushout import ComponentPair, PushoutPair
from .quadric import line_bundle_cohomology

Monomial = tuple[int, ...]
Polynomial = dict[Monomial, int]  # exponent vector -> integer coefficient


class CentralFibreCycle(Value):
    """A cycle on the central fibre: component classes plus the matched flag."""

    pair: ComponentPair
    matched: bool


def specialize(geometry: PushoutPair, pair: ComponentPair) -> CentralFibreCycle:
    """Record a homogeneous component pair as a central-fibre cycle.

    The matched flag is computed, never trusted; a codimension mismatch
    between the two components is an error.
    """
    pair.codimension()
    return CentralFibreCycle(pair, geometry.is_matched(pair))


def _validate_polynomial(poly: Polynomial, nvars: int) -> None:
    for exponents in poly:
        if len(exponents) != nvars:
            raise ValueError("polynomial exponent vectors must cover all variables")
        if any(e < 0 for e in exponents):
            raise ValueError("polynomial exponents must be non-negative")


def practical_lift(
    geometry: PushoutPair, poly: Polynomial, divisor_pairs: list[ComponentPair]
) -> CentralFibreCycle:
    """Evaluate an integer polynomial on matched divisor pairs, componentwise.

    Classes cut out by line bundles on the whole family restrict compatibly to
    the two branches, so any polynomial in them stays matched; the inputs must
    each be matched in codimension 1, and the output records its (always true)
    matched flag rather than trusting that argument.
    """
    _validate_polynomial(poly, len(divisor_pairs))
    for pair in divisor_pairs:
        if pair.codimension() not in (1, None):
            raise ValueError("practical_lift takes codimension-1 pairs")
        if not geometry.is_matched(pair):
            raise ValueError("practical_lift requires matched input pairs")
    first = geometry.branch1.ring.zero()
    second = geometry.branch2.ring.zero()
    for exponents, coefficient in poly.items():
        term1 = geometry.branch1.ring.one()
        term2 = geometry.branch2.ring.one()
        for pair, power in zip(divisor_pairs, exponents):
            term1 = term1 * pair.first**power
            term2 = term2 * pair.second**power
        first = first + coefficient * term1
        second = second + coefficient * term2
    pair = ComponentPair(first, second)
    # mixed-degree polynomials give honestly inhomogeneous output; matching
    # still holds degree by degree, so bypass specialize's homogeneity check
    return CentralFibreCycle(pair, geometry.is_matched(pair))


class GluedBundleData(Value):
    """Chern data of a bundle glued across the double locus.

    ``restriction_to_quadric_trivial`` asserts the bundle restricts trivially
    to the quadric on both branches; in that case the Chern pairs must match
    along the double locus and the obstruction count below is exact.
    ``h2_end_dims`` are the branchwise endomorphism obstruction dimensions.
    """

    geometry: PushoutPair
    rank: int
    c1_pair: ComponentPair
    c2_pair: ComponentPair
    restriction_to_quadric_trivial: bool
    h2_end_dims: tuple[int, int]

    def _check(self) -> None:
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        for degree, pair, what in ((1, self.c1_pair, "c1"), (2, self.c2_pair, "c2")):
            if pair.codimension() not in (degree, None):
                raise ValueError(f"{what} pair must have codimension {degree}")
        if len(self.h2_end_dims) != 2:
            raise ValueError("h2_end needs one obstruction dimension per branch")
        if any(d < 0 for d in self.h2_end_dims):
            raise ValueError("obstruction dimensions are non-negative")
        if self.restriction_to_quadric_trivial:
            for pair, what in ((self.c1_pair, "c1"), (self.c2_pair, "c2")):
                if not self.geometry.is_matched(pair):
                    raise ValueError(
                        f"a bundle trivial on the double locus needs a matched {what} pair"
                    )


def glued_c2_cycle(bundle: GluedBundleData) -> CentralFibreCycle:
    """The second Chern cycle of the glued bundle: the branch pair, verbatim.

    No cross-term supported on the double locus ever appears; in particular
    the result does not depend on the gluing isomorphism, which is why that
    datum is not represented at all.
    """
    return specialize(bundle.geometry, bundle.c2_pair)


def branch_charge_degrees(
    bundle: GluedBundleData, polarization: ComponentPair
) -> tuple[int, int]:
    """Per-branch degrees of c2 . H, with no matching requirement.

    Without a matched polarization (or without the deformation assumption)
    these are central-fibre degrees rather than smooth-fibre charges.
    """
    if polarization.codimension() not in (1, None):
        raise ValueError("polarization must be a codimension-1 pair")
    g = bundle.geometry
    return (
        g.branch1.ring.zero_cycle_degree(bundle.c2_pair.first * polarization.first),
        g.branch2.ring.zero_cycle_degree(bundle.c2_pair.second * polarization.second),
    )


def polarized_charge(bundle: GluedBundleData, polarization: ComponentPair) -> int:
    """Degree of c2 . H over the central fibre: the sum of the branch degrees.

    The polarization pair must be matched; pass an unmatched pair to
    :func:`branch_charge_degrees` instead if only the raw degrees are wanted.
    """
    if not bundle.geometry.is_matched(polarization):
        raise ValueError("polarized_charge requires a matched polarization pair")
    return sum(branch_charge_degrees(bundle, polarization))


def obstruction_dim(bundle: GluedBundleData) -> int:
    """Dimension of the endomorphism obstruction space of the glued bundle.

    With the restriction to the quadric trivial, the middle cohomology of the
    double locus vanishes and the gluing exact sequence makes the count
    exactly additive; without triviality only an inequality holds, so the
    operation refuses.
    """
    if not bundle.restriction_to_quadric_trivial:
        raise ValueError(
            "obstruction dimension is only additive when the restriction to the "
            "double locus is trivial"
        )
    return bundle.h2_end_dims[0] + bundle.h2_end_dims[1]


def formal_triviality_obstructions(m_max: int, rank: int) -> list[int]:
    """Obstruction dimensions rank^2 * h1(O(m+1, m+1)) for m = 0..m_max.

    These control extending a trivialization across infinitesimal
    neighbourhoods of the quadric; every entry vanishes.
    """
    if m_max < 0 or rank < 1:
        raise ValueError("need m_max >= 0 and rank >= 1")
    return [rank * rank * line_bundle_cohomology(m + 1, m + 1)[1] for m in range(m_max + 1)]


def ward_gluing_space_dim(rank: int) -> int:
    """Dimension rank^2 of the space of gluings of trivialized restrictions:
    every gluing is a constant matrix because h0(O) = 1."""
    if rank < 1:
        raise ValueError("rank must be at least 1")
    return rank * rank * line_bundle_cohomology(0, 0)[0]

