"""Circle-bundle arithmetic for the fixed-phase boundary of the local model t = uv.

Near the double locus the degeneration looks like {uv = t}; as |t| -> 0 the
two branch phases survive subject to rho1 * rho2 = e^{i theta}, and the locus
of compatible phase pairs over the quadric is a principal circle bundle.
After choosing the first branch, it is the unit circle bundle of the normal
line bundle of the quadric, whose class is z = b - w (bidegree (1, -1); see
the discussion in :mod:`twistor_pushout.pushout`).  Restricting to a fibre of
the contraction gives the Hopf bundle, and character quotients of torus
bundles produce the familiar lens-space tags.  A bundle over the quadric
carries its class in the quadric ring; its restriction to a ruling fibre or
to a curve is the integer that ``quadric.intersection_number`` reads off that ring.

Phases are exact unit Gaussian rationals; moduli are carried as squared
moduli so every identity is checked with exact equality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from ._value import Value
from .gaussian import GaussianScalar

if TYPE_CHECKING:  # the quadric is imported where it is used, so a decoration loads no ring module
    from .quadric import Bidegree, QuadricClass


class CircleBundleClass(Value):
    """A circle bundle over the quadric, recorded by its first Chern class."""

    c1_class: QuadricClass


class RestrictedBundle(Value):
    """A restriction to a curve, by its integer first Chern class; ``curve=None`` is a ruling fibre."""

    c1_int: int
    curve: Bidegree | None = None


def kn_fixed_phase_bundle() -> CircleBundleClass:
    """The fixed-phase circle bundle over the quadric: the unit normal circle
    bundle of the first branch, with class z = b - w."""
    from .quadric import class_z

    return CircleBundleClass(class_z())


def raw_fibre_pairing(bundle: CircleBundleClass) -> int:
    """Signed pairing of the bundle class with the contraction-fibre class b."""
    from .quadric import class_b, intersection_number

    return intersection_number(bundle.c1_class, class_b())


def restrict_to_ruling_fibre_bundle(bundle: CircleBundleClass) -> RestrictedBundle:
    """Restrict to a contraction fibre, with the orientation convention that
    makes the fixed-phase bundle's value +1 (its raw pairing is -1)."""
    return RestrictedBundle(-raw_fibre_pairing(bundle))


def restrict_to_curve(bundle: CircleBundleClass, curve: Bidegree) -> RestrictedBundle:
    """Restrict to a curve of the given bidegree; the class is the intersection
    pairing of the bundle class with a*b + b*w."""
    from .quadric import QuadricClass, intersection_number

    pairing = intersection_number(bundle.c1_class, QuadricClass.from_bw(curve.m, curve.n))
    return RestrictedBundle(pairing, curve)


def character_quotient(chern_vector: tuple[int, int], character: tuple[int, int]) -> int:
    """First Chern class of the circle bundle associated to a torus bundle by
    the character (a, b): a*c1_first + b*c1_second."""
    a, b = character
    c1, c2 = chern_vector
    return a * c1 + b * c2


def lens_space_of(c1: int) -> str:
    """Total space of the circle bundle over the 2-sphere with the given class."""
    n = abs(int(c1))
    if n == 0:
        return "S2xS1"
    if n == 1:
        return "S3"
    if n == 2:
        return "RP3"
    return f"L({n},1)"


def antidiagonal_quotient_over_fibre(character: tuple[int, int] = (1, 1)) -> str:
    """Quotient of the fibrewise torus bundle (fixed-phase circle x Hopf) by a character.

    The default anti-diagonal character on the Chern vector (1, 1) gives class
    2, hence the three-manifold RP3; the diagonal character gives 0, hence
    S2 x S1.
    """
    kn_on_fibre = restrict_to_ruling_fibre_bundle(kn_fixed_phase_bundle())
    chern_vector = (kn_on_fibre.c1_int, 1)  # second factor: the Hopf bundle
    return lens_space_of(character_quotient(chern_vector, character))


class PhasePair(Value):
    """Compatible branch phases: rho1 * rho2 = e^{i theta}, all of unit modulus."""

    rho1: GaussianScalar
    rho2: GaussianScalar
    theta_unit: GaussianScalar

    def _check(self) -> None:
        for name, value in (("rho1", self.rho1), ("rho2", self.rho2), ("theta", self.theta_unit)):
            if not value.is_unit():
                raise ValueError(f"{name} must have unit squared modulus")
        if self.rho1 * self.rho2 != self.theta_unit:
            raise ValueError("phase pair must satisfy rho1 * rho2 = theta")

    def to_json_dict(self) -> dict:
        return {"rho1": self.rho1.to_json_dict(), "rho2": self.rho2.to_json_dict()}


def phase_solve(theta_unit: GaussianScalar, rho2: GaussianScalar) -> PhasePair:
    """Solve rho1 * rho2 = theta for rho1 by exact division."""
    if not theta_unit.is_unit() or not rho2.is_unit():
        raise ValueError("phase_solve requires unit inputs")
    return PhasePair(theta_unit / rho2, rho2, theta_unit)


class BranchCoordinate(Value):
    """One branch coordinate of a neck point: squared modulus and phase."""

    modulus_sq: Fraction
    phase: GaussianScalar


def neck_point(
    rho_sq: Fraction | int, theta_unit: GaussianScalar, eta: GaussianScalar
) -> tuple[BranchCoordinate, BranchCoordinate]:
    """The point u = sqrt(rho) theta/eta, v = sqrt(rho) eta of the equal-modulus neck.

    Returned symbolically as (squared modulus, phase) per branch, so the
    identities |u|^2 = |v|^2 = rho and phase(u)*phase(v) = theta are exact.
    The phases do not depend on rho: the neck retracts onto the fixed-phase
    circle without moving them.
    """
    rho_sq = Fraction(rho_sq)
    if rho_sq < 0:
        raise ValueError("squared modulus must be non-negative")
    if not theta_unit.is_unit() or not eta.is_unit():
        raise ValueError("neck_point requires unit phases")
    return BranchCoordinate(rho_sq, theta_unit / eta), BranchCoordinate(rho_sq, eta)


class PhaseDecoration(Value):
    """A compatible phase pair for each point of a finite subscheme of the
    double locus, at a fixed angle."""

    theta_unit: GaussianScalar
    points: tuple[tuple[str, PhasePair], ...]

    def _check(self) -> None:
        seen = set()
        for point_id, _ in self.points:
            if point_id in seen:
                raise ValueError(f"point ids must be distinct, {point_id!r} repeats")
            seen.add(point_id)

    def to_json_dict(self) -> dict:
        return {
            "theta": self.theta_unit.to_json_dict(),
            "points": [
                {"id": point_id, **pair.to_json_dict()} for point_id, pair in self.points
            ],
        }


def phase_decoration(
    point_ids: list[str],
    theta_unit: GaussianScalar,
    eta_choices: list[GaussianScalar],
) -> PhaseDecoration:
    """Decorate each listed point with the phase pair solved from its eta."""
    if not theta_unit.is_unit() or len(point_ids) != len(eta_choices):
        raise ValueError("need a unit theta and exactly one eta per point")
    pairs = tuple(
        (point_id, phase_solve(theta_unit, eta))
        for point_id, eta in zip(point_ids, eta_choices)
    )
    return PhaseDecoration(theta_unit, pairs)
