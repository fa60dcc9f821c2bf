"""Exact intersection theory for glued pairs of blown-up twistor spaces.

The package computes, over the integers and Gaussian rationals with no
floating point anywhere: table-presented graded intersection rings and their
maps; the blow-up of a twistor threefold along a twistor line; the matched
pair lattices of the normal-crossing union of two such blow-ups, with
componentwise products; the rigid classification of surfaces gluing across
the double locus; Chern-class and charge bookkeeping for glued bundles; the
fixed-phase circle bundle of the local model t = uv with its lens-space
quotients; and the fixed-point-free real structure of the quadric.

Importing the package loads none of its modules: each public name below is
imported from its module on first access (PEP 562), so ``from twistor_pushout
import GaussianScalar`` loads ``gaussian`` alone.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULES = {
    "charges": (
        "CentralFibreCycle",
        "GluedBundleData",
        "glued_c2_cycle",
        "obstruction_dim",
        "polarized_charge",
        "practical_lift",
        "specialize",
    ),
    "gaussian": ("GaussianScalar",),
    "intlin": ("kernel_lattice", "lattice_membership"),
    "neck": ("kn_fixed_phase_bundle", "lens_space_of", "phase_decoration", "phase_solve"),
    "pushout": (
        "BlownUpChow",
        "ComponentPair",
        "EqualizerRing",
        "PushoutPair",
        "TwistorChow",
        "blow_up",
        "builtin_base",
        "flag_threefold_base",
        "projective_space_base",
    ),
    "quadric": ("Bidegree", "QuadricClass", "quadric_ring"),
    "rings": ("GradedMap", "GradedRing", "RingElement"),
    "surfaces": ("SurfaceData", "classify_all", "glue_check", "trace_class"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}
__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
