"""Traces of surfaces on the exceptional quadric and the rigid gluing dichotomy.

A surface of twistor degree d meets the exceptional quadric in d fibres of the
contraction when it misses the blown-up line, and in a rational section of
class (d-1)*b + w when it contains the line (smoothness along the line is
assumed in that case).  Requiring the two traces to agree under the ruling
swap pins the configuration down to three cases, independently of how large
the degrees are allowed to be.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ._value import Value

if TYPE_CHECKING:  # the functions import the quadric, so a surface block loads no ring module
    from .quadric import Bidegree, QuadricClass


class SurfaceData(Value):
    """Twistor degree of a surface and whether it contains the blown-up line."""

    twistor_degree: int
    contains_line: bool

    def _check(self) -> None:
        if self.twistor_degree < 1:
            raise ValueError("twistor degree must be at least 1")


def trace_class(surface: SurfaceData) -> QuadricClass:
    """Class of the strict transform's intersection with the exceptional quadric."""
    from .quadric import QuadricClass

    d = surface.twistor_degree
    if surface.contains_line:
        return QuadricClass.from_bw(d - 1, 1)
    return QuadricClass.from_bw(d, 0)


def trace_bidegree(surface: SurfaceData) -> Bidegree:
    from .quadric import Bidegree

    b, w = trace_class(surface).coeffs_bw()
    return Bidegree(b, w)


def glue_check(s1: SurfaceData, s2: SurfaceData) -> bool:
    """True iff the two traces agree after the ruling-swap identification."""
    from .quadric import ruling_swap_pushforward

    return ruling_swap_pushforward(trace_class(s1)) == trace_class(s2)


Configuration = tuple[int, str, int, str]


def classify_all(d_max: int) -> list[Configuration]:
    """All (d1, flag1, d2, flag2) with 1 <= d <= d_max passing the glue check.

    Each of the 2 * d_max traces is built and swapped once; a pair glues exactly
    when the swapped first trace has the coefficients of the second, as in
    :func:`glue_check`.  Pairs come in (d1, flag1, d2, flag2) order.
    """
    from .quadric import ruling_swap_pushforward

    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    rows = []
    for d in range(1, d_max + 1):
        for flag in (True, False):
            trace = trace_class(SurfaceData(d, flag))
            swapped = ruling_swap_pushforward(trace)
            rows.append((d, "in" if flag else "out", trace.element.coeffs, swapped.element.coeffs))
    return [
        (d1, f1, d2, f2)
        for d1, f1, _, swapped in rows
        for d2, f2, trace, _ in rows
        if swapped == trace
    ]

