"""Exact arithmetic in the field of rationals with i adjoined.

Unit scalars (squared modulus exactly 1) stand in for phases e^{i.theta};
they are generated from Pythagorean triples, so "random phase" sampling stays
inside the field and every identity can be checked with exact equality.

A part is an ``int`` whenever its denominator is 1 and a ``Fraction`` only
when a division leaves a real denominator, so Gaussian-integer work (the
``real`` command's samples) never touches ``fractions`` arithmetic.  Equality
and hashing do not see the difference: ``1 == Fraction(1)``, and the two hash
alike.  ``fractions`` is imported only where a ``Fraction`` is built or tested,
so Gaussian-integer work does not load it.  The command line loads this module
only where a Gaussian scalar is used: in ``real`` and ``neck``, and for a
scenario with a decoration block.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ._value import Value

if TYPE_CHECKING:
    from fractions import Fraction
    from random import Random

    RationalLike = Fraction | int | str


def _part(value: RationalLike) -> int | Fraction:
    """``value`` as an exact int when its denominator is 1, else as a Fraction.  A float or a
    bool is refused: ``Fraction`` would read 0.1 as its binary expansion and True as 1."""
    from fractions import Fraction

    if isinstance(value, (float, bool)):
        raise TypeError(f"a Gaussian scalar part must be an int, a Fraction or a str, got {value!r}")
    value = value if isinstance(value, Fraction) else Fraction(value)
    return value.numerator if value.denominator == 1 else value


class GaussianScalar(Value):
    """An exact element re + im*i of the Gaussian rationals."""

    __slots__ = ("re", "im")
    re: int | Fraction
    im: int | Fraction

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0) -> None:
        object.__setattr__(self, "re", re if type(re) is int else _part(re))
        object.__setattr__(self, "im", im if type(im) is int else _part(im))

    # -- constructors -----------------------------------------------------------

    @classmethod
    def of(cls, re: RationalLike = 0, im: RationalLike = 0) -> "GaussianScalar":
        return cls(re, im)

    @classmethod
    def i(cls) -> "GaussianScalar":
        return cls(0, 1)

    @classmethod
    def one(cls) -> "GaussianScalar":
        return cls(1, 0)

    @classmethod
    def zero(cls) -> "GaussianScalar":
        return cls()

    @classmethod
    def unit_from_triple(cls, m: int, n: int) -> "GaussianScalar":
        """The unit ((m^2 - n^2) + 2mn*i) / (m^2 + n^2) from a Pythagorean triple."""
        from fractions import Fraction

        if m == 0 and n == 0:
            raise ValueError("m and n cannot both be zero")
        denom = m * m + n * n
        return cls(Fraction(m * m - n * n, denom), Fraction(2 * m * n, denom))

    @classmethod
    def random_unit(cls, rng: Random, max_parameter: int = 30) -> "GaussianScalar":
        """A random exact unit: a Pythagorean phase times a fourth root of unity."""
        m = rng.randint(1, max_parameter)
        n = rng.randint(0, max_parameter)
        rotation = rng.choice([cls.one(), cls.i(), -cls.one(), -cls.i()])
        return cls.unit_from_triple(m, n) * rotation  # m >= 1, so (m, n) is never (0, 0)

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other: "GaussianScalar") -> "GaussianScalar":
        return GaussianScalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianScalar") -> "GaussianScalar":
        return GaussianScalar(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianScalar":
        return GaussianScalar(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, GaussianScalar):
            return GaussianScalar(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        from fractions import Fraction

        if isinstance(other, (int, Fraction)):
            return GaussianScalar(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: "GaussianScalar") -> "GaussianScalar":
        from fractions import Fraction

        norm = other.norm_sq()
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian scalar")
        product = self * other.conjugate()
        return GaussianScalar(Fraction(product.re, norm), Fraction(product.im, norm))

    def conjugate(self) -> "GaussianScalar":
        return GaussianScalar(self.re, -self.im)

    def norm_sq(self) -> int | Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_unit(self) -> bool:
        return self.norm_sq() == 1

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re} {sign} {abs(self.im)}i"

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "re_num": self.re.numerator,
            "re_den": self.re.denominator,
            "im_num": self.im.numerator,
            "im_den": self.im.denominator,
        }

    def to_string_pairs(self) -> list[list[str]]:
        """[[re_num, re_den], [im_num, im_den]] as strings, for exact interchange."""
        return [
            [str(self.re.numerator), str(self.re.denominator)],
            [str(self.im.numerator), str(self.im.denominator)],
        ]
