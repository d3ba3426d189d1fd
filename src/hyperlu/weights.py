"""Exact dyadic-rational gate exponents, reduced modulo 2.

Every phase-gate exponent in the symbolic engine is a dyadic rational
p / 2**q. Since the square of any multi-qubit phase gate is the
identity, exponents only matter modulo 2, so all values normalize into
the half-open interval [0, 2).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import NonDyadicError, SizeLimitError

# Largest denominator exponent accepted from text. Reduction modulo 2
# builds an integer of exp + 1 bits, so parsing bounds the exponent;
# values computed inside the package stay exact and uncapped.
MAX_PARSED_EXPONENT = 1024

# "p", "p/q" or "p/2^e": group 2 holds e, group 3 holds q
_WEIGHT_RE = re.compile(r"^(-?\d+)(?:\s*/\s*(?:2\^(\d+)|(\d+)))?$")


@dataclass(frozen=True)
class Weight:
    """A dyadic rational ``num / 2**exp`` in lowest terms within [0, 2).

    The constructor normalizes: the fraction is reduced (num odd or exp
    zero), then taken modulo 2. Zero is represented as ``Weight(0)``.
    """

    num: int
    exp: int = 0

    def __post_init__(self) -> None:
        num, exp = self.num, self.exp
        if exp < 0:
            raise ValueError(f"negative denominator exponent: {exp}")
        if num:  # cancel common factors of two: num's trailing zeros, at most exp
            shift = min(exp, (num & -num).bit_length() - 1)
            num >>= shift
            exp -= shift
        num %= 1 << (exp + 1)
        if num == 0:
            exp = 0
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    @classmethod
    def from_fraction(cls, value: Fraction | int) -> "Weight":
        """Build from an exact rational; rejects non-power-of-two denominators."""
        frac = Fraction(value)
        den = frac.denominator
        if den & (den - 1):
            raise NonDyadicError(f"{frac} is not a dyadic rational")
        return cls(frac.numerator, den.bit_length() - 1)

    @classmethod
    def parse(cls, text: str) -> "Weight":
        """Parse "p", "p/q" (q a power of two) or "p/2^e" forms."""
        m = _WEIGHT_RE.match(text.strip())
        if not m:
            raise NonDyadicError(f"cannot parse weight {text!r}")
        num = int(m.group(1))
        if m.group(2) is not None:
            exp = int(m.group(2))
        else:
            den = int(m.group(3)) if m.group(3) else 1
            if den == 0 or den & (den - 1):
                raise NonDyadicError(f"denominator of {text!r} is not a power of two")
            exp = den.bit_length() - 1
        if exp > MAX_PARSED_EXPONENT:
            raise SizeLimitError(
                f"denominator exponent {exp} of weight {text!r} exceeds {MAX_PARSED_EXPONENT}"
            )
        return cls(num, exp)

    @property
    def is_zero(self) -> bool:
        return self.num == 0

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def __float__(self) -> float:
        # exact: dyadic rationals of this size are representable in binary
        return self.num / (1 << self.exp)

    def __bool__(self) -> bool:
        return self.num != 0

    def __add__(self, other: "Weight") -> "Weight":
        if not isinstance(other, Weight):
            return NotImplemented
        e = max(self.exp, other.exp)
        num = (self.num << (e - self.exp)) + (other.num << (e - other.exp))
        return Weight(num, e)

    def __neg__(self) -> "Weight":
        return Weight(-self.num, self.exp)

    def __sub__(self, other: "Weight") -> "Weight":
        if not isinstance(other, Weight):
            return NotImplemented
        return self + (-other)

    def __mul__(self, factor: int) -> "Weight":
        if not isinstance(factor, int):
            return NotImplemented
        return Weight(self.num * factor, self.exp)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/{1 << self.exp}"

    def __repr__(self) -> str:
        return f"Weight({self})"


ZERO = Weight(0)
ONE = Weight(1)
HALF = Weight(1, 1)
QUARTER = Weight(1, 2)
