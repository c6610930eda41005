"""Exact univariate polynomials over arbitrary-precision integers.

A polynomial is a dense tuple of integer coefficients in ascending degree,
so ``IntPoly([4, 0, -1])`` is ``-x^2 + 4``. The zero polynomial is the empty
tuple. The leading coefficient is always nonzero (canonical form), and every
operation is exact: no floats, no rounding, anywhere.

Coefficients routinely exceed 64 bits (determinant cofactors of word images
grow fast), which is why plain Python ints carry the whole module.
"""
from __future__ import annotations

import dataclasses
from typing import Iterable


class NotDivisibleError(ArithmeticError):
    """Raised when an exact division has a nonzero remainder over Z[x]."""


class ZeroPolynomialError(ValueError):
    """Raised when an operation needs a nonzero polynomial and got zero."""


@dataclasses.dataclass(frozen=True, init=False)
class IntPoly:
    """An element of Z[x], immutable and hashable.

    >>> IntPoly([1, 0, -2, 0, 1]) * IntPoly([1])
    IntPoly('x^4 - 2*x^2 + 1')
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @staticmethod
    def monomial(c: int, degree: int) -> IntPoly:
        """The polynomial c*x^degree."""
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return IntPoly((0,) * degree + (c,))

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, degree: int) -> int:
        """Coefficient of x^degree (0 beyond the stored range)."""
        if 0 <= degree < len(self.coeffs):
            return self.coeffs[degree]
        return 0

    __iter__ = None  # __getitem__ never ends a fallback iteration; use coeffs

    def __add__(self, other: IntPoly) -> IntPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> IntPoly:
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: IntPoly) -> IntPoly:
        return self + (-other)

    def __mul__(self, other: IntPoly | int) -> IntPoly:
        if isinstance(other, int):
            return IntPoly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                for j, d in enumerate(b):
                    out[i + j] += c * d
        return IntPoly(out)

    def exact_div(self, den: IntPoly) -> IntPoly:
        """Return q with q*den == self, by long division over Z[x].

        Every quotient this package ever takes is exact, so any inexact step
        (remainder, or a leading coefficient that does not divide) raises
        NotDivisibleError rather than falling back to pseudo-division.
        """
        if den.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return ZERO
        if self.degree < den.degree:
            raise NotDivisibleError(f"{self} is not divisible by {den}")
        rem = list(self.coeffs)
        lead = den.coeffs[-1]
        dd = den.degree
        quot = [0] * (self.degree - dd + 1)
        for k in range(len(quot) - 1, -1, -1):
            c = rem[k + dd]
            if c == 0:
                continue
            q, r = divmod(c, lead)
            if r != 0:
                raise NotDivisibleError(f"{self} is not divisible by {den}")
            quot[k] = q
            for j, d in enumerate(den.coeffs):
                rem[k + j] -= q * d
        if any(rem):
            raise NotDivisibleError(f"{self} is not divisible by {den}")
        return IntPoly(quot)

    def x2_valuation(self) -> tuple[int, IntPoly]:
        """Split off the largest even power of x: self == x^(2v) * stripped.

        The stripped part is not divisible by x^2; if the lowest term has odd
        degree it keeps a single factor of x (invariant values are always in
        Z[x^2], so that case only arises for arbitrary polynomials).
        """
        if self.is_zero():
            raise ZeroPolynomialError("x2_valuation of the zero polynomial")
        low = 0
        while self.coeffs[low] == 0:
            low += 1
        v = low // 2
        return v, IntPoly(self.coeffs[2 * v:])

    def evaluate(self, a: int) -> int:
        """Exact big-integer evaluation at x = a (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def is_even(self) -> bool:
        """True when all odd-degree coefficients vanish (element of Z[x^2])."""
        return not any(self.coeffs[1::2])

    def to_text(self, var: str = "x") -> str:
        """Render in descending degree, e.g. ``x^4 - 2*x^2 + 1``."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                power = var if k == 1 else f"{var}^{k}"
                body = power if mag == 1 else f"{mag}*{power}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"IntPoly({self.to_text()!r})"


ZERO = IntPoly()
ONE = IntPoly((1,))
X = IntPoly((0, 1))
