"""The doodle invariant: normalized determinants of word images.

For a word on n strands the raw value is det(image - identity) divided by
a normalizing polynomial that depends only on n; the quotient is always
exact and always lands in Z[x^2]. Markov moves change the value only by
even powers of x, so stripping the largest x^2 factor gives a canonical
representative shared by every word closing to the same doodle.
"""
from __future__ import annotations

import dataclasses
import math

from .poly import ONE, ZERO, IntPoly, NotDivisibleError
from .rep import det_rows, psi_columns
from .twin import TwinWord


def chebyshev_u(n: int) -> IntPoly:
    """Chebyshev polynomial of the second kind, as coefficients in z.

    U_0 = 1, U_1 = 2z, U_n = 2z*U_(n-1) - U_(n-2).
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    prev, cur = ONE, IntPoly((0, 2))
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, IntPoly((0, 2)) * cur - prev
    return cur


def p_poly(n: int) -> IntPoly:
    """The normalizing family: P_0 = 1, P_1 = -2, P_n = -2*P_(n-1) - x^2*P_(n-2).

    Equivalently U_n reversed and signed by (-1)^n, built here in closed
    form: the coefficient of x^(2k) is (-1)^(n+k) * C(n-k, k) * 2^(n-2k).
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    coeffs: list[int] = []
    for k in range(n // 2 + 1):
        coeffs += [(-1) ** (n + k) * math.comb(n - k, k) << (n - 2 * k), 0]
    return IntPoly(coeffs)


@dataclasses.dataclass(frozen=True)
class InvariantValue:
    """Raw invariant of a word plus its x^2-stripped canonical form."""

    raw: IntPoly
    strands: int
    valuation: int
    canonical: IntPoly


def f_invariant(w: TwinWord) -> InvariantValue:
    """The invariant of a word: det(psi(w) - I) / P_(n-1), exactly.

    On one strand the value is the constant 1 by definition. The columns of
    psi(w) - I go in as the rows, since det(M^T) = det(M). The division is
    guaranteed exact; a failure can only mean a bug in this package, so it
    escalates rather than surfacing as a user error.
    """
    if w.strands == 1:
        return InvariantValue(raw=ONE, strands=1, valuation=0, canonical=ONE)
    n = w.strands
    cols = psi_columns(w)
    for c, col in enumerate(cols):
        col[c] = [col[c][0] - 1, *col[c][1:]] if col[c] else [-1]
    det = det_rows(cols)
    try:
        raw = det.exact_div(p_poly(n - 1))
    except NotDivisibleError as exc:  # pragma: no cover - impossible by theory
        raise RuntimeError(
            f"internal error: determinant not divisible by the normalizer "
            f"for word {w.letters} on {n} strands"
        ) from exc
    if raw.is_zero():
        return InvariantValue(raw=ZERO, strands=n, valuation=0, canonical=ZERO)
    v, stripped = raw.x2_valuation()
    return InvariantValue(raw=raw, strands=n, valuation=v, canonical=stripped)


def canonical_invariant(w: TwinWord) -> IntPoly:
    """The x^2-stripped invariant; the class representative used everywhere."""
    return f_invariant(w).canonical


def skein_defect(prefix: TwinWord, i: int) -> IntPoly:
    """Left side minus right side of the four-term skein identity.

    f(w.t_i.t_(i+1).t_i) - f(w.t_(i+1).t_i.t_(i+1))
    - (x^2 - 1) * (f(w.t_i) - f(w.t_(i+1)))
    which is identically zero; computing it exercises all four values.
    """
    if not 1 <= i <= prefix.strands - 2:
        raise IndexError(
            f"skein index {i} out of range 1..{prefix.strands - 2}"
        )
    n = prefix.strands

    def f_of(extra: tuple[int, ...]) -> IntPoly:
        return f_invariant(TwinWord(prefix.letters + extra, n)).raw

    lhs = f_of((i, i + 1, i)) - f_of((i + 1, i, i + 1))
    rhs = IntPoly((-1, 0, 1)) * (f_of((i,)) - f_of((i + 1,)))
    return lhs - rhs


def split_union(a: TwinWord, b: TwinWord) -> TwinWord:
    """A word whose closure is the disjoint union of the two closures.

    Embeds a via right inclusions and b via left inclusions into the group
    on a.strands + b.strands strands; the invariant of the result is 0
    whenever both factors are nonempty unions (split doodles vanish).
    """
    shifted = tuple(l + a.strands for l in b.letters)
    return TwinWord(a.letters + shifted, a.strands + b.strands)
