"""Checks the benchmark applies to the program's outputs, sharing no code with it.

The invariant check works over the integers at a few points x = a: it builds
each generator matrix straight from its definition, multiplies the word
image out, takes det(psi(a) - I) by rational Gaussian elimination, and
requires it to equal raw(a) * P_(n-1)(a), with P from its own recurrence.
A polynomial that agrees with the true value at every point and has only
even-degree terms is, for any plausible fault, the true value.

The table codec here is the benchmark's own reading of the ``{k}(...)``
format, used to turn a reference record into the exact text the CLI must
print for any word in the same Markov class.
"""
from __future__ import annotations

import re
from fractions import Fraction

# a = 2 is avoided: P_2(2) = 0, so the identity would hold trivially there.
# The pair 3, -3 checks evenness of the value through the determinant.
POINTS = (3, -3, 5)


def generator_at(n: int, i: int, a: int) -> list[list[int]]:
    """The (n-1) x (n-1) integer matrix of generator i of T_n at x = a.

    Identity except the 3x3 block [[1, a, 0], [0, -1, 0], [0, a, 1]] centred
    on diagonal position i, clipped at the edges; T_2's generator is (-1).
    """
    m = n - 1
    g = [[int(r == c) for c in range(m)] for r in range(m)]
    centre = i - 1
    for dr, value in ((-1, a), (0, -1), (1, a)):
        r = centre + dr
        if 0 <= r < m:
            g[r][centre] = value
    return g


def image_at(strands: int, letters: tuple[int, ...], a: int) -> list[list[int]]:
    """Product of the generator matrices at x = a, first letter leftmost."""
    m = strands - 1
    out = [[int(r == c) for c in range(m)] for r in range(m)]
    columns = {}
    for i in set(letters):
        g = generator_at(strands, i, a)
        # Columns of g that differ from the identity's, as (column, [(row, value)]).
        columns[i] = [
            (c, [(k, g[k][c]) for k in range(m) if g[k][c]])
            for c in range(m)
            if any(g[k][c] != int(k == c) for k in range(m))
        ]
    for i in letters:
        updates = [
            (c, [sum(v * row[k] for k, v in terms) for row in out])
            for c, terms in columns[i]
        ]
        for c, col in updates:
            for row, value in zip(out, col):
                row[c] = value
    return out


def det_rational(rows: list[list[int]]) -> int:
    """Exact determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, n):
            f = a[r][k] / a[k][k]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    if det.denominator != 1:
        raise ArithmeticError("integer matrix with a fractional determinant")
    return det.numerator


def normalizer_at(n: int, a: int) -> int:
    """P_n(a) from P_0 = 1, P_1 = -2, P_n = -2 P_(n-1) - a^2 P_(n-2)."""
    prev, cur = 1, -2
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, -2 * cur - a * a * prev
    return cur


def horner(coeffs: tuple[int, ...], a: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * a + c
    return acc


def invariant_error(
    strands: int,
    letters: tuple[int, ...],
    raw: tuple[int, ...],
    valuation: int,
    canonical: tuple[int, ...],
) -> str | None:
    """Why (raw, valuation, canonical) is not the word's invariant, or None.

    ``raw`` and ``canonical`` are ascending coefficient tuples with no
    trailing zeros, as the program stores them.
    """
    if any(raw[1::2]):
        return "raw value has odd-degree terms"
    if not raw:
        if valuation or canonical:
            return "zero raw value with nonzero canonical part"
    elif tuple(raw) != (0,) * (2 * valuation) + tuple(canonical) or not canonical[0]:
        return "canonical part is not raw with every x^2 factor stripped"
    if strands == 1:
        return None if tuple(raw) == (1,) else "one-strand value is not 1"
    for a in POINTS:
        lhs = det_rational(
            [
                [v - int(r == c) for c, v in enumerate(row)]
                for r, row in enumerate(image_at(strands, letters, a))
            ]
        )
        if lhs != horner(raw, a) * normalizer_at(strands - 1, a):
            return f"det(psi - I) at x = {a} is not raw * P_{strands - 1}"
    return None


_RECORD_RE = re.compile(r"\{(\d+)\}\(([-\d,\s]+)\)\Z")


def decode_record(text: str) -> tuple[int, ...]:
    """Ascending coefficients of a ``{k}(c1,...,cm)`` or ``0`` record value."""
    s = text.strip()
    if s == "0":
        return ()
    m = _RECORD_RE.match(s)
    if not m:
        raise ValueError(f"not a table value: {text!r}")
    k = int(m.group(1))
    top_down = [int(c) for c in m.group(2).split(",")]
    if len(top_down) > k + 1:
        raise ValueError(f"too many coefficients for degree {2 * k}: {text!r}")
    out = [0] * (2 * k + 1)
    for j, c in enumerate(top_down):
        out[2 * (k - j)] = c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def stripped_text(coeffs: tuple[int, ...]) -> str:
    """What ``compute --format table`` prints for a value with these coefficients."""
    if not coeffs:
        return "0"
    low = next(d for d, c in enumerate(coeffs) if c)
    body = coeffs[low - low % 2:]
    return "{%d}(%s)" % (
        (len(body) - 1) // 2,
        ",".join(str(body[d]) for d in range(len(body) - 1, -1, -2)),
    )
