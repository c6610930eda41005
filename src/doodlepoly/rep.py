"""The deformed geometric representation of the twin group over Z[x].

Each generator of T_n maps to an (n-1) x (n-1) integer-polynomial matrix
that is the identity outside one column; at x = 2 these specialize to the
classical reflection matrices of the group. A word maps to the left-to-right
product of its generator matrices. ``psi`` builds that product without any
matrix multiplication: each letter rewrites one column of the running image
as a shift-and-add of it and its two neighbours. Exact determinants of
(image - identity) feed the invariant downstream.
"""
from __future__ import annotations

import dataclasses
from typing import Sequence

from .poly import ONE, X, ZERO, IntPoly
from .twin import TwinWord

_NEG_ONE = IntPoly((-1,))


@dataclasses.dataclass(frozen=True)
class PolyMatrix:
    """A square matrix with IntPoly entries, immutable."""

    dim: int
    rows: tuple[tuple[IntPoly, ...], ...]

    def __post_init__(self):
        if len(self.rows) != self.dim or any(len(r) != self.dim for r in self.rows):
            raise ValueError(f"matrix is not {self.dim}x{self.dim}")

    @staticmethod
    def identity(dim: int) -> PolyMatrix:
        rows = tuple(
            tuple(ONE if i == j else ZERO for j in range(dim)) for i in range(dim)
        )
        return PolyMatrix(dim, rows)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[IntPoly]]) -> PolyMatrix:
        return PolyMatrix(len(rows), tuple(tuple(r) for r in rows))

    def __getitem__(self, key: tuple[int, int]) -> IntPoly:
        i, j = key
        return self.rows[i][j]

    def __mul__(self, other: PolyMatrix) -> PolyMatrix:
        """Dense matrix product.

        A specification that tests multiply generator matrices with; no
        production path uses it.
        """
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        cols = tuple(zip(*other.rows))
        rows = tuple(
            tuple(
                sum((a * b for a, b in zip(row, col) if a and b), ZERO)
                for col in cols
            )
            for row in self.rows
        )
        return PolyMatrix(self.dim, rows)

    def __sub__(self, other: PolyMatrix) -> PolyMatrix:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        rows = tuple(
            tuple(a - b for a, b in zip(r1, r2))
            for r1, r2 in zip(self.rows, other.rows)
        )
        return PolyMatrix(self.dim, rows)

    def evaluate(self, a: int) -> tuple[tuple[int, ...], ...]:
        """Entrywise integer evaluation at x = a."""
        return tuple(tuple(e.evaluate(a) for e in row) for row in self.rows)


def generator_matrix(n: int, i: int) -> PolyMatrix:
    """The (n-1) x (n-1) image of generator i of T_n.

    Identity except a 3x3 block [[1, x, 0], [0, -1, 0], [0, x, 1]] centered
    at position i; at the edges the block loses its missing row and column.
    For n = 2 the single generator maps to the 1x1 matrix (-1).

    This is the specification that tests check ``psi`` and the group
    relations against; no production path uses it.
    """
    if n < 2:
        raise IndexError(f"need n >= 2, got {n}")
    if not 1 <= i <= n - 1:
        raise IndexError(f"generator index {i} out of range 1..{n - 1}")
    if n == 2:
        return PolyMatrix.from_rows([[_NEG_ONE]])
    m = n - 1
    rows = [[ONE if r == c else ZERO for c in range(m)] for r in range(m)]
    if i == 1:
        rows[0][0] = _NEG_ONE
        rows[1][0] = X
    elif i == n - 1:
        rows[m - 2][m - 1] = X
        rows[m - 1][m - 1] = _NEG_ONE
    else:
        r = i - 1  # 0-based row of the -1
        rows[r - 1][r] = X
        rows[r][r] = _NEG_ONE
        rows[r + 1][r] = X
    return PolyMatrix.from_rows(rows)


def psi(w: TwinWord) -> PolyMatrix:
    """Image of a word: product of generator matrices, first letter leftmost.

    Right-multiplying by the image of generator l rewrites only column
    j = l-1, to x*c[j-1] - c[j] + x*c[j+1], with a missing neighbour column
    read as zero. So the product is built by one such column rewrite per
    letter on coefficient lists, starting from the identity.
    """
    if w.strands < 2:
        raise ValueError("word images need at least 2 strands")
    m = w.strands - 1
    cols = [[[1] if r == c else [] for r in range(m)] for c in range(m)]
    zero_col = [[]] * m
    for l in w.letters:
        j = l - 1
        left = cols[j - 1] if j > 0 else zero_col
        right = cols[j + 1] if j + 1 < m else zero_col
        cols[j] = [_shift_add_sub(*t) for t in zip(left, cols[j], right)]
    rows = tuple(tuple(IntPoly(col[r]) for col in cols) for r in range(m))
    return PolyMatrix(m, rows)


def _shift_add_sub(a: list[int], mid: list[int], b: list[int]) -> list[int]:
    """x*(a + b) - mid on ascending coefficient lists, trailing zeros trimmed."""
    if len(a) < len(b):
        a, b = b, a
    out = [0, *a]
    for i, c in enumerate(b, 1):
        out[i] += c
    if len(out) < len(mid):
        out += [0] * (len(mid) - len(out))
    for i, c in enumerate(mid):
        out[i] -= c
    while out and not out[-1]:
        out.pop()
    return out


def determinant(m: PolyMatrix) -> IntPoly:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Every interior division is guaranteed exact over an integral domain, so
    the whole computation stays in Z[x]; pivoting by row swap flips the sign.
    """
    dim = m.dim
    if dim == 0:
        return ONE
    a = [list(row) for row in m.rows]
    sign = 1
    prev = ONE
    for k in range(dim - 1):
        pivot_row = k
        while pivot_row < dim and a[pivot_row][k].is_zero():
            pivot_row += 1
        if pivot_row == dim:
            return ZERO
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, dim):
            for j in range(k + 1, dim):
                a[i][j] = (pivot * a[i][j] - a[i][k] * a[k][j]).exact_div(prev)
            a[i][k] = ZERO
        prev = pivot
    result = a[dim - 1][dim - 1]
    return result if sign == 1 else -result


def a_matrix(n: int) -> PolyMatrix:
    """Closed form for the image of the full descending word t_1...t_n.

    This n x n matrix equals psi of the word [1, 2, ..., n] on n+1 strands:
    power-of-x first row, an x subdiagonal, zeros below it, and x^(j-i)(x^2-1)
    on and above the diagonal elsewhere.
    """
    if n < 2:
        raise IndexError(f"need n >= 2, got {n}")
    x2m1 = IntPoly((-1, 0, 1))
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if i == 1:
                row.append(IntPoly.monomial(-1, j - 1))
            elif i > j + 1:
                row.append(ZERO)
            elif i == j + 1:
                row.append(X)
            else:
                row.append(x2m1 * IntPoly.monomial(1, j - i))
        rows.append(row)
    return PolyMatrix.from_rows(rows)


def fixed_row(n: int, side: str) -> tuple[IntPoly, ...]:
    """The x-cleared fixed row vector of length n for inclusion images.

    Entry k of the right vector is x^(n-k) * Q_(k-1), where Q_j is the
    degree-j polynomial with Q_0 = 1, Q_1 = 2 and Q_j = 2*Q_(j-1) - x^2 *
    Q_(j-2); the left vector is the reversal. Row-times-matrix against the
    image of any word that leaves the matching edge strand unused (such a
    word image is (n x n), i.e. lives on n+1 strands) reproduces the row.
    The common factor x^(n-1) keeps all entries inside Z[x] and does not
    disturb the fixed-vector property.
    """
    if n < 1:
        raise IndexError(f"need n >= 1, got {n}")
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    q_prev, q = ONE, IntPoly((2,))
    qs = [q_prev, q]
    for _ in range(n - 2):
        q_prev, q = q, q * 2 - q_prev * IntPoly((0, 0, 1))
        qs.append(q)
    entries = tuple(IntPoly.monomial(1, n - k) * qs[k - 1] for k in range(1, n + 1))
    return entries if side == "right" else entries[::-1]


def row_times_matrix(
    row: Sequence[IntPoly], m: PolyMatrix
) -> tuple[IntPoly, ...]:
    """Left-multiply a row vector by a matrix: (row @ m)."""
    if len(row) != m.dim:
        raise ValueError("dimension mismatch")
    return tuple(
        sum((row[k] * m.rows[k][j] for k in range(m.dim)), ZERO)
        for j in range(m.dim)
    )
