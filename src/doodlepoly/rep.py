"""The deformed geometric representation of the twin group over Z[x].

Each generator of T_n maps to an (n-1) x (n-1) integer-polynomial matrix
that is the identity outside one column; at x = 2 these specialize to the
classical reflection matrices of the group. A word maps to the left-to-right
product of its generator matrices. The invariant runs on plain coefficient
lists: ``psi_columns`` builds the image by one column shift-add per letter,
and ``det_rows`` runs one integer Bareiss elimination at x = 2^width, with
width from Hadamard's bound (halved when the matrix is graded, since its
determinant then lies in Z[x^2]), and reads the coefficients back as signed
digits. ``psi`` and ``determinant`` are the same two steps on ``PolyMatrix``.
The rest (generator matrices, ``PolyMatrix`` products and evaluation, the
descending-word image, fixed rows) is the paper's specification, kept as
public API and as the reference the tests check the core against.
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
        """Dense matrix product."""
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
            tuple(a - b if b else a for a, b in zip(r1, r2))
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
    """Image of a word: product of generator matrices, first letter leftmost."""
    cols = psi_columns(w)
    return PolyMatrix(len(cols), tuple(tuple(map(IntPoly, r)) for r in zip(*cols)))


def psi_columns(w: TwinWord) -> list[list[list[int]]]:
    """The columns of psi(w), each entry an ascending coefficient list.

    Right-multiplying by the image of generator l rewrites only column
    j = l-1, to x*c[j-1] - c[j] + x*c[j+1], with a missing neighbour column
    read as zero. So the product is built by one such column rewrite per
    letter, starting from the identity. Every list is new and the caller's.
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
    return cols


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
    """Exact determinant of a polynomial matrix (see ``det_rows``)."""
    return det_rows([[e.coeffs for e in row] for row in m.rows])


def det_rows(rows: Sequence[Sequence[Sequence[int]]]) -> IntPoly:
    """Exact determinant, as one integer Bareiss elimination at x = 2^width.

    Each row holds ascending coefficient sequences, trailing zeros allowed.

    Bound: on |x| = 1 every entry has modulus at most |m_ij|_1, the sum of
    its absolute coefficients, so by Hadamard |det m(x)| <= H =
    prod_i sqrt(sum_j |m_ij|_1^2), and every coefficient of det(m), being
    a mean of det m(x) * x^-k over the unit circle, is at most H. With
    bits = ceil(log2 H) + 2 each coefficient lies well inside a signed
    digit of that many bits.

    Grading: when every entry (r, c) has only terms of degree = r - c
    (mod 2), as psi(w) - I and its transpose do, each Leibniz term is even
    and det(m) lies in Z[x^2]; then consecutive coefficients sit 2 * width
    bits apart, so width = ceil(bits / 2) suffices and every integer is half
    as long. The stride (step 2 or 1) is read off the entries.

    Evaluation at 2^width is a ring homomorphism, so fraction-free
    elimination on the packed entries, with a row swap on a zero pivot,
    gives det(m)(2^width) exactly. Its signed base-2^(step * width) digits
    are the coefficients at degrees 0, step, 2 * step, ...
    """
    dim = len(rows)
    if dim == 0:
        return ONE
    norm_product = 1
    step = 2
    for r, row in enumerate(rows):
        row_sum = 0
        for c, cs in enumerate(row):
            if cs:
                row_sum += sum(map(abs, cs)) ** 2
                if step == 2 and any(cs[(r - c + 1) % 2::2]):
                    step = 1
        norm_product *= row_sum
    if not norm_product:
        return ZERO
    bits = (norm_product.bit_length() + 1) // 2 + 2
    width = -(-bits // step)
    a = [[_pack(cs, width) for cs in row] for row in rows]
    sign = 1
    prev = 1
    for k in range(dim - 1):
        pivot_row = k
        while pivot_row < dim and not a[pivot_row][k]:
            pivot_row += 1
        if pivot_row == dim:
            return ZERO
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        top = a[k]
        pivot = top[k]
        for i in range(k + 1, dim):
            row = a[i]
            lead = row[k]
            row[k + 1:] = [
                (pivot * v - lead * t) // prev
                for v, t in zip(row[k + 1:], top[k + 1:])
            ]
        prev = pivot
    return _unpack(sign * a[dim - 1][dim - 1], step, width)


def _pack(coeffs: Sequence[int], width: int) -> int:
    """The value at x = 2^width, by Horner; exact for any coefficient size."""
    v = 0
    for c in reversed(coeffs):
        v = (v << width) + c
    return v


def _unpack(v: int, step: int, width: int) -> IntPoly:
    """Read v as signed base-2^(step*width) digits at degrees 0, step, ..."""
    shift = step * width
    base = 1 << shift
    half = base >> 1
    mask = base - 1
    out: list[int] = []
    while v:
        c = v & mask
        if c >= half:
            c -= base
        out.extend((c, 0) if step == 2 else (c,))
        v = (v - c) >> shift
    return IntPoly(out)


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
