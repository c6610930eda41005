"""Independent oracles shared by the unit and acceptance suites.

These deliberately avoid the production code paths they are used to check:
the polynomial determinant oracle is naive Laplace expansion; the integer
generator images are built from their own definition rather than by
evaluating the deformed generators, multiplied out at an integer point, and
their determinant taken by Gaussian elimination over the rationals; the
normalizer is evaluated by its own recurrence.
"""
from fractions import Fraction

from doodlepoly.poly import ONE, ZERO, IntPoly
from doodlepoly.rep import PolyMatrix


def det_cofactor(m: PolyMatrix) -> IntPoly:
    """Determinant by expansion along the first row."""
    if m.dim == 0:
        return ONE
    if m.dim == 1:
        return m[0, 0]
    total = ZERO
    for j in range(m.dim):
        if m[0, j].is_zero():
            continue
        minor = PolyMatrix.from_rows(
            [[m[i, k] for k in range(m.dim) if k != j] for i in range(1, m.dim)]
        )
        term = m[0, j] * det_cofactor(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def reflection_matrix(n: int, i: int, a: int = 2) -> tuple[tuple[int, ...], ...]:
    """The integer image of generator i of the n-strand group at x = a.

    At the default a = 2 this is the classical reflection matrix.
    """
    m = n - 1
    rows = [[1 if r == c else 0 for c in range(m)] for r in range(m)]
    if n == 2:
        return ((-1,),)
    if i == 1:
        rows[0][0] = -1
        rows[1][0] = a
    elif i == n - 1:
        rows[m - 2][m - 1] = a
        rows[m - 1][m - 1] = -1
    else:
        rows[i - 2][i - 1] = a
        rows[i - 1][i - 1] = -1
        rows[i][i - 1] = a
    return tuple(tuple(r) for r in rows)


def image_minus_identity_at(n: int, letters, a: int) -> list[list[int]]:
    """psi(w) - I at x = a: the product of the integer generator images."""
    m = n - 1
    acc = [[int(r == c) for c in range(m)] for r in range(m)]
    for i in letters:
        g = reflection_matrix(n, i, a)
        terms = [(k, j, g[k][j]) for k in range(m) for j in range(m) if g[k][j]]
        new = []
        for row in acc:
            out = [0] * m
            for k, j, v in terms:
                out[j] += row[k] * v
            new.append(out)
        acc = new
    for r in range(m):
        acc[r][r] -= 1
    return acc


def det_rational(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by Gaussian elimination over Q."""
    a = [[Fraction(v) for v in row] for row in rows]
    dim = len(a)
    det = Fraction(1)
    for k in range(dim):
        pivot = next((r for r in range(k, dim) if a[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, dim):
            f = a[r][k] / a[k][k]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    assert det.denominator == 1
    return int(det)


def p_at(n: int, a: int) -> int:
    """P_n(a) by the recurrence P_0 = 1, P_1 = -2, P_n = -2*P_(n-1) - a^2*P_(n-2)."""
    prev, cur = 1, -2
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, -2 * cur - a * a * prev
    return cur


def raw_invariant_error(n: int, letters, raw: IntPoly) -> str | None:
    """Why raw * P_(n-1) is not det(psi(w) - I) as a polynomial, or None.

    Entries of psi(w) have degree at most len(w), so the determinant has
    degree at most D = (n - 1) * len(w), and raw * P_(n-1) at most
    deg(raw) + n - 1. Two polynomials of degree at most d that agree at
    d + 1 distinct integers are equal, so comparing values suffices.
    """
    d = max((n - 1) * len(letters), len(raw.coeffs) - 1 + n - 1)
    for a in range(-(d // 2), d - d // 2 + 1):
        lhs = sum(c * a**k for k, c in enumerate(raw.coeffs)) * p_at(n - 1, a)
        rhs = det_rational(image_minus_identity_at(n, letters, a))
        if lhs != rhs:
            return f"raw * P_{n - 1} = {lhs} but det(psi - I) = {rhs} at x = {a}"
    return None
