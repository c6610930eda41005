import random

import pytest

from doodlepoly.poly import ONE, X, ZERO, IntPoly, NotDivisibleError, ZeroPolynomialError


def P(*coeffs: int) -> IntPoly:
    return IntPoly(coeffs)


def random_poly(rng: random.Random, max_deg: int = 6, bound: int = 9) -> IntPoly:
    return IntPoly([rng.randint(-bound, bound) for _ in range(rng.randint(0, max_deg + 1))])


class TestCanonicalForm:
    def test_trailing_zeros_trimmed(self):
        assert P(1, 2, 0, 0).coeffs == (1, 2)
        assert P(0, 0, 0).coeffs == ()

    def test_zero_is_empty(self):
        assert ZERO.coeffs == ()
        assert ZERO.is_zero()
        assert ZERO.degree == -1

    def test_ops_never_leave_zero_leading_coeff(self):
        rng = random.Random(11)
        for _ in range(300):
            a, b = random_poly(rng), random_poly(rng)
            for r in (a + b, a - b, a * b, -a):
                assert not r.coeffs or r.coeffs[-1] != 0


class TestRingOps:
    def test_product_of_quadratic_and_quartic(self):
        # (-x^2 + 4) * (x^4 - 2x^2 + 1) = -x^6 + 6x^4 - 9x^2 + 4
        assert P(4, 0, -1) * P(1, 0, -2, 0, 1) == P(4, 0, -9, 0, 6, 0, -1)

    def test_additive_identity(self):
        p = P(3, 0, -7, 1)
        assert p + ZERO == p
        assert ZERO + p == p

    def test_square_of_x2_minus_1(self):
        assert P(-1, 0, 1) * P(-1, 0, 1) == P(1, 0, -2, 0, 1)

    def test_int_coercion(self):
        assert P(1, 1) * 3 == P(3, 3)

    def test_ring_laws_on_random_polys(self):
        rng = random.Random(5)
        for _ in range(200):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


class TestExactDiv:
    def test_degree_six_quotient(self):
        # (-x^6 + 6x^4 - 9x^2 + 4) / (4 - x^2) = x^4 - 2x^2 + 1
        num = P(4, 0, -9, 0, 6, 0, -1)
        assert num.exact_div(P(4, 0, -1)) == P(1, 0, -2, 0, 1)

    def test_degree_eight_quotient(self):
        # (4x^8 - 16x^6 + 20x^4 - 8x^2) / (4x^2 - 8) = x^6 - 2x^4 + x^2
        num = P(0, 0, -8, 0, 20, 0, -16, 0, 4)
        assert num.exact_div(P(-8, 0, 4)) == P(0, 0, 1, 0, -2, 0, 1)

    def test_unit_divisor(self):
        p = P(7, 0, -3, 2)
        assert p.exact_div(ONE) == p

    def test_degree_obstruction(self):
        with pytest.raises(NotDivisibleError):
            X.exact_div(X * X)

    def test_inexact_coefficient(self):
        with pytest.raises(NotDivisibleError):
            P(1, 3).exact_div(P(2))

    def test_inexact_remainder(self):
        with pytest.raises(NotDivisibleError):
            P(1, 0, 1).exact_div(P(1, 1))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE.exact_div(ZERO)

    def test_zero_dividend(self):
        assert ZERO.exact_div(P(1, 2)) == ZERO

    def test_product_roundtrip(self):
        rng = random.Random(17)
        for _ in range(200):
            a = random_poly(rng)
            b = random_poly(rng)
            if b.is_zero():
                continue
            assert (a * b).exact_div(b) == a


class TestX2Valuation:
    def test_strips_one_factor(self):
        v, stripped = P(0, 0, 1, 0, -2, 0, 1).x2_valuation()
        assert (v, stripped) == (1, P(1, 0, -2, 0, 1))

    def test_constant(self):
        assert ONE.x2_valuation() == (0, ONE)

    def test_nonzero_constant_term(self):
        p = P(1, 0, -2, 0, 1)
        assert p.x2_valuation() == (0, p)

    def test_odd_low_term_keeps_one_x(self):
        v, stripped = P(0, 0, 0, 2, 0, 1).x2_valuation()
        assert v == 1
        assert stripped == P(0, 2, 0, 1)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            ZERO.x2_valuation()

    def test_roundtrip(self):
        rng = random.Random(23)
        for _ in range(200):
            p = random_poly(rng)
            if p.is_zero():
                continue
            v, stripped = p.x2_valuation()
            assert IntPoly.monomial(1, 2 * v) * stripped == p
            low = next(i for i, c in enumerate(stripped.coeffs) if c)
            assert low < 2


class TestEvaluate:
    def test_vanishes_at_two(self):
        assert P(4, 0, -9, 0, 6, 0, -1).evaluate(2) == 0
        assert P(4, 0, -1).evaluate(2) == 0

    def test_zero_poly(self):
        assert ZERO.evaluate(12345) == 0

    def test_big_integers(self):
        assert P(0, 0, 1).evaluate(10**20) == 10**40


class TestRendering:
    @pytest.mark.parametrize(
        "coeffs, text",
        [
            ((), "0"),
            ((1,), "1"),
            ((-1,), "-1"),
            ((0, 1), "x"),
            ((0, 2), "2*x"),
            ((0, -1), "-x"),
            ((1, 0, -2, 0, 1), "x^4 - 2*x^2 + 1"),
            ((4, 0, -9, 0, 6, 0, -1), "-x^6 + 6*x^4 - 9*x^2 + 4"),
        ],
    )
    def test_to_text(self, coeffs, text):
        assert str(IntPoly(coeffs)) == text

    def test_variable_override(self):
        assert P(-1, 0, 4).to_text("z") == "4*z^2 - 1"


class TestMisc:
    def test_is_even(self):
        assert P(1, 0, -2, 0, 1).is_even()
        assert not P(0, 1).is_even()
        assert ZERO.is_even()

    def test_getitem_beyond_degree(self):
        assert P(1, 2)[5] == 0

    def test_not_iterable(self):
        # __getitem__ never raises IndexError, so iteration must be refused
        with pytest.raises(TypeError):
            iter(P(1, 2))

    def test_hashable(self):
        assert len({P(1, 2), P(1, 2), P(2, 1)}) == 2

    def test_monomial(self):
        assert IntPoly.monomial(-3, 4) == P(0, 0, 0, 0, -3)
        with pytest.raises(ValueError):
            IntPoly.monomial(1, -1)
