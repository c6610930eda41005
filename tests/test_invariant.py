import random

import pytest

from doodlepoly.invariant import (
    canonical_invariant,
    chebyshev_u,
    f_invariant,
    p_poly,
    skein_defect,
    split_union,
)
from doodlepoly.poly import ONE, ZERO, IntPoly
from doodlepoly.rep import PolyMatrix, determinant, psi
from doodlepoly.table import dataset, decode_entry, entry_by_name
from doodlepoly.twin import (
    TwinWord,
    inverse_word,
    iota_left,
    iota_right,
    mirror_word,
    random_markov_walk,
    random_word,
    stab_word_left,
    stab_word_right,
    word,
)
from oracles import raw_invariant_error


def P(*coeffs: int) -> IntPoly:
    return IntPoly(coeffs)


class TestChebyshev:
    def test_first_values(self):
        assert chebyshev_u(0) == ONE
        assert chebyshev_u(1) == P(0, 2)
        assert chebyshev_u(2) == P(-1, 0, 4)
        assert chebyshev_u(3) == P(0, -4, 0, 8)

    def test_degree(self):
        for n in range(12):
            assert chebyshev_u(n).degree == n

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            chebyshev_u(-1)


class TestPPoly:
    def test_first_values(self):
        assert p_poly(0) == ONE
        assert p_poly(1) == P(-2)
        assert p_poly(2) == P(4, 0, -1)
        assert p_poly(3) == P(-8, 0, 4)

    def test_closed_form_vs_chebyshev(self):
        # coefficient of x^(n-k) in P_n is (-1)^n times the z^k one of U_n
        for n in range(31):
            p = p_poly(n)
            u = chebyshev_u(n)
            sign = 1 if n % 2 == 0 else -1
            expected = IntPoly([sign * u[n - j] for j in range(n + 1)])
            assert p == expected

    def test_even(self):
        for n in range(20):
            assert p_poly(n).is_even()


class TestFInvariant:
    def test_full_twist(self):
        assert f_invariant(word([1, 2] * 3)).raw == P(1, 0, -2, 0, 1)

    def test_stabilized_twist(self):
        v = f_invariant(word([1, 2, 1, 2, 1, 2, 3, 2, 3]))
        assert v.raw == P(0, 0, 1, 0, -2, 0, 1)
        assert v.valuation == 1
        assert v.canonical == P(1, 0, -2, 0, 1)

    def test_identity_words(self):
        for n in range(2, 9):
            assert f_invariant(TwinWord((), n)).raw == ZERO

    def test_full_descending_word_is_one(self):
        for n in range(2, 9):
            assert f_invariant(word(list(range(1, n)), n)).raw == ONE

    def test_one_strand(self):
        v = f_invariant(TwinWord((), 1))
        assert v.raw == ONE
        assert v.canonical == ONE
        assert v.strands == 1

    def test_value_consistency(self):
        rng = random.Random(61)
        for _ in range(60):
            w = random_word(rng.randrange(2**30), 5, 10)
            v = f_invariant(w)
            assert v.strands == w.strands
            if v.raw.is_zero():
                assert v.canonical == ZERO and v.valuation == 0
            else:
                assert IntPoly.monomial(1, 2 * v.valuation) * v.canonical == v.raw
            assert v.raw.is_even()

    def test_determinant_always_divisible(self):
        rng = random.Random(62)
        for _ in range(60):
            w = random_word(rng.randrange(2**30), 6, 10)
            det = determinant(psi(w) - PolyMatrix.identity(w.strands - 1))
            det.exact_div(p_poly(w.strands - 1))  # must not raise

    def test_matches_whole_polynomial_oracle(self):
        rng = random.Random(64)
        words = [random_word(rng.randrange(2**30), 6, 16) for _ in range(150)]
        table = [e.word() for e in dataset()]  # values up to degree 14
        words += [w for w in table if w.strands <= 6 and len(w.letters) <= 16]
        words += [TwinWord((), n) for n in range(2, 7)]
        words.append(TwinWord((1, 3), 5))  # psi has diagonal entries exactly 1
        for w in words:
            error = raw_invariant_error(w.strands, w.letters, f_invariant(w).raw)
            assert error is None, (w, error)

    def test_builds_no_poly_matrix(self, monkeypatch):
        names = ("8^1", "15^1a", "21^1d", "6^3", "12^4a")
        expected = {name: decode_entry(entry_by_name(name).encoded) for name in names}

        def refuse(*args, **kwargs):
            raise AssertionError("f_invariant built a PolyMatrix")

        monkeypatch.setattr(PolyMatrix, "__init__", refuse)
        for name in names:
            assert f_invariant(entry_by_name(name).word()).raw == expected[name], name


class TestCanonical:
    def test_equivalent_words_share_canonical(self):
        a = canonical_invariant(word([1, 2] * 3))
        b = canonical_invariant(word([1, 2, 1, 2, 1, 2, 3, 2, 3]))
        assert a == b == P(1, 0, -2, 0, 1)

    def test_empty_word(self):
        assert canonical_invariant(TwinWord((), 3)) == ZERO

    def test_four_twist(self):
        assert canonical_invariant(word([1, 2] * 4)) == P(4, 0, -4, 0, 1)


class TestMarkovBehavior:
    def test_conjugation_invariance(self):
        rng = random.Random(71)
        for _ in range(40):
            w = random_word(rng.randrange(2**30), 5, 8)
            g = random_word(rng.randrange(2**30), w.strands, 5)
            g = TwinWord(g.letters, w.strands)
            conj = TwinWord(
                inverse_word(g).letters + w.letters + g.letters, w.strands
            )
            assert f_invariant(conj).raw == f_invariant(w).raw

    def test_inclusions_vanish(self):
        rng = random.Random(72)
        for _ in range(40):
            w = random_word(rng.randrange(2**30), 5, 8)
            assert f_invariant(iota_right(w)).raw == ZERO
            assert f_invariant(iota_left(w)).raw == ZERO

    def test_plain_stabilization(self):
        rng = random.Random(73)
        for _ in range(40):
            w = random_word(rng.randrange(2**30), 5, 8)
            n = w.strands
            right = TwinWord(iota_right(w).letters + (n,), n + 1)
            left = TwinWord(iota_left(w).letters + (1,), n + 1)
            assert f_invariant(right).raw == f_invariant(w).raw
            assert f_invariant(left).raw == f_invariant(w).raw

    def test_hyper_stabilization_scaling(self):
        rng = random.Random(74)
        for _ in range(25):
            w = random_word(rng.randrange(2**30), 5, 7)
            n = w.strands
            base = f_invariant(w).raw
            for i in range(1, n):
                scale = IntPoly.monomial(1, 2 * i)
                right = TwinWord(
                    iota_right(w).letters + stab_word_right(n, i).letters, n + 1
                )
                assert f_invariant(right).raw == scale * base
                left = TwinWord(
                    iota_left(w).letters + stab_word_left(n, i).letters, n + 1
                )
                assert f_invariant(left).raw == scale * base

    def test_mirror_reverses_psi_and_keeps_f(self):
        # t_i -> t_(n-i) acts on the image as conjugation by the reversal J,
        # so psi(mirror w) is psi(w) read from the opposite corner.
        rng = random.Random(76)
        for _ in range(600):
            w = random_word(rng.randrange(2**30), 9, 12)
            image, mirrored = psi(w), psi(mirror_word(w))
            m = w.strands - 1
            for r in range(m):
                for c in range(m):
                    assert mirrored[r, c] == image[m - 1 - r, m - 1 - c], w
            assert f_invariant(mirror_word(w)) == f_invariant(w), w

    def test_walk_preserves_canonical(self):
        rng = random.Random(75)
        for _ in range(30):
            w = random_word(rng.randrange(2**30), 5, 8)
            end, _ = random_markov_walk(rng.randrange(2**30), w, 6)
            assert canonical_invariant(end) == canonical_invariant(w)


class TestSkein:
    def test_empty_prefix(self):
        assert skein_defect(TwinWord((), 3), 1) == ZERO

    def test_short_prefix(self):
        assert skein_defect(word([1, 2], 4), 2) == ZERO

    def test_random_instances(self):
        rng = random.Random(81)
        for _ in range(50):
            w = random_word(rng.randrange(2**30), 5, 8)
            if w.strands < 3:
                w = TwinWord(w.letters, 3)
            i = rng.randint(1, w.strands - 2)
            assert skein_defect(w, i) == ZERO

    def test_index_range(self):
        with pytest.raises(IndexError):
            skein_defect(word([1, 2], 3), 2)
        with pytest.raises(IndexError):
            skein_defect(word([1, 2], 3), 0)


class TestSplitUnion:
    def test_letters_shift(self):
        u = split_union(word([1], 2), word([1], 2))
        assert u == TwinWord((1, 3), 4)

    def test_empty_left_factor_is_left_inclusion(self):
        b = word([1, 2], 3)
        assert split_union(TwinWord((), 1), b) == iota_left(b)

    def test_invariant_vanishes(self):
        rng = random.Random(91)
        for _ in range(25):
            a = random_word(rng.randrange(2**30), 4, 6)
            b = random_word(rng.randrange(2**30), 4, 6)
            assert f_invariant(split_union(a, b)).raw == ZERO
