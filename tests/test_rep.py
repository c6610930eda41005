import random

import pytest

from doodlepoly.invariant import f_invariant
from doodlepoly.poly import ONE, ZERO, IntPoly
from doodlepoly.rep import (
    PolyMatrix,
    a_matrix,
    determinant,
    fixed_row,
    generator_matrix,
    psi,
    row_times_matrix,
)
from doodlepoly.table import dataset, family_b
from doodlepoly.twin import (
    TwinWord,
    component_count,
    iota_left,
    iota_right,
    random_word,
    reduce_word,
    word,
)
from oracles import (
    det_cofactor,
    det_rational,
    image_minus_identity_at,
    p_at,
    reflection_matrix,
)


def P(*coeffs: int) -> IntPoly:
    return IntPoly(coeffs)


def mat(rows) -> PolyMatrix:
    return PolyMatrix.from_rows(
        [[IntPoly(e) if isinstance(e, (tuple, list)) else P(e) for e in row] for row in rows]
    )


class TestGeneratorMatrix:
    def test_edge_generator_in_t3(self):
        assert generator_matrix(3, 2) == mat([[1, (0, 1)], [0, -1]])

    def test_t2_is_minus_one(self):
        assert generator_matrix(2, 1) == mat([[-1]])

    def test_right_edge_in_t4(self):
        assert generator_matrix(4, 3) == mat(
            [[1, 0, 0], [0, 1, (0, 1)], [0, 0, -1]]
        )

    def test_interior_block(self):
        assert generator_matrix(4, 2) == mat(
            [[1, (0, 1), 0], [0, -1, 0], [0, (0, 1), 1]]
        )

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            generator_matrix(3, 3)
        with pytest.raises(IndexError):
            generator_matrix(1, 1)


class TestRelations:
    def test_involution(self):
        for n in range(2, 9):
            eye = PolyMatrix.identity(n - 1)
            for i in range(1, n):
                v = generator_matrix(n, i)
                assert v * v == eye

    def test_far_commutation(self):
        for n in range(4, 9):
            for i in range(1, n):
                for j in range(i + 2, n):
                    vi, vj = generator_matrix(n, i), generator_matrix(n, j)
                    assert vi * vj == vj * vi

    def test_near_commutator_identity(self):
        # V_i V_{i+1} V_i - V_{i+1} V_i V_{i+1} = (x^2 - 1)(V_i - V_{i+1})
        x2m1 = P(-1, 0, 1)
        for n in range(3, 9):
            for i in range(1, n - 1):
                vi, vj = generator_matrix(n, i), generator_matrix(n, i + 1)
                lhs = vi * vj * vi - vj * vi * vj
                diff = vi - vj
                rhs = PolyMatrix.from_rows(
                    [[x2m1 * e for e in row] for row in diff.rows]
                )
                assert lhs == rhs

    def test_specializes_to_reflection_matrices_at_two(self):
        for n in range(2, 9):
            for i in range(1, n):
                assert generator_matrix(n, i).evaluate(2) == reflection_matrix(n, i)


class TestPsi:
    def test_full_twist_matrix(self):
        m = psi(word([1, 2] * 3))
        assert m == mat(
            [
                [(-1, 0, 3, 0, -1), (0, -3, 0, 4, 0, -1)],
                [(0, 3, 0, -4, 0, 1), (-1, 0, 6, 0, -5, 0, 1)],
            ]
        )

    def test_empty_word_is_identity(self):
        assert psi(TwinWord((), 4)) == PolyMatrix.identity(3)

    def test_generator_squares_to_identity(self):
        for n in range(2, 7):
            for i in range(1, n):
                assert psi(TwinWord((i, i), n)) == PolyMatrix.identity(n - 1)

    def test_one_strand_rejected(self):
        with pytest.raises(ValueError):
            psi(TwinWord((), 1))

    @staticmethod
    def dense_product(w: TwinWord) -> PolyMatrix:
        m = PolyMatrix.identity(w.strands - 1)
        for l in w.letters:
            m = m * generator_matrix(w.strands, l)
        return m

    def test_matches_dense_product_on_table_words(self):
        words = [e.word() for e in dataset()]
        words = [w for w in words if w.strands >= 2]
        assert len(words) == 36
        for w in words:
            assert psi(w) == self.dense_product(w), w

    def test_matches_every_single_generator(self):
        # covers both edge columns and the 1x1 image on 2 strands
        for n in range(2, 10):
            for i in range(1, n):
                assert psi(TwinWord((i,), n)) == generator_matrix(n, i)

    def test_matches_dense_product_on_random_words(self):
        rng = random.Random(2020)
        words = [TwinWord(tuple(rng.randint(1, 15) for _ in range(200)), 16)]
        words += [random_word(rng.randrange(2**30), 16, 200) for _ in range(12)]
        for w in words:
            assert psi(w) == self.dense_product(w), w


class TestBlockForm:
    def test_right_inclusion_blocks(self):
        rng = random.Random(77)
        for _ in range(40):
            w = random_word(rng.randrange(2**30), 5, 8)
            n = w.strands
            inner = psi(w)
            outer = psi(iota_right(w))
            for i in range(n - 1):
                assert outer[i, n - 1] == ZERO
                for j in range(n - 1):
                    assert outer[i, j] == inner[i, j]
            assert outer[n - 1, n - 1] == ONE

    def test_left_inclusion_blocks(self):
        rng = random.Random(78)
        for _ in range(40):
            w = random_word(rng.randrange(2**30), 5, 8)
            n = w.strands
            inner = psi(w)
            outer = psi(iota_left(w))
            assert outer[0, 0] == ONE
            for i in range(1, n):
                assert outer[i, 0] == ZERO
                for j in range(1, n):
                    assert outer[i, j] == inner[i - 1, j - 1]


class TestDeterminant:
    def test_full_twist_det(self):
        m = psi(word([1, 2] * 3)) - PolyMatrix.identity(2)
        assert determinant(m) == P(4, 0, -9, 0, 6, 0, -1)

    def test_stabilized_det(self):
        m = psi(word([1, 2, 1, 2, 1, 2, 3, 2, 3])) - PolyMatrix.identity(3)
        assert determinant(m) == P(0, 0, -8, 0, 20, 0, -16, 0, 4)

    def test_zero_matrix(self):
        eye = PolyMatrix.identity(4)
        assert determinant(eye - eye) == ZERO

    def test_identity(self):
        assert determinant(PolyMatrix.identity(5)) == ONE

    def test_row_swap_path(self):
        # zero pivot forces a swap; determinant of [[0,1],[1,0]] is -1
        m = mat([[0, 1], [1, 0]])
        assert determinant(m) == P(-1)

    def test_singular(self):
        m = mat([[1, 2], [1, 2]])
        assert determinant(m) == ZERO

    def test_single_entry_wider_than_a_digit(self):
        # graded 1x1: the coefficient is wider than width (x = 2^width)
        assert determinant(mat([[(0, 0, 1000)]])) == P(0, 0, 1000)
        assert determinant(mat([[(0, 0, -(2**200))]])) == P(0, 0, -(2**200))

    def test_graded_row_swap(self):
        m = mat([[0, (0, 999)], [(0, 7), 0]])
        assert determinant(m) == P(0, 0, -6993)

    def test_graded_singular(self):
        m = mat([[1, (0, 1)], [(0, 1), (0, 0, 1)]])
        assert determinant(m) == ZERO

    @staticmethod
    def random_matrix(
        rng: random.Random, graded: bool, max_dim: int = 5, max_len: int = 7
    ) -> PolyMatrix:
        dim = rng.randint(1, max_dim)
        bits = rng.choice((2, 8, 64, 300))

        def entry(r: int, c: int) -> IntPoly:
            coeffs = [0] * rng.randint(0, max_len)
            for k in range(len(coeffs)):
                if not (graded and (k - r + c) % 2) and rng.random() < 0.7:
                    coeffs[k] = rng.randint(-(2**bits), 2**bits)
            return IntPoly(coeffs)

        return PolyMatrix.from_rows(
            [[entry(r, c) for c in range(dim)] for r in range(dim)]
        )

    def test_matches_cofactor_oracle(self):
        rng = random.Random(99)
        for graded in (True, False):
            for _ in range(150):
                m = self.random_matrix(rng, graded)
                assert determinant(m) == det_cofactor(m), m
                # f_invariant feeds the columns of psi(w) - I in as rows
                transpose = PolyMatrix.from_rows(list(zip(*m.rows)))
                assert determinant(transpose) == determinant(m), m
            for _ in range(20):
                # high-degree entries: many digits to read back
                m = self.random_matrix(rng, graded, max_dim=3, max_len=60)
                assert determinant(m) == det_cofactor(m), m

    def test_matches_integer_point_oracle(self):
        # sizes beyond the cofactor oracle's reach, through the adapter and
        # through the reduced, split path f_invariant runs
        rng = random.Random(2009)
        words = [one_component_word(rng, 12, 251), one_component_word(rng, 16, 201)]
        words.append(family_b(128))
        halves = [len(reduce_word(w)) // 2 for w in words]
        # an odd reduced length, and an odd first half, whose sign f_invariant flips
        assert any(len(reduce_word(w)) % 2 for w in words)
        assert any(k % 2 for k in halves) and not all(k % 2 for k in halves)
        for w in words:
            n = w.strands
            det = determinant(psi(w) - PolyMatrix.identity(n - 1))
            raw = f_invariant(w).raw
            for a in (2, 3, -3, 5):
                expected = det_rational(image_minus_identity_at(n, w.letters, a))
                assert det.evaluate(a) == expected, (w, a)
                assert raw.evaluate(a) * p_at(n - 1, a) == expected, (w, a)


def one_component_word(rng: random.Random, strands: int, length: int) -> TwinWord:
    """A uniform random word whose closure has one component (by rejection)."""
    while True:
        w = TwinWord(tuple(rng.randint(1, strands - 1) for _ in range(length)), strands)
        if component_count(w) == 1:
            return w


class TestAMatrix:
    def test_closed_form_3(self):
        assert a_matrix(3) == mat(
            [
                [-1, (0, -1), (0, 0, -1)],
                [(0, 1), (-1, 0, 1), (0, -1, 0, 1)],
                [0, (0, 1), (-1, 0, 1)],
            ]
        )

    def test_equals_product_for_2(self):
        assert a_matrix(2) == psi(word([1, 2], 3))

    def test_equals_product_up_to_8(self):
        for n in range(2, 9):
            assert a_matrix(n) == psi(word(list(range(1, n + 1)), n + 1))

    def test_too_small(self):
        with pytest.raises(IndexError):
            a_matrix(1)


class TestFixedRow:
    def test_length_one(self):
        assert fixed_row(1, "right") == (ONE,)

    def test_length_three(self):
        assert fixed_row(3, "right") == (P(0, 0, 1), P(0, 2), P(4, 0, -1))

    def test_length_four(self):
        assert fixed_row(4, "right") == (
            P(0, 0, 0, 1),
            P(0, 0, 2),
            P(0, 4, 0, -1),
            P(8, 0, -4),
        )

    def test_left_is_reversal(self):
        for n in range(1, 7):
            assert fixed_row(n, "left") == fixed_row(n, "right")[::-1]

    def test_bad_side(self):
        with pytest.raises(ValueError):
            fixed_row(3, "up")
        with pytest.raises(IndexError):
            fixed_row(0, "right")

    def test_fixed_under_inclusion_images(self):
        rng = random.Random(55)
        for _ in range(40):
            w = random_word(rng.randrange(2**30), 5, 8)
            n = w.strands
            right = fixed_row(n, "right")
            assert row_times_matrix(right, psi(iota_right(w))) == right
            left = fixed_row(n, "left")
            assert row_times_matrix(left, psi(iota_left(w))) == left
