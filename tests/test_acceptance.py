"""Acceptance suite: one test per exit criterion, exact arithmetic throughout.

Every criterion prints a PASS line (visible with ``pytest -s``); a failing
assert is the corresponding FAIL. All randomized criteria run from fixed
seeds, and the stated wall-clock budgets are asserted where given.
"""
import random
import time

from doodlepoly.invariant import (
    canonical_invariant,
    chebyshev_u,
    f_invariant,
    p_poly,
    skein_defect,
    split_union,
)
from doodlepoly.poly import ZERO, IntPoly
from doodlepoly.rep import (
    PolyMatrix,
    determinant,
    fixed_row,
    generator_matrix,
    psi,
    row_times_matrix,
)
from doodlepoly.table import dataset, family_b, family_c, verify_entry
from doodlepoly.twin import (
    TwinWord,
    inverse_word,
    iota_left,
    iota_right,
    random_word,
    stab_word_left,
    stab_word_right,
    word,
)
from oracles import reflection_matrix


def P(*coeffs: int) -> IntPoly:
    return IntPoly(coeffs)


X2 = IntPoly((0, 0, 1))

MARKOV_SEED = 1405
SKEIN_SEED = 409
FIXED_ROW_SEED = 307
SPLIT_SEED = 413


def f_checked(w: TwinWord) -> IntPoly:
    """f with the evenness property asserted at every computation site."""
    value = f_invariant(w).raw
    assert value.is_even(), f"odd-degree terms in f of {w.letters} on {w.strands}"
    return value


def markov_suite_words() -> list[TwinWord]:
    """The 200 words of the Markov lemma suite (strands <= 6, length <= 12)."""
    rng = random.Random(MARKOV_SEED)
    return [random_word(rng.randrange(2**32), 6, 12) for _ in range(200)]


def skein_suite_cases() -> list[tuple[TwinWord, int]]:
    """200 seeded (prefix, i) skein instances."""
    rng = random.Random(SKEIN_SEED)
    cases = []
    for _ in range(200):
        w = random_word(rng.randrange(2**32), 6, 8)
        if w.strands < 3:
            w = TwinWord(w.letters, 3)
        cases.append((w, rng.randint(1, w.strands - 2)))
    return cases


def fixed_row_suite_words() -> list[TwinWord]:
    """100 seeded words with strands <= 6 for the fixed-vector criterion."""
    rng = random.Random(FIXED_ROW_SEED)
    return [random_word(rng.randrange(2**32), 6, 10) for _ in range(100)]


def split_suite_pairs() -> list[tuple[TwinWord, TwinWord]]:
    """50 seeded word pairs for the split-union criterion."""
    rng = random.Random(SPLIT_SEED)
    return [
        (
            random_word(rng.randrange(2**32), 4, 6),
            random_word(rng.randrange(2**32), 4, 6),
        )
        for _ in range(50)
    ]


def test_criterion_01_worked_example_reproduction():
    start = time.perf_counter()

    alpha = word([1, 2] * 3)
    m = psi(alpha)
    assert m.rows == (
        (P(-1, 0, 3, 0, -1), P(0, -3, 0, 4, 0, -1)),
        (P(0, 3, 0, -4, 0, 1), P(-1, 0, 6, 0, -5, 0, 1)),
    )
    det3 = determinant(m - PolyMatrix.identity(2))
    assert det3 == P(4, 0, -9, 0, 6, 0, -1)
    f3 = f_checked(alpha)
    assert f3 == P(1, 0, -2, 0, 1)

    beta = word([1, 2, 1, 2, 1, 2, 3, 2, 3])
    det4 = determinant(psi(beta) - PolyMatrix.identity(3))
    assert det4 == P(0, 0, -8, 0, 20, 0, -16, 0, 4)
    f4 = f_checked(beta)
    assert f4 == P(0, 0, 1, 0, -2, 0, 1)
    assert f4 == X2 * f3

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"worked-example reproduction took {elapsed:.3f}s"
    print(f"ACCEPTANCE 1 PASS worked-example reproduction ({elapsed:.3f}s)")


def test_criterion_02_reference_table():
    start = time.perf_counter()
    entries = dataset()
    assert len(entries) == 37
    for entry in entries:
        report = verify_entry(entry)
        assert report.match == "exact", (entry.name, report.match)
        assert report.components_ok, (
            entry.name,
            report.components_computed,
            entry.components,
        )
        f_checked(entry.word())
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"table verification took {elapsed:.1f}s"
    print(f"ACCEPTANCE 2 PASS table: {len(entries)} entries verified ({elapsed:.2f}s)")


def test_criterion_03_normalizer_closed_form():
    for n in range(31):
        p = p_poly(n)
        u = chebyshev_u(n)
        sign = 1 if n % 2 == 0 else -1
        assert p == IntPoly([sign * u[n - j] for j in range(n + 1)]), n
    print("ACCEPTANCE 3 PASS normalizer closed form for n = 0..30")


def test_criterion_04_representation_relations():
    x2m1 = P(-1, 0, 1)
    for n in range(2, 9):
        eye = PolyMatrix.identity(n - 1)
        gens = {i: generator_matrix(n, i) for i in range(1, n)}
        for i, v in gens.items():
            assert v * v == eye, (n, i)
            assert v.evaluate(2) == reflection_matrix(n, i), (n, i)
        for i in range(1, n):
            for j in range(i + 2, n):
                assert gens[i] * gens[j] == gens[j] * gens[i], (n, i, j)
        for i in range(1, n - 1):
            lhs = gens[i] * gens[i + 1] * gens[i] - gens[i + 1] * gens[i] * gens[i + 1]
            rhs = PolyMatrix.from_rows(
                [[x2m1 * e for e in row] for row in (gens[i] - gens[i + 1]).rows]
            )
            assert lhs == rhs, (n, i)
    print("ACCEPTANCE 4 PASS generator relations and x = 2 specialization, n <= 8")


def test_criterion_05_markov_lemma_suite():
    start = time.perf_counter()
    rng = random.Random(MARKOV_SEED + 1)
    failures = 0
    for w in markov_suite_words():
        n = w.strands
        base = f_checked(w)

        g = TwinWord(
            tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 4))), n
        )
        conj = TwinWord(inverse_word(g).letters + w.letters + g.letters, n)
        failures += f_checked(conj) != base

        failures += f_checked(iota_right(w)) != ZERO
        failures += f_checked(iota_left(w)) != ZERO

        right = TwinWord(iota_right(w).letters + (n,), n + 1)
        left = TwinWord(iota_left(w).letters + (1,), n + 1)
        failures += f_checked(right) != base
        failures += f_checked(left) != base

        for i in range(1, n):
            scale = IntPoly.monomial(1, 2 * i)
            hyper_r = TwinWord(
                iota_right(w).letters + stab_word_right(n, i).letters, n + 1
            )
            failures += f_checked(hyper_r) != scale * base
            hyper_l = TwinWord(
                iota_left(w).letters + stab_word_left(n, i).letters, n + 1
            )
            failures += f_checked(hyper_l) != scale * base

    elapsed = time.perf_counter() - start
    assert failures == 0, f"{failures} Markov lemma failures"
    assert elapsed < 120.0, f"Markov lemma suite took {elapsed:.1f}s"
    print(f"ACCEPTANCE 5 PASS Markov lemma suite, 200 words, 0 failures ({elapsed:.2f}s)")


def test_criterion_06_skein_suite():
    for prefix, i in skein_suite_cases():
        assert skein_defect(prefix, i) == ZERO, (prefix.letters, prefix.strands, i)
    print("ACCEPTANCE 6 PASS skein defect exactly 0 on 200 instances")


def test_criterion_07_fixed_vector_suite():
    for w in fixed_row_suite_words():
        n = w.strands
        right = fixed_row(n, "right")
        assert row_times_matrix(right, psi(iota_right(w))) == right, w
        left = fixed_row(n, "left")
        assert row_times_matrix(left, psi(iota_left(w))) == left, w
    print("ACCEPTANCE 7 PASS fixed rows on 100 inclusion images, both sides")


def test_criterion_08_vanishing():
    for a, b in split_suite_pairs():
        assert f_checked(split_union(a, b)) == ZERO, (a, b)
    for r in (1, 2, 3):
        for n in range(3, 7):
            assert f_checked(family_c(r, n)) == ZERO, (r, n)
    print("ACCEPTANCE 8 PASS split unions (50 pairs) and decorated family vanish")


def test_criterion_09_evenness_everywhere():
    # Re-derives every word whose invariant suites 1-8 computed (same seeds)
    # and asserts the value lies in Z[x^2]; f_checked also enforces this at
    # every computation site inside those suites.
    words: list[TwinWord] = [
        word([1, 2] * 3),
        word([1, 2, 1, 2, 1, 2, 3, 2, 3]),
    ]
    words.extend(entry.word() for entry in dataset())

    rng = random.Random(MARKOV_SEED + 1)
    for w in markov_suite_words():
        n = w.strands
        g = TwinWord(
            tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 4))), n
        )
        words.append(w)
        words.append(TwinWord(inverse_word(g).letters + w.letters + g.letters, n))
        words.append(iota_right(w))
        words.append(iota_left(w))
        words.append(TwinWord(iota_right(w).letters + (n,), n + 1))
        words.append(TwinWord(iota_left(w).letters + (1,), n + 1))
        for i in range(1, n):
            words.append(
                TwinWord(iota_right(w).letters + stab_word_right(n, i).letters, n + 1)
            )
            words.append(
                TwinWord(iota_left(w).letters + stab_word_left(n, i).letters, n + 1)
            )

    for prefix, i in skein_suite_cases():
        for extra in ((i, i + 1, i), (i + 1, i, i + 1), (i,), (i + 1,)):
            words.append(TwinWord(prefix.letters + extra, prefix.strands))

    words.extend(split_union(a, b) for a, b in split_suite_pairs())
    words.extend(family_c(r, n) for r in (1, 2, 3) for n in range(3, 7))

    for w in words:
        assert f_invariant(w).raw.is_even(), (w.letters, w.strands)
    print(f"ACCEPTANCE 9 PASS evenness of {len(words)} invariant values")


def test_criterion_10_two_generator_family_separation():
    start = time.perf_counter()
    values = {}
    for n in range(3, 17):
        key = canonical_invariant(family_b(n)).coeffs
        assert key not in values, f"B_{n} collides with B_{values[key]}"
        values[key] = n
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"family separation took {elapsed:.1f}s"
    print(f"ACCEPTANCE 10 PASS B_3..B_16 pairwise distinct ({elapsed:.2f}s)")
