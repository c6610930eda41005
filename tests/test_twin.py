import random

import pytest

from doodlepoly.twin import (
    MAX_LETTERS,
    MAX_STRANDS,
    EmptyWordError,
    InvalidMoveError,
    MarkovMove,
    TwinWord,
    WordSyntaxError,
    apply_markov,
    component_count,
    format_word,
    inverse_word,
    iota_left,
    iota_right,
    mirror_word,
    parse_word,
    permutation_of,
    random_markov_walk,
    random_word,
    reduce_word,
    stab_word_left,
    stab_word_right,
    word,
)
from doodlepoly.twin import _available_moves, _destabilize


class TestTwinWord:
    def test_letter_range_checked(self):
        with pytest.raises(ValueError):
            TwinWord((3,), 3)
        with pytest.raises(ValueError):
            TwinWord((0,), 2)
        with pytest.raises(ValueError):
            TwinWord((), 0)

    def test_one_strand_empty_word(self):
        w = TwinWord((), 1)
        assert len(w) == 0


class TestParse:
    def test_group_exponent(self):
        w = parse_word("(12)^3")
        assert w.letters == (1, 2, 1, 2, 1, 2)
        assert w.strands == 3

    def test_mixed_groups_and_digits(self):
        w = parse_word("(21)^2(23)^2 123")
        assert w.letters == (2, 1, 2, 1, 2, 3, 2, 3, 1, 2, 3)
        assert w.strands == 4

    def test_t_form(self):
        w = parse_word("t10 t11")
        assert w.letters == (10, 11)
        assert w.strands == 12

    def test_unbalanced_paren_position(self):
        with pytest.raises(WordSyntaxError) as exc:
            parse_word("(1")
        assert exc.value.position == 2

    def test_unbalanced_close(self):
        with pytest.raises(WordSyntaxError) as exc:
            parse_word("12)")
        assert exc.value.position == 2

    def test_digit_exponent(self):
        assert parse_word("2^3").letters == (2, 2, 2)

    def test_negative_exponent_reverses(self):
        assert parse_word("(123)^-2").letters == (3, 2, 1, 3, 2, 1)

    def test_zero_exponent(self):
        assert parse_word("(12)^0 3").letters == (3,)

    def test_nested_groups(self):
        assert parse_word("((12)^2 3)^2").letters == (1, 2, 1, 2, 3) * 2

    def test_zero_digit_rejected(self):
        with pytest.raises(WordSyntaxError):
            parse_word("102")

    def test_bad_character(self):
        with pytest.raises(WordSyntaxError) as exc:
            parse_word("12a3")
        assert exc.value.position == 2

    def test_missing_exponent(self):
        with pytest.raises(WordSyntaxError):
            parse_word("(12)^")

    def test_empty_needs_strands(self):
        with pytest.raises(EmptyWordError):
            parse_word("")
        assert parse_word("", strands=4) == TwinWord((), 4)
        assert parse_word("  ", strands=1) == TwinWord((), 1)

    def test_strands_override(self):
        assert parse_word("(12)^3", strands=5).strands == 5
        with pytest.raises(ValueError):
            parse_word("123", strands=3)

    def test_whitespace_ignored(self):
        a = parse_word("4 3 2 3 1 2 3 2 4 3 2 1 (2 3)^4")
        b = parse_word("432312324321(23)^4")
        assert a == b

    # The limit tests refuse before expanding; none allocates a large word.
    @pytest.mark.parametrize(
        "text, position",
        [
            ("(12)^99999999999999999999", 5),
            ("(12)^-" + "9" * 5000, 5),
            ("1^1000001", 2),
            ("((12)^1000)^ 1000", 13),
            ("(1^400000 (2^400000 (3^300000)))", 23),
            ("t99999999999999", 1),
            ("t" + "9" * 5000, 1),
            ("t1000", 1),
        ],
        ids=lambda v: v if isinstance(v, int) or len(v) < 40 else f"{v[:6]}...",
    )
    def test_limits_refused_in_place(self, text, position):
        with pytest.raises(WordSyntaxError) as exc:
            parse_word(text)
        assert exc.value.position == position
        assert "exceeds the limit" in str(exc.value)

    def test_limits_inclusive(self):
        assert parse_word("t999").strands == MAX_STRANDS
        assert len(parse_word("(1^1000)^1000")) == MAX_LETTERS
        assert parse_word("", strands=MAX_STRANDS).strands == MAX_STRANDS
        with pytest.raises(ValueError, match="exceeds the limit"):
            parse_word("1", strands=MAX_STRANDS + 1)


class TestFormat:
    def test_digit_form(self):
        assert format_word(word([1, 2, 1, 2, 1, 2])) == "121212"

    def test_empty(self):
        assert format_word(TwinWord((), 3)) == ""

    def test_t_form(self):
        assert format_word(word([10])) == "t10"

    def test_parse_format_roundtrip(self):
        rng = random.Random(3)
        for seed in range(100):
            w = random_word(rng.randrange(2**30), 12, 10)
            assert parse_word(format_word(w), strands=w.strands) == w


class TestReduce:
    def test_adjacent_cancel(self):
        assert reduce_word(word([1, 1], 2)).letters == ()

    def test_commute_then_cancel(self):
        assert reduce_word(word([1, 3, 1])).letters == (3,)

    def test_irreducible(self):
        assert reduce_word(word([1, 2, 1])).letters == (1, 2, 1)

    def test_idempotent(self):
        rng = random.Random(9)
        for seed in range(150):
            w = random_word(rng.randrange(2**30), 6, 14)
            r = reduce_word(w)
            assert reduce_word(r) == r

    def test_preserves_permutation(self):
        rng = random.Random(10)
        for seed in range(150):
            w = random_word(rng.randrange(2**30), 6, 14)
            assert permutation_of(reduce_word(w)) == permutation_of(w)

    def test_preserves_group_element(self):
        # the matrix image is a faithful witness at these sizes
        from doodlepoly.rep import psi

        rng = random.Random(12)
        for seed in range(60):
            w = random_word(rng.randrange(2**30), 5, 10)
            assert psi(reduce_word(w)).rows == psi(w).rows

    def test_geodesic_on_small_groups(self):
        # BFS by exact matrix image gives true word-length distances (the
        # x = 2 specialization of the image is the faithful reflection
        # representation, so equal images mean equal group elements)
        import itertools

        from doodlepoly.rep import psi

        for strands in (3, 4):
            gens = range(1, strands)
            dist = {psi(TwinWord((), strands)).rows: 0}
            frontier = [()]
            for d in range(1, 6):
                grown = []
                for w in frontier:
                    for g in gens:
                        key = psi(TwinWord(w + (g,), strands)).rows
                        if key not in dist:
                            dist[key] = d
                            grown.append(w + (g,))
                frontier = grown
            for length in range(6):
                for letters in itertools.product(gens, repeat=length):
                    w = TwinWord(letters, strands)
                    assert len(reduce_word(w)) == dist[psi(w).rows], letters


class TestInverse:
    def test_reversal(self):
        assert inverse_word(word([1, 2, 3])).letters == (3, 2, 1)

    def test_empty(self):
        assert inverse_word(TwinWord((), 2)).letters == ()

    def test_palindrome(self):
        w = word([1, 2, 1])
        assert inverse_word(w) == w

    def test_component_count_invariant(self):
        rng = random.Random(14)
        for seed in range(100):
            w = random_word(rng.randrange(2**30), 6, 12)
            assert component_count(inverse_word(w)) == component_count(w)


class TestPermutation:
    def test_full_twist_is_identity(self):
        assert permutation_of(word([1, 2] * 3)) == (0, 1, 2)

    def test_empty_is_identity(self):
        assert permutation_of(TwinWord((), 4)) == (0, 1, 2, 3)

    def test_single_generator_swaps(self):
        assert permutation_of(word([1], 2)) == (1, 0)

    def test_component_counts(self):
        assert component_count(word([1, 2] * 3)) == 3
        assert component_count(word([1, 2] * 4)) == 1
        assert component_count(TwinWord((), 1)) == 1


class TestInclusions:
    def test_iota_right(self):
        w = iota_right(word([1, 2], 3))
        assert (w.letters, w.strands) == ((1, 2), 4)

    def test_iota_left(self):
        w = iota_left(word([1, 2], 3))
        assert (w.letters, w.strands) == ((2, 3), 4)

    def test_iota_right_on_trivial(self):
        w = iota_right(TwinWord((), 1))
        assert (w.letters, w.strands) == ((), 2)

    def test_new_edge_symbol_fixed(self):
        rng = random.Random(21)
        for seed in range(60):
            w = random_word(rng.randrange(2**30), 5, 10)
            pr = permutation_of(iota_right(w))
            assert pr[w.strands] == w.strands
            pl = permutation_of(iota_left(w))
            assert pl[0] == 0


class TestStabWords:
    def test_right_examples(self):
        assert stab_word_right(3, 1) == TwinWord((3, 2, 3), 4)
        for n in range(1, 6):
            assert stab_word_right(n, 0) == TwinWord((n,), n + 1)

    def test_left_example(self):
        assert stab_word_left(3, 1) == TwinWord((1, 2, 1), 4)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            stab_word_right(3, 3)
        with pytest.raises(IndexError):
            stab_word_left(3, -1)

    def test_palindrome_and_length(self):
        for n in range(1, 7):
            for i in range(n):
                for w in (stab_word_right(n, i), stab_word_left(n, i)):
                    assert len(w.letters) == 2 * i + 1
                    assert w.letters == w.letters[::-1]
                    assert w.strands == n + 1

    def test_mirror(self):
        assert mirror_word(word([1, 2, 1, 3], 5)) == TwinWord((4, 3, 4, 2), 5)
        assert mirror_word(TwinWord((), 1)) == TwinWord((), 1)
        rng = random.Random(45)
        for _ in range(60):
            w = random_word(rng.randrange(2**30), 7, 10)
            assert mirror_word(mirror_word(w)) == w
            assert reduce_word(mirror_word(w)) == mirror_word(reduce_word(w))

    def test_right_permutation_is_edge_transposition(self):
        for n in range(1, 7):
            for i in range(n):
                p = permutation_of(stab_word_right(n, i))
                expected = list(range(n + 1))
                expected[n - i - 1], expected[n] = expected[n], expected[n - i - 1]
                assert p == tuple(expected)


class TestMarkovMoves:
    def test_m2r_hyper_example(self):
        w = word([1, 2] * 3)
        out = apply_markov(w, MarkovMove("M2R", index=1))
        assert out == TwinWord((1, 2, 1, 2, 1, 2, 3, 2, 3), 4)

    def test_m1_conjugation(self):
        w = word([1, 2], 3)
        g = word([1], 3)
        out = apply_markov(w, MarkovMove("M1", conjugator=g))
        assert out.letters == (1, 1, 2, 1)
        assert reduce_word(out).letters == (2, 1)

    def test_m2r_classical_stabilization(self):
        out = apply_markov(word([1], 2), MarkovMove("M2R", index=0))
        assert out == TwinWord((1, 2), 3)

    def test_m2l_forward(self):
        out = apply_markov(word([1], 2), MarkovMove("M2L", index=0))
        assert out == TwinWord((2, 1), 3)

    def test_m2_backward_recovers_reduced_word(self):
        rng = random.Random(31)
        for seed in range(80):
            w = random_word(rng.randrange(2**30), 5, 8)
            i = rng.randint(0, w.strands - 1)
            for kind in ("M2R", "M2L"):
                up = apply_markov(w, MarkovMove(kind, index=i))
                down = apply_markov(up, MarkovMove(kind, index=i, forward=False))
                assert down == reduce_word(w)

    def test_m2_backward_requires_pattern(self):
        with pytest.raises(InvalidMoveError):
            apply_markov(word([2, 1], 3), MarkovMove("M2R", index=0, forward=False))

    def test_only_the_first_edge_letter_index_destabilizes(self):
        # A stabilization pattern runs from the first edge letter to the end,
        # so no index but (len - first edge position) // 2 can be removed, and
        # a walk offers exactly the removals that a search over all i finds.
        rng = random.Random(44)
        hits = 0
        for _ in range(2400):
            w = random_word(rng.randrange(2**30), 7, 12)
            for _ in range(rng.randint(0, 2)):
                kind = rng.choice(("M2R", "M2L"))
                i = rng.randint(0, w.strands - 1)
                w = apply_markov(w, MarkovMove(kind, index=i))
            r = reduce_word(w)
            n = r.strands
            searched = set()
            for kind, edge in (("M2R", n - 1), ("M2L", 1)):
                side = r if kind == "M2R" else mirror_word(r)
                found = set()
                for i in range(n - 1):
                    try:
                        _destabilize(side, i)
                    except InvalidMoveError:
                        continue
                    found.add(i)
                if found:
                    hits += 1
                    first = r.letters.index(edge)
                    assert found == {(len(r) - first) // 2}, (r, kind)
                searched |= {(kind, i) for i in found}
            offered = {
                (m.kind, m.index)
                for m in _available_moves(w, random.Random(0))
                if m.kind != "M0" and not m.forward
            }
            assert offered == searched, w
        assert hits > 1000

    def test_m0_roundtrip(self):
        w = iota_right(word([1, 2], 3))  # letters 1,2 on 4 strands
        shifted = apply_markov(w, MarkovMove("M0"))
        assert shifted.letters == (2, 3)
        back = apply_markov(shifted, MarkovMove("M0", forward=False))
        assert back == w

    def test_m0_rejects_used_edge(self):
        with pytest.raises(InvalidMoveError):
            apply_markov(word([1, 2, 3]), MarkovMove("M0"))

    def test_m1_strand_mismatch(self):
        with pytest.raises(InvalidMoveError):
            apply_markov(word([1], 2), MarkovMove("M1", conjugator=word([1], 3)))

    def test_missing_parameters(self):
        with pytest.raises(InvalidMoveError):
            apply_markov(word([1], 2), MarkovMove("M1"))
        with pytest.raises(InvalidMoveError):
            apply_markov(word([1], 2), MarkovMove("M2R"))

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ValueError):
            MarkovMove("M7")


class TestRandom:
    def test_random_word_deterministic(self):
        assert random_word(42, 4, 6) == random_word(42, 4, 6)

    def test_random_word_bounds(self):
        for seed in range(200):
            w = random_word(seed, 5, 7)
            assert 2 <= w.strands <= 5
            assert len(w.letters) <= 7

    def test_random_word_validation(self):
        with pytest.raises(ValueError):
            random_word(0, 1, 5)
        with pytest.raises(ValueError):
            random_word(0, 3, -1)

    def test_zero_step_walk(self):
        w = word([1, 2], 3)
        end, trail = random_markov_walk(7, w, 0)
        assert end == w
        assert trail == []

    def test_walk_deterministic(self):
        w = word([1, 2, 1], 3)
        assert random_markov_walk(7, w, 5) == random_markov_walk(7, w, 5)

    def test_walk_golden(self):
        # Recorded when each left-side move was still written out by hand;
        # pins the rng draw order and M2L both ways and M0 backward.
        end, trail = random_markov_walk(1, word([1, 2, 1, 3], 4), 10)
        assert end == TwinWord((4, 3, 3, 3, 4, 2, 3, 4, 3, 2, 1, 2, 3, 2, 1), 5)
        assert trail == [
            MarkovMove("M1", conjugator=TwinWord((3,), 4)),
            MarkovMove("M1", conjugator=TwinWord((2, 2), 4)),
            MarkovMove("M2L", index=1, forward=False),
            MarkovMove("M1", conjugator=TwinWord((1, 1), 3)),
            MarkovMove("M2R", index=1),
            MarkovMove("M2R", index=1, forward=False),
            MarkovMove("M0", forward=False),
            MarkovMove("M1", conjugator=TwinWord((1, 2), 3)),
            MarkovMove("M2L", index=2),
            MarkovMove("M2L", index=2),
        ]

    def test_walk_replay(self):
        rng = random.Random(40)
        for seed in range(40):
            w = random_word(rng.randrange(2**30), 5, 8)
            end, trail = random_markov_walk(rng.randrange(2**30), w, 6)
            replay = w
            for move in trail:
                replay = apply_markov(replay, move)
            assert replay == end
