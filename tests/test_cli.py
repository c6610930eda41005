import pytest

from doodlepoly import cli, invariant, rep
from doodlepoly.cli import main
from doodlepoly.poly import ZERO


TOTAL = "error: the letter count of N[..M]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_full_twist(self, capsys):
        code, out, _ = run(capsys, "compute", "--word", "(12)^3")
        assert code == 0
        assert "components:  3" in out
        assert "f:           x^4 - 2*x^2 + 1" in out
        assert "encoded:     {2}(1,-2,1)" in out

    def test_empty_word_with_strands(self, capsys):
        code, out, _ = run(capsys, "compute", "--word", "", "--strands", "4")
        assert code == 0
        assert "f:           0" in out
        assert "encoded:     0" in out

    def test_stabilized_example(self, capsys):
        code, out, _ = run(capsys, "compute", "--word", "(12)^3 323")
        assert code == 0
        assert "f:           x^6 - 2*x^4 + x^2" in out
        assert "valuation:   x^2" in out
        assert "encoded:     {2}(1,-2,1)" in out

    def test_table_format(self, capsys):
        # canonical form: the x^2 valuation of f((12)^4) is stripped first
        code, out, _ = run(capsys, "compute", "--word", "(12)^4", "--format", "table")
        assert code == 0
        assert out.strip() == "{2}(1,-4,4)"

    def test_missing_generator_skips_the_image(self, capsys, monkeypatch):
        # t_1 alone on 1000 strands leaves 998 columns of psi(w) - I zero;
        # the answer is 0 without building a 999 x 999 image
        def refuse(w):
            raise AssertionError("psi_columns was called")

        monkeypatch.setattr(rep, "psi_columns", refuse)
        monkeypatch.setattr(invariant, "psi_columns", refuse)
        code, out, _ = run(
            capsys, "compute", "--strands", "1000", "--word", "1", "--format", "table"
        )
        assert (code, out) == (0, "0\n")

    def test_coeffs_format(self, capsys):
        code, out, _ = run(capsys, "compute", "--word", "(12)^3", "--format", "coeffs")
        assert code == 0
        assert out.strip() == "[1, 0, -2, 0, 1]"

    def test_parse_error_caret(self, capsys):
        code, out, err = run(capsys, "compute", "--word", "(1")
        assert code == 2
        assert "  (1" in err
        caret_line = err.splitlines()[-1]
        assert caret_line == "  " + " " * 2 + "^"

    def test_deep_nesting(self, capsys):
        # deeper than the interpreter's recursion limit
        deep = "(" * 3000 + "1" + ")" * 3000
        code, out, err = run(capsys, "compute", "--word", deep)
        assert (code, err) == (0, "")
        assert (code, out) == run(capsys, "compute", "--word", "1")[:2]

    def test_deep_nesting_missing_close(self, capsys):
        # like "(1", the caret marks the end of input, where ')' is missing
        text = "(" * 3000 + "1" + ")" * 2999
        code, out, err = run(capsys, "compute", "--word", text)
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert lines[0] == "error: unbalanced '(': missing ')' (at position 6000)"
        assert lines[1:] == ["  " + text, "  " + " " * len(text) + "^"]

    @pytest.mark.parametrize(
        "argv, shown, position",
        [
            (("--word", "(12)^99999999999999999999"), "(12)^99999999999999999999", 5),
            (("--word", "t99999999999999"), "t99999999999999", 1),
            (("--word", "1", "--strands", "99999999999"), "--strands 99999999999", 10),
        ],
    )
    def test_unbounded_input_refused(self, capsys, argv, shown, position):
        code, out, err = run(capsys, "compute", *argv)
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert "exceeds the limit" in lines[0]
        assert lines[1:] == ["  " + shown, "  " + " " * position + "^"]

    # Only ASCII digits, and '-' as the only sign: each is refused in place.
    @pytest.mark.parametrize(
        "text, position",
        [("\u0663", 0), ("\u00b2", 0), ("t+3", 1), ("1^+2", 2)],
        ids=["arabic-indic-3", "superscript-2", "t-plus", "exponent-plus"],
    )
    def test_grammar_refused_with_caret(self, capsys, text, position):
        code, out, err = run(capsys, "compute", "--word", text)
        assert (code, out) == (2, "")
        assert "Traceback" not in err
        assert err.splitlines()[1:] == ["  " + text, "  " + " " * position + "^"]

    def test_negative_exponent_parses(self, capsys):
        code, out, _ = run(capsys, "compute", "--word", "(12)^-2", "--format", "coeffs")
        assert code == 0
        assert out == run(capsys, "compute", "--word", "2121", "--format", "coeffs")[1]

    def test_empty_word_without_strands(self, capsys):
        code, _, err = run(capsys, "compute", "--word", "")
        assert code == 2
        assert "--strands" in err

    def test_bad_strand_override(self, capsys):
        code, _, err = run(capsys, "compute", "--word", "123", "--strands", "3")
        assert code == 2


class TestComponents:
    def test_cube_word(self, capsys):
        code, out, _ = run(capsys, "components", "--word", "(123)^4")
        assert code == 0
        assert out.strip() == "4"


class TestMarkovTest:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(
            capsys, "markov-test", "--seed", "42", "--trials", "8",
            "--max-strands", "4", "--max-len", "6", "--max-moves", "4",
        )
        assert code == 0
        assert "8 trials, 8 passed, 0 failed" in out

    def test_zero_trials_vacuous(self, capsys):
        code, out, _ = run(capsys, "markov-test", "--trials", "0")
        assert code == 0
        assert "0 trials, 0 passed, 0 failed" in out

    def test_deterministic(self, capsys):
        args = ("markov-test", "--seed", "7", "--trials", "5", "--max-moves", "3")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_flag_validation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "markov-test", "--max-strands", "1")
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            run(capsys, "markov-test", "--trials", "-1")
        assert exc.value.code == 2

    # A walk starts on at most --max-strands strands and grows by at most 13
    # letters a move; sizes past the word limits are refused before any trial.
    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("--max-strands", "1001"),
                "error: --max-strands must be <= 1000, got 1001",
            ),
            (
                ("--max-strands", "424533559247"),
                "error: --max-strands must be <= 1000, got 424533559247",
            ),
            (
                ("--max-len", "1000000", "--max-moves", "1"),
                "error: --max-len + 13 * --max-moves must be <= 1000000, got 1000013",
            ),
            (
                ("--max-moves", "76923"),
                "error: --max-len + 13 * --max-moves must be <= 1000000, got 1000009",
            ),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else None,
    )
    def test_sizes_past_the_limits_refused(
        self, capsys, monkeypatch, argv, message
    ):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "random_word", no_trial)
        code, out, err = run(capsys, "markov-test", *argv)
        assert (code, out) == (2, "")
        assert err == message + "\n"

    def test_sizes_at_the_limits_accepted(self, capsys):
        for argv in (
            ("--max-strands", "1000"),
            ("--max-len", "999987", "--max-moves", "1"),
            ("--max-moves", "76922"),
        ):
            code, out, _ = run(capsys, "markov-test", "--trials", "0", *argv)
            assert (code, out.split(":")[0]) == (0, "markov-test")


class TestSkeinTest:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "skein-test", "--seed", "3", "--trials", "6")
        assert code == 0
        assert "6 trials, 6 passed, 0 failed" in out


class TestTable:
    def test_verify_all(self, capsys):
        code, out, _ = run(capsys, "table", "verify")
        assert code == 0
        assert "37 entries, 37 ok, 0 failing" in out

    def test_verify_one(self, capsys):
        code, out, _ = run(capsys, "table", "verify", "--entry", "6^3")
        assert code == 0
        assert "match=exact" in out
        assert "1 entries, 1 ok" in out

    def test_unknown_entry(self, capsys):
        code, _, err = run(capsys, "table", "--entry", "nope")
        assert code == 2
        assert "nope" in err

    def test_show(self, capsys):
        code, out, _ = run(capsys, "table", "show")
        assert code == 0
        assert "6^3" in out and "|" in out


class TestFamily:
    def test_b_range(self, capsys):
        code, out, _ = run(capsys, "family", "--b", "3..5")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0] == "B_3: {2}(1,-2,1)"

    def test_b_values_distinct(self, capsys):
        code, out, _ = run(capsys, "family", "--b", "3..8")
        values = [line.split(": ")[1] for line in out.strip().splitlines()]
        assert len(set(values)) == 6

    def test_c_single(self, capsys):
        code, out, _ = run(capsys, "family", "--c", "1", "3")
        assert code == 0
        assert out.strip() == "C^1_3: 0"

    def test_c_range(self, capsys):
        code, out, _ = run(capsys, "family", "--c", "2", "3..5")
        assert code == 0
        assert [l.split(": ")[1] for l in out.strip().splitlines()] == ["0"] * 3

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "family", "--b", "x..y")
        assert code == 2

    # Bad values are refused before any word is built: exit 2, no traceback.
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--c", "0", "3"), "error: R must be in 1..997, got '0'"),
            (("--c", "x", "3"), "error: R must be in 1..997, got 'x'"),
            (("--c", "998", "1"), "error: R must be in 1..997, got '998'"),
            (("--b", "0..3"), "error: N must be in 1..500000, got '0'"),
            (("--b", "-5"), "error: N must be in 1..500000, got '-5'"),
            (("--b", "3.."), "error: M must be in 1..500000, got ''"),
            (("--b", "1..500001"), "error: M must be in 1..500000, got '500001'"),
            (("--b", "9" * 5000), "error: N must be in 1..500000, got '9999"),
            (("--b", "\u0663"), "error: N must be in 1..500000, got '\u0663'"),
            (("--b", "+3"), "error: N must be in 1..500000, got '+3'"),
            (("--c", "997", "1..502"), "error: M must be in 1..501, got '502'"),
            # the words of a range are evaluated one by one, so their total
            # size is capped too, after the per-word limits
            (("--b", "1..1000"), f"{TOTAL} = 1..1000 must be <= 1000000, got 1001000"),
            (("--b", "1..500000"), f"{TOTAL} = 1..500000 must be <= 1000000, got 25"),
            (("--c", "997", "250..253"), f"{TOTAL} = 250..253 must be <= 1000000"),
        ],
        ids=lambda v: " ".join(v)[:20] if isinstance(v, tuple) else None,
    )
    def test_bad_values_refused(self, capsys, argv, message):
        code, out, err = run(capsys, "family", *argv)
        assert (code, out) == (2, "")
        assert err.startswith(message) and len(err.splitlines()) == 1

    def test_range_at_the_letter_limit_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "canonical_invariant", lambda w: ZERO)
        code, out, _ = run(capsys, "family", "--b", "1..999")
        assert code == 0
        assert out.splitlines()[-1] == "B_999: 0"

    def test_requires_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "family")
        assert exc.value.code == 2


class TestUsage:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys)
        assert exc.value.code == 2
