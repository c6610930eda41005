import pytest

from doodlepoly.cli import main


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

    def test_requires_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "family")
        assert exc.value.code == 2


class TestUsage:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys)
        assert exc.value.code == 2
