"""Fuzz the exit-code contract of ``compute``: 0, 1 or 2, never a traceback."""
import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from doodlepoly.cli import main
from doodlepoly.twin import parse_word

# The word grammar's characters, signs it refuses, non-ASCII digits and
# whitespace.
ALPHABET = "0123456789()^t+-²٣ \t\n"


def _letters(text: str, strands: int | None) -> int:
    """Length of the word compute would evaluate; 0 when parsing refuses it."""
    try:
        return len(parse_word(text, strands))
    except ValueError:
        return 0


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(
    text=st.text(alphabet=ALPHABET, max_size=16),
    strands=st.none() | st.integers(-3, 12),
)
def test_compute_exit_contract(text, strands):
    # Exponents up to MAX_LETTERS are valid input but take minutes to
    # evaluate; the contract is the same at any length, so keep words short.
    assume(_letters(text, strands) <= 200)
    argv = ["compute", f"--word={text}"]
    if strands is not None:
        argv.append(f"--strands={strands}")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            assert exc.code == 2
            return
    assert code in (0, 1, 2)
