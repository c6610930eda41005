"""The split identity f_invariant rests on, from the public list core alone.

For w = uv every generator is an involution of determinant -1, so
det(psi(w) - I) = (-1)^|u| * det(psi(v) - psi(reverse u)) at every cut,
and reducing the word changes neither its image nor its invariant.
"""
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from doodlepoly.invariant import f_invariant
from doodlepoly.rep import det_rows, psi_columns
from doodlepoly.table import dataset
from doodlepoly.twin import TwinWord, reduce_word

SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)


@st.composite
def twin_words(draw, max_strands=7, max_len=40):
    n = draw(st.integers(2, max_strands))
    letters = draw(st.lists(st.integers(1, n - 1), max_size=max_len))
    return TwinWord(tuple(letters), n)


def _columns(letters, strands):
    return psi_columns(TwinWord(tuple(letters), strands))


def _minus(a, b):
    """Entrywise a - b on coefficient lists; trailing zeros are left in."""
    size = max(len(a), len(b))
    a = list(a) + [0] * (size - len(a))
    b = list(b) + [0] * (size - len(b))
    return [x - y for x, y in zip(a, b)]


def _det_minus_identity(w):
    """det(psi(w) - I) with the columns in as rows."""
    m = w.strands - 1
    identity = _columns((), w.strands)
    cols = _columns(w.letters, w.strands)
    return det_rows(
        [[_minus(cols[c][r], identity[c][r]) for r in range(m)] for c in range(m)]
    )


def _split_det(w, k):
    """(-1)^k * det(psi(w[k:]) - psi(reverse w[:k]))."""
    m = w.strands - 1
    v = _columns(w.letters[k:], w.strands)
    u_inv = _columns(w.letters[:k][::-1], w.strands)
    det = det_rows(
        [[_minus(v[c][r], u_inv[c][r]) for r in range(m)] for c in range(m)]
    )
    return -det if k % 2 else det


def _check_every_cut(w):
    expected = _det_minus_identity(w)
    for k in range(len(w.letters) + 1):
        assert _split_det(w, k) == expected, (w, k)


def _check_reduction(w):
    r = reduce_word(w)
    assert _columns(r.letters, r.strands) == _columns(w.letters, w.strands), w
    assert f_invariant(r) == f_invariant(w), w


@SETTINGS
@given(w=twin_words())
def test_every_cut_gives_the_determinant(w):
    _check_every_cut(w)


@SETTINGS
@given(w=twin_words())
def test_reduction_keeps_image_and_invariant(w):
    _check_reduction(w)


@pytest.mark.parametrize("seed", range(6))
def test_full_size_words(seed):
    # hypothesis draws mostly short words; these take the full 7 x 40
    rng = random.Random(seed)
    w = TwinWord(tuple(rng.randint(1, 6) for _ in range(40)), 7)
    _check_every_cut(w)
    _check_reduction(w)


@pytest.mark.parametrize("entry", dataset(), ids=lambda e: e.name)
def test_table_words(entry):
    w = entry.word()
    if w.strands == 1:
        return
    _check_every_cut(w)
    _check_reduction(w)
