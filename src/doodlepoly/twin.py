"""Twin-group words: parsing, reduction, permutations, and Markov moves.

A word is a sequence of generator indices (1-based, each in 1..strands-1)
together with an explicit strand count. The strand count is real state, not
a convenience: the same letter sequence denotes different group elements in
T_3 and T_4, and the invariant downstream depends on which one is meant.

The text grammar matches the compact notation used for twin words in the
literature: ``(12)^3`` repeats the group, ``3^2`` repeats a digit, ``t10``
names generators past index 9, and whitespace never matters.
"""
from __future__ import annotations

import dataclasses
import random
from typing import Iterable


MAX_STRANDS = 1000
"""The largest strand count ``parse_word`` accepts."""

MAX_LETTERS = 1_000_000
"""The most letters ``parse_word`` expands a text into."""


class WordSyntaxError(ValueError):
    """Malformed word text; ``position`` is the 0-based offset of the fault."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EmptyWordError(ValueError):
    """An empty word needs an explicit strand count to be meaningful."""


class InvalidMoveError(ValueError):
    """A Markov move whose parameters do not fit the word it is applied to."""


@dataclasses.dataclass(frozen=True)
class TwinWord:
    """A word in the twin group on ``strands`` strands."""

    letters: tuple[int, ...]
    strands: int

    def __post_init__(self):
        if not isinstance(self.letters, tuple):
            object.__setattr__(self, "letters", tuple(self.letters))
        if self.strands < 1:
            raise ValueError(f"strands must be >= 1, got {self.strands}")
        for l in self.letters:
            if not 1 <= l <= self.strands - 1:
                raise ValueError(
                    f"letter {l} out of range 1..{self.strands - 1} "
                    f"on {self.strands} strands"
                )

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_word(self)


def word(letters: Iterable[int], strands: int | None = None) -> TwinWord:
    """Build a TwinWord, defaulting strands to max letter + 1."""
    ls = tuple(letters)
    if strands is None:
        if not ls:
            raise EmptyWordError("empty word requires an explicit strand count")
        strands = max(ls) + 1
    return TwinWord(ls, strands)


def parse_word(text: str, strands: int | None = None) -> TwinWord:
    """Parse compact twin-word notation into a TwinWord.

    Grammar: a word is a sequence of items; an item is a digit 1-9, a
    parenthesized word, or ``t`` followed by a decimal index; any item may
    carry ``^k`` which repeats it (``^-k`` means the inverse, i.e. the
    reversal, since every generator is an involution). Digits are ASCII
    only, and ``-`` in an exponent is the only sign.

    The strand count defaults to max letter + 1; pass ``strands`` to embed
    the word in a larger group or to give an empty word a home.

    Input that would allocate without bound is refused before anything is
    allocated. A strand count above MAX_STRANDS (1000) raises ValueError.
    A ``t`` index of MAX_STRANDS or more, an exponent above MAX_LETTERS
    (1,000,000) in absolute value, or an item whose expansion would take
    the word past MAX_LETTERS letters raises WordSyntaxError at the index or
    the exponent.
    """
    if strands is not None and strands > MAX_STRANDS:
        raise ValueError(
            f"strand count {strands} exceeds the limit of {MAX_STRANDS}"
        )
    pos = 0
    n = len(text)

    def skip_ws() -> None:
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def read_int(what: str, name: str, limit: int) -> int:
        nonlocal pos
        start = pos
        if pos < n and text[pos] == "-":
            pos += 1
        while pos < n and "0" <= text[pos] <= "9":
            pos += 1
        digits = text[start:pos].lstrip("-")
        if not digits:
            raise WordSyntaxError(f"expected {what}", start)
        # the length test keeps int() off arbitrarily long digit strings
        if len(digits) > len(str(limit)) or int(digits) > limit:
            raise WordSyntaxError(f"{name} exceeds the limit of {limit}", start)
        return int(text[start:pos])

    # Groups are parsed with an explicit stack of the enclosing groups'
    # letter lists, so nesting depth is bounded by memory, not recursion.
    # ``count`` is the number of letters held on all levels together.
    enclosing: list[list[int]] = []
    out: list[int] = []
    count = 0
    while True:
        skip_ws()
        if pos >= n:
            if enclosing:
                raise WordSyntaxError("unbalanced '(': missing ')'", pos)
            break
        ch = text[pos]
        if ch == "(":
            enclosing.append(out)
            out = []
            pos += 1
            continue
        if ch == ")":
            if not enclosing:
                raise WordSyntaxError("unbalanced ')'", pos)
            pos += 1
            skip_ws()
            item, out = out, enclosing.pop()
            held = len(item)
        elif "0" <= ch <= "9":
            if ch == "0":
                raise WordSyntaxError("generator index must be >= 1", pos)
            pos += 1
            item, held = [int(ch)], 0
        elif ch == "t":
            pos += 1
            idx = read_int(
                "a generator index after 't'", "generator index", MAX_STRANDS - 1
            )
            if idx < 1:
                raise WordSyntaxError("generator index must be >= 1", pos - 1)
            item, held = [idx], 0
        else:
            raise WordSyntaxError(f"unexpected character {ch!r}", pos)
        at, k = pos, 1
        if pos < n and text[pos] == "^":
            pos += 1
            skip_ws()
            at, k = pos, read_int("an exponent after '^'", "exponent", MAX_LETTERS)
        if k < 0:
            item, k = item[::-1], -k
        count += len(item) * k - held
        if count > MAX_LETTERS:
            raise WordSyntaxError(
                f"word exceeds the limit of {MAX_LETTERS} letters", at
            )
        out.extend(item * k)

    return word(out, strands)


def format_word(w: TwinWord) -> str:
    """Compact digit form when every letter fits one digit, else t-form."""
    if not w.letters:
        return ""
    if all(l <= 9 for l in w.letters):
        return "".join(str(l) for l in w.letters)
    return " ".join(f"t{l}" for l in w.letters)


def reduce_word(w: TwinWord) -> TwinWord:
    """Shorten a word to a geodesic representative of the same element.

    One left-to-right pass with commutation lookback: each incoming letter
    scans back past letters it commutes with (index gap > 1) and cancels
    against an equal letter if it reaches one. The buffer stays fully
    reduced throughout: a cancelled letter commuted with every letter after
    it, so it blocked none of their scans, and its removal exposes no new
    cancellation.
    """
    out: list[int] = []
    for a in w.letters:
        j = len(out) - 1
        while j >= 0 and abs(out[j] - a) > 1:
            j -= 1
        if j >= 0 and out[j] == a:
            del out[j]
        else:
            out.append(a)
    return TwinWord(tuple(out), w.strands)


def inverse_word(w: TwinWord) -> TwinWord:
    """Generators are involutions, so the inverse is the reversal."""
    return TwinWord(w.letters[::-1], w.strands)


def permutation_of(w: TwinWord) -> tuple[int, ...]:
    """The induced permutation, as p[i] = final position of strand i.

    All positions are 0-based. Letters act in word order: the first letter
    swaps first, matching a top-to-bottom reading of the diagram.
    """
    pos = list(range(w.strands))  # position -> strand occupying it
    for l in w.letters:
        pos[l - 1], pos[l] = pos[l], pos[l - 1]
    p = [0] * w.strands
    for i, s in enumerate(pos):
        p[s] = i
    return tuple(p)


def component_count(w: TwinWord) -> int:
    """Number of cycles of the induced permutation = components of the closure."""
    p = permutation_of(w)
    seen = [False] * w.strands
    count = 0
    for i in range(w.strands):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j]
    return count


def iota_right(w: TwinWord) -> TwinWord:
    """Add an unused strand on the right: letters unchanged."""
    return TwinWord(w.letters, w.strands + 1)


def iota_left(w: TwinWord) -> TwinWord:
    """Add an unused strand on the left: every letter shifts up by one."""
    return TwinWord(tuple(l + 1 for l in w.letters), w.strands + 1)


def mirror_word(w: TwinWord) -> TwinWord:
    """The automorphism t_i -> t_(n-i) of T_n; psi(mirror w) = J psi(w) J."""
    n = w.strands
    return TwinWord(tuple(n - l for l in w.letters), n)


def stab_word_right(n: int, i: int) -> TwinWord:
    """The right hyper-stabilization word on n+1 strands.

    Palindrome of length 2i+1 descending from generator n to n-i and back;
    i = 0 gives the single letter n (the classical stabilization).
    """
    if not 0 <= i <= n - 1:
        raise IndexError(f"stabilization index {i} out of range 0..{n - 1}")
    down = list(range(n, n - i, -1))
    return TwinWord(tuple(down + [n - i] + down[::-1]), n + 1)


def stab_word_left(n: int, i: int) -> TwinWord:
    """The left hyper-stabilization word: stab_word_right in the mirror."""
    return mirror_word(stab_word_right(n, i))


@dataclasses.dataclass(frozen=True)
class MarkovMove:
    """One move of the doodle Markov equivalence.

    kind 'M0' trades an unused right edge strand for an unused left one,
    'M1' conjugates, 'M2R'/'M2L' are the (hyper-)stabilizations on either
    side. ``forward`` for M2 moves means adding a strand; for M0 it means
    going from the right-edge form to the left-edge form.
    """

    kind: str
    conjugator: TwinWord | None = None
    index: int | None = None
    forward: bool = True

    def __post_init__(self):
        if self.kind not in ("M0", "M1", "M2R", "M2L"):
            raise ValueError(f"unknown move kind {self.kind!r}")


def apply_markov(w: TwinWord, move: MarkovMove) -> TwinWord:
    """Apply one Markov move, validating its parameters against w.

    M0 backward and M2L are M0 forward and M2R seen in the mirror.
    """
    if move.kind == "M1":
        if move.conjugator is None:
            raise InvalidMoveError("M1 needs a conjugator word")
        g = move.conjugator
        if g.strands != w.strands:
            raise InvalidMoveError(
                f"conjugator lives on {g.strands} strands, word on {w.strands}"
            )
        if not move.forward:
            g = inverse_word(g)
        return TwinWord(inverse_word(g).letters + w.letters + g.letters, w.strands)
    if move.kind != "M0" and move.index is None:
        raise InvalidMoveError(f"{move.kind} needs a stabilization index")
    left = move.kind == "M2L" or (move.kind == "M0" and not move.forward)
    side = mirror_word(w) if left else w
    n = side.strands
    if move.kind == "M0":
        # Letter l moves only strands l-1 and l (0-based), so an edge strand
        # is unused exactly when no letter names it.
        if n < 2 or n - 1 in side.letters:
            raise InvalidMoveError("M0 needs 2 strands or more, an edge one unused")
        out = TwinWord(tuple(l + 1 for l in side.letters), n)
    elif move.forward:
        out = TwinWord(side.letters + _stab_letters(n, move.index), n + 1)
    else:
        out = _destabilize(reduce_word(side), move.index)
    return mirror_word(out) if left else out


def _stab_letters(n: int, i: int) -> tuple[int, ...]:
    """stab_word_right(n, i).letters, its IndexError raised as a move error."""
    try:
        return stab_word_right(n, i).letters
    except IndexError as exc:
        raise InvalidMoveError(str(exc)) from None


def _destabilize(reduced: TwinWord, i: int) -> TwinWord:
    """Undo M2R at index i: strip its pattern from an already-reduced word."""
    m = reduced.strands
    pattern = _stab_letters(m - 1, i)
    prefix = reduced.letters[: -len(pattern)]
    if reduced.letters[len(prefix) :] != pattern or m - 1 in prefix:
        raise InvalidMoveError(f"word is not an i={i} stabilization of T_{m - 1}")
    return TwinWord(prefix, m - 1)


def random_word(seed: int, max_strands: int, max_len: int) -> TwinWord:
    """A seeded random word; identical across runs for the same arguments."""
    if max_strands < 2:
        raise ValueError("max_strands must be >= 2")
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    rng = random.Random(seed)
    strands = rng.randint(2, max_strands)
    length = rng.randint(0, max_len)
    return TwinWord(tuple(rng.randint(1, strands - 1) for _ in range(length)), strands)


# Forward stabilizations stop growing the word past this many strands so
# random walks cannot blow up the matrix sizes downstream. So a walk step adds
# at most 2i + 1 <= 2n - 1 letters for n < 8, a conjugation at most 6.
_WALK_MAX_STRANDS = 8
WALK_STEP_LETTERS = 2 * _WALK_MAX_STRANDS - 3


def random_markov_walk(
    seed: int, w: TwinWord, steps: int
) -> tuple[TwinWord, list[MarkovMove]]:
    """Apply ``steps`` random valid Markov moves to w, recording them."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    rng = random.Random(seed)
    current = w
    trail: list[MarkovMove] = []
    for _ in range(steps):
        options = _available_moves(current, rng)
        move = rng.choice(options)
        current = apply_markov(current, move)
        trail.append(move)
    return current, trail


def _available_moves(w: TwinWord, rng: random.Random) -> list[MarkovMove]:
    n = w.strands
    options: list[MarkovMove] = []
    if n >= 2:
        g = TwinWord(
            tuple(rng.randint(1, n - 1) for _ in range(rng.randint(1, 3))), n
        )
        options.append(MarkovMove("M1", conjugator=g))
    if n < _WALK_MAX_STRANDS:
        options.append(MarkovMove("M2R", index=rng.randint(0, n - 1)))
        options.append(MarkovMove("M2L", index=rng.randint(0, n - 1)))
    if n >= 2 and n - 1 not in w.letters:
        options.append(MarkovMove("M0", forward=True))
    if n >= 2 and 1 not in w.letters:
        options.append(MarkovMove("M0", forward=False))
    # A pattern of length 2i+1 starts at the first edge letter (it begins
    # with one and the prefix has none), so only that i can be removed, and
    # only if the run from there to the end has odd length. The left side is
    # checked in the mirror.
    reduced = reduce_word(w)
    for kind, edge in (("M2R", n - 1), ("M2L", 1)):
        first = reduced.letters.index(edge) if edge in reduced.letters else len(reduced)
        i, odd = divmod(len(reduced) - first, 2)
        if not odd:
            continue
        try:
            _destabilize(reduced if kind == "M2R" else mirror_word(reduced), i)
        except InvalidMoveError:
            continue
        options.append(MarkovMove(kind, index=i, forward=False))
    return options
