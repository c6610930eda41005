"""The benchmark's workloads: seeded inputs, the op each input drives, checks.

Every workload yields its inputs in passes. A pass is one round of the
workload's input mix, so a run that stops at a pass boundary always
measures the same mix. Each workload runs an op two ways:

- ``run`` makes the public call a user makes, with nothing around it;
- ``traced`` rebuilds the same op from the public pipeline functions, each
  inside a span, and returns every invariant it evaluated so the runner can
  hold it against ``f_invariant`` bit for bit.

``check`` judges a result with the benchmark's own oracle and returns a
reason when it is wrong.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import random
from typing import Iterator

import oracle
from doodlepoly import cli
from doodlepoly.invariant import (
    InvariantValue,
    canonical_invariant,
    f_invariant,
    p_poly,
    skein_defect,
)
from doodlepoly.poly import ONE, ZERO, IntPoly
from doodlepoly.rep import PolyMatrix, determinant, psi
from doodlepoly.table import dataset, encode_entry, family_b
from doodlepoly.twin import (
    TwinWord,
    format_word,
    parse_word,
    random_markov_walk,
    random_word,
)
from spans import Tracer

_X2_MINUS_1 = IntPoly((-1, 0, 1))


@dataclasses.dataclass
class Evaluation:
    """One invariant evaluated inside a traced op, with its intermediates."""

    word: TwinWord
    value: InvariantValue
    image: PolyMatrix | None
    det: IntPoly | None


def traced_invariant(tr: Tracer, w: TwinWord) -> Evaluation:
    """f_invariant(w), stage by stage, each stage in its own span."""
    image = det = None
    with tr.span("invariant"):
        if w.strands == 1:
            value = InvariantValue(raw=ONE, strands=1, valuation=0, canonical=ONE)
        else:
            n = w.strands
            with tr.span("rep.psi"):
                image = psi(w)
            with tr.span("rep.sub_identity"):
                m = image - PolyMatrix.identity(n - 1)
            with tr.span("rep.det"):
                det = determinant(m)
            with tr.span("invariant.normalizer"):
                normalizer = p_poly(n - 1)
            with tr.span("poly.div"):
                raw = det.exact_div(normalizer)
            if raw.is_zero():
                value = InvariantValue(raw=ZERO, strands=n, valuation=0, canonical=ZERO)
            else:
                with tr.span("poly.strip"):
                    v, stripped = raw.x2_valuation()
                value = InvariantValue(raw=raw, strands=n, valuation=v, canonical=stripped)
    tr.add("rep.psi_letters", len(w.letters))
    return Evaluation(w, value, image, det)


def invariant_error(w: TwinWord, value: InvariantValue) -> str | None:
    return oracle.invariant_error(
        w.strands, w.letters, value.raw.coeffs, value.valuation, value.canonical.coeffs
    )


# --- table -----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TableOp:
    record: str
    word: TwinWord
    argv: tuple[str, ...]
    expected: str


class Table:
    """`compute --format table` through cli.main on walked reference records."""

    name = "table"

    def __init__(self) -> None:
        self.records = dataset()
        self.expected = [
            oracle.stripped_text(oracle.decode_record(r.encoded)) + "\n"
            for r in self.records
        ]

    def passes(self, rng: random.Random) -> Iterator[list[TableOp]]:
        while True:
            order = list(range(len(self.records)))
            rng.shuffle(order)
            ops = []
            for k in order:
                record = self.records[k]
                end, _ = random_markov_walk(
                    rng.randrange(2**32), record.word(), rng.randint(1, 4)
                )
                argv = ("compute", "--word", format_word(end),
                        "--strands", str(end.strands), "--format", "table")
                ops.append(TableOp(record.name, end, argv, self.expected[k]))
            yield ops

    def run(self, op: TableOp) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(op.argv))
        return code, out.getvalue()

    def traced(self, tr: Tracer, op: TableOp) -> tuple[tuple[int, str], list[Evaluation]]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            with tr.span("cli.args"):
                args = cli.build_parser().parse_args(list(op.argv))
            with tr.span("twin.parse"):
                w = parse_word(args.word, strands=args.strands)
            ev = traced_invariant(tr, w)
            with tr.span("table.codec"):
                canonical = ev.value.canonical
                text = "0" if canonical.is_zero() else encode_entry(canonical)
            print(text)
        return (0, out.getvalue()), [ev]

    def check(self, op: TableOp, result: tuple[int, str]) -> str | None:
        code, text = result
        if code != 0 or text != op.expected:
            return (f"record {op.record} as {op.argv[2]!r} on {op.argv[4]} strands: "
                    f"exit {code}, printed {text!r}, expected {op.expected!r}")
        return None

    def words(self, op: TableOp, result) -> list[TwinWord]:
        return [op.word]


# --- suites ----------------------------------------------------------------

# The CLI defaults of markov-test (--max-strands, --max-len, --max-moves) and
# the fixed prefix size of skein-test.
MARKOV_STRANDS, MARKOV_LEN, MARKOV_MOVES = 5, 10, 6
SKEIN_STRANDS, SKEIN_LEN = 5, 8
TRIALS_PER_PASS = 50


@dataclasses.dataclass(frozen=True)
class MarkovOp:
    word_seed: int
    moves: int
    walk_seed: int


@dataclasses.dataclass(frozen=True)
class SkeinOp:
    prefix_seed: int
    pick: int


def _skein_input(op: SkeinOp) -> tuple[TwinWord, int]:
    prefix = random_word(op.prefix_seed, SKEIN_STRANDS, SKEIN_LEN)
    if prefix.strands < 3:
        prefix = TwinWord(prefix.letters, 3)
    return prefix, 1 + op.pick % (prefix.strands - 2)


def _skein_words(prefix: TwinWord, i: int) -> list[TwinWord]:
    n = prefix.strands
    return [
        TwinWord(prefix.letters + extra, n)
        for extra in ((i, i + 1, i), (i + 1, i, i + 1), (i,), (i + 1,))
    ]


class Suites:
    """markov-test and skein-test trials, alternating, at the CLI defaults."""

    name = "suites"

    def passes(self, rng: random.Random) -> Iterator[list[MarkovOp | SkeinOp]]:
        while True:
            ops: list[MarkovOp | SkeinOp] = []
            for _ in range(TRIALS_PER_PASS):
                ops.append(MarkovOp(rng.randrange(2**32), rng.randint(0, MARKOV_MOVES),
                                    rng.randrange(2**32)))
                ops.append(SkeinOp(rng.randrange(2**32), rng.randrange(2**32)))
            yield ops

    def run(self, op):
        if isinstance(op, MarkovOp):
            w = random_word(op.word_seed, MARKOV_STRANDS, MARKOV_LEN)
            end, _ = random_markov_walk(op.walk_seed, w, op.moves)
            return w, end, canonical_invariant(w), canonical_invariant(end)
        prefix, i = _skein_input(op)
        return prefix, i, skein_defect(prefix, i)

    def traced(self, tr: Tracer, op):
        if isinstance(op, MarkovOp):
            with tr.span("twin.gen"):
                w = random_word(op.word_seed, MARKOV_STRANDS, MARKOV_LEN)
            with tr.span("twin.walk"):
                end, trail = random_markov_walk(op.walk_seed, w, op.moves)
            tr.add("twin.walk_moves", len(trail))
            evs = [traced_invariant(tr, w), traced_invariant(tr, end)]
            return (w, end, evs[0].value.canonical, evs[1].value.canonical), evs
        with tr.span("twin.gen"):
            prefix, i = _skein_input(op)
        evs = [traced_invariant(tr, w) for w in _skein_words(prefix, i)]
        with tr.span("invariant.skein_combine"):
            f = [ev.value.raw for ev in evs]
            defect = (f[0] - f[1]) - _X2_MINUS_1 * (f[2] - f[3])
        return (prefix, i, defect), evs

    def check(self, op, result) -> str | None:
        if isinstance(op, MarkovOp):
            w, end, before, after = result
            if before != after:
                return f"Markov walk {op} changed the invariant: {w!r} -> {end!r}"
            return None
        prefix, i, defect = result
        if not defect.is_zero():
            return f"skein defect {defect} for prefix {prefix!r}, i = {i}"
        return None

    def words(self, op, result) -> list[TwinWord]:
        if isinstance(op, MarkovOp):
            return list(result[:2])
        return _skein_words(*result[:2])


# --- long ------------------------------------------------------------------

# One pass: random one-component words as (strands, letters), then one
# family_b(n) from each n range. The classes are chosen so that the median
# op lands inside LONG_CORE and the 90th percentile inside LONG_HEAVY, each a
# third to a half of the pass with near-equal cost (about 0.18 s and 0.5 s
# on a 2-core Xeon): a quantile that fell between two classes would jump
# with the seed. A 16-strand word of 401 letters (2 s) is left out so that
# a run holds well over 100 ops. Every length has the parity a one-component
# word needs. Within a run no family_b(n) repeats until its range is used up.
LONG_CORE = ((8, 201), (12, 151)) * 4
LONG_HEAVY = ((8, 401), (12, 251), (16, 201), (8, 351))
LONG_FAMILY = ((16, 44), (44, 72), (72, 100), (100, 129))


def cycle_count(strands: int, letters: tuple[int, ...]) -> int:
    """Cycles of the permutation the letters induce (closure components)."""
    image = list(range(strands))
    for l in letters:
        image[l - 1], image[l] = image[l], image[l - 1]
    seen = [False] * strands
    cycles = 0
    for start in range(strands):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = image[j]
    return cycles


def one_component_word(rng: random.Random, strands: int, length: int) -> TwinWord:
    """A uniform random word whose closure has one component.

    Each letter is a transposition, so the permutation's sign is
    (-1)^length, and an n-cycle has sign (-1)^(n-1): with the other parity
    no sample can succeed and rejection sampling would never end.
    """
    if (length - (strands - 1)) % 2:
        raise ValueError(f"no one-component word of {length} letters on {strands} strands")
    while True:
        letters = tuple(rng.randint(1, strands - 1) for _ in range(length))
        if cycle_count(strands, letters) == 1:
            return TwinWord(letters, strands)


class Long:
    """The invariant of long one-component words and of family_b(n)."""

    name = "long"

    def passes(self, rng: random.Random) -> Iterator[list[TwinWord]]:
        unused: list[list[int]] = [[] for _ in LONG_FAMILY]
        while True:
            ops = [one_component_word(rng, n, length) for n, length in LONG_CORE + LONG_HEAVY]
            for pool, (lo, hi) in zip(unused, LONG_FAMILY):
                if not pool:
                    pool.extend(range(lo, hi))
                    rng.shuffle(pool)
                ops.append(family_b(pool.pop()))
            rng.shuffle(ops)
            yield ops

    def run(self, w: TwinWord) -> InvariantValue:
        return f_invariant(w)

    def traced(self, tr: Tracer, w: TwinWord):
        ev = traced_invariant(tr, w)
        return ev.value, [ev]

    def check(self, w: TwinWord, value: InvariantValue) -> str | None:
        error = invariant_error(w, value)
        return None if error is None else f"{error} for {w!r}"

    def words(self, w: TwinWord, result) -> list[TwinWord]:
        return [w]


WORKLOADS = {w.name: w for w in (Table, Suites, Long)}
