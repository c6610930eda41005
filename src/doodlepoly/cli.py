"""Command-line front end.

Subcommands: ``compute`` evaluates the invariant of one word, ``components``
counts closure components, ``table`` verifies (or dumps) the bundled
reference table, ``family`` scans the built-in doodle families, and
``markov-test`` / ``skein-test`` run the randomized property suites.

Exit codes are a stable contract: 0 success, 1 a verification or property
failure, 2 a usage or parse error. Randomized commands are reproducible
from --seed alone.
"""
from __future__ import annotations

import argparse
import random
import sys

from .invariant import canonical_invariant, f_invariant, skein_defect
from .table import (
    dataset,
    dataset_text,
    encode_entry,
    entry_by_name,
    family_b,
    family_c,
    verify_entry,
)
from .twin import (
    MAX_STRANDS,
    EmptyWordError,
    TwinWord,
    WordSyntaxError,
    component_count,
    parse_word,
    random_markov_walk,
    random_word,
)


class _UsageError(Exception):
    """Carries a diagnostic already formatted for stderr; exits with 2."""


def _caret_error(message: str, text: str, position: int) -> _UsageError:
    return _UsageError(f"error: {message}\n  {text}\n  {' ' * position}^")


def _word_from_args(args: argparse.Namespace) -> TwinWord:
    text = args.word
    if args.strands is not None and args.strands > MAX_STRANDS:
        raise _caret_error(
            f"strand count exceeds the limit of {MAX_STRANDS}",
            f"--strands {args.strands}",
            len("--strands "),
        )
    try:
        return parse_word(text, strands=args.strands)
    except WordSyntaxError as exc:
        raise _caret_error(str(exc), text, exc.position) from exc
    except EmptyWordError as exc:
        raise _UsageError(f"error: {exc}; pass --strands") from exc
    except ValueError as exc:
        raise _UsageError(f"error: {exc}") from exc


def _encoded_or_zero(p) -> str:
    return "0" if p.is_zero() else encode_entry(p)


def cmd_compute(args: argparse.Namespace) -> int:
    w = _word_from_args(args)
    value = f_invariant(w)
    if args.format == "table":
        print(_encoded_or_zero(value.canonical))
        return 0
    if args.format == "coeffs":
        print(list(value.raw.coeffs))
        return 0
    print(f"word:        {w}")
    print(f"strands:     {w.strands}")
    print(f"components:  {component_count(w)}")
    print(f"f:           {value.raw}")
    print(f"valuation:   x^{2 * value.valuation}")
    print(f"canonical:   {value.canonical}")
    print(f"encoded:     {_encoded_or_zero(value.canonical)}")
    return 0


def cmd_components(args: argparse.Namespace) -> int:
    print(component_count(_word_from_args(args)))
    return 0


def cmd_markov_test(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    failures = 0
    for trial in range(args.trials):
        w = random_word(rng.randrange(2**32), args.max_strands, args.max_len)
        moves = rng.randint(0, args.max_moves)
        end, trail = random_markov_walk(rng.randrange(2**32), w, moves)
        if canonical_invariant(w) != canonical_invariant(end):
            failures += 1
            if failures == 1:
                print(
                    f"counterexample at trial {trial}: start={w!r} "
                    f"moves={trail!r} end={end!r}",
                    file=sys.stderr,
                )
    print(
        f"markov-test: {args.trials} trials, {args.trials - failures} passed, "
        f"{failures} failed (seed {args.seed})"
    )
    return 1 if failures else 0


def cmd_skein_test(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    failures = 0
    for trial in range(args.trials):
        prefix = random_word(rng.randrange(2**32), 5, 8)
        if prefix.strands < 3:
            prefix = TwinWord(prefix.letters, 3)
        i = rng.randint(1, prefix.strands - 2)
        defect = skein_defect(prefix, i)
        if not defect.is_zero():
            failures += 1
            if failures == 1:
                print(
                    f"counterexample at trial {trial}: prefix={prefix!r} "
                    f"i={i} defect={defect}",
                    file=sys.stderr,
                )
    print(
        f"skein-test: {args.trials} trials, {args.trials - failures} passed, "
        f"{failures} failed (seed {args.seed})"
    )
    return 1 if failures else 0


def cmd_table(args: argparse.Namespace) -> int:
    if args.action == "show":
        print(dataset_text(), end="")
        return 0
    if args.entry is not None:
        try:
            entries = (entry_by_name(args.entry),)
        except KeyError as exc:
            raise _UsageError(f"error: {exc.args[0]}") from exc
    else:
        entries = dataset()
    bad = 0
    for entry in entries:
        report = verify_entry(entry)
        comp = (
            "ok"
            if report.components_ok
            else f"BAD (computed {report.components_computed})"
        )
        print(
            f"{entry.name:7s} match={report.match}  "
            f"components={entry.components} {comp}"
        )
        if not report.ok():
            bad += 1
    print(f"table: {len(entries)} entries, {len(entries) - bad} ok, {bad} failing")
    return 1 if bad else 0


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    n = int(text)
    return n, n


def cmd_family(args: argparse.Namespace) -> int:
    if args.b is not None:
        try:
            lo, hi = _parse_range(args.b)
        except ValueError as exc:
            raise _UsageError(f"error: bad range {args.b!r}") from exc
        for n in range(lo, hi + 1):
            value = canonical_invariant(family_b(n))
            print(f"B_{n}: {_encoded_or_zero(value)}")
        return 0
    r, n_text = args.c
    try:
        lo, hi = _parse_range(n_text)
    except ValueError as exc:
        raise _UsageError(f"error: bad range {n_text!r}") from exc
    for n in range(lo, hi + 1):
        value = canonical_invariant(family_c(int(r), n))
        print(f"C^{r}_{n}: {_encoded_or_zero(value)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doodlepoly",
        description="Polynomial doodle invariants from twin-group words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="invariant of one twin word")
    p.add_argument("--word", required=True, help="twin word, e.g. '(12)^3'")
    p.add_argument("--strands", type=int, help="override the strand count")
    p.add_argument(
        "--format",
        choices=("pretty", "table", "coeffs"),
        default="pretty",
        help="pretty = full report, table = encoded canonical, coeffs = raw list",
    )
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("components", help="closure component count of a word")
    p.add_argument("--word", required=True)
    p.add_argument("--strands", type=int)
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("markov-test", help="random-walk invariance suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-strands", type=int, default=5)
    p.add_argument("--max-len", type=int, default=10)
    p.add_argument("--max-moves", type=int, default=6)
    p.set_defaults(func=cmd_markov_test)

    p = sub.add_parser("skein-test", help="four-term skein identity suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=cmd_skein_test)

    p = sub.add_parser("table", help="verify or dump the reference table")
    p.add_argument("action", choices=("verify", "show"), nargs="?", default="verify")
    p.add_argument("--entry", help="verify a single entry by name")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("family", help="scan a built-in doodle family")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--b", metavar="N[..M]", help="two-generator family range")
    group.add_argument(
        "--c", nargs=2, metavar=("R", "N[..M]"), help="circle-decorated family"
    )
    p.set_defaults(func=cmd_family)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, minimum in (
        ("trials", 0),
        ("max_strands", 2),
        ("max_len", 0),
        ("max_moves", 0),
    ):
        value = getattr(args, name, None)
        if value is not None and value < minimum:
            parser.error(f"--{name.replace('_', '-')} must be >= {minimum}")
    try:
        return args.func(args)
    except _UsageError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
