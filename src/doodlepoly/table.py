"""The bundled reference table of small doodles and its polynomial codec.

Each record names a doodle by crossing count and component count (with a
letter suffix where several share both), gives a twin word whose closure
is that doodle, and gives the expected invariant in the compact ``{k}(...)``
encoding: ``{k}`` is half the top degree and the parenthesized integers are
the coefficients of descending even powers of x. ``{7}(1,2,-1,-2,1)`` is
x^14 + 2x^12 - x^10 - 2x^8 + x^6, and the bare token ``0`` is the zero
polynomial. Verification recomputes every record from its word.
"""
from __future__ import annotations

import dataclasses
import functools
import re

from .invariant import f_invariant
from .poly import ZERO, IntPoly, ZeroPolynomialError
from .twin import TwinWord, component_count, parse_word


class FormatError(ValueError):
    """Malformed ``{k}(...)`` text; ``position`` is the 0-based fault offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class OddTermsError(ValueError):
    """Only polynomials in Z[x^2] have a table encoding."""


@dataclasses.dataclass(frozen=True)
class TableEntry:
    """One reference record: identity, twin word, expected encoded value."""

    name: str
    crossings: int
    components: int
    word_text: str
    encoded: str

    def word(self) -> TwinWord:
        """The parsed twin word; the trivial doodle is the empty word in T_1."""
        if not self.word_text.strip():
            return TwinWord((), 1)
        return parse_word(self.word_text)


_ENCODED_RE = re.compile(r"\{([^{}]*)\}")
_K_RE = re.compile(r"0|[1-9][0-9]*")
_COEFF_RE = re.compile(r"0|-?[1-9][0-9]*")

MAX_HALF_DEGREE = 1_000_000
"""The largest ``{k}`` that ``decode_entry`` accepts."""


def decode_entry(text: str) -> IntPoly:
    """Decode ``{k}(c1,...,cm)`` (or the zero token ``0``) into a polynomial.

    A ``k`` above MAX_HALF_DEGREE raises FormatError before anything of
    size k is allocated. Only the spelling ``encode_entry`` writes is read,
    up to whitespace around the coefficients: ``k`` and every coefficient
    are ASCII decimals without a '+' sign, leading zeros or '_', and the
    first and last coefficients are nonzero. Anything else raises
    FormatError at the offending token.
    """
    s = text.strip()
    if s == "0":
        return ZERO
    m = _ENCODED_RE.match(s)
    if not m:
        raise FormatError("expected '{k}' with a nonnegative integer k", 0)
    digits = m.group(1)
    if not _K_RE.fullmatch(digits):
        raise FormatError(f"k must be a canonical ASCII integer, got {digits!r}", 1)
    if len(digits) > len(str(MAX_HALF_DEGREE)) or int(digits) > MAX_HALF_DEGREE:
        raise FormatError(f"k exceeds the limit of {MAX_HALF_DEGREE}", 1)
    k = int(digits)
    pos = m.end()
    if pos >= len(s) or s[pos] != "(":
        raise FormatError("expected '(' after '{k}'", pos)
    if not s.endswith(")"):
        raise FormatError("expected ')' at the end", len(s) - 1)
    body = s[pos + 1:-1]
    coeffs: list[int] = []
    starts: list[int] = []
    offset = pos + 1
    for part in body.split(","):
        token = part.strip()
        start = offset + len(part) - len(part.lstrip())
        if not _COEFF_RE.fullmatch(token):
            raise FormatError(
                f"expected a canonical ASCII integer, got {token!r}", start
            )
        coeffs.append(int(token))
        starts.append(start)
        offset += len(part) + 1
    for j, end in ((0, "first"), (-1, "last")):
        if not coeffs[j]:
            raise FormatError(f"the {end} coefficient must be nonzero", starts[j])
    if len(coeffs) > k + 1:
        raise FormatError(f"{len(coeffs)} coefficients exceed k+1 = {k + 1}", pos)
    out = [0] * (2 * k + 1)
    for j, c in enumerate(coeffs):
        out[2 * (k - j)] = c
    return IntPoly(out)


def encode_entry(p: IntPoly) -> str:
    """Encode a nonzero polynomial in Z[x^2] as ``{k}(c1,...,cm)``.

    Coefficients run from the top degree 2k down to the lowest nonzero even
    term; zeros below that are omitted, interior zeros are kept.
    """
    if p.is_zero():
        raise ZeroPolynomialError("the zero polynomial has no {k}(...) encoding")
    if not p.is_even():
        raise OddTermsError(f"{p} has odd-degree terms")
    k = p.degree // 2
    low = 0
    while p[low] == 0:
        low += 1
    coeffs = [p[2 * j] for j in range(k, low // 2 - 1, -1)]
    return "{%d}(%s)" % (k, ",".join(str(c) for c in coeffs))


@dataclasses.dataclass(frozen=True)
class VerifyReport:
    """Outcome of recomputing one table entry.

    ``match`` is 'exact' when the recomputed invariant equals the decoded
    table value, else 'mismatch'.
    """

    entry: TableEntry
    match: str
    computed: IntPoly
    components_computed: int
    components_ok: bool

    def ok(self) -> bool:
        return self.match == "exact" and self.components_ok


def verify_entry(entry: TableEntry) -> VerifyReport:
    """Recompute an entry's invariant and compare against its encoding."""
    w = entry.word()
    computed = f_invariant(w).raw
    comp = component_count(w)
    return VerifyReport(
        entry=entry,
        match="exact" if computed == decode_entry(entry.encoded) else "mismatch",
        computed=computed,
        components_computed=comp,
        components_ok=comp == entry.components,
    )


def family_b(n: int) -> TwinWord:
    """The two-generator power family on 3 strands: (t1 t2)^n.

    Closures have three components when 3 divides n, one otherwise.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return TwinWord((1, 2) * n, 3)


def family_c(r: int, n: int) -> TwinWord:
    """The circle-decorated family on r+3 strands.

    The block t1 (t2...t_(r+1)) t_(r+2) (t_(r+1)...t2) repeated n times;
    the invariant vanishes on the whole family.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    block = (1,) + tuple(range(2, r + 2)) + (r + 2,) + tuple(range(r + 1, 1, -1))
    return TwinWord(block * n, r + 3)


@functools.lru_cache(maxsize=None)
def dataset() -> tuple[TableEntry, ...]:
    """All fixed reference records, in listed order."""
    entries = []
    for line in _DATASET_TEXT.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, crossings, components, word_text, encoded = (
            field.strip() for field in line.split("|")
        )
        entries.append(
            TableEntry(name, int(crossings), int(components), word_text, encoded)
        )
    return tuple(entries)


def entry_by_name(name: str) -> TableEntry:
    for e in dataset():
        if e.name == name:
            return e
    raise KeyError(f"no table entry named {name!r}")


def dataset_text() -> str:
    """The raw record text (UTF-8, pipe-separated, '#' comments)."""
    return _DATASET_TEXT


# One record per line: name | crossings | components | word | encoding.
# Words use the parse_word grammar; the empty word is the trivial doodle.
# A letter suffix distinguishes doodles sharing crossing/component counts.
#
# Five records repair defects in the upstream listing, each fix forced by
# exact recomputation and cross-checked against an independent symbolic
# implementation: 17^1a, 21^1a and 21^1d restore interior zero
# coefficients the listing dropped, 24^3 untransposes two digits in one
# coefficient (-4532 -> -4352), and 15^1b raises a misprinted exponent
# ((12)^3 -> (12)^4; the printed word closes to 3 components, not 1, and
# the corrected word reproduces the listed polynomial exactly).
_DATASET_TEXT = """\
# One component doodles
0^1    |  0 | 1 |                                                   | {0}(1)
8^1    |  8 | 1 | (12)^4                                            | {3}(1,-4,4)
9^1    |  9 | 1 | (321)^3                                           | {2}(4,-4,1)
10^1   | 10 | 1 | (12)^5                                            | {4}(1,-6,11,-6,1)
11^1   | 11 | 1 | (21)^2(23)^2 123                                  | {4}(1,-2,3,-2,1)
14^1   | 14 | 1 | (12)^7                                            | {6}(1,-10,37,-62,46,-12,1)
15^1a  | 15 | 1 | 54321 (432)^2 54321 2 (43)^2                      | {7}(1,2,-1,-2,1)
15^1b  | 15 | 1 | (12)^4 321 (32)^2                                 | {6}(1,-6,13,-14,10,-4,1)
15^1c  | 15 | 1 | (321)^5                                           | {4}(16,-48,44,-12,1)
16^1a  | 16 | 1 | 321 (3214)^2 321 34                               | {5}(1,4,0,-8,4)
16^1b  | 16 | 1 | (12)^8                                            | {7}(1,-12,56,-128,148,-80,16)
17^1a  | 17 | 1 | (43)^2 54321 (43)^2 (23)^2 54321 2                | {9}(1,-2,1,2,-2,0,1)
17^1b  | 17 | 1 | (12)^2 321 (32)^2 (12)^3                          | {7}(1,-8,24,-36,32,-16,4)
17^1c  | 17 | 1 | 7654321 (43)^2 23 54 654 7654321 432 45 434 65 45 | {14}(1,-4,4)
20^1   | 20 | 1 | (12)^10                                           | {9}(1,-16,106,-376,771,-920,610,-200,25)
21^1a  | 21 | 1 | 12343 56 543212 (543)^2 765432 (43)^2 5676 5434   | {14}(1,0,2,-2,1,-2,1)
21^1b  | 21 | 1 | (12)^3 321323 (21)^4 2                            | {9}(1,-12,58,-148,223,-212,130,-48,9)
21^1c  | 21 | 1 | 543212 (43)^2 54321 (43)^2 (23)^4                 | {11}(1,-6,11,-4,-7,8,-1,-2,1)
21^1d  | 21 | 1 | 7654323 (54)^2 654321 765432 (43)^2 5654321 543   | {12}(4,0,-4,0,1)
21^1e  | 21 | 1 | (123)^7                                           | {6}(64,-320,592,-496,184,-24,1)
22^1   | 22 | 1 | (12)^11                                           | {10}(1,-18,137,-574,1444,-2232,2083,-1106,295,-30,1)
24^1   | 24 | 1 | (1234)^6                                          | {10}(1,-24,218,-960,2251,-2880,1962,-648,81)
26^1   | 26 | 1 | (12)^13                                           | {12}(1,-22,211,-1158,4013,-9142,13820,-13672,8518,-3108,581,-42,1)
28^1   | 28 | 1 | (12)^14                                           | {13}(1,-24,254,-1560,6157,-16336,29618,-36568,30086,-15792,4900,-784,49)
32^1   | 32 | 1 | (12)^16                                           | {15}(1,-28,352,-2624,12904,-44064,107104,-186880,233108,-204528,122464,-47616,11088,-1344,64)
# Multi-component doodles
10^2   | 10 | 2 | (12)^2 3 2 1 3 2 3                                | 0
18^2   | 18 | 2 | (123)^6                                           | 0
6^3    |  6 | 3 | (12)^3                                            | {2}(1,-2,1)
12^3   | 12 | 3 | (12)^6                                            | {5}(1,-8,22,-24,9)
16^3   | 16 | 3 | 4 3 2 3 1 2 3 2 4 3 2 1 (23)^4                    | {8}(1,-6,15,-20,15,-6,1)
18^3   | 18 | 3 | (12)^9                                            | {8}(1,-14,79,-230,367,-314,130,-20,1)
21^3   | 21 | 3 | 12343 (23)^2 5 (432)^2 1234 3 543 234             | {11}(1,-4,4,4,-10,4,4,-4,1)
24^3   | 24 | 3 | (12)^12                                           | {11}(1,-20,172,-832,2486,-4744,5776,-4352,1897,-420,36)
12^4a  | 12 | 4 | 54321 343 2 343 54321 323 43                      | 0
12^4b  | 12 | 4 | (123)^4                                           | 0
20^4   | 20 | 4 | (1 3 2 3 2)^4                                     | 0
16^5   | 16 | 5 | 1234321 32123 432 1 23                            | 0
"""
