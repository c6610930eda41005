import pytest

from doodlepoly.invariant import canonical_invariant, f_invariant
from doodlepoly.poly import ONE, ZERO, IntPoly, ZeroPolynomialError
from doodlepoly.table import (
    MAX_HALF_DEGREE,
    FormatError,
    OddTermsError,
    dataset,
    dataset_text,
    decode_entry,
    encode_entry,
    entry_by_name,
    family_b,
    family_c,
    verify_entry,
)
from doodlepoly.twin import TwinWord, component_count


def P(*coeffs: int) -> IntPoly:
    return IntPoly(coeffs)


class TestDecode:
    def test_worked_example(self):
        # {7}(1,2,-1,-2,1) = x^14 + 2x^12 - x^10 - 2x^8 + x^6
        expected = IntPoly([0] * 6 + [1, 0, -2, 0, -1, 0, 2, 0, 1])
        assert decode_entry("{7}(1,2,-1,-2,1)") == expected

    def test_borromean(self):
        assert decode_entry("{2}(1,-2,1)") == P(1, 0, -2, 0, 1)

    def test_trivial(self):
        assert decode_entry("{0}(1)") == ONE

    def test_zero_token(self):
        assert decode_entry("0") == ZERO

    def test_interior_zero(self):
        assert decode_entry("{5}(1,4,0,-8,4)") == IntPoly(
            [0, 0, 4, 0, -8, 0, 0, 0, 4, 0, 1]
        )

    def test_whitespace_tolerated(self):
        assert decode_entry(" {2}( 1 , -2 , 1 ) ") == P(1, 0, -2, 0, 1)

    @pytest.mark.parametrize(
        "text",
        ["{a}(1)", "(1,2)", "{2}1,2", "{2}(1,2", "{2}(1,x)", "{1}(1,2,3)"],
    )
    def test_format_errors(self, text):
        with pytest.raises(FormatError):
            decode_entry(text)

    def test_error_position(self):
        with pytest.raises(FormatError) as exc:
            decode_entry("{2}(1,?)")
        assert exc.value.position == 6

    @pytest.mark.parametrize(
        "text, position",
        [("{2}(0,1)", 4), ("{0}(0)", 4), ("{1}(1,0)", 6), ("{1}(1,-0)", 6)],
    )
    def test_non_canonical_refused(self, text, position):
        # each would decode to a polynomial that encodes differently
        with pytest.raises(FormatError, match="coefficient must be nonzero") as exc:
            decode_entry(text)
        assert exc.value.position == position

    @pytest.mark.parametrize(
        "k", ["1000001", "9" * 20, "9" * 5000], ids=["over", "20-digits", "5000-digits"]
    )
    def test_half_degree_limit(self, k):
        # refused before a list of size k is built
        with pytest.raises(FormatError, match="exceeds the limit") as exc:
            decode_entry("{%s}(1)" % k)
        assert exc.value.position == 1

    def test_half_degree_limit_inclusive(self):
        assert decode_entry("{%d}(1)" % MAX_HALF_DEGREE).degree == 2 * MAX_HALF_DEGREE


class TestEncode:
    def test_borromean(self):
        assert encode_entry(P(1, 0, -2, 0, 1)) == "{2}(1,-2,1)"

    def test_constant_one(self):
        assert encode_entry(ONE) == "{0}(1)"

    def test_trailing_zeros_omitted(self):
        assert encode_entry(IntPoly([0, 0, 4, 0, -4, 0, 1])) == "{3}(1,-4,4)"

    def test_interior_zero_kept(self):
        p = decode_entry("{5}(1,4,0,-8,4)")
        assert encode_entry(p) == "{5}(1,4,0,-8,4)"

    def test_odd_terms_rejected(self):
        with pytest.raises(OddTermsError):
            encode_entry(P(0, 1))

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            encode_entry(ZERO)

    def test_roundtrip_random(self):
        import random

        rng = random.Random(13)
        for _ in range(100):
            coeffs = []
            for _ in range(rng.randint(1, 8)):
                coeffs.extend((rng.randint(-9, 9), 0))
            p = IntPoly(coeffs[:-1])
            if p.is_zero():
                continue
            assert decode_entry(encode_entry(p)) == p


class TestDataset:
    def test_size(self):
        assert len(dataset()) == 37

    def test_known_records(self):
        e = entry_by_name("6^3")
        assert (e.crossings, e.components, e.word_text) == (6, 3, "(12)^3")
        assert e.encoded == "{2}(1,-2,1)"
        e = entry_by_name("8^1")
        assert (e.crossings, e.components, e.word_text) == (8, 1, "(12)^4")
        assert e.encoded == "{3}(1,-4,4)"
        e = entry_by_name("10^2")
        assert e.encoded == "0"
        assert e.components == 2

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            entry_by_name("99^9")

    def test_every_word_parses(self):
        for e in dataset():
            w = e.word()
            assert w.strands >= 1

    def test_codec_roundtrip_on_entries(self):
        for e in dataset():
            p = decode_entry(e.encoded)
            if p.is_zero():
                assert e.encoded == "0"
            else:
                assert encode_entry(p) == e.encoded

    def test_names_unique(self):
        names = [e.name for e in dataset()]
        assert len(names) == len(set(names))

    def test_text_export_parses_back(self):
        lines = [
            l for l in dataset_text().splitlines() if l.strip() and not l.startswith("#")
        ]
        assert len(lines) == len(dataset())


class TestVerify:
    def test_all_entries_verify(self):
        for e in dataset():
            report = verify_entry(e)
            assert report.match == "exact", (e.name, report.match)
            assert report.components_ok, e.name

    def test_borromean_report(self):
        report = verify_entry(entry_by_name("6^3"))
        assert report.match == "exact"
        assert report.components_computed == 3

    def test_zero_valued_entries_compute_to_zero(self):
        for name in ("10^2", "18^2", "12^4a", "12^4b", "20^4", "16^5"):
            e = entry_by_name(name)
            assert f_invariant(e.word()).raw == ZERO

    def test_mismatch_is_reported_not_raised(self):
        e = entry_by_name("6^3")
        import dataclasses

        wrong = dataclasses.replace(e, encoded="{2}(1,-2,2)", components=4)
        report = verify_entry(wrong)
        assert report.match == "mismatch"
        assert not report.components_ok
        assert not report.ok()

    def test_power_relation_detected(self):
        # values equal only up to x^(2k) or sign are not the table value
        e = entry_by_name("6^3")
        import dataclasses

        for encoded in ("{3}(1,-2,1)", "{2}(-1,2,-1)", "{3}(-1,2,-1)"):
            report = verify_entry(dataclasses.replace(e, encoded=encoded))
            assert report.match == "mismatch", encoded
            assert not report.ok()


class TestFamilies:
    def test_family_b_borromean(self):
        assert family_b(3) == TwinWord((1, 2, 1, 2, 1, 2), 3)

    def test_family_b_components(self):
        for n in range(1, 13):
            expected = 3 if n % 3 == 0 else 1
            assert component_count(family_b(n)) == expected

    def test_family_c_block(self):
        assert family_c(1, 3) == TwinWord((1, 2, 3, 2) * 3, 4)
        assert family_c(2, 4) == TwinWord((1, 2, 3, 4, 3, 2) * 4, 5)

    def test_family_c_vanishes(self):
        for r in (1, 2, 3):
            for n in range(3, 7):
                assert f_invariant(family_c(r, n)).raw == ZERO

    def test_family_b_distinct_small(self):
        values = [tuple(canonical_invariant(family_b(n)).coeffs) for n in range(3, 10)]
        assert len(values) == len(set(values))

    def test_arg_validation(self):
        with pytest.raises(ValueError):
            family_b(0)
        with pytest.raises(ValueError):
            family_c(0, 3)
        with pytest.raises(ValueError):
            family_c(1, 0)
