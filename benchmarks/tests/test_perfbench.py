"""Self-tests of the benchmark: its traced decomposition, oracle and failure counting.

Run from the repository root with ``python3 -m pytest benchmarks/tests``.
"""
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from doodlepoly import TwinWord, dataset, decode_entry, encode_entry, f_invariant  # noqa: E402
from doodlepoly.poly import IntPoly  # noqa: E402
from spans import Tracer  # noqa: E402


def first_pass(name, seed=0):
    return next(workloads.WORKLOADS[name]().passes(random.Random(seed)))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_decomposition_matches_f_invariant(name):
    workload = workloads.WORKLOADS[name]()
    tr = Tracer()
    for op in first_pass(name):
        with tr.span("op"):
            result, evaluations = workload.traced(tr, op)
        assert workload.check(op, result) is None
        assert evaluations
        for ev in evaluations:
            assert ev.value == f_invariant(ev.word)
    assert tr.counts["rep.psi_letters"] > 0
    assert all(e >= s for s, e in zip(tr.start, tr.end))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    assert first_pass(name, 7) == first_pass(name, 7)
    assert first_pass(name, 7) != first_pass(name, 8)


def test_table_expectations_decode_all_records():
    records = dataset()
    assert len(records) == 37
    expected = workloads.Table().expected
    for record, text in zip(records, expected):
        coeffs = oracle.decode_record(record.encoded)
        assert coeffs == decode_entry(record.encoded).coeffs
        value = f_invariant(record.word())
        assert coeffs == value.raw.coeffs
        canonical = value.canonical
        assert text == ("0" if canonical.is_zero() else encode_entry(canonical)) + "\n"


def test_oracle_accepts_true_values_and_rejects_perturbed_ones():
    words = [r.word() for r in dataset()] + first_pass("long")[:4]
    for w in words:
        value = f_invariant(w)
        assert workloads.invariant_error(w, value) is None
    w = TwinWord((1, 2) * 4, 3)
    value = f_invariant(w)
    raw, v, canonical = value.raw.coeffs, value.valuation, value.canonical.coeffs
    bumped = tuple(c + (d == 0) for d, c in enumerate(canonical))
    assert oracle.invariant_error(3, w.letters, (0,) * (2 * v) + bumped, v, bumped)
    assert oracle.invariant_error(3, w.letters, raw + (0, 1), v, canonical)
    assert oracle.invariant_error(3, w.letters, raw, v + 1, canonical)


def test_one_component_words_need_the_right_parity():
    rng = random.Random(0)
    w = workloads.one_component_word(rng, 8, 101)
    assert workloads.cycle_count(w.strands, w.letters) == 1
    with pytest.raises(ValueError):
        workloads.one_component_word(rng, 8, 100)


class WrongTable(workloads.Table):
    """The table workload with one record's expected value made wrong."""

    def __init__(self):
        super().__init__()
        self.expected[1] = "{3}(1,-4,5)\n"


class WrongLong(workloads.Long):
    """The long workload, on short words, with a fast path that is off by x^(2v).

    The wrong value is consistent in itself (even, canonical = raw stripped),
    so only the oracle's determinant check can catch it.
    """

    def passes(self, rng):
        while True:
            yield [workloads.one_component_word(rng, 4, 11), workloads.family_b(rng.randint(2, 9))]

    def run(self, w):
        value = f_invariant(w)
        shift = IntPoly((0,) * (2 * value.valuation) + (1,))
        return type(value)(value.raw + shift, value.strands, value.valuation,
                           value.canonical + IntPoly((1,)))

    def traced(self, tr, w):
        value, evaluations = super().traced(tr, w)
        evaluations[0].value = self.run(w)
        return evaluations[0].value, evaluations


class RaisingSuites(workloads.Suites):
    def run(self, op):
        raise RuntimeError("injected")


@pytest.mark.parametrize("workload", [WrongTable(), WrongLong(), RaisingSuites()])
def test_injected_wrong_values_count_as_failures(workload):
    tally = run.Tally()
    run.run_untraced(workload, random.Random(0), 0.01, tally)
    assert tally.attempted >= run.MIN_OPS
    assert 0 < tally.failed <= tally.attempted


def test_traced_run_counts_a_wrong_traced_value(tmp_path):
    tally = run.Tally()
    run.run_traced(WrongLong(), random.Random(0), 0.01, tally, tmp_path / "spans.json.gz")
    assert tally.failed == tally.attempted > 0
