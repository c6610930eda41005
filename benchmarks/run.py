"""The doodlepoly benchmark: seeded workloads against the public API.

Usage, from the repository root:

    python3 benchmarks/run.py --workload {table,suites,long} --seed N \\
        --seconds S --trace {0,1}

One process, one thread, standard library only. Closed loop: each op starts
when the previous one has returned. The program is imported from ``src/``
next to this directory; the run refuses to start (exit 2) when it is not
there.

``--trace 0`` times every op with nothing around it and reports the
end-to-end metrics. ``--trace 1`` rebuilds each op from the public pipeline
functions inside spans, holds every invariant against ``f_invariant`` bit
for bit, times the same op untraced for the overhead ratio, and reports the
per-module metrics; the spans are written to ``benchmarks/results/``.

Both modes run whole passes of the workload's input mix: untraced until the
ops have taken ``--seconds`` and at least ``MIN_OPS`` have run, traced until
``--seconds`` of wall time have passed. Both check every output with the
benchmark's own oracle outside the timed region, and print the run's inputs
and machine as one JSON line, then the result as the last JSON line.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import Clock
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
SETUP_SPAWNS = 10
# An untraced run times at least this many ops, so that the 90th percentile
# has at least ten samples beyond it.
MIN_OPS = 100

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Span name -> metric stem. Each span's self time is reported per op (in
# seconds, cli.args in ms) and as a share of all traced op time. The two
# parent spans' self time is the glue around their children.
TIMED_SPANS = {
    "op": "op.self", "cli.args": "cli.args", "twin.parse": "twin.parse",
    "twin.gen": "twin.gen", "twin.walk": "twin.walk",
    "invariant": "invariant.self", "rep.psi": "rep.psi",
    "rep.sub_identity": "rep.sub_identity", "rep.det": "rep.det",
    "invariant.normalizer": "invariant.normalizer", "poly.div": "poly.div",
    "poly.strip": "poly.strip", "invariant.skein_combine": "invariant.skein_combine",
    "table.codec": "table.codec",
}


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(
                (l.split(":", 1)[1].strip() for l in f if l.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def spawn_setup() -> float:
    """Time a fresh interpreter importing doodlepoly and loading dataset().

    The child runs isolated (-I) and without site (-S): what site-packages'
    .pth files cost belongs to the environment, not the program, and varied
    by tens of ms between runs. Isolated mode also writes the bytecode cache
    whatever the environment says.
    """
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        "import doodlepoly; doodlepoly.dataset()"
    )
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-I", "-S", "-c", code],
        check=True,
        stdout=subprocess.DEVNULL,
        cwd=ROOT,
    )
    return time.perf_counter() - t0


def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


class Tally:
    """Failures and input properties, gathered outside timed code.

    Only a traced run tracks repeats, so that the untraced run's peak
    memory holds no benchmark state that grows with the op count.
    """

    def __init__(self, track_repeats: bool = False) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_failures: list[str] = []
        self.seen: set[tuple[tuple[int, ...], int]] | None = set() if track_repeats else None
        self.evaluations = 0
        self.repeats = 0
        self.letters_total = 0
        self.strands = [math.inf, 0]
        self.letters = [math.inf, 0]

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.first_failures) < 5:
            self.first_failures.append(reason)

    def words(self, words) -> None:
        for w in words:
            self.evaluations += 1
            self.letters_total += len(w.letters)
            for bounds, value in ((self.strands, w.strands), (self.letters, len(w.letters))):
                bounds[0] = min(bounds[0], value)
                bounds[1] = max(bounds[1], value)
            if self.seen is not None:
                key = (w.letters, w.strands)
                self.repeats += key in self.seen
                self.seen.add(key)

    def inputs(self) -> dict:
        evaluations = max(1, self.evaluations)
        props = {
            "ops": self.attempted,
            "evaluations": self.evaluations,
            "strands_min": self.strands[0] if self.evaluations else 0,
            "strands_max": self.strands[1],
            "letters_min": self.letters[0] if self.evaluations else 0,
            "letters_max": self.letters[1],
            "letters_mean": self.letters_total / evaluations,
        }
        if self.seen is not None:
            props["repeat_share"] = self.repeats / evaluations
        return props


def run_untraced(workload, rng: random.Random, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Time every op, and spawn the set-up probes spread over the run.

    Spawn times swing with the host for seconds at a time, so the probes are
    spaced across the run rather than taken back to back. They are not
    scaled by the reference loop, which process start-up does not track.
    """
    spawn_setup()  # warm-up, discarded: it may write the bytecode cache
    setup_times: list[float] = []
    clock = Clock()
    pass_sizes: list[int] = []
    measured = 0.0
    gc.collect()
    for ops in workload.passes(rng):
        for op in ops:
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                result = workload.run(op)
            except Exception as exc:  # a raising op is a failed op, not a crash
                dt = time.perf_counter() - t0
                tally.fail(f"{op!r} raised {exc!r}")
                result = None
            else:
                dt = time.perf_counter() - t0
            clock.record(dt)
            measured += dt
            if result is not None:
                reason = workload.check(op, result)
                if reason:
                    tally.fail(reason)
                tally.words(workload.words(op, result))
            clock.between_ops()
            if len(setup_times) < SETUP_SPAWNS and measured >= len(setup_times) * seconds / SETUP_SPAWNS:
                setup_times.append(spawn_setup())
        pass_sizes.append(len(ops))
        if measured >= seconds and len(clock.raw) >= MIN_OPS:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while len(setup_times) < SETUP_SPAWNS:
        setup_times.append(spawn_setup())
    scaled = clock.scaled()
    pass_rates, start = [], 0
    for size in pass_sizes:
        pass_rates.append(size / sum(scaled[start:start + size]))
        start += size
    latencies = sorted(scaled)
    p90, beyond = percentile(latencies, 0.9)
    raw = sorted(clock.raw)
    metrics = {
        "ops_per_s": statistics.median(pass_rates),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "peak_rss_mb": peak_kb / 1024,
        "setup_s": statistics.median(setup_times),
    }
    samples = {
        "ops": len(latencies),
        "passes": len(pass_rates),
        "op_p90_samples_beyond": beyond,
        "measured_s": measured,
        "reference_s": clock.reference,
        "raw_ops_per_s": len(raw) / measured,
        "raw_op_p50_ms": statistics.median(raw) * 1e3,
        "raw_op_p90_ms": percentile(raw, 0.9)[0] * 1e3,
        "setup_s": setup_times,
    }
    return metrics, samples


def _bits(p) -> int:
    """Bit length of a polynomial's largest coefficient."""
    return max((abs(c).bit_length() for c in p.coeffs), default=0)


def run_traced(workload, rng: random.Random, seconds: float, tally: Tally, trace_path: Path):
    from doodlepoly.invariant import f_invariant

    tr = Tracer()
    clock = Clock()
    deadline = time.perf_counter() + seconds
    traced_s = untraced_s = 0.0
    zeros = 0
    sizes = dict.fromkeys(
        ("rep.psi_deg_max", "rep.psi_bits_max", "rep.det_dim_max",
         "rep.det_deg_max", "rep.det_bits_max"), 0)
    gc.collect()
    for ops in workload.passes(rng):
        for op in ops:
            tr.op_id = tally.attempted
            tally.attempted += 1
            try:
                t0 = time.perf_counter()
                with tr.span("op"):
                    result, evaluations = workload.traced(tr, op)
                t1 = time.perf_counter()
                plain = workload.run(op)
                t2 = time.perf_counter()
            except Exception as exc:  # a raising op is a failed op, not a crash
                tally.fail(f"{op!r} raised {exc!r}")
                continue
            traced_s += t1 - t0
            untraced_s += t2 - t1
            clock.record(t1 - t0)
            reason = workload.check(op, result) or workload.check(op, plain)
            for ev in evaluations:
                if ev.value != f_invariant(ev.word):
                    reason = reason or f"traced value differs from f_invariant for {ev.word!r}"
                zeros += ev.value.raw.is_zero()
                if ev.image is not None:
                    entries = [p for row in ev.image.rows for p in row]
                    for name, value in (
                        ("rep.psi_deg_max", max(p.degree for p in entries)),
                        ("rep.psi_bits_max", max(_bits(p) for p in entries)),
                        ("rep.det_dim_max", ev.image.dim),
                        ("rep.det_deg_max", ev.det.degree),
                        ("rep.det_bits_max", _bits(ev.det)),
                    ):
                        sizes[name] = max(sizes[name], value)
            if reason:
                tally.fail(reason)
            tally.words(ev.word for ev in evaluations)
            clock.between_ops()
        if time.perf_counter() >= deadline:
            break
    tr.write(trace_path)

    ops = max(1, tally.attempted)
    scale = clock.factor()
    self_s = {name: t * scale for name, t in tr.self_seconds().items()}
    busy = sum(self_s.values()) or 1.0
    metrics = {}
    for name, stem in TIMED_SPANS.items():
        per_op = self_s.get(name, 0.0) / ops
        if name == "cli.args":
            metrics["cli.args_ms"] = per_op * 1e3
        else:
            metrics[f"{stem}_s"] = per_op
    for name, stem in TIMED_SPANS.items():
        metrics[f"{stem}_share"] = self_s.get(name, 0.0) / busy
    metrics["rep.psi_letters"] = tr.counts.get("rep.psi_letters", 0) / ops
    metrics["twin.walk_moves"] = tr.counts.get("twin.walk_moves", 0) / ops
    metrics.update(sizes)
    metrics["invariant.evals"] = tally.evaluations / ops
    metrics["invariant.zero_share"] = zeros / max(1, tally.evaluations)
    metrics["invariant.repeat_share"] = tally.repeats / max(1, tally.evaluations)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s if untraced_s else 0.0
    metrics["trace.spans"] = len(tr) / ops
    samples = {"ops": tally.attempted, "traced_s": traced_s, "untraced_s": untraced_s,
               "spans": len(tr), "trace_file": trace_path.name}
    return metrics, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sys.path.insert(0, str(SRC))
    try:
        import doodlepoly
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(doodlepoly.__file__).resolve().parent.parent != SRC:
        print(f"error: imported doodlepoly from {doodlepoly.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    workload = WORKLOADS[args.workload]()
    rng = random.Random(args.seed)
    tally = Tally(track_repeats=bool(args.trace))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, samples = run_traced(
            workload, rng, args.seconds, tally, RESULTS / f"{stem}.spans.json.gz")
        units = {name: ("ms" if name.endswith("_ms") else "s" if name.endswith("_s")
                        else "ratio" if name.endswith(("_share", "_ratio")) else "count")
                 for name in metrics}
    else:
        metrics, samples = run_untraced(workload, rng, args.seconds, tally)
        units = END_TO_END_UNITS

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "inputs": tally.inputs(),
        "samples": samples,
        "fail_ratio": tally.failed / max(1, tally.attempted),
        "first_failures": tally.first_failures,
    }
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as f:
        json.dump({"info": info, "result": result}, f, indent=1)
    for reason in tally.first_failures:
        print(f"failure: {reason}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
