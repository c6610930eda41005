"""Op times scaled to a fixed host speed by an interleaved reference loop.

On a shared 2-core Xeon VM the host's speed drifts by about 20% either way
over periods of seconds, in CPU time as much as in wall time, so raw run
totals swing with it. A fixed pure-Python computation that shares no code
with the program (cubing a small matrix of integer polynomials held as
tuples, the shape of the program's inner loops) tracks that drift: timed
in slices between the program's ops, the ratio of the two stayed within
about 2% while each moved by 20%.

``Clock`` times the reference between chunks of ops and multiplies each op
time by ``REFERENCE_S`` over the reference time measured around its chunk.
A scaled time reads as the op's time on a host where one reference rep
takes ``REFERENCE_S``, about the median on that VM.
"""
from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.00033
REPS = 9
# Op time between two reference measurements.
CHUNK_S = 0.1

# A 3x3 matrix of integer polynomials (ascending coefficient tuples).
_M = tuple(
    tuple(tuple((7 * r + 5 * c + k) % 11 - 5 for k in range(5)) for c in range(3))
    for r in range(3)
)


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _poly_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return tuple(out)


def reference_work() -> int:
    """Cube a fixed polynomial matrix: the shape of the program's inner loops."""
    product = _M
    for _ in range(2):
        product = tuple(
            tuple(
                _poly_add(_poly_add(_poly_mul(row[0], col[0]), _poly_mul(row[1], col[1])),
                          _poly_mul(row[2], col[2]))
                for col in zip(*_M)
            )
            for row in product
        )
    return product[2][2][-1]


def reference_seconds() -> float:
    """Median time of one reference rep, over ``REPS`` reps."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Collects raw op times and the reference times that bracket them."""

    def __init__(self) -> None:
        self.reference = [reference_seconds()]
        self.raw: list[float] = []
        self._chunk: list[int] = []
        self._since = 0.0

    def record(self, seconds: float) -> None:
        self.raw.append(seconds)
        self._chunk.append(len(self.reference) - 1)
        self._since += seconds

    def between_ops(self) -> None:
        """Measure the reference once the current chunk is long enough."""
        if self._since >= CHUNK_S:
            self.reference.append(reference_seconds())
            self._since = 0.0

    def scaled(self) -> list[float]:
        """Every recorded op time, scaled by the references either side of it."""
        if self._since > 0:
            self.reference.append(reference_seconds())
            self._since = 0.0
        ref = self.reference
        factors = [
            2 * REFERENCE_S / (ref[k] + ref[min(k + 1, len(ref) - 1)])
            for k in range(len(ref))
        ]
        return [t * factors[k] for t, k in zip(self.raw, self._chunk)]

    def factor(self) -> float:
        """Scale for the run as a whole: REFERENCE_S over the median reference."""
        return REFERENCE_S / statistics.median(self.reference)
