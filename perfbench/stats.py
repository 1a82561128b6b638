"""Sample summaries and operation bookkeeping for the benchmark."""
from __future__ import annotations

import math
import statistics

# percentiles reported next to the median, highest first
_TAIL_PERCENTILES = (99.9, 99.0, 90.0)
_MIN_BEYOND = 10


def summarize(samples):
    """Median, sample count and the highest tail percentile that has at
    least ten samples beyond it (none for short sample lists)."""
    xs = sorted(float(x) for x in samples)
    if not xs:
        raise ValueError("no samples to summarize")
    out = {"n": len(xs), "p50": statistics.median(xs)}
    n = len(xs)
    for q in _TAIL_PERCENTILES:
        # nearest-rank percentile: the ceil(n q / 100)-th smallest sample
        k = math.ceil(round(n * q / 100.0, 9)) - 1
        if n - 1 - k >= _MIN_BEYOND:
            out["p%g" % q] = xs[k]
            break
    if len(xs) >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4)
        out["iqr"] = q3 - q1
    return out


class Tally:
    """Attempted and failed operations of one run.

    An operation fails hard when the call raised, or an output file is
    missing or differs between passes; it fails an oracle check when its
    answer disagrees with the oracle in kind (an empty support where the
    density has mass, or a spike count other than the oracle's).
    """

    def __init__(self):
        self.attempted = 0
        self.errors = 0
        self.mismatches = 0
        self.notes = []

    def record(self, op, error=None, mismatch=None):
        self.attempted += 1
        if error is not None:
            self.errors += 1
            self.notes.append({"op": op, "error": str(error)})
        elif mismatch is not None:
            self.mismatches += 1
            self.notes.append({"op": op, "mismatch": str(mismatch)})

    @property
    def failed(self):
        return self.errors + self.mismatches

    @property
    def fail_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def ok_frac(self):
        return 1.0 - self.fail_frac


class MaxError:
    """Largest error per named accuracy metric, with where it occurred.

    ``floor`` is the resolution below which an error is not meaningful
    (the tolerance the library solves to); smaller errors read as the
    floor, so that a metric never rests on rounding noise.
    """

    def __init__(self, floors=None):
        self.floors = dict(floors or {})
        self.worst = {}

    def add(self, metric, err, where):
        err = abs(float(err))
        if metric not in self.worst or err > self.worst[metric][0]:
            self.worst[metric] = (err, where)

    def value(self, metric):
        err = self.worst.get(metric, (None, None))[0]
        if err is None:
            return None
        return max(err, self.floors.get(metric, 0.0))
