"""Arithmetic of the fleet benchmark: order statistics, span self time,
the layer ledger, and the correctness checks that count failures.

Kept free of process handling so `test_benchlib.py` can check it on
hand-made inputs.
"""

import hashlib
import math
import statistics


def median(values):
    """Median of a non-empty sequence."""
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as `statistics.quantiles(n=4)` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


TAIL_CANDIDATES = (50, 75, 90, 95, 99, 99.9)


def tail_percentile(values, beyond=10, candidates=TAIL_CANDIDATES):
    """The highest candidate percentile with at least `beyond` samples
    above its nearest-rank position, as `(percentile, value)`, or None
    when even the median has fewer than `beyond` samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in candidates:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= beyond:
            best = (p, ordered[rank - 1])
    return best


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def covered_ns(intervals, start, end):
    """Length of the union of `intervals`, clipped to [start, end]."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals)
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times_ns(spans):
    """Each span's duration minus the part of it its direct children
    cover. Children may overlap one another or run past their parent;
    only the union inside the parent counts."""
    children = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            children.setdefault(parent, []).append((span["start_ns"], span["end_ns"]))
    result = []
    for i, span in enumerate(spans):
        start, end = span["start_ns"], span["end_ns"]
        result.append(end - start - covered_ns(children.get(i, []), start, end))
    return result


def self_time_by_name(spans):
    """Summed self time in seconds per span name."""
    totals = {}
    for span, self_ns in zip(spans, self_times_ns(spans)):
        totals[span["name"]] = totals.get(span["name"], 0) + self_ns
    return {name: ns * 1e-9 for name, ns in totals.items()}


def unaccounted_share(spans, window_ns):
    """1 - (sum of every span's self time) / (in-process end-to-end time)."""
    return 1.0 - sum(self_times_ns(spans)) / window_ns


def durations_ms(spans, name):
    """Wall durations of every span called `name`, in milliseconds."""
    return [(s["end_ns"] - s["start_ns"]) * 1e-6 for s in spans if s["name"] == name]


def digest(data):
    """SHA-256 hex digest of report bytes."""
    return hashlib.sha256(data).hexdigest()


class Checks:
    """Tallies operations attempted and failed. A failed device and a
    failed correctness check each count as one failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def devices(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.messages.append(f"{failed} of {attempted} devices failed")

    def require(self, ok, message):
        """One correctness check; a false `ok` is one failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)
        return ok

    def same_bytes(self, got, want, what):
        return self.require(got == want, f"{what}: bytes differ")

    def pinned_digest(self, data, pinned, what):
        got = digest(data)
        return self.require(got == pinned, f"{what}: digest {got} != pinned {pinned}")

    @property
    def correct(self):
        return self.failed == 0
