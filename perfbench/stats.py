"""Summary statistics shared by the benchmark's workloads.

Timings arrive as lists of samples in milliseconds. A tail is reported
as the highest percentile that still has at least ten samples above it,
together with that percentile and the sample count.
"""

import math
import statistics

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
# Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def median(values):
    return statistics.median(values) if values else None


def tail(values):
    """(percentile, value, n) of the highest percentile with at least
    TAIL_BEYOND samples beyond it, or None when there are too few. The
    percentile's value is taken by the nearest-rank rule."""
    n = len(values)
    ordered = sorted(values)
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1], n
    return None


def open_loop(records):
    """Per-request timings of an open-loop phase.

    `records` holds parallel lists (ms from the phase start): `due`, when
    the request was scheduled; `claim`, when a client connection became
    free to take it; `sent` and `done`. Latency runs from the due time,
    so a stall also charges the requests queued behind it. The client
    wait is how long a due request had no free connection; the
    generator lag is how late it was sent once a connection was free.
    """
    latency, wait, lag = [], [], []
    for due, claim, sent, done in zip(records["due"], records["claim"],
                                      records["sent"], records["done"]):
        latency.append(done - due)
        wait.append(max(0.0, claim - due))
        lag.append(max(0.0, sent - max(due, claim)))
    return latency, wait, lag
