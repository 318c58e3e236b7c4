"""Percentiles under the sample rule, and the saturation-rate estimate."""

from __future__ import annotations

import math
from collections.abc import Sequence

#: A reported percentile needs at least this many samples above it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], fraction: float,
               beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank percentile; raises ``ValueError`` when fewer than
    ``beyond`` samples lie above the reported rank."""
    n = len(samples)
    rank = math.ceil(round(fraction * n, 9))
    if n == 0 or n - rank < beyond:
        raise ValueError(
            f"{n} samples leave {max(n - rank, 0)} beyond the "
            f"{fraction:g} percentile; need {beyond}")
    return sorted(samples)[max(rank, 1) - 1]


def saturation_rate(points: Sequence[tuple[float, float, bool]],
                    limit: float) -> float:
    """Highest offered rate meeting the latency limit.

    ``points`` are ``(rate, p99, ok)`` rungs of a ladder, where ``ok``
    means the rung met ``limit`` with no growing backlog.  The answer
    starts from the highest passing rung (a stall that fails one lower
    rung does not cap it); up to the next rung, which failed, the rate
    is interpolated where log-p99 crosses ``limit``, which turns the
    ladder's step into a continuous estimate.
    """
    points = sorted(points)
    passing = [i for i, (_, _, ok) in enumerate(points) if ok]
    if not passing:
        rate, p99, _ = points[0]
        return rate * min(1.0, limit / p99) if p99 > 0 else rate
    top = passing[-1]
    ok_rate, ok_p99, _ = points[top]
    if top + 1 == len(points):
        return ok_rate
    rate, p99, _ = points[top + 1]
    if p99 <= limit or ok_p99 <= 0:  # failed on backlog, not latency
        return ok_rate
    share = ((math.log(limit) - math.log(ok_p99))
             / (math.log(p99) - math.log(ok_p99)))
    return ok_rate + min(max(share, 0.0), 1.0) * (rate - ok_rate)
