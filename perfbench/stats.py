"""Pure statistics behind the benchmark's metrics: percentiles and the
serving capacity rule. Kept free of I/O so tests/test_stats.py can pin
each rule on known inputs."""

import math


def percentile(values, q):
    """The q-th percentile (0 <= q <= 100) by linear interpolation between
    closest ranks, the "inclusive" method of statistics.quantiles: the
    sample's min is p0 and its max is p100. Infinite entries (requests that
    failed, counted as missing any latency limit) sort last."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError("percentile rank out of range: %r" % q)
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    if rank == low:
        return ordered[low]
    if ordered[low + 1] == math.inf:
        return math.inf
    return ordered[low] + (ordered[low + 1] - ordered[low]) * (rank - low)


def supported(count, q):
    """Whether a sample of `count` leaves at least ten values beyond the
    q-th percentile, the least a tail percentile needs to mean anything."""
    return count * (100 - q) / 100.0 >= 10


def rung_passes(rung, limit_ms, lag_limit_ms):
    """One ladder rung meets the serving objective when its client-timed
    p90 (failed, shed, expired, degraded and mismatched requests count as
    infinitely late) is at most `limit_ms`, no request was shed or expired,
    and the generator's median lag behind the schedule is at most
    `lag_limit_ms` (otherwise the offered rate was not really offered)."""
    misses = (rung["shed"] + rung["expired"] + rung["failed"] + rung["degraded"]
              + rung["mismatched"])
    latencies = list(rung["latency_ms"]) + [math.inf] * misses
    if not latencies:
        return False
    return (rung["shed"] == 0 and rung["expired"] == 0
            and percentile(latencies, 90) <= limit_ms
            and percentile(rung["lag_ms"], 50) <= lag_limit_ms)


def capacity(rungs, limit_ms, lag_limit_ms):
    """The highest offered rate r such that every rate at or below r passes;
    0.0 when the lowest rate fails. A rate tried more than once passes when
    any attempt passed: the ladder retries a failing rung once, so a single
    host stall does not cap the capacity, while a rate that fails twice
    does, whatever a luckier rung at a higher rate showed."""
    passed = {}
    for rung in rungs:
        ok = rung_passes(rung, limit_ms, lag_limit_ms)
        passed[rung["qps"]] = passed.get(rung["qps"], False) or ok
    best = 0.0
    for qps in sorted(passed):
        if not passed[qps]:
            break
        best = qps
    return best
