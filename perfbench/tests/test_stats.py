"""Unit tests for the benchmark's statistics (no build needed):

    python3 -m unittest discover -s perfbench/tests
"""

import math
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import stats  # noqa: E402

LIMIT_MS = 25.0
LAG_MS = 1.0


def rung(qps, latency_ms, lag_ms=0.1, shed=0, expired=0, failed=0, degraded=0, mismatched=0):
    answered = len(latency_ms)
    sent = answered + shed + expired + failed + degraded + mismatched
    return {"qps": qps, "latency_ms": latency_ms, "lag_ms": [lag_ms] * sent, "shed": shed,
            "expired": expired, "failed": failed, "degraded": degraded,
            "mismatched": mismatched}


class PercentileTest(unittest.TestCase):
    def test_known_latency_vector(self):
        latencies = [float(ms) for ms in range(1, 101)]  # 1..100 ms, shuffled below.
        latencies = latencies[37:] + latencies[:37]
        self.assertAlmostEqual(stats.percentile(latencies, 50), 50.5)
        self.assertAlmostEqual(stats.percentile(latencies, 90), 90.1)
        self.assertAlmostEqual(stats.percentile(latencies, 99), 99.01)
        self.assertEqual(stats.percentile(latencies, 0), 1.0)
        self.assertEqual(stats.percentile(latencies, 100), 100.0)

    def test_matches_statistics_inclusive_method(self):
        values = [2.3, 0.4, 9.1, 5.5, 5.5, 7.0, 1.25]
        cuts = statistics.quantiles(values, n=100, method="inclusive")
        for q in (10, 50, 90, 99):
            self.assertAlmostEqual(stats.percentile(values, q), cuts[q - 1])

    def test_failed_requests_sort_last_as_infinite(self):
        values = [1.0] * 8 + [math.inf] * 2
        self.assertEqual(stats.percentile(values, 50), 1.0)
        self.assertEqual(stats.percentile(values, 90), math.inf)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 101)

    def test_tail_support_needs_ten_beyond(self):
        self.assertTrue(stats.supported(1000, 99))
        self.assertFalse(stats.supported(999, 99))
        self.assertTrue(stats.supported(100, 90))


class CapacityTest(unittest.TestCase):
    def test_highest_passing_rung_of_a_synthetic_ladder(self):
        fast = [2.0] * 95 + [20.0] * 5
        slow = [2.0] * 80 + [40.0] * 20  # p90 = 40 ms > limit.
        ladder = [rung(2000, fast), rung(3000, fast), rung(4500, slow), rung(3750, fast),
                  rung(4125, slow)]
        self.assertEqual(stats.capacity(ladder, LIMIT_MS, LAG_MS), 3750)

    def test_failure_below_a_pass_caps_capacity(self):
        fast = [2.0] * 100
        shed = rung(2000, [2.0] * 99, shed=1)
        ladder = [rung(1000, fast), shed, shed, rung(3000, fast)]
        self.assertEqual(stats.capacity(ladder, LIMIT_MS, LAG_MS), 1000)

    def test_a_passing_retry_clears_a_failed_rung(self):
        fast = [2.0] * 100
        stalled = [2.0] * 80 + [300.0] * 20
        ladder = [rung(4000, fast), rung(6000, stalled), rung(6000, fast), rung(9000, stalled),
                  rung(9000, stalled)]
        self.assertEqual(stats.capacity(ladder, LIMIT_MS, LAG_MS), 6000)

    def test_lowest_rung_failing_gives_zero(self):
        self.assertEqual(stats.capacity([rung(1000, [50.0] * 100)], LIMIT_MS, LAG_MS), 0.0)

    def test_failures_count_against_capacity(self):
        fast = [2.0] * 100
        # Eleven of 100 requests failed: as infinite latencies they push p90
        # past any limit although every answered request was fast.
        for kind in ("failed", "degraded", "mismatched"):
            failing = rung(2000, [2.0] * 89, **{kind: 11})
            self.assertFalse(stats.rung_passes(failing, LIMIT_MS, LAG_MS), kind)
            self.assertEqual(stats.capacity([rung(1000, fast), failing], LIMIT_MS, LAG_MS), 1000)
        # A single shed or expired request fails the rung outright.
        for kind in ("shed", "expired"):
            self.assertFalse(stats.rung_passes(rung(2000, [2.0] * 99, **{kind: 1}), LIMIT_MS,
                                               LAG_MS), kind)
        # A few failures that leave p90 within the limit do not.
        self.assertTrue(stats.rung_passes(rung(2000, [2.0] * 95, failed=5), LIMIT_MS, LAG_MS))

    def test_generator_lag_fails_a_rung(self):
        self.assertFalse(stats.rung_passes(rung(2000, [2.0] * 100, lag_ms=3.0), LIMIT_MS, LAG_MS))


if __name__ == "__main__":
    unittest.main()
