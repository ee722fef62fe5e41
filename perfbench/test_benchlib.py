"""Tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import sys

sys.dont_write_bytecode = True

import statistics  # noqa: E402
import unittest  # noqa: E402

import benchlib  # noqa: E402


def span(name, start, end, parent=None):
    return {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "request": None}


class SelfTime(unittest.TestCase):
    def test_leaf_span_is_all_self_time(self):
        self.assertEqual(benchlib.self_times_ns([span("a", 10, 40)]), [30])

    def test_nested_children_count_once(self):
        spans = [
            span("device", 0, 100),
            span("kernel", 10, 60, parent=0),
            span("inner", 20, 30, parent=1),  # inside kernel: only kernel's self time drops
            span("probe", 70, 80, parent=0),
        ]
        self.assertEqual(benchlib.self_times_ns(spans), [100 - 50 - 10, 50 - 10, 10, 10])

    def test_overlapping_children_cover_their_union(self):
        spans = [
            span("parent", 0, 100),
            span("a", 10, 30, parent=0),
            span("b", 20, 50, parent=0),
            span("c", 50, 55, parent=0),  # touches b: union [10, 55]
        ]
        self.assertEqual(benchlib.self_times_ns(spans)[0], 100 - 45)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span("parent", 0, 100), span("late", 90, 130, parent=0)]
        self.assertEqual(benchlib.self_times_ns(spans), [90, 40])

    def test_by_name_and_unaccounted_share(self):
        spans = [
            span("fleet.device", 0, 1000),
            span("core.kernel", 100, 900, parent=0),
            span("fleet.device", 1000, 1900),
            span("core.kernel", 1100, 1800, parent=2),
        ]
        by_name = benchlib.self_time_by_name(spans)
        self.assertAlmostEqual(by_name["core.kernel"], 1500e-9)
        self.assertAlmostEqual(by_name["fleet.device"], 400e-9)
        # 1900 ns of spans inside a 2000 ns window: 5% unaccounted.
        self.assertAlmostEqual(benchlib.unaccounted_share(spans, 2000), 0.05)


class OrderStatistics(unittest.TestCase):
    def test_median_and_quartiles_match_statistics(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        self.assertEqual(benchlib.median(values), 4.0)
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(benchlib.quartiles(values), (q1, q3))
        self.assertEqual(benchlib.quartiles([2.5]), (2.5, 2.5))

    def test_tail_needs_ten_samples_beyond(self):
        # 19 samples: even the median has only 9 above it.
        self.assertIsNone(benchlib.tail_percentile(list(range(19))))
        # 20 samples: p50 is rank 10 with 10 above; p75 (rank 15) has 5.
        self.assertEqual(benchlib.tail_percentile(list(range(1, 21))), (50, 10))
        # 100 samples: p90 is rank 90 with 10 above; p95 has 5.
        self.assertEqual(benchlib.tail_percentile(list(range(1, 101))), (90, 90))
        # 1000 samples: p99 is rank 990 with 10 above.
        self.assertEqual(benchlib.tail_percentile(list(range(1, 1001))), (99, 990))

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 99), 99)
        self.assertEqual(benchlib.percentile([7.0], 99), 7.0)


class Checks(unittest.TestCase):
    def test_tampered_report_digest_is_a_failed_operation(self):
        report = b'{"name": "clean_mp3", "devices": 600}\n'
        pinned = benchlib.digest(report)
        checks = benchlib.Checks()
        self.assertTrue(checks.pinned_digest(report, pinned, "report"))
        tampered = report.replace(b"600", b"601")
        self.assertFalse(checks.pinned_digest(tampered, pinned, "report"))
        self.assertEqual((checks.attempted, checks.failed), (2, 1))
        self.assertFalse(checks.correct)

    def test_failed_devices_and_mismatches_both_count(self):
        checks = benchlib.Checks()
        checks.devices(54, 2)
        checks.same_bytes(b"a", b"b", "jobs-2 report")
        self.assertEqual((checks.attempted, checks.failed), (55, 3))
        self.assertEqual(len(checks.messages), 2)

    def test_clean_run_is_correct(self):
        checks = benchlib.Checks()
        checks.devices(600, 0)
        checks.same_bytes(b"x", b"x", "repeat")
        self.assertTrue(checks.correct)
        self.assertEqual((checks.attempted, checks.failed), (601, 0))


if __name__ == "__main__":
    unittest.main()
