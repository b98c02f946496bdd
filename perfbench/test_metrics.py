"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import random
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(metrics.percentile(values, 50), 50)
        self.assertEqual(metrics.percentile(values, 90), 90)
        self.assertEqual(metrics.percentile(values, 99), 99)
        self.assertEqual(metrics.percentile(values, 100), 100)
        self.assertEqual(metrics.percentile([7.5], 50), 7.5)

    def test_order_does_not_matter(self):
        values = [random.Random(3).random() for _ in range(37)]
        shuffled = list(values)
        random.Random(4).shuffle(shuffled)
        for q in (50, 90, 99):
            self.assertEqual(metrics.percentile(values, q), metrics.percentile(shuffled, q))

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)

    def test_summary_counts_samples_and_tail(self):
        s = metrics.summary([float(v) for v in range(1, 1001)])
        self.assertEqual(s["n"], 1000)
        self.assertEqual((s["p50"], s["p90"], s["p99"]), (500.0, 900.0, 990.0))
        self.assertEqual(s["beyond_p99"], 10)


class SlotArithmeticTest(unittest.TestCase):
    def test_five_slots_put_p50_and_p90_ten_points_inside_a_slot(self):
        self.assertGreaterEqual(metrics.slot_margin(50, 5), 10)
        self.assertGreaterEqual(metrics.slot_margin(90, 5), 10)

    def test_four_slots_would_put_p50_on_a_boundary(self):
        self.assertEqual(metrics.slot_margin(50, 4), 0)

    def test_slot_centre_whatever_the_latency_order(self):
        # Five equally weighted slots with well separated latencies, the
        # program cycle shuffled every pass: p50 is always the third
        # slot's latency and p90 the fifth's, in any order.
        latencies = [0.1, 0.5, 2.0, 9.0, 9.0]  # Dhrystone twice
        for seed in range(20):
            rng = random.Random(seed)
            order = list(latencies)
            rng.shuffle(order)
            samples = []
            for _ in range(40):
                rng.shuffle(order)
                samples += [v * (1 + rng.uniform(-0.01, 0.01)) for v in order]
            self.assertAlmostEqual(metrics.percentile(samples, 50), 2.0, delta=0.03)
            self.assertAlmostEqual(metrics.percentile(samples, 90), 9.0, delta=0.1)


class FailureCountingTest(unittest.TestCase):
    def test_share(self):
        self.assertEqual(metrics.failure_share(200, 0), 0.0)
        self.assertEqual(metrics.failure_share(200, 3), 0.015)
        self.assertEqual(metrics.failure_share(5, 5), 1.0)

    def test_invalid_counts(self):
        with self.assertRaises(ValueError):
            metrics.failure_share(0, 0)
        with self.assertRaises(ValueError):
            metrics.failure_share(10, 11)

    def test_failed_jobs_count_against_throughput(self):
        # Forty jobs of 0.1 s in one window, eight refused: 8 completed
        # jobs per second of the loop, and no latency sample from the
        # refused ones.
        jobs = [[i, i % 2, 0 if i % 5 == 2 else 1, i * 0.1, (i + 1) * 0.1, 1.0 + i, 0.5, 100,
                 i % 4] for i in range(40)]
        m = metrics.loop_metrics(jobs, cycle_jobs=10)
        self.assertAlmostEqual(m["jobs_per_s"], 8.0)
        self.assertAlmostEqual(m["sim_insts_per_s"], 800.0)
        lat = metrics.latencies(jobs)
        self.assertEqual((len(lat["art9"]), len(lat["rv32"]), len(lat["upload"])), (16, 16, 32))
        self.assertNotIn(3.0, lat["art9"])
        self.assertNotIn(8.0, lat["rv32"])


def job(index, rv32, group, latency_ms, start_s=None, seconds=0.01):
    """A completed job record (metrics' field order)."""
    start = index * seconds if start_s is None else start_s
    return [index, rv32, 1, start, start + seconds, latency_ms, latency_ms / 10, 1000, group]


class WindowTest(unittest.TestCase):
    def test_windows_hold_whole_cycles_and_drop_a_partial_one(self):
        jobs = [job(i, 0, 0, 1.0) for i in range(100)]
        cut = metrics.windows(jobs, cycle_jobs=15)  # 3 cycles = 45 jobs >= 40
        self.assertEqual([len(w) for w in cut], [45, 45])
        self.assertEqual([j[metrics.INDEX] for j in cut[1]], list(range(45, 90)))

    def test_windows_follow_issue_order(self):
        jobs = [job(i, 0, 0, 1.0) for i in range(80)]
        random.Random(5).shuffle(jobs)
        cut = metrics.windows(jobs, cycle_jobs=10)
        self.assertEqual([j[metrics.INDEX] for j in cut[0]], list(range(40)))

    def test_too_few_jobs_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.windows([job(i, 0, 0, 1.0) for i in range(30)], cycle_jobs=10)

    def test_throughput_is_the_median_window(self):
        # Five windows of 40 jobs at 100 jobs/s; the host stalls one of
        # them to a tenth of that.  The median window ignores the stall.
        jobs, t = [], 0.0
        for i in range(200):
            seconds = 0.1 if 80 <= i < 120 else 0.01
            jobs.append(job(i, i % 2, 0, 1.0, start_s=t, seconds=seconds))
            t += seconds
        m = metrics.loop_metrics(jobs, cycle_jobs=10)
        self.assertAlmostEqual(m["jobs_per_s"], 100.0)
        self.assertAlmostEqual(m["sim_insts_per_s"], 100_000.0)


class GroupLatencyTest(unittest.TestCase):
    def test_a_slowed_minority_does_not_move_a_group(self):
        # 21 jobs of one program at 2 ms; the host slows 10 of them.
        jobs = [job(i, 0, 7, 2.0 + (30.0 if i % 2 else 0.0)) for i in range(21)]
        costs = metrics.group_latencies(jobs)
        self.assertEqual({v for _, v in costs}, {2.0})

    def test_slot_arithmetic_over_group_costs(self):
        # The 5-slot class cycle (Dhrystone twice) with a random 30% of
        # the jobs slowed by up to 10x: p50 is the third slot's cost and
        # p90 the fifth's, as on a quiet host.
        cost = {0: 0.1, 1: 0.5, 2: 2.0, 3: 9.0}
        rng = random.Random(11)
        jobs = []
        for c in range(40):
            for group in rng.sample([0, 1, 2, 3, 3], 5):
                slowed = rng.random() < 0.3
                jobs.append(job(len(jobs), 0, group,
                                cost[group] * (rng.uniform(2, 10) if slowed else 1.0)))
        m = metrics.loop_metrics(jobs + [job(len(jobs) + i, 1, 9, 1.0) for i in range(5)],
                                 cycle_jobs=5)
        self.assertEqual(m["art9_job_p50_ms"], 2.0)
        self.assertEqual(m["art9_job_p90_ms"], 9.0)
        self.assertEqual(m["rv32_job_p50_ms"], 1.0)

    def test_groups_are_per_class(self):
        jobs = [job(i, i % 2, i % 2, 1.0 + 5 * (i % 2)) for i in range(40)]
        lat = metrics.group_latencies(jobs)
        self.assertEqual(sorted({(rv32, v) for rv32, v in lat}), [(0, 1.0), (1, 6.0)])


class EndToEndTest(unittest.TestCase):
    def test_setup_median_and_rss(self):
        jobs = [job(i, i % 2, i % 4, 100.0 + i, seconds=0.1) for i in range(40)]
        data = {"jobs": jobs, "setup_s": [0.3, 0.1, 0.2], "peak_rss_kb": 2048.0,
                "cycle_jobs": 4}
        e2e = metrics.end_to_end(data)
        self.assertEqual([name for name, *_ in metrics.END_TO_END], list(e2e))
        self.assertAlmostEqual(e2e["jobs_per_s"], 10.0)
        # Groups 0 and 2 are art9, ten jobs each; their medians are 118
        # and 120 ms.
        self.assertEqual(e2e["art9_job_p50_ms"], 118.0)
        self.assertEqual(e2e["art9_job_p90_ms"], 120.0)
        self.assertEqual(e2e["setup_s"], 0.2)
        self.assertEqual(e2e["peak_rss_mb"], 2.0)


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            ["bench.serve_job", -1, 1, 0.0, 100.0, 0],
            ["serve.http.get_job", 0, 1, 10.0, 40.0, 0],
            ["serve.handle_get_job", 1, 1, 15.0, 25.0, 0],
            ["serve.http.post_job", 0, 1, 50.0, 60.0, 0],
        ]
        self.assertEqual(metrics.self_times(spans), [60.0, 20.0, 10.0, 10.0])
        layers = metrics.layer_self_times(spans)
        self.assertEqual(layers, {"serve": 40.0})

    def test_per_layer_span_names(self):
        self.assertEqual(metrics._span_name("sim.state_us.pipeline"), "sim.state.pipeline")
        self.assertEqual(metrics._span_name("xlat.translate_us"), "xlat.translate")
        self.assertEqual(metrics._span_name("sim.snapshot.serialize_us.rv32"),
                         "sim.snapshot.serialize.rv32")


if __name__ == "__main__":
    unittest.main()
