"""Tests of the benchmark harness itself: the percentile rule, pass time,
span self time, and seed -> byte-identical generated inputs.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The input test builds the driver (as run.py does) on first use.
"""

import filecmp
import os
import subprocess
import tempfile
import unittest

import run
import stats


def span(span_id, parent, ts, dur, name="x.y"):
    return {"name": name, "ts": ts, "dur": dur, "args": {"id": span_id, "parent": parent}}


class PercentileRule(unittest.TestCase):
    def test_median_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.percentile(list(range(19)), 0.5))
        self.assertEqual(stats.percentile(list(range(1, 21)), 0.5), 10)

    def test_p99_needs_a_thousand_samples(self):
        self.assertIsNone(stats.percentile(list(range(999)), 0.99))
        values = list(range(1, 1001))
        self.assertEqual(stats.percentile(values, 0.99), 990)
        self.assertEqual(stats.samples_needed(0.99), 1000)
        self.assertEqual(stats.samples_needed(0.5), 20)

    def test_nearest_rank_ignores_input_order(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 8
        self.assertEqual(stats.percentile(values, 0.5), 3.0)

    def test_empty(self):
        self.assertIsNone(stats.percentile([], 0.5))


class PassTime(unittest.TestCase):
    def test_sum_of_part_medians(self):
        parts = {"alu1": [2.0, 9.0, 2.2], "c432": [3.0, 3.4, 3.2, 30.0]}
        self.assertAlmostEqual(stats.pass_seconds(parts), 2.2 + 3.3)

    def test_nothing_measured(self):
        self.assertIsNone(stats.pass_seconds({}))


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        events = [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 50, 20)]
        self.assertEqual(stats.self_times(events), {1: 50, 2: 30, 3: 20})

    def test_overlapping_children_count_once(self):
        events = [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 20, 40)]
        self.assertEqual(stats.self_times(events)[1], 50)

    def test_children_clipped_to_parent(self):
        events = [span(1, 0, 0, 100), span(2, 1, 90, 30)]
        self.assertEqual(stats.self_times(events)[1], 90)

    def test_grandchildren_only_reduce_their_parent(self):
        events = [span(1, 0, 0, 100), span(2, 1, 0, 60), span(3, 2, 0, 60)]
        self.assertEqual(stats.self_times(events), {1: 40, 2: 0, 3: 60})

    def test_layer_self_ms_per_pass(self):
        events = [
            span(1, 0, 0, 10000, "bench.pass"), span(2, 1, 0, 4000, "opt.optimize"),
            span(3, 1, 4000, 5000, "ssta.isle"),
            span(4, 0, 20000, 10000, "bench.pass"), span(5, 4, 20000, 8000, "opt.optimize"),
            span(6, 0, 40000, 5000, "core.load"),  # outside any pass
        ]
        self.assertEqual(stats.layer_self_ms(events),
                         {"bench": 1.5, "opt": 6.0, "ssta": 2.5})
        self.assertEqual(stats.coverage(events), [0.9, 0.8])


class GeneratedInputs(unittest.TestCase):
    """The seed drives only the generated inputs, byte for byte."""

    @classmethod
    def setUpClass(cls):
        nproc, cls.width = run.execution_width()
        cls.driver, cls.server = run.build(cls.width)

    def generate(self, workload, seed, work):
        subprocess.run([self.driver, "--workload", workload, "--seed", str(seed), "--inputs-only",
                        "--width", str(self.width), "--work", work, "--serve-bin", self.server],
                       check=True, stdout=subprocess.DEVNULL)
        return sorted(os.listdir(work))

    def test_same_seed_same_bytes_other_seed_differs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload), tempfile.TemporaryDirectory() as tmp:
                dirs = [os.path.join(tmp, d) for d in ("a", "b", "c")]
                for d in dirs:
                    os.makedirs(d)
                files = self.generate(workload, 7, dirs[0])
                self.assertTrue(files)
                self.assertEqual(self.generate(workload, 7, dirs[1]), files)
                self.generate(workload, 8, dirs[2])
                match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], files, shallow=False)
                self.assertEqual((mismatch, errors), ([], []))
                match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[2], files, shallow=False)
                self.assertTrue(mismatch, "seed 8 generated the same inputs as seed 7")


if __name__ == "__main__":
    unittest.main()
