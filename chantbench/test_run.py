#!/usr/bin/env python3
"""Tests for chantbench/run.py: medians and quartiles, the reduction of a
run's rounds, and the comparison verdicts. Run with

    python3 chantbench/test_run.py
"""

import io
import json
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_median(self):
        self.assertEqual(run.median([3, 1, 2]), 2)
        self.assertEqual(run.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_follow_statistics_quantiles(self):
        # statistics.quantiles' default "exclusive" method on 1..9.
        self.assertEqual(run.quartiles(list(range(1, 10))), (2.5, 5.0, 7.5))
        self.assertEqual(run.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(run.spread(list(range(1, 10))), 1.0)
        self.assertEqual(run.spread([5, 5, 5, 5]), 0.0)


def rnd(traced, **metrics):
    return {"traced": traced, "attempted": 1, "failed": 0, "checks": [],
            "metrics": metrics}


class ReduceRounds(unittest.TestCase):
    def test_end_to_end_medians(self):
        rounds = [rnd(False, ops_per_s=v) for v in (10, 30, 20)]
        self.assertEqual(run.reduce_rounds(rounds, ["ops_per_s"]),
                         {"ops_per_s": 20})

    def test_counters_from_untraced_spans_from_traced(self):
        rounds = [
            rnd(False, ops_per_s=110.0, **{"lwt.parks_per_op": 1.0}),
            rnd(True, ops_per_s=100.0, **{"lwt.parks_per_op": 9.0,
                                          "chant.post_us": 4.0}),
        ]
        out = run.reduce_rounds(
            rounds, ["lwt.parks_per_op", "chant.post_us",
                     "chant.call_tail_rtt_us", "trace.overhead_pct"])
        self.assertEqual(out["lwt.parks_per_op"], 1.0)
        self.assertEqual(out["chant.post_us"], 4.0)
        self.assertEqual(out["chant.call_tail_rtt_us"], 0.0)
        self.assertAlmostEqual(out["trace.overhead_pct"], 10.0)


class Verdicts(unittest.TestCase):
    A = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_agree_within_bound(self):
        b = [v * 1.05 for v in self.A]
        self.assertEqual(run.verdict(self.A, b, "lower", 0.1), "agree")
        self.assertEqual(run.verdict(self.A, b, "higher", 0.1), "agree")

    def test_worse_beyond_bound(self):
        b = [v * 1.2 for v in self.A]
        self.assertEqual(run.verdict(self.A, b, "lower", 0.1), "worse")
        self.assertEqual(run.verdict(b, self.A, "higher", 0.1), "worse")

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [50, 150, 80, 120, 100, 60, 140, 100, 90, 110]
        self.assertEqual(run.verdict(self.A, noisy, "lower", 0.1),
                         "unresolved")

    def test_better_when_every_run_wins(self):
        noisy = [50, 60, 55, 70, 52, 58, 65, 51, 69, 54]
        self.assertEqual(run.verdict(self.A, noisy, "lower", 0.1), "better")


class Compare(unittest.TestCase):
    def write_set(self, d, name, stamp, values):
        path = Path(d) / name
        path.mkdir()
        for i, v in enumerate(values):
            rec = {"provenance": dict(stamp, workload="w", seed=i, trace=0),
                   "correct": True, "attempted": 1, "failed": 0,
                   "metrics": {m["name"]: v for m in self.spec["end_to_end"]}}
            (path / f"{i}.log").write_text(
                "noise\n" + run.RECORD_TAG + json.dumps(rec) + "\n{}\n")
        return str(path)

    def setUp(self):
        self.spec = {"end_to_end": [
            {"name": "ops_per_s", "unit": "1/s", "better": "higher",
             "bound": 0.1}]}
        self.stamp = {k: "x" for k in run.STAMP_KEYS}

    def test_same_results_agree(self):
        with tempfile.TemporaryDirectory() as d:
            a = self.write_set(d, "a", self.stamp, [100, 101, 99, 100])
            b = self.write_set(d, "b", self.stamp, [100, 100, 101, 99])
            with redirect_stdout(io.StringIO()) as out:
                self.assertEqual(run.compare(a, b, self.spec), 0)
            self.assertIn("agree", out.getvalue())

    def test_differing_stamps_are_refused(self):
        with tempfile.TemporaryDirectory() as d:
            a = self.write_set(d, "a", self.stamp, [100, 101])
            b = self.write_set(d, "b", dict(self.stamp, cores=8), [100, 99])
            with redirect_stdout(io.StringIO()) as out:
                self.assertEqual(run.compare(a, b, self.spec), 2)
            self.assertIn("refusing", out.getvalue())


if __name__ == "__main__":
    unittest.main()
