#!/usr/bin/env python3
"""Unit tests of tools/perf_pairs.py's verdicts on synthetic pairs.

Run: python3 -B tests/tools/perf_pairs_test.py (ctest runs it as
PerfPairsTest).
"""

import contextlib
import io
import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "..", "tools"))
import perf_pairs  # noqa: E402

THROUGHPUT = {"name": "throughput", "better": "higher", "bound": 0.25}
P50 = {"name": "p50_ms", "better": "lower", "bound": 0.25}


def run(value, name="throughput", steal=0.01):
    return {"exit": 0, "result": {"failed": 0, "attempted": 100,
                                  "metrics": {name: {"value": value}}},
            "steal": steal}


def failed_run():
    return {"exit": 1, "result": None, "steal": None}


# The text block and JSON line of a perfbench run, as run.py relays them.
CANNED_RUN = """\
perfbench workload=lenet_eager seed=91 seconds=4 trace=0
lenet_eager metrics (untraced; end-to-end run):
  failed_frac                                     0 ratio       (text only)
  validity.cpu_steal_frac                 0.0731256 ratio       (text only)
  intra_op_threads                                4 count       (text only)
  throughput                                10303.2 1/s
{"correct": true, "attempted": 1237, "failed": 0, "metrics": {}}
"""


def pairs(base, change, name="throughput"):
    return [{"seed": 100 + k, "base": run(b, name), "change": run(c, name)}
            for k, (b, c) in enumerate(zip(base, change))]


class CompareTest(unittest.TestCase):

    def test_clear_gain_holds(self):
        c = perf_pairs.compare(
            pairs([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
                  [130, 131, 129, 130, 132, 128, 130, 131, 129, 130]),
            THROUGHPUT)
        self.assertEqual(c["wins"], 10)
        self.assertTrue(c["gain"])
        self.assertEqual(c["verdict"], "ok")

    def test_failed_pairs_count_against_the_gain(self):
        # 8 wins out of the 8 pairs that completed is 8 out of 10 run.
        p = pairs([100] * 10, [130] * 10)
        p[3]["change"] = failed_run()
        p[7]["change"] = failed_run()
        c = perf_pairs.compare(p, THROUGHPUT)
        self.assertEqual(c["wins"], 8)
        self.assertFalse(c["gain"])

    def test_ties_count_for_neither_side(self):
        c = perf_pairs.compare(pairs([100] * 10, [100] * 9 + [101]),
                               THROUGHPUT)
        self.assertEqual(c["wins"], 1)
        self.assertFalse(c["gain"])

    def test_gap_inside_the_base_spread_is_no_gain(self):
        # The change wins every pair, but the medians differ by 3 while the
        # base's interquartile range is about 11.
        base = [90, 95, 100, 105, 110, 92, 97, 102, 107, 99]
        c = perf_pairs.compare(pairs(base, [b + 3 for b in base]),
                               THROUGHPUT)
        self.assertEqual(c["wins"], 10)
        self.assertFalse(c["gain"])

    def test_median_beyond_the_bound_is_worse(self):
        c = perf_pairs.compare(
            pairs([10.0] * 10, [13.0] * 10, "p50_ms"), P50)
        self.assertEqual(c["verdict"], "WORSE")
        self.assertFalse(c["gain"])

    def test_spread_wider_than_the_bound_is_unresolved(self):
        # Medians within 1% of each other, but each side's runs spread over
        # more than a quarter of its median.
        base = [60, 70, 80, 90, 100, 110, 120, 130, 140, 100]
        change = [61, 71, 81, 91, 101, 111, 121, 131, 141, 99]
        c = perf_pairs.compare(pairs(base, change), THROUGHPUT)
        self.assertEqual(c["verdict"], "unresolved")

    def test_wide_spread_with_every_change_run_better_is_ok(self):
        base = [40, 50, 60, 70, 80, 90, 100, 55, 65, 75]
        change = [200, 260, 320, 380, 440, 500, 560, 230, 290, 350]
        c = perf_pairs.compare(pairs(base, change), THROUGHPUT)
        self.assertEqual(c["verdict"], "ok")
        self.assertTrue(c["gain"])

    def test_no_complete_pair(self):
        p = pairs([100] * 2, [100] * 2)
        for pair in p:
            pair["base"] = failed_run()
        self.assertIsNone(perf_pairs.compare(p, THROUGHPUT))


class SummarizeTest(unittest.TestCase):

    def summarize(self, p, metric):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            problems = perf_pairs.summarize("w", p, {"end_to_end": [metric]})
        return problems, out.getvalue()

    def test_clean_gain_is_no_problem(self):
        problems, text = self.summarize(
            pairs([100] * 10, [130] * 10), THROUGHPUT)
        self.assertEqual(problems, 0)
        self.assertIn("10/10", text)
        self.assertIn("holds", text)

    def test_failed_run_and_unresolved_spread_are_problems(self):
        p = pairs([60, 70, 80, 90, 100, 110, 120, 130, 140, 100],
                  [61, 71, 81, 91, 101, 111, 121, 131, 141, 99])
        p[0]["change"] = failed_run()
        problems, text = self.summarize(p, THROUGHPUT)
        self.assertEqual(problems, 2)
        self.assertIn("change 1/", text)
        self.assertIn("unresolved", text)
        self.assertIn("/10", text)

    def test_worse_median_names_the_bound(self):
        problems, text = self.summarize(
            pairs([10.0] * 10, [13.0] * 10, "p50_ms"), P50)
        self.assertEqual(problems, 1)
        self.assertIn("WORSE than 0.25", text)


class StealTest(unittest.TestCase):

    def test_reads_the_steal_line(self):
        self.assertAlmostEqual(perf_pairs.parse_steal(CANNED_RUN), 0.0731256)

    def test_missing_line_is_unknown_not_zero(self):
        without = "\n".join(line for line in CANNED_RUN.splitlines()
                             if "cpu_steal" not in line)
        self.assertIsNone(perf_pairs.parse_steal(without))
        p = pairs([100] * 2, [130] * 2)
        p[0]["change"]["steal"] = perf_pairs.parse_steal(without)
        line = perf_pairs.steal_summary(p)
        self.assertIn("change highest 1.0% (1 unknown)", line)
        self.assertIn("1 with a share unknown", line)
        for pair in p:
            pair["base"]["steal"] = None
        self.assertIn("base highest unknown",
                      perf_pairs.steal_summary(p))

    def test_summary_counts_pairs_above_five_percent(self):
        p = pairs([100] * 10, [130] * 10)
        p[2]["base"]["steal"] = 0.12
        p[5]["change"]["steal"] = 0.06
        p[5]["base"]["steal"] = 0.07
        p[7]["change"]["steal"] = 0.05  # not above
        line = perf_pairs.steal_summary(p)
        self.assertIn("base highest 12.0%", line)
        self.assertIn("change highest 6.0%", line)
        self.assertIn("pairs above 5% on either side: 2/10", line)
        self.assertNotIn("unknown", line)

    def test_steal_changes_no_verdict(self):
        calm = pairs([100] * 10, [130] * 10)
        stolen = pairs([100] * 10, [130] * 10)
        for pair in stolen:
            pair["base"]["steal"] = pair["change"]["steal"] = 0.3
        self.assertEqual(perf_pairs.compare(calm, THROUGHPUT),
                         perf_pairs.compare(stolen, THROUGHPUT))


if __name__ == "__main__":
    unittest.main()
