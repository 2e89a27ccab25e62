"""Self-test of the benchmark's scoring and span arithmetic.

    python3 perfbench/selftest.py

Run from the checkout root; imports realspectra from ./src.
"""

import hashlib
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _result(answers, errors=None):
    return {"answers": answers, "errors": errors or {}}


class ScoringTest(unittest.TestCase):
    reference = {"a": [1, 0], "b": [0, 2], "c": [3, 1]}

    def test_right_answers_pass(self):
        got = run.score_pass(list(self.reference),
                             _result(dict(self.reference)), self.reference)
        self.assertEqual(got, (3, []))

    def test_corrupted_answer_fails(self):
        answers = dict(self.reference, b=[0, 3])
        attempted, failures = run.score_pass(
            list(self.reference), _result(answers), self.reference)
        self.assertEqual(attempted, 3)
        self.assertEqual(len(failures), 1)
        self.assertTrue(failures[0].startswith("b:"))

    def test_op_that_raised_fails(self):
        answers = {k: v for k, v in self.reference.items() if k != "c"}
        trace = "Traceback (most recent call last):\n  ...\nValueError: x"
        _, failures = run.score_pass(
            list(self.reference), _result(answers, {"c": trace}),
            self.reference)
        self.assertEqual(len(failures), 1)
        self.assertIn("raised", failures[0])

    def test_failed_prepare_fails_every_op(self):
        _, failures = run.score_pass(
            list(self.reference), _result({}, {"prepare": "Traceback"}),
            self.reference)
        self.assertEqual(len(failures), 3)

    def test_crashed_worker_fails_every_op(self):
        class Crashing:
            def worker(self, *args):
                return None, "Traceback (most recent call last): ..."

        tally = run.Tally()
        _, run_s = run.worker_rep(Crashing(), "duality", 1, 0, {}, tally,
                                  before=hostspeed.PROBE_NOMINAL_S)
        self.assertIsNone(run_s)
        # 64 cold ops and the 16 repeated warm
        self.assertEqual(tally.attempted, 64 + 16)
        self.assertEqual(len(tally.failures), 64 + 16)

    def test_cli_call_scoring(self):
        want = {"code": 0, "stdout_sha256": hashlib.sha256(b"ok\n").hexdigest()}
        self.assertIsNone(run.score_call(0, b"ok\n", b"", want))
        self.assertIn("exit code", run.score_call(1, b"ok\n", b"", want))
        self.assertIn("exit code", run.score_call(None, b"", b"timeout", want))
        self.assertIn("stdout", run.score_call(0, b"ok!\n", b"", want))
        self.assertIn("traceback", run.score_call(
            0, b"ok\n", b"Traceback (most recent call last):", want))

    def test_metrics_match_benchmark_json(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            spec = json.load(f)
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual(declared, run.END_TO_END_UNITS)
        empty = run.merge_summaries([])
        printed = {k: v["unit"] for k, v in
                   run.layer_metrics(empty, 0.0, {}).items()}
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         printed)

    def test_speed_factor_scales_to_the_nominal_probe(self):
        nominal = hostspeed.PROBE_NOMINAL_S
        self.assertEqual(hostspeed.factor(nominal, nominal), 1.0)
        # a host at half speed doubles the probe: times count half
        self.assertEqual(hostspeed.factor(2 * nominal, 2 * nominal), 0.5)
        self.assertEqual(hostspeed.factor(nominal, 3 * nominal), 0.5)

    def test_timeline_scales_each_gap_by_its_probes(self):
        nominal = hostspeed.TIMELINE_NOMINAL_S
        # probes at [0, 1], [3, 4] and [6, 7]: nominal speed, then half
        marks = [(0.0, 1.0, nominal), (3.0, 4.0, nominal),
                 (6.0, 7.0, 3 * nominal)]
        # gap [1, 3] counts in full, gap [4, 6] at half; probes not at all
        self.assertAlmostEqual(hostspeed.scaled_time(marks, 0.0, 7.0), 3.0)
        self.assertAlmostEqual(hostspeed.scaled_time(marks, 2.0, 5.0), 1.5)
        self.assertEqual(hostspeed.scaled_time(marks, 3.2, 3.8), 0.0)

    def test_tail_has_ten_samples_beyond(self):
        values = [float(i) for i in range(26)]
        self.assertEqual(run.tail(values), (15.0, 100.0 * 16 / 26))
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0))

    def test_short_pass_tail_ignores_the_number_of_passes(self):
        # 13 calls a pass, as in `cli`: the tail pools the first MIN_REPS
        # passes however many a run fits
        def tally(passes):
            out = run.Tally()
            for p in range(passes):
                calls = [float(p * 13 + i) for i in range(13)]
                out.add_rep(1.0, 1.0, 26, calls, calls, 1.0, 1.0)
            return out

        pooled = 13 * run.MIN_REPS
        want = (float(pooled - 1 - run.TAIL_BEYOND),
                100.0 * (pooled - run.TAIL_BEYOND) / pooled, pooled)
        for passes in (run.MIN_REPS, run.MIN_REPS + 1, run.MIN_REPS + 4):
            self.assertEqual(tally(passes).tail(), want)

    def test_long_pass_tail_is_a_median_over_passes(self):
        tally = run.Tally()
        for p in range(5):
            calls = [float(p + i) for i in range(30)]
            tally.add_rep(1.0, 1.0, 30, calls, calls, 1.0, 1.0)
        # per pass: the 20th of 30 values, p + 19; median over p = 0..4
        self.assertEqual(tally.tail(), (21.0, 100.0 * 20 / 30, 30))


class SpanTest(unittest.TestCase):
    def test_self_time_of_nested_spans(self):
        # a [0, 10] holds b [1, 5] and d [6, 9]; b holds c [2, 4]
        ticks = iter([0, 1, 2, 4, 5, 6, 9, 10])
        tracer = spans.Tracer(clock=lambda: next(ticks))
        tracer.enter("a")
        tracer.enter("b")
        tracer.enter("c")
        tracer.exit()
        tracer.exit()
        tracer.enter("d")
        tracer.exit()
        tracer.exit()
        got = tracer.summary()["spans"]
        self.assertEqual({k: (v["total_s"], v["self_s"]) for k, v in got.items()},
                         {"a": (10, 3), "b": (4, 2), "c": (2, 2), "d": (3, 3)})
        edges = {(e["parent"], e["name"]) for e in tracer.summary()["edges"]}
        self.assertEqual(edges, {(None, "a"), ("a", "b"), ("b", "c"),
                                 ("a", "d")})

    def test_recursion_counts_each_level(self):
        ticks = iter([0, 1, 3, 4])
        tracer = spans.Tracer(clock=lambda: next(ticks))
        tracer.enter("f")
        tracer.enter("f")
        tracer.exit()
        tracer.exit()
        got = tracer.summary()["spans"]["f"]
        self.assertEqual((got["calls"], got["total_s"], got["self_s"]),
                         (2, 6, 4))

    def test_install_rebinds_imported_names(self):
        from realspectra import abelian, blocks, duality, hfpss, localcoh
        originals = (abelian.mat_mul, hfpss.closed_form_state)
        tracer = spans.Tracer()
        patched = spans.install(tracer)
        try:
            self.assertIs(localcoh.mat_mul, abelian.mat_mul)
            self.assertIsNot(abelian.mat_mul, originals[0])
            self.assertIs(blocks.closed_form_state, hfpss.closed_form_state)
            self.assertIs(duality.closed_form_state, hfpss.closed_form_state)
            self.assertIsNot(duality.closed_form_state, originals[1])
            self.assertTrue(hasattr(duality.default_ssdata, "cache_info"))
            localcoh.lc_oracle(localcoh.p_module(), 1, 1,
                               localcoh.RHO * -2)
        finally:
            spans.uninstall(patched)
        self.assertIs(localcoh.mat_mul, originals[0])
        self.assertIs(duality.closed_form_state, originals[1])
        got = tracer.summary()
        self.assertEqual(got["spans"]["localcoh.lc_oracle"]["calls"], 1)
        self.assertGreater(got["spans"]["abelian.mat_mul"]["calls"], 0)
        self.assertGreater(
            got["counters"]["localcoh.lc_oracle.snf_calls"], 0)
        self.assertEqual(tracer.stack, [])


if __name__ == "__main__":
    unittest.main()
