"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The replay test needs the benchmark programs built by a first `perfbench/run.py`
run and is skipped without them.
"""

import json
import os
import subprocess
import tempfile
import unittest
from pathlib import Path

import benchlib

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def simulate_open_loop(due, service):
    """A blocking client on one connection: each request is sent when due
    or when the previous reply arrived, whichever is later."""
    sent, done = [], []
    free_at = 0.0
    for d, s in zip(due, service):
        start = max(d, free_at)
        sent.append(start)
        free_at = start + s
        done.append(free_at)
    return sent, done


class PercentileRuleTest(unittest.TestCase):
    def test_percentile_interpolates(self):
        self.assertEqual(benchlib.percentile([3.0], 99), 3.0)
        self.assertAlmostEqual(benchlib.percentile([1.0, 2.0, 3.0, 4.0], 50),
                               2.5)
        self.assertEqual(benchlib.percentile(list(range(101)), 99), 99)

    def test_tail_needs_ten_samples_beyond(self):
        # Under 100 samples no percentile above the median has ten beyond
        # it on the ladder: the tail is the max.
        self.assertEqual(benchlib.tail([1.0] * 7 + [9.0]), ("max", 9.0))
        self.assertEqual(benchlib.tail(list(range(99)))[0], "max")
        self.assertEqual(benchlib.tail(list(range(100)))[0], "p90")
        self.assertEqual(benchlib.tail(list(range(999)))[0], "p90")
        self.assertEqual(benchlib.tail(list(range(1000)))[0], "p99")
        self.assertEqual(benchlib.tail(list(range(10000)))[0], "p99.9")

    def test_tail_value_matches_percentile(self):
        values = [float(i) for i in range(1000)]
        self.assertEqual(benchlib.tail(values)[1],
                         benchlib.percentile(values, 99))


class OpenLoopAccountingTest(unittest.TestCase):
    def setUp(self):
        # Requests due every 10 ms, each served in 1 ms, except a 100 ms
        # stall injected at request 20.
        self.due = [0.010 * i for i in range(100)]
        self.service = [0.001] * 100
        self.service[20] = 0.100
        self.sent, self.done = simulate_open_loop(self.due, self.service)

    def test_latency_counts_the_wait_a_stall_imposes(self):
        latencies, lags = benchlib.open_loop_latencies(self.due, self.sent,
                                                       self.done)
        self.assertAlmostEqual(latencies[20], 0.100)
        # Requests 21..29 were due during the stall: each waited for it.
        for i in range(21, 30):
            self.assertGreater(latencies[i], 0.001 + 1e-9)
            self.assertGreater(lags[i], 0.0)
        self.assertAlmostEqual(latencies[21], 0.100 - 0.010 + 0.001)
        # Timed from the send instead, the stall would show only once.
        from_send = [d - s for s, d in zip(self.sent, self.done)]
        self.assertAlmostEqual(from_send[21], 0.001)
        # Once the backlog drains, latency is the service time again.
        self.assertAlmostEqual(latencies[40], 0.001)
        self.assertEqual(lags[40], 0.0)

    def test_generator_lag_percentile_reports_the_stall(self):
        _, lags = benchlib.open_loop_latencies(self.due, self.sent, self.done)
        self.assertGreater(benchlib.percentile(lags, 99), 0.05)
        unstalled = simulate_open_loop(self.due, [0.001] * 100)
        _, calm = benchlib.open_loop_latencies(self.due, *unstalled)
        self.assertEqual(benchlib.percentile(calm, 99), 0.0)

    def test_request_that_never_completes_is_missing(self):
        latencies, _ = benchlib.open_loop_latencies([0.0, 1.0], [0.0, 1.0],
                                                    [0.5, -1.0])
        self.assertEqual(latencies, [0.5, None])
        raw = {"due": [0.0], "sent": [0.0], "acked": [0.1], "durable": [-1.0],
               "setup_s": [0.1], "wall_s": 0.2, "blocks": 1,
               "records": 64, "peak_rss_mb": 1.0, "state_mb": 1.0,
               "capacity_records": 64,
               "capacity_server_user_cpu_s": [0.01]}
        with self.assertRaises(ValueError):
            benchlib.serve_e2e(raw)


class SchemaTest(unittest.TestCase):
    def engine_raw(self, setup_s=(0.3, 0.2, 0.4)):
        return {"quiesce_s": [0.0, 0.5, 0.6], "add_block_s": [1.0, 1.2, 0.9],
                "wall_s": 4.5, "user_cpu_s": 12.0, "timed_blocks": 3,
                "timed_records": 3000,
                "peak_rss_mb": 100.0, "state_mb": [90.0, 80.0],
                "setup_s": list(setup_s)}

    def test_benchmark_json_matches_the_metric_tables(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         benchlib.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         benchlib.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         {"fleet", "shift", "serve"})
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))

    def test_every_end_to_end_metric_is_named_with_its_unit(self):
        metrics = benchlib.engine_e2e(self.engine_raw())
        self.assertEqual(metrics["setup_s"], 0.3)
        self.assertEqual(metrics["response_tail_s"], 1.2)
        self.assertEqual(metrics["ingest_p50_s"], 1.5)
        line = benchlib.result_line(True, 3, 0, metrics, benchlib.END_TO_END)
        result = benchlib.check_result_schema(line, benchlib.END_TO_END)
        self.assertEqual(result["metrics"]["state_mb"],
                         {"value": 80.0, "unit": "MB"})
        self.assertEqual(metrics["peak_rss_mb"], 100.0)
        self.assertEqual(metrics["records_per_user_cpu_s"], 3000 / 12.0)
        self.assertEqual(metrics["blocks_per_s"], 3 / 4.5)
        self.assertEqual(set(metrics),
                         set(benchlib.END_TO_END) | set(benchlib.REPORTED))

    def test_serve_throughput_is_the_median_capacity_round(self):
        raw = {"due": [0.0, 0.5], "sent": [0.0, 0.5], "acked": [0.1, 0.6],
               "durable": [0.2, 0.7], "setup_s": [0.1], "wall_s": 1.0,
               "blocks": 2, "records": 128, "peak_rss_mb": 1.0,
               "state_mb": 1.0,
               "capacity_records": 1000,
               "capacity_server_user_cpu_s": [0.5, 0.4, 2.0]}
        metrics = benchlib.serve_e2e(raw)
        self.assertEqual(metrics["records_per_user_cpu_s"], 1000 / 0.5)
        self.assertEqual(metrics["records_per_s"], 128.0)
        self.assertAlmostEqual(metrics["response_p50_s"], 0.2)

    def test_every_per_layer_metric_is_present(self):
        layers = benchlib.empty_layers()
        line = benchlib.result_line(True, 1, 0, layers, benchlib.PER_LAYER)
        benchlib.check_result_schema(line, benchlib.PER_LAYER)

    def test_schema_rejects_malformed_results(self):
        metrics = benchlib.engine_e2e(self.engine_raw(setup_s=[0.3]))
        good = json.loads(benchlib.result_line(True, 3, 0, metrics,
                                               benchlib.END_TO_END))
        bad_cases = []
        missing = json.loads(json.dumps(good))
        del missing["metrics"]["state_mb"]
        bad_cases.append(missing)
        wrong_unit = json.loads(json.dumps(good))
        wrong_unit["metrics"]["setup_s"]["unit"] = "ms"
        bad_cases.append(wrong_unit)
        extra_key = dict(good, extra=1)
        bad_cases.append(extra_key)
        no_attempts = dict(good, attempted=0)
        bad_cases.append(no_attempts)
        for case in bad_cases:
            with self.assertRaises(ValueError):
                benchlib.check_result_schema(json.dumps(case),
                                             benchlib.END_TO_END)

    def test_attribution_flags_a_large_unattributed_share(self):
        layers = benchlib.empty_layers()
        layers.update({"itemsets.borders.add_block_s": 8.0,
                       "core.engine.self_s": 2.0,
                       "core.unattributed_share": 0.2})
        rows = benchlib.attribution_rows("fleet", layers)
        self.assertAlmostEqual(rows[0][1], 10.0)
        self_row = [r for r in rows if r[0] == "core.engine.self_s"][0]
        self.assertIn("FLAG", self_row[3])
        layers["core.unattributed_share"] = 0.05
        self_row = [r for r in benchlib.attribution_rows("fleet", layers)
                    if r[0] == "core.engine.self_s"][0]
        self.assertNotIn("FLAG", self_row[3])


class ReplayCountersTest(unittest.TestCase):
    """Two sequential replays with one seed give identical exact counters."""

    def test_counters_repeat(self):
        tree = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "cmake"
        binary = tree / "engine_bench"
        if not binary.exists():
            self.skipTest("benchmark programs not built; run perfbench/run.py first")
        runs = []
        for _ in range(2):
            with tempfile.TemporaryDirectory(dir=tree) as work:
                out = Path(work) / "out.json"
                subprocess.run(
                    [str(binary), "--workload=shift", "--seed=7", "--seconds=1",
                     "--trace=true", "--work_dir=" + work, "--out=" + str(out)],
                    check=True, capture_output=True, timeout=170)
                runs.append(json.loads(out.read_text()))
        for run in runs:
            self.assertTrue(run["correct"], run["checks"])
        layers = [run["trace"]["layers"] for run in runs]
        self.assertEqual(layers[0]["counters"], layers[1]["counters"])
        self.assertGreater(layers[0]["tidlist.page_ins"], 0)
        for name in ("itemsets.borders.new_candidates", "tidlist.page_ins",
                     "tidlist.payload_bytes", "patterns.sequences"):
            self.assertEqual(layers[0][name], layers[1][name])


if __name__ == "__main__":
    unittest.main()
