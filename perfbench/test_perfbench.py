"""Tests of the benchmark's own arithmetic and output schema.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import analysis  # noqa: E402
import run  # noqa: E402


def span(sid, parent, name, start, end, child=0, thread=0, run_id=0):
    return (sid, parent, run_id, name, thread, start, end, child)


class SelfTimeTest(unittest.TestCase):
    def test_union_merges_overlaps_and_clips(self):
        self.assertEqual(
            analysis.union_length([(10, 30), (20, 50), (60, 70)], 0, 100), 50)
        self.assertEqual(analysis.union_length([(-5, 5), (95, 120)], 0, 100),
                         10)
        self.assertEqual(analysis.union_length([], 0, 100), 0)
        self.assertEqual(analysis.union_length([(40, 40)], 0, 100), 0)

    def test_same_thread_children_come_from_child_time(self):
        spans = [span(1, 0, "bench.pass", 0, 100, child=70),
                 span(2, 1, "scenario.run", 10, 80, child=50),
                 span(3, 2, "sim.run_until", 15, 65)]
        self.assertEqual(analysis.self_times(spans), {1: 30, 2: 20, 3: 50})

    def test_other_thread_children_are_unioned(self):
        # Two workers overlap during [20, 60]; the root is covered from 10
        # to 90, so its self time is the 20 ns outside that union.
        spans = [span(1, 0, "bench.pass", 0, 100),
                 span(2, 1, "exec.point", 10, 60, thread=1),
                 span(3, 1, "exec.point", 20, 90, thread=2)]
        self.assertEqual(analysis.self_times(spans)[1], 20)

    def test_serial_shares_partition_the_pass(self):
        tree = [span(1, 0, "bench.pass", 0, 1000, child=990),
                span(2, 1, "scenario.run", 5, 995, child=900),
                span(3, 2, "sim.run_until", 50, 950, child=600)]
        folded = {"core.on_receive": [100, 500, 450],
                  "mobility.next_leg": [10, 150, 150]}
        profile = analysis.pass_profile(tree, folded)
        shares = profile["shares"]
        self.assertAlmostEqual(sum(shares.values()), 1.0)
        self.assertAlmostEqual(shares["bench"], 10 / 1000)
        self.assertAlmostEqual(shares["sim"], 300 / 1000)
        self.assertAlmostEqual(shares["core"], 450 / 1000)
        self.assertEqual(profile["counts"]["core.on_receive"], 100)


class IdealWallTest(unittest.TestCase):
    def test_bound_is_the_larger_of_spread_work_and_longest_point(self):
        self.assertEqual(analysis.ideal_wall([1.0, 1.0, 1.0, 1.0, 4.0], 4), 4.0)
        self.assertEqual(analysis.ideal_wall([3.0, 3.0, 3.0, 3.0, 4.0], 4), 4.0)
        self.assertEqual(analysis.ideal_wall([3.0, 3.0, 3.0, 3.0, 3.0], 4),
                         3.75)
        self.assertEqual(analysis.ideal_wall([2.0], 1), 2.0)

    def test_exec_metrics(self):
        metrics = analysis.exec_metrics([1.0, 2.0, 3.0, 2.0], 3.0, 4)
        self.assertEqual(metrics["exec.point_wall_s.sum"], 8.0)
        self.assertEqual(metrics["exec.point_wall_s.max"], 3.0)
        self.assertEqual(metrics["exec.ideal_wall_s"], 3.0)
        self.assertEqual(metrics["exec.efficiency"], 1.0)
        self.assertEqual(metrics["exec.worker_idle_s"], 4.0)


def synthetic_trace():
    """Runner output and spans of a tiny serial traced run."""
    spans = [
        span(1, 0, "exec.sweep", 0, 1000, child=990),
        span(2, 1, "exec.point", 5, 995),
        span(3, 0, "bench.pass", 2000, 3200, child=1190),
        span(4, 3, "exec.point", 2005, 3195, child=1180),
        span(5, 4, "scenario.build", 2010, 2100),
        span(6, 4, "scenario.run", 2100, 3190, child=1060),
        span(7, 6, "sim.run_until", 2110, 3150, child=700),
        span(8, 6, "scenario.aggregate", 3150, 3170),
    ]
    start = 4000
    for sid, name in enumerate(sorted(n for n in run_span_names()
                                      if n.startswith("replay.")), 9):
        spans.append(span(sid, 0, name, start, start + 1000))
        start += 1000
    raw = {
        "kind": "multi", "jobs": 1, "setup_s": [0.001, 0.002, 0.003],
        "setup_nodes": 100,
        "untraced_wall_s": [1e-6, 1e-6], "traced_wall_s": [1.2e-6],
        "folded": [{"core.on_receive": [50, 600, 550],
                    "mobility.next_leg": [5, 150, 150]}],
        "traced": {"events": 1000, "messages": 10, "deliveries": 100,
                   "dropped": 5, "batch_queries": 0, "batch_walk_reuse": 0,
                   "batch_memo_hits": 0, "arena_frames_peak": 3,
                   "first_receipts": 20, "pending_peak": 40,
                   "index_rebuilds": 7},
        "replay_ops": {name: 10 for name in run_span_names()
                       if name.startswith("replay.")},
    }
    return raw, spans


def run_span_names():
    return ["bench.pass", "exec.sweep", "exec.point", "scenario.build",
            "scenario.run", "scenario.aggregate", "sim.run_until",
            "core.on_receive", "mobility.next_leg", "replay.queue",
            "replay.index_rebuild", "replay.index_query", "replay.fanout",
            "replay.position", "replay.cache_insert", "replay.propagation"]


class SchemaTest(unittest.TestCase):
    def setUp(self):
        self.bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_metric_tables_match_benchmark_json(self):
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.bench["end_to_end"]},
            run.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in self.bench["per_layer"]},
            run.PER_LAYER)
        self.assertEqual({w["name"] for w in self.bench["workloads"]},
                         set(run.WORKLOADS))

    def test_layer_metrics_report_every_per_layer_metric(self):
        raw, spans = synthetic_trace()
        metrics = analysis.layer_metrics(raw, spans)
        self.assertEqual(set(metrics), set(run.PER_LAYER))
        self.assertAlmostEqual(metrics["exec.efficiency"], 0.99)
        self.assertEqual(metrics["mobility.legs"], 5)
        self.assertAlmostEqual(metrics["core.on_receive_ns"], 12.0)
        self.assertAlmostEqual(metrics["sim.event_loop_s"], 1.04e-6)
        self.assertAlmostEqual(metrics["core.first_receipt_ratio"], 0.2)
        self.assertAlmostEqual(metrics["net.query_ns"], 100.0)
        self.assertAlmostEqual(metrics["obs.unattributed_share"],
                               10 / 1200)
        self.assertAlmostEqual(metrics["obs.trace_overhead_s"], 0.2e-6)
        self.assertEqual(metrics["obs.trace_records"], 6 + 55)

    def test_wall_averages_each_seed_variants_median(self):
        walls = [1.0, 3.0, 2.0, 10.0, 12.0]
        self.assertEqual(run.seed_averaged_wall(walls, [0, 0, 0, 1, 1]), 6.5)

    def test_result_line_has_exactly_the_contract_keys(self):
        metrics = {name: {"value": 1.5, "unit": unit}
                   for name, unit in run.END_TO_END.items()}
        line = json.loads(run.result_line(True, 12, 0, metrics))
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertEqual(line["metrics"]["wall_s"],
                         {"value": 1.5, "unit": "s"})


class InputTest(unittest.TestCase):
    def test_configs_follow_the_seed(self):
        for make in (run.fig07_configs, run.metro_configs):
            self.assertEqual(make(7), make(7))
            self.assertNotEqual(make(7), make(8))
            self.assertTrue(all("seed = 7\n" in text
                                for text in make(7).values()))
        self.assertEqual(len(run.fig07_configs(1)), 12)

    def test_sparse_sweep_points_may_die_out(self):
        reps = [{"label": "Optimized Gossiping 100 peers rep 2",
                 "rate": 0.0, "messages": 5},
                {"label": "Optimized Gossiping 300 peers rep 2",
                 "rate": 0.0, "messages": 3},
                {"label": "Gossiping 600 peers rep 0",
                 "rate": 99.0, "messages": 20000},
                {"label": "Flooding 1000 peers rep 0",
                 "rate": 99.0, "messages": 40000}]
        self.assertEqual(run.range_failures("fig07_sweep", reps), {})
        reps[2]["rate"] = 50.0
        reps[3]["messages"] = 0
        self.assertEqual(set(run.range_failures("fig07_sweep", reps)),
                         {"Flooding 1000 peers rep 0",
                          "replications of 600+ peers"})


class RunnerTest(unittest.TestCase):
    def test_an_overrunning_runner_is_a_failed_workload(self):
        timeouts = []

        def overrun(command, **kwargs):
            timeouts.append(kwargs["timeout"])
            raise subprocess.TimeoutExpired(command, kwargs["timeout"])

        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(run, "BUILD_DIR", Path(tmp)), \
                mock.patch.object(run.subprocess, "run", overrun):
            self.assertEqual(run.run_workload("metro_gossip", 1, 100, 0),
                             (False, 1, 1, {}, None))
        # The limit follows the budget rather than a fixed constant.
        self.assertEqual(len(timeouts), 1)
        self.assertGreater(timeouts[0], 200)


if __name__ == "__main__":
    unittest.main()
