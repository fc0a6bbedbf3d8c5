"""Tests of the benchmark's own logic (no simulator run needed).

    python3 -m unittest discover -s perfbench/tests
"""

import copy
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import benchlib  # noqa: E402


class Statistics(unittest.TestCase):
    def test_quartiles_match_hand_computed_values(self):
        # Exclusive method: positions (n + 1) * k / 4.
        self.assertEqual(benchlib.quartiles(range(1, 11)), (2.75, 5.5, 8.25))
        self.assertEqual(benchlib.quartiles([4, 1, 3, 2]),
                         (1.25, 2.5, 3.75))
        self.assertEqual(benchlib.quartiles([7.5]), (7.5, 7.5, 7.5))

    def test_median_and_spread(self):
        self.assertEqual(benchlib.median([3, 1, 2]), 2)
        self.assertEqual(benchlib.median([4, 1, 3, 2]), 2.5)
        self.assertAlmostEqual(benchlib.rel_spread(range(1, 11)), 1.0)
        self.assertEqual(benchlib.rel_spread([2.0, 2.0, 2.0]), 0.0)


class Verdicts(unittest.TestCase):
    parent = [10.0, 10.1, 9.9, 10.0, 10.05]

    def test_within_bound_and_worse(self):
        child = [10.5, 10.6, 10.4, 10.5, 10.55]  # 5% slower
        self.assertEqual(benchlib.verdict(self.parent, child, "lower", 0.1),
                         "within bound")
        self.assertEqual(benchlib.verdict(self.parent, child, "lower", 0.02),
                         "worse")

    def test_better(self):
        child = [9.0, 9.1, 8.9, 9.0, 9.05]
        self.assertEqual(benchlib.verdict(self.parent, child, "lower", 0.1),
                         "better")
        # Same numbers, but a higher-is-better metric: 10% worse.
        self.assertEqual(benchlib.verdict(self.parent, child, "higher", 0.05),
                         "worse")

    def test_unresolved_when_spread_exceeds_bound(self):
        parent = [5.0, 10.0, 15.0, 20.0]
        child = [6.0, 11.0, 16.0, 21.0]
        self.assertEqual(benchlib.verdict(parent, child, "lower", 0.1),
                         "unresolved")
        # Every change run beating every parent run still resolves.
        self.assertEqual(benchlib.verdict(parent, [1.0, 2.0], "lower", 0.1),
                         "better")

    def test_pair_wins_and_claims(self):
        parent = [10.0] * 10
        nine = [9.0] * 9 + [10.0]  # the tie counts for neither side
        self.assertEqual(benchlib.pair_wins(parent, nine, "lower"), 9)
        self.assertTrue(benchlib.claim_holds(parent, nine, "lower"))
        eight = [9.0] * 8 + [10.0, 11.0]
        self.assertEqual(benchlib.pair_wins(parent, eight, "lower"), 8)
        self.assertFalse(benchlib.claim_holds(parent, eight, "lower"))


def ops(outputs, failed=None):
    failed = failed or {}
    return {"ops": [{"op": k, "output": v, "failed": failed.get(k, [])}
                    for k, v in outputs.items()]}


class FailedOperations(unittest.TestCase):
    pinned = {"a/base": {"cycles": 10, "stats": "x"},
              "a/hsu": {"cycles": 8, "stats": "y"}}

    def test_matching_outputs_do_not_fail(self):
        self.assertEqual(benchlib.count_failures(
            [ops(self.pinned), ops(self.pinned)], self.pinned, True),
            (4, 0, []))

    def test_each_kind_of_failure_counts_once(self):
        changed = copy.deepcopy(self.pinned)
        changed["a/hsu"]["cycles"] = 9
        attempted, failed, reasons = benchlib.count_failures(
            [ops(changed)], self.pinned, True)
        self.assertEqual((attempted, failed), (2, 1))
        self.assertIn("cycles", reasons[0])

        flagged = ops(self.pinned, {"a/base": ["lost requests"]})
        self.assertEqual(benchlib.count_failures(
            [flagged], self.pinned, True)[:2], (2, 1))

        missing = ops({"a/base": self.pinned["a/base"]})
        self.assertEqual(benchlib.count_failures(
            [missing], self.pinned, True)[:2], (2, 1))

        extra = ops(dict(self.pinned, **{"b/base": {"cycles": 1}}))
        self.assertEqual(benchlib.count_failures(
            [extra], self.pinned, True)[:2], (3, 1))

    def test_other_seeds_skip_pins_but_keep_driver_checks(self):
        changed = {"a/base": {"cycles": 1}, "a/hsu": {"cycles": 2}}
        self.assertEqual(benchlib.count_failures(
            [ops(changed)], self.pinned, False)[:2], (2, 0))
        flagged = ops(changed, {"a/hsu": ["sharded answers differ"]})
        self.assertEqual(benchlib.count_failures(
            [flagged], self.pinned, False)[:2], (2, 1))

    def test_corrupting_one_pinned_value_raises_failed_frac(self):
        for workload in benchlib.WORKLOADS:
            pinned = benchlib.load_pinned(workload)
            self.assertTrue(pinned, f"{workload} has no pinned outputs")
            run = [ops(pinned)]
            attempted, failed, _ = benchlib.count_failures(run, pinned, True)
            self.assertEqual(failed, 0)
            corrupt = copy.deepcopy(pinned)
            first = corrupt[sorted(corrupt)[0]]
            key = sorted(first)[0]
            first[key] = (first[key] + "0" if isinstance(first[key], str)
                          else first[key] + 1)
            _, failed, _ = benchlib.count_failures(run, corrupt, True)
            self.assertEqual(failed, 1)
            self.assertGreater(failed / attempted, 0)


class Records(unittest.TestCase):
    def test_merge_keeps_every_repetition_and_setup(self):
        a = {"workload": "serve", "setup_s": 2.0, "peak_rss_mb": 30.0,
             "iterations": [{"wall_s": 1.0}]}
        b = dict(a, setup_s=2.4, peak_rss_mb=31.0,
                 iterations=[{"wall_s": 1.1}, {"wall_s": 1.2}])
        c = dict(a, setup_s=2.2, peak_rss_mb=29.0)
        merged = benchlib.merge_records([a, b, c])
        self.assertEqual(merged["setup_samples"], [2.0, 2.4, 2.2])
        self.assertEqual(len(merged["iterations"]), 4)
        self.assertEqual(merged["peak_rss_mb"], 30.0)


class Spans(unittest.TestCase):
    def test_chrome_events_round_trip(self):
        events = [{"name": "body", "ph": "X", "pid": 1, "tid": 1,
                   "ts": 1e6, "dur": 5e5,
                   "args": {"id": 1, "parent": 0, "op": 0}}]
        span = benchlib.load_spans(events)[0]
        self.assertEqual((span["start"], span["end"]), (1.0, 1.5))


def fake_record(workload):
    """A driver record with one untraced and one traced repetition."""
    phases = {"emit_s": 0.5, "emit_calls": 30, "emit_cache_hits": 12,
              "lower_s": 0.1, "lower_calls": 42, "simulate_s": 20.0,
              "simulate_calls": 42}
    counters = {"phases": phases}
    if workload == "fleet":
        counters.update(sem_ops=1000, lowered_ops=3000, instrs=5e6,
                        hsu_cycles=2e6, num_sms=4,
                        stats={"sm.stall_cycles": 5.0, "sm.slot_cycles": 9.0,
                               "l1d.accesses": 100.0, "l1d.misses": 40.0})
    else:
        counters.update(
            run_s=5.0, loop_s=0.1, offered=100, completed=100, shed=0,
            degraded=3, partial=0, batches=10, cache_hits=20,
            subqueries=150, batch_size_sum=100.0, fanout_count=80,
            fanout_sum=150.0, kernel_cycles=1e6, l1_accesses=1e5,
            l1_misses=4e4, hsu_rtu_busy_cycles=1e5, hsu_sm_cycles=2e6,
            p50_us_geomean=30.0, p99_us_geomean=40.0,
            queue_wait_p99_us_geomean=20.0)
    modeled = {"hsu_speedup": 1.2}
    if workload == "fleet":
        modeled["paper_gap_pct"] = 7.5
    plain = {"traced": 0, "wall_s": 8.0, "cpu_s": 24.0,
             "modeled_cycles": 5e6, "modeled": modeled, "counters": {},
             "ops": []}
    traced = dict(plain, traced=1, wall_s=8.4, counters=counters)
    return {"workload": workload, "peak_rss_mb": 250.0,
            "setup_samples": [3.0, 2.9, 3.1],
            "iterations": [plain, traced]}


def fake_spans():
    return [
        {"id": 1, "parent": 0, "op": 0, "name": "setup", "tid": 1,
         "start": 0.0, "end": 3.0},
        {"id": 2, "parent": 1, "op": 1, "name": "structures.hnsw_build",
         "tid": 2, "start": 0.5, "end": 2.0},
        {"id": 3, "parent": 0, "op": 0, "name": "body", "tid": 1,
         "start": 12.0, "end": 20.4},
        {"id": 4, "parent": 3, "op": 1, "name": "sim.simulate", "tid": 2,
         "start": 13.0, "end": 15.0},
    ]


class MetricsContract(unittest.TestCase):
    spec = benchlib.load_spec()

    def test_definitions_carry_unit_direction_and_bound(self):
        for d in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertTrue(d["unit"])
            self.assertIn(d["better"], ("lower", "higher"))
        bounds = {d["name"]: d["bound"] for d in self.spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)

    def test_every_workload_reports_every_metric(self):
        for workload in benchlib.WORKLOADS:
            self.assertIn(workload,
                          [w["name"] for w in self.spec["workloads"]])
            rec = fake_record(workload)
            e2e = benchlib.end_to_end_metrics(rec)
            layers = benchlib.layer_metrics(rec, fake_spans())
            for d in self.spec["end_to_end"]:
                self.assertGreater(e2e[d["name"]], 0, d["name"])
            for d in self.spec["per_layer"]:
                self.assertIsInstance(layers[d["name"]], (int, float),
                                      d["name"])
            self.assertEqual(e2e["setup_s"], 3.0)
            self.assertAlmostEqual(layers["trace.overhead_frac"], 0.05)
            self.assertEqual(layers["sim.simulate_max_s"], 2.0)
        fleet = benchlib.layer_metrics(fake_record("fleet"), fake_spans())
        self.assertEqual(fleet["model.paper_gap_pct"], 7.5)
        self.assertEqual(fleet["serve.p99_us"], 0)
        serve = benchlib.layer_metrics(fake_record("serve"), fake_spans())
        self.assertEqual(serve["serve.p99_us"], 40.0)
        self.assertEqual(serve["shard.p99_us"], 0)


class Refusals(unittest.TestCase):
    def test_library_environment_is_refused_without_numbers(self):
        for var in benchlib.LIBRARY_ENV:
            env = dict(os.environ, **{var: "1"})
            done = subprocess.run(
                [sys.executable, str(HERE.parent / "run.py"), "--workload",
                 "fleet", "--seed", "1", "--seconds", "1", "--trace", "0"],
                env=env, capture_output=True, text=True, timeout=60)
            self.assertEqual(done.returncode, 3, var)
            self.assertEqual(done.stdout, "", var)
            self.assertIn(var, done.stderr)


if __name__ == "__main__":
    unittest.main()
