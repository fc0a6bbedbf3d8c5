"""The repo benchmark's logic, apart from running anything: median and
quartile math, verdicts, failed-operation counting, and the end-to-end
and per-layer metrics of a run's records.

run.py and compare.py use it; tests/test_benchlib.py tests it.
"""

import json
import math
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"
PINNED_DIR = HERE / "pinned"

WORKLOADS = ("fleet", "serve", "shard")

# Outputs are pinned at this seed; at other seeds only the checks that
# hold for any input apply (conservation, sharded == unsharded).
DEFAULT_SEED = 1

# The simulator libraries read these; each changes what runs.
LIBRARY_ENV = ("HSU_INDEX_CACHE", "HSU_NO_SKIP", "HSU_SIM_JOBS", "HSU_JOBS",
               "HSU_QUICK")


def load_spec(path=BENCHMARK_JSON):
    with open(path) as f:
        return json.load(f)


# --- statistics -------------------------------------------------------

def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them;
    a single value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rel_spread(values):
    """Distance between the first and third quartile over the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(q2)


def _better(a, b, better):
    """True when value a reads strictly better than b."""
    return a < b if better == "lower" else a > b


def verdict(parent, child, better, bound):
    """Compare runs of one metric on two commits.

    - better: every child run beats every parent run, or the child median
      beats the parent median by more than the parent's quartile distance;
    - unresolved: otherwise, when either side's spread exceeds the bound;
    - worse: the child median is worse by more than bound x parent median;
    - within bound: everything else.
    """
    pm, cm = median(parent), median(child)
    if all(_better(c, p, better) for c in child for p in parent):
        return "better"
    if max(rel_spread(parent), rel_spread(child)) > bound:
        return "unresolved"
    q1, _, q3 = quartiles(parent)
    if _better(cm, pm, better) and abs(cm - pm) > q3 - q1:
        return "better"
    worse_by = (cm - pm) if better == "lower" else (pm - cm)
    if worse_by > bound * abs(pm):
        return "worse"
    return "within bound"


def pair_wins(parent, child, better):
    """Pairs (parent[i], child[i]) the child wins; ties count for
    neither side."""
    return sum(1 for p, c in zip(parent, child) if _better(c, p, better))


def claim_holds(parent, child, better):
    """A gain claim: the child wins at least nine tenths of the pairs
    and the medians differ by more than the parent's quartile distance
    in the child's favour."""
    pairs = min(len(parent), len(child))
    if pairs == 0:
        return False
    q1, _, q3 = quartiles(parent)
    pm, cm = median(parent), median(child)
    return (pair_wins(parent, child, better) >= 0.9 * pairs
            and _better(cm, pm, better) and abs(cm - pm) > q3 - q1)


# --- failed operations ------------------------------------------------

def count_failures(iterations, pinned, check_pins):
    """Count attempted and failed operations over every repetition.

    An operation fails when perfbench_driver flagged it (lost requests, a
    sharded answer that differs from the oracle) or, when check_pins,
    when its output differs from the pinned one or no pin exists. A
    pinned operation missing from a repetition counts as attempted and
    failed. Returns (attempted, failed, reasons)."""
    attempted = failed = 0
    reasons = []
    for index, it in enumerate(iterations):
        seen = set()
        for op in it["ops"]:
            attempted += 1
            seen.add(op["op"])
            why = list(op.get("failed", []))
            if check_pins:
                want = pinned.get(op["op"])
                if want is None:
                    why.append("no pinned output")
                elif want != op["output"]:
                    keys = sorted(k for k in set(want) | set(op["output"])
                                  if want.get(k) != op["output"].get(k))
                    why.append("differs from pinned output in "
                               + ", ".join(keys))
            if why:
                failed += 1
                reasons.append(f"repetition {index}: {op['op']}: "
                               + "; ".join(why))
        if check_pins:
            for name in sorted(set(pinned) - seen):
                attempted += 1
                failed += 1
                reasons.append(f"repetition {index}: {name}: missing")
    return attempted, failed, reasons


def load_pinned(workload, directory=PINNED_DIR):
    path = Path(directory) / f"{workload}.json"
    if not path.exists():
        return {}
    with open(path) as f:
        return json.load(f)["ops"]


# --- end-to-end metrics -----------------------------------------------

def merge_records(records):
    """One record from the perfbench_driver processes of a run: every repetition,
    every set-up time, and the median peak memory."""
    merged = dict(records[0])
    merged["iterations"] = [it for r in records for it in r["iterations"]]
    merged["setup_samples"] = [r["setup_s"] for r in records]
    merged["peak_rss_mb"] = median(r["peak_rss_mb"] for r in records)
    return merged


def end_to_end_metrics(record):
    """Metrics users see, from an untraced record: medians over the
    body's repetitions and over the set-up samples."""
    its = [it for it in record["iterations"] if not it["traced"]]
    return {
        "setup_s": median(record["setup_samples"]),
        "wall_s": median(it["wall_s"] for it in its),
        "cpu_s": median(it["cpu_s"] for it in its),
        "sim_mcycles_per_s": median(it["modeled_cycles"] / it["wall_s"] / 1e6
                                    for it in its),
        "peak_rss_mb": record["peak_rss_mb"],
        "hsu_speedup": its[0]["modeled"]["hsu_speedup"],
    }


# --- spans and per-layer metrics --------------------------------------

def load_spans(trace_events):
    """Chrome trace events -> span dicts with times in seconds."""
    spans = []
    for e in trace_events:
        a = e["args"]
        spans.append({"id": a["id"], "parent": a["parent"], "op": a["op"],
                      "name": e["name"], "tid": e["tid"],
                      "start": e["ts"] / 1e6,
                      "end": (e["ts"] + e["dur"]) / 1e6})
    return spans


def _total(spans, name):
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(record, spans):
    """Per-layer metrics of a traced record. A metric whose layer the
    workload does not exercise, or cannot observe, reads 0; README.md
    lists where each is measured."""
    traced = [it for it in record["iterations"] if it["traced"]]
    plain = [it for it in record["iterations"] if not it["traced"]]
    it = traced[0]
    c = it["counters"]
    ph = c["phases"]
    stats = c.get("stats", {})
    body = next(s for s in spans if s["name"] == "body")
    sims = [s["end"] - s["start"] for s in spans
            if s["name"] == "sim.simulate" and s["start"] >= body["start"]]
    cycles = it["modeled_cycles"]
    plain_wall = median(t["wall_s"] for t in plain)
    rejects = (stats.get("rtu.reject_arbiter", 0)
               + stats.get("rtu.reject_no_entry", 0))
    m = {
        "workloads.gen_s": _total(spans, "workloads.gen"),
        "structures.hnsw_build_s": _total(spans, "structures.hnsw_build"),
        "structures.kdtree_build_s": _total(spans, "structures.kdtree_build"),
        "structures.lbvh_build_s": _total(spans, "structures.lbvh_build"),
        "structures.btree_build_s": _total(spans, "structures.btree_build"),
        "search.emit_s": ph["emit_s"],
        "search.emit_calls": ph["emit_calls"],
        "search.emit_reuse": _ratio(ph["emit_cache_hits"],
                                    ph["emit_cache_hits"] + ph["emit_calls"]),
        "search.sem_ops": c.get("sem_ops", 0),
        "common.pool_wait_s": _total(spans, "common.pool_wait"),
        "sim.lower_s": ph["lower_s"],
        "sim.lowered_ops": c.get("lowered_ops", 0),
        "sim.simulate_s": ph["simulate_s"],
        "sim.simulations": ph["simulate_calls"],
        "sim.simulate_p50_s": median(sims) if sims else 0.0,
        "sim.simulate_max_s": max(sims) if sims else 0.0,
        "sim.host_ns_per_cycle": _ratio(ph["simulate_s"] * 1e9, cycles),
        "sim.host_ns_per_instr": _ratio(ph["simulate_s"] * 1e9,
                                        c.get("instrs", 0)),
        "sim.ff_frac": _ratio(stats.get("sim.ff_cycles", 0), cycles),
        "sim.sm_stall_frac": _ratio(stats.get("sm.stall_cycles", 0),
                                    stats.get("sm.slot_cycles", 0)),
        "sim.lsu_retries": stats.get("lsu.retries", 0),
        "mem.l1_accesses": stats.get("l1d.accesses", 0),
        "mem.l1_miss_rate": _ratio(stats.get("l1d.misses", 0),
                                   stats.get("l1d.accesses", 0)),
        "mem.l1_rejects": stats.get("l1d.rejects", 0),
        "mem.l2_lines": stats.get("l2.lines_accessed", 0),
        "mem.dram_row_locality": _ratio(stats.get("dram.accesses", 0),
                                        stats.get("dram.activations", 0)),
        "rtunit.completed": stats.get("rtu.completed", 0),
        "rtunit.busy_frac": _ratio(stats.get("rtu.busy_cycles", 0),
                                   c.get("hsu_cycles", 0)
                                   * c.get("num_sms", 0)),
        "rtunit.reject_frac": _ratio(rejects,
                                     stats.get("rtu.dispatched", 0) + rejects),
        "model.paper_gap_pct": it["modeled"].get("paper_gap_pct", 0.0),
        "trace.overhead_frac": _ratio(
            median(t["wall_s"] for t in traced) - plain_wall, plain_wall),
    }
    for layer in ("serve", "shard"):
        mine = record["workload"] == layer
        m.update(_serving_metrics(layer, c if mine else None, spans))
    return m


SERVING_KEYS = {
    "serve": ("run_s", "loop_s", "batches", "mean_batch", "shed_frac",
              "degraded_frac", "p50_us", "p99_us", "queue_wait_p99_us",
              "l1_hit_rate", "warp_residency"),
    "shard": ("run_s", "loop_s", "partition_s", "subindex_build_s",
              "answer_s", "subqueries", "mean_fanout", "cache_hit_rate",
              "partial_frac", "p99_us"),
}


def _serving_metrics(layer, c, spans):
    keys = SERVING_KEYS[layer]
    if c is None:
        return {f"{layer}.{k}": 0 for k in keys}
    values = {
        "run_s": c["run_s"],
        "loop_s": c["loop_s"],
        "batches": c["batches"],
        "mean_batch": _ratio(c["batch_size_sum"], c["batches"]),
        "shed_frac": _ratio(c["shed"], c["offered"]),
        "degraded_frac": _ratio(c["degraded"], c["completed"]),
        "p50_us": c["p50_us_geomean"],
        "p99_us": c["p99_us_geomean"],
        "queue_wait_p99_us": c["queue_wait_p99_us_geomean"],
        "l1_hit_rate": 1 - _ratio(c["l1_misses"], c["l1_accesses"]),
        "warp_residency": _ratio(c["hsu_rtu_busy_cycles"], c["hsu_sm_cycles"]),
        "partition_s": _total(spans, "shard.partition"),
        "subindex_build_s": _total(spans, "shard.subindex_build"),
        "answer_s": _total(spans, "shard.answer"),
        "subqueries": c["subqueries"],
        "mean_fanout": _ratio(c["fanout_sum"], c["fanout_count"]),
        "cache_hit_rate": _ratio(c["cache_hits"], c["offered"]),
        "partial_frac": _ratio(c["partial"], c["offered"]),
    }
    return {f"{layer}.{k}": values[k] for k in keys}
