#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its metrics.

    python3 perfbench/run.py --workload fleet|serve|shard --seed N \\
        --seconds S --trace 0|1

Builds perfbench_driver from the checkout's sources (Release, under
.bench_build/perfbench), refuses to measure a program other than the one
users run, runs the workload, checks every modeled output, and prints a
table followed by one JSON line: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are BENCHMARK.json's end_to_end
ones; with --trace 1 its per_layer ones, from a run whose repetitions
alternate untraced and traced (spans go to a Chrome trace-event file).

Each run's full record (host facts, commit, every repetition) is saved
under .bench_build/perfbench/results/ (or --results-dir) for compare.py.
--pin rewrites perfbench/pinned/<workload>.json from a run at the
default seed, for a change that alters modeled outputs on purpose.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import benchlib

ROOT = benchlib.HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"

# Driver processes per untraced run. Each sets up cold and then repeats
# the body for its share of --seconds, so setup_s is a median of three
# and the repetitions are spread over the run rather than bunched at its
# end, where one slow stretch of a shared host would set them all.
PROCESSES = 3
# A run must end within this many seconds (the build excepted).
RUN_DEADLINE_S = 170
BUILD_TIMEOUT_S = 850

KIND = {"setup_s": "host", "wall_s": "host", "cpu_s": "host",
        "sim_mcycles_per_s": "host", "peak_rss_mb": "host",
        "hsu_speedup": "modeled"}


class Refused(Exception):
    """The run must not produce numbers (exit 3)."""


class Failed(Exception):
    """The benchmark could not run (exit 1)."""


def log(*parts):
    print("[perfbench]", *parts, file=sys.stderr, flush=True)


def refuse_env():
    found = [v for v in benchlib.LIBRARY_ENV if v in os.environ]
    if found:
        raise Refused("the environment sets " + ", ".join(found)
                      + ", which the simulator reads; unset it")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise Failed(f"program sources not found under {ROOT / 'src'}")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise Failed("cmake not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append([cmake, "-S", str(benchlib.HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append([cmake, "--build", str(BUILD), "--target",
                  "perfbench_driver", "-j", str(min(4, os.cpu_count() or 1))])
    with open(BUILD / "build.log", "w") as out:
        for cmd in steps:
            done = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                raise Failed(f"build failed; see {BUILD / 'build.log'}")


def commit():
    """The git commit when the checkout is a repository, else a digest
    of the program's and the benchmark's sources."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "sources:" + h.hexdigest()[:16]


def driver(args, deadline):
    """Run perfbench_driver; its stderr passes through."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise Failed("out of time")
    try:
        done = subprocess.run([str(DRIVER)] + args, stdout=subprocess.PIPE,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise Failed("driver ran out of time") from None
    if done.returncode == 3:
        raise Refused("perfbench_driver refused to measure this build")
    if done.returncode != 0:
        raise Failed(f"driver exited with {done.returncode}")
    return done.stdout


def run_workload(opts, deadline):
    info = json.loads(driver(["--build-info"], deadline))
    if info["refusals"]:
        raise Refused("; ".join(info["refusals"]))
    out_dir = BUILD / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{opts.workload}-seed{opts.seed}-trace{opts.trace}"
    trace_path = out_dir / f"{tag}.trace.json" if opts.trace else None
    # A traced run is one process: its repetitions alternate untraced
    # and traced, and the set-up is traced too.
    processes = 1 if opts.trace else PROCESSES
    records = []
    for i in range(processes):
        path = out_dir / f"{tag}-{i}.json"
        args = ["--workload", opts.workload, "--seed", str(opts.seed),
                "--seconds", str(opts.seconds / processes),
                "--out", str(path)]
        if trace_path:
            args += ["--trace-file", str(trace_path)]
        driver(args, deadline)
        records.append(json.loads(path.read_text()))
    return benchlib.merge_records(records), trace_path


def metrics_of(opts, spec, record, trace_path):
    if opts.trace:
        with open(trace_path) as f:
            spans = benchlib.load_spans(json.load(f)["traceEvents"])
        values = benchlib.layer_metrics(record, spans)
        defs = spec["per_layer"]
    else:
        values = benchlib.end_to_end_metrics(record)
        defs = spec["end_to_end"]
    missing = [d["name"] for d in defs if d["name"] not in values]
    if missing:
        raise Failed("metrics not computed: " + ", ".join(missing))
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"],
                        "better": d["better"]} for d in defs}


def print_table(opts, record, metrics, attempted, failed):
    host = record["host"]
    print(f"perfbench {opts.workload}: seed {opts.seed}, {opts.seconds} s, "
          f"trace {opts.trace}; {host['compiler']}, {host['build_type']}, "
          f"{host['nproc']} cores, {host['workers']} workers, "
          f"{len(record['iterations'])} repetitions")
    print(f"  {'metric':28} {'value':>16}  {'unit':10} {'better':7} kind")
    for name, m in metrics.items():
        kind = KIND.get(name, "layer")
        print(f"  {name:28} {m['value']:>16.6g}  {m['unit']:10} "
              f"{m['better']:7} {kind}")
    modeled = record["iterations"][0]["modeled"]
    print(f"  {'failed_frac':28} {failed / attempted:>16.6g}  "
          f"{'ratio':10} {'lower':7} ({failed} of {attempted} operations)")
    if "paper_gap_pct" in modeled:
        print(f"  {'paper_gap_pct':28} {modeled['paper_gap_pct']:>16.6g}  "
              f"{'pp':10} {'lower':7} modeled, vs Fig 9 of the paper")


def pin(opts, record):
    if opts.seed != benchlib.DEFAULT_SEED or opts.trace:
        raise Failed(f"--pin needs --seed {benchlib.DEFAULT_SEED} --trace 0")
    ops = {op["op"]: op["output"] for op in record["iterations"][0]["ops"]}
    path = benchlib.PINNED_DIR / f"{opts.workload}.json"
    path.write_text(json.dumps({"seed": opts.seed, "ops": ops}, indent=1,
                               sort_keys=True) + "\n")
    log(f"pinned {len(ops)} operations to {path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=benchlib.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--results-dir", type=Path,
                    default=BUILD / "results",
                    help="where the run's full record is saved")
    ap.add_argument("--pin", action="store_true",
                    help="rewrite the pinned outputs from this run")
    opts = ap.parse_args()

    try:
        refuse_env()
        spec = benchlib.load_spec()
        build()
        deadline = time.monotonic() + RUN_DEADLINE_S
        record, trace_path = run_workload(opts, deadline)
        if opts.pin:
            pin(opts, record)
        pinned = benchlib.load_pinned(opts.workload)
        attempted, failed, reasons = benchlib.count_failures(
            record["iterations"], pinned,
            check_pins=opts.seed == benchlib.DEFAULT_SEED)
        for why in reasons[:20]:
            log("FAILED", why)
        metrics = metrics_of(opts, spec, record, trace_path)
    except Refused as e:
        log("refusing to measure:", e)
        return 3
    except (Failed, OSError, subprocess.SubprocessError, KeyError,
            ValueError) as e:
        log("error:", e)
        return 1

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                          for k, m in metrics.items()}}
    saved = dict(result, workload=opts.workload, seed=opts.seed,
                 seconds=opts.seconds, trace=opts.trace,
                 host=dict(record["host"], commit=commit()),
                 directions={k: m["better"] for k, m in metrics.items()},
                 setup_samples=record["setup_samples"],
                 failures=reasons[:100],
                 modeled=record["iterations"][0]["modeled"],
                 repetitions=[{"traced": it["traced"],
                               "wall_s": it["wall_s"],
                               "cpu_s": it["cpu_s"]}
                              for it in record["iterations"]],
                 trace_file=str(trace_path) if trace_path else None)
    opts.results_dir.mkdir(parents=True, exist_ok=True)
    out = (opts.results_dir /
           f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json")
    out.write_text(json.dumps(saved, indent=1) + "\n")
    log(f"record saved to {out}")
    if trace_path:
        log(f"spans saved to {trace_path} (open in Perfetto)")

    print_table(opts, record, metrics, attempted, failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
