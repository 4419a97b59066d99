#!/usr/bin/env python3
"""The madnet benchmark: builds madnet from source, generates a workload's
configs from the seed, runs it in its own process and prints its metrics.

    python3 perfbench/run.py --workload fig07_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root. --workload all runs every workload, each in
its own process. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is 0 only when every
output check passed. See perfbench/README.md for the workloads, the
metrics and the traced run.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import analysis  # noqa: E402

BUILD_DIR = Path(".bench_build")
BINARY = BUILD_DIR / "perfbench_workload"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "exec.point_wall_s.sum": "s",
    "exec.point_wall_s.max": "s",
    "exec.ideal_wall_s": "s",
    "exec.efficiency": "ratio",
    "exec.worker_idle_s": "s",
    "scenario.setup_us_per_node": "us",
    "scenario.aggregate_s": "s",
    "sim.events": "count",
    "sim.event_loop_s": "s",
    "sim.events_per_s": "1/s",
    "sim.ns_per_event": "ns",
    "sim.pending_peak": "count",
    "sim.queue_ns_per_op": "ns",
    "net.messages": "count",
    "net.deliveries": "count",
    "net.rx_per_broadcast": "ratio",
    "net.index_rebuilds": "count",
    "net.index_refresh_s": "s",
    "net.query_ns": "ns",
    "net.fanout_ns_per_delivery": "ns",
    "net.memo_hit_ratio": "ratio",
    "net.walk_reuse_ratio": "ratio",
    "net.drops_per_delivery": "ratio",
    "net.arena_frames_peak": "count",
    "mobility.legs": "count",
    "mobility.leg_ns": "ns",
    "mobility.position_ns": "ns",
    "core.on_receive_ns": "ns",
    "core.first_receipt_ratio": "ratio",
    "core.cache_insert_ns": "ns",
    "core.propagation_ns": "ns",
    "obs.trace_overhead_s": "s",
    "obs.trace_records": "count",
    "obs.unattributed_share": "ratio",
    "obs.share.exec": "ratio",
    "obs.share.scenario": "ratio",
    "obs.share.sim": "ratio",
    "obs.share.core": "ratio",
    "obs.share.mobility": "ratio",
}

SWEEP_METHODS = ("flooding", "gossip", "optimized")
SWEEP_PEERS = (100, 300, 600, 1000)

# Seed variants per workload. Each timed pass runs every variant once and
# wall_s averages the variants, so a run measures many scenario seeds
# rather than one: one marketplace seed's dissemination can cost 40% more
# than another's, and runs with different --seed values must agree. The
# sweep's and metro's costs vary little with the seed, so they spend their
# budget on more repetitions of fewer seeds instead.
VARIANTS = {"fig07_sweep": 4, "metro_gossip": 2, "marketplace_multi_ad": 12}

# Output ranges: wide enough to survive an intentional re-baseline of the
# random streams and every seed's dissemination, narrow enough to catch a
# broken protocol. An ad may die out before it spreads (the bimodal
# behaviour of gossip): seen at 100 peers, and possible at 300, so a sweep
# replication is held only to a broadcast range (at least the issuer's one,
# at most this many per peer), and the delivery rate is checked as the mean
# over the replications of at least 600 peers.
SWEEP_MAX_BROADCASTS_PER_PEER = {"flooding": 100, "gossiping": 80,
                                 "optimized": 15}
SWEEP_DENSE_PEERS = 600
SWEEP_MIN_DENSE_RATE = 80.0
# The other workloads' issuers stay online and keep the ad alive: (min, max)
# delivery rate in percent and broadcasts per replication. Metro's gossip
# reaches between a quarter and two thirds of the passers-by, by seed.
RANGES = {
    "metro_gossip": {"rate": (5.0, 95.0), "messages": (500, 50_000)},
    "marketplace_multi_ad": {"rate": (50.0, 100.0),
                             "messages": (5_000, 60_000)},
}


def fig07_configs(seed):
    """The Fig 7 grid: Table II defaults, method x network size."""
    return {f"{method}_{peers}": f"method = {method}\npeers = {peers}\n"
                                 f"seed = {seed}\n"
            for method in SWEEP_METHODS for peers in SWEEP_PEERS}


def metro_configs(seed):
    """100k peers at Table II density (300 peers per 5 km square), pure
    gossip, 200 s: long enough that the ad reaches about half the area."""
    peers = 100_000
    side = 5000.0 * math.sqrt(peers / 300.0)
    return {"metro": (f"method = gossip\npeers = {peers}\narea = {side!r}\n"
                      f"issue_x = {side / 2!r}\nissue_y = {side / 2!r}\n"
                      "radius = 5000\nsim_time = 200\nissue_time = 5\n"
                      f"seed = {seed}\n")}


def marketplace_configs(seed):
    """scenarios/marketplace_zipf.cfg scaled to 1500 peers, 40 ads and
    1200 s, with loss and collisions on."""
    overrides = {"peers": "1500", "ads": "40", "sim_time": "1200",
                 "loss": "0.05", "collisions": "true", "seed": str(seed)}
    base = Path("scenarios/marketplace_zipf.cfg").read_text().splitlines()
    kept = [line for line in base
            if line.split("=", 1)[0].strip() not in overrides]
    kept += [f"{key} = {value}" for key, value in overrides.items()]
    return {"marketplace": "\n".join(kept) + "\n"}


WORKLOADS = {
    "fig07_sweep": fig07_configs,
    "metro_gossip": metro_configs,
    "marketplace_multi_ad": marketplace_configs,
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the runner in .bench_build."""
    configure = ["cmake", "-S", "perfbench", "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if (not (BUILD_DIR / "CMakeCache.txt").exists() and
            subprocess.run(["ninja", "--version"], capture_output=True,
                           check=False).returncode == 0):
        configure += ["-G", "Ninja"]
    if subprocess.run(configure, stdout=sys.stderr,
                      check=False).returncode != 0:
        return False
    return subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 1),
         "--target", "perfbench_workload"],
        stdout=sys.stderr, check=False).returncode == 0


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def range_failures(workload, replications):
    """Maps each replication (or group) whose outputs leave their range to
    the reasons."""
    failures = {}

    def check(label, key, value, low, high):
        if not low <= value <= high:
            failures.setdefault(label, []).append(
                f"{key} {value} outside [{low}, {high}]")

    if workload != "fig07_sweep":
        for rep in replications:
            for key, (low, high) in RANGES[workload].items():
                check(rep["label"], key, rep[key], low, high)
        return failures
    dense_rates = []
    for rep in replications:
        label = rep["label"]
        method = label.split()[0].lower()
        peers = int(label.split(" peers")[0].split()[-1])
        check(label, "messages", rep["messages"], 1,
              SWEEP_MAX_BROADCASTS_PER_PEER[method] * peers)
        if peers >= SWEEP_DENSE_PEERS:
            dense_rates.append(rep["rate"])
    check(f"replications of {SWEEP_DENSE_PEERS}+ peers", "mean rate",
          statistics.fmean(dense_rates), SWEEP_MIN_DENSE_RATE, 100.0)
    return failures


def run_workload(workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (correct, attempted,
    failed, metrics, raw runner output)."""
    work = BUILD_DIR / "runs" / f"{workload}-seed{seed}-trace{trace}"
    work.mkdir(parents=True, exist_ok=True)
    configs = []
    for variant in range(VARIANTS[workload]):
        # Replications use scenario seeds s, s+1, s+2, so variants are 10
        # apart.
        group = WORKLOADS[workload](seed * 1000 + 10 * variant)
        for name, text in group.items():
            path = work / f"{name}-v{variant}.cfg"
            path.write_text(text)
            configs.append(str(path))
    spans_path = work / "spans.bin"
    command = [str(BINARY), "--workload", workload, "--seconds", str(seconds),
               "--trace", str(trace), "--spans", str(spans_path)]
    try:
        proc = subprocess.run(command + configs, capture_output=True,
                              text=True, timeout=runner_timeout(seconds),
                              check=False)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} runner exceeded "
            f"{runner_timeout(seconds)} s and was stopped")
        return False, 1, 1, {}, None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: {workload} runner exited with {proc.returncode}")
        return False, 1, 1, {}, None
    raw = json.loads(lines[-1])
    out_of_range = range_failures(workload, raw["replications"])
    failures = raw["failures"] + [f"{label}: {', '.join(reasons)}"
                                  for label, reasons in out_of_range.items()]
    for failure in failures:
        log(f"perfbench: {workload}: {failure}")
    failed = raw["failed"] + len(out_of_range)
    attempted = raw["attempted"]
    if trace:
        names = raw["span_names"]
        values = analysis.layer_metrics(
            raw, analysis.read_spans(spans_path, names))
        units = PER_LAYER
    else:
        values = {
            "wall_s": seed_averaged_wall(raw["wall_s"], raw["wall_variant"]),
            "setup_s": statistics.median(raw["setup_s"]),
            "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    (work / "result.json").write_text(json.dumps(
        {"raw": raw, "metrics": metrics, "failures": failures}, indent=1))
    return not failures, attempted, failed, metrics, raw


def runner_timeout(seconds):
    """Seconds a runner may take: its budget, the reference and warm-up
    runs, the last pass's overrun and, traced, the replays."""
    return 3 * seconds + 60


def seed_averaged_wall(walls, variants):
    """Mean over seed variants of each variant's median wall time."""
    by_variant = {}
    for wall, variant in zip(walls, variants):
        by_variant.setdefault(variant, []).append(wall)
    return statistics.fmean(statistics.median(v) for v in by_variant.values())


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not build():
        log("perfbench: build failed")
        return 1

    workloads = sorted(WORKLOADS) if args.workload == "all" else [
        args.workload]
    print(f"# host nproc={os.cpu_count()} git={git_describe()} "
          f"seed={args.seed} seconds={args.seconds} trace={args.trace}")
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        ok, tried, bad, values, raw = run_workload(
            workload, args.seed, args.seconds, args.trace)
        correct, attempted, failed = correct and ok, attempted + tried, \
            failed + bad
        if raw is not None:
            shown = "  ".join(f"{k} {v['value']:.6g} {v['unit']}"
                              for k, v in values.items()
                              if k in END_TO_END)
            print(f"# {workload} [{raw['build_type']}] {shown}  "
                  f"runs_failed {bad}/{tried}")
        if len(workloads) == 1:
            metrics = values
        else:
            metrics.update({f"{workload}.{k}": v for k, v in values.items()})
    if not metrics:
        return 1
    print(result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
