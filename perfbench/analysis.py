"""Span arithmetic and per-layer metrics of the madnet benchmark.

perfbench_workload writes its spans as packed 40-byte records (see
perfbench/spans.h); this module reads them, computes each span's self time
(its duration minus the part of its interval its children cover) and turns
the traced run's spans, folded totals and counts into the per-layer
metrics.

A span record is (id, parent, run, name, thread, start_ns, end_ns,
child_ns): child_ns is the time its children on the same thread covered,
which the recorder sums exactly, folded OnReceive / NextLeg calls included.
Children on other threads overlap each other, so their intervals are
unioned here.
"""

import statistics
import struct

SPAN_RECORD = struct.Struct("<IIIHHqqq")

# Layers whose self time is booked in obs.share.<layer>; "bench" spans are
# the benchmark's own pass spans, whose self time no layer accounts for.
SHARE_LAYERS = ("exec", "scenario", "sim", "core", "mobility")


def read_spans(path, names):
    """Returns the span records of `path` with names resolved."""
    with open(path, "rb") as handle:
        data = handle.read()
    return [(sid, parent, run, names[name], thread, start, end, child)
            for sid, parent, run, name, thread, start, end, child
            in SPAN_RECORD.iter_unpack(data)]


def union_length(intervals, lo, hi):
    """Length of the union of `intervals`, each clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Maps span id -> self time: duration minus its same-thread child time
    minus the union of its other-thread children's intervals."""
    by_id = {span[0]: span for span in spans}
    remote = {}
    for _sid, parent, _run, _name, thread, start, end, _child in spans:
        if parent in by_id and by_id[parent][4] != thread:
            remote.setdefault(parent, []).append((start, end))
    return {sid: (end - start) - child -
            union_length(remote.get(sid, ()), start, end)
            for sid, _p, _r, _n, _t, start, end, child in spans}


def subtrees(spans, root_name):
    """Groups spans under each root span named `root_name`, in start order."""
    by_parent = {}
    for span in spans:
        by_parent.setdefault(span[1], []).append(span)
    trees = []
    roots = [s for s in spans if s[1] == 0 and s[3] == root_name]
    for root in sorted(roots, key=lambda s: s[5]):
        tree, stack = [], [root]
        while stack:
            span = stack.pop()
            tree.append(span)
            stack.extend(by_parent.get(span[0], ()))
        trees.append(tree)
    return trees


def ideal_wall(point_walls, jobs):
    """Shortest possible wall time of a sweep: the points' total work spread
    evenly over `jobs` workers, but never below the longest point."""
    return max(sum(point_walls) / jobs, max(point_walls))


def exec_metrics(point_walls, achieved_s, jobs):
    """exec.* metrics of one sweep pass from its per-point durations."""
    ideal = ideal_wall(point_walls, jobs)
    return {
        "exec.point_wall_s.sum": sum(point_walls),
        "exec.point_wall_s.max": max(point_walls),
        "exec.ideal_wall_s": ideal,
        "exec.efficiency": ideal / achieved_s,
        "exec.worker_idle_s": jobs * achieved_s - sum(point_walls),
    }


def duration_s(span):
    return (span[6] - span[5]) / 1e9


def pass_profile(tree, folded):
    """Per-name totals and per-layer self-time shares of one traced pass.

    `folded` maps a folded span name to [calls, total_ns, self_ns]. Shares
    divide by the pass's summed self time, which is its wall time when it
    ran serially, and its busy worker time plus the root's own time when
    its points ran in parallel."""
    selfs = self_times(tree)
    per_layer, seconds, counts = {}, {}, {}

    def book(name, calls, total_ns, self_ns):
        layer = name.split(".", 1)[0]
        per_layer[layer] = per_layer.get(layer, 0) + self_ns
        seconds[name] = seconds.get(name, 0) + total_ns / 1e9
        counts[name] = counts.get(name, 0) + calls

    for span in tree:
        book(span[3], 1, span[6] - span[5], selfs[span[0]])
    for name, (calls, total_ns, self_ns) in folded.items():
        book(name, calls, total_ns, self_ns)
    total_self = sum(per_layer.values())
    return {"seconds": seconds, "counts": counts,
            "shares": {k: v / total_self for k, v in per_layer.items()},
            "records": len(tree)}


def median_of(dicts):
    """Key-wise median of a list of equal-keyed metric dicts."""
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(raw, spans):
    """Every per-layer metric of a traced run, from the runner's JSON output
    `raw` and its spans."""
    jobs = raw["jobs"]
    exec_passes = []
    for tree in subtrees(spans, "exec.sweep"):
        root = min(tree, key=lambda s: s[5])
        points = [duration_s(s) for s in tree if s[3] == "exec.point"]
        exec_passes.append(exec_metrics(points, duration_s(root), jobs))
    profiles = [pass_profile(tree, folded) for tree, folded
                in zip(subtrees(spans, "bench.pass"), raw["folded"])]
    first = profiles[0]
    seconds = median_of([p["seconds"] for p in profiles])
    counts = first["counts"]
    replay_s = {s[3]: duration_s(s) for s in spans
                if s[3].startswith("replay.")}
    ops = raw["replay_ops"]

    def per_op_ns(name):
        return replay_s[name] / ops[name] * 1e9

    traced = raw["traced"]
    events = traced["events"]
    loop_s = seconds.get("sim.run_until", 0.0)
    rebuild_s = replay_s["replay.index_rebuild"] / ops["replay.index_rebuild"]
    # A traced pass builds its scenarios; the untraced single-run pass
    # times Run() alone, so add its set-up back for the comparison.
    untraced_pass_s = statistics.median(raw["untraced_wall_s"])
    if raw["kind"] == "single":
        untraced_pass_s += statistics.median(raw["setup_s"])
    metrics = dict(median_of(exec_passes))
    metrics.update({
        "scenario.setup_us_per_node":
            statistics.median(raw["setup_s"]) / raw["setup_nodes"] * 1e6,
        "scenario.aggregate_s": seconds.get("scenario.aggregate", 0.0),
        "sim.events": events,
        "sim.event_loop_s": loop_s,
        "sim.events_per_s": ratio(events, loop_s),
        "sim.ns_per_event": ratio(loop_s * 1e9, events),
        "sim.pending_peak": traced["pending_peak"],
        "sim.queue_ns_per_op": per_op_ns("replay.queue"),
        "net.messages": traced["messages"],
        "net.deliveries": traced["deliveries"],
        "net.rx_per_broadcast": ratio(traced["deliveries"],
                                      traced["messages"]),
        "net.index_rebuilds": traced["index_rebuilds"],
        "net.index_refresh_s": traced["index_rebuilds"] * rebuild_s,
        "net.query_ns": per_op_ns("replay.index_query"),
        "net.fanout_ns_per_delivery": per_op_ns("replay.fanout"),
        "net.memo_hit_ratio": ratio(traced["batch_memo_hits"],
                                    traced["batch_queries"]),
        "net.walk_reuse_ratio": ratio(traced["batch_walk_reuse"],
                                      traced["batch_queries"]),
        "net.drops_per_delivery": ratio(traced["dropped"],
                                        traced["deliveries"]),
        "net.arena_frames_peak": traced["arena_frames_peak"],
        "mobility.legs": counts.get("mobility.next_leg", 0),
        "mobility.leg_ns": ratio(seconds.get("mobility.next_leg", 0.0) * 1e9,
                                 counts.get("mobility.next_leg", 0)),
        "mobility.position_ns": per_op_ns("replay.position"),
        "core.on_receive_ns": ratio(
            seconds.get("core.on_receive", 0.0) * 1e9,
            counts.get("core.on_receive", 0)),
        "core.first_receipt_ratio": ratio(traced["first_receipts"],
                                          traced["deliveries"]),
        "core.cache_insert_ns": per_op_ns("replay.cache_insert"),
        "core.propagation_ns": per_op_ns("replay.propagation"),
        "obs.trace_overhead_s": (statistics.median(raw["traced_wall_s"]) -
                                 untraced_pass_s),
        "obs.trace_records": first["records"] + sum(
            calls for calls, _, _ in raw["folded"][0].values()),
        "obs.unattributed_share": statistics.median(
            p["shares"].get("bench", 0.0) for p in profiles),
    })
    for layer in SHARE_LAYERS:
        metrics["obs.share." + layer] = statistics.median(
            p["shares"].get(layer, 0.0) for p in profiles)
    return metrics
