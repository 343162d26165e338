"""Spans around the calls into each fedkmeans layer, and the per-layer metrics.

Tracing wraps the public functions a layer exposes, from outside the package:
nothing under ``src/`` knows about it.  ``fedkmeans.coordinator`` binds
``solve_subproblem``, ``relabel_to_reference``, ``sg_update``,
``btm_direction`` and ``qnda_update`` by name, so those are replaced in the
coordinator module; ``lloyd_incumbent``, ``solve_trust_region_qp`` and the
BTM direction that QNDA falls back to are looked up in their own modules.
Node solves and objectives are timed by a proxy around the backend that
``fedkmeans.coordinator.run`` drives.

Spans are plain dicts (name, start, end, parent, run_id, attributes), kept in
memory and written out by the caller when the run ends.  Times come from
``time.perf_counter``, which on Linux is the system-wide monotonic clock, so
spans from node processes line up with the coordinator's.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

# Which end-to-end metric each layer's metrics are expected to move, and on
# which workload (the metric prefix names the layer).
MOVES = {
    "subsolver": "wall_s, modeled_t_comp_s (and process.peak_rss_mb): most on k4-sg, "
                 "partly on k3-bundle, on remote-qnda through the slowest node",
    "master": "wall_s, modeled_t_comp_s on k3-bundle and remote-qnda; no change on k4-sg",
    "coordinator": "modeled_t_comp_s, wall_s on all three workloads",
    "net": "wall_s, setup_s on remote-qnda only",
    "bench": "setup_s",
    "cli": "setup_s",
    "process": "nothing end to end: peak memory depends on the seed through the Lloyd "
               "incumbent (see README); moved by the B&B heap on k4-sg and node processes "
               "on remote-qnda",
    "trace": "nothing: the cost of tracing itself",
}

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("subsolver.solves", "count"), ("subsolver.explored", "count"),
    ("subsolver.busy_s", "s"), ("subsolver.us_per_node", "us"),
    ("subsolver.solve_p50_ms", "ms"), ("subsolver.solve_p90_ms", "ms"),
    ("subsolver.lloyd_s", "s"), ("subsolver.incumbent_hit_ratio", "ratio"),
    ("subsolver.relabel_s", "s"),
    ("master.qp_calls", "count"), ("master.qp_s", "s"),
    ("master.qp_p50_ms", "ms"), ("master.qp_p90_ms", "ms"),
    ("master.cuts_mean", "count"), ("master.kkt_residual_max", "1"),
    ("master.update_s", "s"), ("master.qnda_fallbacks", "count"),
    ("coordinator.iterations", "count"), ("coordinator.iter_samples", "count"),
    ("coordinator.iter_p50_ms", "ms"), ("coordinator.iter_p90_ms", "ms"),
    ("coordinator.objective_s", "s"), ("coordinator.self_s", "s"),
    ("coordinator.t_sub_max_s", "s"), ("coordinator.straggler_ratio", "ratio"),
    ("net.frames", "count"), ("net.bytes", "bytes"), ("net.bytes_per_iter", "bytes"),
    ("net.solve_rtt_samples", "count"), ("net.solve_rtt_overhead_ms", "ms"),
    ("net.objective_rtt_samples", "count"), ("net.objective_rtt_ms", "ms"),
    ("net.parallelism", "ratio"), ("net.handshake_s", "s"),
    ("bench.generate_s", "s"), ("cli.node_ready_s", "s"),
    ("process.peak_rss_mb", "MB"),
    ("trace.spans", "count"), ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
]

# Counts that must repeat exactly between runs of the same case.  Wire bytes
# are not among them: SOLUTION frames carry the node's measured solve_time as
# a JSON float, and the length of its repr varies from run to run.
EXACT_COUNTS = ("explored", "solves", "iterations", "frames")


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run_id = None
        self._stack: list[int] = []
        self._last_lloyd = None

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "run_id": self.run_id, **attrs}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


@contextmanager
def patched(tracer: Tracer):
    """Replace the layer entry points with span-recording wrappers, then restore them."""
    import fedkmeans.coordinator as coordinator
    import fedkmeans.master as master
    import fedkmeans.subsolver as subsolver

    def solve(original):
        def wrapper(subproblem, **kwargs):
            tracer._last_lloyd = None
            with tracer.span("subsolver.solve") as record:
                solution = original(subproblem, **kwargs)
            record.update(explored=int(solution.stats["explored"]),
                          proof_gap=float(solution.proof_gap),
                          rel_tol=float(kwargs.get("rel_tol", 1e-9)),
                          incumbent_hit=tracer._last_lloyd == solution.assignment)
            return solution
        return wrapper

    def lloyd(original):
        def wrapper(*args, **kwargs):
            with tracer.span("subsolver.lloyd"):
                incumbent = original(*args, **kwargs)
            tracer._last_lloyd = incumbent.assignment
            return incumbent
        return wrapper

    def timed(name, original, **attrs):
        def wrapper(*args, **kwargs):
            with tracer.span(name, **attrs):
                return original(*args, **kwargs)
        return wrapper

    def qp(original):
        def wrapper(problem, *args, **kwargs):
            with tracer.span("master.qp", cuts=int(problem.cut_normals.shape[0]),
                             kkt_residual=None) as record:
                solution = original(problem, *args, **kwargs)
            record["kkt_residual"] = float(solution.kkt_residual)
            return solution
        return wrapper

    replacements = [
        (coordinator, "solve_subproblem", solve),
        (coordinator, "relabel_to_reference", lambda f: timed("subsolver.relabel", f)),
        (coordinator, "sg_update", lambda f: timed("master.update", f, algorithm="sg")),
        (coordinator, "btm_direction", lambda f: timed("master.update", f, algorithm="btm")),
        (coordinator, "qnda_update", lambda f: timed("master.update", f, algorithm="qnda")),
        (subsolver, "lloyd_incumbent", lloyd),
        (master, "solve_trust_region_qp", qp),
        # Inside fedkmeans.master only qnda_update calls btm_direction: its
        # fallback when the quasi-Newton master problem fails.
        (master, "btm_direction", lambda f: timed("master.qnda_fallback", f)),
    ]
    originals = []
    try:
        for module, name, make in replacements:
            original = getattr(module, name)
            originals.append((module, name, original))
            setattr(module, name, make(original))
        yield
    finally:
        for module, name, original in reversed(originals):
            setattr(module, name, original)


class TracedBackend:
    """Proxy around a node backend that records a span per solve and objective batch."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def solve_batch(self, t, c_list, reference, node_indices):
        with self.tracer.span("coordinator.solve_batch", t=t) as record:
            replies = self.inner.solve_batch(t, c_list, reference, node_indices)
        record["solve_times"] = [float(r.solve_time) for r in replies]
        return replies

    def objective_batch(self, t, mean_centroids):
        with self.tracer.span("coordinator.objective_batch", t=t):
            return self.inner.objective_batch(t, mean_centroids)

    def close(self):
        self.inner.close()


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _pct(values, q: int) -> float:
    """q-th percentile (nearest rank on the sorted samples); 0.0 without samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, -(-q * len(ordered) // 100) - 1))
    return float(ordered[rank])


def op_counters(run_span: dict, spans: list[dict], node_spans: list[dict],
                records, frame_sizes: list[int]) -> dict:
    """Raw per-layer sums, counts and samples of one traced run.

    ``spans`` are the coordinator-side spans of the run; ``node_spans`` the
    node-side spans recorded in node processes during the run (empty when the
    nodes are in process, whose solves then appear in ``spans``).
    """
    by_name: dict[str, list[dict]] = {}
    for s in list(spans) + list(node_spans):
        by_name.setdefault(s["name"], []).append(s)
    solves = by_name.get("subsolver.solve", [])
    lloyds = by_name.get("subsolver.lloyd", [])
    qps = by_name.get("master.qp", [])
    updates = by_name.get("master.update", [])
    batches = by_name.get("coordinator.solve_batch", [])
    objectives = by_name.get("coordinator.objective_batch", [])

    # One iteration runs from its first solve batch to the next iteration's
    # first batch; the last one ends with the run.
    starts = {}
    for b in batches:
        starts.setdefault(b["t"], b["start"])
    ts = sorted(starts)
    iter_ms = [1e3 * ((starts[ts[k + 1]] if k + 1 < len(ts) else run_span["end"]) - starts[t])
               for k, t in enumerate(ts)]

    per_t: dict[int, list[float]] = {}
    for b in batches:
        per_t.setdefault(b["t"], []).extend(b["solve_times"])
    wall = _duration(run_span)
    solve_batch_s = sum(map(_duration, batches))
    objective_s = sum(map(_duration, objectives))
    update_s = sum(map(_duration, updates))
    return {
        "wall": wall,
        "solves": len(solves),
        "explored": sum(s["explored"] for s in solves),
        "busy_s": sum(map(_duration, solves)),
        "lloyd_s": sum(map(_duration, lloyds)),
        "hits": sum(1 for s in solves if s["incumbent_hit"]),
        "relabel_s": sum(map(_duration, by_name.get("subsolver.relabel", []))),
        "max_proof_gap_over_tol": max((s["proof_gap"] - s["rel_tol"] for s in solves), default=-1.0),
        "qp_calls": len(qps),
        "qp_s": sum(map(_duration, qps)),
        "cuts_sum": sum(s["cuts"] for s in qps),
        "kkt_max": max((s["kkt_residual"] for s in qps if s["kkt_residual"] is not None), default=0.0),
        "update_s": update_s,
        "fallbacks": len(by_name.get("master.qnda_fallback", [])),
        "iterations": len(records),
        "objective_s": objective_s,
        "self_s": wall - solve_batch_s - objective_s - update_s,
        "t_sub_max_s": sum(r.t_sub_max for r in records),
        "straggler_max": sum(max(v) for v in per_t.values()),
        "straggler_mean": sum(statistics.fmean(v) for v in per_t.values()),
        "solve_batch_s": solve_batch_s,
        "node_solve_s": sum(sum(b["solve_times"]) for b in batches),
        "frames": len(frame_sizes),
        "bytes": sum(frame_sizes),
        "spans": len(spans) + len(node_spans),
        "samples": {
            "solve_ms": [1e3 * _duration(s) for s in solves],
            "qp_ms": [1e3 * _duration(s) for s in qps],
            "iter_ms": iter_ms,
            "rtt_overhead_ms": [1e3 * (_duration(b) - max(b["solve_times"])) for b in batches if b["solve_times"]],
            "objective_rtt_ms": [1e3 * _duration(b) for b in objectives],
        },
    }


def layer_metrics(per_case: list[list[dict]], setup: dict, untraced_wall: float, remote: bool,
                  peak_rss_mb: float) -> dict:
    """Per-layer metrics of one pass over the workload's cases.

    ``per_case`` holds, for each case, the counters of its traced runs.  Sums
    are the per-case median summed over the cases; percentiles pool every
    traced run.  The caller has already checked that counts repeat exactly.
    """
    def total(key):
        return sum(statistics.median_low(op[key] for op in ops) for ops in per_case)

    def pooled(key):
        return [v for ops in per_case for op in ops for v in op["samples"][key]]

    solves, explored, iterations = total("solves"), total("explored"), total("iterations")
    qp_calls = total("qp_calls")
    wall = total("wall")
    metrics = {
        "subsolver.solves": solves,
        "subsolver.explored": explored,
        "subsolver.busy_s": total("busy_s"),
        "subsolver.us_per_node": 1e6 * (total("busy_s") - total("lloyd_s")) / explored if explored else 0.0,
        "subsolver.solve_p50_ms": _pct(pooled("solve_ms"), 50),
        "subsolver.solve_p90_ms": _pct(pooled("solve_ms"), 90),
        "subsolver.lloyd_s": total("lloyd_s"),
        "subsolver.incumbent_hit_ratio": total("hits") / solves if solves else 0.0,
        "subsolver.relabel_s": total("relabel_s"),
        "master.qp_calls": qp_calls,
        "master.qp_s": total("qp_s"),
        "master.qp_p50_ms": _pct(pooled("qp_ms"), 50),
        "master.qp_p90_ms": _pct(pooled("qp_ms"), 90),
        "master.cuts_mean": total("cuts_sum") / qp_calls if qp_calls else 0.0,
        "master.kkt_residual_max": max(op["kkt_max"] for ops in per_case for op in ops),
        "master.update_s": total("update_s"),
        "master.qnda_fallbacks": total("fallbacks"),
        "coordinator.iterations": iterations,
        "coordinator.iter_samples": len(pooled("iter_ms")),
        "coordinator.iter_p50_ms": _pct(pooled("iter_ms"), 50),
        "coordinator.iter_p90_ms": _pct(pooled("iter_ms"), 90),
        "coordinator.objective_s": total("objective_s"),
        "coordinator.self_s": total("self_s"),
        "coordinator.t_sub_max_s": total("t_sub_max_s"),
        "coordinator.straggler_ratio": total("straggler_max") / total("straggler_mean"),
        "net.frames": total("frames"),
        "net.bytes": total("bytes"),
        "net.bytes_per_iter": total("bytes") / iterations if remote else 0.0,
        "net.solve_rtt_samples": len(pooled("rtt_overhead_ms")) if remote else 0,
        "net.solve_rtt_overhead_ms": _pct(pooled("rtt_overhead_ms"), 50) if remote else 0.0,
        "net.objective_rtt_samples": len(pooled("objective_rtt_ms")) if remote else 0,
        "net.objective_rtt_ms": _pct(pooled("objective_rtt_ms"), 50) if remote else 0.0,
        "net.parallelism": total("node_solve_s") / total("solve_batch_s") if remote else 0.0,
        "net.handshake_s": setup.get("handshake_s", 0.0),
        "bench.generate_s": setup["generate_s"],
        "cli.node_ready_s": setup.get("node_ready_s", 0.0),
        "process.peak_rss_mb": peak_rss_mb,
        "trace.spans": total("spans"),
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": wall - untraced_wall,
    }
    return metrics
