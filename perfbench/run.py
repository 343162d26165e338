"""Layered benchmark of fedkmeans: exact node solves, bundle masters, networked QNDA.

Run from the root of a checkout:

    python3 perfbench/run.py --workload k4-sg --seed 0 --seconds 20 --trace 0

Each operation is one run (instance x algorithm) through fedkmeans' public
API, followed by its correctness checks.  Operations run back to back in one
closed loop: at least one pass over the workload's cases, then more while the
next one is expected to end within ``--seconds``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs every step traced and then untraced,
and reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object with the result.

fedkmeans, and the benchmark modules that import it, load only after
``main`` has put the checkout's ``src/`` on the import path and pinned BLAS to
one thread; hence the imports inside functions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("modeled_t_comp_s", "s"),
              ("certified_gap_pct", "%"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def measure(workload, session, seconds, tracer):
    """Closed loop over the cases: one full pass, then while the next step fits.

    With a tracer, each step runs its case traced and then untraced, so that
    the pair measures the tracing overhead under the same conditions.  The
    first run of a case also pays for page faults on a growing heap, so the
    overhead comes out as an upper bound.
    """
    from workloads import run_op

    modes = (None,) if tracer is None else (tracer, None)
    ops, last = [], {}
    deadline = time.perf_counter() + seconds
    n = len(workload.cases)
    i = 0
    while True:
        case = workload.cases[i % n]
        if i >= n and time.perf_counter() + last[case] > deadline:
            return ops
        started = time.perf_counter()
        for mode in modes:
            op = run_op(case, session, mode, len(ops))
            ops.append(op)
            if op.errors and workload.remote:
                return ops  # the connection is unusable after a failed networked run
        last[case] = time.perf_counter() - started
        i += 1


def check_repeats(workload, ops, traced_ops):
    """Every run of a case must give the same records, and the same counts when traced."""
    import layers

    for case in workload.cases:
        mine = [op for op in ops if op.case == case and op.result is not None]
        for op in mine[1:]:
            if op.keys != mine[0].keys:
                op.errors.append(f"{case.label}: records differ from the case's first run "
                                 f"(nondeterminism)")
        counted = [op for op in traced_ops if op.case == case and op.counters is not None]
        for op in counted[1:]:
            for key in layers.EXACT_COUNTS:
                if op.counters[key] != counted[0].counters[key]:
                    op.errors.append(f"{case.label}: {key} {op.counters[key]} != "
                                     f"{counted[0].counters[key]} in the case's first traced run")


def end_to_end(workload, ops, setup_totals):
    from workloads import certified_gap_pct

    wall = modeled = 0.0
    gaps = []
    for case in workload.cases:
        done = [op for op in ops if op.case == case and op.result is not None]
        if not done:
            continue
        wall += statistics.median(op.wall for op in done)
        modeled += statistics.median(op.result.modeled_t_comp for op in done)
        gaps.append(certified_gap_pct(done[0].result.records))
    return {
        "setup_s": statistics.median(setup_totals),
        "wall_s": wall,
        "modeled_t_comp_s": modeled,
        "certified_gap_pct": statistics.fmean(gaps) if gaps else 0.0,
    }


def report(workload, seed, ops, metrics, units, trace):
    import layers

    print(f"perfbench {workload.name} seed {seed} trace {trace}: {len(ops)} runs")
    for op in ops:
        status = "ok" if not op.errors else "FAILED"
        extra = "" if op.result is None else (f" {len(op.result.records)} iterations, "
                                               f"{op.result.termination}")
        print(f"  run {op.run_id:3d} {op.case.label:24s} {op.wall:9.3f} s{extra} "
              f"{'traced' if op.root is not None else 'untraced'} {status}")
    layer = None
    for name, value in metrics.items():
        if trace and name.split(".")[0] != layer:
            layer = name.split(".")[0]
            print(f"  [{layer}] expected to move: {layers.MOVES[layer]}")
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    if trace:
        print("  percentiles are nearest-rank; p90 needs 100 samples to leave 10 beyond it "
              "(see the *_samples and solves / qp_calls counts)")
    for msg in (e for op in ops for e in op.errors):
        print(f"  CHECK FAILED: {msg}")


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import nodes as node_procs

    for var in node_procs.THREAD_VARS:
        os.environ[var] = "1"  # before NumPy loads
    if not (ROOT / "src" / "fedkmeans" / "__init__.py").is_file():
        print(f"perfbench: no fedkmeans sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so node processes are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import layers
    from fedkmeans.coordinator import run
    from workloads import WORKLOADS, add_counters, set_up

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = ROOT / f".perfbench-work-{workload.name}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    env = node_procs.child_env(ROOT)
    trace_dir = workdir if args.trace else None
    problems: list[str] = []
    ops = []
    try:
        setups = []
        for repeat in range(SETUP_REPEATS):
            session = set_up(workload, args.seed, workdir, env, trace_dir)
            setups.append(session.timings)
            if repeat < SETUP_REPEATS - 1:
                problems += session.close()
        tracer = layers.Tracer() if args.trace else None
        try:
            ops = measure(workload, session, args.seconds, tracer)
            peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                           + session.node_peak_rss_mb())
        except BaseException:
            session.kill()
            raise
        problems += session.close()
        if workload.remote and any(op.errors for op in ops):
            problems += [f"node {n.node_id} stderr: {tail}" for n in session.nodes
                         if (tail := n.stderr_tail())]

        traced_ops = [op for op in ops if op.root is not None]
        if tracer is not None:
            node_spans = []
            for node in session.nodes:
                if node.trace_out is not None and node.trace_out.exists():
                    node_spans += json.loads(node.trace_out.read_text(encoding="utf-8"))
            for op in traced_ops:
                add_counters(op, tracer, node_spans)
            out_dir = ROOT / ".perfbench-out"
            out_dir.mkdir(exist_ok=True)
            (out_dir / f"spans-{workload.name}-seed{args.seed}.json").write_text(
                json.dumps({"coordinator": tracer.spans, "nodes": node_spans}), encoding="utf-8")

        if workload.remote:
            # Reference for transport transparency; timed into no metric.
            (case,) = workload.cases
            reference = run(session.instances[case.instance], case.config())
            keys = tuple(r.numeric_key() for r in reference.records)
            for op in ops:
                if op.result is not None and op.keys != keys:
                    op.errors.append(f"{case.label}: networked records differ from the "
                                     f"in-process run")
        check_repeats(workload, ops, traced_ops)
    except Exception:
        traceback.print_exc()
        print("perfbench: the benchmark could not complete", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        setup = {key: statistics.median(s.get(key, 0.0) for s in setups)
                 for key in ("generate_s", "node_ready_s", "handshake_s")}
        per_case = [[op.counters for op in traced_ops if op.case == case and op.counters]
                    for case in workload.cases]
        if all(per_case):
            untraced_wall = sum(
                statistics.median(op.wall for op in ops if op.case == case and op.root is None)
                for case in workload.cases)
            metrics = layers.layer_metrics(per_case, setup, untraced_wall, workload.remote,
                                           peak_rss_mb)
        else:
            metrics = {name: 0.0 for name, _ in layers.PER_LAYER}
        units = dict(layers.PER_LAYER)
    else:
        metrics = end_to_end(workload, ops, [s["total_s"] for s in setups])
        units = dict(END_TO_END)

    ops[-1].errors += problems  # measure() always runs at least one op
    failed = sum(1 for op in ops if op.errors)
    correct = failed == 0
    report(workload, args.seed, ops, metrics, units, args.trace)
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
