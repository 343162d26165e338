"""Command line interface: instance generation, runs, baselines, and reports.

Exit codes: 0 success, 2 argument error, 3 solver failure, 4 network failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import defaultdict
from dataclasses import fields
from pathlib import Path

import numpy as np

from .bench import BenchmarkSpec, generate_grid, generate_instance
from .coordinator import (
    ALGORITHMS,
    RunAborted,
    RunConfig,
    central_solve,
    relative_duality_gap,
    run,
    write_run_csv,
)
from .core import read_instance, write_instance
from .net import NetworkError, NetworkedBackend, serve_node
from .subsolver import NodeLimitExceeded

__all__ = ["main"]

EXIT_OK = 0
EXIT_ARGS = 2
EXIT_SOLVER = 3
EXIT_NETWORK = 4


_RUN_FLAG_HELP = {
    "algorithm": "dual update rule",
    "alpha0": "initial step/trust parameter, decayed as alpha0/sqrt(t)",
    "t_max": "iteration limit",
    "eps_primal": "primal residual norm tolerance",
    "eps_dg": "relative duality gap tolerance in percent",
    "tau": "bundle window in iterations",
    "t_comm": "modeled per-iteration communication time in seconds",
    "rel_tol": "node subproblem relative optimality tolerance",
    "max_nodes": "branch-and-bound node limit per subproblem solve; a node's one-off "
                 "suffix-bound precompute gets the same limit",
}


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per :class:`RunConfig` field, with the field's default.

    The initial duals are zero and the initial curvature approximation is
    the negative identity; neither has a flag.
    """
    for f in fields(RunConfig):
        kind = {"choices": ALGORITHMS} if f.name == "algorithm" else {"type": type(f.default)}
        parser.add_argument("--" + f.name.replace("_", "-"), default=f.default,
                            help=f"{_RUN_FLAG_HELP[f.name]} (default: %(default)s)", **kind)


def _config_from_args(args) -> RunConfig:
    return RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})


def _write_run_outputs(result, args, instance) -> None:
    write_run_csv(result.records, args.csv, t_comm=args.t_comm)
    meta = {
        "instance": instance.name,
        "algorithm": args.algorithm,
        "n_nodes": instance.n_nodes,
        "n_y": instance.n_y,
        "K": instance.K,
        "iterations": len(result.records),
        "termination": result.termination,
        "rel_dg_percent": result.records[-1].rel_duality_gap,
        "certified_gap_percent": relative_duality_gap(result.final_dual_value,
                                                      result.best_primal_value),
        "modeled_t_comp_s": result.modeled_t_comp,
        "best_primal": result.best_primal_value,
        "final_dual": result.final_dual_value,
        "qnda_fallbacks": result.qnda_fallbacks,
    }
    Path(str(args.csv) + ".meta.json").write_text(json.dumps(meta, indent=2))
    print(f"{instance.name} {args.algorithm}: {meta['iterations']} iterations, "
          f"terminated by {meta['termination']}, rel DG {meta['rel_dg_percent']:.4f} %, "
          f"certified gap {meta['certified_gap_percent']:.4f} %, "
          f"modeled T_comp {meta['modeled_t_comp_s']:.2f} s")


def cmd_generate(args) -> int:
    if args.grid:
        specs = generate_grid(args.seed, args.out)
        print(f"wrote {len(specs)} instances and manifest.csv to {args.out}")
        return EXIT_OK
    if None in (args.n_nodes, args.n_y, args.K):
        print("generate: --n-nodes, --n-y, and --K are required without --grid", file=sys.stderr)
        return EXIT_ARGS
    spec = BenchmarkSpec(
        n_nodes=args.n_nodes, n_y=args.n_y, K=args.K, replicate=args.replicate,
        seed=args.seed, points_per_cluster_per_node=args.points_per_cluster,
        radius=args.radius, sampling=args.sampling,
    )
    instance = generate_instance(spec)
    out = Path(args.out)
    path = out / f"{spec.name}.json" if out.is_dir() or not out.suffix else out
    path.parent.mkdir(parents=True, exist_ok=True)
    write_instance(instance, path)
    print(f"wrote {instance.name} to {path}")
    return EXIT_OK


def _write_central_csv(trace, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["wall_s", "incumbent", "lower_bound", "rel_gap_percent"])
        for wall, ub, lb, gap in trace:
            writer.writerow([repr(wall), repr(ub), repr(lb), repr(gap)])


def _check_csv_dir(path) -> None:
    """ValueError unless the directory that ``--csv`` names exists, so that
    a command fails before it solves anything rather than after."""
    directory = Path(path).parent
    if not directory.is_dir():
        raise ValueError(f"--csv directory {str(directory)!r} does not exist")


def cmd_central(args) -> int:
    instance = read_instance(args.instance)
    _check_csv_dir(args.csv)
    try:
        result = central_solve(instance, time_budget=args.time_budget,
                               rel_tol=args.rel_tol, max_nodes=args.max_nodes)
    except NodeLimitExceeded as exc:
        # The rows reached before the cap; main() reports the failure.
        _write_central_csv(exc.trace, args.csv)
        raise
    _write_central_csv(result.trace, args.csv)
    sol = result.solution
    print(f"{instance.name} central: objective {sol.lagrangian_value:.9g}, "
          f"proven gap {100.0 * sol.proof_gap:.4g} %, "
          f"{sol.stats['explored']} nodes explored")
    return EXIT_OK


def cmd_node(args) -> int:
    instance = read_instance(args.instance)
    matches = [n for n in instance.nodes if n.node_id == args.node_id]
    if not matches:
        print(f"node: no node with id {args.node_id} in {instance.name}", file=sys.stderr)
        return EXIT_ARGS
    host, port = _parse_address(args.bind)
    try:
        serve_node(matches[0], (host, port))
    except OSError as exc:
        print(f"node: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    return EXIT_OK


def cmd_run(args) -> int:
    """``run`` in process, or ``run-remote`` against the node services at ``--nodes``."""
    instance = read_instance(args.instance)
    _check_csv_dir(args.csv)
    remote = args.command == "run-remote"
    if remote:
        addresses = [_parse_address(a) for a in args.nodes]
        if len(addresses) != instance.n_nodes:
            print(f"run-remote: instance has {instance.n_nodes} nodes but "
                  f"{len(addresses)} addresses were given", file=sys.stderr)
            return EXIT_ARGS
    config = _config_from_args(args)
    backend = None
    try:
        if remote:
            backend = NetworkedBackend(addresses=addresses, instance=instance,
                                       config=config, timeout=args.timeout)
        result = run(instance, config, backend=backend)
    except (NetworkError, RunAborted) as exc:
        records = getattr(exc, "records", ())
        if records:
            write_run_csv(records, args.csv, t_comm=args.t_comm)
        print(f"{args.command} aborted: {exc}", file=sys.stderr)
        cause_is_network = isinstance(exc, NetworkError) or isinstance(exc.__cause__, NetworkError)
        return EXIT_NETWORK if cause_is_network else EXIT_SOLVER
    finally:
        if backend is not None:
            backend.close()
    _write_run_outputs(result, args, instance)
    return EXIT_OK


def _parse_address(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep:
        raise ValueError(f"address {text!r} must be host:port")
    return host, int(port)


def _group_of(instance_name: str) -> str:
    """'2N2D3K_4' -> '2N2D3K'."""
    return instance_name.rsplit("_", 1)[0]


# The .meta.json fields that report reads.
_META_FIELDS = ("instance", "algorithm", "iterations", "termination", "rel_dg_percent",
                "certified_gap_percent", "modeled_t_comp_s")


def _read_meta(path: Path) -> dict:
    """A run's metadata; ValueError naming ``path`` unless it is a JSON
    object with every field that report reads."""
    try:
        meta = json.loads(path.read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: not a JSON object")
    missing = [name for name in _META_FIELDS if name not in meta]
    if missing:
        raise ValueError(f"{path}: missing field(s) {', '.join(missing)}")
    return meta


def cmd_report(args) -> int:
    runs_dir = Path(args.runs)
    metas = sorted(runs_dir.glob("*.meta.json"))
    if not metas:
        print(f"report: no run metadata found in {runs_dir}", file=sys.stderr)
        return EXIT_ARGS
    rows = [_read_meta(p) for p in metas]

    groups: dict[tuple[str, str], list[dict]] = defaultdict(list)
    for row in rows:
        groups[(_group_of(row["instance"]), row["algorithm"])].append(row)

    out_rows = []
    for (group, algorithm) in sorted(groups):
        members = groups[(group, algorithm)]
        out_rows.append({
            "group": group,
            "algorithm": algorithm,
            "runs": len(members),
            "mean_iterations": float(np.mean([m["iterations"] for m in members])),
            "mean_rel_dg_percent": float(np.mean([m["rel_dg_percent"] for m in members])),
            "mean_certified_gap_percent": float(np.mean([m["certified_gap_percent"]
                                                         for m in members])),
            "mean_t_comp_s": float(np.mean([m["modeled_t_comp_s"] for m in members])),
            "terminations": "/".join(sorted({m["termination"] for m in members})),
        })

    fieldnames = list(out_rows[0])
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(out_rows)

    widths = {f: max(len(f), *(len(_fmt(r[f])) for r in out_rows)) for f in fieldnames}
    header = "  ".join(f.ljust(widths[f]) for f in fieldnames)
    print(header)
    print("-" * len(header))
    for r in out_rows:
        print("  ".join(_fmt(r[f]).ljust(widths[f]) for f in fieldnames))
    return EXIT_OK


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedkmeans",
        description="Federated K-means clustering by dual decomposition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate benchmark instances")
    p.add_argument("--grid", action="store_true",
                   help="write the full 90-instance benchmark grid")
    p.add_argument("--n-nodes", type=int, help="number of nodes (single instance)")
    p.add_argument("--n-y", type=int, help="data dimension (single instance)")
    p.add_argument("--K", type=int, help="number of clusters (single instance)")
    p.add_argument("--replicate", type=int, default=1, help="replicate index (default: 1)")
    p.add_argument("--points-per-cluster", type=int, default=5,
                   help="points per cluster per node (default: 5)")
    p.add_argument("--radius", type=float, default=0.5,
                   help="cluster ball radius (default: 0.5)")
    p.add_argument("--sampling", choices=("per-node", "global-split"), default="per-node",
                   help="cluster sampling mode (default: per-node)")
    p.add_argument("--seed", type=int, required=True, help="generation seed")
    p.add_argument("--out", required=True, help="output file or directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", help="run the distributed algorithm in-process")
    p.add_argument("--instance", required=True, help="instance JSON file")
    _add_run_flags(p)
    p.add_argument("--csv", required=True, help="per-iteration output CSV")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("central", help="solve the merged problem centrally")
    p.add_argument("--instance", required=True, help="instance JSON file")
    p.add_argument("--time-budget", type=float, default=None,
                   help="wall-clock budget in seconds (default: none)")
    p.add_argument("--rel-tol", type=float, default=RunConfig.rel_tol,
                   help="relative optimality tolerance (default: %(default)s)")
    p.add_argument("--max-nodes", type=int, default=RunConfig.max_nodes,
                   help="branch-and-bound node limit (default: %(default)s)")
    p.add_argument("--csv", required=True, help="incumbent/bound trace CSV")
    p.set_defaults(func=cmd_central)

    p = sub.add_parser("node", help="serve one node over the wire protocol")
    p.add_argument("--instance", required=True, help="instance JSON file")
    p.add_argument("--node-id", type=int, required=True, help="node id to serve")
    p.add_argument("--bind", required=True, help="host:port to listen on")
    p.set_defaults(func=cmd_node)

    p = sub.add_parser("run-remote", help="run against networked node services")
    p.add_argument("--instance", required=True, help="instance JSON file")
    p.add_argument("--nodes", nargs="+", required=True,
                   help="node addresses host:port, in node-index order")
    p.add_argument("--timeout", type=float, default=NetworkedBackend.timeout,
                   help="per-message timeout in seconds (default: %(default)s)")
    _add_run_flags(p)
    p.add_argument("--csv", required=True, help="per-iteration output CSV")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="aggregate run metadata into a summary table")
    p.add_argument("--runs", required=True, help="directory of run CSVs with .meta.json sidecars")
    p.add_argument("--out", required=True, help="summary CSV output path")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_ARGS
    except NetworkError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    except (RunAborted, NodeLimitExceeded) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
