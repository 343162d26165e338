"""Workload definitions, set-up, one measured operation, and its correctness checks.

Every workload runs cells of the seed-0 benchmark grid (``fedkmeans generate
--grid --seed 0``), the instances the paper's tables use.  The benchmark seed
permutes the observation rows inside each node.  That changes the instance
files and the Lloyd incumbents' random starts, but not the clustering
problem, so the K=4 cost stays in every run instead of depending on which
random instances a seed happens to draw.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fedkmeans.bench import generate_grid
from fedkmeans.coordinator import InProcessBackend, RunAborted, RunConfig, run
from fedkmeans.core import NodeDataset, ProblemInstance, read_instance, write_instance
from fedkmeans.net import NetworkedBackend, NetworkError, encode_frame

import layers
import nodes as node_procs

GRID_SEED = 0
TERMINATIONS = ("residual", "duality_gap", "max_iter")


@dataclass(frozen=True)
class Case:
    instance: str       # cell of the seed-0 grid
    algorithm: str
    t_max: int

    @property
    def label(self) -> str:
        return f"{self.instance}/{self.algorithm}/t{self.t_max}"

    def config(self) -> RunConfig:
        return RunConfig(algorithm=self.algorithm, t_max=self.t_max)


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple[Case, ...]
    remote: bool
    why: str


WORKLOADS = {w.name: w for w in (
    # t_max = 2: iteration 1 runs at zero duals, where label symmetry makes
    # the node search cheap; iteration 2 is one exact K=4 solve per node at
    # nonzero duals, the cost ROADMAP item 3 attacks.  SG's master step is one
    # axpy, so this is the no-change case for master work.
    Workload("k4-sg", (Case("2N2D4K_1", "sg", 2), Case("3N2D4K_1", "sg", 2),
                       Case("4N2D4K_1", "sg", 2)), remote=False,
             why="K=4 cells 2N/3N/4N2D4K_1, SG, t_max 2, in process: exact node B&B is over 99% "
                 "of the time; master work is nil"),
    # 150 iterations fill the bundle to tau = 50 cuts, so the master QP is
    # 30-50 % of the time while node solves stay cheap.
    Workload("k3-bundle", (Case("3N3D3K_1", "btm", 150), Case("3N3D3K_1", "qnda", 150)),
             remote=False,
             why="3N3D3K_1 with BTM and QNDA, t_max 150, in process: the bundle fills to 50 cuts "
                 "and the master QP takes 30-50% of the time"),
    # Two node processes solve concurrently and every message crosses
    # localhost.  50 iterations nearly fill the bundle and leave time to
    # repeat the run and to check it against an in-process run.  Beyond
    # about 55 iterations the best primal improves at a seed-dependent
    # iteration, which would make the certified gap bimodal across seeds.
    Workload("remote-qnda", (Case("2N2D3K_1", "qnda", 50),), remote=True,
             why="2N2D3K_1, QNDA, t_max 50, two fedkmeans node processes on localhost: concurrent "
                 "node solves, every message on the wire"),
)}


def permute_rows(instance: ProblemInstance, seed: int) -> ProblemInstance:
    """Same clustering problem with each node's observation rows in seeded order."""
    permuted = []
    for node in instance.nodes:
        rng = np.random.default_rng(np.random.SeedSequence((seed, node.node_id)))
        order = rng.permutation(node.n_points)
        permuted.append(NodeDataset(node_id=node.node_id, observations=node.observations[order]))
    return ProblemInstance(name=instance.name, K=instance.K, n_y=instance.n_y,
                           nodes=tuple(permuted), box=instance.box)


@dataclass
class Session:
    """Loaded instances and, for the networked workload, live nodes and a backend."""

    instances: dict
    timings: dict
    nodes: list = field(default_factory=list)
    backend: NetworkedBackend | None = None

    def node_peak_rss_mb(self) -> float:
        return sum(n.peak_rss_mb() for n in self.nodes)

    def close(self) -> list[str]:
        """TERMINATE and reap the nodes; returns problems worth reporting."""
        problems = []
        try:
            if self.backend is not None:
                self.backend.close()
        finally:
            for n in self.nodes:
                code = n.stop()
                if code != 0:
                    problems.append(f"node {n.node_id} exited with code {code}: {n.stderr_tail()}")
        return problems

    def kill(self) -> None:
        node_procs.kill_nodes(self.nodes)


def set_up(workload: Workload, seed: int, workdir: Path, env: dict, trace_dir: Path | None) -> Session:
    """Generate the grid, load and permute the workload's instances, start nodes."""
    timings = {}
    started = time.perf_counter()
    grid_dir = workdir / "grid"
    generate_grid(GRID_SEED, grid_dir)
    timings["generate_s"] = time.perf_counter() - started

    instances, paths = {}, {}
    for name in sorted({c.instance for c in workload.cases}):
        path = workdir / f"{name}-seed{seed}.json"
        write_instance(permute_rows(read_instance(grid_dir / f"{name}.json"), seed), path)
        instances[name], paths[name] = read_instance(path), path
    session = Session(instances=instances, timings=timings)

    if workload.remote:
        (case,) = workload.cases
        instance = instances[case.instance]
        mark = time.perf_counter()
        session.nodes = node_procs.start_nodes(paths[case.instance], instance.n_nodes,
                                               workdir, env, trace_dir)
        timings["node_ready_s"] = time.perf_counter() - mark
        mark = time.perf_counter()
        try:
            session.backend = NetworkedBackend(
                addresses=[n.address for n in session.nodes], instance=instance,
                config=case.config(), run_id=f"bench-{seed}")
        except BaseException:
            session.kill()
            raise
        timings["handshake_s"] = time.perf_counter() - mark
    timings["total_s"] = time.perf_counter() - started
    return session


@dataclass
class Op:
    """One operation: one run of one case, with its checks."""

    case: Case
    run_id: int
    wall: float = 0.0
    result: object = None
    keys: tuple = ()
    root: dict | None = None            # the run's span, when traced
    frame_sizes: list = field(default_factory=list)
    counters: dict | None = None
    errors: list = field(default_factory=list)


def certified_gap_pct(records) -> float:
    """Best-bound gap 100 * (1 - max_t dual_t / min_t primal_t)."""
    return 100.0 * (1.0 - max(r.dual_value for r in records) / min(r.primal_value for r in records))


def run_op(case: Case, session: Session, tracer: layers.Tracer | None, run_id: int) -> Op:
    """Run one case once; with a tracer, under the layer wrappers."""
    instance = session.instances[case.instance]
    config = case.config()
    op = Op(case=case, run_id=run_id)
    backend = session.backend
    if tracer is not None:
        inner = backend if backend is not None else InProcessBackend(instance, config)
        backend = layers.TracedBackend(inner, tracer)
        tracer.run_id = run_id
        if session.backend is not None:
            session.backend.capture = []
    try:
        if tracer is None:
            started = time.perf_counter()
            op.result = run(instance, config, backend=backend)
            op.wall = time.perf_counter() - started
        else:
            with layers.patched(tracer), tracer.span("coordinator.run", case=case.label) as op.root:
                op.result = run(instance, config, backend=backend)
            op.wall = op.root["end"] - op.root["start"]
    except (RunAborted, NetworkError) as exc:
        op.errors.append(f"{case.label}: run aborted: {exc}")
    finally:
        if session.backend is not None:
            # Wire bytes are computed by re-encoding the captured messages.
            op.frame_sizes = [len(encode_frame(m)) for _, m in session.backend.capture or []]
            session.backend.capture = None
        elif tracer is not None:
            backend.close()
    if op.result is not None:
        _check_run(op, config)
    return op


def _check_run(op: Op, config: RunConfig) -> None:
    records = op.result.records
    op.keys = tuple(r.numeric_key() for r in records)
    if op.result.termination not in TERMINATIONS:
        op.errors.append(f"{op.case.label}: unexpected termination {op.result.termination!r}")
    max_dual = max(r.dual_value for r in records)
    min_primal = min(r.primal_value for r in records)
    # Node values are optimal to within rel_tol, so a dual value may exceed
    # the true dual function by that share.
    if max_dual > min_primal + config.rel_tol * abs(min_primal):
        op.errors.append(f"{op.case.label}: weak duality violated: max dual {max_dual!r} "
                         f"> min primal {min_primal!r}")


def add_counters(op: Op, tracer: layers.Tracer, node_spans: list[dict]) -> None:
    """Per-layer counters of a traced op; node spans are matched by time window."""
    if op.result is None:
        return
    spans = [s for s in tracer.spans if s["run_id"] == op.run_id and s is not op.root]
    window = [s for s in node_spans if op.root["start"] <= s["start"] <= op.root["end"]]
    op.counters = layers.op_counters(op.root, spans, window, op.result.records, op.frame_sizes)
    if op.counters["max_proof_gap_over_tol"] > 0:
        op.errors.append(f"{op.case.label}: a node solve ended with proof_gap above rel_tol")
