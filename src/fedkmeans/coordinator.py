"""Dual-decomposition run loop, averaging heuristic, and central baseline.

One iteration follows the four-step coordinator/node exchange: (1) send each
node its dual linear coefficients, (2) collect exact subproblem solutions and
form the dual value and subgradient, (3) broadcast the average centroids,
(4) collect the per-node primal objectives and the resulting duality gap.
All dual values are exact subproblem minima, so every reported duality gap is
a certificate; an inexact node solve aborts the run.
"""

from __future__ import annotations

import csv
import hashlib
import math
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import ClassVar

import numpy as np

from .core import (BoundingBox, ConsensusTopology, NodeDataset, ProblemInstance, apply_coupling_adjoint,
                   primal_residual)
from .master import (Bundle, BundleEntry, TrustRegionSolverError, bfgs_update, btm_direction, bundle_push,
                     qnda_update, sg_update, step_size)
from .subsolver import (DEFAULT_MAX_NODES, LagrangianSubproblem, NodeLimitExceeded, SearchTemplate,
                        SubproblemSolution, branching_order, evaluate_assignment, relabel_to_reference,
                        solve_subproblem, suffix_lower_bounds)

__all__ = [
    "ALGORITHMS",
    "CentralResult",
    "InProcessBackend",
    "IterationRecord",
    "NodeSession",
    "NodeSolveFailed",
    "NodeSolveReply",
    "RunAborted",
    "RunConfig",
    "RunResult",
    "central_solve",
    "modeled_computation_time",
    "relative_duality_gap",
    "run",
    "write_run_csv",
]

ALGORITHMS = ("sg", "btm", "qnda")


@dataclass(frozen=True)
class RunConfig:
    """Algorithm selection plus the standard parameter set.

    Every run starts from zero duals and initial curvature -I.  Defaults:
    alpha0 = 0.5 with alpha0/sqrt(t) decay, at most 150 iterations, primal
    residual tolerance 1e-2, duality-gap tolerance 0.25 %, bundle capacity
    50, and a constant 800 ms modeled communication time per iteration.
    ``max_nodes`` caps every node search, with :func:`solve_subproblem`'s
    default.  Every node solve proves its minimum exactly: ``rel_tol``, the
    relative optimality tolerance, is the constant 0, not a setting.  A
    node's search starts from its plain K-means optimum, proven once per
    session by its suffix-bound precompute.
    """

    algorithm: str = "qnda"
    alpha0: float = 0.5
    t_max: int = 150
    eps_primal: float = 1e-2
    eps_dg: float = 0.25            # percent
    tau: int = 50
    t_comm: float = 0.8             # seconds
    max_nodes: int = DEFAULT_MAX_NODES
    rel_tol: ClassVar[float] = 0.0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}")
        if min(self.alpha0, self.t_max, self.eps_primal, self.eps_dg, self.tau, self.t_comm) <= 0:
            raise ValueError("all run parameters must be positive")
        _check_max_nodes(self.max_nodes)


def _check_max_nodes(max_nodes: int) -> None:
    """ValueError unless every node search can run with this node cap."""
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be at least 1, got {max_nodes}")


@dataclass(frozen=True)
class IterationRecord:
    t: int
    lam_hash: str
    dual_value: float
    node_lagrangians: tuple[float, ...]
    mean_centroids: np.ndarray          # (K, n_y)
    node_objectives: tuple[float, ...]
    primal_value: float
    rel_duality_gap: float              # percent
    residual_norm: float
    t_update: float
    t_sub_max: float
    lam: np.ndarray = field(repr=False, default=None)
    subgradient: np.ndarray = field(repr=False, default=None)

    def numeric_key(self) -> tuple:
        """Bit-exact numeric fields, excluding wall-clock timings."""
        return (
            self.t, self.lam_hash, self.dual_value, self.node_lagrangians,
            tuple(map(tuple, self.mean_centroids.tolist())),
            self.node_objectives, self.primal_value, self.rel_duality_gap,
            self.residual_norm,
        )


@dataclass(frozen=True)
class RunResult:
    records: tuple[IterationRecord, ...]
    termination: str                    # residual | duality_gap | max_iter
    best_primal_value: float
    best_primal_centroids: np.ndarray
    final_dual_value: float
    modeled_t_comp: float
    qnda_fallbacks: int = 0             # QNDA iterations that took a BTM step instead


class RunAborted(RuntimeError):
    """A node failed, timed out, or could not solve exactly; partial records attached."""

    def __init__(self, message: str, records: tuple[IterationRecord, ...] = ()):
        super().__init__(message)
        self.records = records


def relative_duality_gap(dual_value: float, primal_value: float) -> float:
    """Percent gap 100 * (1 - dual/primal).

    A zero primal with a dual of at most 0 has gap 0: no clustering costs
    less than 0, so that primal is proven optimal.
    """
    if primal_value == 0 and dual_value <= 0:
        return 0.0
    if primal_value <= 0:
        raise ValueError("primal value must be positive")
    return 100.0 * (1.0 - dual_value / primal_value)


def modeled_computation_time(records, t_comm: float) -> float:
    """N_iter * T_comm + sum over iterations of (T_update + max node solve time)."""
    records = list(records)
    if not records:
        raise ValueError("no iteration records")
    return len(records) * t_comm + sum(r.t_update + r.t_sub_max for r in records)


# ------------------------------ node backends --------------------------------


@dataclass(frozen=True)
class NodeSolveReply:
    centroids: np.ndarray       # (K, n_y)
    lagrangian_value: float
    solve_time: float


class NodeSolveFailed(RuntimeError):
    """A remote node reports that its exact subproblem solve failed."""


@dataclass
class NodeSession:
    """One node's side of a run: its data and the settings of every solve.

    Between solves a session keeps only what does not depend on the duals:
    its branching order, its suffix bounds and the plain K-means optimum
    that their precompute proves, and the :class:`SearchTemplate` built
    from them, so that each solve does only the work that the duals
    change.  It never sees another node's centroids:
    :func:`run` aligns the iteration-1 labels itself.  Both backends open
    sessions from the same :meth:`hello_body` dict (the networked backend
    sends it as the HELLO body), so in-process and networked nodes solve
    with identical settings by construction.
    """

    data: NodeDataset
    K: int
    box: BoundingBox
    max_nodes: int

    def __post_init__(self):
        _check_max_nodes(self.max_nodes)

    @staticmethod
    def hello_body(instance: ProblemInstance, config: RunConfig) -> dict:
        """The JSON-ready settings every node of a run needs besides its data."""
        return {
            "K": instance.K, "n_y": instance.n_y,
            "box": {"lo": instance.box.lo.tolist(), "hi": instance.box.hi.tolist()},
            "max_nodes": config.max_nodes,
        }

    @classmethod
    def open(cls, data: NodeDataset, body: dict) -> "NodeSession":
        """Session for ``data`` under a :meth:`hello_body`; ValueError if they do not fit."""
        K, n_y = int(body["K"]), int(body["n_y"])
        if n_y != data.n_y:
            raise ValueError(f"node {data.node_id}: run has n_y={n_y}, node data has n_y={data.n_y}")
        if K < 2:
            raise ValueError(f"node {data.node_id}: K must be at least 2, got {K}")
        box = BoundingBox(np.array(body["box"]["lo"], dtype=float), np.array(body["box"]["hi"], dtype=float))
        if box.n_y != n_y or not box.contains(data.observations):
            raise ValueError(f"node {data.node_id}: the run's box does not contain the node data")
        return cls(data=data, K=K, box=box, max_nodes=int(body["max_nodes"]))

    @cached_property
    def order(self) -> list[int]:
        """The node's branching order, computed on first use."""
        return branching_order(self.data.observations)

    @cached_property
    def suffix(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """The node's dual-independent suffix bounds in :attr:`order` and its
        plain K-means optimum, from :func:`suffix_lower_bounds`, computed on
        first use."""
        return suffix_lower_bounds(self.data, self.K, self.box, max_nodes=self.max_nodes, order=self.order)

    @cached_property
    def template(self) -> SearchTemplate:
        """Everything a solve's search needs that does not depend on the
        duals: :attr:`order`, :attr:`suffix` and the parts of the K-means
        optimum, as a :class:`SearchTemplate`, built on first use."""
        bounds, optimum = self.suffix
        return SearchTemplate(self.data, self.K, self.box, bounds, self.order, optimum)

    def solve(self, c) -> NodeSolveReply:
        """Exact subproblem solve under dual term ``c``, which must be finite (ValueError otherwise).

        The first solve also computes :attr:`order`, :attr:`suffix` and
        :attr:`template`, and its ``solve_time`` includes that work.  Every
        solve starts from the session's K-means optimum (see
        :func:`solve_subproblem`), so a reply depends only on the node's data
        and ``c``: not on earlier solves, nor on the backend or the run that
        asks for it.
        """
        sub = LagrangianSubproblem(data=self.data, K=self.K, box=self.box,
                                   c=np.asarray(c, dtype=float).reshape(self.K, self.data.n_y))
        started = time.perf_counter()
        solution = solve_subproblem(sub, max_nodes=self.max_nodes, template=self.template)
        return NodeSolveReply(
            centroids=solution.centroids,
            lagrangian_value=solution.lagrangian_value,
            solve_time=time.perf_counter() - started,
        )

    def objective(self, mean_centroids) -> float:
        """z_i: cost of the node's local data under the averaged centroids, a finite (K, n_y) array."""
        Y = self.data.observations
        M = np.asarray(mean_centroids, dtype=float)
        if M.shape != (self.K, self.data.n_y) or not np.isfinite(M).all():
            raise ValueError(f"node {self.data.node_id}: mean centroids must be a finite "
                             f"({self.K}, {self.data.n_y}) array")
        d2 = np.sum((Y[:, None, :] - M[None, :, :]) ** 2, axis=2)
        return float(np.sum(np.min(d2, axis=1)))


class InProcessBackend:
    """Runs one :class:`NodeSession` per node in the coordinator process.

    Solves run one after another; per-node parallelism comes from running
    each node as its own ``fedkmeans node`` process.
    """

    def __init__(self, instance: ProblemInstance, config: RunConfig):
        body = NodeSession.hello_body(instance, config)
        self.sessions = [NodeSession.open(node, body) for node in instance.nodes]

    # run() passes no reference and every node index; perfbench's TracedBackend forwards all four.
    def solve_batch(self, t, c_list, reference, node_indices) -> list[NodeSolveReply]:
        return [self.sessions[i].solve(c_list[i]) for i in node_indices]

    def objective_batch(self, t, mean_centroids) -> list[float]:
        return [session.objective(mean_centroids) for session in self.sessions]

    def close(self):
        pass


# --------------------------------- run loop ----------------------------------


def _lam_hash(lam: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(lam, dtype=float).tobytes()).hexdigest()[:16]


def run(instance: ProblemInstance, config: RunConfig, backend=None) -> RunResult:
    """Full dual-decomposition run; returns per-iteration records and the best primal."""
    topology = ConsensusTopology(n_nodes=instance.n_nodes, K=instance.K, n_y=instance.n_y)
    own_backend = backend is None
    if backend is None:
        backend = InProcessBackend(instance, config)

    lam = np.zeros(topology.dual_dim)
    bundle = Bundle(capacity=config.tau)
    B = -np.eye(topology.dual_dim)
    prev_lam = prev_g = None
    records: list[IterationRecord] = []
    termination = "max_iter"
    best_primal = np.inf
    best_centroids = None
    qnda_fallbacks = 0

    try:
        for t in range(1, config.t_max + 1):
            c_list = [apply_coupling_adjoint(topology, i, lam) for i in range(instance.n_nodes)]
            replies = backend.solve_batch(t, c_list, None, list(range(instance.n_nodes)))
            if t == 1:
                # Align the labels to node 0's.  The duals are zero, so every
                # label has the same dual term, and a reply with its centroid
                # rows permuted is the same partition with the same value.
                replies[1:] = [replace(r, centroids=relabel_to_reference(r.centroids, replies[0].centroids))
                               for r in replies[1:]]

            dual_value = float(sum(r.lagrangian_value for r in replies))
            g, residual_norm = primal_residual(topology, [r.centroids for r in replies])

            mean_centroids = np.mean([r.centroids for r in replies], axis=0)
            z = backend.objective_batch(t, mean_centroids)
            primal_value = float(sum(z))
            rel_dg = relative_duality_gap(dual_value, primal_value)

            if primal_value < best_primal:
                best_primal = primal_value
                best_centroids = mean_centroids

            stop = None
            if residual_norm < config.eps_primal:
                stop = "residual"
            elif rel_dg <= config.eps_dg:
                stop = "duality_gap"
            elif t == config.t_max:
                stop = "max_iter"

            t_update = 0.0
            if stop is None:
                started = time.perf_counter()
                alpha_t = step_size(config.alpha0, t)
                if config.algorithm == "sg":
                    new_lam = sg_update(lam, g, alpha_t)
                elif config.algorithm == "btm":
                    bundle = bundle_push(bundle, BundleEntry(t, lam.copy(), g.copy(), dual_value))
                    s, _ = btm_direction(bundle, lam, dual_value, alpha_t)
                    new_lam = lam + s
                else:  # qnda
                    if prev_lam is not None:
                        B = bfgs_update(B, lam - prev_lam, g - prev_g)
                    bundle = bundle_push(bundle, BundleEntry(t, lam.copy(), g.copy(), dual_value))
                    new_lam, fell_back = qnda_update(B, bundle, lam, g, dual_value, alpha_t)
                    qnda_fallbacks += fell_back
                t_update = time.perf_counter() - started

            t_sub_max = max(r.solve_time for r in replies)
            records.append(IterationRecord(
                t=t,
                lam_hash=_lam_hash(lam),
                dual_value=dual_value,
                node_lagrangians=tuple(r.lagrangian_value for r in replies),
                mean_centroids=mean_centroids,
                node_objectives=tuple(z),
                primal_value=primal_value,
                rel_duality_gap=rel_dg,
                residual_norm=residual_norm,
                t_update=t_update,
                t_sub_max=t_sub_max,
                lam=lam.copy(),
                subgradient=g.copy(),
            ))

            if stop is not None:
                termination = stop
                break
            prev_lam, prev_g = lam, g
            lam = new_lam
    except (NodeLimitExceeded, NodeSolveFailed) as exc:
        raise RunAborted(f"exact subproblem solve failed: {exc}", tuple(records)) from exc
    except TrustRegionSolverError as exc:
        raise RunAborted(f"master solver failed: {exc}", tuple(records)) from exc
    except RunAborted:
        raise
    except RuntimeError as exc:
        # Backend failures (for example a dropped network connection) abort
        # the run but keep the records accumulated so far.
        raise RunAborted(f"node backend failed: {exc}", tuple(records)) from exc
    finally:
        if own_backend:
            backend.close()

    return RunResult(
        records=tuple(records),
        termination=termination,
        best_primal_value=best_primal,
        best_primal_centroids=best_centroids,
        final_dual_value=max(r.dual_value for r in records),
        modeled_t_comp=modeled_computation_time(records, config.t_comm),
        qnda_fallbacks=qnda_fallbacks,
    )


CSV_COLUMNS = ("t", "dual", "primal", "rel_dg_percent", "residual_norm",
               "t_update_s", "t_sub_max_s", "t_model_cum_s")


def write_run_csv(records, path, t_comm: float) -> None:
    """Per-iteration CSV with the fixed column order."""
    cum = 0.0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            cum += t_comm + r.t_update + r.t_sub_max
            writer.writerow([r.t, repr(r.dual_value), repr(r.primal_value),
                             repr(r.rel_duality_gap), repr(r.residual_norm),
                             repr(r.t_update), repr(r.t_sub_max), repr(cum)])


# ----------------------------- central baseline ------------------------------


@dataclass(frozen=True)
class CentralResult:
    solution: SubproblemSolution
    # Trace rows: (wall_time_s, incumbent_value, lower_bound, rel_gap_percent)
    trace: tuple[tuple[float, float, float, float], ...]


def central_solve(instance: ProblemInstance, time_budget: float | None = None,
                  max_nodes: int = DEFAULT_MAX_NODES) -> CentralResult:
    """The proven K-means optimum of the merged data: the central baseline.

    The last search of :func:`suffix_lower_bounds` on the merged data proves
    it; the solution is :func:`evaluate_assignment`'s, with the gap to the
    proven bound as ``proof_gap``.  ``time_budget`` (seconds) and
    ``max_nodes`` cover all its searches; :class:`NodeLimitExceeded` names
    the proven bound when either runs out, with the trace rows reached as
    its ``trace``.  Rows before the last search have no incumbent (``inf``,
    gap 100 %).  ValueError for a budget that a run would refuse.
    """
    _check_max_nodes(max_nodes)
    if time_budget is not None and time_budget < 0:
        raise ValueError(f"time_budget must be at least 0, got {time_budget}")
    merged = NodeDataset(node_id=0, observations=instance.merged_observations())
    trace, explored = [], 0

    def on_progress(elapsed, ub, bound, nodes):
        nonlocal explored
        explored = nodes
        gap = 100.0 * max(0.0, ub - bound) / max(abs(ub), 1e-9) if ub < math.inf else 100.0
        trace.append((elapsed, ub, bound, gap))

    try:
        _, optimum = suffix_lower_bounds(merged, instance.K, instance.box, max_nodes=max_nodes,
                                         time_budget=time_budget, on_progress=on_progress)
    except NodeLimitExceeded as exc:
        exc.trace = tuple(trace)
        raise
    sub = LagrangianSubproblem(data=merged, K=instance.K, box=instance.box,
                               c=np.zeros((instance.K, instance.n_y)))
    solution = replace(evaluate_assignment(sub, optimum), proof_gap=trace[-1][3] / 100.0,
                       stats={"explored": explored})
    return CentralResult(solution=solution, trace=tuple(trace))
