"""Exact solver for one node's Lagrangian clustering subproblem.

For a fixed assignment of observations to clusters the continuous part of the
subproblem separates per cluster and per dimension, so the optimal
box-constrained centroid has a closed form.  The solver therefore
branch-and-bounds over assignments only: best-first search, branching on the
cluster of the next unassigned observation (observations ordered by decreasing
distance from the data mean), pruning against a Lloyd-style incumbent.

A node's bound is the closed-form minimum of each cluster over its assigned
observations plus a suffix bound: a lower bound on the plain K-means cost of
the unassigned ones.  The suffix bounds do not depend on the dual term, so
:func:`suffix_lower_bounds` computes them once per dataset, by repetitive
branch-and-bound over ever longer suffixes.

A search expands one node at a time, keeping per-cluster sums in Python
scalars, until its open heap holds ``_BATCH_AT`` nodes.  It then moves its open
nodes into numpy arrays and expands up to ``_BATCH`` of them per step, with
child bounds bit-identical to the scalar ones.  A batched step has a fixed
numpy overhead, so batching only pays for large searches: small ones, such
as the K=3 solves of the benchmark, never switch.  A full enumeration oracle
is provided for testing.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import BoundingBox, NodeDataset

__all__ = [
    "LagrangianSubproblem",
    "NodeLimitExceeded",
    "SubproblemSolution",
    "assignment_lower_bound",
    "brute_force_subproblem",
    "closed_form_centroid",
    "evaluate_assignment",
    "lloyd_incumbent",
    "relabel_to_reference",
    "solve_subproblem",
    "suffix_lower_bounds",
]


@dataclass(frozen=True)
class LagrangianSubproblem:
    """One node's clustering problem plus the dual linear term.

    ``c`` has shape (K, n_y); cluster k's objective contribution is
    sum_{j in C_k} ||y_j - m_k||^2 + c_k . m_k with m_k constrained to the box.
    """

    data: NodeDataset
    K: int
    box: BoundingBox
    c: np.ndarray
    reference: np.ndarray | None = None

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.shape != (self.K, self.data.n_y):
            raise ValueError(f"c must have shape ({self.K}, {self.data.n_y})")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)
        if self.reference is not None:
            ref = np.asarray(self.reference, dtype=float)
            if ref.shape != (self.K, self.data.n_y):
                raise ValueError("reference centroids must have shape (K, n_y)")
            object.__setattr__(self, "reference", ref)


@dataclass(frozen=True)
class SubproblemSolution:
    assignment: tuple[int, ...]
    centroids: np.ndarray               # (K, n_y)
    distances: np.ndarray               # squared distance to the assigned centroid
    lagrangian_value: float             # cluster_cost + sum_k c_k . m_k
    cluster_cost: float                 # sum of assigned squared distances
    proof_gap: float                    # relative branch-and-bound gap
    stats: dict = field(default_factory=dict)


class NodeLimitExceeded(RuntimeError):
    """Raised when branch-and-bound hits its node cap before proving optimality."""

    def __init__(self, incumbent: SubproblemSolution, lower_bound: float, explored: int,
                 where: str = ""):
        super().__init__(
            f"node limit reached after {explored} nodes{where} "
            f"(incumbent {incumbent.lagrangian_value:.6g}, bound {lower_bound:.6g})"
        )
        self.incumbent = incumbent
        self.lower_bound = lower_bound
        self.explored = explored


def closed_form_centroid(points: np.ndarray, c_k: np.ndarray, box: BoundingBox):
    """Optimal box-constrained centroid for one cluster and its objective.

    Non-empty cluster: the objective is a separable convex quadratic per
    dimension, so the unconstrained minimizer (sum(y) - c/2) / n clipped to the
    box is optimal.  Empty cluster: the objective is linear, minimized at a
    box corner (midpoint where the coefficient vanishes).
    """
    c_k = np.asarray(c_k, dtype=float)
    points = np.asarray(points, dtype=float).reshape(-1, c_k.shape[0])
    n = points.shape[0]
    if n == 0:
        m, value = _empty_cluster_min(c_k, box.lo, box.hi)
        return m, value
    s = points.sum(axis=0)
    q = float(np.sum(points * points))
    m, value = _cluster_min(n, s, q, c_k, box.lo, box.hi)
    return m, value


def _empty_cluster_min(c_k, lo, hi):
    m = np.where(c_k > 0, lo, np.where(c_k < 0, hi, 0.5 * (lo + hi)))
    return m, float(c_k @ m)


def _cluster_min(n, s, q, c_k, lo, hi):
    """Minimum of n*|m|^2 - 2 s.m + q + c.m over the box, with its argmin."""
    m = np.clip((s - 0.5 * c_k) / n, lo, hi)
    value = q + float(n * (m @ m) - 2.0 * (s @ m) + c_k @ m)
    return m, value


def evaluate_assignment(subproblem: LagrangianSubproblem, assignment) -> SubproblemSolution:
    """Exact solution value of a complete assignment via closed-form centroids."""
    assignment = tuple(int(a) for a in assignment)
    Y = subproblem.data.observations
    K, n_y = subproblem.K, subproblem.data.n_y
    if len(assignment) != Y.shape[0]:
        raise ValueError("assignment length must match the number of observations")
    if any(not 0 <= a < K for a in assignment):
        raise ValueError("assignment labels out of range")
    centroids = np.zeros((K, n_y))
    labels = np.asarray(assignment)
    cluster_cost = 0.0
    linear_cost = 0.0
    for k in range(K):
        pts = Y[labels == k]
        m_k, _ = closed_form_centroid(pts, subproblem.c[k], subproblem.box)
        centroids[k] = m_k
        cluster_cost += float(np.sum((pts - m_k) ** 2))
        linear_cost += float(subproblem.c[k] @ m_k)
    distances = np.sum((Y - centroids[labels]) ** 2, axis=1)
    return SubproblemSolution(
        assignment=assignment,
        centroids=centroids,
        distances=distances,
        lagrangian_value=cluster_cost + linear_cost,
        cluster_cost=cluster_cost,
        proof_gap=0.0,
        stats={"explored": 0},
    )


def assignment_lower_bound(subproblem: LagrangianSubproblem, partial_assignment) -> float:
    """Valid lower bound on every completion of a prefix assignment.

    Unassigned observations contribute nothing; assigned ones contribute the
    box-constrained closed-form minimum per cluster.  Assigning more points can
    only increase each cluster's minimum, so bounds grow monotonically down the
    search tree.
    """
    Y = subproblem.data.observations
    labels = np.asarray([int(a) for a in partial_assignment])
    bound = 0.0
    for k in range(subproblem.K):
        pts = Y[:len(labels)][labels == k] if len(labels) else Y[:0]
        _, value = closed_form_centroid(pts, subproblem.c[k], subproblem.box)
        bound += value
    return bound


def lloyd_incumbent(subproblem: LagrangianSubproblem, n_starts: int = 5, seed: int = 0) -> SubproblemSolution:
    """Multi-start Lloyd iteration; a feasible upper bound for branch-and-bound.

    The dual term does not depend on the assignment variables, so the
    assignment step uses pure squared distances; the centroid step uses the
    clipped closed-form centroid of :func:`closed_form_centroid`, including
    the dual coefficients.  A start that ends in the labels of an earlier
    start is not evaluated again.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    Y = subproblem.data.observations
    K, c, lo, hi = subproblem.K, subproblem.c, subproblem.box.lo, subproblem.box.hi
    empty = [_empty_cluster_min(c[k], lo, hi)[0] for k in range(K)]
    rng = np.random.default_rng(seed)
    best: SubproblemSolution | None = None
    evaluated = set()
    for _ in range(n_starts):
        idx = rng.choice(Y.shape[0], size=min(K, Y.shape[0]), replace=False)
        centroids = np.array([Y[idx[k % len(idx)]] for k in range(K)], dtype=float)
        labels = None
        for _ in range(100):
            d2 = np.sum((Y[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
            new_labels = np.argmin(d2, axis=1)
            if labels is not None and np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for k in range(K):
                pts = Y[labels == k]
                n = pts.shape[0]
                centroids[k] = empty[k] if n == 0 else np.clip((pts.sum(axis=0) - 0.5 * c[k]) / n, lo, hi)
        key = labels.tobytes()
        if key in evaluated:
            continue
        evaluated.add(key)
        candidate = evaluate_assignment(subproblem, labels)
        if best is None or candidate.lagrangian_value < best.lagrangian_value:
            best = candidate
    return best


_GAP_FLOOR = 1e-9  # denominator floor so a zero-cost optimum still yields gap 0


def _relative_gap(upper: float, lower: float) -> float:
    return max(0.0, upper - lower) / max(abs(upper), _GAP_FLOOR)


def solve_subproblem(
    subproblem: LagrangianSubproblem,
    rel_tol: float = 1e-9,
    max_nodes: int = 5_000_000,
    lloyd_starts: int = 5,
    lloyd_seed: int = 0,
    time_budget: float | None = None,
    on_progress=None,
    suffix_bounds=None,
) -> SubproblemSolution:
    """Proven global optimum of the node Lagrangian by best-first branch-and-bound.

    Branches on the cluster of the next unassigned observation, observations
    ordered by decreasing distance from the data mean (ties by index).  A node
    that has assigned the first d observations of that order is bounded by
    the per-cluster closed-form minima of its assigned observations (as in
    :func:`assignment_lower_bound`) plus ``suffix_bounds[d]``, a lower bound
    on the plain K-means cost of the unassigned ones (see
    :func:`suffix_lower_bounds`, which computes it once per dataset because it
    does not depend on the dual term).  ``None`` means no suffix bound (all
    zeros).  When all per-cluster dual coefficients coincide (e.g. the zero
    dual), cluster labels are interchangeable and symmetric branches are
    skipped.

    Raises :class:`NodeLimitExceeded` when ``max_nodes`` is hit.  A
    ``time_budget`` (seconds) instead returns the incumbent with its actual
    ``proof_gap``; ``on_progress(elapsed, incumbent, bound)`` is invoked on
    bound or incumbent improvements (used by the central baseline trace).
    """
    Y = subproblem.data.observations
    n_pts = Y.shape[0]
    if suffix_bounds is None:
        suffix_bounds = [0.0] * (n_pts + 1)
    elif len(suffix_bounds) != n_pts + 1:
        raise ValueError(f"suffix_bounds must have {n_pts + 1} entries, got {len(suffix_bounds)}")
    order = _branching_order(Y)
    tree = _Tree(Y[order], subproblem.K, subproblem.c, subproblem.box, [float(b) for b in suffix_bounds])

    incumbent = lloyd_incumbent(subproblem, n_starts=lloyd_starts, seed=lloyd_seed)
    start = time.perf_counter()

    def on_leaf(labels):
        nonlocal incumbent
        full = [0] * n_pts
        for pos, lab in zip(order, labels):
            full[pos] = lab
        incumbent = evaluate_assignment(subproblem, full)
        return incumbent.lagrangian_value

    def on_bound(lb):
        on_progress(time.perf_counter() - start, incumbent, lb)

    lb, explored, status = _best_first(
        tree, 0, incumbent.lagrangian_value, rel_tol, max_nodes, on_leaf,
        deadline=None if time_budget is None else start + time_budget,
        on_bound=None if on_progress is None else on_bound,
    )
    if status == "node_limit":
        raise NodeLimitExceeded(_finish(incumbent, lb, explored), lb, explored)
    return _finish(incumbent, lb, explored)


def suffix_lower_bounds(data: NodeDataset, K: int, box: BoundingBox,
                        max_nodes: int = 5_000_000) -> np.ndarray:
    """Dual-independent bounds ``sb[0..n]`` for :func:`solve_subproblem`.

    ``sb[d]`` is a proven lower bound on the plain K-means optimum (c = 0,
    centroids in the box) of the observations at branching positions
    d..n-1, and ``sb[n] = 0``.  It bounds what the unassigned observations
    add to any Lagrangian subproblem on ``data``: splitting each cluster's
    minimum into its assigned and unassigned parts charges the dual term to
    the assigned part, and what is left for the unassigned parts is at least
    their K-means optimum.

    Entries are computed from the last position back to the first by
    repetitive branch-and-bound (Brusco 2006; Koontz, Narendra & Fukunaga
    1975): the search over suffix d bounds its nodes with the entries already
    computed.  Each search runs to a zero gap, so a child is pruned only when
    its bound reaches the incumbent and the search's proven bound is the
    suffix optimum.  The searches share one ``max_nodes`` budget, like a
    single solve; :class:`NodeLimitExceeded` is raised when it runs out.
    """
    Y = data.observations
    n_pts, n_y = Y.shape
    Yo = Y[_branching_order(Y)]
    zero = np.zeros((K, n_y))
    sb = [0.0] * (n_pts + 1)
    tree = _Tree(Yo, K, zero, box, sb)
    best = ()  # optimal labels of the suffix d+1..n-1
    total = 0
    for d in range(n_pts - 1, -1, -1):
        # Incumbent: that assignment, extended by the cheapest label for d.
        found = min((tree.labels_value(d, (k,) + best), (k,) + best) for k in range(K))

        def on_leaf(labels):
            nonlocal found
            found = (tree.labels_value(d, labels), tuple(labels))
            return found[0]

        sb[d] = sb[d + 1]  # the root's bound until this entry is known
        lb, explored, status = _best_first(tree, d, found[0], 0.0, max_nodes - total, on_leaf)
        total += explored
        if status == "node_limit":
            suffix = LagrangianSubproblem(data=NodeDataset(data.node_id, Yo[d:]), K=K, box=box, c=zero)
            incumbent = evaluate_assignment(suffix, found[1])
            raise NodeLimitExceeded(_finish(incumbent, lb, total), lb, total,
                                    where=f" while bounding the K-means cost of positions {d}..{n_pts - 1}")
        sb[d] = max(sb[d + 1], lb)
        best = found[1]
    return np.array(sb)


def _branching_order(Y: np.ndarray) -> list[int]:
    """Observation indices by decreasing distance from the data mean, ties by index."""
    d2 = np.sum((Y - Y.mean(axis=0)) ** 2, axis=1)
    return np.argsort(-d2, kind="stable").tolist()


class _Tree:
    """Search-tree data: observations in branching order, their squared
    norms, per-cluster coefficients and suffix bounds, in plain Python floats
    for the scalar search and as arrays for the batched one.

    A scalar node holds one ``(count, sums, sumsq, value)`` tuple per cluster
    (see :func:`_add_point`); ``root`` is the tuple of empty clusters.
    """

    def __init__(self, Yo: np.ndarray, K: int, c: np.ndarray, box: BoundingBox, suffix_bounds):
        self.points = [tuple(row) for row in Yo.tolist()]
        self.sq = np.sum(Yo * Yo, axis=1).tolist()
        self.K = K
        self.sb = suffix_bounds
        self.symmetric = bool(np.all(c == c[0]))
        lo, hi = box.lo.tolist(), box.hi.tolist()
        self.coef = [tuple(zip([0.5 * v for v in row], row, lo, hi)) for row in c.tolist()]
        self.root = tuple((0, (0.0,) * Yo.shape[1], 0.0, _empty_cluster_min(c[k], box.lo, box.hi)[1])
                          for k in range(K))
        self.Yo, self.c, self.half_c, self.lo, self.hi = Yo, c, 0.5 * c, box.lo, box.hi

    def labels_value(self, start: int, labels) -> float:
        """Objective of labelling positions start..n-1 with ``labels``."""
        clusters = list(self.root)
        for d, k in enumerate(labels, start):
            clusters[k] = _add_point(clusters[k], self.points[d], self.sq[d], self.coef[k])
        return sum(cluster[3] for cluster in clusters)


def _add_point(cluster, y, y_sq: float, coef):
    """Cluster ``(count, sums, sumsq, value)`` after adding observation ``y``.

    ``count``, ``sums`` and ``sumsq`` are the number, coordinate sums and
    summed squared norms of the cluster's observations; ``value`` is its
    closed-form minimum, computed as :func:`_cluster_min` does but in
    scalars.  ``coef`` holds ``(c_i / 2, c_i, lo_i, hi_i)`` per coordinate.
    """
    count, sums, sumsq, _ = cluster
    count += 1
    sumsq += y_sq
    new_sums = []
    mm = sm = cm = 0.0
    for s, y_i, (h, c, lo, hi) in zip(sums, y, coef):
        s += y_i
        new_sums.append(s)
        m = (s - h) / count
        if m < lo:
            m = lo
        elif m > hi:
            m = hi
        mm += m * m
        sm += s * m
        cm += c * m
    return count, new_sums, sumsq, sumsq + (count * mm - 2.0 * sm + cm)


def _add_point_batch(tree: _Tree, stats: np.ndarray, y: np.ndarray, y_sq: np.ndarray) -> np.ndarray:
    """:func:`_add_point` for every cluster of many nodes at once.

    ``stats`` has shape (m, K, n_y + 3) and holds each cluster's ``count``,
    ``sums``, ``sumsq`` and ``value`` in that order; ``y`` (m, n_y) and
    ``y_sq`` (m,) are each node's next observation.  Returns the clusters'
    stats after adding it, bit-identical to :func:`_add_point`'s: the same
    operations run in the same order, coordinate by coordinate.  (The clip
    may change the sign of a zero centroid coordinate; the products it enters
    are added to sums that start at 0.0, so that changes no result.)
    """
    n_y = y.shape[1]
    new = np.empty_like(stats)
    count = np.add(stats[:, :, 0], 1.0, out=new[:, :, 0])
    sums = np.add(stats[:, :, 1:n_y + 1], y[:, None, :], out=new[:, :, 1:n_y + 1])
    sumsq = np.add(stats[:, :, n_y + 1], y_sq[:, None], out=new[:, :, n_y + 1])
    mm, sm, cm = np.zeros_like(count), np.zeros_like(count), np.zeros_like(count)
    for i in range(n_y):
        s = sums[:, :, i]
        m = np.minimum(np.maximum((s - tree.half_c[:, i]) / count, tree.lo[i]), tree.hi[i])
        mm += m * m
        sm += s * m
        cm += tree.c[:, i] * m
    new[:, :, n_y + 2] = sumsq + (count * mm - 2.0 * sm + cm)
    return new


# A search expands one node at a time until its open heap holds _BATCH_AT
# nodes, then up to _BATCH nodes per numpy step; _FRONT sizes the sorted front
# of _OpenNodes.  A step has a fixed numpy cost of a few hundred microseconds,
# so batching a small search loses.  On the seed-0 benchmark subproblems
# batching every search made the 900 K=3 solves 1.7 -> 2.5 s and their suffix
# bounds about 9x slower; with the switch at 128 open nodes those searches
# never switch, while the 18 K=4 solves took 0.4 s instead of 4.0 s.
_BATCH_AT = 128
_BATCH = 256
_FRONT = 1024


def _best_first(tree: _Tree, start: int, ub: float, rel_tol: float, max_nodes: int,
                on_leaf, deadline: float | None = None, on_bound=None):
    """Best-first branch-and-bound over the labels of positions start..n-1.

    ``ub`` is the incumbent's value.  ``on_leaf(labels)`` receives every leaf
    whose bound is below the incumbent and returns that assignment's value,
    the new incumbent.  ``on_bound(lb)`` is called when the proven bound or
    the incumbent improves.  Returns ``(lower_bound, explored, status)``,
    status being "optimal" (gap <= rel_tol proven), "node_limit" or "time".

    Nodes are popped in ``(bound, tiebreak)`` order, the tiebreak numbering
    children as they are pushed.  The proven bound is the least bound of any
    node not yet ruled out: the popped node, the nodes pruned for reaching
    the stop threshold (``dropped``; with ``rel_tol`` > 0 they may lie below
    the incumbent) and the incumbent itself.

    Small searches run one node at a time on Python scalars.  Once the open
    heap holds ``_BATCH_AT`` nodes the search continues in
    :func:`_best_first_batched`, which expands up to ``_BATCH`` nodes per
    step with the same child bounds, bit for bit.  Its batches may expand a
    few nodes that the one-at-a-time order would have pruned, so ``explored``
    can be slightly larger; the proven bound and the stop rule are the same.
    """
    points, sq, coef, sb = tree.points, tree.sq, tree.coef, tree.sb
    n, K, symmetric = len(points), tree.K, tree.symmetric
    add_point, push, pop = _add_point, heapq.heappush, heapq.heappop
    tiebreak = 0
    threshold = ub - rel_tol * max(abs(ub), _GAP_FLOOR)
    dropped = math.inf
    explored = 0

    # Heap entries: (bound, tiebreak, depth, labels, labels used, sum of
    # cluster values, clusters); labels is a linked list (label, parent labels).
    pc_sum = sum(cluster[3] for cluster in tree.root)
    heap = [(pc_sum + sb[start], tiebreak, start, None, 0, pc_sum, tree.root)]
    best_lb = heap[0][0]
    if on_bound is not None:
        on_bound(best_lb)
    while heap:
        if len(heap) >= _BATCH_AT:
            return _best_first_batched(tree, heap, tiebreak, ub, rel_tol, dropped, best_lb, explored,
                                       max_nodes, on_leaf, deadline, on_bound)
        bound, _, depth, labels, used, pc_sum, clusters = pop(heap)
        if bound >= threshold:
            # Gap <= rel_tol proven.  The optimum is at most the incumbent,
            # so a larger bound proves no more than the incumbent's value.
            best_lb = max(best_lb, min(bound, dropped, ub))
            if on_bound is not None:
                on_bound(best_lb)
            return best_lb, explored, "optimal"
        if min(bound, dropped) > best_lb:
            best_lb = min(bound, dropped)
            if on_bound is not None:
                on_bound(best_lb)
        if depth == n:
            if bound < ub:  # leaf bound is the exact assignment value
                path = []
                while labels is not None:
                    k, labels = labels
                    path.append(k)
                ub = on_leaf(path[::-1])
                threshold = ub - rel_tol * max(abs(ub), _GAP_FLOOR)
                if on_bound is not None:
                    on_bound(best_lb)
            continue
        explored += 1
        if explored >= max_nodes:
            return best_lb, explored, "node_limit"
        if deadline is not None and time.perf_counter() > deadline:
            return best_lb, explored, "time"
        y, y_sq, below = points[depth], sq[depth], sb[depth + 1]
        for k in range(min(K, used + 1) if symmetric else K):
            cluster = clusters[k]
            new = add_point(cluster, y, y_sq, coef[k])
            child_sum = pc_sum - cluster[3] + new[3]
            child_bound = child_sum + below
            if child_bound < threshold:
                tiebreak += 1
                push(heap, (child_bound, tiebreak, depth + 1, (k, labels), used if used > k else k + 1,
                            child_sum, clusters[:k] + (new,) + clusters[k + 1:]))
            elif child_bound < dropped:
                dropped = child_bound
    best_lb = max(best_lb, min(dropped, ub))  # search space exhausted
    if on_bound is not None:
        on_bound(best_lb)
    return best_lb, explored, "optimal"


class _OpenNodes:
    """Open nodes of a batched search in arrays, indexed by slot, and their
    order.

    A slot holds a node's bound and tiebreak, its clusters' stats (see
    :func:`_add_point_batch`), the sum of its cluster values, and its
    ``(depth, labels used, label, parent record)``; the search root's label
    is -1.  A record is the ``(parent record, label)`` pair of an expanded
    node, kept until the search ends so that a leaf's labels can be rebuilt;
    record -1 is the search root.  Slots of removed nodes are reused.

    The open slots are split at ``cut``: ``front`` holds those with bound
    <= ``cut``, sorted by ``(bound, tiebreak)``, and ``back`` the rest,
    unsorted.  When the front runs short, the ``_FRONT`` least bounds of the
    back move to it; when it grows past ``4 * _FRONT``, its tail moves back.
    """

    def __init__(self, K: int, n_y: int, capacity: int):
        self.bound = np.empty(0)
        self.tick = np.empty(0, dtype=np.int64)
        self.stats = np.empty((0, K, n_y + 3))
        self.pc_sum = np.empty(0)
        self.node = np.empty((0, 4), dtype=np.intp)
        self.free_slots = np.empty(0, dtype=np.intp)
        self.n_free = 0
        self._grow(capacity)
        self.records = np.empty((capacity, 2), dtype=np.intp)
        self.n_records = 0
        self.front = np.empty(0, dtype=np.intp)
        self.back = np.empty(capacity, dtype=np.intp)
        self.n_back = 0
        self.cut = -math.inf

    def _grow(self, capacity: int) -> None:
        old = self.bound.shape[0]
        for name in ("bound", "tick", "stats", "pc_sum", "node"):
            array = getattr(self, name)
            grown = np.empty((capacity,) + array.shape[1:], dtype=array.dtype)
            grown[:old] = array
            setattr(self, name, grown)
        free = np.empty(capacity, dtype=np.intp)
        free[:self.n_free] = self.free_slots[:self.n_free]
        free[self.n_free:self.n_free + capacity - old] = np.arange(old, capacity)
        self.free_slots = free
        self.n_free += capacity - old

    def alloc(self, m: int) -> np.ndarray:
        """``m`` free slots."""
        if m > self.n_free:
            size = self.bound.shape[0]
            self._grow(max(2 * size, size + m - self.n_free))
        self.n_free -= m
        return self.free_slots[self.n_free:self.n_free + m].copy()

    def release(self, slots: np.ndarray) -> None:
        m = len(slots)
        self.free_slots[self.n_free:self.n_free + m] = slots
        self.n_free += m

    def add_records(self, pairs: np.ndarray) -> np.ndarray:
        """Ids of new records, one per ``(parent record, label)`` row of ``pairs``."""
        m = len(pairs)
        if self.n_records + m > len(self.records):
            grown = np.empty((max(2 * len(self.records), self.n_records + m), 2), dtype=np.intp)
            grown[:self.n_records] = self.records[:self.n_records]
            self.records = grown
        self.records[self.n_records:self.n_records + m] = pairs
        self.n_records += m
        return np.arange(self.n_records - m, self.n_records)

    def labels_of(self, slot: int) -> list[int]:
        """Labels from the search root down to the node in ``slot``."""
        _, _, label, record = self.node[slot].tolist()
        path = [label]
        while record >= 0:
            record, label = self.records[record].tolist()
            path.append(label)
        return path[::-1]

    def push(self, slots: np.ndarray) -> None:
        """Open the nodes in ``slots``, whose tiebreaks exceed every open one's
        and increase along ``slots``."""
        bound = self.bound[slots]
        near = bound <= self.cut
        self._to_back(slots[~near])
        if near.any():
            # Stable sorts by bound keep the tiebreak order among equal bounds.
            new = slots[near][np.argsort(bound[near], kind="stable")]
            front = np.concatenate((self.front, new))
            self.front = front[np.argsort(self.bound[front], kind="stable")]
            if len(self.front) > 4 * _FRONT:
                self.cut = self.bound[self.front[_FRONT - 1]]
                keep = np.searchsorted(self.bound[self.front], self.cut, side="right")
                self._to_back(self.front[keep:])
                self.front = self.front[:keep]

    def top(self, m: int) -> np.ndarray:
        """Up to ``m`` open slots with the least ``(bound, tiebreak)``, in order."""
        if len(self.front) < m and self.n_back:
            back = self.back[:self.n_back]
            bound = self.bound[back]
            if self.n_back > _FRONT:
                self.cut = np.partition(bound, _FRONT - 1)[_FRONT - 1]
                near = bound <= self.cut
            else:
                self.cut, near = math.inf, np.ones(self.n_back, dtype=bool)
            front = np.concatenate((self.front, back[near]))
            rest = back[~near]
            self.back[:len(rest)] = rest
            self.n_back = len(rest)
            self.front = front[np.lexsort((self.tick[front], self.bound[front]))]
        return self.front[:m]

    def remove_top(self, removed: np.ndarray) -> None:
        """Take the nodes flagged in ``removed`` off the front's head and free their slots."""
        head = self.front[:len(removed)]
        self.release(head[removed])
        self.front = np.concatenate((head[~removed], self.front[len(removed):]))

    def _to_back(self, slots: np.ndarray) -> None:
        m = len(slots)
        if self.n_back + m > len(self.back):
            self.back = np.resize(self.back, max(2 * len(self.back), self.n_back + m))
        self.back[self.n_back:self.n_back + m] = slots
        self.n_back += m

    @classmethod
    def from_heap(cls, heap: list, K: int, n_y: int) -> "_OpenNodes":
        """Store holding the nodes of a scalar search's heap."""
        store = cls(K, n_y, max(1024, 4 * len(heap)))
        slots = store.alloc(len(heap))
        records, pairs = {}, []

        def record_of(linked):  # record of a labels linked list, created on first use
            chain = []
            while linked is not None and id(linked) not in records:
                chain.append(linked)
                linked = linked[1]
            record = -1 if linked is None else records[id(linked)]
            for node in reversed(chain):
                pairs.append((record, node[0]))
                record = records[id(node)] = len(pairs) - 1
            return record

        for slot, (bound, tick, depth, linked, used, pc_sum, clusters) in zip(slots.tolist(), heap):
            store.bound[slot], store.tick[slot], store.pc_sum[slot] = bound, tick, pc_sum
            store.stats[slot] = [(count, *sums, sumsq, value) for count, sums, sumsq, value in clusters]
            label, parent = (-1, -1) if linked is None else (linked[0], record_of(linked[1]))
            store.node[slot] = depth, used, label, parent
        if pairs:
            store.add_records(np.array(pairs))
        store._to_back(slots)
        return store


def _best_first_batched(tree: _Tree, heap: list, tiebreak: int, ub: float, rel_tol: float,
                        dropped: float, best_lb: float, explored: int, max_nodes: int,
                        on_leaf, deadline, on_bound):
    """Continue :func:`_best_first` from a scalar search's open ``heap``,
    expanding up to ``_BATCH`` nodes per step.

    Each step takes the open nodes in ``(bound, tiebreak)`` order until it
    has ``_BATCH`` of them or their bound reaches the stop threshold.  A leaf
    among them goes to ``on_leaf`` in that order, and the nodes after it that
    reach the lowered threshold stay open.  The others are expanded
    together: their children's bounds come from :func:`_add_point_batch`,
    and the children below the threshold are opened with tiebreaks in
    (parent, label) order.  The bound proven when a step starts is the least
    open bound, that of its first node.
    """
    K, (n, n_y) = tree.K, tree.Yo.shape
    Yo, sq, sb = tree.Yo, np.array(tree.sq), np.array(tree.sb)
    labels_k = np.arange(K)
    store = _OpenNodes.from_heap(heap, K, n_y)
    threshold = ub - rel_tol * max(abs(ub), _GAP_FLOOR)
    while True:
        top = store.top(_BATCH)
        bound = store.bound[top]
        if not len(top) or bound[0] >= threshold:
            # Gap <= rel_tol proven, or the search space is exhausted.
            best_lb = max(best_lb, min(float(bound[0]) if len(top) else math.inf, dropped, ub))
            if on_bound is not None:
                on_bound(best_lb)
            return best_lb, explored, "optimal"
        if min(bound[0], dropped) > best_lb:
            best_lb = min(float(bound[0]), dropped)
            if on_bound is not None:
                on_bound(best_lb)
        taken = int(np.searchsorted(bound, threshold))
        node = store.node[top]
        leaf = node[:, 0] == n
        removed = np.zeros(len(top), dtype=bool)
        for i in np.flatnonzero(leaf[:taken]).tolist():
            if i >= taken:
                break
            removed[i] = True  # a leaf below the threshold is below ub
            ub = on_leaf(store.labels_of(top[i]))
            threshold = ub - rel_tol * max(abs(ub), _GAP_FLOOR)
            taken = min(taken, int(np.searchsorted(bound, threshold)))
            if on_bound is not None:
                on_bound(best_lb)
        expand = np.zeros(len(top), dtype=bool)
        expand[:taken] = ~leaf[:taken]
        slots, node = top[expand], node[expand]
        m = len(slots)
        if m and explored + m >= max_nodes:
            return best_lb, max_nodes, "node_limit"
        explored += m
        if m and deadline is not None and time.perf_counter() > deadline:
            return best_lb, explored, "time"
        stats, pc_sum = store.stats[slots], store.pc_sum[slots]
        store.remove_top(removed | expand)
        if not m:
            continue

        depth, used = node[:, 0], node[:, 1]
        records = store.add_records(node[:, 3:1:-1])
        records[node[:, 2] < 0] = -1  # the search root has no label
        added = _add_point_batch(tree, stats, Yo[depth], sq[depth])
        child_sum = pc_sum[:, None] - stats[:, :, -1] + added[:, :, -1]
        child_bound = child_sum + sb[depth + 1][:, None]
        below = child_bound < threshold
        if tree.symmetric:
            valid = labels_k[None, :] <= used[:, None]
            pruned, below = valid & ~below, valid & below
        else:
            pruned = ~below
        if pruned.any():
            dropped = min(dropped, float(child_bound[pruned].min()))
        rows, ks = np.nonzero(below)
        m = len(rows)
        if not m:
            continue
        children = store.alloc(m)
        child_stats = stats[rows]  # the parent's clusters, with cluster k replaced
        child_stats[np.arange(m), ks] = added[rows, ks]
        store.stats[children] = child_stats
        store.bound[children] = child_bound[rows, ks]
        store.pc_sum[children] = child_sum[rows, ks]
        store.tick[children] = np.arange(tiebreak + 1, tiebreak + 1 + m)
        tiebreak += m
        store.node[children] = np.stack((depth[rows] + 1, np.maximum(used[rows], ks + 1), ks, records[rows]),
                                        axis=1)
        store.push(children)


def _finish(incumbent: SubproblemSolution, lb: float, explored: int) -> SubproblemSolution:
    stats = dict(incumbent.stats)
    stats["explored"] = explored
    return SubproblemSolution(
        assignment=incumbent.assignment,
        centroids=incumbent.centroids,
        distances=incumbent.distances,
        lagrangian_value=incumbent.lagrangian_value,
        cluster_cost=incumbent.cluster_cost,
        proof_gap=_relative_gap(incumbent.lagrangian_value, lb),
        stats=stats,
    )


def brute_force_subproblem(subproblem: LagrangianSubproblem) -> SubproblemSolution:
    """Exact optimum by full enumeration of assignments (test oracle)."""
    Y = subproblem.data.observations
    n_pts, n_y = Y.shape
    K = subproblem.K
    n_assign = K ** n_pts
    if n_assign > 10 ** 7:
        raise ValueError(f"enumeration guard: K^J = {n_assign} exceeds 1e7")
    lo, hi = subproblem.box.lo, subproblem.box.hi
    ysq = np.sum(Y * Y, axis=1)

    # All assignments as an (n_assign, n_pts) label matrix, evaluated vectorized.
    grids = np.indices((K,) * n_pts).reshape(n_pts, -1).T
    total = np.zeros(n_assign)
    for k in range(K):
        mask = grids == k
        counts = mask.sum(axis=1)
        S = mask.astype(float) @ Y
        q = mask.astype(float) @ ysq
        c_k = subproblem.c[k]
        with np.errstate(divide="ignore", invalid="ignore"):
            m = np.clip((S - 0.5 * c_k) / counts[:, None], lo, hi)
        cost = q + counts * np.sum(m * m, axis=1) - 2.0 * np.sum(S * m, axis=1) + m @ c_k
        empty = counts == 0
        if empty.any():
            cost[empty] = _empty_cluster_min(c_k, lo, hi)[1]
        total += cost
    best = int(np.argmin(total))
    return evaluate_assignment(subproblem, grids[best])


def relabel_to_reference(solution: SubproblemSolution, reference: np.ndarray,
                         subproblem: LagrangianSubproblem) -> SubproblemSolution:
    """Permute cluster labels to best match a reference centroid set.

    Chooses the permutation minimizing the total squared centroid-to-reference
    distance (exhaustive over K! for the small K used here) and recomputes the
    Lagrangian value under the new labels.  ``stats['dominance_ok']`` records
    whether the resulting labeling makes each cluster the closest one to its
    reference centroid.
    """
    reference = np.asarray(reference, dtype=float)
    K = solution.centroids.shape[0]
    if reference.shape != solution.centroids.shape:
        raise ValueError("reference must have shape (K, n_y)")
    if K > 8:
        raise ValueError("exhaustive relabeling supports K <= 8")
    d2 = np.sum((solution.centroids[:, None, :] - reference[None, :, :]) ** 2, axis=2)
    best_perm, best_cost = None, math.inf
    for perm in itertools.permutations(range(K)):
        cost = sum(d2[perm[k], k] for k in range(K))
        if cost < best_cost - 1e-15:
            best_perm, best_cost = perm, cost
    # New label k takes the old cluster best_perm[k].
    inverse = [0] * K
    for k in range(K):
        inverse[best_perm[k]] = k
    new_assignment = [inverse[a] for a in solution.assignment]
    relabeled = evaluate_assignment(subproblem, new_assignment)
    D = np.sum((relabeled.centroids[:, None, :] - reference[None, :, :]) ** 2, axis=2)
    dominance_ok = bool(np.all(np.diag(D) <= D.min(axis=0) + 1e-12))
    stats = dict(relabeled.stats)
    stats.update(solution.stats)
    stats["dominance_ok"] = dominance_ok
    return SubproblemSolution(
        assignment=relabeled.assignment,
        centroids=relabeled.centroids,
        distances=relabeled.distances,
        lagrangian_value=relabeled.lagrangian_value,
        cluster_cost=relabeled.cluster_cost,
        proof_gap=solution.proof_gap,
        stats=stats,
    )
