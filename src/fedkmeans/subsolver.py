"""Exact solver for one node's Lagrangian clustering subproblem.

For a fixed assignment of observations to clusters the continuous part of the
subproblem separates per cluster and per dimension, so the optimal
box-constrained centroid has a closed form.  The solver therefore
branch-and-bounds over assignments only: best-first search, branching on the
cluster of the next unassigned observation (observations in the farthest-first
order of :func:`branching_order`), pruning against one incumbent: a given
start assignment relabelled to its least value under the dual term, or else
none until the first leaf.  A search proves its optimum exactly, and it
keeps no state between calls.

A node's bound is the closed-form minimum of each cluster over its assigned
observations plus a suffix bound: a lower bound on the plain K-means cost of
the unassigned ones.  The suffix bounds do not depend on the dual term, so
:func:`suffix_lower_bounds` computes them once per dataset, by repetitive
branch-and-bound over ever longer suffixes.  Its last search proves the plain
K-means optimum of the whole dataset, which it returns as the start for the
dataset's solves and as the central optimum of a merged dataset.  A
:class:`SearchTemplate` holds the bounds, the start and everything else a
search over the dataset needs that no dual term changes, so a caller that
solves one dataset under many dual terms builds them once.

A search expands one node at a time, keeping per-cluster sums in Python
scalars and valuing each child with a kernel unrolled for the data's
dimension, until its open heap holds ``_BATCH_AT`` nodes.  It then moves its
open nodes into numpy arrays, each with a row of its labels, and expands up
to ``_BATCH`` of them per step, with child bounds bit-identical to the
scalar ones.  A batched step has a fixed numpy overhead, so batching only pays for
large searches: small ones, such as the K=3 solves of the benchmark, never
switch.  A full enumeration oracle is provided for testing.
"""

from __future__ import annotations

import functools
import heapq
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import BoundingBox, NodeDataset

__all__ = [
    "DEFAULT_MAX_NODES",
    "LagrangianSubproblem",
    "NodeLimitExceeded",
    "SearchTemplate",
    "SubproblemSolution",
    "branching_order",
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

    ``c`` is a finite (K, n_y) array; cluster k's objective contribution is
    sum_{j in C_k} ||y_j - m_k||^2 + c_k . m_k with m_k constrained to the box.
    """

    data: NodeDataset
    K: int
    box: BoundingBox
    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.shape != (self.K, self.data.n_y) or not np.isfinite(c).all():
            raise ValueError(f"c must be a finite ({self.K}, {self.data.n_y}) array")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)


@dataclass(frozen=True)
class SubproblemSolution:
    assignment: tuple[int, ...]
    centroids: np.ndarray               # (K, n_y)
    lagrangian_value: float             # cluster_cost + sum_k c_k . m_k
    cluster_cost: float                 # sum of assigned squared distances
    proof_gap: float                    # relative branch-and-bound gap
    stats: dict = field(default_factory=dict)


# Default node cap of a search; RunConfig and central_solve take theirs from here.
DEFAULT_MAX_NODES = 5_000_000


class NodeLimitExceeded(RuntimeError):
    """Raised when branch-and-bound runs out of its node cap or, as ``limit``
    says, its time budget before proving optimality.  ``lower_bound`` is
    proven; ``incumbent`` is None if the search had none."""

    def __init__(self, incumbent: SubproblemSolution | None, lower_bound: float, explored: int,
                 where: str = "", limit: str = "node limit"):
        found = "no incumbent" if incumbent is None else f"incumbent {incumbent.lagrangian_value:.6g}"
        super().__init__(f"{limit} reached after {explored} nodes{where} "
                         f"({found}, proven lower bound {lower_bound:.6g})")
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
    m = _centroid(points, c_k, box.lo, box.hi)
    n = points.shape[0]
    if n == 0:
        return m, float(c_k @ m)
    # n*|m|^2 - 2 s.m + q + c.m at m, with s and q the sum and squared norm of the points.
    s = points.sum(axis=0)
    q = float(np.sum(points * points))
    return m, q + float(n * (m @ m) - 2.0 * (s @ m) + c_k @ m)


def _centroid(points: np.ndarray, c_k: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """:func:`closed_form_centroid`'s centroid of ``points`` (an (n, n_y) array)."""
    n = points.shape[0]
    if n == 0:
        return np.where(c_k > 0, lo, np.where(c_k < 0, hi, 0.5 * (lo + hi)))
    return np.clip((points.sum(axis=0) - 0.5 * c_k) / n, lo, hi)


def evaluate_assignment(subproblem: LagrangianSubproblem, assignment) -> SubproblemSolution:
    """Exact solution value of a complete assignment via closed-form centroids.

    Each centroid is :func:`closed_form_centroid`'s, computed without the
    cluster minimum that this function does not use.
    """
    assignment = _checked_assignment(assignment, subproblem.data.n_points, subproblem.K)
    return _solution(subproblem, assignment, _parts(subproblem, assignment))


def _checked_assignment(assignment, n_points: int, K: int) -> tuple[int, ...]:
    """``assignment`` as a tuple of ints; ValueError unless it labels each of
    ``n_points`` observations with one of the K clusters."""
    assignment = tuple(map(int, assignment))
    if len(assignment) != n_points:
        raise ValueError("assignment length must match the number of observations")
    if assignment and (min(assignment) < 0 or max(assignment) >= K):
        raise ValueError("assignment labels out of range")
    return assignment


def _parts(subproblem: LagrangianSubproblem, assignment: tuple[int, ...]) -> list[np.ndarray]:
    """The observations of each cluster of ``assignment``, in cluster order."""
    labels = np.asarray(assignment)
    return [subproblem.data.observations[labels == k] for k in range(subproblem.K)]


def _solution(subproblem: LagrangianSubproblem, assignment: tuple[int, ...], parts, centroids=None,
              proof_gap: float = 0.0, explored: int = 0) -> SubproblemSolution:
    """Solution of ``assignment``, whose clusters hold the observations in
    ``parts``, in cluster order.  ``centroids`` are their closed-form
    centroids, computed here when None."""
    if centroids is None:
        c, lo, hi = subproblem.c, subproblem.box.lo, subproblem.box.hi
        centroids = np.array([_centroid(part, c_k, lo, hi) for part, c_k in zip(parts, c)])
    cluster_cost = 0.0
    linear_cost = 0.0
    for part, m_k, c_k in zip(parts, centroids, subproblem.c):
        cluster_cost += float(np.sum((part - m_k) ** 2))  # 0.0 for an empty cluster
        linear_cost += float(c_k @ m_k)
    return SubproblemSolution(
        assignment=assignment,
        centroids=centroids,
        lagrangian_value=cluster_cost + linear_cost,
        cluster_cost=cluster_cost,
        proof_gap=proof_gap,
        stats={"explored": explored},
    )


def lloyd_incumbent(subproblem: LagrangianSubproblem, order) -> SubproblemSolution:
    """One Lloyd descent, a heuristic upper bound; no search runs it.

    It starts from the observations at the first K positions of ``order``
    (``order[k % n]`` when n < K).  The assignment step uses pure squared
    distances, since the dual term does not depend on the assignment; the
    centroid step uses :func:`closed_form_centroid`'s clipped centroid.  The
    result is valued bit for bit as :func:`evaluate_assignment` values its
    labels.
    """
    Y = subproblem.data.observations
    K, c, lo, hi = subproblem.K, subproblem.c, subproblem.box.lo, subproblem.box.hi
    centroids = Y[[order[k % len(order)] for k in range(K)]]
    labels = None
    for _ in range(100):
        d2 = np.sum((Y[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(d2, axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        parts = [Y[labels == k] for k in range(K)]
        for k in range(K):
            centroids[k] = _centroid(parts[k], c[k], lo, hi)
    return _solution(subproblem, tuple(labels.tolist()), parts, centroids)


_GAP_FLOOR = 1e-9  # denominator floor so a zero-cost optimum still yields gap 0


def _relative_gap(upper: float, lower: float) -> float:
    return max(0.0, upper - lower) / max(abs(upper), _GAP_FLOOR)


def solve_subproblem(
    subproblem: LagrangianSubproblem,
    max_nodes: int = DEFAULT_MAX_NODES,
    suffix_bounds=None,
    order=None,
    start=None,
    template: SearchTemplate | None = None,
) -> SubproblemSolution:
    """Proven global optimum of the node Lagrangian by best-first branch-and-bound.

    Branches on the cluster of the next unassigned observation, observations
    taken in ``order``, by default the farthest-first :func:`branching_order`
    of the data.  A node that has assigned the first d observations of that
    order is bounded by the per-cluster closed-form minima of its assigned
    observations plus ``suffix_bounds[d]``, a lower bound on the plain
    K-means cost of the unassigned ones (see :func:`suffix_lower_bounds`,
    which computes it once per dataset because it does not depend on the
    dual term; it must be given the same order).  ``None`` means no suffix
    bound (all zeros).  When all per-cluster dual coefficients coincide (e.g.
    the zero dual), cluster labels are interchangeable and symmetric branches
    are skipped.

    The search starts from ``start``, a complete assignment such as the
    plain K-means optimum that :func:`suffix_lower_bounds` returns,
    relabelled to its least value under ``c`` when its rows differ (its
    parts keep their observations); without one it has no incumbent until
    its first leaf.  Incumbents are valued by :meth:`_Tree.labels_value`,
    the kernel of the bounds; the reply is :func:`evaluate_assignment`'s
    solution of the last one, with the gap between its kernel value and the
    proven bound as ``proof_gap``, which is 0 for a finished search.  The
    optimum is exact, so the start changes what the search prunes, not what
    it returns, except at an exact tie.  A solve keeps no state between
    calls.

    ``template``, a :class:`SearchTemplate` of the subproblem's data, K and
    box, takes the place of ``suffix_bounds``, ``order`` and ``start``: a
    caller that solves the same data under many dual terms builds it once.
    Without one the solve builds its own, so every solve runs the same
    search and returns the same bits either way.

    Raises :class:`NodeLimitExceeded` when ``max_nodes`` is hit.
    """
    if template is None:
        template = SearchTemplate(subproblem.data, subproblem.K, subproblem.box, suffix_bounds, order, start)
    elif suffix_bounds is not None or order is not None or start is not None:
        raise ValueError("give a template or its suffix bounds, order and start, not both")
    elif template.data is not subproblem.data or template.K != subproblem.K or template.box is not subproblem.box:
        raise ValueError("the template was built for other data, K or box than the subproblem's")
    tree = _Tree(template, subproblem.c)
    new_label, value = (None, math.inf) if template.parts is None else tree.relabelled_start()
    labels = None  # the incumbent's labels in branching order, once a leaf beats the start

    def on_leaf(leaf):
        # A leaf's bound, a running sum, may lie a rounding error below its value.
        nonlocal labels, value
        leaf_value = tree.labels_value(0, leaf)
        if leaf_value < value:
            labels, value = leaf, leaf_value
        return value

    lb, explored, status = _best_first(tree, 0, value, max_nodes, on_leaf)
    if labels is not None:
        solution = _finish(subproblem, [labels[pos] for pos in template.position], value, lb, explored)
    elif new_label is not None:
        solution = template.start_solution(subproblem, new_label, value, lb, explored)
    else:
        solution = None
    if status == "node_limit":
        raise NodeLimitExceeded(solution, lb, explored)
    return solution


def suffix_lower_bounds(data: NodeDataset, K: int, box: BoundingBox, max_nodes: int = DEFAULT_MAX_NODES, order=None,
                        time_budget: float | None = None, on_progress=None) -> tuple[np.ndarray, tuple[int, ...]]:
    """Dual-independent bounds ``sb[0..n]`` for :func:`solve_subproblem`, and
    the plain K-means optimum that the last of their searches proves.

    ``sb[d]`` is a proven lower bound on the plain K-means optimum (c = 0,
    centroids in the box) of the observations at positions d..n-1 of the
    branching ``order`` (by default :func:`branching_order`'s), and
    ``sb[n] = 0``.  It bounds what the unassigned observations
    add to any Lagrangian subproblem on ``data``: splitting each cluster's
    minimum into its assigned and unassigned parts charges the dual term to
    the assigned part, and what is left for the unassigned parts is at least
    their K-means optimum.

    Entries are computed from the last position back to the first by
    repetitive branch-and-bound (Brusco 2006; Koontz, Narendra & Fukunaga
    1975): the search over suffix d bounds its nodes with the entries already
    computed.  Each search runs to a zero gap, so a child is pruned only when
    its bound reaches the incumbent and the search's proven bound is the
    suffix optimum.  The searches share one ``max_nodes`` budget and one
    ``time_budget`` in seconds; :class:`NodeLimitExceeded` is raised with the
    bound proven so far when either runs out.

    The search over the whole order (d = 0) proves the K-means optimum of
    all observations.  It is returned as a complete assignment, observation
    by observation, with labels numbered by first appearance along the
    order, as the symmetric search labels its leaves; it can start a
    :func:`solve_subproblem` search as its ``start``.

    ``on_progress(elapsed, incumbent_value, bound, explored)`` is called when
    a search's bound or incumbent improves; ``bound`` is a non-decreasing
    lower bound on the optimum of all observations, and ``incumbent_value``
    is ``math.inf`` until the last search starts.
    """
    template = SearchTemplate(data, K, box, order=order)
    n_pts, Yo, order = len(template.points), template.Yo, template.order
    sb = template.sb  # the searches read the entries as they are set
    zero = np.zeros((K, data.n_y))
    tree = _Tree(template, zero)
    best = ()  # optimal labels of the suffix d+1..n-1
    total = 0
    started = time.perf_counter()
    deadline = None if time_budget is None else started + time_budget
    for d in range(n_pts - 1, -1, -1):
        # Incumbent: that assignment, extended by the cheapest label for d.
        values = tree.extension_values(d, best)
        found = min((values[k], (k,) + best) for k in range(K))

        def on_leaf(labels):
            nonlocal found
            found = (tree.labels_value(d, labels), tuple(labels))
            return found[0]

        def on_bound(lb, explored):
            on_progress(time.perf_counter() - started, found[0] if d == 0 else math.inf, lb, total + explored)

        sb[d] = sb[d + 1]  # the root's bound until this entry is known
        lb, explored, status = _best_first(tree, d, found[0], max_nodes - total, on_leaf, deadline,
                                           None if on_progress is None else on_bound)
        total += explored
        if status != "optimal":
            suffix = LagrangianSubproblem(data=NodeDataset(data.node_id, Yo[d:]), K=K, box=box, c=zero)
            raise NodeLimitExceeded(_finish(suffix, found[1], found[0], lb, total), lb, total,
                                    where=f" while bounding the K-means cost of positions {d}..{n_pts - 1}",
                                    limit=f"time budget of {time_budget:g} s" if status == "time" else "node limit")
        sb[d] = max(sb[d + 1], lb)
        best = found[1]
    optimum = [0] * n_pts
    first_seen: dict[int, int] = {}
    for pos, k in zip(order, best):
        optimum[pos] = first_seen.setdefault(k, len(first_seen))
    return np.array(sb), tuple(optimum)


def branching_order(Y: np.ndarray) -> list[int]:
    """Observation indices in farthest-first order (Gonzalez 1985).

    Position 0 is the observation farthest from the data mean; each next
    position is the unplaced observation farthest from its nearest placed
    one, all distances squared Euclidean and ties going to the lowest index.
    Branching first on observations that lie far apart puts them in separate
    clusters near the root of the search, where the bounds then bite early.
    """
    # argmax returns the first of equal maxima; a placed observation's
    # nearest distance is set to -1 so that it is never picked again.
    order = [int(np.argmax(np.sum((Y - Y.mean(axis=0)) ** 2, axis=1)))]
    nearest = np.full(Y.shape[0], math.inf)
    while len(order) < Y.shape[0]:
        np.minimum(nearest, np.sum((Y - Y[order[-1]]) ** 2, axis=1), out=nearest)
        nearest[order[-1]] = -1.0
        order.append(int(np.argmax(nearest)))
    return order


def _checked_order(Y: np.ndarray, order) -> list[int]:
    """``order`` as a list, or :func:`branching_order`'s if None; ValueError
    unless it is a permutation of the observation indices."""
    if order is None:
        return branching_order(Y)
    order = [int(j) for j in order]
    if sorted(order) != list(range(Y.shape[0])):
        raise ValueError(f"order must be a permutation of the {Y.shape[0]} observation indices")
    return order


class SearchTemplate:
    """What every search over one node's data needs that no dual term
    changes, built once for the data's solves.

    It holds the observations in branching ``order`` (by default
    :func:`branching_order`'s) as an array, as tuples and with their squared
    norms, ``position``, the place of each observation in that order, the
    ``suffix_bounds`` as floats (all zeros when None), the box as floats and
    the kernel of the data's dimension (see :func:`_add_point_kernel`).

    Given a ``start`` assignment it also holds the start's ``parts``: for
    each label, the count, coordinate sums and summed squared norms of the
    observations it labels, summed in branching order as the kernel sums
    them, and the observations themselves in observation order.  A solve
    relabels and values the start, and replies with it when no leaf beats
    it, from these parts alone.  ``parts`` is None without a start.
    """

    def __init__(self, data: NodeDataset, K: int, box: BoundingBox, suffix_bounds=None, order=None,
                 start=None):
        Y = data.observations
        n_pts = Y.shape[0]
        if suffix_bounds is None:
            suffix_bounds = [0.0] * (n_pts + 1)
        elif len(suffix_bounds) != n_pts + 1:
            raise ValueError(f"suffix_bounds must have {n_pts + 1} entries, got {len(suffix_bounds)}")
        self.data, self.K, self.box = data, K, box
        self.order = _checked_order(Y, order)
        self.position = np.argsort(self.order).tolist()
        self.Yo = Yo = Y[self.order]
        self.points = [tuple(row) for row in Yo.tolist()]
        self.sq = np.sum(Yo * Yo, axis=1).tolist()
        self.sb = [float(b) for b in suffix_bounds]
        self.lo, self.hi = box.lo.tolist(), box.hi.tolist()
        self.add_point = _add_point_kernel(Y.shape[1])
        self.start = self.parts = None
        if start is not None:
            self.start = _checked_assignment(start, n_pts, K)
            labels = np.asarray(self.start)
            self.parts = []
            for k in range(K):
                at = [d for d, j in enumerate(self.order) if self.start[j] == k]
                sums = [sum(column) for column in zip(*[self.points[d] for d in at])]
                self.parts.append((len(at), sums, sum([self.sq[d] for d in at]), Y[labels == k]))

    def start_solution(self, subproblem: LagrangianSubproblem, new_label: list[int], value: float, lb: float,
                       explored: int) -> SubproblemSolution:
        """:func:`_finish`'s solution of the start with each label k renamed
        ``new_label[k]``, from the start's parts: the same observations in
        the same order, so the same bits, without :func:`evaluate_assignment`'s
        checks and masks."""
        parts = [None] * self.K
        for (*_, rows), k in zip(self.parts, new_label):
            parts[k] = rows
        return _solution(subproblem, tuple([new_label[k] for k in self.start]), parts,
                         proof_gap=_relative_gap(value, lb), explored=explored)


class _Tree:
    """Search-tree data of one dual term: a :class:`SearchTemplate`'s
    dual-independent data, and per-cluster coefficients in plain Python
    floats for the scalar search and as arrays for the batched one.

    A scalar node holds one ``(count, sums, sumsq, value)`` tuple per cluster;
    ``add_point`` is the :func:`_add_point_kernel` for the data's dimension,
    which gives a cluster's tuple after adding one observation, and ``root``
    is the tuple of empty clusters.
    """

    def __init__(self, template: SearchTemplate, c: np.ndarray):
        self.template = template
        self.points, self.sq, self.sb, self.Yo = template.points, template.sq, template.sb, template.Yo
        self.K, self.add_point, self.lo, self.hi = template.K, template.add_point, template.lo, template.hi
        self.symmetric = bool(np.all(c == c[0]))
        self.coef = [tuple(zip([0.5 * v for v in row], row, self.lo, self.hi)) for row in c.tolist()]
        # closed_form_centroid's empty clusters: each row's box corner, then its value c_k . m_k.
        box = template.box
        corner = np.where(c > 0, box.lo, np.where(c < 0, box.hi, 0.5 * (box.lo + box.hi)))
        empty = (0.0,) * c.shape[1]
        self.root = tuple((0, empty, 0.0, float(c[k] @ corner[k])) for k in range(self.K))
        self.c, self.half_c = c, 0.5 * c

    def labels_value(self, start: int, labels) -> float:
        """Objective of labelling positions start..n-1 with ``labels``."""
        add_point, points, sq, coef = self.add_point, self.points, self.sq, self.coef
        clusters = list(self.root)
        for d, k in enumerate(labels, start):
            clusters[k] = add_point(clusters[k], points[d], sq[d], coef[k])
        return sum(cluster[3] for cluster in clusters)

    def extension_values(self, start: int, labels) -> list[float]:
        """``labels_value(start, (k,) + labels)`` for each label k, bit for
        bit, from one pass over positions start+1..n-1.

        A cluster's value depends only on the sequence of observations added
        to it, and label k changes only cluster k's sequence: position
        ``start`` comes first.  So the pass keeps two tuples per cluster,
        without and with that observation, and the value of extension k sums
        the first of every cluster but k and the second of k.
        """
        add_point, points, sq, coef = self.add_point, self.points, self.sq, self.coef
        rest = list(self.root)
        led = [add_point(cluster, points[start], sq[start], coef[k]) for k, cluster in enumerate(self.root)]
        for d, k in enumerate(labels, start + 1):
            rest[k] = add_point(rest[k], points[d], sq[d], coef[k])
            led[k] = add_point(led[k], points[d], sq[d], coef[k])
        values = [cluster[3] for cluster in rest]
        return [sum(values[:k] + [led[k][3]] + values[k + 1:]) for k in range(self.K)]

    def relabelled_start(self) -> tuple[list[int], float]:
        """The new label of each label of the template's start that gives the
        start its least objective, and that objective as
        ``labels_value(0, ...)`` gives it, bit for bit.

        Part p, the observations labelled p, costs ``table[p][k]`` under
        label k: its closed-form minimum under c_k from the part's count,
        sums and summed squared norms, which the kernel would reach by adding
        the part's observations one by one.  The labels are permuted by the
        least cost permutation of that K x K table.  When every row of c is
        equal, every labelling has the same objective and the labels are
        kept.  The objective sums the picked entries in new label order, as
        ``labels_value`` sums its clusters.
        """
        table = [[cluster[3] for cluster in self.root] if not count else
                 [_part_value(count, sums, sumsq, coef) for coef in self.coef]
                 for count, sums, sumsq, _ in self.template.parts]
        new_label = list(range(self.K)) if self.symmetric else _least_cost_relabelling(table)
        picked = [0.0] * self.K
        for row, k in zip(table, new_label):
            picked[k] = row[k]
        return new_label, sum(picked)


def _part_value(count: int, sums, sumsq: float, coef) -> float:
    """Closed-form minimum of a non-empty cluster from its ``count``,
    coordinate ``sums`` and summed squared norms ``sumsq``, with the
    operations, coordinate by coordinate, that :func:`_add_point_kernel`'s
    kernels unroll after adding an observation."""
    mm = sm = cm = 0.0
    for s, (h, c, lo, hi) in zip(sums, coef):
        m = (s - h) / count
        if m < lo:
            m = lo
        elif m > hi:
            m = hi
        mm += m * m
        sm += s * m
        cm += c * m
    return sumsq + (count * mm - 2.0 * sm + cm)


# Source of the kernels of _add_point_kernel: the function's frame, and the
# lines it repeats for coordinate {i}.  mm, sm and cm add their terms to 0.0
# in coordinate order, as a loop over the coordinates would.
_ADD_POINT_SOURCE = """\
def add_point(cluster, y, y_sq, coef):
    count, ({sums}), sumsq, _ = cluster
    {ys} = y
    {coefs} = coef
    count += 1
    sumsq += y_sq
{coordinates}\
    mm = 0.0{mm}
    sm = 0.0{sm}
    cm = 0.0{cm}
    return count, ({sums}), sumsq, sumsq + (count * mm - 2.0 * sm + cm)
"""
_ADD_POINT_COORDINATE = """\
    s{i} += y{i}
    m{i} = (s{i} - h{i}) / count
    if m{i} < lo{i}:
        m{i} = lo{i}
    elif m{i} > hi{i}:
        m{i} = hi{i}
"""


@functools.cache
def _add_point_kernel(n_y: int):
    """``add_point(cluster, y, y_sq, coef)``: cluster ``(count, sums, sumsq,
    value)`` after adding observation ``y``, for ``n_y`` coordinates.

    ``count``, ``sums`` and ``sumsq`` are the number, coordinate sums and
    summed squared norms of the cluster's observations; ``value`` is its
    closed-form minimum, computed as :func:`closed_form_centroid` does but in
    scalars.  ``coef`` holds ``(c_i / 2, c_i, lo_i, hi_i)`` per coordinate.
    The kernel is :data:`_ADD_POINT_SOURCE` with the coordinate loop
    unrolled, compiled once per ``n_y``: the search calls it once per child,
    where a loop's iteration and tuple unpacking cost more than its
    arithmetic.
    """
    each = range(n_y)
    source = _ADD_POINT_SOURCE.format(
        sums="".join(f"s{i}, " for i in each),
        ys="".join(f"y{i}, " for i in each),
        coefs="".join(f"(h{i}, c{i}, lo{i}, hi{i}), " for i in each),
        coordinates="".join(_ADD_POINT_COORDINATE.format(i=i) for i in each),
        mm="".join(f" + m{i} * m{i}" for i in each),
        sm="".join(f" + s{i} * m{i}" for i in each),
        cm="".join(f" + c{i} * m{i}" for i in each),
    )
    namespace = {}
    exec(compile(source, f"<_add_point_kernel({n_y})>", "exec"), namespace)
    return namespace["add_point"]


def _add_point_batch(tree: _Tree, stats: np.ndarray, y: np.ndarray, y_sq: np.ndarray) -> np.ndarray:
    """The scalar search's ``add_point`` (see :func:`_add_point_kernel`) for
    every cluster of many nodes at once.

    ``stats`` has shape (m, K, n_y + 3) and holds each cluster's ``count``,
    ``sums``, ``sumsq`` and ``value`` in that order; ``y`` (m, n_y) and
    ``y_sq`` (m,) are each node's next observation.  Returns the clusters'
    stats after adding it, bit-identical to the kernel's: the same
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
# so batching a small search loses.  On the benchmark's seed-0 subproblems
# (in process, fastest of three or five passes, one core of a shared 2-vCPU
# container), batching every search made the 900 K=3 solves of k3-bundle
# 0.39 -> 1.53 s and their suffix bounds 0.003 -> 0.034 s; with the switch
# at 128 open nodes those searches never switch, while the 18 K=4 solves of
# k4-sg took 0.025 s and their nine nodes' suffix bounds 0.075 s, against
# 0.040 s and 0.090 s when no search switches.
_BATCH_AT = 128
_BATCH = 256
_FRONT = 1024


def _best_first(tree: _Tree, start: int, ub: float, max_nodes: int,
                on_leaf, deadline: float | None = None, on_bound=None):
    """Best-first branch-and-bound over the labels of positions start..n-1.

    ``ub`` is the incumbent's value (``math.inf`` for none).
    ``on_leaf(labels)`` receives every leaf whose bound is below the
    incumbent and returns the incumbent's value after it.
    ``on_bound(lb, explored)`` is called when the proven bound or the
    incumbent improves.  Returns ``(lower_bound, explored, status)``, status
    being "optimal" (the incumbent proven optimal), "node_limit" or "time".

    Nodes are popped in ``(bound, tiebreak)`` order, the tiebreak numbering
    children as they are pushed.  A child whose bound reaches the incumbent
    is pruned.  The proven bound is the least bound of any node not yet
    ruled out, capped at the incumbent: the popped node's until one reaches
    the incumbent, then the incumbent's value itself.

    Small searches run one node at a time on Python scalars.  Once the open
    heap holds ``_BATCH_AT`` nodes the search continues in
    :func:`_best_first_batched`, which expands up to ``_BATCH`` nodes per
    step with the same child bounds, bit for bit.  Its batches may expand a
    few nodes that the one-at-a-time order would have pruned, so ``explored``
    can be slightly larger; the proven bound and the stop rule are the same.
    """
    points, sq, coef, sb = tree.points, tree.sq, tree.coef, tree.sb
    n, K, symmetric = len(points), tree.K, tree.symmetric
    add_point, push, pop = tree.add_point, heapq.heappush, heapq.heappop
    tiebreak = 0
    explored = 0

    # Heap entries: (bound, tiebreak, depth, labels, labels used, sum of
    # cluster values, clusters); labels is a linked list (label, parent labels).
    pc_sum = sum(cluster[3] for cluster in tree.root)
    heap = [(pc_sum + sb[start], tiebreak, start, None, 0, pc_sum, tree.root)]
    best_lb = heap[0][0]
    if on_bound is not None:
        on_bound(best_lb, explored)
    while heap:
        if len(heap) >= _BATCH_AT:
            return _best_first_batched(tree, start, heap, tiebreak, ub, best_lb,
                                       explored, max_nodes, on_leaf, deadline, on_bound)
        bound, _, depth, labels, used, pc_sum, clusters = pop(heap)
        if bound >= ub:
            break
        if bound > best_lb:
            best_lb = bound
            if on_bound is not None:
                on_bound(best_lb, explored)
        if depth == n:  # a leaf below the incumbent
            path = []
            while labels is not None:
                k, labels = labels
                path.append(k)
            ub = on_leaf(path[::-1])
            if on_bound is not None:
                on_bound(best_lb, explored)
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
            if child_bound < ub:
                tiebreak += 1
                push(heap, (child_bound, tiebreak, depth + 1, (k, labels), used if used > k else k + 1,
                            child_sum, clusters[:k] + (new,) + clusters[k + 1:]))
    # The incumbent is optimal: the open nodes, if any, reach it.
    best_lb = max(best_lb, ub)
    if on_bound is not None:
        on_bound(best_lb, explored)
    return best_lb, explored, "optimal"


class _OpenNodes:
    """Open nodes of a batched search in arrays, indexed by slot, and their
    order.

    A slot holds a node's bound and tiebreak, its clusters' stats (see
    :func:`_add_point_batch`), the sum of its cluster values, its
    ``(depth, labels used)`` and its labels: one row of ``n`` entries, one
    per branching position, in the smallest integer dtype that holds K - 1.
    A node at depth d of a search that starts at position ``start`` has
    labelled positions start..d-1 of its row; the rest is unused.  Slots of
    removed nodes are reused.

    The open slots are split at ``cut``: ``front`` holds those with bound
    <= ``cut``, sorted by ``(bound, tiebreak)``, and ``back`` the rest,
    unsorted.  When the front runs short, the ``_FRONT`` least bounds of the
    back move to it; when it grows past ``4 * _FRONT``, its tail moves back.
    """

    def __init__(self, K: int, n_y: int, n: int, capacity: int):
        self.bound = np.empty(0)
        self.tick = np.empty(0, dtype=np.int64)
        self.stats = np.empty((0, K, n_y + 3))
        self.pc_sum = np.empty(0)
        self.node = np.empty((0, 2), dtype=np.intp)
        self.labels = np.empty((0, n), dtype=np.min_scalar_type(K - 1))
        self.free_slots = np.empty(0, dtype=np.intp)
        self.n_free = 0
        self._grow(capacity)
        self.front = np.empty(0, dtype=np.intp)
        self.back = np.empty(capacity, dtype=np.intp)
        self.n_back = 0
        self.cut = -math.inf

    def _grow(self, capacity: int) -> None:
        old = self.bound.shape[0]
        for name in ("bound", "tick", "stats", "pc_sum", "node", "labels"):
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
    def from_heap(cls, heap: list, K: int, n_y: int, n: int) -> "_OpenNodes":
        """Store holding the nodes of a scalar search's heap; each entry's
        linked labels fill positions start..depth-1 of its row."""
        store = cls(K, n_y, n, max(1024, 4 * len(heap)))
        slots = store.alloc(len(heap))
        for slot, (bound, tick, depth, linked, used, pc_sum, clusters) in zip(slots.tolist(), heap):
            store.bound[slot], store.tick[slot], store.pc_sum[slot] = bound, tick, pc_sum
            store.stats[slot] = [(count, *sums, sumsq, value) for count, sums, sumsq, value in clusters]
            store.node[slot] = depth, used
            pos = depth
            while linked is not None:  # (label, parent's linked labels), deepest first
                pos -= 1
                store.labels[slot, pos], linked = linked
        store._to_back(slots)
        return store


def _best_first_batched(tree: _Tree, start: int, heap: list, tiebreak: int, ub: float,
                        best_lb: float, explored: int, max_nodes: int, on_leaf, deadline, on_bound):
    """Continue :func:`_best_first` from a scalar search's open ``heap``,
    expanding up to ``_BATCH`` nodes per step.

    Each step takes the open nodes in ``(bound, tiebreak)`` order until it
    has ``_BATCH`` of them or their bound reaches the incumbent.  A leaf
    among them goes to ``on_leaf`` in that order, and the nodes after it that
    reach the lowered incumbent stay open.  The others are expanded
    together: their children's bounds come from :func:`_add_point_batch`,
    and the children below the incumbent are opened with tiebreaks in
    (parent, label) order.  The bound proven when a step starts is the least
    open bound, that of its first node.
    """
    K, (n, n_y) = tree.K, tree.Yo.shape
    Yo, sq, sb = tree.Yo, np.array(tree.sq), np.array(tree.sb)
    labels_k = np.arange(K)
    store = _OpenNodes.from_heap(heap, K, n_y, n)
    while True:
        top = store.top(_BATCH)
        bound = store.bound[top]
        if not len(top) or bound[0] >= ub:
            # The incumbent is optimal: the open nodes, if any, reach it.
            best_lb = max(best_lb, ub)
            if on_bound is not None:
                on_bound(best_lb, explored)
            return best_lb, explored, "optimal"
        if bound[0] > best_lb:
            best_lb = float(bound[0])
            if on_bound is not None:
                on_bound(best_lb, explored)
        taken = int(np.searchsorted(bound, ub))
        node = store.node[top]
        leaf = node[:, 0] == n
        removed = np.zeros(len(top), dtype=bool)
        for i in np.flatnonzero(leaf[:taken]).tolist():
            if i >= taken:
                break
            removed[i] = True  # a leaf below the incumbent
            ub = on_leaf(store.labels[top[i], start:].tolist())
            taken = min(taken, int(np.searchsorted(bound, ub)))
            if on_bound is not None:
                on_bound(best_lb, explored)
        expand = np.zeros(len(top), dtype=bool)
        expand[:taken] = ~leaf[:taken]
        slots, node = top[expand], node[expand]
        m = len(slots)
        if m and explored + m >= max_nodes:
            return best_lb, max_nodes, "node_limit"
        explored += m
        if m and deadline is not None and time.perf_counter() > deadline:
            return best_lb, explored, "time"
        stats, pc_sum, labels = store.stats[slots], store.pc_sum[slots], store.labels[slots]
        store.remove_top(removed | expand)
        if not m:
            continue

        depth, used = node[:, 0], node[:, 1]
        added = _add_point_batch(tree, stats, Yo[depth], sq[depth])
        child_sum = pc_sum[:, None] - stats[:, :, -1] + added[:, :, -1]
        child_bound = child_sum + sb[depth + 1][:, None]
        below = child_bound < ub
        if tree.symmetric:
            below &= labels_k[None, :] <= used[:, None]
        rows, ks = np.nonzero(below)
        m = len(rows)
        if not m:
            continue
        children = store.alloc(m)
        at = np.arange(m)
        child_stats = stats[rows]  # the parent's clusters, with cluster k replaced
        child_stats[at, ks] = added[rows, ks]
        store.stats[children] = child_stats
        child_labels = labels[rows]  # the parent's labels, with label k at its depth
        child_labels[at, depth[rows]] = ks
        store.labels[children] = child_labels
        store.bound[children] = child_bound[rows, ks]
        store.pc_sum[children] = child_sum[rows, ks]
        store.tick[children] = np.arange(tiebreak + 1, tiebreak + 1 + m)
        tiebreak += m
        store.node[children] = np.stack((depth[rows] + 1, np.maximum(used[rows], ks + 1)), axis=1)
        store.push(children)


def _finish(subproblem: LagrangianSubproblem, assignment, value: float, lb: float, explored: int
            ) -> SubproblemSolution:
    """:func:`evaluate_assignment`'s solution of a search's incumbent, with
    the gap between the search's ``value`` of it and the proven bound ``lb``."""
    assignment = _checked_assignment(assignment, subproblem.data.n_points, subproblem.K)
    return _solution(subproblem, assignment, _parts(subproblem, assignment),
                     proof_gap=_relative_gap(value, lb), explored=explored)


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
            cost[empty] = closed_form_centroid(Y[:0], c_k, subproblem.box)[1]
        total += cost
    best = int(np.argmin(total))
    return evaluate_assignment(subproblem, grids[best])


def relabel_to_reference(centroids: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """The rows of ``centroids`` permuted to best match ``reference``.

    The permutation minimizes the total squared row-to-reference distance
    (see :func:`_least_cost_relabelling`).  A permuted optimum is the same
    partition with the same value only when every cluster has the same dual
    term, as at zero duals; the caller must ensure that.
    """
    centroids = np.asarray(centroids, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if reference.shape != centroids.shape:
        raise ValueError("reference must have the shape of the centroids")
    d2 = np.sum((centroids[:, None, :] - reference[None, :, :]) ** 2, axis=2)
    aligned = np.empty_like(centroids)
    aligned[_least_cost_relabelling(d2.tolist())] = centroids
    return aligned


def _least_cost_relabelling(cost: list[list[float]]) -> list[int]:
    """The new label of each old label k that minimizes the sum of
    ``cost[k][new label]``, by dynamic programming over sets of old labels.

    ``rest[used]`` is the least cost of giving new labels |used|..K-1 to the
    other old labels.  Each new label in turn goes to the first old label
    whose least completion is within 1e-15 of ``rest[used]``, so near-ties
    go to the permutation that comes first in lexicographic order.
    """
    K = len(cost)
    rest = [0.0] * (1 << K)
    for used in range((1 << K) - 2, -1, -1):
        k = bin(used).count("1")
        rest[used] = min([cost[p][k] + rest[used | 1 << p] for p in range(K) if not used >> p & 1])
    new_label, used = [0] * K, 0
    for k in range(K):
        p = next(p for p in range(K)
                 if not used >> p & 1 and cost[p][k] + rest[used | 1 << p] <= rest[used] + 1e-15)
        new_label[p] = k
        used |= 1 << p
    return new_label
