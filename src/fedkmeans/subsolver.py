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

The search loop is one small C file, ``_search.c``, built on the first
search and run through ``ctypes``; it values each child with the operations
of the Python kernel that values incumbents, so every bound is bit-identical
to that kernel's.  A full enumeration oracle is provided for testing.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

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
    each search starts and ends, after each leaf it hands back, and every
    ``_CHUNK`` expanded nodes in which its bound rose (see
    :func:`_best_first`); ``bound`` is a non-decreasing lower bound on the
    optimum of all observations, and ``incumbent_value`` is ``math.inf``
    until the last search starts.
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
    :func:`branching_order`'s) as an array and as tuples, their squared
    norms as an array and as floats, ``position``, the place of each
    observation in that order, the ``suffix_bounds`` as an array (all zeros
    when None), the box as arrays and as floats and the kernel of the data's
    dimension (see :func:`_add_point_kernel`).  The search loop reads the
    arrays, at the addresses in ``arrays``; the kernel reads the floats.

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
        if K > 256:
            raise ValueError(f"the search labels at most 256 clusters, got K = {K}")
        self.data, self.K, self.box = data, K, box
        self.order = _checked_order(Y, order)
        self.position = np.argsort(self.order).tolist()
        self.Yo = Yo = np.ascontiguousarray(Y[self.order], dtype=float)
        self.points = [tuple(row) for row in Yo.tolist()]
        self.sq_array = np.sum(Yo * Yo, axis=1)
        self.sq = self.sq_array.tolist()
        self.sb = np.array(suffix_bounds, dtype=float)
        self.box_arrays = tuple(np.ascontiguousarray(bound, dtype=float) for bound in (box.lo, box.hi))
        self.arrays = tuple(array.ctypes.data for array in (Yo, self.sq_array, self.sb, *self.box_arrays))
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
    floats for the kernel and as arrays for the search loop.

    A cluster is one ``(count, sums, sumsq, value)`` tuple; ``add_point`` is
    the :func:`_add_point_kernel` for the data's dimension, which gives a
    cluster's tuple after adding one observation, ``root`` is the tuple of
    empty clusters and ``root_sum`` the sum of their values.  ``dual``
    holds what the search loop reads of the dual term: c / 2, c and the
    empty clusters, each as count, sums, sumsq and value, row by row;
    ``leaf`` receives the labels of a leaf.  ``arrays`` holds the addresses
    of all the arrays that the loop reads, in the order of its state's
    fields.
    """

    def __init__(self, template: SearchTemplate, c: np.ndarray):
        self.template = template
        self.points, self.sq = template.points, template.sq
        self.K, self.add_point, self.lo, self.hi = template.K, template.add_point, template.lo, template.hi
        self.symmetric = bool(np.all(c == c[0]))
        rows = c.tolist()
        halves = [[0.5 * v for v in row] for row in rows]
        self.coef = [tuple(zip(half, row, self.lo, self.hi)) for half, row in zip(halves, rows)]
        # closed_form_centroid's empty clusters: each row's box corner, then its value c_k . m_k.
        box = template.box
        corner = np.where(c > 0, box.lo, np.where(c < 0, box.hi, 0.5 * (box.lo + box.hi)))
        empty = (0.0,) * c.shape[1]
        self.root = tuple((0, empty, 0.0, float(c[k] @ corner[k])) for k in range(self.K))
        self.root_sum = sum(cluster[3] for cluster in self.root)
        blank = [0.0] * (c.shape[1] + 2)
        self.dual = np.array([v for row in halves + rows for v in row]
                             + [v for cluster in self.root for v in (*blank, cluster[3])])
        self.leaf = np.empty(len(self.points), dtype=np.uint8)
        self.arrays = (*template.arrays, self.dual.ctypes.data, self.leaf.ctypes.data)

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
    unrolled, compiled once per ``n_y``: incumbents are valued with it one
    observation at a time, where a loop's iteration and tuple unpacking cost
    more than its arithmetic.  ``_search.c`` values each child of the search
    with the same operations in the same order.
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


# The search loop is _search.c, built on the first search with the system C
# compiler into the package's __pycache__, under a name that hashes the
# source and the command, and loaded with ctypes.  -ffp-contract=off keeps the
# compiler from fusing a multiply and an add into one rounding, so the loop's
# bounds are the Python kernel's bit for bit.
_SEARCH_SOURCE = Path(__file__).with_name("_search.c")
_SEARCH_CACHE = Path(__file__).with_name("__pycache__")
_SEARCH_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
# The loop returns to Python after this many expanded nodes, so that a time
# budget and progress reports see it run.
_CHUNK = 1 << 14
_LEAF, _CHUNK_DONE, _NODE_LIMIT = 1, 2, 3


def _compiler() -> list[str]:
    """The C compiler command: sysconfig's ``CC``, else ``cc``."""
    import shlex
    import sysconfig

    return shlex.split(sysconfig.get_config_var("CC") or "cc")


@functools.cache
def _search_library():
    """The compiled search loop and the ctypes structure of its state.

    The library is built into the cache unless it is there already: to a
    temporary file, then renamed into place, so that processes that build
    it at the same time each load a whole library and leave one.
    RuntimeError, naming the command and its first error line, when the
    compiler fails.
    """
    import ctypes
    import subprocess
    import tempfile

    command = [*_compiler(), *_SEARCH_FLAGS]
    source = _SEARCH_SOURCE.read_bytes()
    key = hashlib.sha256(source + "\0".join(command).encode()).hexdigest()[:16]
    path = _SEARCH_CACHE / f"_search-{key}.so"
    if not path.exists():
        _SEARCH_CACHE.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f".{path.stem}-", suffix=".tmp", dir=_SEARCH_CACHE)
        os.close(fd)
        try:
            try:
                built = subprocess.run([*command, "-o", tmp, str(_SEARCH_SOURCE)], capture_output=True, text=True)
                error = (built.stderr.strip() or f"exit status {built.returncode}") if built.returncode else None
            except OSError as exc:
                error = str(exc)
            if error is not None:
                raise RuntimeError(f"cannot build the node search with `{' '.join(command)}`: "
                                   f"{error.splitlines()[0]}")
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    class State(ctypes.Structure):
        # _search.c's struct search, field for field.
        _fields_ = ([(name, ctypes.c_void_p) for name in
                     ("points", "sq", "sb", "lo", "hi", "dual", "leaf")]
                    + [(name, ctypes.c_int64) for name in
                       ("n", "K", "n_y", "start", "symmetric", "max_nodes", "chunk")]
                    + [(name, ctypes.c_double) for name in ("root_sum", "ub", "best_lb")]
                    + [("explored", ctypes.c_int64), ("open", ctypes.c_void_p)])

    library = ctypes.CDLL(str(path))
    for name in ("fk_search_init", "fk_search_run", "fk_search_free"):
        function = getattr(library, name)
        function.argtypes = [ctypes.POINTER(State)]
        function.restype = ctypes.c_int if name != "fk_search_free" else None
    return library, State


def _best_first(tree: _Tree, start: int, ub: float, max_nodes: int,
                on_leaf, deadline: float | None = None, on_bound=None):
    """Best-first branch-and-bound over the labels of positions start..n-1.

    ``ub`` is the incumbent's value (``math.inf`` for none).
    ``on_leaf(labels)`` receives every leaf whose bound is below the
    incumbent and returns the incumbent's value after it.
    ``on_bound(lb, explored)`` is called at the start and the end, after
    each leaf and, every ``_CHUNK`` expanded nodes, when the proven bound
    has risen.  Returns ``(lower_bound, explored, status)``, status being
    "optimal" (the incumbent proven optimal), "node_limit" or "time"; the
    ``deadline`` is checked after the first expanded node and every
    ``_CHUNK`` after it.

    Nodes are popped in ``(bound, tiebreak)`` order, the tiebreak numbering
    children as they are pushed.  Each child of a node at depth d adds the
    observation at position d to one cluster, valued as
    :func:`_add_point_kernel`'s kernel values it; under equal dual rows
    (``tree.symmetric``) a node has children only in its labels used so far
    and one new label.  A child whose bound reaches the incumbent is pruned.
    The proven bound is the least bound of any node not yet ruled out,
    capped at the incumbent: the popped node's until one reaches the
    incumbent, then the incumbent's value itself.  The loop runs in
    ``_search.c``; each open node there holds its clusters and its row of
    labels, so memory grows with the open nodes alone.
    """
    library, State = _search_library()
    n, n_y = tree.template.Yo.shape
    leaf = tree.leaf[:n - start]
    # With a deadline, the first run returns after one expanded node.  A cap
    # beyond the loop's 64-bit count is no cap.
    state = State(*tree.arrays, n, tree.K, n_y, start, tree.symmetric, min(max_nodes, 2 ** 63 - 1),
                  _CHUNK if deadline is None else 1, tree.root_sum, ub)
    try:
        if library.fk_search_init(state) < 0:
            raise MemoryError("the node search ran out of memory")
        reported = state.best_lb
        if on_bound is not None:
            on_bound(reported, 0)
        while True:
            status = library.fk_search_run(state)
            if on_bound is not None and state.best_lb > reported:
                reported = state.best_lb
                on_bound(reported, state.explored)
            if status == _LEAF:
                state.ub = ub = on_leaf(leaf.tolist())
                if on_bound is not None:
                    on_bound(reported, state.explored)
            elif status == _CHUNK_DONE:
                state.chunk = _CHUNK
                if deadline is not None and time.perf_counter() > deadline:
                    return state.best_lb, state.explored, "time"
            elif status == _NODE_LIMIT:
                return state.best_lb, state.explored, "node_limit"
            elif status < 0:
                raise MemoryError("the node search ran out of memory")
            else:
                break
    finally:
        library.fk_search_free(state)
    # The incumbent is optimal: the open nodes, if any, reach it.
    best_lb = max(state.best_lb, ub)
    if on_bound is not None:
        on_bound(best_lb, state.explored)
    return best_lb, state.explored, "optimal"


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
