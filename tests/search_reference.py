"""The node solve written in plain Python and numpy: the oracle that the
tests compare ``fedkmeans/_search.c`` with, bit for bit.

Clusters are valued by a kernel compiled once per data dimension from one
source template (:func:`_add_point_kernel`), one observation at a time.
:class:`_Tree` holds a dual term's coefficients and root and values leaves,
the start and the precompute's extensions; :func:`reference_best_first` is
the best-first search, one node at a time; :func:`reference_solution` is the
reply, computed with numpy.  :func:`reference_solve` and
:func:`reference_suffix_lower_bounds` put them together as
``solve_subproblem`` and ``suffix_lower_bounds`` do.  Every sum of cluster
values is Python's builtin ``sum``, so the oracle follows the running
interpreter as the compiled solve does.

The module needs only numpy and fedkmeans, not pytest, so that scripts can
use it too (put this directory on ``sys.path``).
"""

from __future__ import annotations

import functools
import heapq
import math

import numpy as np

from fedkmeans.core import NodeDataset
from fedkmeans.subsolver import (DEFAULT_MAX_NODES, LagrangianSubproblem, NodeLimitExceeded, SearchTemplate,
                                 SubproblemSolution, _relative_gap)

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
    closed-form minimum, computed as ``closed_form_centroid`` does but in
    scalars.  ``coef`` holds ``(c_i / 2, c_i, lo_i, hi_i)`` per coordinate.
    The kernel is :data:`_ADD_POINT_SOURCE` with the coordinate loop
    unrolled, compiled once per ``n_y``.
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


def _part_value(count: int, sums, sumsq: float, coef) -> float:
    """Closed-form minimum of a non-empty cluster from its ``count``,
    coordinate ``sums`` and summed squared norms ``sumsq``, with the
    operations, coordinate by coordinate, that the kernel unrolls after
    adding an observation."""
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


class _Tree:
    """Search-tree data of one dual term over a :class:`SearchTemplate`'s
    data, in plain Python floats.

    A cluster is one ``(count, sums, sumsq, value)`` tuple; ``add_point`` is
    the :func:`_add_point_kernel` for the data's dimension, ``root`` is the
    tuple of empty clusters, each valued ``c_k @ m_k`` at its box corner,
    and ``root_sum`` the sum of their values.
    """

    def __init__(self, template: SearchTemplate, c: np.ndarray):
        self.template = template
        self.points = [tuple(row) for row in template.Yo.tolist()]
        self.sq = template.sq.tolist()
        self.K, self.add_point = template.K, _add_point_kernel(template.Yo.shape[1])
        box = template.box
        self.symmetric = bool(np.all(c == c[0]))
        rows = c.tolist()
        halves = [[0.5 * v for v in row] for row in rows]
        self.coef = [tuple(zip(half, row, box.lo.tolist(), box.hi.tolist())) for half, row in zip(halves, rows)]
        corner = np.where(c > 0, box.lo, np.where(c < 0, box.hi, 0.5 * (box.lo + box.hi)))
        empty = (0.0,) * c.shape[1]
        self.root = tuple((0, empty, 0.0, float(c[k] @ corner[k])) for k in range(self.K))
        self.root_sum = sum(cluster[3] for cluster in self.root)

    def labels_value(self, start: int, labels) -> float:
        """Objective of labelling positions start..n-1 with ``labels``."""
        add_point, points, sq, coef = self.add_point, self.points, self.sq, self.coef
        clusters = list(self.root)
        for d, k in enumerate(labels, start):
            clusters[k] = add_point(clusters[k], points[d], sq[d], coef[k])
        return sum(cluster[3] for cluster in clusters)

    def extension_values(self, start: int, labels) -> list[float]:
        """``labels_value(start, (k,) + labels)`` for each label k, bit for
        bit, from one pass over positions start+1..n-1: label k changes only
        cluster k's sequence of observations, which position ``start``
        leads."""
        add_point, points, sq, coef = self.add_point, self.points, self.sq, self.coef
        rest = list(self.root)
        led = [add_point(cluster, points[start], sq[start], coef[k]) for k, cluster in enumerate(self.root)]
        for d, k in enumerate(labels, start + 1):
            rest[k] = add_point(rest[k], points[d], sq[d], coef[k])
            led[k] = add_point(led[k], points[d], sq[d], coef[k])
        values = [cluster[3] for cluster in rest]
        return [sum(values[:k] + [led[k][3]] + values[k + 1:]) for k in range(self.K)]

    def start_parts(self) -> list[tuple[int, list[float], float]]:
        """For each label of the template's start: the count, coordinate
        sums and summed squared norms of the observations it labels, added
        in branching order from 0.0 as the kernel adds them."""
        parts = [(0, [0.0] * len(self.points[0]), 0.0) for _ in range(self.K)]
        for d, j in enumerate(self.template.order):
            k = self.template.start[j]
            count, sums, sumsq = parts[k]
            parts[k] = (count + 1, [s + y for s, y in zip(sums, self.points[d])], sumsq + self.sq[d])
        return parts

    def relabelled_start(self) -> tuple[list[int], float]:
        """The new label of each label of the template's start that gives the
        start its least objective, and that objective as
        ``labels_value(0, ...)`` gives it, bit for bit.

        Part p, the observations labelled p, costs ``table[p][k]`` under
        label k: its closed-form minimum under c_k from the part's count,
        sums and summed squared norms.  The labels are permuted by the least
        cost permutation of that K x K table; when every row of c is equal
        they are kept.  The objective sums the picked entries in new label
        order, as ``labels_value`` sums its clusters.
        """
        table = [[cluster[3] for cluster in self.root] if not count else
                 [_part_value(count, sums, sumsq, coef) for coef in self.coef]
                 for count, sums, sumsq in self.start_parts()]
        new_label = list(range(self.K)) if self.symmetric else _least_cost_relabelling(table)
        picked = [0.0] * self.K
        for row, k in zip(table, new_label):
            picked[k] = row[k]
        return new_label, sum(picked)


def reference_best_first(tree: _Tree, start: int, ub: float, max_nodes: int, on_leaf):
    """Best-first branch-and-bound over the labels of positions start..n-1,
    one node at a time: nodes popped in (bound, tiebreak) order, children
    numbered as they are pushed, symmetric labels skipped under equal dual
    rows, a child pruned when its bound reaches the incumbent ``ub``.
    ``on_leaf(labels)`` receives each leaf popped below the incumbent and
    returns the incumbent's value after it.  Returns ``(lower_bound,
    explored, status)``."""
    points, sq, coef, sb = tree.points, tree.sq, tree.coef, tree.template.sb.tolist()
    n, K, symmetric, add_point = len(points), tree.K, tree.symmetric, tree.add_point
    tiebreak = explored = 0
    # Heap entries: (bound, tiebreak, depth, labels, labels used, sum of
    # cluster values, clusters); labels is a linked list (label, parent labels).
    pc_sum = tree.root_sum
    heap = [(pc_sum + sb[start], tiebreak, start, None, 0, pc_sum, tree.root)]
    best_lb = heap[0][0]
    while heap:
        bound, _, depth, labels, used, pc_sum, clusters = heapq.heappop(heap)
        if bound >= ub:
            break
        if bound > best_lb:
            best_lb = bound
        if depth == n:  # a leaf below the incumbent
            path = []
            while labels is not None:
                k, labels = labels
                path.append(k)
            ub = on_leaf(path[::-1])
            continue
        explored += 1
        if explored >= max_nodes:
            return best_lb, explored, "node_limit"
        y, y_sq, below = points[depth], sq[depth], sb[depth + 1]
        for k in range(min(K, used + 1) if symmetric else K):
            cluster = clusters[k]
            new = add_point(cluster, y, y_sq, coef[k])
            child_sum = pc_sum - cluster[3] + new[3]
            child_bound = child_sum + below
            if child_bound < ub:
                tiebreak += 1
                heapq.heappush(heap, (child_bound, tiebreak, depth + 1, (k, labels), used if used > k else k + 1,
                                      child_sum, clusters[:k] + (new,) + clusters[k + 1:]))
    return max(best_lb, ub), explored, "optimal"


def reference_solution(subproblem: LagrangianSubproblem, assignment, proof_gap: float = 0.0,
                       explored: int = 0) -> SubproblemSolution:
    """Solution of ``assignment`` with numpy: each cluster's closed-form
    centroid, its cost ``np.sum((part - m_k) ** 2)`` and its ``c_k @ m_k``."""
    Y, labels = subproblem.data.observations, np.asarray(assignment)
    lo, hi = subproblem.box.lo, subproblem.box.hi
    parts = [Y[labels == k] for k in range(subproblem.K)]
    centroids = np.array([np.where(c_k > 0, lo, np.where(c_k < 0, hi, 0.5 * (lo + hi))) if not len(part)
                          else np.clip((part.sum(axis=0) - 0.5 * c_k) / part.shape[0], lo, hi)
                          for part, c_k in zip(parts, subproblem.c)])
    cluster_cost = 0.0
    linear_cost = 0.0
    for part, m_k, c_k in zip(parts, centroids, subproblem.c):
        cluster_cost += float(np.sum((part - m_k) ** 2))  # 0.0 for an empty cluster
        linear_cost += float(c_k @ m_k)
    return SubproblemSolution(assignment=tuple(int(k) for k in assignment), centroids=centroids,
                              lagrangian_value=cluster_cost + linear_cost, cluster_cost=cluster_cost,
                              proof_gap=proof_gap, stats={"explored": explored})


def reference_solve(subproblem: LagrangianSubproblem, max_nodes: int = DEFAULT_MAX_NODES, suffix_bounds=None,
                    order=None, start=None, template: SearchTemplate | None = None) -> SubproblemSolution:
    """``solve_subproblem``: the start relabelled and valued, the search, a
    leaf taken when its fresh value is lower, and the reply of the last
    incumbent.  Raises ``NodeLimitExceeded`` at the node cap."""
    if template is None:
        template = SearchTemplate(subproblem.data, subproblem.K, subproblem.box, suffix_bounds, order, start)
    tree = _Tree(template, subproblem.c)
    new_label, value = (None, math.inf) if template.start is None else tree.relabelled_start()
    labels = None  # the incumbent's labels in branching order, once a leaf beats the start

    def on_leaf(leaf):
        nonlocal labels, value
        leaf_value = tree.labels_value(0, leaf)
        if leaf_value < value:
            labels, value = leaf, leaf_value
        return value

    lb, explored, status = reference_best_first(tree, 0, value, max_nodes, on_leaf)
    solution = None
    if labels is not None:
        solution = reference_solution(subproblem, [labels[pos] for pos in np.argsort(template.order).tolist()],
                                      _relative_gap(value, lb), explored)
    elif new_label is not None:
        solution = reference_solution(subproblem, [new_label[k] for k in template.start],
                                      _relative_gap(value, lb), explored)
    if status == "node_limit":
        raise NodeLimitExceeded(solution, lb, explored)
    return solution


def reference_suffix_lower_bounds(data: NodeDataset, K: int, box, max_nodes: int = DEFAULT_MAX_NODES, order=None):
    """``suffix_lower_bounds`` without its time budget and progress reports:
    each search starts from the best extension of the previous suffix's
    optimum (the least value, then the least label) and takes every leaf it
    reaches as its incumbent."""
    template = SearchTemplate(data, K, box, order=order)
    n_pts, Yo, sb = template.Yo.shape[0], template.Yo, template.sb
    zero = np.zeros((K, data.n_y))
    tree = _Tree(template, zero)
    best = ()  # optimal labels of the suffix d+1..n-1
    total = 0
    for d in range(n_pts - 1, -1, -1):
        values = tree.extension_values(d, best)
        found = min((values[k], (k,) + best) for k in range(K))

        def on_leaf(labels):
            nonlocal found
            found = (tree.labels_value(d, labels), tuple(labels))
            return found[0]

        sb[d] = sb[d + 1]
        lb, explored, status = reference_best_first(tree, d, found[0], max_nodes - total, on_leaf)
        total += explored
        if status != "optimal":
            suffix = LagrangianSubproblem(data=NodeDataset(data.node_id, Yo[d:]), K=K, box=box, c=zero)
            raise NodeLimitExceeded(reference_solution(suffix, found[1], _relative_gap(found[0], lb), total), lb,
                                    total, where=f" while bounding the K-means cost of positions {d}..{n_pts - 1}")
        sb[d] = max(sb[d + 1], lb)
        best = found[1]
    optimum = [0] * n_pts
    first_seen: dict[int, int] = {}
    for pos, k in zip(template.order, best):
        optimum[pos] = first_seen.setdefault(k, len(first_seen))
    return np.array(sb), tuple(optimum)
