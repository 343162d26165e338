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

A solve is one call into a small C file, ``_search.c``, built on first
use (with the master's ``_master.c``) and run through ``ctypes``: the
search's set-up from the dual term, the start's relabelling, the search
with its leaves, and the reply.  The same file values the precompute's
searches and every assignment that :func:`evaluate_assignment` values.  A
full enumeration oracle is provided for testing.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import sys
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
    sum_{j in C_k} ||y_j - m_k||^2 + c_k . m_k with m_k constrained to the box,
    which has the data's n_y coordinates.
    """

    data: NodeDataset
    K: int
    box: BoundingBox
    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.shape != (self.K, self.data.n_y) or not np.isfinite(c).all():
            raise ValueError(f"c must be a finite ({self.K}, {self.data.n_y}) array")
        _check_box(self.box, self.data)
        c.setflags(write=False)
        object.__setattr__(self, "c", c)


def _check_box(box: BoundingBox, data: NodeDataset):
    """ValueError unless ``box`` has the coordinates of ``data``'s observations."""
    if box.n_y != data.n_y:
        raise ValueError(f"the box has {box.n_y} coordinates, the observations {data.n_y}")


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

    Each centroid is :func:`closed_form_centroid`'s, bit for bit, computed
    without the cluster minimum that this function does not use; each
    cluster's cost is ``np.sum((part - m_k) ** 2)``'s, and the value adds
    ``c_k @ m_k`` for each cluster.
    """
    assignment = _checked_assignment(assignment, subproblem.data.n_points, subproblem.K)
    return _solution(subproblem, assignment)


def _checked_assignment(assignment, n_points: int, K: int) -> tuple[int, ...]:
    """``assignment`` as a tuple of ints; ValueError unless it labels each of
    ``n_points`` observations with one of the K clusters."""
    assignment = tuple(map(int, assignment))
    if len(assignment) != n_points:
        raise ValueError("assignment length must match the number of observations")
    if assignment and (min(assignment) < 0 or max(assignment) >= K):
        raise ValueError("assignment labels out of range")
    return assignment


def _solution(subproblem: LagrangianSubproblem, assignment: tuple[int, ...], proof_gap: float = 0.0,
              explored: int = 0) -> SubproblemSolution:
    """Solution of ``assignment``: its centroids and cluster cost from
    ``_search.c``'s reply, which reproduces numpy's arithmetic bit for bit
    (see :func:`evaluate_assignment`)."""
    lib = _search_library()
    Y = np.ascontiguousarray(subproblem.data.observations)
    K, (n, n_y) = subproblem.K, Y.shape
    box = [np.ascontiguousarray(bound) for bound in (subproblem.box.lo, subproblem.box.hi)]
    centroids = np.empty((K, n_y))
    cluster_cost = lib.ctypes.c_double()
    if lib.evaluate(Y.ctypes.data, n, n_y, K, subproblem.c.tobytes(), box[0].ctypes.data, box[1].ctypes.data,
                    (lib.ctypes.c_int64 * n)(*assignment), centroids.ctypes.data,
                    lib.ctypes.byref(cluster_cost)) < 0:
        raise MemoryError("the node search ran out of memory")
    return _finish(subproblem, assignment, centroids, cluster_cost.value, proof_gap, explored)


def _finish(subproblem: LagrangianSubproblem, assignment: tuple[int, ...], centroids: np.ndarray,
            cluster_cost: float, proof_gap: float, explored: int) -> SubproblemSolution:
    """The solution of ``assignment``, whose closed-form ``centroids`` and
    summed cluster cost ``_search.c`` computed: its value adds each
    cluster's ``c_k @ m_k`` (see :func:`_row_dots`)."""
    linear_cost = 0.0
    for dot in _row_dots(subproblem.c, centroids).tolist():
        linear_cost += dot
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
    result is :func:`evaluate_assignment`'s solution of its labels.
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
        for k in range(K):
            centroids[k] = _centroid(Y[labels == k], c[k], lo, hi)
    return _solution(subproblem, tuple(labels.tolist()))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[k] @ b[k]`` for each row k, bit for bit, in one call: a stack of
    vector products, each of which numpy computes with the BLAS dot of a
    1-D ``@``.  That dot's order of operations is the BLAS library's own
    (fused multiply-adds on some processors), so no C loop here reproduces
    it."""
    return np.matmul(a[:, None, :], b[:, :, None]).ravel()


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
    its first leaf.  The start and every leaf that reaches the incumbent
    are valued afresh in the search's own arithmetic, the one of its
    bounds, and a leaf replaces the incumbent only when its value is lower.
    The reply is :func:`evaluate_assignment`'s solution of the incumbent,
    with the gap between its search value and the proven bound as
    ``proof_gap``, which is 0 for a finished search.  The optimum is exact,
    so the start changes what the search prunes, not what it returns,
    except at an exact tie.  A solve keeps no state between calls.

    ``template``, a :class:`SearchTemplate` of the subproblem's data, K and
    box, takes the place of ``suffix_bounds``, ``order`` and ``start``: a
    caller that solves the same data under many dual terms builds it once.
    Without one the solve builds its own, so every solve runs the same
    search and returns the same bits either way.  The solve is one call
    into ``_search.c``.

    Raises :class:`NodeLimitExceeded` when ``max_nodes`` is hit.
    """
    if template is None:
        template = SearchTemplate(subproblem.data, subproblem.K, subproblem.box, suffix_bounds, order, start)
    elif suffix_bounds is not None or order is not None or start is not None:
        raise ValueError("give a template or its suffix bounds, order and start, not both")
    elif template.data is not subproblem.data or template.K != subproblem.K or template.box is not subproblem.box:
        raise ValueError("the template was built for other data, K or box than the subproblem's")
    lib = _search_library()
    K, (n, n_y) = template.K, template.Yo.shape
    labels = (lib.ctypes.c_int64 * n)()
    centroids = np.empty((K, n_y))
    result = lib.Result()
    # A cap beyond the search's 64-bit count is no cap.
    status = lib.solve(template.node, *template.dual_term(subproblem.c), min(max_nodes, 2 ** 63 - 1), labels,
                       centroids.ctypes.data, lib.ctypes.byref(result))
    if status < 0:
        raise MemoryError("the node search ran out of memory")
    solution = None
    if result.value < math.inf:
        solution = _finish(subproblem, tuple(labels[:]), centroids, result.cluster_cost,
                           _relative_gap(result.value, result.lb), result.explored)
    if status == _NODE_LIMIT:
        raise NodeLimitExceeded(solution, result.lb, result.explored)
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
    computed, and it starts from the best of the K extensions of the optimum
    of suffix d + 1 by a label for d.  Each search runs to a zero gap, so a
    child is pruned only when its bound reaches the incumbent and the
    search's proven bound is the suffix optimum; every leaf it reaches
    becomes its incumbent.  The searches share one ``max_nodes`` budget and
    one ``time_budget`` in seconds; :class:`NodeLimitExceeded` is raised
    with the bound proven so far when either runs out.

    The search over the whole order (d = 0) proves the K-means optimum of
    all observations.  It is returned as a complete assignment, observation
    by observation, with labels numbered by first appearance along the
    order, as the symmetric search labels its leaves; it can start a
    :func:`solve_subproblem` search as its ``start``.

    ``on_progress(elapsed, incumbent_value, bound, explored)`` is called when
    each search starts and ends, after each leaf it reaches, and every
    ``_CHUNK`` expanded nodes in which its bound rose (see
    :func:`_best_first`); ``bound`` is a non-decreasing lower bound on the
    optimum of all observations, and ``incumbent_value`` is ``math.inf``
    until the last search starts.
    """
    template = SearchTemplate(data, K, box, order=order)
    lib = _search_library()
    (n_pts, n_y), Yo, sb = template.Yo.shape, template.Yo, template.sb  # the searches read sb as it is set
    zero = np.zeros((K, n_y))
    empty = np.frombuffer(template.dual_term(zero)[1])
    best = (lib.ctypes.c_ubyte * n_pts)()  # the incumbent's labels by position
    search = lib.Search(lib.ctypes.pointer(template.node), zero.ctypes.data, empty.ctypes.data,
                        lib.ctypes.addressof(best), take_every_leaf=1)
    total = 0
    started = time.perf_counter()
    deadline = None if time_budget is None else started + time_budget
    for d in range(n_pts - 1, -1, -1):

        def on_bound(lb, explored):
            on_progress(time.perf_counter() - started, search.ub if d == 0 else math.inf, lb, total + explored)

        sb[d] = sb[d + 1]  # the root's bound until this entry is known
        lb, explored, status = _best_first(search, d, max_nodes - total, deadline,
                                           None if on_progress is None else on_bound)
        total += explored
        if status != "optimal":
            suffix = LagrangianSubproblem(data=NodeDataset(data.node_id, Yo[d:]), K=K, box=box, c=zero)
            raise NodeLimitExceeded(_solution(suffix, tuple(best[d:]), _relative_gap(search.ub, lb), total), lb,
                                    total, where=f" while bounding the K-means cost of positions {d}..{n_pts - 1}",
                                    limit=f"time budget of {time_budget:g} s" if status == "time" else "node limit")
        sb[d] = max(sb[d + 1], lb)
    optimum = [0] * n_pts
    first_seen: dict[int, int] = {}
    for pos, k in zip(template.order, best):
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
    :func:`branching_order`'s) as ``Yo`` and their squared norms as ``sq``,
    the ``suffix_bounds`` as ``sb`` (all zeros when None), the box and its
    midpoint, and the ``start`` assignment, if any, whose labels a solve
    permutes to their least value under its dual term.  ``node`` is the
    structure of all of them that ``_search.c`` reads; it also reads the
    observations in their own order for the reply.
    """

    def __init__(self, data: NodeDataset, K: int, box: BoundingBox, suffix_bounds=None, order=None,
                 start=None):
        Y = np.ascontiguousarray(data.observations)
        n_pts = Y.shape[0]
        if suffix_bounds is None:
            suffix_bounds = [0.0] * (n_pts + 1)
        elif len(suffix_bounds) != n_pts + 1:
            raise ValueError(f"suffix_bounds must have {n_pts + 1} entries, got {len(suffix_bounds)}")
        if K > 256:
            raise ValueError(f"the search labels at most 256 clusters, got K = {K}")
        _check_box(box, data)
        self.data, self.K, self.box = data, K, box
        self.order = _checked_order(Y, order)
        self.start = None if start is None else _checked_assignment(start, n_pts, K)
        self.Yo = Yo = np.ascontiguousarray(Y[self.order])
        self.sq = np.sum(Yo * Yo, axis=1)
        self.sb = np.array(suffix_bounds, dtype=float)
        self.lo, self.hi = (np.ascontiguousarray(bound) for bound in (box.lo, box.hi))
        self.mid = 0.5 * (box.lo + box.hi)
        # The arrays the node structure points to, kept alive with it.
        self._arrays = (Yo, self.sq, self.sb, self.lo, self.hi, Y, np.array(self.order, dtype=np.int64),
                        None if start is None else np.array(self.start, dtype=np.int64))
        Node = _search_types()[0]
        self.node = Node(*(None if array is None else array.ctypes.data for array in self._arrays),
                         n_pts, K, Y.shape[1], _COMPENSATED_SUM)

    def dual_term(self, c: np.ndarray):
        """``c`` as ``_search.c`` reads it: its bytes, and the bytes of the
        value of each empty cluster, ``c_k @ m_k`` at
        :func:`closed_form_centroid`'s box corner m_k (see
        :func:`_row_dots`)."""
        corner = np.where(c > 0, self.lo, np.where(c < 0, self.hi, self.mid))
        return c.tobytes(), _row_dots(c, corner).tobytes()

    def start_solution(self, subproblem: LagrangianSubproblem, new_label: list[int], value: float, lb: float,
                       explored: int) -> SubproblemSolution:
        """:func:`evaluate_assignment`'s solution of the start with each
        label k renamed ``new_label[k]``, with the gap between its search
        ``value`` and the proven bound ``lb``."""
        return _solution(subproblem, tuple([new_label[k] for k in self.start]), _relative_gap(value, lb), explored)


# The package's C sources, _search.c and the master's interior-point pass in
# _master.c, are built together into one library on first use, with the
# system C compiler, into the package's __pycache__ under a name that hashes
# the sources and the command, and loaded with ctypes.  -ffp-contract=off
# keeps the compiler from fusing a multiply and an add into one rounding.
_C_SOURCES = tuple(Path(__file__).with_name(name) for name in ("_search.c", "_master.c"))
_SEARCH_CACHE = Path(__file__).with_name("__pycache__")
_SEARCH_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
# A precompute search returns to Python after this many expanded nodes, so
# that a time budget and progress reports see it run.
_CHUNK = 1 << 14
_LEAF, _CHUNK_DONE, _NODE_LIMIT = 1, 2, 3
# The search sums its cluster values as the builtin sum of the running
# Python does: left to right before 3.12, compensated from 3.12 on.
_COMPENSATED_SUM = sys.version_info >= (3, 12)


def _compiler() -> list[str]:
    """The C compiler command: sysconfig's ``CC``, else ``cc``."""
    import shlex
    import sysconfig

    return shlex.split(sysconfig.get_config_var("CC") or "cc")


@functools.cache
def _search_types():
    """The ctypes structures of ``_search.c``, defined once per process so
    that a template's structure fits every load of the library."""
    import ctypes

    pointer, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double

    class Node(ctypes.Structure):
        # _search.c's struct node, field for field.
        _fields_ = ([(name, pointer) for name in ("points", "sq", "sb", "lo", "hi", "Y", "order", "start")]
                    + [(name, i64) for name in ("n", "K", "n_y", "compensated")])

    class Search(ctypes.Structure):
        # _search.c's struct search.
        _fields_ = ([("node", ctypes.POINTER(Node))] + [(name, pointer) for name in ("c", "empty", "best")]
                    + [(name, i64) for name in ("start", "max_nodes", "chunk", "take_every_leaf")]
                    + [(name, f64) for name in ("ub", "best_lb")]
                    + [(name, i64) for name in ("explored", "leaves")] + [("work", pointer)])

    class Result(ctypes.Structure):
        # _search.c's struct result.
        _fields_ = [(name, f64) for name in ("value", "lb", "cluster_cost")] + [("explored", i64)]

    return Node, Search, Result


@functools.cache
def _search_library():
    """The functions of the package's C library (``_search.c`` and
    ``_master.c``) and the ctypes structures they read, with the ``ctypes``
    module.

    The library is built into the cache unless it is there already: to a
    temporary file, then renamed into place, so that processes that build
    it at the same time each load a whole library and leave one.
    RuntimeError, naming the command and its first error line, when the
    compiler fails, and the cache directory when it cannot be written.
    """
    import ctypes
    import subprocess
    import tempfile
    from types import SimpleNamespace

    command = [*_compiler(), *_SEARCH_FLAGS]
    sources = b"".join(hashlib.sha256(source.read_bytes()).digest() for source in _C_SOURCES)
    key = hashlib.sha256(sources + "\0".join(command).encode()).hexdigest()[:16]
    path = _SEARCH_CACHE / f"_search-{key}.so"
    if not path.exists():
        failed = f"cannot build the node search with `{' '.join(command)}`: "
        try:
            _SEARCH_CACHE.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=f".{path.stem}-", suffix=".tmp", dir=_SEARCH_CACHE)
        except OSError as exc:
            raise RuntimeError(f"{failed}cannot write to its cache directory {_SEARCH_CACHE}: {exc}") from None
        os.close(fd)
        try:
            try:
                built = subprocess.run([*command, "-o", tmp, *map(str, _C_SOURCES)], capture_output=True, text=True)
                error = (built.stderr.strip() or f"exit status {built.returncode}") if built.returncode else None
            except OSError as exc:
                error = str(exc)
            if error is not None:
                raise RuntimeError(failed + error.splitlines()[0])
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    pointer, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    Node, Search, Result = _search_types()
    library = ctypes.CDLL(str(path))
    signatures = {
        "solve": (ctypes.c_int, [ctypes.POINTER(Node), pointer, pointer, i64, pointer, pointer,
                                 ctypes.POINTER(Result)]),
        "search_init": (ctypes.c_int, [ctypes.POINTER(Search)]),
        "search_run": (ctypes.c_int, [ctypes.POINTER(Search)]),
        "search_free": (None, [ctypes.POINTER(Search)]),
        "evaluate": (ctypes.c_int, [pointer, i64, i64, i64, pointer, pointer, pointer, pointer, pointer,
                                    ctypes.POINTER(f64)]),
        "relabel": (ctypes.c_int, [pointer, i64, pointer]),
        "sum": (f64, [pointer, i64, i64]),
        "pdip": (ctypes.c_int, [i64, i64, pointer, pointer, f64, pointer, pointer, f64, f64, f64, i64, i64,
                                pointer, pointer, pointer]),
    }
    functions = {}
    for name, (restype, argtypes) in signatures.items():
        functions[name] = function = getattr(library, f"fk_{name}")
        function.restype, function.argtypes = restype, argtypes
    return SimpleNamespace(ctypes=ctypes, Node=Node, Search=Search, Result=Result, **functions)


def _best_first(search, start: int, max_nodes: int, deadline: float | None = None, on_bound=None):
    """One search of :func:`suffix_lower_bounds`: best-first branch-and-bound
    over the labels of positions start..n-1, whose incumbent starts as the
    best extension of ``search.best[start + 1:]`` by a label for ``start``.

    ``on_bound(lb, explored)`` is called at the start and the end, after
    each leaf and, every ``_CHUNK`` expanded nodes, when the proven bound
    has risen.  Returns ``(lower_bound, explored, status)``, status being
    "optimal" (the incumbent, ``search.best[start:]`` valued
    ``search.ub``, proven optimal), "node_limit" or "time"; the
    ``deadline`` is checked after the first expanded node and every
    ``_CHUNK`` after it.

    Nodes are popped in ``(bound, tiebreak)`` order, the tiebreak numbering
    children as they are pushed.  Each child of a node at depth d adds the
    observation at position d to one cluster; under equal dual rows a node
    has children only in its labels used so far and one new label.  A
    child whose bound reaches the incumbent is pruned.  The proven bound is
    the least bound of any node not yet ruled out, capped at the incumbent:
    the popped node's until one reaches the incumbent, then the incumbent's
    value itself.  The loop runs in ``_search.c``; each open node there
    holds its clusters and its row of labels, so memory grows with the
    open nodes alone.
    """
    lib = _search_library()
    search.start, search.max_nodes = start, min(max_nodes, 2 ** 63 - 1)
    # With a deadline, the first run returns after one expanded node.
    search.chunk = _CHUNK if deadline is None else 1
    try:
        if lib.search_init(search) < 0:
            raise MemoryError("the node search ran out of memory")
        reported = search.best_lb
        if on_bound is not None:
            on_bound(reported, 0)
        while True:
            status = lib.search_run(search)
            if on_bound is not None and search.best_lb > reported:
                reported = search.best_lb
                on_bound(reported, search.explored)
            if status == _LEAF:
                if on_bound is not None:
                    on_bound(reported, search.explored)
            elif status == _CHUNK_DONE:
                search.chunk = _CHUNK
                if deadline is not None and time.perf_counter() > deadline:
                    return search.best_lb, search.explored, "time"
            elif status == _NODE_LIMIT:
                return search.best_lb, search.explored, "node_limit"
            elif status < 0:
                raise MemoryError("the node search ran out of memory")
            else:
                break
    finally:
        lib.search_free(search)
    # The incumbent is optimal: the open nodes, if any, reach it.
    best_lb = max(search.best_lb, search.ub)
    if on_bound is not None:
        on_bound(best_lb, search.explored)
    return best_lb, search.explored, "optimal"


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

    The permutation minimizes the total squared row-to-reference distance,
    by the dynamic programme that relabels a search's start (see
    :func:`_relabelling`).  A permuted optimum is the same partition with
    the same value only when every cluster has the same dual term, as at
    zero duals; the caller must ensure that.
    """
    centroids = np.asarray(centroids, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if reference.shape != centroids.shape:
        raise ValueError("reference must have the shape of the centroids")
    d2 = np.sum((centroids[:, None, :] - reference[None, :, :]) ** 2, axis=2)
    aligned = np.empty_like(centroids)
    aligned[_relabelling(d2)] = centroids
    return aligned


def _relabelling(cost) -> list[int]:
    """The new label of each old label k that minimizes the sum of
    ``cost[k][new label]`` over a K x K table, from ``_search.c``: the least
    sum by dynamic programming over sets of old labels, and each new label
    in turn to the first old label whose least completion is within 1e-15
    of the least sum left, so near-ties go to the permutation that comes
    first in lexicographic order."""
    lib = _search_library()
    cost = np.ascontiguousarray(cost, dtype=float)
    K = cost.shape[0]
    new_label = (lib.ctypes.c_int64 * K)()
    if lib.relabel(cost.tobytes(), K, new_label) < 0:
        raise MemoryError(f"cannot relabel {K} clusters")
    return new_label[:]
