"""Tests for the exact node subproblem solver and its supporting pieces.

The compiled solve is compared bit for bit with the Python oracle in
``search_reference.py``; ``TestAddPointKernel``, ``TestScalarChildBound`` and
``TestLowerBound`` check that oracle's kernel."""

import itertools
import math
import re
import sys
import types
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedkmeans.bench import BenchmarkSpec, _grid_seed, generate_instance
from fedkmeans.core import BoundingBox, NodeDataset
from fedkmeans.subsolver import (
    LagrangianSubproblem,
    NodeLimitExceeded,
    SearchTemplate,
    branching_order,
    brute_force_subproblem,
    closed_form_centroid,
    evaluate_assignment,
    lloyd_incumbent,
    relabel_to_reference,
    solve_subproblem,
    suffix_lower_bounds,
)
import fedkmeans.subsolver as subsolver
from fedkmeans.subsolver import _relabelling
from search_reference import (_add_point_kernel, _least_cost_relabelling, _Tree, reference_solution,
                              reference_solve, reference_suffix_lower_bounds)

BOX2 = BoundingBox(np.array([-3.0, -3.0]), np.array([3.0, 3.0]))


def _add_point(cluster, y, y_sq: float, coef):
    """Reference for the scalar search's kernels (see ``_add_point_kernel``):
    cluster ``(count, sums, sumsq, value)`` after adding observation ``y``,
    as a loop over the coordinates.  ``coef`` holds ``(c_i / 2, c_i, lo_i,
    hi_i)`` per coordinate."""
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


def row_order_tree(sub, c=None, start=None) -> _Tree:
    """The search tree of ``sub``, or of its data under ``c``, that branches
    on the observations in their row order, without suffix bounds, and
    starts from ``start`` when given."""
    template = SearchTemplate(sub.data, sub.K, sub.box, order=range(sub.data.n_points), start=start)
    return _Tree(template, sub.c if c is None else c)


def subproblem_1d(values, K, c=None, lo=-20.0, hi=20.0):
    data = NodeDataset(node_id=0, observations=np.array(values, dtype=float).reshape(-1, 1))
    box = BoundingBox(np.array([lo]), np.array([hi]))
    if c is None:
        c = np.zeros((K, 1))
    return LagrangianSubproblem(data=data, K=K, box=box, c=np.asarray(c, dtype=float))


def random_subproblem(rng, n_pts=None, K=None, n_y=2):
    n_pts = n_pts or int(rng.integers(3, 9))
    K = K or int(rng.integers(2, 4))
    Y = rng.normal(size=(n_pts, n_y))
    lo = Y.min(axis=0) - rng.uniform(0.1, 1.0, size=n_y)
    hi = Y.max(axis=0) + rng.uniform(0.1, 1.0, size=n_y)
    c = rng.normal(scale=rng.choice([0.0, 0.5, 2.0]), size=(K, n_y))
    return LagrangianSubproblem(
        data=NodeDataset(node_id=0, observations=Y),
        K=K, box=BoundingBox(lo, hi), c=c,
    )


class TestClosedFormCentroid:
    def test_mean_of_points(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        m, cost = closed_form_centroid(pts, np.zeros(2), BOX2)
        np.testing.assert_array_equal(m, [1.0, 0.0])
        assert cost == pytest.approx(2.0)

    def test_linear_term_shifts_centroid(self):
        # Stationarity of sum||y - m||^2 + c.m gives m = (sum y - c/2)/n.
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        m, cost = closed_form_centroid(pts, np.array([2.0, 0.0]), BOX2)
        np.testing.assert_allclose(m, [0.5, 0.0])
        grid = np.linspace(-3, 3, 6001)
        best = min(float(np.sum((pts[:, 0] - g) ** 2) + 2.0 * g) for g in grid)
        value_1d = float(np.sum((pts[:, 0] - m[0]) ** 2) + 2.0 * m[0])
        assert value_1d <= best + 1e-9

    def test_empty_cluster_picks_corner(self):
        box = BoundingBox(np.zeros(2), np.ones(2))
        m, cost = closed_form_centroid(np.empty((0, 2)), np.array([1.0, -1.0]), box)
        np.testing.assert_array_equal(m, [0.0, 1.0])
        assert cost == pytest.approx(-1.0)

    def test_empty_cluster_zero_coefficient_midpoint(self):
        box = BoundingBox(np.zeros(1), np.ones(1))
        m, cost = closed_form_centroid(np.empty((0, 1)), np.zeros(1), box)
        np.testing.assert_array_equal(m, [0.5])
        assert cost == 0.0

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_clipping_beats_grid(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(int(rng.integers(1, 6)), 2))
        c = rng.normal(size=2)
        box = BoundingBox(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        m, value = closed_form_centroid(pts, c, box)
        assert box.contains(m)
        grid = np.linspace(-1, 1, 41)
        for gx in grid:
            for gy in grid:
                g = np.array([gx, gy])
                candidate = float(np.sum((pts - g) ** 2) + c @ g)
                assert value <= candidate + 1e-9


class TestEvaluateAssignment:
    def test_two_point_clusters(self):
        sub = subproblem_1d([0, 1, 10, 11], K=2)
        sol = evaluate_assignment(sub, [0, 0, 1, 1])
        np.testing.assert_allclose(np.sort(sol.centroids.ravel()), [0.5, 10.5])
        assert sol.cluster_cost == pytest.approx(1.0)

    def test_interleaved_assignment(self):
        sub = subproblem_1d([0, 1, 10, 11], K=2)
        sol = evaluate_assignment(sub, [0, 1, 0, 1])
        assert sol.cluster_cost == pytest.approx(100.0)

    def test_assignment_checked(self):
        sub = subproblem_1d([0.0, 1.0, 2.0], K=2)
        with pytest.raises(ValueError, match="length"):
            evaluate_assignment(sub, [0, 1])
        with pytest.raises(ValueError, match="out of range"):
            evaluate_assignment(sub, [0, 1, 2])
        # A search's start is checked the same way.
        with pytest.raises(ValueError, match="length"):
            solve_subproblem(sub, start=[0, 1])
        with pytest.raises(ValueError, match="out of range"):
            solve_subproblem(sub, start=[0, -1, 1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_dual_term_rejected(self, bad):
        # A NaN would leave no permutation to relabel a start with, and an
        # infinity would make -inf a proven value.
        with pytest.raises(ValueError, match="finite"):
            subproblem_1d([0.0, 1.0, 2.0], K=2, c=[[0.0], [bad]])

    def test_box_of_other_dimension_rejected(self):
        # The compiled search and reply read n_y box coordinates.
        sub = subproblem_1d([0.0, 1.0, 2.0], K=2)
        box = BoundingBox(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError, match="the box has 2 coordinates, the observations 1"):
            replace(sub, box=box)
        with pytest.raises(ValueError, match="the box has 2 coordinates"):
            SearchTemplate(sub.data, 2, box)
        with pytest.raises(ValueError, match="the box has 2 coordinates"):
            suffix_lower_bounds(sub.data, 2, box)

    def test_label_permutation_invariance(self):
        sub = subproblem_1d([0, 1, 2, 8, 9], K=3)
        base = evaluate_assignment(sub, [0, 0, 1, 2, 2])
        for perm in itertools.permutations(range(3)):
            relabeled = [perm[a] for a in [0, 0, 1, 2, 2]]
            sol = evaluate_assignment(sub, relabeled)
            assert sol.lagrangian_value == pytest.approx(base.lagrangian_value, abs=1e-12)

    def test_value_decomposition(self):
        rng = np.random.default_rng(3)
        sub = random_subproblem(rng)
        labels = rng.integers(0, sub.K, size=sub.data.n_points)
        sol = evaluate_assignment(sub, labels)
        linear = sum(float(sub.c[k] @ sol.centroids[k]) for k in range(sub.K))
        assert sol.lagrangian_value == pytest.approx(sol.cluster_cost + linear, abs=1e-12)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_matches_closed_form_centroid_bitwise(self, seed):
        # Few points for K = 4 leave clusters empty.
        rng = np.random.default_rng(seed)
        sub = random_subproblem(rng, n_pts=int(rng.integers(1, 8)), K=int(rng.integers(2, 5)),
                                n_y=int(rng.integers(1, 4)))
        labels = rng.integers(0, sub.K, size=sub.data.n_points)
        sol = evaluate_assignment(sub, labels)
        Y = sub.data.observations
        cluster_cost = linear_cost = 0.0
        for k in range(sub.K):
            pts = Y[labels == k]
            m_k, _ = closed_form_centroid(pts, sub.c[k], sub.box)
            assert sol.centroids[k].tolist() == m_k.tolist()
            cluster_cost += float(np.sum((pts - m_k) ** 2))
            linear_cost += float(sub.c[k] @ m_k)
        assert sol.cluster_cost == cluster_cost
        assert sol.lagrangian_value == cluster_cost + linear_cost

    @given(st.integers(0, 10 ** 6), st.integers(1, 4), st.integers(1, 4), st.integers(1, 300), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_numpy_reference_bitwise(self, seed, K, n_y, n, zeros):
        # The compiled reply against numpy's: clusters of up to 300 rows, so
        # that numpy sums them pairwise in blocks of 8 and halves above 128
        # (a cluster's sums when n_y = 1, its cost always).  With `zeros`,
        # rows, duals and box edges are signed zeros and ones, so that the
        # clip meets its edges at -0.0 and 0.0.
        rng = np.random.default_rng(seed)
        if zeros:
            pick = lambda values, size: rng.choice(np.array(values), size=size)
            Y, c = pick([0.0, -0.0, 1.0, -1.0], (n, n_y)), pick([0.0, -0.0, 1.0, -1.0], (K, n_y))
            box = BoundingBox(pick([0.0, -0.0, -1.0], n_y), pick([0.0, -0.0, 1.0], n_y))
        else:
            Y = rng.normal(size=(n, n_y)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
            c = rng.normal(scale=rng.choice([0.5, 20.0]), size=(K, n_y))
            box = BoundingBox(Y.min(axis=0) - rng.uniform(0, 1, n_y), Y.max(axis=0) + rng.uniform(0, 1, n_y))
        sub = LagrangianSubproblem(data=NodeDataset(0, Y), K=K, box=box, c=c)
        labels = rng.integers(0, K, size=n)
        assert reply_bits(evaluate_assignment(sub, labels)) == reply_bits(reference_solution(sub, labels))


def assignment_lower_bound(sub, prefix) -> float:
    """Reference prefix bound: the sum over clusters of
    :func:`closed_form_centroid`'s minimum over the observations at positions
    0..len(prefix)-1 labelled into that cluster."""
    Y = sub.data.observations
    labels = np.asarray(prefix, dtype=int)
    return sum(closed_form_centroid(Y[:len(labels)][labels == k], sub.c[k], sub.box)[1] for k in range(sub.K))


def search_prefix_bound(sub, prefix) -> float:
    """The bound that a search without suffix bounds gives the node labelling
    positions 0..len(prefix)-1 of the data's own row order with ``prefix``."""
    return row_order_tree(sub).labels_value(0, [int(k) for k in prefix])


class TestLowerBound:
    def test_empty_prefix_zero_dual(self):
        sub = subproblem_1d([0, 1, 2], K=2)
        assert search_prefix_bound(sub, []) == 0.0

    def test_tight_at_leaves(self):
        sub = subproblem_1d([0, 1, 10, 11], K=2)
        for labels in itertools.product(range(2), repeat=4):
            bound = search_prefix_bound(sub, labels)
            value = evaluate_assignment(sub, labels).lagrangian_value
            assert bound == pytest.approx(value, abs=1e-9)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_bound_below_all_completions(self, seed):
        rng = np.random.default_rng(seed)
        sub = random_subproblem(rng, n_pts=5, K=2)
        prefix_len = int(rng.integers(0, 6))
        prefix = list(rng.integers(0, 2, size=prefix_len))
        bound = search_prefix_bound(sub, prefix)
        for tail in itertools.product(range(2), repeat=5 - prefix_len):
            value = evaluate_assignment(sub, prefix + list(tail)).lagrangian_value
            assert bound <= value + 1e-9

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_bound_monotone_in_prefix(self, seed):
        rng = np.random.default_rng(seed)
        sub = random_subproblem(rng, n_pts=6, K=2)
        labels = list(rng.integers(0, 2, size=6))
        bounds = [search_prefix_bound(sub, labels[:d]) for d in range(7)]
        for parent, child in zip(bounds, bounds[1:]):
            assert child >= parent - 1e-12


class TestLloydIncumbent:
    def test_well_separated_reaches_optimum(self):
        sub = subproblem_1d([0, 1, 10, 11], K=2)
        sol = lloyd_incumbent(sub, branching_order(sub.data.observations))
        assert sol.cluster_cost == pytest.approx(1.0)

    def test_single_cluster_closed_form(self):
        data = NodeDataset(0, np.array([[0.0], [4.0]]))
        box = BoundingBox(np.array([-5.0]), np.array([5.0]))
        sub = LagrangianSubproblem(data=data, K=1, box=box, c=np.zeros((1, 1)))
        for order in ([0, 1], [1, 0]):
            sol = lloyd_incumbent(sub, order)
            np.testing.assert_allclose(sol.centroids, [[2.0]])

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_incumbent_is_upper_bound(self, seed):
        rng = np.random.default_rng(seed)
        sub = random_subproblem(rng, n_pts=6, K=2)
        incumbent = lloyd_incumbent(sub, branching_order(sub.data.observations))
        optimum = brute_force_subproblem(sub)
        assert incumbent.lagrangian_value >= optimum.lagrangian_value - 1e-9

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_formula(self, seed):
        # Few points for K = 4 and a wide box leave clusters empty, and three
        # points for K = 4 reuse a start; duplicate rows can put equal
        # observations among the starts.  The order is the branching order
        # or any permutation.
        rng = np.random.default_rng(seed)
        sub = random_subproblem(rng, n_pts=int(rng.integers(3, 9)), K=int(rng.integers(2, 5)),
                                n_y=int(rng.integers(1, 4)))
        if rng.random() < 0.5:
            Y = sub.data.observations
            sub = LagrangianSubproblem(data=NodeDataset(0, np.vstack([Y, Y[:2]])), K=sub.K,
                                       box=sub.box, c=sub.c)
        Y = sub.data.observations
        order = branching_order(Y) if rng.random() < 0.5 else rng.permutation(Y.shape[0]).tolist()
        got = lloyd_incumbent(sub, order)
        want = reference_lloyd(sub, order)
        assert got.assignment == want.assignment
        assert got.lagrangian_value == want.lagrangian_value
        np.testing.assert_array_equal(got.centroids, want.centroids)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_value_is_evaluate_assignment_bitwise(self, seed):
        # Lloyd values its labels from the centroids of its last step;
        # evaluate_assignment recomputes them.  Few points for K = 4 leave
        # clusters empty.
        rng = np.random.default_rng(seed)
        sub = random_subproblem(rng, n_pts=int(rng.integers(2, 9)), K=int(rng.integers(2, 5)),
                                n_y=int(rng.integers(1, 4)))
        got = lloyd_incumbent(sub, branching_order(sub.data.observations))
        want = evaluate_assignment(sub, got.assignment)
        assert got.lagrangian_value == want.lagrangian_value
        assert got.cluster_cost == want.cluster_cost
        np.testing.assert_array_equal(got.centroids, want.centroids)


def reference_lloyd(subproblem, order):
    """One Lloyd descent from the observations at positions 0, 1, ... of
    ``order``, wrapping around when there are fewer than K, with the centroid
    step of :func:`closed_form_centroid`."""
    Y = subproblem.data.observations
    K = subproblem.K
    starts = itertools.islice(itertools.cycle(order), K)
    centroids = np.array([Y[j] for j in starts], dtype=float)
    labels = None
    for _ in range(100):
        d2 = np.sum((Y[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(d2, axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for k in range(K):
            centroids[k], _ = closed_form_centroid(Y[labels == k], subproblem.c[k], subproblem.box)
    return evaluate_assignment(subproblem, labels)


def farthest_first(rows):
    """Reference farthest-first order of ``rows`` (lists of floats) in plain Python."""
    n = len(rows)
    mean = [sum(column) / n for column in zip(*rows)]

    def d2(a, b):
        return sum((x - y) ** 2 for x, y in zip(a, b))

    # max() keeps the first of equal keys, so ties go to the lowest index.
    order = [max(range(n), key=lambda j: d2(rows[j], mean))]
    while len(order) < n:
        rest = [j for j in range(n) if j not in order]
        order.append(max(rest, key=lambda j: min(d2(rows[j], rows[p]) for p in order)))
    return order


class TestBranchingOrder:
    @pytest.mark.parametrize("rows, expected", [
        # Mean at the origin; four points tie at distance 1 from it, and
        # after the first two, two tie again at distance 2.
        ([[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1]], [1, 2, 3, 4, 0]),
        # Duplicates: once both values are placed every rest is at distance 0.
        ([[0], [0], [2], [2]], [0, 2, 1, 3]),
        ([[5, 5]], [0]),
    ])
    def test_hand_computed(self, rows, expected):
        assert farthest_first(rows) == expected
        assert branching_order(np.array(rows, dtype=float)) == expected

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_with_planted_ties(self, seed):
        # Integer rows mirrored through an integer mean, with swapped
        # coordinates and duplicates: every distance is computed exactly, so
        # many of them tie and only the index order separates them.
        rng = np.random.default_rng(seed)
        n_y = int(rng.integers(1, 4))
        half = rng.integers(-3, 4, size=(int(rng.integers(1, 6)), n_y)).astype(float)
        rows = [half, -half, half[:, ::-1], half[:1]]
        Y = np.vstack(rows + [-r for r in rows[2:]]) + rng.integers(-5, 6, size=n_y)
        Y = Y[rng.permutation(len(Y))]
        assert branching_order(Y) == farthest_first(Y.tolist())

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_permuting_rows_permutes_order(self, seed):
        # Ties go to the lowest index, which a permutation moves, so the
        # rows must be tie-free: two rows always tie at distance from their
        # mean, while three or more Gaussian rows tie with probability zero.
        rng = np.random.default_rng(seed)
        Y = rng.normal(size=(int(rng.integers(3, 30)), int(rng.integers(1, 6))))
        order = branching_order(Y)
        assert order == farthest_first(Y.tolist())
        perm = rng.permutation(Y.shape[0])
        assert [int(perm[j]) for j in branching_order(Y[perm])] == order

    def test_given_order_is_used_and_checked(self):
        rng = np.random.default_rng(3)
        sub = random_subproblem(rng, n_pts=7, K=3)
        order = branching_order(sub.data.observations)[::-1]
        sb, _ = suffix_lower_bounds(sub.data, sub.K, sub.box, order=order)
        for d in range(len(order)):
            optimum = suffix_optimum(sub, d, order)
            assert sb[d] <= optimum + 1e-12 * max(optimum, 1.0)
        sol = solve_subproblem(sub, suffix_bounds=sb, order=order)
        assert sol.lagrangian_value == pytest.approx(brute_force_subproblem(sub).lagrangian_value, abs=1e-9)
        for bad in ([0, 1, 2], order[:-1] + [order[0]]):
            with pytest.raises(ValueError, match="permutation"):
                solve_subproblem(sub, order=bad)
            with pytest.raises(ValueError, match="permutation"):
                suffix_lower_bounds(sub.data, sub.K, sub.box, order=bad)


class TestSolveSubproblem:
    def test_each_point_own_cluster(self):
        sub = subproblem_1d([0, 3, 7], K=3)
        sol = solve_subproblem(sub)
        assert sol.cluster_cost == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        sub = random_subproblem(rng, n_pts=int(rng.integers(3, 8)), K=int(rng.integers(2, 4)))
        exact = solve_subproblem(sub)
        brute = brute_force_subproblem(sub)
        scale = max(abs(brute.lagrangian_value), 1e-9)
        assert abs(exact.lagrangian_value - brute.lagrangian_value) <= 1e-9 * scale
        assert exact.proof_gap <= 1e-9

    def test_duplicated_points_co_assigned(self):
        values = [0.0, 0.0, 1.0, 1.0, 6.0, 6.0]
        sub = subproblem_1d(values, K=2)
        exact = solve_subproblem(sub)
        brute = brute_force_subproblem(sub)
        assert exact.lagrangian_value == pytest.approx(brute.lagrangian_value, abs=1e-9)

    def test_node_limit_raises_with_incumbent(self):
        # A search given a start has an incumbent from the outset.  The
        # all-zeros start is a poor one, far above the optimum, yet the bound
        # proven when the cap is hit still lies below the optimum.
        rng = np.random.default_rng(0)
        sub = random_subproblem(rng, n_pts=8, K=3)
        optimum = brute_force_subproblem(sub).lagrangian_value
        with pytest.raises(NodeLimitExceeded) as err:
            solve_subproblem(sub, max_nodes=3, start=[0] * sub.data.n_points)
        assert err.value.incumbent is not None
        assert err.value.lower_bound <= err.value.incumbent.lagrangian_value + 1e-9
        assert err.value.lower_bound <= optimum + 1e-12 * max(abs(optimum), 1.0)

    def test_node_limit_before_any_leaf_reports_a_proven_bound(self):
        # Without a start a search has no incumbent until its first leaf; a
        # cap hit before it still names the bound proven so far.
        rng = np.random.default_rng(0)
        sub = random_subproblem(rng, n_pts=8, K=3)
        optimum = brute_force_subproblem(sub).lagrangian_value
        with pytest.raises(NodeLimitExceeded, match="no incumbent, proven lower bound") as err:
            solve_subproblem(sub, max_nodes=3)
        assert err.value.incumbent is None
        assert err.value.lower_bound <= optimum + 1e-12 * max(abs(optimum), 1.0)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_no_start_runs_no_lloyd(self, seed):
        # A search given no start has no incumbent until its first leaf and
        # runs no Lloyd descent; it still proves the optimum with a zero gap.
        rng = np.random.default_rng(seed)
        sub = random_subproblem(rng, n_pts=int(rng.integers(3, 8)), K=int(rng.integers(2, 4)))
        sub = LagrangianSubproblem(data=sub.data, K=sub.K, box=sub.box, c=rng.normal(size=sub.c.shape))

        def no_lloyd(*args):
            raise AssertionError("a search ran a Lloyd descent")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(subsolver, "lloyd_incumbent", no_lloyd)
            sol = solve_subproblem(sub)
        brute = brute_force_subproblem(sub)
        assert abs(sol.lagrangian_value - brute.lagrangian_value) <= 1e-9 * max(abs(brute.lagrangian_value), 1e-9)
        assert sol.proof_gap == 0.0

    def test_node_cap_beyond_64_bits_is_no_cap(self):
        # The compiled loop counts nodes in 64 bits; a larger cap must not
        # wrap around to a small one.
        sub = random_subproblem(np.random.default_rng(1), n_pts=7, K=3)
        for cap in (2 ** 64 + 2, 10 ** 30):
            assert reply_bits(solve_subproblem(sub, max_nodes=cap)) == reply_bits(solve_subproblem(sub))

    def test_determinism(self):
        rng = np.random.default_rng(7)
        sub = random_subproblem(rng, n_pts=7, K=3)
        a = solve_subproblem(sub)
        b = solve_subproblem(sub)
        assert a.assignment == b.assignment
        np.testing.assert_array_equal(a.centroids, b.centroids)


class TestScalarChildBound:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_matches_assignment_lower_bound(self, seed):
        # The search adds one observation at a time in scalar arithmetic and
        # keeps a running sum of the cluster values.  The summation order
        # differs from the numpy reference formula, so equality holds to float64
        # rounding: 1e-12 relative on unit-scale data.
        rng = np.random.default_rng(seed)
        sub = random_subproblem(rng, n_pts=8, K=int(rng.integers(2, 5)), n_y=int(rng.integers(1, 5)))
        tree = row_order_tree(sub)
        prefix = [int(k) for k in rng.integers(0, sub.K, size=int(rng.integers(1, 9)))]
        clusters = list(tree.root)
        bound = sum(cluster[3] for cluster in clusters)
        for d, k in enumerate(prefix):
            new = _add_point(clusters[k], tree.points[d], tree.sq[d], tree.coef[k])
            bound = bound - clusters[k][3] + new[3]
            clusters[k] = new
            expected = assignment_lower_bound(sub, prefix[:d + 1])
            assert abs(bound - expected) <= 1e-12 * max(abs(expected), 1.0)


def bits(value):
    """``value`` with every float replaced by its hex form, which tells
    apart every two floats that differ in a bit (0.0 and -0.0 included)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(bits(v) for v in value)
    return value


# Unit-scale floats, signed zeros among them.
COORDINATES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10.0, 10.0))


@st.composite
def kernel_cases(draw):
    """``(cluster, y, y_sq, coef)`` for a cluster of up to 5 observations in
    1-6 coordinates.  Each coordinate's box puts the new centroid coordinate
    below it, above it, inside it or on an edge, so that the clip to lo, the
    clip to hi and no clip all occur."""
    n_y = draw(st.integers(1, 6))
    count = draw(st.integers(0, 5))
    sums = [draw(COORDINATES) for _ in range(n_y)]
    y = [draw(COORDINATES) for _ in range(n_y)]
    coef = []
    for s, y_i in zip(sums, y):
        c = draw(COORDINATES)
        m = (s + y_i - 0.5 * c) / (count + 1)  # the unclipped centroid coordinate
        gap, width = draw(st.floats(1e-3, 5.0)), draw(st.floats(0.0, 5.0))
        lo, hi = draw(st.sampled_from([
            (m + gap, m + gap + width),    # clipped to lo
            (m - gap - width, m - gap),    # clipped to hi
            (m - gap, m + width),          # inside
            (m, m + width), (m - width, m),  # on an edge
        ]))
        coef.append((0.5 * c, c, lo, hi))
    sumsq, y_sq = draw(COORDINATES), draw(COORDINATES)
    return (count, tuple(sums), sumsq, 0.0), tuple(y), y_sq, tuple(coef)


class TestAddPointKernel:
    @given(kernel_cases())
    @example(((2, (-0.0, 0.0), 1.0, 0.0), (0.0, -0.0), 0.0,
              ((-0.0, -0.0, 0.5, 1.0), (0.0, 0.0, -1.0, -0.5))))  # one coordinate clipped each way
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_bitwise(self, case):
        cluster, y, y_sq, coef = case
        assert bits(_add_point_kernel(len(y))(*case)) == bits(_add_point(cluster, y, y_sq, coef))

    def test_compiled_once_per_dimension(self):
        assert _add_point_kernel(3) is _add_point_kernel(3)
        assert _add_point_kernel(3) is not _add_point_kernel(4)

    @given(st.integers(0, 10 ** 6), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_extension_values_match_labels_value_bitwise(self, seed, zero_dual):
        rng = np.random.default_rng(seed)
        K, n_y, n = int(rng.integers(2, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 9))
        sub = random_subproblem(rng, n_pts=n, K=K, n_y=n_y)
        c = np.zeros((K, n_y)) if zero_dual else sub.c
        tree = row_order_tree(sub, c)
        start = int(rng.integers(0, n))
        labels = tuple(rng.integers(0, K, size=n - 1 - start).tolist())
        expected = [tree.labels_value(start, (k,) + labels) for k in range(K)]
        assert bits(tree.extension_values(start, labels)) == bits(expected)


def suffix_optimum(sub, d, order=None):
    """Plain K-means optimum (c = 0) of the observations at branching positions d..
    of ``order``, by default :func:`branching_order`'s."""
    Y = sub.data.observations
    suffix = Y[branching_order(Y) if order is None else order][d:]
    return brute_force_subproblem(LagrangianSubproblem(
        data=NodeDataset(node_id=0, observations=suffix), K=sub.K, box=sub.box,
        c=np.zeros((sub.K, sub.data.n_y)))).lagrangian_value


class TestSuffixLowerBounds:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_below_each_suffix_optimum(self, seed):
        rng = np.random.default_rng(seed)
        sub = random_subproblem(rng, n_pts=int(rng.integers(3, 8)), K=int(rng.integers(2, 4)))
        sb, _ = suffix_lower_bounds(sub.data, sub.K, sub.box)
        for d in range(sub.data.n_points):
            optimum = suffix_optimum(sub, d)
            assert sb[d] <= optimum + 1e-12 * max(optimum, 1.0)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_non_increasing_and_zero_at_end(self, seed):
        rng = np.random.default_rng(seed)
        sub = random_subproblem(rng, n_pts=int(rng.integers(3, 10)), K=int(rng.integers(2, 4)))
        sb, _ = suffix_lower_bounds(sub.data, sub.K, sub.box)
        assert len(sb) == sub.data.n_points + 1
        assert sb[-1] == 0.0
        assert all(a >= b for a, b in zip(sb, sb[1:]))

    @given(st.integers(0, 10 ** 6), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_returns_the_kmeans_optimum(self, seed, given_order):
        # The last search proves the plain K-means optimum of all the
        # observations; its labels are numbered by first appearance along
        # the order.  Few points for K = 4 can leave clusters empty.
        rng = np.random.default_rng(seed)
        sub = random_subproblem(rng, n_pts=int(rng.integers(1, 8)), K=int(rng.integers(2, 5)))
        n = sub.data.n_points
        order = rng.permutation(n).tolist() if given_order else branching_order(sub.data.observations)
        _, optimum = suffix_lower_bounds(sub.data, sub.K, sub.box, order=order)
        plain = LagrangianSubproblem(data=sub.data, K=sub.K, box=sub.box, c=np.zeros(sub.c.shape))
        brute = brute_force_subproblem(plain).lagrangian_value
        value = evaluate_assignment(plain, optimum).lagrangian_value
        assert abs(value - brute) <= 1e-12 * max(brute, 1e-9)
        firsts = list(dict.fromkeys(optimum[j] for j in order))
        assert firsts == list(range(len(firsts)))

    def test_tight_on_separated_groups(self):
        # Three tight pairs, K = 3: the whole-data optimum is the within-pair
        # cost, and each suffix search runs to a zero gap.
        sub = subproblem_1d([0.0, 0.1, 5.0, 5.1, 10.0, 10.1], K=3)
        sb, _ = suffix_lower_bounds(sub.data, sub.K, sub.box)
        assert sb[0] == pytest.approx(3 * 0.005, rel=1e-9)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_solve_with_bounds_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        sub = random_subproblem(rng, n_pts=int(rng.integers(3, 8)), K=int(rng.integers(2, 4)))
        sub = LagrangianSubproblem(data=sub.data, K=sub.K, box=sub.box,
                                   c=rng.normal(scale=rng.choice([0.5, 2.0]), size=sub.c.shape))
        exact = solve_subproblem(sub, suffix_bounds=suffix_lower_bounds(sub.data, sub.K, sub.box)[0])
        brute = brute_force_subproblem(sub)
        scale = max(abs(brute.lagrangian_value), 1e-9)
        assert abs(exact.lagrangian_value - brute.lagrangian_value) <= 1e-9 * scale
        assert exact.proof_gap <= 1e-9

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_same_answer_fewer_nodes(self, seed):
        rng = np.random.default_rng(seed)
        sub = random_subproblem(rng, n_pts=int(rng.integers(6, 13)), K=3)
        sub = LagrangianSubproblem(data=sub.data, K=3, box=sub.box,
                                   c=rng.normal(scale=rng.choice([0.2, 1.0]), size=sub.c.shape))
        sb, _ = suffix_lower_bounds(sub.data, 3, sub.box)
        with_bounds = solve_subproblem(sub, suffix_bounds=sb)
        without = solve_subproblem(sub)
        assert with_bounds.assignment == without.assignment
        assert with_bounds.lagrangian_value == without.lagrangian_value
        assert with_bounds.stats["explored"] <= without.stats["explored"]

    def test_node_limit_raises(self):
        rng = np.random.default_rng(0)
        sub = random_subproblem(rng, n_pts=8, K=3)
        with pytest.raises(NodeLimitExceeded, match="K-means cost of positions") as err:
            suffix_lower_bounds(sub.data, sub.K, sub.box, max_nodes=3)
        assert err.value.lower_bound <= err.value.incumbent.lagrangian_value + 1e-9

    def test_searches_share_one_node_budget(self, monkeypatch):
        import fedkmeans.subsolver as subsolver

        rng = np.random.default_rng(3)
        sub = random_subproblem(rng, n_pts=10, K=3)
        counts = []
        original = subsolver._best_first

        def counting(*args, **kwargs):
            result = original(*args, **kwargs)
            counts.append(result[1])
            return result

        monkeypatch.setattr(subsolver, "_best_first", counting)
        sb, _ = suffix_lower_bounds(sub.data, sub.K, sub.box)
        total = sum(counts)
        assert max(counts) < total  # no single search uses the whole budget
        monkeypatch.setattr(subsolver, "_best_first", original)
        np.testing.assert_array_equal(suffix_lower_bounds(sub.data, sub.K, sub.box, max_nodes=total + 1)[0], sb)
        with pytest.raises(NodeLimitExceeded) as err:
            suffix_lower_bounds(sub.data, sub.K, sub.box, max_nodes=total)
        assert err.value.explored == total

    def test_time_budget_stop_is_proven(self, monkeypatch):
        # A clock that advances one second per reading, read every 3
        # expanded nodes, stops the precompute in the middle of one of its
        # searches; the bound it names lies below the K-means optimum of all
        # observations.
        rng = np.random.default_rng(4)
        sub = random_subproblem(rng, n_pts=9, K=3)
        optimum = brute_force_subproblem(replace(sub, c=np.zeros(sub.c.shape))).lagrangian_value
        progress = []
        suffix_lower_bounds(sub.data, 3, sub.box, on_progress=lambda *row: progress.append(row))
        ticks = itertools.count()
        monkeypatch.setattr(subsolver, "time", types.SimpleNamespace(perf_counter=lambda: float(next(ticks))))
        monkeypatch.setattr(subsolver, "_CHUNK", 3)
        with pytest.raises(NodeLimitExceeded, match="time budget of 4.5 s reached after") as err:
            suffix_lower_bounds(sub.data, 3, sub.box, time_budget=4.5)
        assert 0 < err.value.explored < progress[-1][3]
        assert err.value.lower_bound <= optimum + 1e-12 * max(abs(optimum), 1.0)

    def test_length_checked(self):
        sub = subproblem_1d([0.0, 1.0, 2.0], K=2)
        with pytest.raises(ValueError, match="4 entries"):
            solve_subproblem(sub, suffix_bounds=[0.0, 0.0, 0.0])


def oracle_subproblem(rng, K: int, n_y: int, dual: str, small_integers: bool) -> LagrangianSubproblem:
    """A subproblem of up to 8 observations (6 for K = 5) under equal or
    distinct dual rows.  Small integers for the data and the dual term make
    many bounds and values tie exactly, so that tiebreaks decide."""
    n = int(rng.integers(1, 9 if K < 5 else 7))
    sub = random_subproblem(rng, n_pts=n, K=K, n_y=n_y)
    draw = ((lambda size: rng.integers(-2, 3, size=size).astype(float)) if small_integers
            else (lambda size: rng.normal(scale=rng.choice([0.5, 2.0]), size=size)))
    if small_integers:
        sub = replace(sub, data=NodeDataset(0, draw((n, n_y))), box=BoundingBox(np.full(n_y, -3.0), np.full(n_y, 3.0)))
    return replace(sub, c=np.tile(draw(n_y), (K, 1)) if dual == "equal" else draw((K, n_y)))


def limit_bits(error: NodeLimitExceeded):
    """What a node cap's error reports, each float by its bits."""
    incumbent = None if error.incumbent is None else reply_bits(error.incumbent)
    return bits(error.lower_bound), error.explored, incumbent, str(error)


class TestCompiledSearch:
    """The compiled solve against the Python oracle: whole replies, bit for bit."""

    @given(st.integers(0, 10 ** 6), st.integers(2, 5), st.integers(1, 4), st.sampled_from(["equal", "distinct"]),
           st.booleans(), st.booleans(), st.sampled_from(["none", "optimum", "random"]))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_search_bitwise(self, seed, K, n_y, dual, small_integers, with_bounds, start):
        # Assignment, centroids, value, cluster cost, proof gap and nodes
        # explored, with and without suffix bounds, from no start, the
        # K-means optimum or a random assignment, which a leaf usually beats.
        rng = np.random.default_rng(seed)
        sub = oracle_subproblem(rng, K, n_y, dual, small_integers)
        bounds, optimum = suffix_lower_bounds(sub.data, K, sub.box)
        start = {"none": None, "optimum": optimum,
                 "random": rng.integers(0, K, size=sub.data.n_points).tolist()}[start]
        sb = bounds if with_bounds else None
        got = solve_subproblem(sub, suffix_bounds=sb, start=start)
        assert reply_bits(got) == reply_bits(reference_solve(sub, suffix_bounds=sb, start=start))

    def test_leaf_that_beats_the_start_matches_the_reference(self):
        # A start of one cluster is far from optimal: leaves replace it.
        sub = random_subproblem(np.random.default_rng(5), n_pts=8, K=3)
        start = [0] * sub.data.n_points
        got = solve_subproblem(sub, start=start)
        assert got.assignment != tuple(start)
        assert reply_bits(got) == reply_bits(reference_solve(sub, start=start))

    @given(st.integers(0, 10 ** 6), st.integers(2, 5), st.integers(1, 4), st.sampled_from(["equal", "distinct"]),
           st.booleans(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_node_limit_matches_reference(self, seed, K, n_y, dual, small_integers, with_start):
        # A cap hit mid-search: the same proven bound, node count and
        # incumbent (or none), with and without a start.
        rng = np.random.default_rng(seed)
        sub = oracle_subproblem(rng, K, n_y, dual, small_integers)
        start = rng.integers(0, K, size=sub.data.n_points).tolist() if with_start else None
        explored = reference_solve(sub, start=start).stats["explored"]
        if explored < 2:
            return
        cap = int(rng.integers(1, explored))
        with pytest.raises(NodeLimitExceeded) as got:
            solve_subproblem(sub, max_nodes=cap, start=start)
        with pytest.raises(NodeLimitExceeded) as want:
            reference_solve(sub, max_nodes=cap, start=start)
        assert limit_bits(got.value) == limit_bits(want.value)
        assert got.value.explored == cap

    @given(st.integers(0, 10 ** 6), st.integers(2, 4), st.integers(1, 4), st.booleans(),
           st.sampled_from([1, 7, subsolver._CHUNK]))
    @settings(max_examples=80, deadline=None)
    def test_suffix_precompute_matches_reference(self, seed, K, n_y, small_integers, chunk):
        # The same bounds and K-means optimum, with the loop returning to
        # Python every `chunk` nodes; then a shared node cap hit part way:
        # the same error, incumbent and bound.
        rng = np.random.default_rng(seed)
        sub = oracle_subproblem(rng, K, n_y, "equal", small_integers)
        data, box = sub.data, sub.box
        progress = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(subsolver, "_CHUNK", chunk)
            bounds, optimum = suffix_lower_bounds(data, K, box, on_progress=lambda *row: progress.append(row))
        want_bounds, want_optimum = reference_suffix_lower_bounds(data, K, box)
        assert (bits(bounds.tolist()), optimum) == (bits(want_bounds.tolist()), want_optimum)
        total = progress[-1][3]
        if total < 2:
            return
        cap = int(rng.integers(1, total))
        with pytest.raises(NodeLimitExceeded) as got:
            suffix_lower_bounds(data, K, box, max_nodes=cap)
        with pytest.raises(NodeLimitExceeded) as want:
            reference_suffix_lower_bounds(data, K, box, max_nodes=cap)
        assert limit_bits(got.value) == limit_bits(want.value)


def left_to_right_sum(values) -> float:
    """0.0 plus each value in turn: Python's sum of floats before 3.12."""
    total = 0.0
    for value in values:
        total += value
    return total


def neumaier_sum(values) -> float:
    """CPython 3.12's builtin sum of a non-empty list of floats
    (Python/bltinmodule.c): int 0 plus the first, then Neumaier's
    compensated sum of the rest, the compensation added at the end unless
    it is zero or not finite."""
    total, compensation = 0 + values[0], 0.0
    for value in values[1:]:
        t = total + value
        if abs(total) >= abs(value):
            compensation += (total - t) + value
        else:
            compensation += (value - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


# Floats of every magnitude, both zeros among them; large ones overflow.
SUMMANDS = st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6),
                              st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1.0, 1.0), st.integers(-300, 307))),
                    min_size=1, max_size=12)


class TestPythonSum:
    """``_search.c`` sums a leaf's, the start's and the root's cluster values
    as the running Python's builtin sum does."""

    @staticmethod
    def c_sum(values, compensated: bool) -> float:
        return subsolver._search_library().sum(np.array(values).tobytes(), len(values), compensated)

    @given(SUMMANDS)
    @example([1.0, 1e100, 1.0, -1e100])  # compensation recovers 2.0; left to right gives 0.0
    @example([-0.0])
    @example([1e308, 1e308, -1e308])  # overflow: the compensation is not finite
    @settings(max_examples=300, deadline=None)
    def test_both_modes_bitwise(self, values):
        assert self.c_sum(values, False).hex() == left_to_right_sum(values).hex()
        assert self.c_sum(values, True).hex() == neumaier_sum(values).hex()

    @given(SUMMANDS)
    @settings(max_examples=300, deadline=None)
    def test_running_interpreter_mode_is_builtin_sum(self, values):
        assert subsolver._COMPENSATED_SUM == (sys.version_info >= (3, 12))
        assert self.c_sum(values, subsolver._COMPENSATED_SUM).hex() == sum(values).hex()


class TestSearchBuild:
    @pytest.fixture
    def fresh_cache(self, monkeypatch, tmp_path):
        """A library cache in ``tmp_path``, with nothing loaded yet."""
        monkeypatch.setattr(subsolver, "_SEARCH_CACHE", tmp_path)
        subsolver._search_library.cache_clear()
        yield tmp_path
        subsolver._search_library.cache_clear()

    def test_builds_one_library_into_the_cache(self, fresh_cache):
        sub = subproblem_1d([0.0, 1.0, 5.0, 6.0], K=2)
        solve_subproblem(sub)
        assert [path.suffix for path in fresh_cache.iterdir()] == [".so"]
        subsolver._search_library.cache_clear()
        library = next(fresh_cache.iterdir())
        mtime = library.stat().st_mtime_ns
        assert solve_subproblem(sub).lagrangian_value == brute_force_subproblem(sub).lagrangian_value
        assert list(fresh_cache.iterdir()) == [library] and library.stat().st_mtime_ns == mtime

    def test_missing_compiler_is_one_clear_error(self, fresh_cache, monkeypatch):
        monkeypatch.setattr(subsolver, "_compiler", lambda: ["fedkmeans-no-such-cc"])
        with pytest.raises(RuntimeError, match=r"cannot build the node search with `fedkmeans-no-such-cc -O2 "
                                               r"-ffp-contract=off.*`: .*No such file or directory"):
            solve_subproblem(subproblem_1d([0.0, 1.0, 5.0], K=2))
        assert list(fresh_cache.iterdir()) == []

    def test_compile_error_names_its_first_line(self, fresh_cache, monkeypatch):
        compiler = subsolver._compiler()
        monkeypatch.setattr(subsolver, "_compiler", lambda: [*compiler, "-fno-such-flag"])
        with pytest.raises(RuntimeError, match=r"cannot build the node search with `.*-fno-such-flag.*`: .+"):
            solve_subproblem(subproblem_1d([0.0, 1.0, 5.0], K=2))
        assert list(fresh_cache.iterdir()) == []

    def test_unwritable_cache_is_one_clear_error(self, fresh_cache, monkeypatch):
        # A cache directory that cannot be made, as under a regular file or
        # in a read-only site-packages, is named in the build error.
        blocker = fresh_cache / "file"
        blocker.write_text("")
        monkeypatch.setattr(subsolver, "_SEARCH_CACHE", blocker / "cache")
        with pytest.raises(RuntimeError, match=r"cannot build the node search with `.*`: cannot write to its cache "
                                               rf"directory {re.escape(str(blocker / 'cache'))}: .*Not a directory"):
            solve_subproblem(subproblem_1d([0.0, 1.0, 5.0], K=2))
        assert list(fresh_cache.iterdir()) == [blocker]


class TestWarmStart:
    """Searches that start from a given incumbent."""

    @given(st.integers(0, 10 ** 6), st.sampled_from([3, 4]), st.booleans(),
           st.sampled_from(["random", "worst"]))
    @settings(max_examples=80, deadline=None)
    def test_any_warm_start_reaches_the_optimum(self, seed, K, zero_dual, kind):
        # "worst" is the costliest of the one-cluster assignments and the
        # optimum's partition under every relabelling: under nonzero duals a
        # relabelled optimum can be far from optimal.  The search relabels
        # the start under nonzero duals and then starts from it.
        rng = np.random.default_rng(seed)
        sub = random_subproblem(rng, n_pts=int(rng.integers(4, 8 if K == 4 else 10)), K=K)
        c = np.zeros((K, 2)) if zero_dual else rng.normal(scale=rng.choice([0.5, 2.0]), size=(K, 2))
        sub = LagrangianSubproblem(data=sub.data, K=K, box=sub.box, c=c)
        brute = brute_force_subproblem(sub)
        if kind == "random":
            warm = rng.integers(0, K, size=sub.data.n_points).tolist()
        else:
            candidates = [[k] * sub.data.n_points for k in range(K)]
            candidates += [[perm[a] for a in brute.assignment] for perm in itertools.permutations(range(K))]
            warm = max(candidates, key=lambda a: evaluate_assignment(sub, a).lagrangian_value)
        bounds, _ = suffix_lower_bounds(sub.data, K, sub.box)
        optimum = brute.lagrangian_value
        scale = max(abs(optimum), 1e-9)
        for sb in (None, bounds):
            sol = solve_subproblem(sub, suffix_bounds=sb, start=warm)
            assert abs(sol.lagrangian_value - optimum) <= 1e-9 * scale
            # The proven bound is capped at the incumbent's value.
            assert sol.proof_gap == 0.0
            assert sol.lagrangian_value == evaluate_assignment(sub, sol.assignment).lagrangian_value


def exact_value(sub, assignment) -> Fraction:
    """The Lagrangian value of ``assignment`` in exact rational arithmetic:
    each cluster's closed-form centroid (see :func:`closed_form_centroid`)
    and cost, from the floats of the data, box and dual term."""
    Y = [[Fraction(v) for v in row] for row in sub.data.observations.tolist()]
    lo, hi = ([Fraction(v) for v in bound.tolist()] for bound in (sub.box.lo, sub.box.hi))
    total = Fraction(0)
    for k, c_k in enumerate(sub.c.tolist()):
        c_k = [Fraction(v) for v in c_k]
        part = [y for y, a in zip(Y, assignment) if a == k]
        if part:
            sums = [sum(column) for column in zip(*part)]
            m = [min(max((s - c / 2) / len(part), l), h) for s, c, l, h in zip(sums, c_k, lo, hi)]
        else:
            m = [l if c > 0 else h if c < 0 else (l + h) / 2 for c, l, h in zip(c_k, lo, hi)]
        total += sum(sum((v - m_i) ** 2 for v, m_i in zip(y, m)) for y in part)
        total += sum(c * m_i for c, m_i in zip(c_k, m))
    return total


class TestIncumbentIndependence:
    @given(st.integers(0, 10 ** 6), st.sampled_from([3, 4]))
    @settings(max_examples=60, deadline=None)
    @example(seed=267776, K=4)
    def test_every_start_gives_the_same_answer(self, seed, K):
        # At the default tolerance a search proves its optimum exactly, so
        # the start changes what it prunes, not what it returns: the same
        # assignment, hence the same value bit for bit, from the optimum, a
        # random assignment, the costliest one-cluster assignment or no
        # start (no incumbent), with and without suffix bounds, and a zero
        # proof gap.  The dual rows differ, so the start is relabelled under
        # them.  Only an exact tie may go either way: two assignments of
        # equal value in exact arithmetic, whose values in floating point
        # differ in the last bits or not at all.  The explicit example is
        # one: a point alone in cluster 1, or with another in cluster 0,
        # gives both clusters the box corner where empty cluster 1 lies.
        rng = np.random.default_rng(seed)
        sub = random_subproblem(rng, n_pts=int(rng.integers(4, 8 if K == 4 else 10)), K=K)
        c = rng.normal(scale=rng.choice([0.5, 2.0]), size=(K, 2))
        sub = LagrangianSubproblem(data=sub.data, K=K, box=sub.box, c=c)
        assert np.any(c != c[0])
        n = sub.data.n_points
        starts = [brute_force_subproblem(sub).assignment, rng.integers(0, K, size=n).tolist(),
                  max(([k] * n for k in range(K)), key=lambda a: evaluate_assignment(sub, a).lagrangian_value),
                  None]
        bounds, _ = suffix_lower_bounds(sub.data, K, sub.box)
        sols = [solve_subproblem(sub, suffix_bounds=sb, start=start) for sb in (None, bounds) for start in starts]
        for sol in sols:
            assert sol.proof_gap == 0.0
            if sol.assignment == sols[0].assignment:
                assert bits(sol.lagrangian_value) == bits(sols[0].lagrangian_value)
            else:
                assert exact_value(sub, sol.assignment) == exact_value(sub, sols[0].assignment)
                scale = max(abs(sols[0].lagrangian_value), 1.0)
                assert abs(sol.lagrangian_value - sols[0].lagrangian_value) <= 1e-12 * scale


class TestStartRelabelling:
    @given(st.integers(0, 10 ** 6), st.sampled_from(["zero", "equal", "unequal"]))
    @settings(max_examples=60, deadline=None)
    def test_least_value_over_all_relabellings(self, seed, dual):
        # Few points for K = 4 leave parts empty.  Under equal dual rows every
        # relabelling has the same value, and the start is kept as given.
        rng = np.random.default_rng(seed)
        K = int(rng.integers(2, 5))
        sub = random_subproblem(rng, n_pts=int(rng.integers(2, 9)), K=K, n_y=int(rng.integers(1, 4)))
        c = {"zero": np.zeros(sub.c.shape), "equal": np.tile(rng.normal(size=sub.c.shape[1]), (K, 1)),
             "unequal": rng.normal(scale=rng.choice([0.5, 2.0]), size=sub.c.shape)}[dual]
        sub = LagrangianSubproblem(data=sub.data, K=K, box=sub.box, c=c)
        start = rng.integers(0, K, size=sub.data.n_points).tolist()
        new_label, _ = row_order_tree(sub, start=start).relabelled_start()
        assert sorted(new_label) == list(range(K))
        got = evaluate_assignment(sub, [new_label[a] for a in start]).lagrangian_value
        values = [evaluate_assignment(sub, [perm[a] for a in start]).lagrangian_value
                  for perm in itertools.permutations(range(K))]
        scale = max(abs(got), 1.0)
        assert got <= min(values) + 1e-12 * scale
        if dual != "unequal":
            assert new_label == list(range(K))

    def test_permutation_tie_rule(self):
        # The least sum wins, and sums within 1e-15 of it tie: the first
        # permutation in lexicographic order among them wins; compiled and
        # reference alike.
        shifted = [[float((old - new) % 9 != 1) for new in range(9)] for old in range(9)]
        for relabelling in (_relabelling, _least_cost_relabelling):
            assert relabelling([[1.0, 0.0], [0.0, 1.0]]) == [1, 0]
            assert relabelling([[0.0, 0.0], [0.0, 0.0]]) == [0, 1]
            assert relabelling([[0.0, 1e-16], [1e-16, 0.0]]) == [0, 1]
            assert relabelling([[1e-16, 0.0], [0.0, 0.0]]) == [0, 1]
            assert relabelling([[1e-14, 0.0], [0.0, 0.0]]) == [1, 0]
            assert relabelling([[0.0] * 9] * 9) == list(range(9))
            assert relabelling(shifted) == [(old - 1) % 9 for old in range(9)]

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration(self, seed):
        # Against all K! permutations in itertools (lexicographic) order: on
        # a table of normal draws, the least sum; on one of a few dyadic
        # values, whose sums are exact and often tie, the first least sum.
        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, 7))
        for cost, tol in ((rng.normal(size=(K, K)).tolist(), 1e-12),
                          (rng.choice([0.0, 0.5, 1.0, 2.0], size=(K, K)).tolist(), 0.0)):
            new_label = _relabelling(cost)
            assert new_label == _least_cost_relabelling(cost)
            got = sum(cost[p][new_label[p]] for p in range(K))
            totals = [sum(cost[perm[k]][k] for k in range(K)) for perm in itertools.permutations(range(K))]
            assert got <= min(totals) + tol
            if tol == 0.0:
                first = next(perm for perm, total in zip(itertools.permutations(range(K)), totals)
                             if total == min(totals))
                assert all(new_label[first[k]] == k for k in range(K))


def grid_cell(n_nodes, n_y, K):
    """Replicate 1 of the seed-0 grid cell with these axes."""
    return generate_instance(BenchmarkSpec(n_nodes, n_y, K, 1, _grid_seed(0, n_nodes, n_y, K, 1)))


def reply_bits(solution):
    """Every field of a solve's reply, each float by its bits."""
    return (solution.assignment, bits(solution.centroids.tolist()), bits(solution.lagrangian_value),
            bits(solution.cluster_cost), bits(solution.proof_gap), solution.stats)


class TestSearchTemplate:
    """A template built once per node gives every solve the bits of a solve
    that builds its own."""

    @pytest.mark.parametrize("cell", [(3, 3, 3), (2, 2, 4)], ids=["3N3D3K_1", "2N2D4K_1"])
    def test_same_reply_with_and_without_template(self, cell):
        # One template serves every dual term of a node in turn: zero, equal
        # rows and seeded random ones.
        instance = grid_cell(*cell)
        K, n_y, box = instance.K, instance.n_y, instance.box
        for node in instance.nodes:
            bounds, optimum = suffix_lower_bounds(node, K, box)
            template = SearchTemplate(node, K, box, bounds, start=optimum)
            rng = np.random.default_rng(node.node_id)
            duals = [np.zeros((K, n_y)), np.tile(rng.normal(size=n_y), (K, 1))]
            duals += [rng.normal(scale=0.5, size=(K, n_y)) for _ in range(3)]
            for c in duals:
                sub = LagrangianSubproblem(data=node, K=K, box=box, c=c)
                fresh = solve_subproblem(sub, suffix_bounds=bounds, start=optimum)
                assert reply_bits(solve_subproblem(sub, template=template)) == reply_bits(fresh)

    @given(st.integers(0, 10 ** 6), st.sampled_from(["zero", "equal", "unequal"]))
    @settings(max_examples=60, deadline=None)
    def test_start_value_and_reply_match_the_general_path(self, seed, dual):
        # The relabelled start's value from its cached parts is the kernel's
        # labels_value bit for bit, and its reply from the cached rows is the
        # one evaluate_assignment gives.  Few points leave parts empty.
        rng = np.random.default_rng(seed)
        K, n_y, n = int(rng.integers(2, 6)), int(rng.integers(1, 5)), int(rng.integers(1, 10))
        sub = random_subproblem(rng, n_pts=n, K=K, n_y=n_y)
        c = {"zero": np.zeros((K, n_y)), "equal": np.tile(rng.normal(size=n_y), (K, 1)),
             "unequal": rng.normal(scale=rng.choice([0.5, 2.0]), size=(K, n_y))}[dual]
        sub = LagrangianSubproblem(data=sub.data, K=K, box=sub.box, c=c)
        start = rng.integers(0, K, size=n).tolist()
        order = rng.permutation(n).tolist()
        template = SearchTemplate(sub.data, K, sub.box, order=order, start=start)
        tree = _Tree(template, sub.c)
        new_label, value = tree.relabelled_start()
        assert bits(value) == bits(tree.labels_value(0, [new_label[start[j]] for j in order]))
        got = template.start_solution(sub, new_label, value, value, 7)
        want = evaluate_assignment(sub, [new_label[k] for k in start])
        assert reply_bits(got) == reply_bits(replace(want, stats={"explored": 7}))

    def test_leaf_that_beats_the_start_gets_the_general_reply(self, monkeypatch):
        # Under these K=4 duals the node's K-means optimum, relabelled, is
        # not optimal: a leaf beats it, and the reply is evaluate_assignment's
        # solution of that leaf.
        instance = grid_cell(2, 2, 4)
        node, K, box = instance.nodes[0], instance.K, instance.box
        bounds, optimum = suffix_lower_bounds(node, K, box)
        template = SearchTemplate(node, K, box, bounds, start=optimum)
        c = np.random.default_rng(3).normal(scale=2.0, size=(K, instance.n_y))
        sub = LagrangianSubproblem(data=node, K=K, box=box, c=c)
        finished = []
        finish = subsolver._finish
        monkeypatch.setattr(subsolver, "_finish", lambda *args: finished.append(args) or finish(*args))
        solution = solve_subproblem(sub, template=template)
        assert len(finished) == 1
        new_label, value = _Tree(template, sub.c).relabelled_start()
        assert solution.lagrangian_value < value
        assert solution.proof_gap == 0.0
        expected = replace(evaluate_assignment(sub, solution.assignment), stats=solution.stats)
        assert reply_bits(solution) == reply_bits(expected)
        assert reply_bits(solve_subproblem(sub, suffix_bounds=bounds, start=optimum)) == reply_bits(solution)

    def test_template_checked(self):
        instance = grid_cell(2, 2, 3)
        node, other = instance.nodes
        template = SearchTemplate(node, instance.K, instance.box)
        c = np.zeros((instance.K, instance.n_y))
        with pytest.raises(ValueError, match="not both"):
            solve_subproblem(LagrangianSubproblem(data=node, K=3, box=instance.box, c=c), template=template,
                             order=branching_order(node.observations))
        for data, K, box in ((other, 3, instance.box), (node, 2, instance.box),
                             (node, 3, BoundingBox(instance.box.lo, instance.box.hi))):
            sub = LagrangianSubproblem(data=data, K=K, box=box, c=np.zeros((K, instance.n_y)))
            with pytest.raises(ValueError, match="other data, K or box"):
                solve_subproblem(sub, template=template)
        with pytest.raises(ValueError, match="suffix_bounds must have"):
            SearchTemplate(node, 3, instance.box, [0.0])
        with pytest.raises(ValueError, match="labels out of range"):
            SearchTemplate(node, 3, instance.box, start=[3] * node.n_points)


class TestRelabel:
    def test_identity_when_aligned(self):
        sol = solve_subproblem(subproblem_1d([0, 1, 10, 11], K=2))
        np.testing.assert_array_equal(relabel_to_reference(sol.centroids, sol.centroids), sol.centroids)

    def test_swap_restores_alignment(self):
        sol = solve_subproblem(subproblem_1d([0, 1, 10, 11], K=2))
        reference = sol.centroids[::-1].copy()
        np.testing.assert_array_equal(relabel_to_reference(sol.centroids, reference), reference)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape of the centroids"):
            relabel_to_reference(np.zeros((3, 2)), np.zeros((2, 2)))

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_min_total_distance_permutation(self, seed):
        # The rows come back permuted, in the least-cost order over all K!
        # permutations.
        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, 6))
        centroids, reference = rng.normal(size=(2, K, 2))
        aligned = relabel_to_reference(centroids, reference)
        assert sorted(map(tuple, aligned.tolist())) == sorted(map(tuple, centroids.tolist()))
        achieved = float(np.sum((aligned - reference) ** 2))
        best = min(
            float(np.sum((centroids[list(perm)] - reference) ** 2))
            for perm in itertools.permutations(range(K))
        )
        assert achieved == pytest.approx(best, abs=1e-9)


class TestWeakDualityBuildingBlock:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_any_feasible_assignment_above_optimum(self, seed):
        rng = np.random.default_rng(seed)
        sub = random_subproblem(rng, n_pts=6, K=2)
        optimum = solve_subproblem(sub)
        for _ in range(5):
            labels = rng.integers(0, 2, size=6)
            assert evaluate_assignment(sub, labels).lagrangian_value >= \
                optimum.lagrangian_value - 1e-9
