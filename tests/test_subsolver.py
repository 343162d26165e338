"""Tests for the exact node subproblem solver and its supporting pieces."""

import itertools
import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedkmeans.core import BoundingBox, NodeDataset
from fedkmeans.subsolver import (
    LagrangianSubproblem,
    NodeLimitExceeded,
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
from fedkmeans.subsolver import _add_point, _add_point_batch, _Tree, _least_cost_relabelling

BOX2 = BoundingBox(np.array([-3.0, -3.0]), np.array([3.0, 3.0]))


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
    tree = _Tree(sub.data.observations, sub.K, sub.c, sub.box, [0.0] * (sub.data.n_points + 1))
    return tree.labels_value(0, [int(k) for k in prefix])


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
        rng = np.random.default_rng(0)
        sub = random_subproblem(rng, n_pts=8, K=3)
        with pytest.raises(NodeLimitExceeded) as err:
            solve_subproblem(sub, max_nodes=3)
        assert err.value.incumbent is not None
        assert err.value.lower_bound <= err.value.incumbent.lagrangian_value + 1e-9

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_loose_tolerance_bound_is_proven(self, seed):
        # At rel_tol 0.3 the search prunes children whose bound lies between
        # the stop threshold and the incumbent.  The bound behind proof_gap
        # must still lie below the optimum, with and without suffix bounds.
        # The search starts from the all-zeros assignment in place of Lloyd's,
        # a poor incumbent, so it has children to prune.
        rng = np.random.default_rng(seed)
        sub = random_subproblem(rng, n_pts=int(rng.integers(4, 8)))
        optimum = brute_force_subproblem(sub).lagrangian_value
        poor_start = {"lloyd_incumbent": starting_from([0] * sub.data.n_points)}
        for bounds in (None, suffix_lower_bounds(sub.data, sub.K, sub.box)[0]):
            sol = with_constants(poor_start, lambda: solve_subproblem(sub, rel_tol=0.3, suffix_bounds=bounds))
            proven = sol.lagrangian_value - sol.proof_gap * max(abs(sol.lagrangian_value), 1e-9)
            assert proven <= optimum + 1e-12 * max(abs(optimum), 1.0)
            assert sol.proof_gap <= 0.3

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
        Y = sub.data.observations
        tree = _Tree(Y, sub.K, sub.c, sub.box, [0.0] * 9)
        prefix = [int(k) for k in rng.integers(0, sub.K, size=int(rng.integers(1, 9)))]
        clusters = list(tree.root)
        bound = sum(cluster[3] for cluster in clusters)
        for d, k in enumerate(prefix):
            new = _add_point(clusters[k], tree.points[d], tree.sq[d], tree.coef[k])
            bound = bound - clusters[k][3] + new[3]
            clusters[k] = new
            expected = assignment_lower_bound(sub, prefix[:d + 1])
            assert abs(bound - expected) <= 1e-12 * max(abs(expected), 1.0)


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
    @example(seed=380994)  # batched: 229 nodes with suffix bounds, 227 without
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
        # A batched step may expand nodes that the one-at-a-time order would
        # prune, so fewer nodes are promised only for the one-at-a-time search.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(subsolver, "_BATCH_AT", math.inf)
            with_bounds = solve_subproblem(sub, suffix_bounds=sb)
            without = solve_subproblem(sub)
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

    def test_length_checked(self):
        sub = subproblem_1d([0.0, 1.0, 2.0], K=2)
        with pytest.raises(ValueError, match="4 entries"):
            solve_subproblem(sub, suffix_bounds=[0.0, 0.0, 0.0])


SCALAR = {"_BATCH_AT": 10 ** 9}                          # never switch
BATCHED = {"_BATCH_AT": 1}                               # switch before the root is expanded
SMALL_BATCHES = {"_BATCH_AT": 1, "_BATCH": 3, "_FRONT": 4}  # many steps, front refills and trims


def with_constants(constants, solve):
    """``solve()`` with the module attributes in ``constants`` replaced."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in constants.items():
            patch.setattr(subsolver, name, value)
        return solve()


class TestBatchedSearch:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_child_stats_match_scalar_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        K, n_y = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        sub = random_subproblem(rng, n_pts=8, K=K, n_y=n_y)
        tree = _Tree(sub.data.observations, K, sub.c, sub.box, [0.0] * 9)
        nodes = []
        for _ in range(5):
            clusters = list(tree.root)
            depth = int(rng.integers(0, 8))
            for d, k in enumerate(rng.integers(0, K, size=depth).tolist()):
                clusters[k] = _add_point(clusters[k], tree.points[d], tree.sq[d], tree.coef[k])
            nodes.append((depth, clusters))
        stats = np.array([[(count, *sums, sumsq, value) for count, sums, sumsq, value in clusters]
                          for _, clusters in nodes])
        depth = np.array([d for d, _ in nodes])
        added = _add_point_batch(tree, stats, tree.Yo[depth], np.array(tree.sq)[depth])
        for row, (d, clusters) in enumerate(nodes):
            for k in range(K):
                count, sums, sumsq, value = _add_point(clusters[k], tree.points[d], tree.sq[d], tree.coef[k])
                assert added[row, k].tolist() == [count, *sums, sumsq, value]

    @given(st.integers(0, 10 ** 6), st.sampled_from([3, 4]), st.sampled_from([2, 3]), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_paths_agree_with_enumeration(self, seed, K, n_y, zero_dual):
        # Zero duals make the labels interchangeable, so the searches skip
        # symmetric branches.  A proven bound may differ between the paths
        # by rounding (a leaf's bound and its evaluated value differ in the
        # last bits), so bounds are compared to 1e-12.
        rng = np.random.default_rng(seed)
        sub = random_subproblem(rng, n_pts=int(rng.integers(6, 9 if K == 4 else 11)), K=K, n_y=n_y)
        c = np.zeros((K, n_y)) if zero_dual else rng.normal(scale=rng.choice([0.5, 2.0]), size=(K, n_y))
        sub = LagrangianSubproblem(data=sub.data, K=K, box=sub.box, c=c)
        brute = brute_force_subproblem(sub)
        scale = max(abs(brute.lagrangian_value), 1.0)

        def solve():
            bounds, _ = suffix_lower_bounds(sub.data, K, sub.box)
            return bounds, solve_subproblem(sub, suffix_bounds=bounds), solve_subproblem(sub)

        ref_bounds, *ref = with_constants(SCALAR, solve)
        for constants in (BATCHED, SMALL_BATCHES):
            bounds, *sols = with_constants(constants, solve)
            np.testing.assert_allclose(bounds, ref_bounds, rtol=0, atol=1e-12 * scale)
            for sol, want in zip(sols, ref):
                assert sol.assignment == want.assignment
                assert sol.lagrangian_value == want.lagrangian_value
                assert abs(sol.proof_gap - want.proof_gap) <= 1e-12
                assert abs(sol.lagrangian_value - brute.lagrangian_value) <= 1e-9 * scale
                assert sol.proof_gap <= 1e-9

    def test_switch_mid_search_agrees(self):
        # Large enough that the default search switches after ~128 open
        # nodes, carrying the scalar heap's label lists into the arrays.
        rng = np.random.default_rng(5)
        sub = random_subproblem(rng, n_pts=22, K=4, n_y=2)
        sub = LagrangianSubproblem(data=sub.data, K=4, box=sub.box, c=rng.normal(size=(4, 2)))
        bounds, _ = suffix_lower_bounds(sub.data, 4, sub.box)
        scalar = with_constants(SCALAR, lambda: solve_subproblem(sub, suffix_bounds=bounds))
        assert scalar.stats["explored"] > 10 * subsolver._BATCH_AT
        switched = solve_subproblem(sub, suffix_bounds=bounds)
        assert switched.assignment == scalar.assignment
        assert switched.lagrangian_value == scalar.lagrangian_value
        assert switched.proof_gap <= 1e-9
        assert switched.stats["explored"] <= 1.1 * scalar.stats["explored"]

    def test_suffix_searches_switch_mid_search(self, monkeypatch):
        # The suffix search over positions d..n-1 starts at depth d, so a
        # switch there carries non-empty label lists into rows whose first d
        # entries are unused.
        rng = np.random.default_rng(5)
        sub = random_subproblem(rng, n_pts=22, K=4, n_y=2)
        scalar = with_constants(SCALAR, lambda: suffix_lower_bounds(sub.data, 4, sub.box)[0])
        switches = []
        original = subsolver._best_first_batched

        def recording(tree, start, heap, *args):
            switches.append((start, len(heap)))
            return original(tree, start, heap, *args)

        monkeypatch.setattr(subsolver, "_best_first_batched", recording)
        switched = suffix_lower_bounds(sub.data, 4, sub.box)[0]
        assert any(start > 0 and size >= subsolver._BATCH_AT for start, size in switches)
        np.testing.assert_allclose(switched, scalar, rtol=0, atol=1e-12 * max(abs(scalar[0]), 1.0))

    def test_node_limit_mid_batch(self):
        rng = np.random.default_rng(2)
        sub = random_subproblem(rng, n_pts=9, K=3)
        sub = LagrangianSubproblem(data=sub.data, K=3, box=sub.box, c=rng.normal(size=(3, 2)))
        optimum = brute_force_subproblem(sub).lagrangian_value
        full = with_constants(SMALL_BATCHES, lambda: solve_subproblem(sub))
        assert full.stats["explored"] > 20
        for limit in (1, 2, 13, full.stats["explored"] - 1):
            with pytest.raises(NodeLimitExceeded) as err:
                with_constants(SMALL_BATCHES, lambda: solve_subproblem(sub, max_nodes=limit))
            assert err.value.explored == limit
            assert err.value.lower_bound <= optimum + 1e-12 * max(abs(optimum), 1.0)

    def test_time_budget_stop_is_proven(self, monkeypatch):
        # A clock that advances one second per reading stops the search
        # after a few batched steps.
        ticks = itertools.count()
        monkeypatch.setattr(subsolver, "time", types.SimpleNamespace(perf_counter=lambda: float(next(ticks))))
        rng = np.random.default_rng(4)
        sub = random_subproblem(rng, n_pts=10, K=3)
        sub = LagrangianSubproblem(data=sub.data, K=3, box=sub.box, c=rng.normal(size=(3, 2)))
        optimum = brute_force_subproblem(sub).lagrangian_value
        full = with_constants(SMALL_BATCHES, lambda: solve_subproblem(sub))
        stopped = with_constants(SMALL_BATCHES, lambda: solve_subproblem(sub, time_budget=4.5))
        assert stopped.stats["explored"] < full.stats["explored"]
        assert stopped.proof_gap > 0
        proven = stopped.lagrangian_value - stopped.proof_gap * max(abs(stopped.lagrangian_value), 1e-9)
        assert proven <= optimum + 1e-12 * max(abs(optimum), 1.0)


def starting_from(assignment):
    """A stand-in for :func:`lloyd_incumbent` that starts a search from
    ``assignment``; :func:`solve_subproblem` looks it up at each call."""
    return lambda subproblem, order: evaluate_assignment(subproblem, assignment)


class TestWarmStart:
    """Searches that start from a given incumbent in place of Lloyd's."""

    @given(st.integers(0, 10 ** 6), st.sampled_from([3, 4]), st.booleans(),
           st.sampled_from(["random", "worst"]), st.sampled_from(["lloyd", "start"]),
           st.sampled_from([{}, {"_BATCH_AT": 8}, BATCHED, SMALL_BATCHES]))
    @settings(max_examples=80, deadline=None)
    def test_any_warm_start_reaches_the_optimum(self, seed, K, zero_dual, kind, via, constants):
        # "worst" is the costliest of the one-cluster assignments and the
        # optimum's partition under every relabelling: under nonzero duals a
        # relabelled optimum can be far from optimal.  The warm start stands
        # in for Lloyd's incumbent, or is passed as ``start`` next to a
        # Lloyd stand-in that puts every observation in cluster 0, so that
        # ``start`` (relabelled under nonzero duals) usually replaces it.  A
        # lowered _BATCH_AT switches the search to batches early.
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
        if via == "lloyd":
            constants, start = {**constants, "lloyd_incumbent": starting_from(warm)}, None
        else:
            constants, start = {**constants, "lloyd_incumbent": starting_from([0] * sub.data.n_points)}, warm
        for sb in (None, bounds):
            sol = with_constants(constants, lambda: solve_subproblem(sub, suffix_bounds=sb, start=start))
            assert abs(sol.lagrangian_value - optimum) <= 1e-9 * scale
            assert sol.proof_gap <= 1e-9
            assert sol.lagrangian_value == evaluate_assignment(sub, sol.assignment).lagrangian_value
            # At a loose tolerance the proven bound must still lie below the optimum.
            loose = with_constants(constants, lambda: solve_subproblem(sub, rel_tol=0.3, suffix_bounds=sb,
                                                                       start=start))
            proven = loose.lagrangian_value - loose.proof_gap * max(abs(loose.lagrangian_value), 1e-9)
            assert proven <= optimum + 1e-12 * max(abs(optimum), 1.0)
            assert loose.proof_gap <= 0.3


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
        tree = _Tree(sub.data.observations, K, sub.c, sub.box, [0.0] * (sub.data.n_points + 1))
        new_label, value = tree.least_cost_relabelling(start)
        assert sorted(new_label) == list(range(K))
        got = evaluate_assignment(sub, [new_label[a] for a in start]).lagrangian_value
        values = [evaluate_assignment(sub, [perm[a] for a in start]).lagrangian_value
                  for perm in itertools.permutations(range(K))]
        scale = max(abs(got), 1.0)
        assert got <= min(values) + 1e-12 * scale
        assert abs(value - got) <= 1e-12 * scale
        if dual != "unequal":
            assert new_label == list(range(K))

    def test_permutation_tie_rule_and_limit(self):
        # The first least-cost permutation in itertools order wins unless a
        # later one is lower by more than 1e-15; K > 8 is refused.
        assert _least_cost_relabelling([[1.0, 0.0], [0.0, 1.0]]) == [1, 0]
        assert _least_cost_relabelling([[0.0, 0.0], [0.0, 0.0]]) == [0, 1]
        assert _least_cost_relabelling([[0.0, 1e-16], [1e-16, 0.0]]) == [0, 1]
        with pytest.raises(ValueError, match="K <= 8"):
            _least_cost_relabelling([[0.0] * 9] * 9)


class TestRelabel:
    def test_identity_when_aligned(self):
        sub = subproblem_1d([0, 1, 10, 11], K=2)
        sol = solve_subproblem(sub)
        relabeled = relabel_to_reference(sol, sol.centroids, sub)
        np.testing.assert_array_equal(relabeled.centroids, sol.centroids)
        assert relabeled.assignment == sol.assignment

    def test_swap_restores_alignment(self):
        # Zero duals, and equal nonzero dual terms for every label.
        for c in (None, [[0.5], [0.5]]):
            sub = subproblem_1d([0, 1, 10, 11], K=2, c=c)
            sol = solve_subproblem(sub)
            reference = sol.centroids[::-1].copy()
            relabeled = relabel_to_reference(sol, reference, sub)
            np.testing.assert_allclose(relabeled.centroids, reference)
            assert relabeled.lagrangian_value == pytest.approx(sol.lagrangian_value, abs=1e-12)

    def test_unequal_dual_terms_rejected(self):
        # Under different dual terms a permuted optimum is no longer optimal:
        # its value would overstate the node's minimum.
        sub = subproblem_1d([0, 1, 10, 11], K=2, c=[[0.5], [-0.5]])
        sol = solve_subproblem(sub)
        with pytest.raises(ValueError, match="same dual term"):
            relabel_to_reference(sol, sol.centroids[::-1].copy(), sub)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_min_total_distance_permutation(self, seed):
        # c = 0 and three well-separated groups keep every cluster occupied, so
        # relabeling permutes the centroids exactly.
        rng = np.random.default_rng(seed)
        centers = np.array([[-5.0, 0.0], [0.0, 5.0], [5.0, 0.0]])
        Y = np.vstack([c + 0.1 * rng.normal(size=(2, 2)) for c in centers])
        box = BoundingBox(Y.min(axis=0) - 1, Y.max(axis=0) + 1)
        sub = LagrangianSubproblem(data=NodeDataset(0, Y), K=3, box=box,
                                   c=np.zeros((3, 2)))
        sol = solve_subproblem(sub)
        reference = rng.normal(size=sol.centroids.shape)
        relabeled = relabel_to_reference(sol, reference, sub)
        achieved = float(np.sum((relabeled.centroids - reference) ** 2))
        best = min(
            float(np.sum((sol.centroids[list(perm)] - reference) ** 2))
            for perm in itertools.permutations(range(3))
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
