"""Tests for the exact node subproblem solver and its supporting pieces."""

import itertools
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedkmeans.core import BoundingBox, NodeDataset
from fedkmeans.subsolver import (
    LagrangianSubproblem,
    NodeLimitExceeded,
    assignment_lower_bound,
    brute_force_subproblem,
    closed_form_centroid,
    evaluate_assignment,
    lloyd_incumbent,
    relabel_to_reference,
    solve_subproblem,
    suffix_lower_bounds,
)
import fedkmeans.subsolver as subsolver
from fedkmeans.subsolver import _add_point, _add_point_batch, _branching_order, _Tree

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


class TestLowerBound:
    def test_empty_prefix_zero_dual(self):
        sub = subproblem_1d([0, 1, 2], K=2)
        assert assignment_lower_bound(sub, []) == 0.0

    def test_tight_at_leaves(self):
        sub = subproblem_1d([0, 1, 10, 11], K=2)
        for labels in itertools.product(range(2), repeat=4):
            bound = assignment_lower_bound(sub, labels)
            value = evaluate_assignment(sub, labels).lagrangian_value
            assert bound == pytest.approx(value, abs=1e-9)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_bound_below_all_completions(self, seed):
        rng = np.random.default_rng(seed)
        sub = random_subproblem(rng, n_pts=5, K=2)
        prefix_len = int(rng.integers(0, 6))
        prefix = list(rng.integers(0, 2, size=prefix_len))
        bound = assignment_lower_bound(sub, prefix)
        for tail in itertools.product(range(2), repeat=5 - prefix_len):
            value = evaluate_assignment(sub, prefix + list(tail)).lagrangian_value
            assert bound <= value + 1e-9

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_bound_monotone_in_prefix(self, seed):
        rng = np.random.default_rng(seed)
        sub = random_subproblem(rng, n_pts=6, K=2)
        labels = list(rng.integers(0, 2, size=6))
        bounds = [assignment_lower_bound(sub, labels[:d]) for d in range(7)]
        for parent, child in zip(bounds, bounds[1:]):
            assert child >= parent - 1e-12


class TestLloydIncumbent:
    def test_well_separated_reaches_optimum(self):
        sub = subproblem_1d([0, 1, 10, 11], K=2)
        sol = lloyd_incumbent(sub, n_starts=5, seed=0)
        assert sol.cluster_cost == pytest.approx(1.0)

    def test_single_cluster_closed_form(self):
        data = NodeDataset(0, np.array([[0.0], [4.0]]))
        box = BoundingBox(np.array([-5.0]), np.array([5.0]))
        sub = LagrangianSubproblem(data=data, K=1, box=box, c=np.zeros((1, 1)))
        for seed in range(3):
            sol = lloyd_incumbent(sub, n_starts=1, seed=seed)
            np.testing.assert_allclose(sol.centroids, [[2.0]])

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_incumbent_is_upper_bound(self, seed):
        rng = np.random.default_rng(seed)
        sub = random_subproblem(rng, n_pts=6, K=2)
        incumbent = lloyd_incumbent(sub, n_starts=3, seed=seed)
        optimum = brute_force_subproblem(sub)
        assert incumbent.lagrangian_value >= optimum.lagrangian_value - 1e-9

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_formula(self, seed):
        # Few points for K = 4 and a wide box leave clusters empty; duplicate
        # rows make several starts end in the same labels.
        rng = np.random.default_rng(seed)
        sub = random_subproblem(rng, n_pts=int(rng.integers(3, 9)), K=int(rng.integers(2, 5)),
                                n_y=int(rng.integers(1, 4)))
        if rng.random() < 0.5:
            Y = sub.data.observations
            sub = LagrangianSubproblem(data=NodeDataset(0, np.vstack([Y, Y[:2]])), K=sub.K,
                                       box=sub.box, c=sub.c)
        starts = int(rng.integers(1, 6))
        got = lloyd_incumbent(sub, n_starts=starts, seed=seed)
        want = reference_lloyd(sub, n_starts=starts, seed=seed)
        assert got.assignment == want.assignment
        assert got.lagrangian_value == want.lagrangian_value
        np.testing.assert_array_equal(got.centroids, want.centroids)


def reference_lloyd(subproblem, n_starts, seed):
    """Multi-start Lloyd as first written: closed_form_centroid, every start evaluated."""
    Y = subproblem.data.observations
    K = subproblem.K
    rng = np.random.default_rng(seed)
    best = None
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
                centroids[k], _ = closed_form_centroid(Y[labels == k], subproblem.c[k], subproblem.box)
        candidate = evaluate_assignment(subproblem, labels)
        if best is None or candidate.lagrangian_value < best.lagrangian_value:
            best = candidate
    return best


class TestBranchingOrder:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_sort_key_with_planted_ties(self, seed):
        # Integer rows mirrored through an integer mean, with swapped
        # coordinates and duplicates: every distance is computed exactly, so
        # many of them tie and only the index order separates them.
        rng = np.random.default_rng(seed)
        n_y = int(rng.integers(1, 4))
        half = rng.integers(-3, 4, size=(int(rng.integers(1, 6)), n_y)).astype(float)
        rows = [half, -half, half[:, ::-1], half[:1]]
        Y = np.vstack(rows + [-r for r in rows[2:]]) + rng.integers(-5, 6, size=n_y)
        Y = Y[rng.permutation(len(Y))]
        mean = Y.mean(axis=0)
        expected = sorted(range(Y.shape[0]), key=lambda j: (-float(np.sum((Y[j] - mean) ** 2)), j))
        assert _branching_order(Y) == expected

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_matches_sort_key_on_random_rows(self, seed):
        rng = np.random.default_rng(seed)
        Y = rng.normal(size=(int(rng.integers(1, 40)), int(rng.integers(1, 6))))
        mean = Y.mean(axis=0)
        expected = sorted(range(Y.shape[0]), key=lambda j: (-float(np.sum((Y[j] - mean) ** 2)), j))
        assert _branching_order(Y) == expected


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
        rng = np.random.default_rng(seed)
        sub = random_subproblem(rng, n_pts=int(rng.integers(4, 8)))
        optimum = brute_force_subproblem(sub).lagrangian_value
        for bounds in (None, suffix_lower_bounds(sub.data, sub.K, sub.box)):
            sol = solve_subproblem(sub, rel_tol=0.3, lloyd_starts=1, suffix_bounds=bounds)
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
        # differs from assignment_lower_bound, so equality holds to float64
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


def suffix_optimum(sub, d):
    """Plain K-means optimum (c = 0) of the observations at branching positions d.."""
    Y = sub.data.observations
    suffix = Y[_branching_order(Y)][d:]
    return brute_force_subproblem(LagrangianSubproblem(
        data=NodeDataset(node_id=0, observations=suffix), K=sub.K, box=sub.box,
        c=np.zeros((sub.K, sub.data.n_y)))).lagrangian_value


class TestSuffixLowerBounds:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_below_each_suffix_optimum(self, seed):
        rng = np.random.default_rng(seed)
        sub = random_subproblem(rng, n_pts=int(rng.integers(3, 8)), K=int(rng.integers(2, 4)))
        sb = suffix_lower_bounds(sub.data, sub.K, sub.box)
        for d in range(sub.data.n_points):
            optimum = suffix_optimum(sub, d)
            assert sb[d] <= optimum + 1e-12 * max(optimum, 1.0)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_non_increasing_and_zero_at_end(self, seed):
        rng = np.random.default_rng(seed)
        sub = random_subproblem(rng, n_pts=int(rng.integers(3, 10)), K=int(rng.integers(2, 4)))
        sb = suffix_lower_bounds(sub.data, sub.K, sub.box)
        assert len(sb) == sub.data.n_points + 1
        assert sb[-1] == 0.0
        assert all(a >= b for a, b in zip(sb, sb[1:]))

    def test_tight_on_separated_groups(self):
        # Three tight pairs, K = 3: the whole-data optimum is the within-pair
        # cost, and each suffix search runs to a zero gap.
        sub = subproblem_1d([0.0, 0.1, 5.0, 5.1, 10.0, 10.1], K=3)
        sb = suffix_lower_bounds(sub.data, sub.K, sub.box)
        assert sb[0] == pytest.approx(3 * 0.005, rel=1e-9)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_solve_with_bounds_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        sub = random_subproblem(rng, n_pts=int(rng.integers(3, 8)), K=int(rng.integers(2, 4)))
        sub = LagrangianSubproblem(data=sub.data, K=sub.K, box=sub.box,
                                   c=rng.normal(scale=rng.choice([0.5, 2.0]), size=sub.c.shape))
        exact = solve_subproblem(sub, suffix_bounds=suffix_lower_bounds(sub.data, sub.K, sub.box))
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
        with_bounds = solve_subproblem(sub, suffix_bounds=suffix_lower_bounds(sub.data, 3, sub.box))
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
        sb = suffix_lower_bounds(sub.data, sub.K, sub.box)
        total = sum(counts)
        assert max(counts) < total  # no single search uses the whole budget
        monkeypatch.setattr(subsolver, "_best_first", original)
        np.testing.assert_array_equal(suffix_lower_bounds(sub.data, sub.K, sub.box, max_nodes=total + 1), sb)
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
            bounds = suffix_lower_bounds(sub.data, K, sub.box)
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
        bounds = suffix_lower_bounds(sub.data, 4, sub.box)
        scalar = with_constants(SCALAR, lambda: solve_subproblem(sub, suffix_bounds=bounds))
        assert scalar.stats["explored"] > 10 * subsolver._BATCH_AT
        switched = solve_subproblem(sub, suffix_bounds=bounds)
        assert switched.assignment == scalar.assignment
        assert switched.lagrangian_value == scalar.lagrangian_value
        assert switched.proof_gap <= 1e-9
        assert switched.stats["explored"] <= 1.1 * scalar.stats["explored"]

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


class TestRelabel:
    def test_identity_when_aligned(self):
        sub = subproblem_1d([0, 1, 10, 11], K=2)
        sol = solve_subproblem(sub)
        relabeled = relabel_to_reference(sol, sol.centroids, sub)
        np.testing.assert_array_equal(relabeled.centroids, sol.centroids)
        assert relabeled.assignment == sol.assignment

    def test_swap_restores_alignment(self):
        sub = subproblem_1d([0, 1, 10, 11], K=2)
        sol = solve_subproblem(sub)
        reference = sol.centroids[::-1].copy()
        relabeled = relabel_to_reference(sol, reference, sub)
        np.testing.assert_allclose(relabeled.centroids, reference)
        assert relabeled.lagrangian_value == pytest.approx(sol.lagrangian_value, abs=1e-12)

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
