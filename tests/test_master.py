"""Tests for the dual-update algorithms and the trust-region master solver."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedkmeans.master as master
from fedkmeans.master import (
    Bundle,
    BundleEntry,
    MasterSolution,
    TrustRegionProblem,
    bfgs_update,
    btm_direction,
    bundle_push,
    linearization_errors,
    qnda_update,
    sg_update,
    solve_trust_region_qp,
    step_size,
)


class TestStepSize:
    def test_table_values(self):
        assert step_size(0.5, 1) == 0.5
        assert step_size(0.5, 4) == 0.25
        assert step_size(0.5, 100) == 0.05

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            step_size(0.5, 0)
        with pytest.raises(ValueError):
            step_size(-1.0, 1)


class TestSgUpdate:
    def test_formula(self):
        np.testing.assert_array_equal(sg_update(np.zeros(2), np.array([1.0, 0.0]), 0.5),
                                      [0.5, 0.0])

    def test_zero_subgradient(self):
        lam = np.array([1.0, -2.0])
        np.testing.assert_array_equal(sg_update(lam, np.zeros(2), 0.7), lam)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_step_norm(self, seed):
        rng = np.random.default_rng(seed)
        lam = rng.normal(size=4)
        g = rng.normal(size=4)
        alpha = float(rng.uniform(0.01, 2.0))
        out = sg_update(lam, g, alpha)
        assert np.linalg.norm(out - lam) == pytest.approx(alpha * np.linalg.norm(g))


def entry(iteration, lam, g, d):
    return BundleEntry(iteration=iteration, lam=np.asarray(lam, dtype=float),
                       subgradient=np.asarray(g, dtype=float), dual_value=d)


class TestBundle:
    def test_window_after_sixty_pushes(self):
        # tau = 50: after pushes 1..60 exactly 50 entries remain, oldest l = 11.
        bundle = Bundle(capacity=50)
        for t in range(1, 61):
            bundle = bundle_push(bundle, entry(t, [0.0], [0.0], 0.0))
        assert len(bundle) == 50
        assert bundle.entries[0].iteration == 11
        assert bundle.entries[-1].iteration == 60

    def test_capacity_one(self):
        bundle = Bundle(capacity=1)
        for t in range(1, 4):
            bundle = bundle_push(bundle, entry(t, [0.0], [0.0], float(t)))
        assert len(bundle) == 1
        assert bundle.entries[0].dual_value == 3.0

    def test_insertion_order(self):
        bundle = Bundle(capacity=10)
        for t in (1, 2, 3):
            bundle = bundle_push(bundle, entry(t, [0.0], [0.0], float(t)))
        assert [e.iteration for e in bundle.entries] == [1, 2, 3]


class TestLinearizationErrors:
    def test_self_term_vanishes(self):
        lam = np.array([1.0, 2.0])
        bundle = bundle_push(Bundle(capacity=5), entry(1, lam, [0.5, -0.5], 3.0))
        beta = linearization_errors(bundle, lam, 3.0)
        assert beta[0] == pytest.approx(0.0, abs=1e-15)

    def test_linear_dual_gives_zero_errors(self):
        # For d(lam) = a.lam the linearization is exact everywhere.
        a = np.array([2.0, -1.0])
        bundle = Bundle(capacity=5)
        rng = np.random.default_rng(0)
        for t in range(1, 4):
            lam_l = rng.normal(size=2)
            bundle = bundle_push(bundle, entry(t, lam_l, a, float(a @ lam_l)))
        lam_t = rng.normal(size=2)
        beta = linearization_errors(bundle, lam_t, float(a @ lam_t))
        np.testing.assert_allclose(beta, 0.0, atol=1e-12)

    def test_concave_dual_gives_nonpositive_errors(self):
        # d(lam) = -|lam|^2 lies below each tangent, so every error is <= 0.
        bundle = Bundle(capacity=10)
        rng = np.random.default_rng(1)
        for t in range(1, 8):
            lam_l = rng.normal(size=3)
            bundle = bundle_push(bundle, entry(t, lam_l, -2 * lam_l, -float(lam_l @ lam_l)))
        lam_t = rng.normal(size=3)
        beta = linearization_errors(bundle, lam_t, -float(lam_t @ lam_t))
        assert np.all(beta <= 1e-12)

    def test_model_forms_agree(self):
        # The cut d(lam_l) + g_l.(lam - lam_l) equals d(lam_t) + g_l.(lam - lam_t) - beta.
        rng = np.random.default_rng(2)
        bundle = Bundle(capacity=10)
        for t in range(1, 6):
            lam_l = rng.normal(size=3)
            bundle = bundle_push(bundle, entry(t, lam_l, -2 * lam_l, -float(lam_l @ lam_l)))
        lam_t = rng.normal(size=3)
        d_t = -float(lam_t @ lam_t)
        beta = linearization_errors(bundle, lam_t, d_t)
        for _ in range(100):
            lam = rng.normal(size=3)
            for e, b in zip(bundle.entries, beta):
                direct = e.dual_value + float(e.subgradient @ (lam - e.lam))
                via_beta = d_t + float(e.subgradient @ (lam - lam_t)) - b
                assert direct == pytest.approx(via_beta, abs=1e-10)

    def test_matches_per_entry_formula(self):
        def per_entry(bundle, lam_t, d_t):
            """The errors written with one dot product per bundle entry."""
            return np.array([d_t - e.dual_value - float(e.subgradient @ (lam_t - e.lam))
                             for e in bundle.entries])

        rng = np.random.default_rng(3)
        for _ in range(50):
            n, m = int(rng.integers(1, 30)), int(rng.integers(1, 51))
            scale = 10 ** rng.uniform(-3, 3)
            bundle = Bundle(capacity=m)
            for t in range(1, m + 1):
                bundle = bundle_push(bundle, entry(t, scale * rng.normal(size=n), rng.normal(size=n),
                                                   scale * rng.normal()))
            lam_t, d_t = scale * rng.normal(size=n), scale * rng.normal()
            reference = per_entry(bundle, lam_t, d_t)
            # Relative to the size of the terms each error sums.
            terms = np.array([abs(d_t) + abs(e.dual_value) + float(abs(e.subgradient) @ abs(lam_t - e.lam))
                              for e in bundle.entries])
            assert np.all(abs(linearization_errors(bundle, lam_t, d_t) - reference) <= 1e-12 * terms)


class TestBfgsUpdate:
    def test_cancellation_case(self):
        # y = -s with B = -I: the two rank-one terms cancel exactly.
        s = np.array([1.0, 2.0, -0.5])
        B = -np.eye(3)
        out = bfgs_update(B, s, -s)
        np.testing.assert_allclose(out, B, atol=1e-12)

    def test_zero_curvature_skipped(self):
        B = -np.eye(2)
        s = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])  # y.s = 0
        np.testing.assert_array_equal(bfgs_update(B, s, y), B)

    def test_positive_curvature_skipped(self):
        B = -np.eye(2)
        out = bfgs_update(B, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        np.testing.assert_array_equal(out, B)

    @given(st.integers(0, 10 ** 6))
    @example(seed=2693)  # round-off alone gives the fourth update an eigenvalue of +4e-13
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_negative_definiteness(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        B = -np.eye(n)
        for _ in range(8):
            s = rng.normal(size=n)
            y = rng.normal(size=n)
            B = bfgs_update(B, s, y)
            assert np.allclose(B, B.T, atol=1e-12)
            assert np.max(np.linalg.eigvalsh(B)) < 0


def degenerate_problem(seed, n=3, m=10):
    """m cuts of rank n - 1 in n-D, almost all through the center, under a
    QNDA cap whose curvatures span 14 decades, as late in a QNDA run."""
    rng = np.random.default_rng(seed)
    rank = n - 1
    basis = np.linalg.qr(rng.normal(size=(n, n)))[0][:rank]
    G = (rng.normal(size=(m, rank)) + 0.5 * rng.normal(size=rank)) @ basis
    beta = -np.abs(rng.normal(size=m)) * 10 ** rng.uniform(-10, -7, size=m)
    beta[-1] = 0.0
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    B = -(Q * 10 ** rng.uniform(-4, 10, size=n)) @ Q.T
    return TrustRegionProblem(center=rng.normal(size=n), alpha=0.04,
                              cut_normals=G, cut_offsets=beta,
                              quad=0.5 * (B + B.T), lin=G[-1])


def flat_problem(seed):
    """(problem, eps): two cut normals bracket the origin of their plane and
    miss it by eps along a third direction, so the model rises by only eps
    per unit step and the ball binds with a multiplier near eps."""
    rng = np.random.default_rng(seed)
    n, eps, k = int(rng.integers(3, 7)), 10 ** rng.uniform(-9, -7), int(rng.integers(3, 9))
    U = np.zeros((k, n))
    U[0, 1], U[1, 1] = 1.0, -1.0
    U[2:, 0] = rng.uniform(0.1, 1, size=k - 2)
    U[2:, 1] = rng.normal(size=k - 2)
    U[:, 0] += eps
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    alpha = float(rng.uniform(0.05, 1))
    return TrustRegionProblem(center=np.zeros(n), alpha=alpha,
                              cut_normals=U @ Q.T, cut_offsets=np.zeros(k)), eps


def record_passes(monkeypatch):
    """List that receives (Newton steps, index of the returned iterate, KKT
    residuals of the iterates stepped from) for each interior-point pass.
    Iterates are indexed in the order the pass visits them; it evaluates the
    constraints once at each."""
    passes = []
    core = master._pdip_core

    def recording(problem, constraints, add_curvature, obj_grad, n_con, n, sigma):
        points, weights = [], []

        def evaluate(z, *out):
            points.append(z.copy())
            return constraints(z, *out)

        def curvature(H, w):  # one call per Newton step, with that step's multipliers
            weights.append(w.copy())
            return add_curvature(H, w)

        z, lam = core(problem, evaluate, curvature, obj_grad, n_con, n, sigma)
        returned = next(i for i, p in enumerate(points) if np.array_equal(p, z))
        residuals = [master._kkt_residual(*constraints(p), obj_grad, w) for p, w in zip(points, weights)]
        passes.append((len(weights), returned, residuals))
        return z, lam

    monkeypatch.setattr(master, "_pdip_core", recording)
    return passes


def cap_fixed_pass(monkeypatch, steps):
    """Let the first interior-point pass (sigma = 0.1) take at most ``steps``
    Newton steps, so that a problem it would solve goes on to the later
    stages.  With 0 steps the pass returns its starting iterate."""
    core = master._pdip_core

    def capped(problem, constraints, add_curvature, obj_grad, n_con, n, sigma):
        with monkeypatch.context() as patch:
            if sigma == 0.1:
                patch.setattr(master, "_MAX_NEWTON", steps)
            return core(problem, constraints, add_curvature, obj_grad, n_con, n, sigma)

    monkeypatch.setattr(master, "_pdip_core", capped)


def steep_problem():
    """Cuts of a steep concave quadratic: the merit stalls above its 1e-13
    floor after an iterate within kkt_tol."""
    rng = np.random.default_rng(0)
    n, m = 12, 30
    A = rng.normal(size=(n, n))
    H = 100 * (-(A @ A.T) / n - 0.1 * np.eye(n))
    center = rng.normal(size=n)
    points = center + 0.3 * rng.normal(size=(m, n))
    G = points @ H
    beta = np.array([0.5 * (center @ H @ center - x @ H @ x) - g @ (center - x)
                     for x, g in zip(points, G)])
    return TrustRegionProblem(center=center, alpha=0.05, cut_normals=G, cut_offsets=beta)


def well_posed_problem(quad):
    rng = np.random.default_rng(3)
    return TrustRegionProblem(
        center=rng.normal(size=2), alpha=0.5, cut_normals=rng.normal(size=(4, 2)),
        cut_offsets=np.abs(rng.normal(size=4)) * 0.1,
        quad=quad, lin=None if quad is None else rng.normal(size=2),
    )


# Problems whose first-pass point the polish brings within kkt_tol, with the
# Newton steps the first pass is held to (None: not held).  The full pass
# solves the degenerate ones itself; held to 10 steps it stops near their
# optimum, and the polish finishes them from caps of 4 to 19 (seed 10) and
# 7 to 21 (seed 185).
POLISHED_PROBLEMS = [
    pytest.param(degenerate_problem(10), 10, id="degenerate-10"),
    pytest.param(degenerate_problem(185), 10, id="degenerate-185"),
    pytest.param(flat_problem(33)[0], None, id="flat-33"),
]


class TestTrustRegionSolver:
    def test_single_cut(self):
        # max w s.t. w <= g.s, |s|^2 <= 1 with g = (1, 0): s = (1, 0), v = 1.
        problem = TrustRegionProblem(center=np.zeros(2), alpha=1.0,
                                     cut_normals=np.array([[1.0, 0.0]]),
                                     cut_offsets=np.zeros(1))
        sol = solve_trust_region_qp(problem)
        np.testing.assert_allclose(sol.argmax, [1.0, 0.0], atol=1e-7)
        assert sol.model_value == pytest.approx(1.0, abs=1e-7)

    def test_opposing_cuts(self):
        problem = TrustRegionProblem(center=np.zeros(2), alpha=1.0,
                                     cut_normals=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                                     cut_offsets=np.zeros(2))
        sol = solve_trust_region_qp(problem)
        assert abs(sol.argmax[0]) <= 1e-7
        assert sol.model_value == pytest.approx(0.0, abs=1e-7)

    def test_kkt_residual_reported(self):
        problem = TrustRegionProblem(center=np.zeros(2), alpha=0.5,
                                     cut_normals=np.array([[1.0, 1.0]]),
                                     cut_offsets=np.array([0.1]))
        sol = solve_trust_region_qp(problem)
        assert sol.kkt_residual <= 1e-8

    def test_near_duplicate_cuts(self):
        # Cuts identical to 1e-9 must not break the KKT system.
        g = np.array([1.0, 0.5])
        problem = TrustRegionProblem(
            center=np.zeros(2), alpha=1.0,
            cut_normals=np.vstack([g, g + 1e-9, [-0.3, 1.0]]),
            cut_offsets=np.array([0.0, 1e-9, 0.05]),
        )
        sol = solve_trust_region_qp(problem)
        assert sol.kkt_residual <= 1e-8

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_step_stays_in_ball(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 8))
        alpha = float(rng.uniform(0.1, 2.0))
        problem = TrustRegionProblem(
            center=rng.normal(size=2), alpha=alpha,
            cut_normals=rng.normal(size=(m, 2)),
            cut_offsets=np.abs(rng.normal(size=m)) * 0.1,
        )
        sol = solve_trust_region_qp(problem)
        step = sol.argmax - problem.center
        assert float(step @ step) <= alpha + 1e-8

    @pytest.mark.parametrize("quad", [None, -np.diag([1.0, 3.0])])
    def test_well_posed_problem_skips_polish(self, monkeypatch, quad):
        # The first interior point already meets kkt_tol, so it is accepted
        # as it stands.
        def no_polish(*args, **kwargs):
            pytest.fail("polish ran on a point that already met kkt_tol")

        monkeypatch.setattr(master, "_polish_kkt", no_polish)
        sol = solve_trust_region_qp(well_posed_problem(quad))
        assert sol.path == "ipm"
        assert sol.kkt_residual <= 1e-8

    def test_first_pass_solves_degenerate_problems(self):
        # Pure affine steps (sigma = 0) once the complementarity is small jam
        # on these problems, as on late QNDA bundles: the slacks fall to
        # 1e-19 while the stationarity stalls.  A pass that takes them sends
        # 56 of these seeds on to later stages, and seed 317 fails in all of
        # them.
        missed = [seed for seed in range(400)
                  if solve_trust_region_qp(degenerate_problem(seed)).path != "ipm"]
        assert missed == []

    @pytest.mark.parametrize("seed", [10, 139, 185])
    def test_degenerate_problem_recovered_by_fallback(self, monkeypatch, seed):
        # The first pass returns its starting iterate, which the polish cannot
        # repair, so the recentred pass runs and ends within kkt_tol in 44 to
        # 46 Newton steps, before the SLSQP restart is needed.
        cap_fixed_pass(monkeypatch, 0)
        passes = record_passes(monkeypatch)
        polish, polished = master._polish_kkt, []

        def polishing(*args):
            out = polish(*args)
            polished.append(out is not None and out[2] <= 1e-8)
            return out

        monkeypatch.setattr(master, "_polish_kkt", polishing)
        problem = degenerate_problem(seed)
        sol = solve_trust_region_qp(problem)
        (newton, returned, _), (later_newton, *_) = passes
        assert (newton, returned) == (0, 0) and later_newton > 0
        assert polished[0] is False
        assert sol.path == "recentred"
        assert sol.kkt_residual <= 1e-8
        step = sol.argmax - problem.center
        assert float(step @ step) <= problem.alpha + 1e-8
        assert sol.model_value >= -1e-8  # the model is 0 at the center

    def test_later_stages_solve_degenerate_problems(self, monkeypatch):
        # The first pass returns its starting iterate, which the polish cannot
        # repair, so the recentred pass and the SLSQP restart must solve
        # every problem.  The model is 0 at the center, so the optimum is at
        # least 0.  By weak duality a point whose KKT residual is within 1e-8
        # lies at most (n_con + |z - z*|_1) * 1e-8 below the optimum, and
        # |z - z*|_1 < 1 in a ball of radius 0.2 in 3-D.  Even unheld, the
        # first pass ends 1e-8 to 1.04e-7 below 0 on 67 of these seeds.
        cap_fixed_pass(monkeypatch, 0)
        for seed in range(400):
            problem = degenerate_problem(seed)
            sol = solve_trust_region_qp(problem)
            assert sol.path in ("recentred", "sqp")
            assert sol.kkt_residual <= 1e-8
            step = sol.argmax - problem.center
            assert float(step @ step) <= problem.alpha + 1e-8
            n_con = problem.cut_normals.shape[0] + 2
            assert sol.model_value >= -(n_con + 1) * 1e-8

    def test_sqp_restarts_from_first_pass_iterate(self, monkeypatch):
        # On this 7-D problem with 43 cuts both interior-point passes end
        # above a KKT residual of 1e-3, and the polish repairs neither point.
        core, sqp = master._pdip_core, master._sqp_fallback
        passes, starts = [], []

        def recording_core(*args):
            passes.append(core(*args))
            return passes[-1]

        def recording_sqp(z0, *args):
            starts.append(z0.copy())
            return sqp(z0, *args)

        monkeypatch.setattr(master, "_pdip_core", recording_core)
        monkeypatch.setattr(master, "_sqp_fallback", recording_sqp)
        problem = degenerate_problem(2602, n=7, m=43)
        sol = solve_trust_region_qp(problem)
        assert sol.path == "sqp" and sol.kkt_residual <= 1e-8
        step = sol.argmax - problem.center
        assert float(step @ step) <= problem.alpha + 1e-8
        (first, _), (second, _) = passes
        (start,) = starts
        assert np.array_equal(start, first) and not np.array_equal(start, second)

    @pytest.mark.parametrize("seed", [33, 102, 1740, 2397])
    def test_flat_model_with_binding_ball(self, seed):
        # The interior point stays far from the ball; the polish must try the
        # ball in its active set.  Seeds 1740 and 2397 go on to the
        # recentred pass; without it, SLSQP from the first pass's iterate
        # misses kkt_tol on 1740.
        problem, eps = flat_problem(seed)
        sol = solve_trust_region_qp(problem)
        assert sol.kkt_residual <= 1e-8
        assert sol.model_value == pytest.approx(eps * math.sqrt(problem.alpha), abs=1e-12)

    @pytest.mark.parametrize("problem", [
        pytest.param(steep_problem(), id="steep"),
        pytest.param(well_posed_problem(None), id="cuts"),
        pytest.param(well_posed_problem(-np.diag([1.0, 3.0])), id="model"),
    ])
    def test_pass_returns_its_first_iterate_within_tolerance(self, monkeypatch, problem):
        # On the steep problem the merit goes on falling for a few iterations
        # after the first iterate within kkt_tol.
        passes = record_passes(monkeypatch)
        sol = solve_trust_region_qp(problem)
        assert sol.path == "ipm" and sol.kkt_residual <= 1e-8
        ((newton, returned, residuals),) = passes
        assert returned == newton  # the last iterate visited, never stepped from
        assert min(residuals) > 1e-8

    @pytest.mark.parametrize("problem, fixed_steps", POLISHED_PROBLEMS)
    def test_polish_returns_first_candidate_within_tolerance(self, monkeypatch, problem, fixed_steps):
        # Per polish call: the residuals it scored, in order, and the one it returned.
        scored, returned, inside = [], [], []
        kkt_residual, polish = master._kkt_residual, master._polish_kkt

        def scoring(*args):
            residual = kkt_residual(*args)
            if inside:
                scored[-1].append(residual)
            return residual

        def polishing(*args):
            inside.append(True)
            scored.append([])
            try:
                out = polish(*args)
            finally:
                inside.pop()
            returned.append(None if out is None else out[2])
            return out

        if fixed_steps is not None:
            cap_fixed_pass(monkeypatch, fixed_steps)
        monkeypatch.setattr(master, "_kkt_residual", scoring)
        monkeypatch.setattr(master, "_polish_kkt", polishing)
        sol = solve_trust_region_qp(problem)
        assert sol.path == "polish"
        for residuals, out in zip(scored, returned):
            within = [r <= 1e-8 for r in residuals]
            if any(within):
                assert within.index(True) == len(residuals) - 1
                assert out == residuals[-1]
        assert max(map(len, scored)) > 1

    @pytest.mark.parametrize("problem, fixed_steps", POLISHED_PROBLEMS)
    def test_polish_evaluates_each_point_once(self, monkeypatch, problem, fixed_steps):
        # The polish is handed the constraints at its starting point and
        # evaluates them only where it has moved, once per point it reaches.
        polish, evaluated = master._polish_kkt, []

        def polishing(z, *args):
            constraints, points = next(a for a in args if callable(a)), []
            evaluated.append((z.copy(), points))

            def evaluate(x, *out):
                points.append(x.copy())
                return constraints(x, *out)

            return polish(z, *(evaluate if a is constraints else a for a in args))

        if fixed_steps is not None:
            cap_fixed_pass(monkeypatch, fixed_steps)
        monkeypatch.setattr(master, "_polish_kkt", polishing)
        sol = solve_trust_region_qp(problem)
        assert sol.path == "polish"
        assert sum(len(points) for _, points in evaluated) > 0
        for z, points in evaluated:
            assert not any(np.array_equal(p, z) for p in points)
            assert not any(np.array_equal(p, q) for p, q in zip(points, points[1:]))

    def test_duplicate_filter_matches_pairwise_loop(self):
        def pairwise(G, beta):
            """The filter written with one norm per pair of rows."""
            rows = np.hstack([G, beta[:, None]])
            keep = []
            for i in range(rows.shape[0]):
                scale = max(1.0, float(np.linalg.norm(rows[i])))
                if all(float(np.linalg.norm(rows[i] - rows[j])) > 1e-7 * scale for j in keep):
                    keep.append(i)
            return keep

        dropped = close_kept = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            m, n = int(rng.integers(1, 40)), int(rng.integers(1, 19))
            G = rng.normal(size=(m, n)) * 10 ** rng.uniform(-1, 1)
            beta = -np.abs(rng.normal(size=m)) * 10 ** rng.uniform(-8, 0)
            # Plant near-duplicates on both sides of the 1e-7 relative threshold.
            k = int(rng.integers(0, m + 1))
            src, dst = rng.integers(0, m, size=k), rng.integers(0, m, size=k)
            noise = 10 ** rng.uniform(-10, -5, size=(k, 1))
            G[dst] = G[src] + noise * rng.normal(size=(k, n))
            beta[dst] = beta[src] + noise[:, 0] * rng.normal(size=k)
            # Rows that share their first coordinate exactly, or their
            # projection on the prefilter's direction, but differ elsewhere.
            k = int(rng.integers(0, m + 1))
            src, dst = rng.integers(0, m, size=k), rng.integers(0, m, size=k)
            G[dst, 0] = G[src, 0]
            k = int(rng.integers(0, m + 1))
            src, dst = rng.integers(0, m, size=k), rng.integers(0, m, size=k)
            u = np.sqrt(np.arange(1.0, n + 2))
            shift = rng.normal(size=(k, n + 1))
            shift -= np.outer(shift @ u / (u @ u), u)
            shift *= 10 ** rng.uniform(-8, -3, size=(k, 1))
            G[dst], beta[dst] = G[src] + shift[:, :n], beta[src] + shift[:, n]
            keep = master._distinct_cuts(G, beta)
            assert keep == pairwise(G, beta)
            dropped += m - len(keep)
            rows = np.hstack([G, beta[:, None]])[keep]
            gaps = np.linalg.norm(rows[:, None] - rows[None], axis=2)
            np.fill_diagonal(gaps, np.inf)
            close_kept += int(np.sum(np.min(gaps, axis=1) < 1e-5))
        assert dropped > 0 and close_kept > 0


class TestNewtonStep:
    """The interior-point pass solves its Newton systems with numpy's own
    LAPACK kernel, without np.linalg.solve's per-call wrappers.  These tests
    name that numpy internal, so a numpy release that moves it fails here
    first."""

    def test_kernel_is_numpys(self):
        from numpy.linalg._umath_linalg import solve1
        assert master._solve1 is solve1

    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e10, 1e15])
    @pytest.mark.parametrize("symmetric", [False, True], ids=["general", "symmetric"])
    def test_kernel_returns_linalg_solve_bits(self, cond, symmetric):
        # Random systems with singular values from 1 down to 1/cond; the
        # Newton matrices are symmetric.
        rng = np.random.default_rng(int(math.log10(cond)) + 100 * symmetric)
        for n in (1, 2, 5, 19, 40):
            U, _ = np.linalg.qr(rng.normal(size=(n, n)))
            V = U if symmetric else np.linalg.qr(rng.normal(size=(n, n)))[0]
            A = U @ np.diag(np.geomspace(1.0, 1.0 / cond, n)) @ V.T
            b = rng.normal(size=n)
            assert master._solve1(A, b).tobytes() == np.linalg.solve(A, b).tobytes()

    @pytest.mark.parametrize("singular_at", [1, 4, 9])
    def test_singular_newton_matrix_ends_pass_at_best_iterate(self, monkeypatch, singular_at):
        # LAPACK answers a singular matrix with NaNs.  The pass then stops
        # with its best iterate, as it did when np.linalg.solve raised
        # LinAlgError: the iterate of a pass held to that many Newton steps.
        # It takes no step along the NaNs, so it never evaluates a NaN
        # iterate.  The full first pass takes more than 10 steps here.
        problem = degenerate_problem(10)
        solve1 = master._solve1

        def first_pass(held):
            with monkeypatch.context() as patch:
                if held:
                    cap_fixed_pass(patch, singular_at)
                core, passes = master._pdip_core, []

                def recording(problem, constraints, add_curvature, obj_grad, n_con, n, sigma):
                    def evaluate(z, *out):
                        if not passes:  # the first pass
                            assert np.isfinite(z).all()
                        return constraints(z, *out)

                    z, lam = core(problem, evaluate, add_curvature, obj_grad, n_con, n, sigma)
                    passes.append((z, lam))
                    return z, lam

                patch.setattr(master, "_pdip_core", recording)
                try:
                    solve_trust_region_qp(problem)
                except master.TrustRegionSolverError:
                    pass
            return passes[0]

        calls, answers = [], []

        def singular_at_call(H, rhs):
            calls.append(None)
            dz = solve1(np.zeros_like(H) if len(calls) == singular_at else H, rhs)
            answers.append(dz)
            return dz

        monkeypatch.setattr(master, "_solve1", singular_at_call)
        z, lam = first_pass(held=False)
        assert np.isnan(answers[singular_at - 1]).all()
        monkeypatch.setattr(master, "_solve1", solve1)
        z_held, lam_held = first_pass(held=True)
        assert z.tobytes() == z_held.tobytes() and lam.tobytes() == lam_held.tobytes()


class TestBtmDirection:
    def test_single_cut_direction(self):
        bundle = bundle_push(Bundle(capacity=5),
                             entry(1, np.zeros(2), [1.0, 0.0], 0.0))
        s, v = btm_direction(bundle, np.zeros(2), 0.0, 1.0)
        np.testing.assert_allclose(s, [1.0, 0.0], atol=1e-7)
        assert v == pytest.approx(1.0, abs=1e-7)

    def test_opposing_cuts_pin_origin(self):
        bundle = Bundle(capacity=5)
        bundle = bundle_push(bundle, entry(1, np.zeros(2), [1.0, 0.0], 0.0))
        bundle = bundle_push(bundle, entry(2, np.zeros(2), [-1.0, 0.0], 0.0))
        s, v = btm_direction(bundle, np.zeros(2), 0.0, 1.0)
        assert abs(s[0]) <= 1e-7
        assert v == pytest.approx(0.0, abs=1e-7)

    def test_step_within_trust_region(self):
        rng = np.random.default_rng(0)
        bundle = Bundle(capacity=10)
        for t in range(1, 6):
            lam_l = rng.normal(size=3)
            bundle = bundle_push(bundle, entry(t, lam_l, -2 * lam_l, -float(lam_l @ lam_l)))
        lam_t = rng.normal(size=3)
        alpha = 0.3
        s, v = btm_direction(bundle, lam_t, -float(lam_t @ lam_t), alpha)
        assert float(s @ s) <= alpha + 1e-8

    def test_model_overestimates_concave_dual_at_bundle_points(self):
        # Cutting-plane model >= d at every bundle point for d(lam) = -|lam|^2.
        rng = np.random.default_rng(4)
        bundle = Bundle(capacity=10)
        for t in range(1, 8):
            lam_l = rng.normal(size=2)
            bundle = bundle_push(bundle, entry(t, lam_l, -2 * lam_l, -float(lam_l @ lam_l)))
        for probe in bundle.entries:
            model = min(
                e.dual_value + float(e.subgradient @ (probe.lam - e.lam))
                for e in bundle.entries
            )
            assert model >= probe.dual_value - 1e-9


class TestQndaUpdate:
    def test_unconstrained_newton_step(self):
        # B = -I, no binding cuts, |g|^2 <= alpha: lam* = lam + g.
        lam = np.array([0.2, -0.1])
        g = np.array([0.3, 0.4])
        bundle = bundle_push(Bundle(capacity=5), entry(1, lam, g, 1.0))
        out, _ = qnda_update(-np.eye(2), bundle, lam, g, 1.0, alpha_t=1.0)
        np.testing.assert_allclose(out, lam + g, atol=1e-6)

    def test_ball_clipped_step(self):
        # |g|^2 > alpha: lam* = lam + sqrt(alpha) g/|g|.
        lam = np.zeros(2)
        g = np.array([3.0, 4.0])
        bundle = bundle_push(Bundle(capacity=5), entry(1, lam, g, 0.0))
        alpha = 0.25
        out, _ = qnda_update(-np.eye(2), bundle, lam, g, 0.0, alpha_t=alpha)
        expected = lam + math.sqrt(alpha) * g / np.linalg.norm(g)
        np.testing.assert_allclose(out, expected, atol=1e-6)

    def test_step_within_trust_region(self):
        rng = np.random.default_rng(5)
        bundle = Bundle(capacity=10)
        for t in range(1, 6):
            lam_l = rng.normal(size=3)
            bundle = bundle_push(bundle, entry(t, lam_l, -2 * lam_l, -float(lam_l @ lam_l)))
        lam_t = bundle.entries[-1].lam
        g_t = bundle.entries[-1].subgradient
        d_t = bundle.entries[-1].dual_value
        alpha = 0.4
        out, fell_back = qnda_update(-np.eye(3), bundle, lam_t, g_t, d_t, alpha)
        assert float((out - lam_t) @ (out - lam_t)) <= alpha + 1e-8
        assert fell_back is False
