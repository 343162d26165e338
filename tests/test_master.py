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
    TrustRegionSolverError,
    bfgs_update,
    btm_direction,
    bundle_push,
    linearization_errors,
    qnda_update,
    sg_update,
    solve_trust_region_qp,
    step_size,
)
import master_reference
from master_reference import kkt_residual, reference_pass


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

    @pytest.mark.parametrize("c, kept", [(2.0 ** -36, True), (2.0 ** -40, False)])
    def test_ill_conditioned_update_skipped(self, c, kept):
        # B = -I, s = e1, y = -c e1: a curvature pair of the right sign whose
        # update is diag(-c, -1), negative definite with condition 1 / c.
        # It is kept at 1 / c = 6.9e10 and skipped at 1.1e12, above 1e12.
        B = -np.eye(2)
        out = bfgs_update(B, np.array([1.0, 0.0]), np.array([-c, 0.0]))
        np.testing.assert_array_equal(out, np.diag([-c, -1.0]) if kept else B)

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
            eig = np.linalg.eigvalsh(B)
            assert eig[-1] < master._BFGS_SKIP_TOL * eig[0]  # negative definite, condition within 1e12


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
    """List that receives the report of each interior-point pass, in order:
    (Newton steps, index of the returned iterate, why the pass stopped).
    The start is iterate 0 and each step's iterate the next."""
    passes = []
    run_pass = master._interior_point_pass

    def recording(*args):
        z, lam, report = run_pass(*args)
        passes.append(report)
        return z, lam, report

    monkeypatch.setattr(master, "_interior_point_pass", recording)
    return passes


def cap_fixed_pass(monkeypatch, steps):
    """Let the first interior-point pass (sigma = 0.1) take at most ``steps``
    Newton steps, so that a problem it would solve goes on to the later
    stages.  With 0 steps the pass returns its starting iterate."""
    run_pass = master._interior_point_pass

    def capped(problem, sigma):
        with monkeypatch.context() as patch:
            if sigma == 0.1:
                patch.setattr(master, "_MAX_NEWTON", steps)
            return run_pass(problem, sigma)

    monkeypatch.setattr(master, "_interior_point_pass", capped)


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


STEEP = steep_problem()


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

    def test_cut_normals_in_column_major_order(self):
        # The passes read the problem's own cut rows in row-major order, so
        # the problem stores them that way whatever order it is given.
        problem = well_posed_problem(None)
        column_major = TrustRegionProblem(center=problem.center, alpha=problem.alpha,
                                          cut_normals=np.asfortranarray(problem.cut_normals),
                                          cut_offsets=problem.cut_offsets)
        assert (solve_trust_region_qp(column_major).argmax.tobytes()
                == solve_trust_region_qp(problem).argmax.tobytes())

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
        # 46 Newton steps.
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
        # repair, so the recentred pass must solve every problem but seed
        # 206, whose recentred pass and its polish end at a KKT residual of
        # 6.0e-7: the solver must say so.  The model is 0 at the center, so
        # the optimum is at least 0.  By weak duality a point whose KKT
        # residual is within 1e-8 lies at most (n_con + |z - z*|_1) * 1e-8
        # below the optimum, and |z - z*|_1 < 1 in a ball of radius 0.2 in
        # 3-D.  Even unheld, the first pass ends 1e-8 to 1.04e-7 below 0 on
        # 67 of these seeds.
        cap_fixed_pass(monkeypatch, 0)
        for seed in range(400):
            problem = degenerate_problem(seed)
            if seed == 206:
                with pytest.raises(TrustRegionSolverError):
                    solve_trust_region_qp(problem)
                continue
            sol = solve_trust_region_qp(problem)
            assert sol.path == "recentred"
            assert sol.kkt_residual <= 1e-8
            step = sol.argmax - problem.center
            assert float(step @ step) <= problem.alpha + 1e-8
            n_con = problem.cut_normals.shape[0] + 2
            assert sol.model_value >= -(n_con + 1) * 1e-8

    @pytest.mark.parametrize("seed", [33, 102, 1740, 2397])
    def test_flat_model_with_binding_ball(self, seed):
        # The interior point stays far from the ball; the polish must try the
        # ball in its active set: all four seeds end on the "polish" path.
        problem, eps = flat_problem(seed)
        sol = solve_trust_region_qp(problem)
        assert sol.path == "polish" and sol.kkt_residual <= 1e-8
        assert sol.model_value == pytest.approx(eps * math.sqrt(problem.alpha), abs=1e-12)

    @pytest.mark.parametrize("problem", [
        pytest.param(STEEP, id="steep"),
        pytest.param(well_posed_problem(None), id="cuts"),
        pytest.param(well_posed_problem(-np.diag([1.0, 3.0])), id="model"),
    ])
    def test_pass_returns_its_first_iterate_within_tolerance(self, monkeypatch, problem):
        # The pass returns the last iterate it visits, never stepped from.
        # Held to that many Newton steps it never visits it, and none of the
        # iterates it visits passes its test.  On the steep problem the merit
        # goes on falling for a few iterations after the first iterate that
        # passes, so a pass that ignored the tolerances would go on.
        passes = record_passes(monkeypatch)
        sol = solve_trust_region_qp(problem)
        assert sol.path == "ipm" and sol.kkt_residual <= 1e-8
        ((steps, returned, stop),) = passes
        assert (returned, stop) == (steps, "kkt")
        with monkeypatch.context() as patch:
            patch.setattr(master, "_MAX_NEWTON", steps)
            *_, held = master._interior_point_pass(problem, 0.1)
        assert held.stop == "max_newton" and held.returned < steps
        if problem is STEEP:
            with monkeypatch.context() as patch:
                patch.setattr(master, "_KKT_TOL", 0.0)
                *_, untolerated = master._interior_point_pass(problem, 0.1)
            assert untolerated.returned > steps

    @pytest.mark.parametrize("problem", [
        pytest.param(STEEP, id="steep"),
        pytest.param(degenerate_problem(0), id="degenerate-0"),
    ])
    def test_pass_closes_the_duality_gap(self, monkeypatch, problem):
        # An iterate within kkt_tol can still sit up to about n_con * 1e-8
        # below the optimum; the pass goes on until the duality gap
        # sum_i lam_i |f_i| is within _GAP_TOL * max(1, |w|) as well.  A
        # pass that stops before it gets there returns its first new best
        # iterate within kkt_tol, as a pass without the gap test would.
        z, lam, report = master._interior_point_pass(problem, 0.1)
        assert report.stop == "kkt" and kkt_residual(problem, z, lam) <= 1e-8
        vals, _ = master_reference.constraint_values(problem, z)
        assert float(lam @ abs(vals)) <= master._GAP_TOL * max(1.0, abs(z[-1]))
        with monkeypatch.context() as patch:
            patch.setattr(master, "_GAP_TOL", math.inf)
            z_kkt, lam_kkt, first = master._interior_point_pass(problem, 0.1)
        assert first.stop == "kkt" and first.returned < report.returned
        vals, _ = master_reference.constraint_values(problem, z_kkt)
        assert float(lam_kkt @ abs(vals)) > master._GAP_TOL * max(1.0, abs(z_kkt[-1]))
        with monkeypatch.context() as patch:
            patch.setattr(master, "_MAX_NEWTON", report.steps)
            z_held, lam_held, held = master._interior_point_pass(problem, 0.1)
        assert (held.returned, held.stop) == (first.returned, "max_newton")
        assert z_held.tobytes() == z_kkt.tobytes() and lam_held.tobytes() == lam_kkt.tobytes()

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


class TestNewtonStep:
    """The compiled pass solves each Newton system by LU with partial
    pivoting.  The oracle in master_reference.py solves them with numpy's
    own LAPACK kernel, without np.linalg.solve's per-call wrappers; the
    kernel tests name that numpy internal, so a numpy release that moves it
    fails here first."""

    def test_kernel_is_numpys(self):
        from numpy.linalg._umath_linalg import solve1
        assert master_reference._solve1 is solve1

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
            assert master_reference._solve1(A, b).tobytes() == np.linalg.solve(A, b).tobytes()

    @pytest.mark.parametrize("singular_at", [1, 4, 9])
    def test_singular_newton_matrix_ends_pass_at_best_iterate(self, monkeypatch, singular_at):
        # degenerate_problem(13), whose merit falls at each of its first nine
        # iterates, with a fourth coordinate that no cut and no linear term
        # sees, whose curvature b the model cap alone carries.  The pass
        # never moves along it, and every bit of its iterates is the same
        # whatever b is, so long as its Newton matrices are not singular.
        # That coordinate's row of the Newton matrix is zero but for its
        # diagonal entry 2 lam_ball - lam_model * b, and b is chosen to make
        # that entry exactly zero at the Newton step from iterate
        # singular_at - 1.  The pass then stops there with its best iterate,
        # which is that of the pass held to singular_at Newton steps.
        base = degenerate_problem(13)
        n = base.center.shape[0]

        def decoupled(b):
            quad = np.zeros((n + 1, n + 1))
            quad[:n, :n], quad[n, n] = base.quad, b
            return TrustRegionProblem(center=np.append(base.center, 0.0), alpha=base.alpha,
                                      cut_normals=np.hstack([base.cut_normals, np.zeros((len(base.cut_offsets), 1))]),
                                      cut_offsets=base.cut_offsets, quad=quad, lin=np.append(base.lin, 0.0))

        with monkeypatch.context() as patch:
            patch.setattr(master, "_MAX_NEWTON", singular_at)
            z_held, lam_held, held = master._interior_point_pass(decoupled(-1.0), 0.1)
        assert held == (singular_at, singular_at - 1, "max_newton")  # the merit fell at every iterate
        target = 2.0 * lam_held[0]
        b = target / lam_held[-1]
        for _ in range(4):  # the b whose product with lam_model rounds to the target
            b = np.nextafter(b, np.inf if lam_held[-1] * b < target else -np.inf)
            if lam_held[-1] * b == target:
                break
        assert lam_held[-1] * b == target
        z, lam, report = master._interior_point_pass(decoupled(b), 0.1)
        assert report == (singular_at - 1, singular_at - 1, "singular")
        assert z.tobytes() == z_held.tobytes() and lam.tobytes() == lam_held.tobytes()
        # The full pass, with a b that keeps the matrices regular, goes on.
        assert master._interior_point_pass(decoupled(-1.0), 0.1)[2].steps > 10


@st.composite
def master_problems(draw):
    """BTM and QNDA master problems: n from 1 to 20 and 1 to 50 cuts, some of
    them near-duplicates of others or all of rank n - 1 nearly through the
    centre, flat models, and model caps whose condition reaches 1e12."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, m = draw(st.integers(1, 20)), draw(st.integers(1, 50))
    kind = draw(st.sampled_from(["cuts", "near-duplicates", "degenerate", "flat"]))
    G = rng.normal(size=(m, n)) * 10 ** rng.uniform(-1, 1)
    # Linearization errors of a concave dual are <= 0, and the cut of the
    # centre itself has none.
    beta = -np.abs(rng.normal(size=m)) * 10 ** rng.uniform(-8, 0, size=m)
    beta[-1] = 0.0
    if kind == "degenerate" and n > 1:  # as degenerate_problem
        basis = np.linalg.qr(rng.normal(size=(n, n)))[0][:n - 1]
        G = (rng.normal(size=(m, n - 1)) + 0.5 * rng.normal(size=n - 1)) @ basis
        beta[:-1] = -np.abs(rng.normal(size=m - 1)) * 10 ** rng.uniform(-10, -7, size=m - 1)
    elif kind == "near-duplicates":
        k = int(rng.integers(1, m + 1))
        src, dst = rng.integers(0, m, size=k), rng.integers(0, m, size=k)
        noise = 10 ** rng.uniform(-10, -5, size=(k, 1))
        G[dst] = G[src] + noise * rng.normal(size=(k, n))
        beta[dst] = np.minimum(beta[src] + noise[:, 0] * rng.normal(size=k), 0.0)
    elif kind == "flat":
        G *= 10 ** rng.uniform(-9, -6)
        beta *= 1e-8
    quad = lin = None
    if draw(st.booleans()):  # a QNDA model cap
        Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        low = rng.uniform(-4, 4)
        B = -(Q * 10 ** rng.uniform(low, low + draw(st.floats(0, 12)), size=n)) @ Q.T
        quad, lin = 0.5 * (B + B.T), G[-1]
    return TrustRegionProblem(center=rng.normal(size=n), alpha=10 ** rng.uniform(-3, 0.5),
                              cut_normals=G, cut_offsets=beta, quad=quad, lin=lin)


class TestPassOracle:
    """The compiled interior-point pass against the numpy pass of
    master_reference.py, which runs the same algorithm in numpy's orders of
    operations with LAPACK's solve."""

    @given(master_problems(), st.sampled_from([0.1, 0.5]))
    @settings(max_examples=300, deadline=None)
    def test_compiled_pass_matches_numpy_pass(self, problem, sigma):
        z, lam, report = master._interior_point_pass(problem, sigma)
        assert np.isfinite(z).all() and np.isfinite(lam).all()
        assert 0 <= report.returned <= report.steps <= master._MAX_NEWTON
        z_ref, _, reference = reference_pass(problem, sigma)
        n = problem.center.shape[0]
        for point in (z, z_ref):
            assert float(point[:n] @ point[:n]) <= problem.alpha + 1e-8
        if report.stop == reference.stop == "kkt":  # both passes met their tolerances
            assert abs(z[n] - z_ref[n]) <= 1e-9 * max(1.0, abs(z_ref[n]))


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
