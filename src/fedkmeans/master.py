"""Dual-variable update algorithms and their shared trust-region solver.

Three updates are provided: a plain subgradient step, the bundle trust method
(BTM), and quasi-Newton dual ascent (QNDA).  Both BTM's direction-finding
problem and QNDA's model maximization reduce to the same convex program over
an epigraph variable w:

    maximize  w
    s.t.      ||x - center||^2 <= alpha                    (trust region)
              w <= g_l . (x - center) - beta_l   for all l (bundle cuts)
              w <= 1/2 (x-center)^T B (x-center) + g . (x-center)   (QNDA only)

which :func:`solve_trust_region_qp` handles with a log-barrier interior-point
method (tiny problems: dimension <= ~50, <= ~50 cuts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _solve1  # np.linalg.solve's kernel for one right-hand side

__all__ = [
    "Bundle",
    "BundleEntry",
    "MasterSolution",
    "TrustRegionProblem",
    "TrustRegionSolverError",
    "bfgs_update",
    "btm_direction",
    "bundle_push",
    "linearization_errors",
    "qnda_update",
    "sg_update",
    "solve_trust_region_qp",
    "step_size",
]


# ------------------------------ subgradient ---------------------------------


def step_size(alpha0: float, t: int) -> float:
    """Diminishing step/trust parameter alpha0 / sqrt(t)."""
    if t < 1 or alpha0 <= 0:
        raise ValueError("require t >= 1 and alpha0 > 0")
    return alpha0 / math.sqrt(t)


def sg_update(lam: np.ndarray, g: np.ndarray, alpha: float) -> np.ndarray:
    """Subgradient ascent step lam + alpha * g."""
    lam = np.asarray(lam, dtype=float)
    g = np.asarray(g, dtype=float)
    if lam.shape != g.shape:
        raise ValueError("dual vector and subgradient must have the same shape")
    return lam + alpha * g


# -------------------------------- bundle ------------------------------------


@dataclass(frozen=True)
class BundleEntry:
    iteration: int
    lam: np.ndarray
    subgradient: np.ndarray
    dual_value: float


@dataclass(frozen=True)
class Bundle:
    """Sliding window of (dual point, subgradient, dual value) triples."""

    capacity: int
    entries: tuple[BundleEntry, ...] = ()

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("bundle capacity must be >= 1")

    def __len__(self) -> int:
        return len(self.entries)


def bundle_push(bundle: Bundle, entry: BundleEntry) -> Bundle:
    """Append an entry, evicting everything older than tau iterations."""
    cutoff = entry.iteration - bundle.capacity + 1
    kept = tuple(e for e in bundle.entries if e.iteration >= cutoff)
    return Bundle(capacity=bundle.capacity, entries=kept + (entry,))


def linearization_errors(bundle: Bundle, lam_t: np.ndarray, d_t: float) -> np.ndarray:
    """beta_(l,t) = d(lam_t) - d(lam_l) - g_l . (lam_t - lam_l) per entry."""
    return _bundle_cuts(bundle, lam_t, d_t)[1]


def _bundle_cuts(bundle: Bundle, lam_t: np.ndarray, d_t: float) -> tuple[np.ndarray, np.ndarray]:
    """The master problem's cuts at lam_t: subgradients as rows and their linearization errors."""
    if not bundle.entries:
        raise ValueError("bundle is empty")
    lam_t = np.asarray(lam_t, dtype=float)
    G = np.array([e.subgradient for e in bundle.entries])
    lams = np.array([e.lam for e in bundle.entries])
    values = np.array([e.dual_value for e in bundle.entries])
    return G, d_t - values - np.einsum("ij,ij->i", G, lam_t - lams)


# ------------------------------ BFGS update ---------------------------------


# Relative curvature y.s below which a BFGS update is skipped.
_BFGS_SKIP_TOL = 1e-12


def bfgs_update(B: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """BFGS update of a negative-definite approximation.

    Skipped (B returned unchanged) unless y.s < -_BFGS_SKIP_TOL ||y|| ||s||; for a
    concave function the curvature pair should satisfy y.s < 0.  In exact
    arithmetic such a pair keeps B negative definite, but with curvatures
    many decades apart round-off can push the largest eigenvalue above 0, so
    an update whose result has a computed eigenvalue >= 0 is skipped as well.
    """
    B = np.asarray(B, dtype=float)
    s = np.asarray(s, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    ys = float(y @ s)
    if ys >= -_BFGS_SKIP_TOL * np.linalg.norm(y) * np.linalg.norm(s):
        return B
    Bs = B @ s
    sBs = float(s @ Bs)
    out = B + np.outer(y, y) / ys - np.outer(Bs, Bs) / sBs
    out = 0.5 * (out + out.T)  # symmetrize against round-off drift
    if np.linalg.eigvalsh(out)[-1] >= 0:
        return B
    return out


# ------------------------- trust-region master solver ------------------------


@dataclass(frozen=True)
class TrustRegionProblem:
    """Epigraph form shared by the BTM and QNDA master problems.

    ``quad``/``lin`` describe the concave quadratic model cap (QNDA); both are
    ``None`` for BTM, leaving a purely piecewise-linear model.  ``alpha`` is
    the squared-radius bound of the trust region, exactly as the update rules
    state it.
    """

    center: np.ndarray
    alpha: float
    cut_normals: np.ndarray   # (m, n) subgradients g_l
    cut_offsets: np.ndarray   # (m,) linearization errors beta_l
    quad: np.ndarray | None = None   # negative-definite B
    lin: np.ndarray | None = None    # subgradient at the center
    const: float = 0.0               # model value at the center

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float).ravel()
        G = np.atleast_2d(np.asarray(self.cut_normals, dtype=float))
        beta = np.asarray(self.cut_offsets, dtype=float).ravel()
        if self.alpha <= 0:
            raise ValueError("trust-region parameter must be positive")
        if G.shape[0] != beta.shape[0] or G.shape[1] != center.shape[0]:
            raise ValueError("cut dimensions are inconsistent")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "cut_normals", G)
        object.__setattr__(self, "cut_offsets", beta)
        if (self.quad is None) != (self.lin is None):
            raise ValueError("quad and lin must be given together")
        if self.quad is not None:
            object.__setattr__(self, "quad", np.asarray(self.quad, dtype=float))
            object.__setattr__(self, "lin", np.asarray(self.lin, dtype=float).ravel())


@dataclass(frozen=True)
class MasterSolution:
    argmax: np.ndarray        # the maximizing point (absolute coordinates)
    model_value: float        # model value at the argmax (including const)
    kkt_residual: float
    path: str                 # accepting solver stage: "ipm", "polish", "recentred" or "sqp"


class TrustRegionSolverError(RuntimeError):
    """Master solver failed to reach the requested KKT accuracy."""


def _distinct_cuts(cut_normals: np.ndarray, cut_offsets: np.ndarray) -> list[int]:
    """Indices of the cuts kept after collapsing near-duplicates, in order.

    Cut i is dropped when its row (g_i, beta_i) lies within 1e-7 * max(1,
    |row_i|) of a row already kept.  Near-duplicate cuts (bundle entries from
    almost-identical dual points) would make the KKT system singular.

    The pairwise test runs only when a prefilter finds a candidate pair: two
    rows that close project onto any direction u within |u| * 1e-7 * max(1,
    |rows|_F) of each other, so the test is skipped when no two sorted
    projections come within twice that (the factor covers round-off).  The
    direction weighs coordinate k by sqrt(k + 1).  Projections onto it
    flagged 2 of the 347 master problems of the benchmark workloads at seed 0,
    none of which has a duplicate, and 464 of the 2,682 of the K=3
    replicate-1 grid cells under BTM and QNDA; the first coordinate alone
    flagged 81 and 932.
    """
    rows = np.hstack([cut_normals, cut_offsets[:, None]])
    u = np.sqrt(np.arange(1.0, rows.shape[1] + 1))
    bound = 2e-7 * max(1.0, float(np.linalg.norm(rows))) * float(np.linalg.norm(u))
    if not (np.diff(np.sort(rows @ u)) <= bound).any():
        return list(range(rows.shape[0]))
    gaps = np.linalg.norm(rows[:, None] - rows[None], axis=2)
    # |row_i| as np.linalg.norm(rows[i]) computes it: one dot product per row.
    scale = np.maximum(1.0, np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]))
    close = np.tril(gaps <= 1e-7 * scale[:, None], k=-1)  # close[i, j]: row j < i is near row i
    keep = np.ones(rows.shape[0], dtype=bool)
    for i in np.flatnonzero(close.any(axis=1)).tolist():
        keep[i] = not (close[i] & keep).any()
    return np.flatnonzero(keep).tolist()


# KKT residual that every stage of the master solver must reach, and the
# Newton iterations allowed to one interior-point pass.
_KKT_TOL = 1e-8
_MAX_NEWTON = 200


def solve_trust_region_qp(problem: TrustRegionProblem) -> MasterSolution:
    """Interior-point solve of the epigraph master problem.

    Works in shifted coordinates z = (delta, w) with delta = x - center.
    Constraint functions f_i(z) <= 0:

      ball:   |delta|^2 - alpha
      cut l:  w - g_l . delta + beta_l
      model:  w - 1/2 delta^T B delta - g . delta        (if quad is given)

    The objective is max w.  Stages run in order until one meets
    ``_KKT_TOL``: a primal-dual path-following pass (:func:`_pdip_core`)
    that aims each step at a tenth of the mean complementarity; the same
    pass, from the same start, at half of it; and an SLSQP restart from the
    first pass's iterate, which identifies the active set at fully
    degenerate vertices (more active constraints than variables).  The
    first pass settles nearly every problem, by itself or through the
    polish: of the 5,364 BTM and QNDA master problems of the replicate-1
    cells of the seed-0 grid (t_max 150), the second pass settled 12 and
    SLSQP 35.  Each stage ends at the same test, a KKT residual within
    ``_KKT_TOL``: a pass stops at its first iterate of least merit so far
    that passes it, and the polish returns its first candidate that does.
    A stage's point is accepted as it stands when it passes; otherwise it
    goes through the active-set polish of :func:`_polish_kkt`, and the lower
    residual of the two is kept (SLSQP returns no multipliers, so its point
    is always polished).  The solution's ``path`` names the accepting stage:
    "ipm" for the first pass's point, "polish" for that point polished, and
    "recentred" or "sqp" for the later stages, polished or not.  The solver
    fails loudly if the best residual still exceeds ``_KKT_TOL``.
    """
    n = problem.center.shape[0]
    keep = _distinct_cuts(problem.cut_normals, problem.cut_offsets)
    G = problem.cut_normals[keep]
    beta = problem.cut_offsets[keep]
    m_cuts = G.shape[0]
    has_model = problem.quad is not None

    n_con = 1 + m_cuts + (1 if has_model else 0)
    # The cut rows of the Jacobian and the Hessians of the ball and the model
    # cap do not depend on z; only the ball and model rows of the Jacobian do.
    jacobian = np.zeros((n_con, n + 1))
    jacobian[1:1 + m_cuts, :n] = -G
    jacobian[1:, n] = 1.0
    model_hessian = -problem.quad if has_model else None

    def constraints(z, vals=None, grads=None):
        """Values and gradients of all f_i at z, written over the arrays of an
        earlier call when they are given."""
        delta, w = z[:n], z[n]
        if vals is None:
            vals, grads = np.empty(n_con), jacobian.copy()
        vals[0] = float(delta @ delta) - problem.alpha
        vals[1:1 + m_cuts] = w - G @ delta + beta
        grads[0, :n] = 2.0 * delta
        if has_model:
            Bd = problem.quad @ delta
            vals[-1] = w - 0.5 * float(delta @ Bd) - float(problem.lin @ delta)
            grads[-1, :n] = -Bd - problem.lin
        return vals, grads

    def add_curvature(H, weights):
        """H + sum_i weights_i * Hess f_i, written into H.  Only the ball, whose
        Hessian is 2 on the diagonal of the delta block, and the model cap are
        curved."""
        if has_model:
            curved = weights[-1] * model_hessian
            curved.reshape(-1)[::n + 1] += 2.0 * weights[0]
            H[:n, :n] += curved
        else:
            H.reshape(-1)[:n * (n + 2):n + 2] += 2.0 * weights[0]
        return H

    obj_grad = np.zeros(n + 1)
    obj_grad[n] = -1.0  # minimizing -w

    def candidate(z, lam, stage):
        """(z, lambda, kkt_residual, path) for a stage's point, polished if it fails _KKT_TOL."""
        vals, grads = constraints(z)
        kkt = _kkt_residual(vals, grads, obj_grad, lam)
        if kkt <= _KKT_TOL:
            return z, lam, kkt, stage
        polished = _polish_kkt(z, vals, grads, constraints, obj_grad, n_con)
        if polished is not None and polished[2] < kkt:
            return (*polished, "polish" if stage == "ipm" else stage)
        return z, lam, kkt, stage

    first = _pdip_core(problem, constraints, add_curvature, obj_grad, n_con, n, 0.1)
    result = candidate(*first, "ipm")
    for stage in ("recentred", "sqp"):
        if result[2] <= _KKT_TOL:
            break
        if stage == "sqp":
            point = _sqp_fallback(first[0], constraints, obj_grad, n_con)
            if point is None:
                break
        else:
            point = _pdip_core(problem, constraints, add_curvature, obj_grad, n_con, n, 0.5)
        trial = candidate(*point, stage)
        if trial[2] < result[2]:
            result = trial

    z, lam, kkt, path = result
    if kkt > _KKT_TOL:
        raise TrustRegionSolverError(f"KKT residual {kkt:.3e} exceeds {_KKT_TOL:.1e}")
    return MasterSolution(
        argmax=problem.center + z[:n],
        model_value=float(z[n]) + problem.const,
        kkt_residual=kkt,
        path=path,
    )


def _kkt_residual(vals, grads, obj_grad, lam) -> float:
    """max(||stationarity||_inf, max complementarity, max violation) at one point."""
    stationarity = obj_grad + grads.T @ lam
    return max(float(abs(stationarity).max()),
               float((lam * abs(vals)).max()),
               float(max(0.0, vals.max())))


# Iterations without a merit improvement that end an interior-point pass
# before any of its new best iterates meets _KKT_TOL.  The wait is long
# because the merit can stall and then recover.  On the 2,682 master problems
# of the K=3 replicate-1 cells of the seed-0 grid under BTM and QNDA (t_max
# 150), the first passes took 51,240 Newton iterations and the second 1,042,
# and the stages accepted 2,534 points as "ipm", 125 as "polish", 9 as
# "recentred" and 14 as "sqp".  A wait of 3 on the same problems left 34 of
# them above _KKT_TOL after all stages, and only 1,055 went to "ipm".
_PDIP_WAIT = 30


def _step_length(x, dx, to_boundary):
    """0.995 times the step along dx to the boundary of x > 0, at most 1.
    ``to_boundary`` is scratch space of x's shape."""
    # Where dx < 0, x / dx is minus the step that takes x to 0.
    to_boundary.fill(-np.inf)
    np.divide(x, dx, out=to_boundary, where=dx < 0)
    return min(1.0, -0.995 * float(to_boundary.max()))


@np.errstate(over="ignore", divide="ignore", under="ignore", invalid="ignore")
def _pdip_core(problem, constraints, add_curvature, obj_grad, n_con, n, sigma):
    """One primal-dual path-following pass; returns an iterate (z, lambda).

    Every Newton step aims the complementarity at ``sigma`` times its mean,
    and one step length, 0.995 of the way to the boundary, moves the slacks
    and the multipliers together.  The centering never stops: pure affine
    steps (sigma = 0) jam on the degenerate bundles late in a QNDA run, where
    nearly every cut is almost active, and drive those slacks to 1e-19 and
    below while the stationarity stalls above ``_KKT_TOL``.

    The pass keeps its best iterate, the one of least merit (the largest of
    the stationarity and primal residuals and the mean complementarity).  It
    returns the first new best iterate whose KKT residual, as
    :func:`_kkt_residual` scores it, meets ``_KKT_TOL``.  An iterate that
    passes without improving the merit is not returned: its slacks still
    disagree with its constraint values, and on a flat model with a binding
    ball such an iterate can sit well inside the ball at a model value far
    below the optimum.  Failing that the pass returns its best iterate once
    the merit falls below 1e-13, the iteration breaks down (a singular
    Newton matrix among the ways), the merit has not improved for
    ``_PDIP_WAIT`` iterations, or ``_MAX_NEWTON`` Newton iterations have
    run.

    A Newton step does only the arithmetic of the iterate at hand.  The
    pass sets numpy's floating-point error state once, ignoring every
    error, where ``np.linalg.solve`` would set its own at each call.  It
    solves each Newton system with :data:`_solve1`, the LAPACK kernel that
    ``np.linalg.solve`` dispatches to, which answers a singular matrix with
    NaNs where ``np.linalg.solve`` raises.  It writes each direction, and
    the ratios of each step length, into buffers of its own.  The
    arithmetic and its order are unchanged, so every iterate is the same
    bit for bit.
    """
    beta = problem.cut_offsets
    # Strictly feasible start: delta = 0, w below every cut and the model cap.
    z = np.zeros(n + 1)
    z[n] = min(0.0, float(-beta.max())) - 1.0 - abs(float(beta.max()))
    vals, grads = constraints(z)  # rewritten in place at every later iterate
    grads_t = grads.T  # a view, so it follows those writes
    # Slacks and multipliers side by side, so that a step finds its one
    # length with one masked division and moves both at once.
    state = np.concatenate((-vals, np.ones(n_con)))
    d_state = np.empty(2 * n_con)  # (ds, dlam) of each step
    to_boundary = np.empty(2 * n_con)
    best = (np.inf, z, state[n_con:])
    stall = 0
    for newton in range(_MAX_NEWTON):
        slack, lam_pd = state[:n_con], state[n_con:]
        if newton:
            constraints(z, vals, grads)
        r_stat = obj_grad + grads_t @ lam_pd
        stationarity = float(abs(r_stat).max())
        r_prim = vals + slack
        mu = float(lam_pd @ slack) / n_con
        merit = max(stationarity, float(abs(r_prim).max()), mu)
        # Late iterations can degrade once slacks underflow; keep the best
        # iterate seen and stop when the merit stops improving.  Iterates are
        # never written in place, so the best one needs no copy.
        if merit < best[0]:
            # _kkt_residual's test on the residuals at hand, cheapest term
            # first; the tolerance is positive, so the violation needs no
            # clipping at 0.
            if (stationarity <= _KKT_TOL and float(vals.max()) <= _KKT_TOL
                    and float((lam_pd * abs(vals)).max()) <= _KKT_TOL):
                return z, lam_pd
            best = (merit, z, lam_pd)
            stall = 0
        else:
            stall += 1
        if merit < 1e-13 or stall >= _PDIP_WAIT:
            break
        if slack.min() <= 0 or lam_pd.min() < 0 or lam_pd.max() > 1e12:
            break  # slack underflow or multiplier blow-up; keep the best iterate
        # Condensed Newton system in (dz, dlam); ds eliminated.
        W = lam_pd / slack
        H = add_curvature(grads_t @ (grads * W[:, None]), lam_pd)
        if not np.isfinite(H).all():
            break
        comp = (lam_pd * slack - sigma * mu) / slack
        dz = _solve1(H, -r_stat - grads_t @ (W * r_prim - comp))
        if math.isnan(dz[0]):
            break  # LAPACK's answer for a singular matrix: all NaN
        moved = grads @ dz + r_prim
        np.negative(moved, out=d_state[:n_con])
        np.multiply(W, moved, out=d_state[n_con:])
        d_state[n_con:] -= comp
        step = _step_length(state, d_state, to_boundary)
        z = z + step * dz
        state = state + step * d_state
    return best[1], best[2]


def _sqp_fallback(z0, constraints, obj_grad, n_con):
    """SQP restart from a near-optimal iterate; returns (z, lambda) or None."""
    from scipy.optimize import minimize

    def f_ineq(x):
        vals, _ = constraints(x)
        return -vals

    def jac_ineq(x):
        _, grads = constraints(x)
        return -grads

    result = minimize(
        lambda x: float(obj_grad @ x), z0, jac=lambda x: obj_grad,
        constraints=[{"type": "ineq", "fun": f_ineq, "jac": jac_ineq}],
        method="SLSQP", options={"maxiter": 500, "ftol": 1e-16},
    )
    if not np.all(np.isfinite(result.x)):
        return None
    return result.x, np.zeros(n_con)


def _polish_kkt(z, z_vals, z_grads, constraints, obj_grad, n_con):
    """Active-set refinement of a solver stage's point that misses the tolerance.

    ``z_vals`` and ``z_grads`` are ``constraints(z)``; the polish evaluates
    the constraints only at the points it moves to, each once.

    For a range of slack thresholds: take the constraints within the threshold
    of being tight as active, project the iterate onto the active manifold by
    Gauss-Newton, recover multipliers by non-negative least squares, and score
    the full KKT residual.  The active set is then refined toward the support
    of the multipliers; scanning thresholds handles degenerate solutions where
    many near-parallel cuts are almost tight and the true active set is
    ambiguous.  A last candidate set adds the trust-region ball to the widest
    one.  The projection stops once a step after the first fails to halve the
    active residual, and a starting active set met before is skipped, since
    it would repeat that work exactly.  Returns the first candidate (z,
    lambda, kkt_residual) whose residual meets ``_KKT_TOL``; failing that, the
    best one found, or None.
    """
    from scipy.optimize import nnls

    def score_nnls(x, vals, grads, idx):
        """Full KKT residual at x, whose constraints are (vals, grads), with
        NNLS multipliers restricted to idx."""
        try:
            mu_active, _ = nnls(grads[idx].T, -obj_grad)
        except RuntimeError:
            return None
        lam_full = np.zeros(n_con)
        lam_full[idx] = mu_active
        return x.copy(), lam_full, _kkt_residual(vals, grads, obj_grad, lam_full)

    best = None

    def keep(trial):
        """Keep trial if it is the best so far; True once the best meets _KKT_TOL."""
        nonlocal best
        if best is None or trial[2] < best[2]:
            best = trial
        return best[2] <= _KKT_TOL

    sets = [np.flatnonzero(-z_vals < thresh).tolist()
            for thresh in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4)]
    # On a flat model the ball can bind with a multiplier so small that the
    # interior point stays far from it.
    sets.append(sorted(set(sets[-1]) | {0}))
    seen = set()
    for idx in sets:
        if not idx or tuple(idx) in seen:
            continue
        seen.add(tuple(idx))
        # Score the unprojected iterate first: at degenerate vertices the
        # Gauss-Newton projection below chases an inconsistent active set,
        # while the incoming point with least-squares multipliers is already
        # near-stationary.
        trial = score_nnls(z, z_vals, z_grads, idx)
        if trial is not None and keep(trial):
            return best
        x, vals, grads = z, z_vals, z_grads
        for _ in range(6):
            # The first step can overshoot the ball from afar; from the
            # second on, a step that fails to halve the residual ends it.
            previous = np.inf
            for steps in range(30):
                residual = vals[idx]
                size = float(np.abs(residual).max())
                if size < 1e-14 or (steps > 1 and size >= 0.5 * previous):
                    break
                previous = size
                step, *_ = np.linalg.lstsq(grads[idx], -residual, rcond=None)
                if not np.all(np.isfinite(step)):
                    break
                x = x + step
                vals, grads = constraints(x)
            if not np.all(np.isfinite(x)):
                break
            trial = score_nnls(x, vals, grads, idx)
            if trial is None:
                break
            if keep(trial):
                return best
            support = [i for i in idx if trial[1][i] > 1e-12]
            violated = [i for i in range(n_con)
                        if i not in support and vals[i] > 1e-12]
            refined = sorted(set(support) | set(violated))
            if refined == idx or not refined:
                break
            idx = refined
    return best


# ------------------------------ BTM and QNDA --------------------------------


def btm_direction(bundle: Bundle, lam_t: np.ndarray, d_t: float, alpha_t: float):
    """Bundle-trust direction: maximize the cutting-plane model over the ball.

    Returns (s, v): the step and the model improvement at lam_t + s.
    """
    lam_t = np.asarray(lam_t, dtype=float)
    G, beta = _bundle_cuts(bundle, lam_t, d_t)
    problem = TrustRegionProblem(center=lam_t, alpha=alpha_t,
                                 cut_normals=G, cut_offsets=beta, const=d_t)
    sol = solve_trust_region_qp(problem)
    return sol.argmax - lam_t, sol.model_value - d_t


def qnda_update(B: np.ndarray, bundle: Bundle, lam_t: np.ndarray, g_t: np.ndarray,
                d_t: float, alpha_t: float) -> tuple[np.ndarray, bool]:
    """Quasi-Newton dual ascent step: maximize the quadratic model under bundle cuts.

    The bundle cuts bound the model value, giving the convex epigraph form
    handled by :func:`solve_trust_region_qp`.  On solver failure the step
    falls back to a BTM direction.  Returns ``(point, fell_back)``: the new
    dual point and whether it came from that fallback.
    """
    lam_t = np.asarray(lam_t, dtype=float)
    g_t = np.asarray(g_t, dtype=float)
    G, beta = _bundle_cuts(bundle, lam_t, d_t)
    problem = TrustRegionProblem(center=lam_t, alpha=alpha_t,
                                 cut_normals=G, cut_offsets=beta,
                                 quad=np.asarray(B, dtype=float), lin=g_t, const=d_t)
    try:
        return solve_trust_region_qp(problem).argmax, False
    except TrustRegionSolverError:
        s, _ = btm_direction(bundle, lam_t, d_t, alpha_t)
        return lam_t + s, True
