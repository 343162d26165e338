"""The master's interior-point pass written with numpy: the oracle that the
tests compare ``fedkmeans/_master.c`` with.

:func:`reference_pass` takes the arguments of
``fedkmeans.master._interior_point_pass`` and returns what it returns: an
iterate (z, lambda) and a ``_PassReport``.  It runs the same algorithm from
the same start, with the same merit, stops and step rule, but solves each
Newton system with numpy's LAPACK kernel for one right-hand side, which
answers a singular matrix with NaNs, and does its arithmetic in numpy's
orders, so its iterates agree with the compiled pass's to round-off, not
bit for bit.  The pass ends at a NaN answer, which LAPACK gives at an
exactly zero pivot; the compiled pass also ends at a pivot that is zero to
working precision.  This is the numpy pass that the package ran before the
pass was compiled, with the compiled pass's duality-gap test and choice of
returned iterate added.

The module needs only numpy and fedkmeans, not pytest, so that scripts can
use it too (put this directory on ``sys.path``).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _solve1  # np.linalg.solve's kernel for one right-hand side

import fedkmeans.master as master


def constraint_values(problem, G, beta, z):
    """Values and gradients of every constraint f_i of ``problem`` with the
    cuts (G, beta) at z = (delta, w): the ball, the cuts, then the model
    cap when there is one."""
    n, m = problem.center.shape[0], G.shape[0]
    delta, w = z[:n], z[n]
    n_con = 1 + m + (problem.quad is not None)
    vals, grads = np.empty(n_con), np.zeros((n_con, n + 1))
    vals[0] = float(delta @ delta) - problem.alpha
    vals[1:1 + m] = w - G @ delta + beta
    grads[0, :n] = 2.0 * delta
    grads[1:1 + m, :n] = -G
    grads[1:, n] = 1.0
    if problem.quad is not None:
        Bd = problem.quad @ delta
        vals[-1] = w - 0.5 * float(delta @ Bd) - float(problem.lin @ delta)
        grads[-1, :n] = -Bd - problem.lin
    return vals, grads


def kkt_residual(problem, G, beta, z, lam):
    """``master._kkt_residual`` of the iterate (z, lam)."""
    obj_grad = np.zeros(z.shape[0])
    obj_grad[-1] = -1.0
    return master._kkt_residual(*constraint_values(problem, G, beta, z), obj_grad, lam)


def _step_length(x, dx, to_boundary):
    """0.995 times the step along dx to the boundary of x > 0, at most 1.
    ``to_boundary`` is scratch space of x's shape."""
    # Where dx < 0, x / dx is minus the step that takes x to 0.
    to_boundary.fill(-np.inf)
    np.divide(x, dx, out=to_boundary, where=dx < 0)
    return min(1.0, -0.995 * float(to_boundary.max()))


@np.errstate(over="ignore", divide="ignore", under="ignore", invalid="ignore")
def reference_pass(problem, G, beta, sigma, solve=_solve1):
    """One pass, as ``master._interior_point_pass``; ``solve(H, rhs)``
    solves each Newton system.  The limits ``master._MAX_NEWTON`` and
    ``master._PDIP_WAIT`` are read at each call."""
    n, m = problem.center.shape[0], G.shape[0]
    has_model = problem.quad is not None
    n_con = 1 + m + has_model
    tol = master._KKT_TOL

    def add_curvature(H, weights):
        """H + sum_i weights_i * Hess f_i: only the ball and the model cap are curved."""
        H.reshape(-1)[:n * (n + 2):n + 2] += 2.0 * weights[0]
        if has_model:
            H[:n, :n] -= weights[-1] * problem.quad
        return H

    obj_grad = np.zeros(n + 1)
    obj_grad[n] = -1.0
    # Strictly feasible start: delta = 0, w below every cut and the model cap.
    z = np.zeros(n + 1)
    z[n] = min(0.0, float(-beta.max())) - 1.0 - abs(float(beta.max()))
    vals, grads = constraint_values(problem, G, beta, z)
    # Slacks and multipliers side by side, so that one step length moves both.
    state = np.concatenate((-vals, np.ones(n_con)))
    d_state = np.empty(2 * n_con)
    to_boundary = np.empty(2 * n_con)
    best, kept, within = np.inf, (z, state[n_con:], 0), False
    stall = steps = 0
    stop = "max_newton"
    for newton in range(master._MAX_NEWTON):
        slack, lam = state[:n_con], state[n_con:]
        if newton:
            vals, grads = constraint_values(problem, G, beta, z)
        r_stat = obj_grad + grads.T @ lam
        stationarity = float(abs(r_stat).max())
        r_prim = vals + slack
        mu = float(lam @ slack) / n_con
        merit = max(stationarity, float(abs(r_prim).max()), mu)
        if merit < best:
            kkt = (stationarity <= tol and float(vals.max()) <= tol
                   and float((lam * abs(vals)).max()) <= tol)
            if kkt and float(lam @ abs(vals)) <= master._GAP_TOL * max(1.0, abs(float(z[n]))):
                return z, lam, master._PassReport(steps, newton, "kkt")
            if not within:
                kept = (z, lam, newton)
                within = kkt
            best = merit
            stall = 0
        else:
            stall += 1
        if merit < 1e-13 or stall >= master._PDIP_WAIT:
            stop = "merit" if merit < 1e-13 else "stall"
            break
        if slack.min() <= 0 or lam.min() < 0 or lam.max() > 1e12:
            stop = "boundary"
            break
        # Condensed Newton system in (dz, dlam); ds eliminated.
        W = lam / slack
        H = add_curvature(grads.T @ (grads * W[:, None]), lam)
        if not np.isfinite(H).all():
            stop = "nonfinite"
            break
        comp = (lam * slack - sigma * mu) / slack
        dz = solve(H, -r_stat - grads.T @ (W * r_prim - comp))
        if math.isnan(dz[0]):
            stop = "singular"  # LAPACK's answer for a singular matrix: all NaN
            break
        moved = grads @ dz + r_prim
        np.negative(moved, out=d_state[:n_con])
        np.multiply(W, moved, out=d_state[n_con:])
        d_state[n_con:] -= comp
        step = _step_length(state, d_state, to_boundary)
        z = z + step * dz
        state = state + step * d_state
        steps += 1
    return kept[0], kept[1], master._PassReport(steps, kept[2], stop)
