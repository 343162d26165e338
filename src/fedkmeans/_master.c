/* One primal-dual interior-point pass over the trust-region master problem
 * of fedkmeans.master, which builds this file together with _search.c,
 * loads it with ctypes and documents the stages around the pass.
 *
 * The problem, in shifted coordinates z = (delta, w) with n + 1 entries, is
 * min -w subject to f_i(z) <= 0 for
 *
 *   ball:   |delta|^2 - alpha
 *   cut l:  w - G_l . delta + beta_l                       (l < m)
 *   model:  w - 1/2 delta^T B delta - lin . delta          (when B is given)
 *
 * fk_pdip runs one pass from the strictly feasible start delta = 0,
 * w = min(0, -max beta) - 1 - |max beta|, with slacks s = -f(z) and unit
 * multipliers.  Each Newton step solves the sigma-centred condensed system
 * in dz by LU with partial pivoting, and one step length, 0.995 of the way
 * to the boundary, moves the slacks and the multipliers together.  An
 * iterate's merit is the largest of the stationarity, the primal residual
 * and the mean complementarity.  The pass ends at its first iterate of
 * least merit so far whose KKT residual is within tol and whose duality
 * gap sum_i lam_i |f_i| is within gap_tol max(1, |w|).  Otherwise it
 * returns its first iterate of least merit so far within tol, or failing
 * that its iterate of least merit.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Why a pass stopped; fedkmeans.master._PASS_STOPS names them in order. */
enum { KKT = 0, MERIT, STALL, MAX_NEWTON, BOUNDARY, NONFINITE, SINGULAR };

/* Values and gradients of every constraint at z: n_con values and an
   n_con x (n + 1) row-major Jacobian, whose constant entries the caller
   has written. */
static void constraints(int64_t n, int64_t m, const double *G, const double *beta, double alpha,
                        const double *B, const double *lin, const double *z, double *vals, double *grads)
{
    int64_t N = n + 1;
    const double *delta = z;
    double w = z[n], dd = 0.0;
    for (int64_t j = 0; j < n; j++) {
        dd += delta[j] * delta[j];
        grads[j] = 2.0 * delta[j];
    }
    vals[0] = dd - alpha;
    for (int64_t l = 0; l < m; l++) {
        const double *g = G + l * n;
        double gd = 0.0;
        for (int64_t j = 0; j < n; j++)
            gd += g[j] * delta[j];
        vals[1 + l] = w - gd + beta[l];
    }
    if (B) {
        double *row = grads + (1 + m) * N, dBd = 0.0, ld = 0.0;
        for (int64_t a = 0; a < n; a++) {
            double s = 0.0;
            for (int64_t b = 0; b < n; b++)
                s += B[a * n + b] * delta[b];
            dBd += delta[a] * s;
            ld += lin[a] * delta[a];
            row[a] = -s - lin[a];
        }
        vals[1 + m] = w - 0.5 * dBd - ld;
    }
}

/* The larger of a and b, NaN if either is. */
static double max_nan(double a, double b)
{
    return isnan(a) || a > b ? a : b;
}

/* Solves A x = b in place (x overwrites b) by LU with partial pivoting;
   diag is scratch space of N.  Returns 0, or -1 when A is singular to
   working precision: at a pivot that is zero, not finite, or no larger
   than DBL_EPSILON times the diagonal entry of its column in A, so that
   cancellation has left nothing but rounding, or when x is not finite. */
static int lu_solve(double *A, double *b, int64_t N, double *diag)
{
    for (int64_t k = 0; k < N; k++)
        diag[k] = fabs(A[k * N + k]);
    for (int64_t k = 0; k < N; k++) {
        int64_t p = k;
        double big = fabs(A[k * N + k]);
        for (int64_t i = k + 1; i < N; i++)
            if (fabs(A[i * N + k]) > big) {
                big = fabs(A[i * N + k]);
                p = i;
            }
        if (!(big > DBL_EPSILON * diag[k]) || !isfinite(big))
            return -1;
        if (p != k) {
            for (int64_t j = 0; j < N; j++) {
                double t = A[k * N + j];
                A[k * N + j] = A[p * N + j];
                A[p * N + j] = t;
            }
            double t = b[k];
            b[k] = b[p];
            b[p] = t;
        }
        double pivot = A[k * N + k];
        for (int64_t i = k + 1; i < N; i++) {
            double f = A[i * N + k] / pivot;
            if (f == 0.0)
                continue;
            A[i * N + k] = f;
            for (int64_t j = k + 1; j < N; j++)
                A[i * N + j] -= f * A[k * N + j];
            b[i] -= f * b[k];
        }
    }
    for (int64_t k = N - 1; k >= 0; k--) {
        double s = b[k];
        for (int64_t j = k + 1; j < N; j++)
            s -= A[k * N + j] * b[j];
        b[k] = s / A[k * N + k];
        if (!isfinite(b[k]))
            return -1;
    }
    return 0;
}

/* One pass.  G is m x n and B n x n, row-major; B and lin are NULL for a
   model of cuts alone.  Writes the returned iterate into z (n + 1) and lam
   (n_con = 1 + m + (B != NULL)), and into report the Newton steps taken,
   the index of the returned iterate (the start is 0, each step's iterate
   the next) and why the pass stopped.  Returns 0, or -1 when it cannot
   allocate its work space. */
int fk_pdip(int64_t n, int64_t m, const double *G, const double *beta, double alpha, const double *B,
            const double *lin, double sigma, double tol, double gap_tol, int64_t max_newton, int64_t wait,
            double *z, double *lam, int64_t *report)
{
    int64_t N = n + 1, n_con = 1 + m + (B != NULL);
    double *work = malloc(sizeof(double) * (size_t)(4 * N + N * N + (8 + N) * n_con));
    if (!work)
        return -1;
    double *dz = work, *kept_z = dz + N, *r_stat = kept_z + N, *diag = r_stat + N, *H = diag + N;
    double *vals = H + N * N, *slack = vals + n_con, *kept_lam = slack + n_con, *r_prim = kept_lam + n_con;
    double *W = r_prim + n_con, *comp = W + n_con, *ds = comp + n_con, *dlam = ds + n_con;
    double *grads = dlam + n_con;

    /* The Jacobian's constant entries: the cut rows and the w column. */
    memset(grads, 0, sizeof(double) * (size_t)(n_con * N));
    for (int64_t l = 0; l < m; l++)
        for (int64_t j = 0; j < n; j++)
            grads[(1 + l) * N + j] = -G[l * n + j];
    for (int64_t i = 1; i < n_con; i++)
        grads[i * N + n] = 1.0;

    double top = m ? beta[0] : -INFINITY;
    for (int64_t l = 1; l < m; l++)
        if (beta[l] > top)
            top = beta[l];
    memset(z, 0, sizeof(double) * (size_t)N);
    z[n] = (-top < 0.0 ? -top : 0.0) - 1.0 - fabs(top);
    constraints(n, m, G, beta, alpha, B, lin, z, vals, grads);
    for (int64_t i = 0; i < n_con; i++) {
        slack[i] = -vals[i];
        lam[i] = 1.0;
    }
    double best = INFINITY;  /* the least merit so far */
    memcpy(kept_z, z, sizeof(double) * (size_t)N);
    memcpy(kept_lam, lam, sizeof(double) * (size_t)n_con);
    int64_t returned = 0, stall = 0, steps = 0, stop = MAX_NEWTON;
    int within = 0;  /* the kept iterate is within tol */
    for (int64_t newton = 0; newton < max_newton; newton++) {
        if (newton)
            constraints(n, m, G, beta, alpha, B, lin, z, vals, grads);
        for (int64_t j = 0; j < N; j++)
            r_stat[j] = j == n ? -1.0 : 0.0;
        double lam_slack = 0.0, prim = 0.0, top_val = -INFINITY, top_comp = 0.0, gap = 0.0;
        for (int64_t i = 0; i < n_con; i++) {
            const double *g = grads + i * N;
            for (int64_t j = 0; j < N; j++)
                r_stat[j] += g[j] * lam[i];
            r_prim[i] = vals[i] + slack[i];
            lam_slack += lam[i] * slack[i];
            prim = max_nan(prim, fabs(r_prim[i]));
            top_val = max_nan(top_val, vals[i]);
            top_comp = max_nan(top_comp, lam[i] * fabs(vals[i]));
            gap += lam[i] * fabs(vals[i]);
        }
        double stationarity = 0.0, mu = lam_slack / (double)n_con;
        for (int64_t j = 0; j < N; j++)
            stationarity = max_nan(stationarity, fabs(r_stat[j]));
        double merit = max_nan(max_nan(stationarity, prim), mu);
        if (merit < best) {
            /* The KKT residual of fedkmeans.master._kkt_residual, from the
               terms at hand (the tolerance is positive, so the violation
               needs no clipping at 0), and the duality gap. */
            int kkt = stationarity <= tol && top_val <= tol && top_comp <= tol;
            if (kkt && gap <= gap_tol * fmax(1.0, fabs(z[n]))) {
                returned = newton;
                stop = KKT;
                goto done;
            }
            if (!within) {
                memcpy(kept_z, z, sizeof(double) * (size_t)N);
                memcpy(kept_lam, lam, sizeof(double) * (size_t)n_con);
                returned = newton;
                within = kkt;
            }
            best = merit;
            stall = 0;
        } else {
            stall++;
        }
        if (merit < 1e-13) {
            stop = MERIT;
            break;
        }
        if (stall >= wait) {
            stop = STALL;
            break;
        }
        /* Slack underflow or multiplier blow-up. */
        int bad = 0;
        for (int64_t i = 0; i < n_con; i++)
            if (!(slack[i] > 0.0) || !(lam[i] >= 0.0) || !(lam[i] <= 1e12))
                bad = 1;
        if (bad) {
            stop = BOUNDARY;
            break;
        }

        /* Condensed Newton system in dz, the slack step eliminated:
           H = J^T diag(W) J + sum_i lam_i Hess f_i, with W = lam / s. */
        for (int64_t i = 0; i < n_con; i++)
            W[i] = lam[i] / slack[i];
        for (int64_t a = 0; a < N; a++)
            for (int64_t b = a; b < N; b++) {
                double h = 0.0;
                for (int64_t i = 0; i < n_con; i++)
                    h += grads[i * N + a] * W[i] * grads[i * N + b];
                H[a * N + b] = H[b * N + a] = h;
            }
        for (int64_t j = 0; j < n; j++)
            H[j * N + j] += 2.0 * lam[0];
        if (B) {
            double lm = lam[n_con - 1];
            for (int64_t a = 0; a < n; a++)
                for (int64_t b = 0; b < n; b++)
                    H[a * N + b] -= lm * B[a * n + b];
        }
        int finite = 1;
        for (int64_t k = 0; k < N * N; k++)
            if (!isfinite(H[k]))
                finite = 0;
        if (!finite) {
            stop = NONFINITE;
            break;
        }
        for (int64_t i = 0; i < n_con; i++)
            comp[i] = (lam[i] * slack[i] - sigma * mu) / slack[i];
        for (int64_t j = 0; j < N; j++)
            dz[j] = -r_stat[j];
        for (int64_t i = 0; i < n_con; i++) {
            double f = W[i] * r_prim[i] - comp[i];
            for (int64_t j = 0; j < N; j++)
                dz[j] -= grads[i * N + j] * f;
        }
        if (lu_solve(H, dz, N, diag)) {
            stop = SINGULAR;
            break;
        }

        /* The slack and multiplier steps, and one length for both. */
        double nearest = -INFINITY;  /* the largest of x / dx over dx < 0 */
        for (int64_t i = 0; i < n_con; i++) {
            double moved = r_prim[i];
            for (int64_t j = 0; j < N; j++)
                moved += grads[i * N + j] * dz[j];
            ds[i] = -moved;
            dlam[i] = W[i] * moved - comp[i];
            if (ds[i] < 0.0 && slack[i] / ds[i] > nearest)
                nearest = slack[i] / ds[i];
            if (dlam[i] < 0.0 && lam[i] / dlam[i] > nearest)
                nearest = lam[i] / dlam[i];
        }
        double step = fmin(1.0, -0.995 * nearest);
        for (int64_t j = 0; j < N; j++)
            z[j] += step * dz[j];
        for (int64_t i = 0; i < n_con; i++) {
            slack[i] += step * ds[i];
            lam[i] += step * dlam[i];
        }
        steps++;
    }
    memcpy(z, kept_z, sizeof(double) * (size_t)N);
    memcpy(lam, kept_lam, sizeof(double) * (size_t)n_con);
done:
    report[0] = steps;
    report[1] = returned;
    report[2] = stop;
    free(work);
    return 0;
}
