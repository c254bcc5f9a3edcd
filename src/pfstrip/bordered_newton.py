"""Plain bordered Newton for the stationary system, the fallback of
stationary.solve_stationary where its pseudo-transient loop fails, and the
preconditioned MINRES it solves with.

Its MINRES solves need no definiteness, so it reaches saddles whose Jacobian
is indefinite, where the pseudo-transient loop's CG solves fail.  From far
starts it stalls more often than that loop, so it does not replace it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SolverError
from .grid_ops import MAX_RESTARTS
from .stationary import MAX_ATTEMPTS, STATIONARY_GUARD_EPS, StationaryResult, _point, _result
from .timestepper import Model, _newton


def solve_minres(apply, precond, rhs: np.ndarray, split, tol: float = 1.0e-10,
                 max_iter: int | None = None) -> np.ndarray:
    """Preconditioned MINRES (Paige and Saunders 1975) for a symmetric, possibly
    indefinite A = P + S with P SPD: precond is the exact P^-1 (a new array) and
    apply(z) the full A z, as in grid_ops.solve_spd, but split is a callable v -> S v,
    not solve_spd's diagonal array, since S may couple entries (a bordered system).
    The Lanczos vector is v = P^-1 w / beta, so A v = w / beta + S v, and apply
    runs only for the true-residual checks.  The residual rhs - A x follows the
    recurrence r <- s^2 r - (c phibar / gamma) w of the Givens rotation (c, s).
    Stops, restarts (at most MAX_RESTARTS times) and raises as solve_spd does.
    """
    max_iter = 10 * rhs.size if max_iter is None else max_iter
    bnorm = math.sqrt(rhs @ rhs)
    x = np.zeros(rhs.size)
    if bnorm == 0.0:
        return x
    r, w, restarts = rhs.copy(), None, 0
    for it in range(max_iter):
        if math.sqrt(r @ r) <= tol * bnorm:
            r_true = rhs - apply(x)
            if math.sqrt(r_true @ r_true) <= tol * bnorm:
                return x
            restarts += 1
            if restarts > MAX_RESTARTS:
                raise SolverError(f"MINRES stagnated: {MAX_RESTARTS} restarts in {it} iterations")
            r, w = r_true, None
        if w is None:   # (re)start the Lanczos process and its rotations at r
            w, w_old, z = r.copy(), 0.0, precond(r)
            beta = beta_old = phibar = math.sqrt(r @ z)
            cs, sn, dbar, eps, d, d_old = -1.0, 0.0, 0.0, 0.0, 0.0, 0.0
        v = z / beta
        y = w / beta + split(v) - (beta / beta_old) * w_old
        alpha = float(v @ y)
        y -= (alpha / beta) * w
        w_old, w, z = w, y, precond(y)
        beta_old, beta = beta, math.sqrt(y @ z)
        eps_old, delta = eps, cs * dbar + sn * alpha
        gbar, eps, dbar = sn * dbar - cs * alpha, sn * beta, -cs * beta
        gamma = math.hypot(gbar, beta)
        cs, sn = gbar / gamma, beta / gamma
        d_old, d = d, (v - eps_old * d_old - delta * d) / gamma
        x += (cs * phibar) * d
        r = (sn * sn) * r - (cs * phibar / gamma) * w
        phibar *= sn
    r = rhs - apply(x)
    if math.sqrt(r @ r) <= tol * bnorm:
        return x
    raise SolverError(f"MINRES did not converge in {max_iter} iterations")


def bordered_newton(guess: np.ndarray, u: float, mu_target: float, model: Model,
                    tol: float) -> StationaryResult:
    """timestepper._newton on x = (chi, u) from (guess clipped to the guard box, u), with
    the residual F = (R, -g), the mass-gap row negated, in the weights (m_comb, 1), so that
    ||F|| = hypot(||R||, |g|), and the box (lo, -inf) ... (hi, -5e-324), that is u < 0.
    Each iteration makes one MINRES solve of the symmetric bordered system
    [[J, -b], [-b^T, -c]] (dchi, du) = -F, preconditioned by the SPD blkdiag(K + sM, c)
    at s = max(|mean(d/m)|, 1e-3)."""
    mc, total, k, n = model.masses.m_comb, model.masses.total, model.stiffness, guess.size
    lo, hi = model.chi_bounds(STATIONARY_GUARD_EPS)
    point = None

    def linearize(x):
        nonlocal point
        point = _point(x[:n], x[n], mu_target, model)
        return np.append(point[2], -point[6]), np.append(point[3], 0.0)   # (R, -g), (d, 0)

    def solve(d, f, cg_tol):   # b and u of the point last linearized, the one _newton steps from
        d, u, b = d[:n], point[1], point[4]
        c, s = total / (u * u), max(abs(float(d @ model.inv_m_comb)) / n, 1.0e-3)
        e, p_inv = d - s * mc, model.shifted_inverse.solver(s)
        return solve_minres(
            lambda z: np.append(k.apply(z[:n]) + d * z[:n] - b * z[n], -b @ z[:n] - c * z[n]),
            lambda w: np.append(p_inv(w[:n]), w[n] / c), -f,
            lambda v: np.append(e * v[:n] - b * v[n], -b @ v[:n] - 2.0 * c * v[n]), cg_tol)

    _newton(np.append(guess, u), linearize, solve, np.append(mc, 1.0), np.append(lo, -np.inf),
            np.append(hi, -5.0e-324), 1.0e-12, MAX_ATTEMPTS, 0.0, tol)
    return _result(point, mu_target, model, math.inf)   # _newton has applied its stop rule
