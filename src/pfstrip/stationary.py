"""Steady-state solver.

A steady state has a constant positive temperature theta_inf = -1/u_inf and
a phase field chi_inf solving the semilinear elliptic system

    K chi + m_bulk (f(chi) - delta chi - lambda_b'(chi) u_inf)
          + m_surf (f_s(chi) - delta chi - lambda_s'(chi) u_inf) = 0,

subject to the mass constraint that theta_inf + lambda(chi_inf) integrates
to the prescribed mass.  solve_stationary finds chi_inf and u_inf together,
by pseudo-transient Newton on the phase residual bordered by the mass gap and,
where that fails, by plain bordered Newton, whose MINRES solves
(grid_ops.solve_minres) need no definiteness and so reach saddles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .functionals import State, mass_mu
from .grid_ops import solve_minres
from .timestepper import Model, PhaseValues, _converged, _into_box, _newton, measure_norm

STATIONARY_GUARD_EPS = 1.0e-12
PSEUDO_TIME_STEP = 1.0   # Delta_0 of the pseudo-transient continuation
MAX_ATTEMPTS = 200       # stationary Newton steps tried, rejected ones included


@dataclass
class StationaryResult:
    u_inf: float
    theta_inf: float
    chi_inf: np.ndarray
    phase_residual: float
    mass_gap: float
    mu_target: float
    separation: float


def _linearization(chi: np.ndarray, u_inf: float, model: Model, kchi=None):
    """Stationary phase residual, unclamped Jacobian diagonal, K chi and PhaseValues at chi."""
    v = model.phase_values(chi, kchi)
    (r, d), pb, ps = v.implicit, model.p_bulk, model.p_surf
    d_lag = model._compose(pb.delta + v.bulk.lampp * u_inf, ps.delta + v.surf.lampp * u_inf)
    return r - model.lagged_rhs(v, u_inf), d - d_lag, v.kchi, v


def solve_chi_given_u(u_inf: float, guess: np.ndarray, model: Model, tol: float = 1.0e-12,
                      max_iter: int = 200) -> tuple[np.ndarray, float, PhaseValues]:
    """Damped Newton (timestepper._newton) for the stationary phase system at
    fixed u_inf; returns (chi, residual, Model.phase_values(chi)).

    Residuals are measured in the L^2(dm) density norm and driven below the
    absolute tol, or to their round-off level, which next to a singular wall
    can lie above tol.  Where the Jacobian diagonal m (f' - delta - lambda'' u_inf)
    loses positivity the inner CG can fail; solve_stationary does not call this.
    """
    lo, hi = model.chi_bounds(STATIONARY_GUARD_EPS)
    chi, _, residual, _, _, v = _newton(
        guess, lambda chi, kchi: _linearization(chi, u_inf, model, kchi), model.newton_step,
        model.masses.m_comb, lo, hi, 1.0e-12, max_iter, 0.0, tol)
    return chi, residual, v


def mass_gap(u_inf: float, chi_inf: np.ndarray, mu_target: float, model: Model,
             at: PhaseValues) -> float:
    """Mass of the candidate steady state minus the target mass; at is
    Model.phase_values(chi_inf)."""
    steady = State(0.0, np.full(chi_inf.shape, u_inf), chi_inf)
    return mass_mu(steady, model, at) - mu_target


def _point(chi: np.ndarray, u: float, mu_target: float, model: Model, kchi=None):
    """(chi, u, R, d, b, ||R||, g, ||F||) at (chi, u), with ||F|| = hypot(||R||, g).
    The PhaseValues are not kept: b = m lambda'(chi) is all a step needs of them."""
    r, d, _, v = _linearization(chi, u, model, kchi)
    norm, gap = measure_norm(r, model.masses.m_comb), mass_gap(u, chi, mu_target, model, v)
    return chi, u, r, d, model._compose(v.bulk.lamp, v.surf.lamp), norm, gap, math.hypot(norm, gap)


def _result(point, mu_target: float) -> StationaryResult:
    """The StationaryResult at point."""
    chi, u, _, _, _, norm, gap, _ = point
    return StationaryResult(
        u_inf=float(u), theta_inf=float(-1.0 / u), chi_inf=chi, phase_residual=norm,
        mass_gap=gap, mu_target=mu_target, separation=float(1.0 - np.max(np.abs(chi))))


def _box(model: Model) -> tuple[np.ndarray, np.ndarray]:
    """The guard box of x = (chi, u): chi_bounds(STATIONARY_GUARD_EPS) for chi and
    (-inf, -5e-324] for u, which is exactly u < 0."""
    lo, hi = model.chi_bounds(STATIONARY_GUARD_EPS)
    return np.append(lo, -np.inf), np.append(hi, -5.0e-324)


def _pseudo_transient(guess: np.ndarray, u: float, mu_target: float, model: Model,
                      tol: float) -> StationaryResult:
    """Pseudo-transient Newton from (guess clipped to the guard box, u).  Each
    attempt adds M/Delta to J and solves the bordered system by Keller's
    bordering: two Model.newton_step calls, (J + M/Delta) x1 = -R and
    (J + M/Delta) x2 = b, then du = (-g - b.x1) / (c + b.x2) and dchi = x1 + x2 du.
    Delta starts at PSEUDO_TIME_STEP and follows switched evolution relaxation
    (Kelley and Keyes), Delta <- Delta ||F_prev|| / ||F||.  A step whose ||F||
    grows is rejected and Delta halved; a failed CG solve, where J + M/Delta
    shows a nonpositive curvature, also caps Delta at half its value."""
    mc, total, n = model.masses.m_comb, model.masses.total, guess.size
    point = _point(np.clip(guess, *model.chi_bounds(STATIONARY_GUARD_EPS)), u, mu_target, model)
    delta, delta_max = PSEUDO_TIME_STEP, math.inf
    for _ in range(MAX_ATTEMPTS):
        chi, u, r, d, b, norm, gap, f_norm = point
        if _converged(f_norm, tol, d, chi, mc):
            return _result(point, mu_target)
        shifted = d + mc / delta
        try:
            x1 = model.newton_step(shifted, r, 1.0e-12)[0]
            x2 = model.newton_step(shifted, -b, 1.0e-12)[0]
        except SolverError:
            delta = delta_max = 0.5 * delta
            continue
        du = (-gap - b.dot(x1)) / (total / (u * u) + b.dot(x2))
        # the box per attempt: held across the loop, its two (n+1) copies raise the peak memory
        _, xt = _into_box(np.append(chi, u), np.append(x1 + x2 * du, du), *_box(model))
        trial = _point(xt[:n], xt[n], mu_target, model)
        if not trial[-1] <= f_norm:
            delta *= 0.5
            continue
        if trial[-1] > 0.0:   # an exact root stops at the next check
            delta = min(delta * f_norm / trial[-1], delta_max)
        point = trial
    raise SolverError(f"stationary Newton did not converge in {MAX_ATTEMPTS} attempts "
                      f"(residual {point[5]:.3e}, mass gap {point[6]:.3e}, target {tol:.3e})")


def bordered_newton(guess: np.ndarray, u: float, mu_target: float, model: Model,
                    tol: float) -> StationaryResult:
    """timestepper._newton on x = (chi, u) from (guess clipped to the guard box, u), with
    the residual F = (R, -g), the mass-gap row negated, in the weights (m_comb, 1), so that
    ||F|| = hypot(||R||, |g|), and the box _box(model).
    Each iteration makes one MINRES solve of the symmetric bordered system
    [[J, -b], [-b^T, -c]] (dchi, du) = -F, preconditioned by the SPD blkdiag(K + sM, c)
    at s = max(|mean(d/m)|, 1e-3)."""
    mc, total, k, n = model.masses.m_comb, model.masses.total, model.stiffness, guess.size
    point = None

    def linearize(x, kchi):
        nonlocal point
        kchi = k.apply(x[:n]) if kchi is None else kchi
        point = _point(x[:n], x[n], mu_target, model, kchi)
        return np.append(point[2], -point[6]), np.append(point[3], 0.0), kchi   # (R, -g), (d, 0)

    def solve(d, f, cg_tol):   # b and u of the point last linearized, the one _newton steps from
        d, u, b = d[:n], point[1], point[4]
        c, s = total / (u * u), max(abs(float(d.dot(model.inv_m_comb))) / n, 1.0e-3)
        e, p_inv = d - s * mc, model.shifted_inverse.solver(s)
        kz = None   # K dchi of the last check, which solve_minres makes on the step it returns
        def apply(z):
            nonlocal kz
            kz = k.apply(z[:n])
            return np.append(kz + d * z[:n] - b * z[n], -b.dot(z[:n]) - c * z[n])
        return solve_minres(
            apply, lambda w: np.append(p_inv(w[:n]), w[n] / c), -f,
            lambda v: np.append(e * v[:n] - b * v[n], -b.dot(v[:n]) - 2.0 * c * v[n]), cg_tol), kz

    _newton(np.append(guess, u), linearize, solve, np.append(mc, 1.0), *_box(model), 1.0e-12,
            MAX_ATTEMPTS, 0.0, tol)
    return _result(point, mu_target)


def solve_stationary(mu_target: float, theta0: float, guess: np.ndarray, model: Model,
                     tol: float = 1.0e-12) -> StationaryResult:
    """Find one steady state with the prescribed mass, starting from (guess, -1/theta0).

    The caller guarantees theta0 > 0 and a mass target above the admissibility
    bound, as io_cli.validate_config does for the CLI.

    Newton on (chi, u_inf) together.  The phase residual R and the mass gap g
    have the bordered Jacobian [[J, -b], [b^T, c]] with J = K + diag(d - d_lag),
    b = m lambda'(chi) and c = |Omega + Gamma| / u^2.  _pseudo_transient runs
    first.  Its CG solves need J + M/Delta positive definite on their Krylov
    space, so it fails at saddles whose unstable mode the residual excites.
    Where it raises, bordered_newton, a timestepper._newton call, starts again from the
    same point.  It reaches saddles, but from far starts it stalls where ||F|| has a non-root
    minimum.  Both halve each step into _box, the guard box and u < 0, by _into_box, and both
    stop by timestepper._converged: ||F|| = hypot(||R||, |g|) <= tol or 8 eps ||d chi||.
    """
    try:
        return _pseudo_transient(guess, -1.0 / theta0, mu_target, model, tol)
    except SolverError as err:
        first = err
    try:
        return bordered_newton(guess, -1.0 / theta0, mu_target, model, tol)
    except SolverError as err:
        raise SolverError(f"{first}; bordered Newton from the start: {err}") from None
