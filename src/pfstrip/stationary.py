"""Steady-state solver.

A steady state has a constant positive temperature theta_inf = -1/u_inf and
a phase field chi_inf solving the semilinear elliptic system

    K chi + m_bulk (f(chi) - delta chi - lambda_b'(chi) u_inf)
          + m_surf (f_s(chi) - delta chi - lambda_s'(chi) u_inf) = 0,

subject to the mass constraint that theta_inf + lambda(chi_inf) integrates
to the prescribed mass.  solve_stationary finds chi_inf and u_inf together,
by pseudo-transient Newton on the phase residual bordered by the mass gap and,
where that fails, by plain bordered Newton.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .functionals import State, mass_mu
from .timestepper import (EPS, MIN_BACKTRACK, NEWTON_NOISE_FACTOR, Model, PhaseValues, _newton,
                          measure_norm)

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


def _linearization(chi: np.ndarray, u_inf: float, model: Model):
    """Stationary phase residual, its unclamped Jacobian diagonal and the PhaseValues at chi."""
    v = model.phase_values(chi)
    (r, d), pb, ps = v.implicit, model.p_bulk, model.p_surf
    d_lag = model._compose(pb.delta + v.bulk.lampp * u_inf, ps.delta + v.surf.lampp * u_inf)
    return r - model.lagged_rhs(v, u_inf), d - d_lag, v


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
    chi, _, residual, v = _newton(guess, lambda chi: _linearization(chi, u_inf, model),
                                  model.newton_step, model.masses.m_comb, lo, hi, 1.0e-12,
                                  max_iter, 0.0, tol)
    return chi, residual, v


def mass_gap(u_inf: float, chi_inf: np.ndarray, mu_target: float, model: Model,
             at: PhaseValues) -> float:
    """Mass of the candidate steady state minus the target mass; at is
    Model.phase_values(chi_inf)."""
    steady = State(0.0, np.full(chi_inf.shape, u_inf), chi_inf)
    return mass_mu(steady, model, at) - mu_target


def _point(chi: np.ndarray, u: float, mu_target: float, model: Model):
    """(chi, u, R, d, b, ||R||, g, ||F||) at (chi, u), with ||F|| = hypot(||R||, g).
    The PhaseValues are not kept: b = m lambda'(chi) is all a step needs of them."""
    r, d, v = _linearization(chi, u, model)
    norm, gap = measure_norm(r, model.masses.m_comb), mass_gap(u, chi, mu_target, model, v)
    return chi, u, r, d, model._compose(v.bulk.lamp, v.surf.lamp), norm, gap, math.hypot(norm, gap)


def _result(point, mu_target: float, model: Model, tol: float) -> StationaryResult | None:
    """The StationaryResult at point if |g| <= tol, and ||R|| <= tol or ||R|| <= 8 eps ||d chi||,
    its round-off floor; else None.  Not _newton's rule, which bounds hypot(||R||, |g|)."""
    chi, u, _, d, _, norm, gap, _ = point
    if abs(gap) <= tol and (norm <= tol or norm <= NEWTON_NOISE_FACTOR * EPS
                            * measure_norm(d * chi, model.masses.m_comb)):
        return StationaryResult(
            u_inf=float(u), theta_inf=float(-1.0 / u), chi_inf=chi, phase_residual=norm,
            mass_gap=gap, mu_target=mu_target, separation=float(1.0 - np.max(np.abs(chi))))
    return None


def _into_box(chi: np.ndarray, u: float, dchi: np.ndarray, du: float, lo: np.ndarray,
              hi: np.ndarray) -> tuple[float, np.ndarray]:
    """The first alpha = 2^-j with chi + alpha dchi in [lo, hi] and u + alpha du < 0,
    and that chi."""
    alpha, chi_t = 1.0, chi + dchi
    while not ((chi_t >= lo).all() and (chi_t <= hi).all() and u + alpha * du < 0.0):
        alpha *= 0.5
        if alpha < MIN_BACKTRACK:
            raise SolverError("stationary step cannot enter the domain guard box")
        chi_t = chi + alpha * dchi
    return alpha, chi_t


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
    mc, total = model.masses.m_comb, model.masses.total
    lo, hi = model.chi_bounds(STATIONARY_GUARD_EPS)
    point = _point(np.clip(guess, lo, hi), u, mu_target, model)
    delta, delta_max = PSEUDO_TIME_STEP, math.inf
    for _ in range(MAX_ATTEMPTS):
        result = _result(point, mu_target, model, tol)
        if result is not None:
            return result
        chi, u, r, d, b, norm, gap, f_norm = point
        shifted = d + mc / delta
        try:
            x1 = model.newton_step(shifted, r, 1.0e-12)
            x2 = model.newton_step(shifted, -b, 1.0e-12)
        except SolverError:
            delta = delta_max = 0.5 * delta
            continue
        du = (-gap - b.dot(x1)) / (total / (u * u) + b.dot(x2))
        dchi = x1 + x2 * du
        alpha, chi_t = _into_box(chi, u, dchi, du, lo, hi)
        trial = _point(chi_t, u + alpha * du, mu_target, model)
        if not trial[-1] <= f_norm:
            delta *= 0.5
            continue
        if trial[-1] > 0.0:   # an exact root stops at the next check
            delta = min(delta * f_norm / trial[-1], delta_max)
        point = trial
    raise SolverError(f"stationary Newton did not converge in {MAX_ATTEMPTS} attempts "
                      f"(residual {point[5]:.3e}, mass gap {point[6]:.3e}, target {tol:.3e})")


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
    Where it raises, bordered_newton.bordered_newton, a timestepper._newton call, starts
    again from the same point.  It reaches saddles, but from far starts it stalls where ||F||
    has a non-root minimum.  Both halve each step into the guard box and into u < 0.  The
    first stops at ||R|| <= tol or its round-off level 8 eps ||d chi||, once |g| <= tol; the
    second at ||F|| = hypot(||R||, |g|) <= tol, slightly stricter, or ||F|| <= 8 eps ||d chi||.
    """
    try:
        return _pseudo_transient(guess, -1.0 / theta0, mu_target, model, tol)
    except SolverError as err:
        first = err
    try:   # imported here, since bordered_newton imports this module
        from .bordered_newton import bordered_newton
        return bordered_newton(guess, -1.0 / theta0, mu_target, model, tol)
    except SolverError as err:
        raise SolverError(f"{first}; bordered Newton from the start: {err}") from None
