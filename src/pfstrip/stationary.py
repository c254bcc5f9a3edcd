"""Steady-state solver.

A steady state has a constant positive temperature theta_inf = -1/u_inf and
a phase field chi_inf solving the semilinear elliptic system

    K chi + m_bulk (f(chi) - delta chi - lambda_b'(chi) u_inf)
          + m_surf (f_s(chi) - delta chi - lambda_s'(chi) u_inf) = 0,

subject to the mass constraint that theta_inf + lambda(chi_inf) integrates
to the prescribed mass.  solve_stationary finds chi_inf and u_inf together,
by pseudo-transient Newton on the phase residual bordered by the mass gap.
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
    chi, _, residual, v = _newton(guess, lambda chi: _linearization(chi, u_inf, model), model,
                                  lo, hi, 1.0e-12, max_iter, 0.0, tol)
    return chi, residual, v


def mass_gap(u_inf: float, chi_inf: np.ndarray, mu_target: float, model: Model,
             at: PhaseValues) -> float:
    """Mass of the candidate steady state minus the target mass; at is
    Model.phase_values(chi_inf)."""
    steady = State(0.0, np.full(chi_inf.shape, u_inf), chi_inf)
    return mass_mu(steady, model, at) - mu_target


def solve_stationary(mu_target: float, theta0: float, guess: np.ndarray, model: Model,
                     tol: float = 1.0e-12) -> StationaryResult:
    """Find one steady state with the prescribed mass, starting from (guess, -1/theta0).

    The caller guarantees theta0 > 0 and a mass target above the admissibility
    bound, as io_cli.validate_config does for the CLI.

    Pseudo-transient Newton on (chi, u_inf) together.  The phase residual R and
    the mass gap g have the bordered Jacobian [[J, -b], [b^T, c]] with
    J = K + diag(d - d_lag), b = m lambda'(chi) and c = |Omega + Gamma| / u^2.
    Each iteration adds M/Delta to J and solves by Keller's bordering: two
    Model.newton_step calls, (J + M/Delta) x1 = -R and (J + M/Delta) x2 = b, then
    du = (-g - b.x1) / (c + b.x2) and dchi = x1 + x2 du.  J + M/Delta may have a
    negative mean diagonal: full Newton steps reach a saddle whose Jacobian is
    indefinite only in modes the residual does not excite, as at the odd,
    x-independent states of a stripe; where it does excite them, CG finds a
    nonpositive curvature and raises.  The step is halved into the guard box
    and into u < 0.  Delta starts at PSEUDO_TIME_STEP and follows switched
    evolution relaxation (Kelley and Keyes), Delta <- Delta ||F_prev|| / ||F||
    with ||F|| = hypot(||R||, |g|).  A step whose ||F|| grows
    is rejected and Delta halved; a failed CG solve also caps Delta at half its
    value.  Stops as timestepper._newton does, at ||R|| <= tol or at its
    round-off level 8 eps ||d chi||, once |g| <= tol too.
    """
    mc, total = model.masses.m_comb, model.masses.total
    lo, hi = model.chi_bounds(STATIONARY_GUARD_EPS)

    def point_at(chi, u):   # the PhaseValues are not kept: b is all the step needs of them
        r, d, v = _linearization(chi, u, model)
        norm, gap = measure_norm(r, mc), mass_gap(u, chi, mu_target, model, v)
        b = model._compose(v.bulk.lamp, v.surf.lamp)
        return chi, u, r, d, b, norm, gap, math.hypot(norm, gap)

    chi, u, r, d, b, norm, gap, f_norm = point_at(np.clip(guess, lo, hi), -1.0 / theta0)
    delta, delta_max = PSEUDO_TIME_STEP, math.inf
    for _ in range(MAX_ATTEMPTS):
        if abs(gap) <= tol and (norm <= tol or norm <= NEWTON_NOISE_FACTOR * EPS
                                * measure_norm(d * chi, mc)):
            return StationaryResult(
                u_inf=float(u), theta_inf=float(-1.0 / u), chi_inf=chi, phase_residual=norm,
                mass_gap=gap, mu_target=mu_target,
                separation=float(1.0 - np.max(np.abs(chi))))
        shifted = d + mc / delta
        try:
            x1 = model.newton_step(shifted, r, 1.0e-12)
            x2 = model.newton_step(shifted, -b, 1.0e-12)
        except SolverError:
            delta = delta_max = 0.5 * delta
            continue
        du = (-gap - b @ x1) / (total / (u * u) + b @ x2)
        dchi = x1 + x2 * du
        alpha, chi_t = 1.0, chi + dchi
        while not ((chi_t >= lo).all() and (chi_t <= hi).all() and u + alpha * du < 0.0):
            alpha *= 0.5
            if alpha < MIN_BACKTRACK:
                raise SolverError("stationary step cannot enter the domain guard box")
            chi_t = chi + alpha * dchi
        trial = point_at(chi_t, u + alpha * du)
        if not trial[-1] <= f_norm:
            delta *= 0.5
            continue
        if trial[-1] > 0.0:   # an exact root stops at the next check
            delta = min(delta * f_norm / trial[-1], delta_max)
        chi, u, r, d, b, norm, gap, f_norm = trial
    raise SolverError(f"stationary Newton did not converge in {MAX_ATTEMPTS} attempts "
                      f"(residual {norm:.3e}, mass gap {gap:.3e}, target {tol:.3e})")
