"""Steady-state solver and omega-limit verification.

A steady state has a constant positive temperature theta_inf = -1/u_inf and
a phase field chi_inf solving the semilinear elliptic system

    K chi + m_bulk (f(chi) - delta chi - lambda_b'(chi) u_inf)
          + m_surf (f_s(chi) - delta chi - lambda_s'(chi) u_inf) = 0,

subject to the mass constraint that theta_inf + lambda(chi_inf) integrates
to the prescribed mass.  The scalar unknown u_inf is found by bracketing
Anderson-Bjorck regula falsi on the mass gap (the gap need not be monotone
when lambda' != 0), with the inner phase solve warm-started along the path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, BracketError, SolverError
from .functionals import State, dm_mean, dm_std, mass_mu
from .potentials import latent_range, separating_slope_margin
from .timestepper import Model, PhaseValues, _newton, measure_norm

STATIONARY_GUARD_EPS = 1.0e-12
BRACKET_EXPANSIONS = 10
REGULA_FALSI_STEPS = 200


@dataclass(frozen=True)
class HypothesisReport:
    """Numerical evaluation of the mass admissibility and separation hypotheses.

    mass_lower_bound / mass_upper_bound are the integrals of the latent
    extrema over bulk and boundary; a mass target above the lower bound
    admits a constant positive temperature, and one above the upper bound
    keeps the steady temperature above a uniform positive level regardless
    of the phase.  slope_margin > 0 is the alternative route to the same
    conclusion through the sign of lambda' at the pure states.
    """

    mass_admissible: bool
    mass_lower_bound: float
    mass_dominates: bool
    mass_upper_bound: float
    slope_separates: bool
    slope_margin: float


@dataclass
class StationaryResult:
    u_inf: float
    theta_inf: float
    chi_inf: np.ndarray
    phase_residual: float
    mass_gap: float
    mu_target: float
    separation: float
    hypothesis_report: HypothesisReport


def hypothesis_report(model: Model, mu_target: float) -> HypothesisReport:
    """Both latent bounds |Omega| ext(lambda_b) + |Gamma| ext(lambda_s) over the
    pure-state interval [-1, 1], and the smaller of the two slope margins."""
    g = model.grid
    area, perimeter = g.lx * g.ly, 2.0 * g.lx
    (lo_b, hi_b), (lo_s, hi_s) = latent_range(model.l_bulk), latent_range(model.l_surf)
    min_bound = area * lo_b + perimeter * lo_s
    max_bound = area * hi_b + perimeter * hi_s
    margin = min(separating_slope_margin(model.l_bulk),
                 separating_slope_margin(model.l_surf))
    return HypothesisReport(
        mass_admissible=mu_target > min_bound, mass_lower_bound=min_bound,
        mass_dominates=mu_target > max_bound, mass_upper_bound=max_bound,
        slope_separates=margin > 0.0, slope_margin=margin,
    )


def stationary_phase_residual(chi: np.ndarray, u_inf: float, model: Model) -> np.ndarray:
    """Residual vector of the stationary phase system at (chi, u_inf)."""
    at = model.phase_values(chi)
    return at.implicit[0] - model.lagged_terms(at, u_inf)[0]


def solve_chi_given_u(u_inf: float, guess: np.ndarray, model: Model, tol: float = 1.0e-12,
                      max_iter: int = 200) -> tuple[np.ndarray, float, PhaseValues]:
    """Damped Newton (timestepper._newton) for the stationary phase system at
    fixed u_inf; returns (chi, residual, Model.phase_values(chi)).

    The true Jacobian diagonal m (f' - delta - lambda'' u_inf) can lose
    positivity; it is clamped from below at a small multiple of the combined
    measure so every inner system stays SPD, trading quadratic convergence
    for robustness only where the clamp is active.  Residuals are measured in
    the L^2(dm) density norm and driven below the absolute tol, or to their
    round-off level, which next to a singular wall can lie above tol.
    """
    floor = 1.0e-10 * model.masses.m_comb

    def linearize(chi):
        v = model.phase_values(chi)
        (r, d), (r_lag, d_lag) = v.implicit, model.lagged_terms(v, u_inf)
        return r - r_lag, np.maximum(d - d_lag, floor), v

    lo, hi = model.chi_bounds(STATIONARY_GUARD_EPS)
    chi, _, residual, v = _newton(guess, linearize, model, lo, hi, 1.0e-12, max_iter, 0.0, tol)
    return chi, residual, v


def mass_gap(u_inf: float, chi_inf: np.ndarray, mu_target: float, model: Model, at=None) -> float:
    """Mass of the candidate steady state minus the target mass; at is
    Model.phase_values(chi_inf), computed if not given."""
    steady = State(0.0, np.full(chi_inf.shape, u_inf), chi_inf)
    return mass_mu(steady, model, at) - mu_target


def solve_stationary(mu_target: float, theta_bracket: tuple[float, float],
                     guess: np.ndarray, model: Model, tol: float = 1.0e-12) -> StationaryResult:
    """Find one steady state with the prescribed mass.

    Outer regula falsi (_regula_falsi) on g(u) = mass_gap(u, chi(u)) over
    u = -1/theta, after up to 10 symmetric bracket expansions (halving theta_lo,
    doubling theta_hi) to find a sign change; the inner phase solve starts from
    guess and is warm-started from the previous chi along the path.  Every
    evaluation point is a candidate result; the first that meets tol wins.
    """
    hyp = hypothesis_report(model, mu_target)
    if not hyp.mass_admissible:
        raise AdmissibilityError(
            f"mass target {mu_target:.6g} is not above the admissibility bound "
            f"{hyp.mass_lower_bound:.6g}")
    lo_t, hi_t = theta_bracket
    if not (0.0 < lo_t < hi_t):
        raise AdmissibilityError("theta bracket must satisfy 0 < lo < hi")
    warm = np.asarray(guess, dtype=float).copy()

    def point_at(u) -> StationaryResult:
        nonlocal warm
        warm, residual, at = solve_chi_given_u(u, warm, model, tol)
        return StationaryResult(
            u_inf=float(u), theta_inf=float(-1.0 / u), chi_inf=warm,
            phase_residual=residual, mass_gap=mass_gap(u, warm, mu_target, model, at),
            mu_target=mu_target, separation=float(1.0 - np.max(np.abs(warm))),
            hypothesis_report=hyp)

    for expansion in range(BRACKET_EXPANSIONS + 1):
        if expansion:
            lo_t, hi_t = 0.5 * lo_t, 2.0 * hi_t
        lo, hi = point_at(-1.0 / lo_t), point_at(-1.0 / hi_t)
        for end in (lo, hi):
            if end.mass_gap == 0.0:
                return end
        if lo.mass_gap * hi.mass_gap < 0.0:
            break
    else:
        raise BracketError(
            f"no sign change of the mass gap for theta in ({lo_t:.3g}, {hi_t:.3g}) "
            f"after {BRACKET_EXPANSIONS} expansions")

    return _regula_falsi(point_at, lo, hi, tol)


def _regula_falsi(point_at, a, b, tol: float):
    """Anderson-Bjorck regula falsi on point_at(u).mass_gap over the sign-changing
    pair (a, b) of points; the first point with |gap| <= tol wins."""
    ga, gb = a.mass_gap, b.mass_gap
    for _ in range(REGULA_FALSI_STEPS):
        if abs(b.u_inf - a.u_inf) <= 4.0 * np.finfo(float).eps * abs(b.u_inf):
            break
        u = b.u_inf - gb * (b.u_inf - a.u_inf) / (gb - ga)
        if not min(a.u_inf, b.u_inf) < u < max(a.u_inf, b.u_inf):
            u = 0.5 * (a.u_inf + b.u_inf)
        new = point_at(u)
        if abs(new.mass_gap) <= tol:
            return new
        if new.mass_gap * gb < 0.0:
            a, ga = b, gb
        else:
            k = 1.0 - new.mass_gap / gb
            ga *= k if k > 0.0 else 0.5
        b, gb = new, new.mass_gap
    raise SolverError(f"mass gap {gb:.3e} above tolerance at u = {b.u_inf:.17g}")


@dataclass(frozen=True)
class OmegaLimitReport:
    """Residual-based omega-limit membership check of a long-run final state."""

    u_spatial_std: float
    phase_residual: float
    mu_gap: float
    chi_distance: float
    u_mean_distance: float
    converged: bool


def omega_limit_report(final: State, result: StationaryResult, model: Model,
                       std_tol: float = 1.0e-6, residual_tol: float = 1.0e-6,
                       mu_tol: float = 1.0e-8) -> OmegaLimitReport:
    """Check how close a trajectory endpoint is to solving the stationary system.

    Membership is decided by residuals (spatial spread of u, stationary phase
    residual at the mean u, mass gap), not by distance to the particular
    root in `result`; the distances are reported for information only.
    """
    u_mean = dm_mean(final.u, model.masses)
    residual = measure_norm(
        stationary_phase_residual(final.chi, u_mean, model), model.masses.m_comb)
    u_std = dm_std(final.u, model.masses)
    mu_gap_val = abs(mass_mu(final, model) - result.mu_target)
    return OmegaLimitReport(
        u_spatial_std=u_std,
        phase_residual=residual,
        mu_gap=mu_gap_val,
        chi_distance=float(np.max(np.abs(final.chi - result.chi_inf))),
        u_mean_distance=abs(u_mean - result.u_inf),
        converged=(u_std <= std_tol and residual <= residual_tol and mu_gap_val <= mu_tol),
    )
