"""Shared builders and checks for the test suite."""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from pfstrip.functionals import State, dm_mean, dm_std, mass_mu
from pfstrip.grid_ops import build_grid
from pfstrip.io_cli import _SCHEMA, MIN_DT_FRACTION
from pfstrip.potentials import LatentHeat, Potential
from pfstrip.timestepper import Model, measure_norm


def make_model(lx=1.0, ly=1.0, nx=8, ny=4, p_bulk=None, p_surf=None,
               l_bulk=None, l_surf=None):
    p_bulk = p_bulk if p_bulk is not None else Potential("logarithmic", 1.0)
    p_surf = p_surf if p_surf is not None else p_bulk
    l_bulk = l_bulk if l_bulk is not None else LatentHeat(0.0, 0.0, 0.0)
    l_surf = l_surf if l_surf is not None else l_bulk
    return Model(grid=build_grid(lx, ly, nx, ny), p_bulk=p_bulk, p_surf=p_surf,
                 l_bulk=l_bulk, l_surf=l_surf)


_SOLVER_DEFAULTS = {name.partition(".")[2]: default for name, _, default, _, _ in _SCHEMA
                    if name.startswith("solver.")}


def stepper(tau, **keys):
    """The settings build_stepper_config makes of a config with time.dt = tau, the
    default step floor and the solver defaults; keys override any of them."""
    return SimpleNamespace(**{"tau": tau, "min_tau": tau * MIN_DT_FRACTION,
                              **_SOLVER_DEFAULTS, **keys})


def constant_state(model, theta, chi):
    n = model.grid.n_nodes
    return State(0.0, np.full(n, -1.0 / theta), np.full(n, chi))


def roll_x(grid, z, shift):
    """Periodic shift of a flat field by whole columns."""
    return np.roll(np.asarray(z).reshape(grid.ny + 1, grid.nx), shift, axis=1).ravel()


@dataclass(frozen=True)
class OmegaLimitReport:
    """Residual-based omega-limit membership check of a long-run final state."""

    u_spatial_std: float
    phase_residual: float
    mu_gap: float
    converged: bool


def omega_limit_report(final: State, mu_target: float, model: Model,
                       std_tol: float = 1.0e-6, residual_tol: float = 1.0e-6,
                       mu_tol: float = 1.0e-8) -> OmegaLimitReport:
    """Check how close a trajectory endpoint is to solving the stationary system:
    the spatial spread of u, the stationary phase residual at the mean u and the
    gap to the target mass, not the distance to any particular steady state."""
    v = model.phase_values(final.chi)
    r = v.implicit[0] - model.lagged_rhs(v, dm_mean(final.u, model.masses))
    residual = measure_norm(r, model.masses.m_comb)
    u_std = dm_std(final.u, model.masses)
    mu_gap_val = abs(mass_mu(final, model) - mu_target)
    return OmegaLimitReport(
        u_spatial_std=u_std, phase_residual=residual, mu_gap=mu_gap_val,
        converged=(u_std <= std_tol and residual <= residual_tol and mu_gap_val <= mu_tol),
    )
