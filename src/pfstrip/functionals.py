"""Nodal state container and the scalar functionals of the coupled system.

All functionals integrate against the combined measure: bulk quadrature
weights over the strip plus surface weights on the two boundary circles.
Every function that reads more than the masses takes the timestepper.Model,
whose grid.boundary and ms_bnd are the bulk/boundary split.
The three core quantities are linked by the exact algebraic identity

    energy = mass - entropy

which holds per node before summation, and which is how the energy is
computed from the mass and entropy sums:
theta - ln(theta) + lambda + F - delta chi^2/2  =
(theta + lambda) - (ln(theta) + delta chi^2/2 - F),
with the gradient term entering the energy with +1/2 and the entropy
with -1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError
from .grid_ops import MassVectors

if TYPE_CHECKING:   # timestepper imports this module
    from .timestepper import Model


@dataclass
class State:
    """Fields at one time level: entropy variable u = -1/theta (u < 0) and phase chi.

    Boundary rows of both arrays are the surface unknowns; the temperature
    trace and the surface temperature coincide in this regular discrete
    setting, so no duplicated boundary field exists.
    """

    t: float
    u: np.ndarray
    chi: np.ndarray

    @cached_property
    def theta(self) -> np.ndarray:
        """-1/u, formed once per state: the row, the next heat step and a snapshot share it,
        so it is read-only."""
        theta = -1.0 / self.u
        theta.flags.writeable = False
        return theta

    def validate(self, model: Model) -> None:
        """Raise DomainError unless everything is finite, u < 0, chi lies in the
        bulk potential domain and, on the boundary rows, in the surface one."""
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.chi))):
            raise DomainError("state contains non-finite entries")
        if not np.all(self.u < 0.0):
            raise DomainError("entropy variable must satisfy u < 0 (theta > 0)")
        if not model.p_bulk.contains(self.chi):
            raise DomainError("phase field leaves the bulk potential domain")
        if not model.p_surf.contains(self.chi[model.grid.boundary]):
            raise DomainError("boundary phase field leaves the surface potential domain")


@dataclass
class DiagnosticsRow:
    """Per-step scalars written as one diagnostics CSV row."""

    step: int
    t: float
    mu: float
    energy: float
    entropy: float
    dissipation_cum: float
    source_cum: float
    energy_id_residual: float
    theta_min: float
    theta_max: float
    chi_min: float
    chi_max: float
    u_spatial_std: float
    newton_iters_chi: int
    newton_iters_theta: int


def dm_mean(v: np.ndarray, m: MassVectors) -> float:
    """Mean of a nodal field with respect to the combined measure."""
    return float(m.m_comb @ v) / m.total


def dm_std(v: np.ndarray, m: MassVectors) -> float:
    """Standard deviation of a nodal field with respect to the combined measure."""
    d = v - dm_mean(v, m)
    return math.sqrt(float(m.m_comb @ (d * d)) / m.total)


def _integral(model: Model, bulk: np.ndarray, surf) -> float:
    """Integral of a nodal density: bulk against m_bulk on every row plus surf against m_surf
    on the boundary rows; surf None (shared laws) reads bulk there, bit for bit the same."""
    surf = bulk[model.grid.boundary] if surf is None else surf
    return sum((float(model.masses.m_bulk @ bulk), float(model.ms_bnd @ surf)))


def _mass_sum(theta: np.ndarray, model: Model, at) -> float:
    """Integral of theta + lambda(chi), lambda read from at."""
    return _integral(model, theta + at.bulk.lam, None if model.shared.latent else
                     theta[model.grid.boundary] + at.surf.lam)


def mass_mu(s: State, model: Model, at=None) -> float:
    """Internal-energy mass: integral of theta + lambda(chi), bulk plus surface,
    with lambda read from at = Model.phase_values(s.chi) (computed if not given)."""
    return _mass_sum(s.theta, model, model.phase_values(s.chi) if at is None else at)


def row_functionals(s: State, model: Model, at=None) -> tuple[float, float, float]:
    """(mass, energy, entropy) from theta, ln theta, F and lambda in at (computed
    if not given) and one gradient term chi^T K chi / 2; energy = mass - entropy."""
    if not s.u.max() < 0.0:
        raise DomainError("energy and entropy require u < 0")
    at = model.phase_values(s.chi) if at is None else at
    theta, chi, chi_b, shared = s.theta, s.chi, at.chi_b, model.shared
    mu = _mass_sum(theta, model, at)
    ent = np.log(theta) + (0.5 * model.p_bulk.delta * chi * chi - at.bulk.big_f)
    ent_s = None if shared.kind and shared.delta else np.log(theta[model.grid.boundary]) \
        + (0.5 * model.p_surf.delta * chi_b * chi_b - at.surf.big_f)
    s_nodal = _integral(model, ent, ent_s)
    half_grad = 0.5 * model.stiffness.quad(s.chi)
    return mu, mu - s_nodal + half_grad, s_nodal - half_grad


def energy(s: State, model: Model) -> float:
    """Integral of theta - ln theta + lambda(chi) + F(chi) - delta chi^2/2, plus
    the combined gradient term chi^T K chi / 2."""
    return row_functionals(s, model)[1]


def entropy(s: State, model: Model) -> float:
    """Integral of ln theta + s0(chi) minus the gradient term, with
    s0(r) = delta r^2/2 - F(r) normalized by s0(0) = 0; the latent heats do
    not enter it."""
    return row_functionals(s, model)[2]


def dissipation_increment(u_new: np.ndarray, chi_old: np.ndarray, chi_new: np.ndarray,
                          tau: float, model: Model) -> float:
    """One step of the entropy production integral: tau (u^T K u + ||chi_t||^2).

    Both terms are sums of nonnegative products, so the increment is >= 0
    exactly in floating point.
    """
    r = (chi_new - chi_old) / tau
    return tau * (model.stiffness.quad(u_new) + float(model.masses.m_comb @ (r * r)))


def energy_identity_residual(rows) -> float:
    """Defect of the discrete energy identity over a diagnostics trajectory:
    energy(T) + dissipation_cum(T) - energy(0) - source_cum(T)."""
    first, last = rows[0], rows[-1]
    return last.energy + last.dissipation_cum - first.energy - last.source_cum
