"""Structure-preserving implicit time stepping for the coupled system.

Each time step performs two SPD Newton solves:

  phase step   (chi implicit in the monotone part f, the concave -delta*chi
                and the temperature coupling lambda'(chi) u lagged at t_n)
  heat step    (unknown u = -1/theta; the latent coupling enters as the exact
                difference quotient (lambda(chi_new) - lambda(chi_n)) / tau)

The exact difference quotient is what makes the internal-energy mass exact
up to solver tolerance: testing the heat residual with the constant vector
telescopes the latent term, and constants are in the kernel of K.

Newton iterates are globalized by residual backtracking (factor 1/2) inside
a domain guard: u <= -guard_eps always, and for singular potentials the
phase stays a guard_eps distance from the domain endpoints.  The guard box
is convex, so once a damped step is feasible every shorter step is, too.

Model.phase_values evaluates f, f', F, lambda and lambda' once per phase iterate: one
evaluate and one latent_eval call per distinct law.  _newton carries K x by linearity, and run
carries the phase values and K u from one step to the next, so a one-iteration step with
shared laws makes 1 evaluate, 1 latent_eval and 2 K applies, the checks of its two solves.
"""

from __future__ import annotations

import ctypes
import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .errors import SolverError
from .functionals import (DiagnosticsRow, State, dissipation_increment, dm_mean, dm_std,
                          energy_identity_residual, row_functionals)
from .grid_ops import (Grid, MassVectors, ShiftedInverse, StiffnessOp, assemble_masses,
                       assemble_shifted_inverse, assemble_stiffness, solve_spd)
from .potentials import LatentHeat, Potential, evaluate, latent_eval

NEWTON_ABS_FLOOR = 1.0e-12
NEWTON_NOISE_FACTOR = 8.0
NEWTON_LINEAR_SHARE = 0.1   # an inner solve need not beat this share of the Newton target
EPS = float(np.finfo(float).eps)
MIN_BACKTRACK = 2.0 ** -60


def _keep_freed_heap() -> None:
    """Let the C allocator keep freed work vectors for reuse (glibc only).

    Every Newton solve allocates and frees a few dozen nodal vectors.  With
    glibc's default 128 KB thresholds, vectors of a 96x96 grid trim the heap
    top on free and fault it back in on the next allocation: about 22k page
    faults per 40 stripe steps, a tenth of the run.  Other C libraries are
    left as they are.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)   # M_TRIM_THRESHOLD


Laws = namedtuple("Laws", "big_f lam lamp lampp")   # F, lambda, lambda', lambda''
Shared = namedtuple("Shared", "kind delta latent")   # which surface laws equal the bulk ones


# Model.phase_values: bulk Laws at chi, surface Laws at its boundary rows chi_b, the implicit
# terms (K chi + m f(chi), m f'(chi)), the convex part, implicit in every solve, K chi and the
# model; latent, m lambda(chi), the latent part of the internal energy, is composed on first read
class PhaseValues(namedtuple("PhaseValues", "chi chi_b bulk surf implicit kchi model")):
    @cached_property
    def latent(self) -> np.ndarray:
        return self.model._compose(self.bulk.lam, self.surf.lam)


@dataclass(eq=False)
class Model:
    """Grid and the four constitutive ingredients; __post_init__ assembles the measures,
    the stiffness and the exact inverse of K + c m_comb that preconditions every Newton solve.

    grid.boundary and ms_bnd are the bulk/boundary split, read here and by the
    functionals.  phase_values and lagged_rhs compose the phase operator and the latent
    terms: each puts the bulk term on every row and the surface term on the boundary rows."""

    grid: Grid
    p_bulk: Potential
    p_surf: Potential
    l_bulk: LatentHeat
    l_surf: LatentHeat
    masses: MassVectors = field(init=False)
    stiffness: StiffnessOp = field(init=False)
    ms_bnd: np.ndarray = field(init=False, repr=False)   # m_surf on the boundary rows
    inv_m_comb: np.ndarray = field(init=False, repr=False)
    shifted_inverse: ShiftedInverse = field(init=False, repr=False)
    shared: Shared = field(init=False)
    _chi_boxes: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        self.masses, self.stiffness = assemble_masses(self.grid), assemble_stiffness(self.grid)
        _keep_freed_heap()
        self.ms_bnd = self.masses.m_surf[self.grid.boundary]
        self.inv_m_comb = 1.0 / self.masses.m_comb
        self.shifted_inverse = assemble_shifted_inverse(self.grid, self.masses)
        pb, ps = self.p_bulk, self.p_surf   # repr tells 0.0 from -0.0, which == does not
        self.shared = Shared(pb.kind == ps.kind, repr(pb.delta) == repr(ps.delta),
                             repr(self.l_bulk) == repr(self.l_surf))

    def _compose(self, bulk, surf) -> np.ndarray:
        """m_bulk bulk on every row plus m_surf surf on the boundary rows."""
        out = self.masses.m_bulk * bulk
        out[self.grid.boundary] += self.ms_bnd * surf
        return out

    def phase_values(self, chi: np.ndarray, kchi: np.ndarray | None = None) -> PhaseValues:
        """PhaseValues at chi, K chi applied unless given; a surface law equal to its bulk law
        is the bulk values read on the boundary rows, bit for bit, as numpy's ufuncs work
        entry by entry."""
        bnd, (same_kind, _, same_lat) = self.grid.boundary, self.shared
        chi_b = chi[bnd]
        (F, f, fp), lat = evaluate(self.p_bulk, chi), latent_eval(self.l_bulk, chi)
        F_s, f_s, fp_s = (F[bnd], f[bnd], fp[bnd]) if same_kind else evaluate(self.p_surf, chi_b)
        lat_s = (lat[0][bnd], lat[1][bnd], lat[2]) if same_lat else latent_eval(self.l_surf, chi_b)
        kchi = self.stiffness.apply(chi) if kchi is None else kchi
        return PhaseValues(chi, chi_b, Laws(F, *lat), Laws(F_s, *lat_s),
                           (kchi + self._compose(f, f_s), self._compose(fp, fp_s)), kchi, self)

    def lagged_rhs(self, v: PhaseValues, u) -> np.ndarray:
        """m (delta chi + lambda'(chi) u), explicit in the phase step; u nodal or scalar."""
        bulk = self.p_bulk.delta * v.chi + v.bulk.lamp * u
        if self.shared.delta and self.shared.latent:
            return self._compose(bulk, bulk[self.grid.boundary])
        u_b = u[self.grid.boundary] if np.ndim(u) else u
        return self._compose(bulk, self.p_surf.delta * v.chi_b + v.surf.lamp * u_b)

    def newton_step(self, d: np.ndarray, r: np.ndarray,
                    tol: float) -> tuple[np.ndarray, np.ndarray]:
        """Solve (K + diag(d)) x = -r by PCG, preconditioned with the exact
        inverse of P = K + c m_comb at c = mean(d / m_comb); the operator is
        P + diag(d - c m_comb), so CG carries P p and applies K only to check.
        Returns x and K x, the K part of solve_spd's last check, made on x (none at r = 0).
        At c < 0, P is indefinite and CG runs while it meets no nonpositive
        curvature; c = 0 makes P singular in its constant mode and raises SolverError."""
        k, inv, mc = self.stiffness, self.shifted_inverse, self.masses.m_comb
        c = float(d.dot(self.inv_m_comb)) / d.size
        if c == 0.0:
            raise SolverError("Newton system has no shift: mean(d / m_comb) = 0")
        kx = None   # K z of the last check, which solve_spd makes on the x it returns
        def apply(z):
            nonlocal kx
            kx = k.apply(z)
            return kx + d * z
        x = solve_spd(apply, inv.solver(c), -r, d - c * mc, tol=tol)
        return x, np.zeros(x.size) if kx is None else kx

    def chi_bounds(self, guard_eps: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-node guard box for the phase field: the bulk domain, cut to the surface one on
        the boundary rows, with each finite end moved guard_eps inwards (an infinite end
        stays infinite); built once per guard_eps and returned as read-only arrays."""
        box = self._chi_boxes.get(guard_eps)
        if box is None:
            (lo_b, hi_b), (lo_s, hi_s) = self.p_bulk.domain, self.p_surf.domain
            lo = np.full(self.grid.n_nodes, lo_b + guard_eps)
            hi = np.full(self.grid.n_nodes, hi_b - guard_eps)
            bnd = self.grid.boundary
            lo[bnd] = max(lo_b, lo_s) + guard_eps
            hi[bnd] = min(hi_b, hi_s) - guard_eps
            lo.flags.writeable = hi.flags.writeable = False
            box = self._chi_boxes[guard_eps] = (lo, hi)
        return box


def measure_norm(r: np.ndarray, m_comb: np.ndarray) -> float:
    """sqrt(sum r_i^2 / m_i): the L^2(dm) norm of the residual density."""
    return math.sqrt(r.dot(r / m_comb))


def _into_box(x: np.ndarray, step: np.ndarray, lo, hi) -> tuple[float, np.ndarray]:
    """The first alpha = 2^-j with x + alpha step in the box [lo, hi] (lo None: unbounded
    below), and that point."""
    alpha, xt = 1.0, x + step
    while not ((lo is None or (xt >= lo).all()) and (xt <= hi).all()):
        alpha *= 0.5
        if alpha < MIN_BACKTRACK:
            raise SolverError("Newton step cannot enter the domain guard box")
        xt = x + alpha * step
    return alpha, xt


def _converged(norm: float, target: float, d: np.ndarray, x: np.ndarray, weight) -> bool:
    """Newton's stop test: the residual norm is at most target or, tested second, at most its
    round-off level at x, NEWTON_NOISE_FACTOR * eps * ||d x|| in the same weights: the size of
    the diagonal terms that cancel in the residual (the m/tau mass term in a time step,
    m f'(x) next to a singular wall).  No iterate can do better than that.  A NaN norm is
    never converged."""
    return norm <= target or norm <= NEWTON_NOISE_FACTOR * EPS * measure_norm(d * x, weight)


def _newton(x0, linearize, solve, weight, lo, hi, cg_tol: float, max_iter: int,
            rel_tol: float, abs_tol: float, rho: float | None = None) -> tuple:
    """Damped Newton with a convex domain guard.

    linearize(x, kx) returns the residual, the Jacobian diagonal and K x at x from one
    evaluation of the nonlinear terms, then any values of it the caller wants back; kx is K x,
    None at the first point.  solve(d, r, tol) returns the step s from the point last
    linearized, whose diagonal is d, and K s (Model.newton_step for K + diag(d)), to the
    relative tolerance max(cg_tol, NEWTON_LINEAR_SHARE * target / norm) (Kelley's floor on
    the forcing term, below 0.1 as norm > target): a last solve need not take its residual
    below a tenth of the Newton target.  The first solve also takes NEWTON_LINEAR_SHARE * rho:
    rho (None: none), the first contraction ||F(x_1)|| / ||F(x_0)|| of the caller's last
    solve, predicts the share of the residual the first iterate leaves.  Every trial point
    x + alpha s is linearized once, with K x + alpha K s; the accepted trial's diagonal is the
    one the next step solves with.  A step is halved until it lies in the box [lo, hi] (lo
    None: unbounded below), then until the residual decreases, which a NaN residual never
    does.  Returns (x, iterations, residual norm, first contraction (None without an
    iteration), K x, *values) of the last point linearized; a point's values are dropped
    before the solve that steps away from it.

    The iteration stops by _converged on the residual norm sqrt(sum r_i^2 / weight_i) (the
    L^2(dm) norm at weight m_comb) and the target max(rel_tol * initial norm, abs_tol).
    """
    x = np.minimum(x0 if lo is None else np.maximum(x0, lo), hi)
    r, d, kx, *values = linearize(x, None)
    norm = measure_norm(r, weight)
    target = max(rel_tol * norm, abs_tol)
    iters, share, first = 0, NEWTON_LINEAR_SHARE * (rho or 0.0), None
    while not _converged(norm, target, d, x, weight):
        if iters >= max_iter:
            raise SolverError(f"Newton did not reach tolerance in {max_iter} iterations "
                              f"(residual {norm:.3e}, target {target:.3e})")
        values = step = kstep = None
        step, kstep = solve(d, r, max(cg_tol, NEWTON_LINEAR_SHARE * target / norm, share))
        alpha, xt = _into_box(x, step, lo, hi)
        rt, dt, kxt, *values = linearize(xt, kx + alpha * kstep)
        nt = measure_norm(rt, weight)
        while not nt <= (1.0 - 1.0e-4 * alpha) * norm:
            alpha *= 0.5
            if alpha < MIN_BACKTRACK:
                raise SolverError(f"Newton backtracking stalled at residual {norm:.3e}")
            xt = x + alpha * step
            rt, dt, kxt, *values = linearize(xt, kx + alpha * kstep)
            nt = measure_norm(rt, weight)
        first = nt / norm if first is None else first
        x, r, d, kx, norm = xt, rt, dt, kxt, nt
        iters, share = iters + 1, 0.0
    return (x, iters, norm, first, kx, *values)


def step_chi(s: State, tau: float, cfg: SimpleNamespace, model: Model, at: PhaseValues,
             rho: float | None = None
             ) -> tuple[np.ndarray, int, PhaseValues, np.ndarray, float | None]:
    """Convex-split backward-Euler phase step with the temperature lagged at t_n.

    Solves m_comb (chi - chi_n)/tau plus the implicit terms at chi equal to
    Model.lagged_rhs at (chi_n, u_n), that is, per node,
      m_comb (chi - chi_n)/tau + K chi + m_bulk f(chi) + m_surf f_s(chi)
        = m_bulk (delta_b chi_n + lambda_b'(chi_n) u_n)
        + m_surf (delta_s chi_n + lambda_s'(chi_n) u_n).
    at is Model.phase_values(chi_n), rho the first contraction of the step before (_newton).
    Returns chi, the iterations, its PhaseValues, G = m (lambda(chi) - lambda(chi_n)) / tau
    and the first contraction of this step.
    """
    chi_n, mc = s.chi, model.masses.m_comb
    rhs, lat = model.lagged_rhs(at, s.u), at.latent
    mc_tau = mc / tau

    def linearize(chi, kchi):
        nonlocal at   # used at the first point when that is chi_n, then dropped
        v = at if at is not None and (chi == chi_n).all() else model.phase_values(chi, kchi)
        at = None
        r, d = v.implicit
        return r + mc * (chi - chi_n) / tau - rhs, d + mc_tau, v.kchi, v

    lo, hi = model.chi_bounds(cfg.guard_eps)
    chi, iters, _, rho, _, v = _newton(chi_n, linearize, model.newton_step, mc, lo, hi,
                                       cfg.cg_tol, cfg.newton_max_iter, cfg.newton_tol,
                                       NEWTON_ABS_FLOOR, rho)
    return chi, iters, v, (v.latent - lat) / tau, rho


def step_theta(s: State, g: np.ndarray, source_vec: np.ndarray | None, tau: float,
               cfg: SimpleNamespace, model: Model, ku: np.ndarray, rho: float | None = None
               ) -> tuple[np.ndarray, int, np.ndarray, float | None]:
    """Backward-Euler heat step in the entropy variable u.

    Solves m_comb (-1/u - theta_n)/tau + K u + G - H = 0 where G = g is the
    exact latent difference quotient that step_chi returns and H the
    measure-weighted source; ku is K u_n, rho as in step_chi.  The Jacobian
    m_comb/(tau u^2) + K is SPD for any u < 0.  Returns (u, iterations, K u, contraction).
    """
    k, mc, u_n, theta_n = model.stiffness, model.masses.m_comb, s.u, s.theta
    shift = g if source_vec is None else g - source_vec

    def linearize(u, k_u):
        nonlocal ku   # used at the first point when that is u_n, then dropped
        if k_u is None:
            k_u = ku if ku is not None and (u == u_n).all() else k.apply(u)
        ku = None
        return mc * (-1.0 / u - theta_n) / tau + k_u + shift, mc / (tau * u * u), k_u

    u, iters, _, rho, k_u = _newton(u_n, linearize, model.newton_step, mc, None,
                                    -cfg.guard_eps, cfg.cg_tol, cfg.newton_max_iter,
                                    cfg.newton_tol, NEWTON_ABS_FLOOR, rho)
    return u, iters, k_u, rho


@dataclass(frozen=True, eq=False)
class HeatSource:
    """Separable source h(x, t) = profile(x) cos(omega t), applied on bulk and
    boundary alike; the profile carries zero combined-measure mean."""

    profile: np.ndarray
    omega: float
    projected_mean: float

    def value(self, t: float) -> np.ndarray:
        return self.profile * math.cos(self.omega * t)


SOURCE_KINDS = ("zero", "sinusoid")


def make_source(model: Model, kind: str, amplitude: float = 0.0, kx: int = 1,
                omega: float = 0.0) -> HeatSource | None:
    """Build a heat source; the dm-mean of the spatial profile is projected out."""
    if kind == "zero":
        return None
    g = model.grid
    profile = amplitude * np.cos(2.0 * math.pi * kx * g.x / g.lx)
    mean = dm_mean(profile, model.masses)
    return HeatSource(profile=profile - mean, omega=omega, projected_mean=abs(mean))


def run(model: Model, cfg: SimpleNamespace, state0: State, t_end: float,
        source: HeatSource | None = None, snapshot_every: int = 0,
        on_row=None, on_snapshot=None) -> tuple[list[DiagnosticsRow], State]:
    """Integrate from t = 0 to t_end, emitting one diagnostics row per step.

    Each accepted step is step_chi, then step_theta.  A SolverError halves tau
    down to cfg.min_tau, below which the run raises a SolverError naming the
    step and t; ten successes in a row double tau back towards cfg.tau, and the
    last step is cut to end at t_end.  The PhaseValues and K u of the current
    state and the first Newton contraction of each solve (_newton's rho) come
    from the step that made it; after a failed attempt the former are evaluated
    again and the latter dropped.  The energy-identity residual of every row is
    measured from row 0, the row of state0.

    Snapshots fire at step 0, every snapshot_every accepted steps, and at the
    final step (when snapshot_every > 0).  Every state emitted, the copy of state0
    included, holds read-only arrays.  Deterministic for fixed inputs.
    """
    state0.validate(model)
    s = State(state0.t, state0.u.copy(), state0.chi.copy())
    s.u.flags.writeable = s.chi.flags.writeable = False
    at, ku = model.phase_values(s.chi), model.stiffness.apply(s.u)
    rho_chi = rho_theta = None   # the first Newton contractions of the last accepted step
    dissipation_cum = source_cum = 0.0
    tau_cur, successes, step, eps_t = cfg.tau, 0, 0, 1.0e-9 * cfg.tau
    rows = []

    def emit(iters_chi: int, iters_theta: int) -> None:   # the row of s at step
        mu, e, ent = row_functionals(s, model, at)
        row = DiagnosticsRow(
            step=step, t=s.t, mu=mu, energy=e, entropy=ent,
            dissipation_cum=dissipation_cum, source_cum=source_cum,
            energy_id_residual=0.0,
            # theta = -1/u is increasing in u, and so is its rounding
            theta_min=-1.0 / float(s.u.min()), theta_max=-1.0 / float(s.u.max()),
            chi_min=float(s.chi.min()), chi_max=float(s.chi.max()),
            u_spatial_std=dm_std(s.u, model.masses),
            newton_iters_chi=iters_chi, newton_iters_theta=iters_theta,
        )
        row.energy_id_residual = energy_identity_residual((rows[0] if rows else row, row))
        rows.append(row)
        if on_row:
            on_row(row)
        if snapshot_every > 0 and on_snapshot and (
                step % snapshot_every == 0 or s.t >= t_end - eps_t):
            on_snapshot(step, s)

    emit(0, 0)
    while s.t < t_end - eps_t:
        step += 1
        tau = min(tau_cur, t_end - s.t)
        while True:
            try:   # the carried values are handed on, not kept: the step frees them after use
                chi, iters_chi, at, g, rho_chi = step_chi(s, tau, cfg, model,
                                                          (at, at := None)[0], rho_chi)
                source_vec = None if source is None else \
                    model.masses.m_comb * source.value(s.t + tau)
                u, iters_theta, ku, rho_theta = step_theta(s, g, source_vec, tau, cfg, model,
                                                           (ku, ku := None)[0], rho_theta)
                break
            except SolverError as exc:
                successes = 0
                if 0.5 * tau < cfg.min_tau:
                    raise SolverError(f"step {step} failed at the minimum step size "
                                      f"(t = {s.t:.6g}): {exc}") from exc
                tau *= 0.5
                tau_cur = min(tau_cur, tau)
                at, ku = model.phase_values(s.chi), model.stiffness.apply(s.u)
                rho_chi = rho_theta = None
        successes += 1
        if successes >= 10 and tau_cur < cfg.tau:
            tau_cur, successes = min(2.0 * tau_cur, cfg.tau), 0
        u.flags.writeable = chi.flags.writeable = False
        dissipation_cum += dissipation_increment(u, s.chi, chi, tau, model)
        if source_vec is not None:
            source_cum += tau * float(source_vec.dot(u))
        s = State(s.t + tau, u, chi)
        emit(iters_chi, iters_theta)
    return rows, s


PRESET_KINDS = ("constant", "sinusoid", "tanh_stripe", "random")
RANDOM_MODES = 3   # highest x and y mode number of the "random" preset


def preset_field(grid: Grid, kind: str, *, value: float = 0.0, amplitude: float = 0.0,
                 kx: int = 1, width: float = 0.1, seed: int = 0) -> np.ndarray:
    """Initial-data presets: constant, x-sinusoid, y-tanh stripe, seeded smooth noise."""
    if kind == "constant":
        return np.full(grid.n_nodes, value)
    if kind == "sinusoid":
        return value + amplitude * np.cos(2.0 * math.pi * kx * grid.x / grid.lx)
    if kind == "tanh_stripe":
        return value + amplitude * np.tanh((grid.y - 0.5 * grid.ly) / width)
    if kind == "random":
        rng = np.random.default_rng(seed)
        fld = np.zeros((grid.ny + 1, grid.nx))   # modes are x factor (columns) * y factor (rows)
        for mx in range(RANDOM_MODES + 1):
            for my in range(RANDOM_MODES + 1):
                if mx == 0 and my == 0:
                    continue
                wgt = 1.0 / (1.0 + mx * mx + my * my)
                cx, sx = rng.standard_normal(2)
                phase_x = 2.0 * math.pi * mx * grid.x[:grid.nx] / grid.lx
                fld += wgt * (cx * np.cos(phase_x) + sx * np.sin(phase_x)) \
                    * np.cos(math.pi * my * grid.y[::grid.nx, None] / grid.ly)
        peak = float(np.max(np.abs(fld)))
        if peak > 0.0:
            fld *= amplitude / peak
        return value + fld.ravel()
