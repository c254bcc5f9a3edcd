"""Acceptance suite: one test per criterion, one printed verdict line each.

Run `pytest tests/test_acceptance.py -s` to see the verdict lines as they
land; without -s pytest shows them only for failures.  The long shared runs
are module-scoped fixtures, so the whole file costs three stripe relaxations
(64x64 at two step sizes, 96x96 once) plus the smaller dedicated runs.
"""

import os
import textwrap
import time
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import constant_state, make_model, omega_limit_report, stepper
from pfstrip.functionals import State, dm_mean
from pfstrip.grid_ops import assemble_masses, assemble_stiffness, build_grid
from pfstrip.io_cli import cli_main
from pfstrip.potentials import (LatentHeat, Potential, integrate_homogeneous,
                                separating_slope_margin)
from pfstrip.stationary import solve_stationary
from pfstrip.timestepper import preset_field, run


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def stripe_run(nx, ny, tau):
    """Stripe relaxation shared by the conservation/identity/separation checks."""
    model = make_model(1.0, 1.0, nx, ny, p_bulk=Potential("logarithmic", 1.0),
                       l_bulk=LatentHeat(1.0, 0.0, 0.0))
    g = model.grid
    chi0 = preset_field(g, "tanh_stripe", value=0.0, amplitude=0.3, kx=1,
                        width=0.2, seed=0)
    s0 = State(0.0, np.full(g.n_nodes, -1.0), chi0)
    cfg = stepper(tau)
    t0 = time.perf_counter()
    rows, final = run(model, cfg, s0, 1.0)
    wall = time.perf_counter() - t0
    return SimpleNamespace(rows=rows, final=final, model=model, wall=wall)


@pytest.fixture(scope="module")
def run_base():
    return stripe_run(64, 64, 1.0e-3)


@pytest.fixture(scope="module")
def run_half_tau():
    return stripe_run(64, 64, 5.0e-4)


@pytest.fixture(scope="module")
def run_fine_grid():
    return stripe_run(96, 96, 1.0e-3)


def test_criterion_1_mass_conservation(run_base):
    rows = run_base.rows
    mu0 = rows[0].mu
    drift = abs(rows[-1].mu - mu0)
    tol = 1.0e-8 * (1.0 + abs(mu0))
    ok = drift <= tol and len(rows) == 1001 and run_base.wall <= 60.0
    report(1, "mass conservation", ok,
           f"drift {drift:.3e} vs {tol:.1e}, {run_base.wall:.1f}s")


def test_criterion_2_energy_identity_first_order(run_base, run_half_tau):
    res_a = abs(run_base.rows[-1].energy_id_residual)
    res_b = abs(run_half_tau.rows[-1].energy_id_residual)
    e0 = abs(run_base.rows[0].energy)
    ratio = res_a / res_b
    ok = 1.5 <= ratio <= 2.7 and res_a <= 1.0e-2 * e0
    report(2, "energy identity", ok,
           f"residual {res_a:.3e} -> {res_b:.3e}, ratio {ratio:.3f}, "
           f"bound {1.0e-2 * e0:.1e}")


def test_criterion_3_dissipation_and_energy_decay(run_base):
    rows = run_base.rows
    diss = np.array([r.dissipation_cum for r in rows])
    increments_ok = bool(np.all(np.diff(diss) >= 0.0))
    e0, e_end = rows[0].energy, rows[-1].energy
    decay_ok = e_end <= e0 + 1.0e-2 * abs(e0)
    report(3, "entropy structure", increments_ok and decay_ok,
           f"min increment {np.diff(diss).min():.3e}, "
           f"energy {e0:.6f} -> {e_end:.6f}")


def test_criterion_4_homogeneous_ode_oracle():
    pot = Potential("logarithmic", 1.8628)
    lat = LatentHeat(0.2, 0.0, 0.0)
    model = make_model(p_bulk=pot, l_bulk=lat)
    s0 = constant_state(model, 2.0, 0.3)
    cfg = stepper(1.0e-4, cg_tol=1.0e-12)
    t0 = time.perf_counter()
    rows, final = run(model, cfg, s0, 1.0)
    wall = time.perf_counter() - t0

    theta_spread = float(np.ptp(final.theta))
    chi_spread = float(np.ptp(final.chi))
    _, theta_ref, chi_ref = integrate_homogeneous(2.0, 0.3, pot, lat,
                                                  tau_ref=1.0e-4, t_end=1.0)
    err_theta = abs(dm_mean(final.theta, model.masses) - theta_ref[-1]) / abs(theta_ref[-1])
    err_chi = abs(dm_mean(final.chi, model.masses) - chi_ref[-1]) / abs(chi_ref[-1])
    ok = (theta_spread <= 1.0e-10 and chi_spread <= 1.0e-10
          and err_theta <= 1.0e-6 and err_chi <= 1.0e-6 and wall <= 120.0)
    report(4, "homogeneous ode oracle", ok,
           f"spreads {theta_spread:.1e}/{chi_spread:.1e}, "
           f"rel err theta {err_theta:.3e} chi {err_chi:.3e}, {wall:.1f}s")


def _separation_constants(rows):
    tail = [r for r in rows if r.t >= 0.1 - 1.0e-12]
    alpha = min(r.theta_min for r in tail)
    big_a = max(r.theta_max for r in tail)
    omega = min(1.0 - max(abs(r.chi_min), abs(r.chi_max)) for r in tail)
    return alpha, big_a, omega


def test_criterion_5_separation_constants(run_base, run_half_tau, run_fine_grid):
    base = _separation_constants(run_base.rows)
    variants = [_separation_constants(run_half_tau.rows),
                _separation_constants(run_fine_grid.rows)]
    positive = base[0] > 0.0 and base[2] > 0.0 and np.isfinite(base[1])
    stable = all(abs(v[i] - base[i]) <= 0.2 * abs(base[i])
                 for v in variants for i in range(3))
    report(5, "separation constants", positive and stable,
           f"theta in [{base[0]:.4f}, {base[1]:.4f}], "
           f"phase margin {base[2]:.4f}, variants {variants}")


def test_criterion_6_omega_limit():
    # Coupled long run; the latent slope keeps the phase away from the walls.
    lat = LatentHeat(-1.0, 0.0, 0.0)
    assert separating_slope_margin(lat) > 0.0
    model = make_model(1.0, 1.0, 32, 32, p_bulk=Potential("logarithmic", 1.0),
                       l_bulk=lat)
    g = model.grid
    chi0 = preset_field(g, "tanh_stripe", value=0.0, amplitude=0.3, kx=1,
                        width=0.2, seed=0)
    s0 = State(0.0, np.full(g.n_nodes, -1.0), chi0)
    cfg = stepper(0.02, newton_tol=1.0e-12, cg_tol=1.0e-12)
    rows, final = run(model, cfg, s0, 50.0)

    # residual-based: bounds u_std 1e-6, phase residual 1e-6, mass drift 1e-8
    omega = omega_limit_report(final, rows[0].mu, model,
                               std_tol=1.0e-6, residual_tol=1.0e-6, mu_tol=1.0e-8)

    # Decoupled run: no latent coupling, theta diffuses to its weighted mean.
    model_d = make_model(1.0, 1.0, 32, 32, p_bulk=Potential("quartic", 0.0),
                         l_bulk=LatentHeat(0.0, 0.0, 0.0))
    theta0 = preset_field(model_d.grid, "sinusoid", value=1.0, amplitude=0.3,
                          kx=1, width=0.1, seed=0)
    s0_d = State(0.0, -1.0 / theta0, np.zeros(model_d.grid.n_nodes))
    rows_d, final_d = run(model_d, stepper(0.02), s0_d, 50.0)
    target = rows_d[0].mu / 3.0  # total measure LxLy + 2Lx = 3
    err_d = float(np.max(np.abs(final_d.theta - target)))
    decoupled_ok = err_d <= 1.0e-6

    report(6, "omega-limit membership", omega.converged and decoupled_ok,
           f"u_std {omega.u_spatial_std:.3e}, phase residual {omega.phase_residual:.3e}, "
           f"drift {omega.mu_gap:.3e}, "
           f"decoupled theta error {err_d:.3e}")


def test_criterion_7_stationary_cross_check():
    model = make_model(1.0, 1.0, 16, 8, p_bulk=Potential("logarithmic", 1.0),
                       l_bulk=LatentHeat(-1.0, 0.0, 0.0))
    n = model.grid.n_nodes
    result = solve_stationary(3.12, 1.0, np.zeros(n), model, tol=1.0e-12)
    s_inf = State(0.0, np.full(n, result.u_inf), result.chi_inf)

    cfg = stepper(0.05, newton_tol=1.0e-12, cg_tol=1.0e-13)
    s_next = run(model, cfg, s_inf, cfg.tau)[1]
    du = float(np.max(np.abs(s_next.u - s_inf.u)))
    dchi = float(np.max(np.abs(s_next.chi - s_inf.chi)))
    bound = 10.0 * cfg.newton_tol
    report(7, "stationary cross-check", du <= bound and dchi <= bound,
           f"|du| {du:.3e}, |dchi| {dchi:.3e} vs {bound:.1e}")


def test_criterion_8_operator_suite(rng):
    t0 = time.perf_counter()
    sym_err = kernel_err = neg = 0.0
    for n in (16, 32, 64):
        g = build_grid(1.0, 1.0, n, n)
        k = assemble_stiffness(g)
        z = rng.standard_normal(g.n_nodes)
        w = rng.standard_normal(g.n_nodes)
        scale = float(np.max(np.abs(k.apply(z)))) * np.max(np.abs(w))
        sym_err = max(sym_err, abs(z @ k.apply(w) - w @ k.apply(z)) / scale)
        kernel_err = max(kernel_err, float(np.max(np.abs(k.apply(np.ones(g.n_nodes))))))
        neg = min(neg, float(z @ k.apply(z)))

    def a_of(n):
        g = build_grid(1.0, 1.0, n, n)
        z = (np.sin(2.0 * np.pi * g.x)
             + (2.0 * g.y + g.y ** 2 + 2.0 * g.y ** 3 - 1.5 * g.y ** 4)
             * (1.0 + 0.5 * np.cos(2.0 * np.pi * g.x)))
        return assemble_stiffness(g).apply(z) / assemble_masses(g).m_comb

    def restrict(a, nf, nc):
        r = nf // nc
        return a.reshape(nf + 1, nf)[::r, ::r].ravel()

    a16, a32, a64 = a_of(16), a_of(32), a_of(64)
    ratio = (np.max(np.abs(a16 - restrict(a32, 32, 16)))
             / np.max(np.abs(a32 - restrict(a64, 64, 32))))
    wall = time.perf_counter() - t0
    ok = (sym_err <= 1.0e-12 and kernel_err <= 1.0e-10 and neg >= -1.0e-12
          and abs(ratio - 4.0) <= 0.5 and wall <= 30.0)
    report(8, "operator suite", ok,
           f"symmetry {sym_err:.1e}, kernel {kernel_err:.1e}, "
           f"convergence ratio {ratio:.3f}, {wall:.1f}s")


def test_criterion_9_determinism(tmp_path):
    cfg_text = textwrap.dedent("""\
        domain.lx = 1.0
        domain.ly = 1.0
        domain.nx = 8
        domain.ny = 4
        time.dt = 0.01
        time.t_end = 0.05
        time.snapshot_every = 2
        potential_bulk.kind = logarithmic
        potential_bulk.delta = 1.0
        potential_surf.kind = logarithmic
        potential_surf.delta = 1.0
        latent_bulk.a = -0.5
        latent_bulk.b = 0.0
        latent_bulk.c = 0.0
        latent_surf.a = -0.5
        latent_surf.b = 0.0
        latent_surf.c = 0.0
        init.theta_kind = random
        init.theta_amplitude = 0.1
        init.chi_kind = random
        init.chi_amplitude = 0.3
        init.seed = 11
        output.write_pgm = true
        """)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        assert cli_main(["simulate", "--config", str(cfg), "--output", str(d)]) == 0
    names = sorted(os.listdir(dirs[0]))
    identical = (names == sorted(os.listdir(dirs[1]))
                 and all((dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes()
                         for f in names))
    report(9, "determinism", identical,
           f"{len(names)} files compared, snapshots at steps 0/2/4/5")
