"""Implicit steps, adaptive control, presets, sources, and the ODE oracle."""

import ctypes
import dataclasses
import importlib.util
import math
import os
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
import pfstrip.functionals as fn
import pfstrip.stationary as stationary
import pfstrip.timestepper as ts
from helpers import constant_state, make_model, stepper
from pfstrip.errors import DomainError, SolverError
from pfstrip.functionals import State, mass_mu
from pfstrip.grid_ops import ShiftedInverse, StiffnessOp
from pfstrip.potentials import LatentHeat, Potential, integrate_homogeneous, scalar_f
from pfstrip.timestepper import make_source, preset_field, run


def latent_quotient(m, chi_old, chi_new, tau):
    """m (lambda(chi_new) - lambda(chi_old)) / tau, the G that step_chi returns."""
    return (m.phase_values(chi_new).latent - m.phase_values(chi_old).latent) / tau


def test_step_chi_zero_fixed_point():
    m = make_model(p_bulk=Potential("quartic", 0.0))
    s = constant_state(m, 1.0, 0.0)
    chi_new, iters = ts.step_chi(s, 0.01, stepper(0.01), m, m.phase_values(s.chi))[:2]
    assert np.all(chi_new == 0.0) and iters == 0


def test_step_chi_matches_scalar_bisection_oracle():
    lat = LatentHeat(0.3, 0.1, 0.0)
    m = make_model(p_bulk=Potential("logarithmic", 1.0), l_bulk=lat)
    theta_n, chi_n, tau = 1.5, 0.2, 0.05
    s = constant_state(m, theta_n, chi_n)
    chi_new = ts.step_chi(s, tau, stepper(tau), m, m.phase_values(s.chi))[0]
    f = scalar_f(m.p_bulk)
    lamp = -2.0 * lat.a * chi_n + lat.b
    rhs = m.p_bulk.delta * chi_n + lamp * (-1.0 / theta_n)

    root = oracles.bisect(lambda c: (c - chi_n) / tau + f(c) - rhs, -0.999999, 0.999999)
    assert np.max(np.abs(chi_new - root)) <= 1e-10


def test_step_chi_respects_domain_guard():
    m = make_model(nx=8, ny=4)
    g = m.grid
    chi0 = preset_field(g, "tanh_stripe", amplitude=0.999, width=0.15)
    assert np.max(np.abs(chi0)) > 0.99
    s = State(0.0, np.full(g.n_nodes, -1.0), chi0)
    chi_new = ts.step_chi(s, 0.01, stepper(0.01), m, m.phase_values(chi0))[0]
    assert np.max(np.abs(chi_new)) < 1.0


def test_step_theta_constant_fixed_point():
    m = make_model(l_bulk=LatentHeat(0.5, 0.0, 0.0))
    s = constant_state(m, 1.7, 0.3)
    u_new, iters = ts.step_theta(s, latent_quotient(m, s.chi, s.chi, 0.01), None, 0.01,
                                 stepper(0.01), m, m.stiffness.apply(s.u))[:2]
    assert np.array_equal(u_new, s.u) and iters == 0


def test_step_theta_homogeneous_closed_form():
    lat = LatentHeat(0.4, 0.2, 0.1)
    m = make_model(l_bulk=lat)
    s = constant_state(m, 2.0, 0.1)
    chi_new = np.full(m.grid.n_nodes, 0.15)
    u_new = ts.step_theta(s, latent_quotient(m, s.chi, chi_new, 0.01), None, 0.01,
                          stepper(0.01), m, m.stiffness.apply(s.u))[0]
    dlam = oracles.latent(lat, 0.15) - oracles.latent(lat, 0.1)
    theta_ref = 2.0 - dlam
    assert np.max(np.abs(-1.0 / u_new - theta_ref)) <= 1e-10 * theta_ref


def test_step_theta_conserves_mass(rng):
    lat = LatentHeat(0.7, -0.2, 0.3)
    m = make_model(nx=12, ny=6, l_bulk=lat, l_surf=LatentHeat(0.2, 0.1, 0.0))
    n = m.grid.n_nodes
    s = State(0.0, -1.0 / rng.uniform(0.5, 2.0, size=n),
              rng.uniform(-0.6, 0.6, size=n))
    chi_new = np.clip(s.chi + 0.05 * rng.standard_normal(n), -0.9, 0.9)
    cfg = stepper(0.02)
    u_new = ts.step_theta(s, latent_quotient(m, s.chi, chi_new, 0.02), None, 0.02, cfg, m,
                          m.stiffness.apply(s.u))[0]
    mu_old = mass_mu(s, m)
    mu_new = mass_mu(State(0.02, u_new, chi_new), m)
    assert abs(mu_new - mu_old) <= 10.0 * cfg.newton_tol * (1.0 + abs(mu_old))


def test_advance_keeps_stationary_state():
    m = make_model(p_bulk=Potential("quartic", 0.0), l_bulk=LatentHeat(0.0, 0.0, 0.8))
    s = constant_state(m, 1.4, 0.0)
    rows, s_new = run(m, stepper(0.05), s, 0.05)
    assert len(rows) == 2
    assert np.max(np.abs(s_new.u - s.u)) <= 1e-12
    assert np.max(np.abs(s_new.chi - s.chi)) <= 1e-12
    assert rows[1].dissipation_cum >= 0.0


def test_advance_emits_positive_bounds(rng):
    m = make_model(nx=8, ny=4, l_bulk=LatentHeat(0.5, 0.1, 0.0))
    g = m.grid
    theta0 = preset_field(g, "random", value=1.0, amplitude=0.4, seed=7)
    chi0 = preset_field(g, "random", amplitude=0.6, seed=8)
    states = []
    rows, _ = run(m, stepper(0.01), State(0.0, -1.0 / theta0, chi0), 0.05,
                  snapshot_every=1, on_snapshot=lambda step, s: states.append(s))
    assert len(rows) == len(states) >= 6
    for row, s in zip(rows[1:], states[1:]):
        assert row.theta_min > 0.0
        assert -1.0 < row.chi_min <= row.chi_max < 1.0
        assert np.all(s.u < 0.0)


def test_u_spatial_std_decays_without_coupling():
    m = make_model(nx=8, ny=4, p_bulk=Potential("quartic", 0.0))
    g = m.grid
    theta0 = preset_field(g, "sinusoid", value=1.0, amplitude=0.3, kx=1)
    s = State(0.0, -1.0 / theta0, np.zeros(g.n_nodes))
    rows, _ = run(m, stepper(0.01), s, 0.5)
    stds = [r.u_spatial_std for r in rows]
    assert all(b <= a + 1e-10 for a, b in zip(stds, stds[1:]))
    assert stds[-1] < 0.1 * stds[0]


def test_x_constant_data_stay_x_constant():
    m = make_model(nx=12, ny=6, l_bulk=LatentHeat(0.5, 0.0, 0.0))
    g = m.grid
    theta0 = 1.0 + 0.3 * g.y * g.y
    chi0 = 0.2 - 0.1 * g.y
    _, final = run(m, stepper(0.01), State(0.0, -1.0 / theta0, chi0), 0.1)
    for z in (final.u, final.chi):
        rows2d = z.reshape(g.ny + 1, g.nx)
        assert np.max(rows2d.max(axis=1) - rows2d.min(axis=1)) <= 1e-10


def test_run_zero_horizon_emits_initial_row_only():
    m = make_model()
    s = constant_state(m, 1.0, 0.1)
    rows, final = run(m, stepper(0.01), s, 0.0)
    assert len(rows) == 1 and rows[0].step == 0
    assert final.t == 0.0 and np.array_equal(final.chi, s.chi)


def test_emitted_states_hold_read_only_arrays_from_step_0():
    """run emits read-only arrays, theta's too, at step 0, as at every later step and
    after a t_end = 0 run, so no caller can make the carried values stale; state0 stays
    writable."""
    m = make_model()
    s = constant_state(m, 1.0, 0.1)
    seen = []
    run(m, stepper(0.01), s, 0.02, snapshot_every=1, on_snapshot=lambda step, state: seen.append(
        (step, *(z.flags.writeable for z in (state.u, state.chi, state.theta)))))
    _, final = run(m, stepper(0.01), s, 0.0)
    assert seen == [(step, False, False, False) for step in range(3)]
    assert not any(z.flags.writeable for z in (final.u, final.chi, final.theta))
    assert s.u.flags.writeable and s.chi.flags.writeable


def test_run_mass_conservation_bound():
    m = make_model(nx=16, ny=8, l_bulk=LatentHeat(0.8, 0.0, 0.0))
    g = m.grid
    chi0 = preset_field(g, "tanh_stripe", amplitude=0.5, width=0.2)
    s0 = State(0.0, np.full(g.n_nodes, -1.0), chi0)
    cfg = stepper(1e-3)
    rows, final = run(m, cfg, s0, 0.1)
    mu0 = mass_mu(s0, m)
    mu_t = mass_mu(final, m)
    n_steps = len(rows) - 1
    assert abs(mu_t - mu0) <= 10.0 * cfg.newton_tol * n_steps * (1.0 + abs(mu0))
    diss = np.array([r.dissipation_cum for r in rows])
    assert np.all(np.diff(diss) >= 0.0)


def test_snapshot_callback_cadence():
    m = make_model()
    s = constant_state(m, 1.0, 0.1)
    seen = []
    run(m, stepper(0.01), s, 0.1, snapshot_every=4,
        on_snapshot=lambda step, state: seen.append(step))
    assert seen == [0, 4, 8, 10]


def test_adaptive_halving_and_redoubling(monkeypatch):
    m = make_model(nx=8, ny=4)
    s = constant_state(m, 1.0, 0.2)
    cfg = stepper(0.02)
    real = ts.step_chi
    tried = []

    def flaky(state, tau, c, model, at, rho):
        tried.append(tau)
        if tau > 0.6 * c.tau:
            raise SolverError("synthetic failure above threshold")
        return real(state, tau, c, model, at, rho)

    monkeypatch.setattr(ts, "step_chi", flaky)
    half = cfg.tau / 2.0
    rows, _ = run(m, cfg, s, 12.5 * half)
    assert rows[1].t == pytest.approx(half)
    # step 1 halves; ten successes re-double up to the cap; probing the cap at step 11
    # fails and halves again; the last step is cut to end at t_end
    assert tried == pytest.approx([cfg.tau, half] + [half] * 9 + [cfg.tau, half, half, half / 2])


def test_failed_heat_step_retries_from_the_state(monkeypatch):
    """A heat step that fails after its phase step succeeded retries at tau/2 from
    the values of the state it steps from: the step's row is that of a run at tau/2."""
    m = make_model(nx=8, ny=4)
    s = constant_state(m, 1.0, 0.2)
    cfg = stepper(0.02)
    want = run(m, stepper(cfg.tau / 2.0), s, cfg.tau / 2.0)[0][1]
    real = ts.step_theta

    def flaky(state, g, source_vec, tau, c, model, ku, rho):
        if tau > 0.6 * c.tau:
            raise SolverError("synthetic failure above threshold")
        return real(state, g, source_vec, tau, c, model, ku, rho)

    monkeypatch.setattr(ts, "step_theta", flaky)
    assert run(m, cfg, s, cfg.tau)[0][1] == want


def test_adaptive_floor_raises_fatal(monkeypatch):
    m = make_model(nx=8, ny=4)
    s = constant_state(m, 1.0, 0.2)

    def always_fail(state, tau, c, model, at, rho):
        raise SolverError("synthetic hard failure")

    monkeypatch.setattr(ts, "step_chi", always_fail)
    with pytest.raises(SolverError, match=r"step 1 failed at the minimum step size \(t = 0\)"):
        run(m, stepper(0.02), s, 0.02)


def test_newton_solve_cost_is_flat_in_grid_size(monkeypatch):
    """Operator and preconditioner applies per Newton solve on a perturbed stripe
    stay bounded as the grid is refined (Jacobi-PCG takes up to 17, 31 and 62
    operator applies here)."""
    real = ts.solve_spd
    counts, precond_counts = [], []

    def counting(apply, precond, *args, **kwargs):
        n = [0, 0]

        def counted(z):
            n[0] += 1
            return apply(z)

        def counted_precond(v):
            n[1] += 1
            return precond(v)

        x = real(counted, counted_precond, *args, **kwargs)
        counts.append(n[0])
        precond_counts.append(n[1])
        return x

    monkeypatch.setattr(ts, "solve_spd", counting)
    for n in (16, 32, 64):
        m = make_model(1.0, 1.0, n, n, p_bulk=Potential("logarithmic", 1.0),
                       l_bulk=LatentHeat(1.0, 0.0, 0.0))
        g = m.grid
        chi0 = preset_field(g, "tanh_stripe", amplitude=0.3, width=0.2) \
            + 0.05 * np.cos(2.0 * math.pi * g.x) * np.sin(math.pi * g.y)
        counts.clear()
        precond_counts.clear()
        run(m, stepper(1e-3), State(0.0, np.full(g.n_nodes, -1.0), chi0), 3e-3)
        assert len(counts) >= 12 and max(counts) <= 8, (n, counts)
        assert max(precond_counts) <= 8, (n, precond_counts)


def stripe_96_model(n):
    """The physics of the stripe_96 benchmark workload on an n x n grid, its initial state
    (theta 1, the stripe plus the workload's seed-1 perturbation) and its step settings."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(root, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    m = make_model(1.0, 1.0, n, n, p_bulk=Potential("logarithmic", 1.0),
                   l_bulk=LatentHeat(1.0, 0.0, 0.0))
    g = m.grid
    chi0 = preset_field(g, "tanh_stripe", amplitude=0.3, width=0.2) \
        + workloads.stripe_perturbation(g.x, g.y, g.lx, g.ly, 1)
    return m, State(0.0, np.full(g.n_nodes, -1.0), chi0), stepper(1e-3)


def test_newton_asks_each_inner_solve_for_a_tenth_of_the_remaining_target(monkeypatch):
    """_newton hands each inner solve the relative tolerance max(cg_tol, 0.1 target / norm)
    at the iterate it steps from: at least cg_tol, and at most 0.1, as norm > target inside
    the loop.  A first solve also takes 0.1 rho, where rho is the first contraction
    ||F(x_1)|| / ||F(x_0)|| that the same solve (phase or heat) reached on the last accepted
    step; there is none at step 1 and none after a rejected attempt, which drops both.
    Phase and heat steps of the stripe_96 physics at the default tolerances, the heat step
    of step 3 rejected once: every relative target lies above the 1e-12 floor, so each first
    solve without a rho keeps cg_tol."""
    m, s0, cfg = stripe_96_model(16)
    events = []   # per _newton call (kind, rho given, [(tolerance, residual norm)], result)
    kind = ["chi"]   # the step running
    real_newton, real_step = ts._newton, m.newton_step
    real_chi, real_theta = ts.step_chi, ts.step_theta

    def newton(*args):
        events.append((kind[0], args[-1], [], None))
        out = real_newton(*args)
        events[-1] = events[-1][:3] + (out,)
        return out

    def spy(d, r, tol):
        events[-1][2].append((tol, ts.measure_norm(r, m.masses.m_comb)))
        return real_step(d, r, tol)

    def step_chi(*args):
        kind[0] = "chi"
        return real_chi(*args)

    def step_theta(s, *args):
        if math.isclose(s.t, 2e-3) and not any(e == "rejected" for e in events):
            events.append("rejected")
            raise SolverError("synthetic failure of step 3")
        kind[0] = "theta"
        return real_theta(s, *args)

    monkeypatch.setattr(ts, "_newton", newton)
    monkeypatch.setattr(ts, "step_chi", step_chi)
    monkeypatch.setattr(ts, "step_theta", step_theta)
    m.newton_step = spy
    rows, _ = run(m, cfg, s0, 5e-3)
    assert len(rows) == 9 and len(events) == 2 * 8 + 2
    prev, pending, bitten = {"chi": None, "theta": None}, None, 0   # rho of the last step
    for event in events:
        if event == "rejected":
            prev, pending = {"chi": None, "theta": None}, None
            continue
        kind, rho, calls, (x, iters, norm, first, *_) = event
        assert rho == prev[kind] and len(calls) == iters > 0
        target = max(cfg.newton_tol * calls[0][1], ts.NEWTON_ABS_FLOOR)
        assert target > ts.NEWTON_ABS_FLOOR
        norms = [n for _, n in calls] + [norm]
        assert first == norms[1] / norms[0]   # the contraction _newton hands back
        for k, (tol, n) in enumerate(calls):
            kelley = max(cfg.cg_tol, ts.NEWTON_LINEAR_SHARE * target / n)
            if k == 0 and rho is not None:
                assert tol == max(kelley, ts.NEWTON_LINEAR_SHARE * rho)
                bitten += tol > kelley
            else:
                assert tol == kelley and (k > 0 or tol == cfg.cg_tol)
            assert cfg.cg_tol <= tol <= 0.1
        if kind == "chi":
            pending = first
        else:   # the attempt is accepted
            prev = {"chi": pending, "theta": first}
    assert events.count("rejected") == 1 and bitten >= 8
    assert max(tol for e in events if e != "rejected" for tol, _ in e[2]) > cfg.cg_tol


def assert_stripe_runs_save_applies_at_round_off(monkeypatch, hold) -> None:
    """20 steps of the stripe_96 physics at 16^2, 32^2 and 64^2, each run once as shipped
    and once under hold(mp, model, cfg), a monkeypatch context held for that run alone:
    the same Newton counts in every row, diagnostics within 1e-12 of each column's largest
    magnitude and final chi and u within 1e-12, while the preconditioner applies as shipped
    are at least 15% fewer and applies per solve grow by at most 0.25 from 16^2 to 64^2."""
    counts = [0, 0]   # preconditioner applies, solves
    real_solver = ShiftedInverse.solver

    def solver(self, c):
        solve = real_solver(self, c)
        counts[1] += 1

        def counted(r):
            counts[0] += 1
            return solve(r)
        return counted

    monkeypatch.setattr(ShiftedInverse, "solver", solver)
    per_solve = []
    for n in (16, 32, 64):
        runs = []
        for held in (True, False):
            with monkeypatch.context() as mp:
                m, s0, cfg = stripe_96_model(n)
                if held:
                    hold(mp, m, cfg)
                counts[:] = [0, 0]
                rows, final = run(m, cfg, s0, 20e-3)
            runs.append((np.array([dataclasses.astuple(r) for r in rows]), final, *counts))
        (rows_a, final_a, applies_a, solves_a), (rows_b, final_b, applies_b, solves_b) = runs
        assert len(rows_a) == len(rows_b) == 21 and solves_a == solves_b
        assert (rows_a[:, -2:] == rows_b[:, -2:]).all(), n   # newton_iters_chi, _theta
        scale = np.abs(rows_a).max(axis=0)
        assert (np.abs(rows_a - rows_b) <= 1e-12 * scale).all(), n
        assert np.abs(final_a.chi - final_b.chi).max() <= 1e-12
        assert np.abs(final_a.u - final_b.u).max() <= 1e-12
        assert applies_b <= 0.85 * applies_a, (n, applies_a, applies_b)
        per_solve.append(applies_b / solves_b)
    assert per_solve[-1] - per_solve[0] <= 0.25, per_solve


def test_newton_linear_share_moves_outputs_at_round_off_and_keeps_applies_flat(monkeypatch):
    """The inner tolerances of _newton against every inner solve held at cg_tol, by
    assert_stripe_runs_save_applies_at_round_off."""
    real_step = ts.Model.newton_step

    def hold(mp, m, cfg):
        mp.setattr(m, "newton_step", lambda d, r, tol: real_step(m, d, r, cfg.cg_tol))

    assert_stripe_runs_save_applies_at_round_off(monkeypatch, hold)


def test_predicted_first_contraction_moves_outputs_at_round_off_and_keeps_applies_flat(
        monkeypatch):
    """The first Newton contraction that run carries from step to step against none carried,
    so that every first inner solve keeps Kelley's floor alone, by
    assert_stripe_runs_save_applies_at_round_off: 285-286 applies against 224-225 at each
    size.  The steps hand _newton the carried contraction as its last argument."""
    real_newton = ts._newton

    def hold(mp, m, cfg):
        mp.setattr(ts, "_newton", lambda *args: real_newton(*args[:-1], None))

    assert_stripe_runs_save_applies_at_round_off(monkeypatch, hold)


def test_stripe_steps_apply_k_once_per_inner_solve(monkeypatch):
    """5 steps of the stripe_96 physics at 16^2: K is applied twice at the start (K chi_0 in
    the initial phase values, K u_0) and once per inner solve with a nonzero right-hand
    side, its closing true-residual check.  Every new Newton iterate takes K x + alpha K s
    from that check, and every step takes K at its start from the step before."""
    m, s0, cfg = stripe_96_model(16)
    applies, solves = [0], []
    real_apply, real_solve = StiffnessOp.apply, ts.solve_spd

    def apply(self, z):
        applies[0] += 1
        return real_apply(self, z)

    def solve(apply_op, precond, rhs, *args, **kwargs):
        solves.append(bool(rhs.any()))
        return real_solve(apply_op, precond, rhs, *args, **kwargs)

    monkeypatch.setattr(StiffnessOp, "apply", apply)
    monkeypatch.setattr(ts, "solve_spd", solve)
    rows, _ = run(m, cfg, s0, 5e-3)
    assert len(rows) == 6 and len(solves) == sum(r.newton_iters_chi + r.newton_iters_theta
                                                 for r in rows)
    assert all(solves) and applies[0] == 2 + sum(solves), (applies, len(solves))


def test_solver_counts_tool_counts_each_stepping_workload(monkeypatch):
    """tools/solver_counts.py at the tiny sizes: per stepping workload the steps and Newton
    iterations of its rows, K applied twice at the start and once per inner solve (as in
    the test above), at least one preconditioner apply per solve of each kind and a mass
    drift at round-off; every function it wraps is put back."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.setattr(sys, "path", list(sys.path))   # the tool adds perfbench to it
    spec = importlib.util.spec_from_file_location(
        "solver_counts", os.path.join(root, "tools", "solver_counts.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    wrapped = (ShiftedInverse.solver, StiffnessOp.apply, ts.step_chi, ts.step_theta)
    for name, steps in zip(tool.STEPPING, (6, 40, 6)):
        got = tool.counts(name, 1, "tiny")
        assert got["steps"] == steps and got["newton_chi"] >= steps, got
        assert got["k_applies"] == 2 + got["newton_chi"] + got["newton_theta"], got
        assert got["precond_chi"] >= got["newton_chi"], got
        assert got["precond_theta"] >= got["newton_theta"], got
        assert got["precond"] == got["precond_chi"] + got["precond_theta"], got
        assert got["mass_drift"] <= 1e-12, got
    assert (ShiftedInverse.solver, StiffnessOp.apply, ts.step_chi, ts.step_theta) == wrapped


def test_carried_k_stays_at_round_off_over_a_long_run(monkeypatch):
    """2000 steps of the cli_snapshots physics at 8x4: at every step the K chi that step_chi
    hands on in its PhaseValues and the K u that step_theta hands on, each carried through
    every Newton iteration as K x + alpha K s, stay within 1e-12 ||K||_inf max|x| of a fresh
    StiffnessOp.apply."""
    m = make_model(1.0, 1.0, 8, 4, p_bulk=Potential("logarithmic", 3.0),
                   l_bulk=LatentHeat(-0.5, 0.0, 0.0))
    g, k = m.grid, m.stiffness
    k_norm = abs(k.matrix).sum(axis=1).max()
    theta0 = preset_field(g, "random", value=1.0, amplitude=0.1, seed=1)
    s0 = State(0.0, -1.0 / theta0, preset_field(g, "tanh_stripe", amplitude=0.8, width=0.1))
    gaps = {"chi": [], "u": []}   # per step, |carried - fresh|_max / (||K||_inf max|x|)
    real_chi, real_theta = ts.step_chi, ts.step_theta

    def gap(name, x, kx):
        gaps[name].append(np.abs(kx - k.apply(x)).max() / (k_norm * np.abs(x).max()))

    def step_chi(*args):
        out = real_chi(*args)
        gap("chi", out[0], out[2].kchi)
        return out

    def step_theta(*args):
        out = real_theta(*args)
        gap("u", out[0], out[2])
        return out

    monkeypatch.setattr(ts, "step_chi", step_chi)
    monkeypatch.setattr(ts, "step_theta", step_theta)
    rows, _ = run(m, stepper(1.0e-3), s0, 2.0)
    assert len(rows) == 2001 and len(gaps["chi"]) == len(gaps["u"]) == 2000
    assert max(gaps["chi"]) <= 1e-12 and max(gaps["u"]) <= 1e-12, \
        (max(gaps["chi"]), max(gaps["u"]))


def test_homogeneous_step_evaluates_each_potential_once_per_iterate(monkeypatch):
    """Accepted 8x4 steps of the criterion-4 data, one Newton iteration per solve:
    the phase values are evaluated once, at the new phase iterate, with one
    evaluate and one latent_eval call, since the surface laws equal the bulk
    ones and are read on the boundary rows.  K is applied once per CG solve to
    confirm its residual, and not at the new phase and heat iterates, whose
    K x + alpha K s is carried from those checks: 2 applies per step.
    Everything at the current state is carried from the step (or the initial
    row) before.  A surface potential family or latent heat of its own is
    evaluated on its own, once per phase iterate (the boundary rows then take
    two iterations)."""
    calls = dict.fromkeys(("evaluate", "latent_eval", "apply"), 0)

    def counting(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    for name in ("evaluate", "latent_eval"):   # wherever pfstrip refers to them
        real = getattr(ts, name)
        for module in [v for k, v in sys.modules.items() if k.startswith("pfstrip")]:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting(name, real))
    monkeypatch.setattr(StiffnessOp, "apply", counting("apply", StiffnessOp.apply))
    log, lat = Potential("logarithmic", 1.8628), LatentHeat(0.2, 0.0, 0.0)
    per_step = []   # the calls made since the row before, read at each row

    def on_row(row):
        per_step.append(dict(calls))
        calls.update(dict.fromkeys(calls, 0))

    for surf, want in (({}, {"evaluate": 1, "latent_eval": 1}),
                       ({"p_bulk": Potential("quartic", 1.8628), "p_surf": log},
                        {"evaluate": 2, "latent_eval": 1}),
                       ({"l_surf": LatentHeat(0.2, 0.1, 0.0)}, {"evaluate": 1, "latent_eval": 2})):
        m = make_model(**{"p_bulk": log, "l_bulk": lat, **surf})
        per_step.clear()
        rows, _ = run(m, stepper(1.0e-4, cg_tol=1.0e-12), constant_state(m, 2.0, 0.3),
                      3.0e-4, on_row=on_row)
        assert len(rows) == 4, surf
        for k, (row, step_calls) in enumerate(zip(rows[1:], per_step[1:])):
            iterates = row.newton_iters_chi
            assert {name: step_calls[name] / iterates for name in want} == want, \
                (surf, k, step_calls)
            if not surf:
                assert iterates == 1 and row.newton_iters_theta == 1, k
                assert step_calls == {**want, "apply": 2}, (k, step_calls)


def test_carried_values_match_a_recomputation_bitwise(monkeypatch):
    """20 stripe steps with a source: every state equals the phase and heat steps
    recomputed from the previous state with no phase values or K u carried to 1e-14 of its
    largest magnitude (a carried K x + alpha K s rounds differently from a fresh
    K (x + alpha s); the largest gap here is about 3 eps), and every row's functionals and
    dissipation sum equal row_functionals and dissipation_increment evaluated afresh, bit
    for bit.  The recomputation takes the first Newton contractions run carried, which
    are none at step 1 and then, to 1e-12 (they are shares of a first residual), those of
    the recomputed step before."""
    m = make_model(nx=16, ny=8, p_bulk=Potential("logarithmic", 1.5),
                   l_bulk=LatentHeat(0.4, 0.1, 0.0), l_surf=LatentHeat(-0.3, 0.2, 0.1))
    g = m.grid
    cfg = stepper(2.0e-3)
    source = make_source(m, "sinusoid", amplitude=0.5, kx=1, omega=20.0)
    chi0 = preset_field(g, "tanh_stripe", amplitude=0.6, width=0.15) \
        + 0.05 * np.cos(2.0 * math.pi * g.x) * np.sin(math.pi * g.y)
    s0 = State(0.0, -1.0 / preset_field(g, "random", value=1.0, amplitude=0.2, seed=3), chi0)
    states, carried = [], {"step_chi": [], "step_theta": []}   # the rho each step was given

    def recording(name, real):
        def recorded(*args):
            carried[name].append(args[-1])
            return real(*args)
        return recorded

    for name in carried:
        monkeypatch.setattr(ts, name, recording(name, getattr(ts, name)))
    rows, _ = run(m, cfg, s0, 20.5 * cfg.tau, source, snapshot_every=1,
                  on_snapshot=lambda step, s: states.append(s))   # 20 full steps, then a cut one
    assert len(rows) == len(states) == 22
    rho_chi, rho_theta = carried.values()
    assert rho_chi[0] is None and rho_theta[0] is None
    dissipation = 0.0
    for k, (s, new, row) in enumerate(zip(states[:20], states[1:], rows[1:])):
        assert new.t == s.t + cfg.tau
        chi, _, _, g, rho = ts.step_chi(s, cfg.tau, cfg, m, m.phase_values(s.chi), rho_chi[k])
        assert abs(rho_chi[k + 1] - rho) <= 1e-12, k
        u, _, _, rho = ts.step_theta(s, g, m.masses.m_comb * source.value(new.t), cfg.tau, cfg,
                                     m, m.stiffness.apply(s.u), rho_theta[k])
        assert abs(rho_theta[k + 1] - rho) <= 1e-12, k
        assert np.abs(new.chi - chi).max() <= 1e-14 * np.abs(chi).max(), k
        assert np.abs(new.u - u).max() <= 1e-14 * np.abs(u).max(), k
        dissipation += fn.dissipation_increment(new.u, s.chi, new.chi, cfg.tau, m)
        assert (row.mu, row.energy, row.entropy) == fn.row_functionals(new, m), k
        assert row.dissipation_cum == dissipation, k


def bits(*values) -> list:
    """The bytes of each value as float64: equal bits, not merely equal values."""
    return [np.asarray(x, dtype=float).tobytes() for x in values]


@pytest.mark.parametrize("nx,ny", [(8, 4), (32, 16), (96, 96)])
def test_shared_surface_laws_match_a_separate_evaluation_bitwise(rng, nx, ny):
    """Where a surface law equals its bulk law, Model reads the bulk values on the
    boundary rows instead of evaluating the law again on chi[boundary].  The surface
    fields of phase_values, its latent terms, lagged_rhs, row_functionals and mass_mu must
    equal that separate evaluation bit for bit, at random chi in the guard box with
    entries within 1e-9 of +-1; an elementwise kernel whose result depended on an
    entry's position in the array (a SIMD log1p, say) would fail here."""
    log, lat = Potential("logarithmic", 1.5), LatentHeat(0.4, -0.1, 0.2)
    for surf in ({}, {"p_surf": Potential("logarithmic", 0.5)},
                 {"l_surf": LatentHeat(-0.3, 0.2, 0.1)}):
        shared = make_model(nx=nx, ny=ny, **{"p_bulk": log, "l_bulk": lat, **surf})
        separate = make_model(nx=nx, ny=ny, **{"p_bulk": log, "l_bulk": lat, **surf})
        separate.shared = ts.Shared(False, False, False)
        assert any(shared.shared)
        n = shared.grid.n_nodes
        lo, hi = shared.chi_bounds(1.0e-12)
        chi = rng.uniform(lo, hi)
        walls = np.where(chi[::3] < 0.0, -1.0, 1.0)   # every third node within 1e-9 of +-1
        chi[::3] = walls * (1.0 - rng.uniform(1.0e-12, 1.0e-9, walls.size))
        assert np.all(chi >= lo) and np.all(chi <= hi)
        s = State(0.0, -rng.uniform(0.2, 3.0, n), chi)
        got, want = shared.phase_values(chi), separate.phase_values(chi)
        assert bits(*got.surf, *got.implicit) == bits(*want.surf, *want.implicit), surf
        for u in (s.u, -0.8):
            assert bits(shared.lagged_rhs(got, u)) == bits(separate.lagged_rhs(want, u)), surf
        assert bits(got.latent) == bits(want.latent), surf
        assert bits(*fn.row_functionals(s, shared, got)) == \
            bits(*fn.row_functionals(s, separate, want)), surf
        assert bits(mass_mu(s, shared)) == bits(mass_mu(s, separate)), surf


def test_model_phase_terms_match_pointwise_oracle(rng):
    """implicit terms - lagged_rhs is the phase operator of both parts, each with its
    own potential, delta and latent heat, and the stationary linearization's diagonal
    its derivative; a scalar u is the constant field."""
    m = make_model(p_bulk=Potential("quartic", 0.7), p_surf=Potential("logarithmic", 2.5),
                   l_bulk=LatentHeat(0.3, -0.2, 0.1), l_surf=LatentHeat(-0.6, 0.4, 0.5))
    n = m.grid.n_nodes
    chi = rng.uniform(-0.9, 0.9, n)
    u = -rng.uniform(0.5, 2.0, n)
    v = m.phase_values(chi)
    want_r, _, want_lam = oracles.phase_operator_oracle(m.grid, chi, u, m.p_bulk, m.p_surf,
                                                        m.l_bulk, m.l_surf)
    want_d = oracles.phase_operator_oracle(m.grid, chi, np.full(n, -0.8), m.p_bulk, m.p_surf,
                                           m.l_bulk, m.l_surf)[1]
    d = stationary._linearization(chi, -0.8, m)[1]
    for got, want in ((v.implicit[0] - m.lagged_rhs(v, u), want_r), (d, want_d),
                      (v.latent, want_lam)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.array_equal(m.lagged_rhs(v, -0.8), m.lagged_rhs(v, np.full(n, -0.8)))


def test_newton_solves_with_the_accepted_iterates_diagonal():
    """_newton on the toy residual atan(x - 0.3): the full first step from x = 3
    overshoots and is backtracked; each solve must use the diagonal of the
    iterate it steps from, never one from a rejected trial, and each trial
    x + alpha s must receive kx + alpha ks, the carried K x of that iterate plus
    alpha times the K s of the solve, here with K z = cumsum(z).  Run with the
    time-step target and with the stationary one (absolute only)."""
    n = 4
    for rel_tol, abs_tol in ((1.0e-10, ts.NEWTON_ABS_FLOOR), (0.0, 1.0e-12)):
        events = []   # ("lin", x, r, d, kx) per linearize, ("solve", r, d, step, ks) per solve

        def linearize(x, kx):
            r, d = np.arctan(x - 0.3), 1.0 / (1.0 + (x - 0.3) ** 2)
            kx = np.cumsum(x) if kx is None else kx
            events.append(("lin", x.copy(), r, d, kx))
            return r, d, kx

        def newton_step(d, r, tol):
            step = -r / d
            events.append(("solve", r, d, step, np.cumsum(step)))
            return step, events[-1][-1]

        model = SimpleNamespace(masses=SimpleNamespace(m_comb=np.ones(n)),
                                newton_step=newton_step)
        x, iters, norm, _, kx = ts._newton(np.full(n, 3.0), linearize, model.newton_step,
                                           model.masses.m_comb, np.full(n, -10.0),
                                           np.full(n, 10.0), 1.0e-10, 50, rel_tol, abs_tol)
        assert np.max(np.abs(x - 0.3)) <= 1e-10
        assert norm == ts.measure_norm(np.arctan(x - 0.3), np.ones(n))
        kinds = [e[0] for e in events]
        assert kinds[0] == "lin" and kinds.count("solve") == iters
        assert kx is events[-1][4]
        rejected = [i for i in range(len(events) - 1)
                    if kinds[i] == "lin" and kinds[i + 1] == "lin"]
        assert rejected   # the first full step was backtracked
        carry = None   # x, K x, step and K step of the last solve, which its trials start from
        for i, kind in enumerate(kinds):
            if kind != "solve":
                if carry is not None:   # the trial x + alpha s, alpha = 2^-j
                    x_acc, kx_acc, step, ks = carry
                    alpha = 2.0 ** round(math.log2(np.mean((events[i][1] - x_acc) / step)))
                    assert np.array_equal(events[i][4], kx_acc + alpha * ks), (i, alpha)
                continue
            _, x_acc, r_acc, d_acc, kx_acc = events[i - 1]
            _, r, d, step, ks = events[i]
            assert d is d_acc and r is r_acc   # the newest trial, i.e. the accepted one
            alpha = (events[i + 1][1] - x_acc) / step   # next trials start from it
            assert np.allclose(alpha, alpha[0]) and 0.0 < alpha[0] <= 1.0
            carry = x_acc, kx_acc, step, ks
        points = [tuple(e[1]) for e in events if e[0] == "lin"]
        assert len(points) == len(set(points))   # no point is linearized twice


def test_newton_backtracks_from_a_nan_residual():
    """The toy residual m atan(x - 0.3), NaN below x = -1: the full first step from
    x = 3 lands at x = -7.08, where the residual is NaN.  A NaN trial counts as no
    decrease, so the step is halved back into the finite region and Newton reaches 0.3."""
    m = make_model()
    mc = m.masses.m_comb

    def linearize(x, kx):
        return (np.where(x < -1.0, np.nan, mc * np.arctan(x - 0.3)),
                mc / (1.0 + (x - 0.3) ** 2), x if kx is None else kx)

    x, iters, norm, _, _ = ts._newton(np.full(mc.size, 3.0), linearize,
                                      lambda d, r, tol: (-r / d, -r / d), mc, None,
                                      np.full(mc.size, np.inf), 1.0e-10, 50, 0.0, 1.0e-12)
    assert np.max(np.abs(x - 0.3)) <= 1e-10 and norm <= 1e-12 and iters > 1


def test_newton_never_stops_at_a_nan_residual():
    """The same toy from x = -3, where the residual is NaN: _converged is false on a NaN
    norm, so Newton does not return the start as solved; its NaN step enters no box."""
    m = make_model()
    mc = m.masses.m_comb
    assert not ts._converged(math.nan, 1.0e-12, mc, np.ones(mc.size), mc)

    def linearize(x, kx):
        return np.where(x < -1.0, np.nan, mc * np.arctan(x - 0.3)), mc, x

    with pytest.raises(SolverError, match="cannot enter the domain guard box"):
        ts._newton(np.full(mc.size, -3.0), linearize, lambda d, r, tol: (-r / d, -r / d), mc,
                   None, np.full(mc.size, np.inf), 1.0e-10, 50, 0.0, 1.0e-12)


def test_newton_raises_when_no_step_enters_the_guard_box():
    """The constant residual m_comb has the Newton step -1 from x = 0, so with the box
    floor at 0 every halved step stays outside the box."""
    m = make_model()
    mc, x0 = m.masses.m_comb, np.zeros(m.grid.n_nodes)
    with pytest.raises(SolverError, match="cannot enter the domain guard box"):
        ts._newton(x0, lambda x, kx: (mc, mc, x0), m.newton_step, mc, x0,
                   np.full(x0.size, np.inf), 1.0e-10, 50, 1.0e-10, ts.NEWTON_ABS_FLOOR)


def test_newton_raises_when_backtracking_stalls():
    """The residual m_comb (1 + sum |x|) grows along every step from x = 0: a halved step
    passes only while 1 + sum |x| rounds to 1, and once it does not, backtracking stalls."""
    m = make_model()
    mc, x0 = m.masses.m_comb, np.zeros(m.grid.n_nodes)
    with pytest.raises(SolverError, match="Newton backtracking stalled"):
        ts._newton(x0, lambda x, kx: (mc * (1.0 + np.abs(x).sum()), mc, x0), m.newton_step, mc,
                   None, np.full(x0.size, np.inf), 1.0e-10, 50, 1.0e-10, ts.NEWTON_ABS_FLOOR)


def test_newton_step_at_a_zero_residual_returns_zeros_without_applying_k(monkeypatch):
    """r = 0: newton_step returns a zero step and a zero K part, and applies K nowhere."""
    m = make_model()
    applies = []
    monkeypatch.setattr(StiffnessOp, "apply", lambda self, z: applies.append(1))
    n = m.grid.n_nodes
    step, kstep = m.newton_step(m.masses.m_comb / 1.0e-3, np.zeros(n), 1.0e-10)
    assert np.array_equal(step, np.zeros(n)) and np.array_equal(kstep, np.zeros(n))
    assert applies == []


def test_newton_step_refuses_a_zero_shift():
    """At c = mean(d / m_comb) = 0 the preconditioner K + c M is singular in its
    constant mode: newton_step raises before any division."""
    m = make_model()
    d, r = np.zeros(m.grid.n_nodes), np.ones(m.grid.n_nodes)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="mean"):
            m.newton_step(d, r, 1.0e-10)


def test_integrate_homogeneous_trivial_cases():
    lz = LatentHeat(0.0, 0.0, 0.0)
    _, theta, chi = integrate_homogeneous(1.3, 0.2, Potential("logarithmic", 1.0),
                                          lz, 1e-3, 1.0)
    assert np.allclose(theta, 1.3, rtol=1e-14)
    _, _, chi = integrate_homogeneous(1.0, 0.0, Potential("quartic", 1.0), lz, 1e-3, 1.0)
    assert np.allclose(chi, 0.0, atol=1e-14)


def test_integrate_homogeneous_conserves_invariant():
    lat = LatentHeat(0.5, 0.3, 0.1)
    p = Potential("logarithmic", 2.0)
    _, theta, chi = integrate_homogeneous(1.7, -0.2, p, lat, 1e-4, 1.0)
    inv = theta + (-lat.a * chi * chi + lat.b * chi + lat.c)
    assert np.max(np.abs(inv - inv[0])) <= 1e-10


def test_integrate_homogeneous_matches_pair_oracle():
    lat = LatentHeat(0.5, 0.3, 0.1)
    p = Potential("logarithmic", 2.0)
    _, theta, chi = integrate_homogeneous(1.7, -0.2, p, lat, 1e-3, 1.0)
    th_ref, ch_ref = oracles.rk4_pair(1.7, -0.2, scalar_f(p), p.delta,
                                      lat.a, lat.b, 1e-3, 1.0)
    assert theta[-1] == pytest.approx(th_ref, rel=1e-9)
    assert chi[-1] == pytest.approx(ch_ref, rel=1e-9)


def test_integrate_homogeneous_rejects_bad_data():
    p = Potential("logarithmic", 1.0)
    lz = LatentHeat(0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        integrate_homogeneous(-1.0, 0.0, p, lz, 1e-3, 1.0)
    with pytest.raises(DomainError):
        integrate_homogeneous(1.0, 1.5, p, lz, 1e-3, 1.0)


def test_integrate_homogeneous_raises_where_a_stage_reaches_zero_temperature():
    # the third RK4 stage of tau_ref = 0.5 lands at chi = 0.19, where the invariant
    # theta + lambda(chi) leaves theta = -0.07
    with pytest.raises(DomainError, match="temperature reached zero"):
        integrate_homogeneous(1.0, 0.6, Potential("logarithmic", 0.5),
                              LatentHeat(-0.5, -3.0, 0.0), 0.5, 0.5)


def test_integrate_homogeneous_raises_where_a_step_leaves_the_domain():
    # every RK4 stage of tau_ref = 0.1 from chi = 0 stays inside (-1, 1), the
    # last at -0.89, but their combination lands at chi = -1.13
    with pytest.raises(DomainError, match="left the potential domain") as info:
        integrate_homogeneous(1.0, 0.0, Potential("logarithmic", 50.0),
                              LatentHeat(0.0, 1.0, 0.0), 0.1, 0.1)
    assert info.traceback[-1].name == "integrate_homogeneous"   # not a stage inside rhs


def test_keep_freed_heap_sets_glibc_thresholds_and_skips_other_c_libraries(monkeypatch):
    calls = []
    monkeypatch.setattr(ctypes, "CDLL",
                        lambda name: SimpleNamespace(mallopt=lambda *a: calls.append(a)))
    ts._keep_freed_heap()
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]

    def no_c_library(name):
        raise OSError("no C library")

    monkeypatch.setattr(ctypes, "CDLL", no_c_library)
    ts._keep_freed_heap()
    assert len(calls) == 2


def test_make_source_zero_and_projection():
    m = make_model(nx=8, ny=4)
    assert make_source(m, "zero") is None
    src = make_source(m, "sinusoid", amplitude=0.5, kx=1, omega=2.0)
    mean = np.sum(m.masses.m_comb * src.profile) / np.sum(m.masses.m_comb)
    assert abs(mean) <= 1e-14
    assert src.projected_mean <= 1e-14
    assert np.allclose(src.value(0.0), src.profile)
    assert np.allclose(src.value(math.pi / 2.0), -src.profile, atol=1e-14)


def test_make_source_constant_profile_projects_to_zero():
    m = make_model(nx=8, ny=4)
    src = make_source(m, "sinusoid", amplitude=0.5, kx=0)
    assert np.allclose(src.profile, 0.0, atol=1e-15)
    assert src.projected_mean == pytest.approx(0.5, rel=1e-12)


def test_preset_fields_shapes_and_determinism():
    g = make_model(nx=8, ny=4).grid
    assert np.all(preset_field(g, "constant", value=1.2) == 1.2)
    sin = preset_field(g, "sinusoid", value=1.0, amplitude=0.25, kx=2)
    assert sin.min() >= 0.75 - 1e-12 and sin.max() <= 1.25 + 1e-12
    stripe = preset_field(g, "tanh_stripe", amplitude=0.9, width=0.1)
    assert np.max(np.abs(stripe)) <= 0.9
    r1 = preset_field(g, "random", value=1.0, amplitude=0.2, seed=42)
    r2 = preset_field(g, "random", value=1.0, amplitude=0.2, seed=42)
    assert np.array_equal(r1, r2)
    assert not np.array_equal(r1, preset_field(g, "random", value=1.0,
                                               amplitude=0.2, seed=43))


def test_random_preset_matches_the_nodal_mode_sum_bytewise():
    """The random preset sums separable modes on (ny+1, nx); it equals byte for
    byte the same sum evaluated on every node, the formula kept here."""
    def nodal(g, value, amplitude, seed, modes=3):
        rng = np.random.default_rng(seed)
        fld = np.zeros(g.n_nodes)
        for mx in range(modes + 1):
            for my in range(modes + 1):
                if mx == 0 and my == 0:
                    continue
                wgt = 1.0 / (1.0 + mx * mx + my * my)
                cx, sx = rng.standard_normal(2)
                phase_x = 2.0 * math.pi * mx * g.x / g.lx
                fld += wgt * (cx * np.cos(phase_x) + sx * np.sin(phase_x)) \
                    * np.cos(math.pi * my * g.y / g.ly)
        fld *= amplitude / float(np.max(np.abs(fld)))
        return value + fld

    for nx, ny, lx in ((96, 96, 1.0), (32, 16, 2.0), (8, 4, 1.0), (17, 5, 0.7)):
        g = make_model(lx=lx, nx=nx, ny=ny).grid
        for seed in range(5):
            got = preset_field(g, "random", value=1.0, amplitude=0.3, seed=seed)
            assert got.tobytes() == nodal(g, 1.0, 0.3, seed).tobytes(), (nx, ny, seed)
