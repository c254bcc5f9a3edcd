"""Implicit steps, adaptive control, presets, sources, and the ODE oracle."""

import math
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
from pfstrip.grid_ops import StiffnessOp
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

    def flaky(state, tau, c, model, at):
        tried.append(tau)
        if tau > 0.6 * c.tau:
            raise SolverError("synthetic failure above threshold")
        return real(state, tau, c, model, at)

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

    def flaky(state, g, source_vec, tau, c, model, ku):
        if tau > 0.6 * c.tau:
            raise SolverError("synthetic failure above threshold")
        return real(state, g, source_vec, tau, c, model, ku)

    monkeypatch.setattr(ts, "step_theta", flaky)
    assert run(m, cfg, s, cfg.tau)[0][1] == want


def test_adaptive_floor_raises_fatal(monkeypatch):
    m = make_model(nx=8, ny=4)
    s = constant_state(m, 1.0, 0.2)

    def always_fail(state, tau, c, model, at):
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


def test_homogeneous_step_evaluates_each_potential_once_per_iterate(monkeypatch):
    """Accepted 8x4 steps of the criterion-4 data, one Newton iteration per solve:
    the phase values are evaluated once, at the new phase iterate, with one
    evaluate and one latent_eval call, since the surface laws equal the bulk
    ones and are read on the boundary rows; K is applied there, at the new heat
    iterate and once per CG solve to confirm its residual.  Everything at the
    current state is carried from the step (or the initial row) before.  A
    surface potential family or latent heat of its own is evaluated on its own,
    once per phase iterate (the boundary rows then take two iterations)."""
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
                assert step_calls == {**want, "apply": 4}, (k, step_calls)


def test_carried_values_match_a_recomputation_bitwise():
    """20 stripe steps with a source: every state equals the phase and heat steps
    recomputed from the previous state with nothing carried, and every row's
    functionals and dissipation sum equal row_functionals and
    dissipation_increment evaluated afresh, bit for bit."""
    m = make_model(nx=16, ny=8, p_bulk=Potential("logarithmic", 1.5),
                   l_bulk=LatentHeat(0.4, 0.1, 0.0), l_surf=LatentHeat(-0.3, 0.2, 0.1))
    g = m.grid
    cfg = stepper(2.0e-3)
    source = make_source(m, "sinusoid", amplitude=0.5, kx=1, omega=20.0)
    chi0 = preset_field(g, "tanh_stripe", amplitude=0.6, width=0.15) \
        + 0.05 * np.cos(2.0 * math.pi * g.x) * np.sin(math.pi * g.y)
    s0 = State(0.0, -1.0 / preset_field(g, "random", value=1.0, amplitude=0.2, seed=3), chi0)
    states = []
    rows, _ = run(m, cfg, s0, 20.5 * cfg.tau, source, snapshot_every=1,
                  on_snapshot=lambda step, s: states.append(s))   # 20 full steps, then a cut one
    assert len(rows) == len(states) == 22
    dissipation = 0.0
    for k, (s, new, row) in enumerate(zip(states[:20], states[1:], rows[1:])):
        assert new.t == s.t + cfg.tau
        chi, _, _, g = ts.step_chi(s, cfg.tau, cfg, m, m.phase_values(s.chi))
        u = ts.step_theta(s, g, m.masses.m_comb * source.value(new.t), cfg.tau, cfg, m,
                          m.stiffness.apply(s.u))[0]
        assert np.array_equal(new.chi, chi) and np.array_equal(new.u, u), k
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
    iterate it steps from, never one from a rejected trial.  Run with the
    time-step target and with the stationary one (absolute only)."""
    n = 4
    for rel_tol, abs_tol in ((1.0e-10, ts.NEWTON_ABS_FLOOR), (0.0, 1.0e-12)):
        events = []   # ("lin", x, r, d) per linearize call, ("solve", r, d, step) per solve

        def linearize(x):
            r, d = np.arctan(x - 0.3), 1.0 / (1.0 + (x - 0.3) ** 2)
            events.append(("lin", x.copy(), r, d))
            return r, d

        def newton_step(d, r, tol):
            step = -r / d
            events.append(("solve", r, d, step))
            return step

        model = SimpleNamespace(masses=SimpleNamespace(m_comb=np.ones(n)),
                                newton_step=newton_step)
        x, iters, norm = ts._newton(np.full(n, 3.0), linearize, model.newton_step,
                                    model.masses.m_comb, np.full(n, -10.0), np.full(n, 10.0),
                                    1.0e-10, 50, rel_tol, abs_tol)
        assert np.max(np.abs(x - 0.3)) <= 1e-10
        assert norm == ts.measure_norm(np.arctan(x - 0.3), np.ones(n))
        kinds = [e[0] for e in events]
        assert kinds[0] == "lin" and kinds.count("solve") == iters
        rejected = [i for i in range(len(events) - 1)
                    if kinds[i] == "lin" and kinds[i + 1] == "lin"]
        assert rejected   # the first full step was backtracked
        for i, kind in enumerate(kinds):
            if kind != "solve":
                continue
            _, x_acc, r_acc, d_acc = events[i - 1]
            _, r, d, step = events[i]
            assert d is d_acc and r is r_acc   # the newest trial, i.e. the accepted one
            alpha = (events[i + 1][1] - x_acc) / step   # next trials start from it
            assert np.allclose(alpha, alpha[0]) and 0.0 < alpha[0] <= 1.0
        points = [tuple(e[1]) for e in events if e[0] == "lin"]
        assert len(points) == len(set(points))   # no point is linearized twice


def test_newton_backtracks_from_a_nan_residual():
    """The toy residual m atan(x - 0.3), NaN below x = -1: the full first step from
    x = 3 lands at x = -7.08, where the residual is NaN.  A NaN trial counts as no
    decrease, so the step is halved back into the finite region and Newton reaches 0.3."""
    m = make_model()
    mc = m.masses.m_comb

    def linearize(x):
        return np.where(x < -1.0, np.nan, mc * np.arctan(x - 0.3)), mc / (1.0 + (x - 0.3) ** 2)

    x, iters, norm = ts._newton(np.full(mc.size, 3.0), linearize, lambda d, r, tol: -r / d, mc,
                                None, np.full(mc.size, np.inf), 1.0e-10, 50, 0.0, 1.0e-12)
    assert np.max(np.abs(x - 0.3)) <= 1e-10 and norm <= 1e-12 and iters > 1


def test_newton_raises_when_no_step_enters_the_guard_box():
    """The constant residual m_comb has the Newton step -1 from x = 0, so with the box
    floor at 0 every halved step stays outside the box."""
    m = make_model()
    mc, x0 = m.masses.m_comb, np.zeros(m.grid.n_nodes)
    with pytest.raises(SolverError, match="cannot enter the domain guard box"):
        ts._newton(x0, lambda x: (mc, mc), m.newton_step, mc, x0, np.full(x0.size, np.inf),
                   1.0e-10, 50, 1.0e-10, ts.NEWTON_ABS_FLOOR)


def test_newton_raises_when_backtracking_stalls():
    """The residual m_comb (1 + sum |x|) grows along every step from x = 0: a halved step
    passes only while 1 + sum |x| rounds to 1, and once it does not, backtracking stalls."""
    m = make_model()
    mc, x0 = m.masses.m_comb, np.zeros(m.grid.n_nodes)
    with pytest.raises(SolverError, match="Newton backtracking stalled"):
        ts._newton(x0, lambda x: (mc * (1.0 + np.abs(x).sum()), mc), m.newton_step, mc, None,
                   np.full(x0.size, np.inf), 1.0e-10, 50, 1.0e-10, ts.NEWTON_ABS_FLOOR)


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
