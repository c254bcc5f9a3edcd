"""Steady-state solver, admissibility checks, and omega-limit reports."""

import importlib.util
import os

import numpy as np
import pytest

import oracles
import pfstrip.bordered_newton as bn
import pfstrip.grid_ops as grid_ops
import pfstrip.io_cli as io_cli
import pfstrip.timestepper as ts
from helpers import constant_state, make_model, omega_limit_report, roll_x, stepper
import pfstrip.stationary as st
from pfstrip.errors import SolverError
from pfstrip.functionals import State, dm_mean, mass_mu
from pfstrip.potentials import LatentHeat, Potential, scalar_f
from pfstrip.stationary import mass_gap, solve_chi_given_u, solve_stationary
from pfstrip.timestepper import measure_norm, preset_field, run


def test_solve_chi_trivial_roots():
    m = make_model(p_bulk=Potential("quartic", 0.0))
    zero = np.zeros(m.grid.n_nodes)
    chi, resid, _ = solve_chi_given_u(-1.0, zero, m)
    assert np.max(np.abs(chi)) <= 1e-14 and resid <= 1e-12

    m1 = make_model(p_bulk=Potential("quartic", 1.0))
    chi, resid, _ = solve_chi_given_u(-1.0, np.full(m1.grid.n_nodes, 0.9), m1)
    assert np.max(np.abs(chi - 1.0)) <= 1e-9 and resid <= 1e-12


def test_solve_chi_matches_scalar_bisection_oracle():
    """b = 40 and b = -40 put the roots at -(1 - 1.16e-7) and 1 - 1.16e-7, where
    f'(chi) ulp(chi) makes the smallest attainable residual (1.3e-10) exceed
    tol: the solve must stop at its round-off floor, not run out of iterations."""
    u_inf = -0.4
    for b in (0.05, 40.0, -40.0):
        lat = LatentHeat(0.2, b, 0.0)
        m = make_model(p_bulk=Potential("logarithmic", 0.5), l_bulk=lat)
        chi, _, _ = solve_chi_given_u(u_inf, np.zeros(m.grid.n_nodes), m)
        f = scalar_f(m.p_bulk)

        def h(c):
            lamp = -2.0 * lat.a * c + lat.b
            return f(c) - m.p_bulk.delta * c - lamp * u_inf

        root = oracles.bisect(h, -1.0 + 1e-12, 1.0 - 1e-12)
        assert np.max(np.abs(chi - root)) <= 1e-10, b


def test_solve_chi_checks_its_last_iterate(monkeypatch):
    """A solve capped at exactly the Newton steps it needs returns the same root."""
    m = coupled_model()
    guess = preset_field(m.grid, "sinusoid", value=0.2, amplitude=0.5, kx=2)
    steps = []
    real = m.newton_step
    monkeypatch.setattr(m, "newton_step", lambda *a, **k: steps.append(1) or real(*a, **k))
    chi, resid, _ = solve_chi_given_u(-0.8, guess, m)
    assert len(steps) >= 2
    chi_cap, resid_cap, _ = solve_chi_given_u(-0.8, guess, m, max_iter=len(steps))
    assert np.array_equal(chi_cap, chi) and resid_cap == resid


def test_solve_chi_linearizes_each_trial_point_once(monkeypatch):
    """One evaluate and one latent_eval per trial point: the surface laws equal the
    bulk ones, so the boundary rows read the bulk values and evaluate nothing."""
    m = coupled_model()
    n = m.grid.n_nodes
    calls = {"evaluate": [], "latent_eval": []}
    for name, args in calls.items():
        def counted(p, x, real=getattr(ts, name), args=args):
            args.append(np.array(x))
            return real(p, x)

        monkeypatch.setattr(ts, name, counted)
    guess = preset_field(m.grid, "sinusoid", value=0.2, amplitude=0.5, kx=2)
    solve_chi_given_u(-0.8, guess, m)
    for name, args in calls.items():
        points = [a.tobytes() for a in args if a.size == n]
        assert len(points) >= 4 and len(set(points)) == len(points), name
        assert len(args) == len(points), (name, len(args), len(points))


def test_mass_gap_closed_forms():
    m = make_model(p_bulk=Potential("quartic", 0.0))
    zero = np.zeros(m.grid.n_nodes)
    assert mass_gap(-1.0, zero, 3.0, m, m.phase_values(zero)) == pytest.approx(0.0, abs=1e-13)
    assert mass_gap(-0.5, zero, 3.0, m, m.phase_values(zero)) == pytest.approx(3.0, rel=1e-13)


def test_mass_gap_matches_summation_oracle(rng):
    lat_b, lat_s = LatentHeat(0.6, -0.1, 0.2), LatentHeat(-0.3, 0.2, 0.5)
    m = make_model(nx=12, ny=6, l_bulk=lat_b, l_surf=lat_s)
    chi = rng.uniform(-0.7, 0.7, size=m.grid.n_nodes)
    u_inf, mu_t = -0.8, 2.5
    theta = np.full(m.grid.n_nodes, -1.0 / u_inf)
    ref = oracles.mass_oracle(m.grid, theta, chi, lat_b, lat_s) - mu_t
    assert mass_gap(u_inf, chi, mu_t, m, m.phase_values(chi)) == pytest.approx(ref, rel=1e-12)


def test_solve_stationary_decoupled_closed_form():
    m = make_model(p_bulk=Potential("quartic", 0.0))
    res = solve_stationary(3.0, 1.0, np.zeros(m.grid.n_nodes), m)
    assert res.theta_inf == pytest.approx(1.0, rel=1e-10)
    assert np.max(np.abs(res.chi_inf)) <= 1e-12
    assert abs(res.mass_gap) <= 1e-10 and res.phase_residual <= 1e-12
    assert res.separation == pytest.approx(1.0, rel=1e-12)


def test_solve_stationary_shifted_latent_closed_form():
    # mu = 3*theta + 1*(lx*ly) + 2*(2*lx) so mu = 8 puts theta at 1
    m = make_model(p_bulk=Potential("quartic", 0.0),
                   l_bulk=LatentHeat(0.0, 0.0, 1.0), l_surf=LatentHeat(0.0, 0.0, 2.0))
    res = solve_stationary(8.0, 1.0, np.zeros(m.grid.n_nodes), m)
    assert res.theta_inf == pytest.approx(1.0, rel=1e-10)


def coupled_model(nx=16, ny=8):
    return make_model(nx=nx, ny=ny, p_bulk=Potential("logarithmic", 1.0),
                      l_bulk=LatentHeat(-1.0, 0.0, 0.0))


def test_solve_stationary_coupled_is_advance_fixed_point():
    m = coupled_model()
    s0 = constant_state(m, 1.0, 0.2)
    mu_t = mass_mu(s0, m)
    res = solve_stationary(mu_t, 1.0, s0.chi, m)
    assert res.theta_inf > 0.0 and res.separation > 0.0

    cfg = stepper(0.01)
    s_inf = State(0.0, np.full(m.grid.n_nodes, res.u_inf), res.chi_inf.copy())
    s_new = run(m, cfg, s_inf, cfg.tau)[1]
    assert np.max(np.abs(s_new.u - s_inf.u)) <= 10.0 * cfg.newton_tol
    assert np.max(np.abs(s_new.chi - s_inf.chi)) <= 10.0 * cfg.newton_tol


def test_stationary_result_residuals_are_reproducible():
    m = coupled_model()
    s0 = constant_state(m, 1.0, 0.2)
    mu_t = mass_mu(s0, m)
    res = solve_stationary(mu_t, 1.0, s0.chi, m)
    v = m.phase_values(res.chi_inf)
    re_resid = measure_norm(v.implicit[0] - m.lagged_rhs(v, res.u_inf), m.masses.m_comb)
    re_gap = mass_gap(res.u_inf, res.chi_inf, mu_t, m, v)
    assert re_resid == pytest.approx(res.phase_residual, abs=1e-12)
    assert re_gap == pytest.approx(res.mass_gap, abs=1e-12)


def test_solve_stationary_translation_invariance():
    m = coupled_model()
    guess = preset_field(m.grid, "sinusoid", value=0.2, amplitude=0.15, kx=1)
    s0 = State(0.0, np.full(m.grid.n_nodes, -1.0), guess)
    mu_t = mass_mu(s0, m)
    res_a = solve_stationary(mu_t, 1.0, guess, m)
    res_b = solve_stationary(mu_t, 1.0, roll_x(m.grid, guess, 3), m)
    assert res_b.u_inf == pytest.approx(res_a.u_inf, rel=1e-9)
    assert np.max(np.abs(res_b.chi_inf - roll_x(m.grid, res_a.chi_inf, 3))) <= 1e-8


def test_solve_stationary_far_start_solves():
    """lambda = -10 puts the root at theta = 1/3; a start at theta0 = 1500, where
    the bracketing root find found no sign change, reaches it."""
    m = make_model(p_bulk=Potential("quartic", 0.0), l_bulk=LatentHeat(0.0, 0.0, -10.0))
    res = solve_stationary(-29.0, 1500.0, np.zeros(m.grid.n_nodes), m)
    assert res.theta_inf == pytest.approx(1.0 / 3.0, rel=1e-10)
    assert abs(res.mass_gap) <= 1e-12


def test_solve_stationary_coupled_needs_few_inner_solves(monkeypatch):
    """Two CG solves per pseudo-transient iteration (five iterations here), no
    MINRES solve, and none through the fixed-u phase solve."""
    m = coupled_model()
    s0 = constant_state(m, 1.0, 0.2)
    mu_t = mass_mu(s0, m)
    solves = []
    real = grid_ops.solve_spd
    monkeypatch.setattr(ts, "solve_spd", lambda *a, **k: solves.append(1) or real(*a, **k))
    monkeypatch.setattr(bn, "solve_minres", None)
    monkeypatch.setattr(st, "solve_chi_given_u", None)
    res = solve_stationary(mu_t, 1.0, s0.chi, m)
    assert abs(res.mass_gap) <= 1e-12 and res.phase_residual <= 1e-12
    assert 2 <= len(solves) <= 12 and len(solves) % 2 == 0


def test_bordered_newton_makes_one_minres_solve_per_iteration(monkeypatch):
    """The fallback loop alone, on the coupled case: one bordered MINRES solve per
    Newton iteration, no CG solve, and every linearization but the first is an
    accepted step."""
    m = coupled_model()
    s0 = constant_state(m, 1.0, 0.2)
    mu_t = mass_mu(s0, m)
    solves, points = [], []
    real_solve, real_point = bn.solve_minres, bn._point
    monkeypatch.setattr(bn, "solve_minres",
                        lambda *a, **k: solves.append(1) or real_solve(*a, **k))
    monkeypatch.setattr(bn, "_point", lambda *a: points.append(1) or real_point(*a))
    monkeypatch.setattr(ts, "solve_spd", None)
    res = bn.bordered_newton(s0.chi, -1.0, mu_t, m, 1.0e-12)
    assert abs(res.mass_gap) <= 1e-12 and res.phase_residual <= 1e-12
    assert 2 <= len(solves) <= 6 and len(points) == len(solves) + 1


def test_solve_stationary_names_both_loops_when_both_fail(monkeypatch):
    monkeypatch.setattr(st, "MAX_ATTEMPTS", 1)
    monkeypatch.setattr(bn, "MAX_ATTEMPTS", 1)
    m = coupled_model()
    s0 = constant_state(m, 1.0, 0.2)
    with pytest.raises(SolverError, match=r"did not converge in 1 attempts .*; bordered Newton "
                                          r"from the start: Newton did not reach tolerance in 1 "
                                          r"iterations"):
        solve_stationary(mass_mu(s0, m), 1.0, s0.chi, m)


def test_solve_stationary_reaches_the_saddle_a_stripe_run_lingers_at():
    """The acceptance stripe physics on 8x8 decays to chi near 0, a saddle, and at t = 30
    lingers there (chi = 0.00254 to 1.6e-7).  From that end state the pseudo-transient
    loop fails and the bordered Newton fallback reaches chi = 0 (to 1e-22)."""
    m = make_model(nx=8, ny=8, p_bulk=Potential("logarithmic", 1.0),
                   l_bulk=LatentHeat(1.0, 0.0, 0.0))
    chi0 = preset_field(m.grid, "tanh_stripe", amplitude=0.3, width=0.2)
    s0 = State(0.0, np.full(m.grid.n_nodes, -1.0), chi0)
    _, end = run(m, stepper(0.02, newton_tol=1.0e-12, cg_tol=1.0e-12), s0, 30.0)
    mu_t, theta0 = mass_mu(end, m), dm_mean(end.theta, m.masses)
    with pytest.raises(SolverError, match="stationary Newton did not converge"):
        st._pseudo_transient(end.chi, -1.0 / theta0, mu_t, m, 1.0e-12)
    res = solve_stationary(mu_t, theta0, end.chi, m)
    assert np.max(np.abs(res.chi_inf)) <= 1e-12
    assert res.theta_inf == pytest.approx(0.923415, abs=1e-6)


def test_omega_limit_report_exact_and_negative():
    m = coupled_model()
    s0 = constant_state(m, 1.0, 0.2)
    mu_t = mass_mu(s0, m)
    res = solve_stationary(mu_t, 1.0, s0.chi, m)

    exact = State(0.0, np.full(m.grid.n_nodes, res.u_inf), res.chi_inf.copy())
    rep = omega_limit_report(exact, res.mu_target, m)
    assert rep.converged
    assert rep.u_spatial_std <= 1e-12 and rep.mu_gap <= 1e-12
    assert abs(dm_mean(exact.u, m.masses) - res.u_inf) <= 1e-12

    theta0 = preset_field(m.grid, "sinusoid", value=1.0, amplitude=0.3, kx=1)
    far = State(0.0, -1.0 / theta0, preset_field(m.grid, "tanh_stripe",
                                                 amplitude=0.5, width=0.2))
    _, s_short = run(m, stepper(1e-3), far, 3e-3)
    rep2 = omega_limit_report(s_short, res.mu_target, m)
    assert not rep2.converged and rep2.u_spatial_std > 1e-6


def assert_step_fixed_point(res, m, tol):
    """Criterion 7's check: one step of run moves the steady state by at most 10 tol."""
    cfg = stepper(0.05, newton_tol=1.0e-12, cg_tol=1.0e-13)
    s_inf = State(0.0, np.full(m.grid.n_nodes, res.u_inf), res.chi_inf)
    s_new = run(m, cfg, s_inf, cfg.tau)[1]
    assert np.max(np.abs(s_new.u - s_inf.u)) <= 10.0 * tol
    assert np.max(np.abs(s_new.chi - s_inf.chi)) <= 10.0 * tol


# theta_inf of the delta = 3, a = 0.5 stripe saddles, from a dense Newton solve
SADDLE_THETA = {(8, 4): 0.897453, (16, 8): 0.888211}


@pytest.mark.parametrize("delta,a", [(delta, a) for delta in (1.0, 3.0)
                                     for a in (-1.0, -0.5, 0.0, 0.25, 0.5, 1.0)])
@pytest.mark.parametrize("nx,ny", [(8, 4), (16, 8)])
def test_solve_stationary_sweep(nx, ny, delta, a):
    """Logarithmic delta on bulk and boundary, latent -a r^2, a tanh stripe at
    theta0 = 1: the bracketing root find failed for delta = 3, a >= 0 and for
    delta = 1, a = 0.25 (CG on its clamped Jacobian, or Newton), and the
    pseudo-transient CG iteration fails on delta = 3, a = 0.5, a stripe saddle
    that the bordered Newton fallback reaches."""
    m = make_model(nx=nx, ny=ny, p_bulk=Potential("logarithmic", delta),
                   l_bulk=LatentHeat(a, 0.0, 0.0))
    chi0 = preset_field(m.grid, "tanh_stripe", amplitude=0.8, width=0.1)
    mu_t = mass_mu(State(0.0, np.full(m.grid.n_nodes, -1.0), chi0), m)
    res = solve_stationary(mu_t, 1.0, chi0, m, tol=1.0e-10)
    assert abs(res.mass_gap) <= 1.0e-10
    if (delta, a) == (3.0, 0.5):
        assert res.theta_inf == pytest.approx(SADDLE_THETA[nx, ny], abs=1e-6)
    assert_step_fixed_point(res, m, 1.0e-10)


def stationary_cli(tmp_path, monkeypatch, text):
    """pfstrip stationary on config text; returns the exit code and the
    (result, model) of the solve it ran."""
    solves = []
    real = io_cli.solve_stationary

    def spy(mu, theta0, guess, model, **kw):
        solves.append((real(mu, theta0, guess, model, **kw), model))
        return solves[-1][0]

    monkeypatch.setattr(io_cli, "solve_stationary", spy)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code = io_cli.cli_main(["stationary", "--config", str(cfg), "--output", str(tmp_path / "out")])
    return code, solves


def test_cli_stationary_latent_a_half_is_a_fixed_point(tmp_path, monkeypatch):
    """configs/example.cfg with latent a = +0.5 failed in CG on the clamped
    Jacobian; it lands on a stripe, chi in +-0.687."""
    with open(os.path.join(os.path.dirname(__file__), "..", "configs", "example.cfg")) as fh:
        text = fh.read()
    assert text.count(".a = -0.5") == 2
    code, solves = stationary_cli(tmp_path, monkeypatch, text.replace(".a = -0.5", ".a = 0.5"))
    assert code == 0
    (res, m), = solves
    assert res.theta_inf == pytest.approx(0.886921, abs=1e-6)
    assert_step_fixed_point(res, m, 1.0e-10)


def test_cli_stationary_near_the_wall(tmp_path, monkeypatch):
    """A steady state 1.16e-7 from the wall at theta = 2.5: the bracket's
    theta0/4 end put the phase root 1e-28 from it, where the guard box left
    a residual of 63.8.  Here the solve stops at the residual's round-off floor."""
    lines = ["domain.lx = 1.0", "domain.ly = 1.0", "domain.nx = 8", "domain.ny = 4",
             "time.dt = 0.001", "time.t_end = 0.05",
             "init.theta_kind = constant", "init.theta_value = 2.5",
             "init.chi_kind = constant", "init.chi_value = 0.999999884"]
    for part in ("bulk", "surf"):
        lines += [f"potential_{part}.kind = logarithmic", f"potential_{part}.delta = 0.5",
                  f"latent_{part}.a = 0.2", f"latent_{part}.b = -40.0", f"latent_{part}.c = 0.0"]
    code, solves = stationary_cli(tmp_path, monkeypatch, "\n".join(lines) + "\n")
    assert code == 0
    assert solves[0][0].theta_inf == pytest.approx(2.5, abs=1e-6)


def test_cli_stationary_quartic_stripe_is_a_fixed_point(tmp_path, monkeypatch):
    """configs/example.cfg with both potentials quartic: the pseudo-transient loop
    fails on it, and the bordered Newton fallback lands on the stripe chi in +-0.658019."""
    with open(os.path.join(os.path.dirname(__file__), "..", "configs", "example.cfg")) as fh:
        text = fh.read()
    assert text.count("kind = logarithmic") == 2
    code, solves = stationary_cli(tmp_path, monkeypatch,
                                  text.replace("kind = logarithmic", "kind = quartic"))
    assert code == 0
    (res, m), = solves
    assert res.theta_inf == pytest.approx(1.128434, abs=1e-6)
    assert res.separation == pytest.approx(1.0 - 0.658019, abs=1e-6)
    assert_step_fixed_point(res, m, 1.0e-10)


# Sweep configs that the pseudo-transient loop solves and plain bordered Newton,
# started from the same point, does not ("MINRES stagnated"), with the parent
# loop's theta_inf.
FAR_STARTS = [
    ("logarithmic", 0.5, 0.5, 0.5, "stripe8", 0.2, 6.7246410096410281e-01),
    ("logarithmic", 3.0, -1.0, 2.0, "sin", 1.0, 2.3203077297448798e+00),
    ("quartic", 0.5, 0.0, 0.5, "rand", 3.0, 3.4459860433855272e+00),
    ("quartic", 3.0, -1.0, 2.0, "sin", 3.0, 3.8843766324599378e+00),
]
INITS = {"stripe8": ["init.chi_kind = tanh_stripe", "init.chi_amplitude = 0.8",
                     "init.chi_width = 0.1"],
         "sin": ["init.chi_kind = sinusoid", "init.chi_amplitude = 0.5", "init.chi_value = 0.1"],
         "rand": ["init.chi_kind = random", "init.chi_amplitude = 0.5", "init.seed = 3"]}


@pytest.mark.parametrize("kind,delta,a,b,init,theta0,theta_inf", FAR_STARTS)
def test_cli_stationary_far_starts_still_solve(tmp_path, monkeypatch, kind, delta, a, b, init,
                                               theta0, theta_inf):
    lines = ["domain.lx = 1.0", "domain.ly = 1.0", "domain.nx = 8", "domain.ny = 4",
             "time.dt = 0.001", "time.t_end = 0.05", "init.theta_kind = constant",
             f"init.theta_value = {theta0}"] + INITS[init]
    for part in ("bulk", "surf"):
        lines += [f"potential_{part}.kind = {kind}", f"potential_{part}.delta = {delta}",
                  f"latent_{part}.a = {a}", f"latent_{part}.b = {b}", f"latent_{part}.c = 0.0"]
    code, solves = stationary_cli(tmp_path, monkeypatch, "\n".join(lines) + "\n")
    assert code == 0
    assert solves[0][0].theta_inf == pytest.approx(theta_inf, abs=1e-9)


def test_stationary_sweep_lists_2160_configs_with_the_far_starts():
    """tools/stationary_sweep.py, whose full run (28-37 s) stays out of this suite, lists
    2160 distinct configs, the four far starts above among them, written as that test
    writes them."""
    spec = importlib.util.spec_from_file_location("stationary_sweep", os.path.join(
        os.path.dirname(__file__), "..", "tools", "stationary_sweep.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    texts = set(tool.configs().values())
    assert len(tool.configs()) == len(texts) == 2160
    for kind, delta, a, b, init, theta0, _ in FAR_STARTS:
        lines = ["domain.lx = 1.0", "domain.ly = 1.0", "domain.nx = 8", "domain.ny = 4",
                 "time.dt = 0.001", "time.t_end = 0.05", "init.theta_kind = constant",
                 f"init.theta_value = {theta0}"] + INITS[init]
        for part in ("bulk", "surf"):
            lines += [f"potential_{part}.kind = {kind}", f"potential_{part}.delta = {delta}",
                      f"latent_{part}.a = {a}", f"latent_{part}.b = {b}",
                      f"latent_{part}.c = 0.0"]
        assert "\n".join(lines) + "\n" in texts
