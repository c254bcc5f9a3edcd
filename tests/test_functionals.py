"""State container and the scalar functionals over the combined measure."""

import math
import os
from itertools import pairwise

import numpy as np
import pytest

import oracles
from helpers import constant_state, make_model, roll_x, stepper
import pfstrip.functionals as fn
from pfstrip.errors import DomainError
from pfstrip.functionals import (DiagnosticsRow, State, dissipation_increment, dm_mean,
                                 dm_std, energy, energy_identity_residual,
                                 entropy, mass_mu, row_functionals)
from pfstrip.io_cli import build_stepper_config, load_config, validate_config
from pfstrip.potentials import LatentHeat, Potential
from pfstrip.stationary import mass_gap
from pfstrip.timestepper import preset_field, run


def random_state(model, rng, theta_span=(0.5, 2.0), chi_span=(-0.8, 0.8)):
    n = model.grid.n_nodes
    theta = rng.uniform(*theta_span, size=n)
    chi = rng.uniform(*chi_span, size=n)
    return State(0.0, -1.0 / theta, chi)


def test_state_theta_roundtrip():
    m = make_model()
    s = constant_state(m, 2.0, 0.1)
    assert np.allclose(s.theta, 2.0, rtol=1e-15)


def test_state_theta_is_formed_once():
    """theta = -1/u is one array per state: the diagnostics row, the heat step from
    the state and its snapshot all read the same one."""
    s = constant_state(make_model(), 2.0, 0.1)
    assert s.theta is s.theta


def test_state_validate_rejects_bad_fields():
    m = make_model()
    s = constant_state(m, 1.0, 0.0)
    s.validate(m)
    with pytest.raises(DomainError):
        State(0.0, np.abs(s.u), s.chi).validate(m)
    with pytest.raises(DomainError):
        State(0.0, s.u, np.full_like(s.chi, 1.5)).validate(m)
    bad = s.u.copy()
    bad[3] = np.nan
    with pytest.raises(DomainError):
        State(0.0, bad, s.chi).validate(m)
    # quartic bulk, logarithmic surface: |chi| > 1 is admissible on interior rows only
    mixed = make_model(p_bulk=Potential("quartic", 1.0), p_surf=Potential("logarithmic", 1.0))
    chi = s.chi.copy()
    chi[mixed.grid.nx + 1] = 1.5   # row 1, an interior row
    State(0.0, s.u, chi).validate(mixed)
    chi[mixed.grid.boundary[-1]] = 1.5
    with pytest.raises(DomainError, match="boundary phase field leaves the surface"):
        State(0.0, s.u, chi).validate(mixed)


def test_dm_mean_and_std_constants():
    m = make_model()
    v = np.full(m.grid.n_nodes, 0.7)
    assert dm_mean(v, m.masses) == pytest.approx(0.7, rel=1e-14)
    assert dm_std(v, m.masses) <= 1e-14


def test_mass_constant_examples():
    lz = LatentHeat(0.0, 0.0, 0.0)
    m = make_model(nx=8, ny=4, l_bulk=lz)
    s = constant_state(m, 1.0, 0.0)
    assert mass_mu(s, m) == pytest.approx(3.0, rel=1e-14)
    m2 = make_model(nx=8, ny=4, l_bulk=LatentHeat(0.0, 0.0, 1.0),
                    l_surf=LatentHeat(0.0, 0.0, 2.0))
    s2 = constant_state(m2, 1.0, 0.0)
    # 3 + 1*(lx*ly) + 2*(2*lx)
    assert mass_mu(s2, m2) == pytest.approx(8.0, rel=1e-14)


def test_mass_matches_summation_oracle(rng):
    m = make_model(nx=16, ny=16, l_bulk=LatentHeat(0.7, -0.3, 0.2),
                   l_surf=LatentHeat(-0.4, 0.1, 1.0))
    s = random_state(m, rng)
    ref = oracles.mass_oracle(m.grid, s.theta, s.chi, m.l_bulk, m.l_surf)
    assert mass_mu(s, m) == pytest.approx(ref, rel=1e-12)


def test_mass_without_latent_is_theta_mean(rng):
    m = make_model(nx=8, ny=6)
    s = random_state(m, rng)
    ref = float(np.sum(m.masses.m_comb * s.theta))
    assert mass_mu(s, m) == pytest.approx(ref, rel=1e-14)


def test_energy_constant_examples():
    m = make_model(nx=8, ny=4)
    s = constant_state(m, 1.0, 0.0)
    assert energy(s, m) == pytest.approx(3.0, rel=1e-14)
    m2 = make_model(nx=8, ny=4, l_bulk=LatentHeat(0.0, 0.0, 1.0),
                    l_surf=LatentHeat(0.0, 0.0, 0.0))
    assert energy(s, m2) == pytest.approx(4.0, rel=1e-14)


def test_energy_matches_summation_oracle(rng):
    m = make_model(nx=16, ny=8, p_bulk=Potential("logarithmic", 1.5),
                   p_surf=Potential("logarithmic", 0.5),
                   l_bulk=LatentHeat(0.6, 0.1, -0.2), l_surf=LatentHeat(0.2, 0.0, 0.3))
    g = m.grid
    s = State(0.0, -1.0 / (1.0 + 0.3 * np.sin(2.0 * np.pi * g.x)),
              0.4 * np.sin(2.0 * np.pi * g.x) * np.cos(np.pi * g.y))
    ref = oracles.energy_oracle(g, s.theta, s.chi, m.p_bulk, m.p_surf,
                                m.l_bulk, m.l_surf)
    val = energy(s, m)
    assert val == pytest.approx(ref, rel=1e-12)


def test_energy_rejects_invalid_state():
    m = make_model()
    s = constant_state(m, 1.0, 0.0)
    bad = State(0.0, -s.u, s.chi)
    with pytest.raises(DomainError):
        energy(bad, m)


def test_entropy_constant_examples():
    m = make_model(nx=8, ny=4)
    assert abs(entropy(constant_state(m, 1.0, 0.0), m)) <= 1e-14
    assert entropy(constant_state(m, math.e, 0.0), m) == pytest.approx(3.0, rel=1e-13)


def test_entropy_matches_summation_oracle(rng):
    m = make_model(nx=16, ny=8, p_bulk=Potential("quartic", 2.0),
                   p_surf=Potential("quartic", 1.0))
    s = random_state(m, rng, chi_span=(-1.5, 1.5))
    ref = oracles.entropy_oracle(m.grid, s.theta, s.chi, m.p_bulk, m.p_surf)
    val = entropy(s, m)
    assert val == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("kind", ["logarithmic", "quartic"])
def test_energy_is_mass_minus_entropy(kind, rng):
    p = Potential(kind, 1.3)
    m = make_model(nx=12, ny=6, p_bulk=p, l_bulk=LatentHeat(0.5, -0.2, 0.4))
    for _ in range(5):
        s = random_state(m, rng)
        e = energy(s, m)
        mu = mass_mu(s, m)
        ent = entropy(s, m)
        assert e == pytest.approx(mu - ent, rel=1e-12)


@pytest.mark.parametrize("p_bulk,p_surf,span", [
    (Potential("logarithmic", 1.5), Potential("logarithmic", 0.5), 0.95),
    (Potential("quartic", 2.0), Potential("quartic", 1.0), 1.5),
    (Potential("quartic", 0.7), Potential("logarithmic", 1.2), 0.95),
])
def test_row_functionals_match_separate_functionals_and_oracles(p_bulk, p_surf, span, rng):
    m = make_model(nx=16, ny=8, p_bulk=p_bulk, p_surf=p_surf,
                   l_bulk=LatentHeat(0.6, 0.1, -0.2), l_surf=LatentHeat(-0.3, 0.2, 0.4))
    g = m.grid
    for _ in range(3):
        s = random_state(m, rng, chi_span=(-span, span))
        mu, e, ent = row_functionals(s, m)
        assert mu == pytest.approx(mass_mu(s, m), rel=1e-13)
        assert e == pytest.approx(energy(s, m), rel=1e-13)
        assert ent == pytest.approx(entropy(s, m), rel=1e-13)
        theta = s.theta
        assert mu == pytest.approx(
            oracles.mass_oracle(g, theta, s.chi, m.l_bulk, m.l_surf), rel=1e-13)
        assert e == pytest.approx(oracles.energy_oracle(
            g, theta, s.chi, m.p_bulk, m.p_surf, m.l_bulk, m.l_surf), rel=1e-13)
        assert ent == pytest.approx(
            oracles.entropy_oracle(g, theta, s.chi, m.p_bulk, m.p_surf), rel=1e-13)


def test_functionals_invariant_under_x_translation(rng):
    m = make_model(nx=12, ny=6, l_bulk=LatentHeat(0.4, 0.1, 0.0))
    s = random_state(m, rng)
    shifted = State(0.0, roll_x(m.grid, s.u, 5), roll_x(m.grid, s.chi, 5))
    assert energy(shifted, m) == pytest.approx(energy(s, m), rel=1e-12)
    assert entropy(shifted, m) == pytest.approx(entropy(s, m), rel=1e-12)
    assert mass_mu(shifted, m) == pytest.approx(mass_mu(s, m), rel=1e-12)


def test_dissipation_trivial_cases():
    m = make_model(nx=8, ny=4)
    n = m.grid.n_nodes
    chi = np.full(n, 0.2)
    u = np.full(n, -1.0)
    assert dissipation_increment(u, chi, chi, 0.1, m) == 0.0
    tau = 0.25
    val = dissipation_increment(np.zeros(n), chi, chi + tau, tau, m)
    assert val == pytest.approx(tau * 3.0, rel=1e-13)


def test_dissipation_matches_summation_oracle(rng):
    m = make_model(nx=10, ny=6)
    n = m.grid.n_nodes
    u = -np.exp(rng.standard_normal(n))
    chi_old = rng.uniform(-0.5, 0.5, size=n)
    chi_new = chi_old + 0.01 * rng.standard_normal(n)
    tau = 0.02
    ref = oracles.dissipation_oracle(m.grid, u, chi_old, chi_new, tau)
    val = dissipation_increment(u, chi_old, chi_new, tau, m)
    assert val == pytest.approx(ref, rel=1e-12)


def _row(step, t, e, diss, src):
    return DiagnosticsRow(step=step, t=t, mu=0.0, energy=e, entropy=0.0,
                          dissipation_cum=diss, source_cum=src,
                          energy_id_residual=0.0, theta_min=1.0, theta_max=1.0,
                          chi_min=0.0, chi_max=0.0, u_spatial_std=0.0,
                          newton_iters_chi=0, newton_iters_theta=0)


def test_energy_identity_residual_trivial_rows():
    assert energy_identity_residual([_row(0, 0.0, 5.0, 0.0, 0.0)]) == 0.0
    rows = [_row(0, 0.0, 5.0, 0.0, 0.0), _row(1, 0.1, 5.0, 0.0, 0.0)]
    assert energy_identity_residual(rows) == 0.0
    rows = [_row(0, 0.0, 5.0, 0.0, 0.0), _row(1, 0.1, 4.2, 0.5, -0.1)]
    assert energy_identity_residual(rows) == pytest.approx(4.2 + 0.5 - 5.0 + 0.1, rel=1e-14)


def test_energy_identity_residual_is_first_order_in_tau():
    m = make_model(nx=16, ny=8, l_bulk=LatentHeat(0.5, 0.2, 0.0))
    g = m.grid
    theta0 = preset_field(g, "sinusoid", value=1.0, amplitude=0.2, kx=1)
    chi0 = preset_field(g, "tanh_stripe", amplitude=0.4, width=0.25)
    s0 = State(0.0, -1.0 / theta0, chi0)
    resid = {}
    for tau, nsteps in ((2e-3, 100), (1e-3, 200)):
        rows, _ = run(m, stepper(tau), s0, tau * nsteps)
        resid[tau] = rows[-1].energy_id_residual
    assert 1.5 <= resid[2e-3] / resid[1e-3] <= 2.7


@pytest.mark.parametrize("p_bulk,p_surf,l_bulk,l_surf", [
    (Potential("logarithmic", 1.0), None, LatentHeat(1.0, 0.0, 0.0), None),
    (Potential("quartic", 2.0), None, LatentHeat(0.3, 0.2, 0.0), None),
    (Potential("quartic", 2.0), Potential("logarithmic", 0.5),
     LatentHeat(0.3, 0.2, 0.1), LatentHeat(-0.5, 0.3, 0.0)),
])
def test_energy_identity_closes_at_every_step(p_bulk, p_surf, l_bulk, l_surf):
    """Without a source, each step's R_n = E(n+1) + D(n+1) - E(n) from run's rows equals
    the closed form of oracles.energy_remainder_oracle, at a small and a large step.  The
    closed form holds for the exact discrete solution, so both solves go to 1e-12: at the
    default 1e-10 the Newton stop alone leaves up to 3.4e-10 of R_n."""
    m = make_model(nx=16, ny=8, p_bulk=p_bulk, p_surf=p_surf, l_bulk=l_bulk, l_surf=l_surf)
    g = m.grid
    theta0 = preset_field(g, "random", value=1.0, amplitude=0.3, seed=3)
    s0 = State(0.0, -1.0 / theta0, preset_field(g, "random", amplitude=0.6, seed=4))
    for tau in (1e-3, 0.1):
        states = []
        rows, _ = run(m, stepper(tau, newton_tol=1e-12, cg_tol=1e-12), s0, 10 * tau,
                      snapshot_every=1, on_snapshot=lambda step, s: states.append(s))
        for (a, s_a), (b, s_b) in pairwise(zip(rows, states, strict=True)):
            r_n = b.energy + (b.dissipation_cum - a.dissipation_cum) - a.energy
            r_dec = oracles.energy_remainder_oracle(g, s_a.u, s_a.chi, s_b.u, s_b.chi,
                                                    m.p_bulk, m.p_surf, m.l_bulk, m.l_surf)
            assert abs(r_n - r_dec) <= 1e-10 * abs(r_n) + 1e-14 * (1.0 + abs(b.energy)), \
                (tau, b.step, r_n, r_dec)


def test_boundary_index_split_matches_surface_mask_bitwise(monkeypatch):
    """The functionals split off the boundary rows through the model's
    grid.boundary and ms_bnd; on configs/example.cfg every diagnostics row and
    mass gap equals, bit for bit, the split through the mask m_surf > 0 that
    the index replaced."""
    c = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "example.cfg"))
    report = validate_config(c)
    m = report.model
    assert np.array_equal(m.grid.boundary, np.flatnonzero(m.masses.m_surf > 0.0))

    def diagnostics():
        rows, final = run(m, build_stepper_config(c), report.initial_state, c.time.t_end,
                          source=report.source)
        at = m.phase_values(final.chi)
        gaps = [mass_gap(u, final.chi, rows[0].mu, m, at) for u in (-2.0, -1.0, -0.5)]
        return rows, gaps

    by_index = diagnostics()

    def integral_by_mask(model, bulk, surf):
        masses = model.masses
        mask = masses.m_surf > 0.0
        surf = bulk[mask] if surf is None else surf
        return sum((float(masses.m_bulk @ bulk), float(masses.m_surf[mask] @ surf)))

    assert all(m.shared)   # so every surface density is split off by _integral
    monkeypatch.setattr(fn, "_integral", integral_by_mask)
    assert diagnostics() == by_index
