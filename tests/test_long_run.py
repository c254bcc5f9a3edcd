"""The long-run limit, cross-checked: the stationary solver, started from the end of a
long run, returns that end state, and the run approaches it at the rate its linearization
predicts.  Criterion 6 of the acceptance suite checks only the residuals of a run's end,
and criterion 7 that a stationary state is a fixed point of one step; here the two layers
meet."""

import functools
import math

import numpy as np
import pytest
import scipy.linalg

from helpers import make_model, stepper
from pfstrip.functionals import State, dm_mean, mass_mu
from pfstrip.potentials import LatentHeat, Potential
from pfstrip.stationary import _linearization, solve_stationary
from pfstrip.timestepper import preset_field, run

TAU = 0.02


@functools.cache
def long_run(nx, ny, a):
    """Logarithmic delta = 1 with latent -a r^2 from seeded random chi0 and theta0, run to
    T = 30 at tau = 0.02 with newton_tol = cg_tol = 1e-12, and solve_stationary at the
    initial mass, from the end's chi and the dm-mean of its theta.  Returns the model, the
    states of every step and the stationary result."""
    m = make_model(nx=nx, ny=ny, p_bulk=Potential("logarithmic", 1.0),
                   l_bulk=LatentHeat(a, 0.0, 0.0))
    chi0 = preset_field(m.grid, "random", amplitude=0.5, seed=1)
    theta0 = preset_field(m.grid, "random", value=1.0, amplitude=0.3, seed=2)
    s0 = State(0.0, -1.0 / theta0, chi0)
    states = []
    _, end = run(m, stepper(TAU, newton_tol=1.0e-12, cg_tol=1.0e-12), s0, 30.0,
                 snapshot_every=1, on_snapshot=lambda step, s: states.append(s))
    res = solve_stationary(mass_mu(s0, m), dm_mean(end.theta, m.masses), end.chi, m)
    return m, states, res


@pytest.mark.parametrize("a", [-1.0, 1.0])
@pytest.mark.parametrize("nx,ny", [(8, 4), (16, 8)])
def test_solve_stationary_returns_the_end_of_a_long_run(nx, ny, a):
    """At a = -1 the run ends at chi = 0 (to 2e-13), at a = +1 on a state with |chi| up to
    0.67.  The stationary solve of long_run returns the end's chi and u to within 1e-8: the
    gaps are at most 6.1e-13 at a = -1 and 5.0e-10 at a = +1."""
    _, states, res = long_run(nx, ny, a)
    end = states[-1]
    assert np.max(np.abs(res.chi_inf - end.chi)) <= 1.0e-8
    assert np.max(np.abs(res.u_inf - end.u)) <= 1.0e-8


@pytest.mark.parametrize("a", [-1.0, 1.0])
@pytest.mark.parametrize("nx,ny", [(8, 4), (16, 8)])
def test_long_run_decays_at_the_rate_of_its_linearization(nx, ny, a):
    """The run of long_run approaches its stationary state y = (chi, u) at the exponential
    rate ln(1 + tau sigma) / tau of a backward-Euler step, within 2%.  sigma is the slowest
    nonzero eigenvalue of the dense linearized pencil B y' = -L y at that state,
    L = [[J, -diag(b)], [0, K]], B = [[M, 0], [diag(b), M / u^2]], with J the stationary
    Jacobian K + diag(d), M = diag(m_comb) and b = m lambda'(chi); its zero eigenvalue is
    the conserved mass.  The rate is fitted to log ||y_n - y|| in L^2(dm) where that
    distance lies in [1e-8, 1e-4], above the solver tolerances.  The fits are within 5e-8
    at a = -1, where chi = 0 gives b = 0 and the pencil decouples, and 0.7% below at
    a = +1, where b != 0 and the phase step lags its coupling lambda'(chi_n) u_n."""
    m, states, res = long_run(nx, ny, a)
    mc, n = m.masses.m_comb, m.grid.n_nodes
    _, d, _, v = _linearization(res.chi_inf, res.u_inf, m)
    k, b = m.stiffness.matrix.toarray(), m._compose(v.bulk.lamp, v.surf.lamp)
    big_l = np.block([[k + np.diag(d), -np.diag(b)], [np.zeros((n, n)), k]])
    big_b = np.block([[np.diag(mc), np.zeros((n, n))],
                      [np.diag(b), np.diag(mc / res.u_inf ** 2)]])
    sigma = scipy.linalg.eigvals(big_l, big_b)
    zero = np.abs(sigma) <= 1.0e-8
    slowest = sigma[~zero][np.argmin(sigma[~zero].real)]
    assert zero.sum() == 1 and slowest.imag == 0.0 and slowest.real > 0.0
    t = np.array([s.t for s in states])
    dist = np.array([math.sqrt(mc.dot((s.chi - res.chi_inf) ** 2)
                               + mc.dot((s.u - res.u_inf) ** 2)) for s in states])
    tail = (dist >= 1.0e-8) & (dist <= 1.0e-4)
    assert tail.sum() >= 200
    rate = -np.polyfit(t[tail], np.log(dist[tail]), 1)[0]
    want = math.log1p(TAU * slowest.real) / TAU
    assert abs(rate - want) <= 0.02 * want, (rate, want)
