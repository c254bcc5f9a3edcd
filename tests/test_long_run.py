"""The long-run limit, cross-checked: the stationary solver, started from the end of a
long run, returns that end state.  Criterion 6 of the acceptance suite checks only the
residuals of a run's end, and criterion 7 that a stationary state is a fixed point of one
step; here the two layers meet."""

import numpy as np
import pytest

from helpers import make_model, stepper
from pfstrip.functionals import State, dm_mean, mass_mu
from pfstrip.potentials import LatentHeat, Potential
from pfstrip.stationary import solve_stationary
from pfstrip.timestepper import preset_field, run


@pytest.mark.parametrize("a", [-1.0, 1.0])
@pytest.mark.parametrize("nx,ny", [(8, 4), (16, 8)])
def test_solve_stationary_returns_the_end_of_a_long_run(nx, ny, a):
    """Logarithmic delta = 1 with latent -a r^2 from seeded random chi0 and theta0, run to
    T = 30 at tau = 0.02: at a = -1 the run ends at chi = 0 (to 2e-13), at a = +1 on a
    state with |chi| up to 0.67.  solve_stationary at the initial mass, from the end's chi
    and the dm-mean of its theta, returns the end's chi and u to within 1e-8: the gaps are
    at most 6.1e-13 at a = -1 and 5.0e-10 at a = +1."""
    m = make_model(nx=nx, ny=ny, p_bulk=Potential("logarithmic", 1.0),
                   l_bulk=LatentHeat(a, 0.0, 0.0))
    chi0 = preset_field(m.grid, "random", amplitude=0.5, seed=1)
    theta0 = preset_field(m.grid, "random", value=1.0, amplitude=0.3, seed=2)
    s0 = State(0.0, -1.0 / theta0, chi0)
    _, end = run(m, stepper(0.02, newton_tol=1.0e-12, cg_tol=1.0e-12), s0, 30.0)
    res = solve_stationary(mass_mu(s0, m), dm_mean(end.theta, m.masses), end.chi, m)
    assert np.max(np.abs(res.chi_inf - end.chi)) <= 1.0e-8
    assert np.max(np.abs(res.u_inf - end.u)) <= 1.0e-8
