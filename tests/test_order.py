"""Observed order of accuracy in space and in time, by self-convergence (Richardson).

The scheme is second order in h and first order in tau.  The data are smooth,
chi_0 = 0.3 cos 2 pi x cos pi y + 0.1 sin 2 pi x and theta_0 = 1 + 0.2 cos 2 pi x, with
a logarithmic bulk potential at delta = 1 and latent heat a = 1.  The vertex-centred
grids nest, so each finer solution is sampled at the nodes of the coarsest grid, and
the observed order of three solutions is log2 of the ratio of their two successive
max differences.  The boundary rows, where the dynamic boundary condition lives with
its own half-cell and surface weights, are measured apart from the interior rows.
"""

import math

import numpy as np

from helpers import make_model, stepper
from pfstrip.functionals import State
from pfstrip.potentials import LatentHeat, Potential
from pfstrip.timestepper import run

LOG_1 = Potential("logarithmic", 1.0)
LAW_SETS = {
    "shared": {},
    "unshared": {"p_surf": Potential("logarithmic", 0.5), "l_surf": LatentHeat(0.5, 0.2, 0.0)},
    "quartic bulk": {"p_bulk": Potential("quartic", 1.0), "p_surf": LOG_1},
}


def final_fields(n: int, tau: float, t_end: float, laws: dict) -> dict:
    """chi and u on the n x n grid at t_end, each as a (n+1, n) array."""
    model = make_model(nx=n, ny=n, **{"p_bulk": LOG_1, "l_bulk": LatentHeat(1.0), **laws})
    x, y = model.grid.x, model.grid.y
    chi = 0.3 * np.cos(2 * math.pi * x) * np.cos(math.pi * y) + 0.1 * np.sin(2 * math.pi * x)
    theta = 1.0 + 0.2 * np.cos(2 * math.pi * x)
    cfg = stepper(tau, newton_tol=1e-12, cg_tol=1e-12)
    s = run(model, cfg, State(0.0, -1.0 / theta, chi), t_end)[1]
    return {"chi": model.grid.reshape(s.chi), "u": model.grid.reshape(s.u)}


def observed_orders(solutions: list) -> dict:
    """log2(d_coarse / d_fine) per field and row set, for three solutions from the coarsest
    to the finest, each refined twice over the one before."""
    n = solutions[0]["u"].shape[1]
    orders = {}
    for name in ("chi", "u"):
        z = []
        for sol in solutions:
            k = sol[name].shape[1] // n   # every k-th node is a node of the coarsest grid
            z.append(sol[name][::k, ::k])
        for rows, pick in (("interior", slice(1, -1)), ("boundary", [0, -1])):
            d = [np.abs(a - b)[pick].max() for a, b in zip(z, z[1:])]
            orders[name, rows] = math.log2(d[0] / d[1])
    return orders


def test_observed_order_in_space_and_time():
    """Space: 16^2, 32^2 and 64^2 at tau = 2.5e-3 and t = 0.05 for each law set (the
    orders match those at tau = 1e-3 to 0.001, at less than half the steps); time: 16^2
    at tau = 4e-3, 2e-3 and 1e-3 and t = 0.1.  The orders measured were 2.008-2.015 in
    space and 1.04-1.06 in time."""
    low = {}
    for label, laws in LAW_SETS.items():
        space = observed_orders([final_fields(n, 2.5e-3, 0.05, laws) for n in (16, 32, 64)])
        low.update({("space", label, *key): p for key, p in space.items() if p < 1.9})
    time = observed_orders([final_fields(16, tau, 0.1, {}) for tau in (4e-3, 2e-3, 1e-3)])
    low.update({("time", *key): p for key, p in time.items() if p < 0.9})
    assert not low, low
