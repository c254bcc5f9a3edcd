"""Workload definitions: seeded config text for each benchmark workload.

Every workload is a pfstrip config generated from the seed, so the program
receives only a config (and, for ``stripe_96``, an initial phase array built
from it).  ``full`` is the measured size; ``tiny`` is the smoke-test size.
"""

from __future__ import annotations

import math
import random

NAMES = ("stripe_96", "homog_8x4", "cli_snapshots", "stationary_96")

# (nx, ny, time steps) of one operation; stationary_96 takes no time steps.
# An operation is one fresh worker process; a run repeats operations until
# its time budget is spent.
SIZES = {
    "full": {"stripe_96": (96, 96, 40), "homog_8x4": (8, 4, 2000),
             "cli_snapshots": (32, 16, 150), "stationary_96": (96, 96, 0)},
    "tiny": {"stripe_96": (16, 16, 6), "homog_8x4": (8, 4, 40),
             "cli_snapshots": (8, 4, 6), "stationary_96": (16, 16, 0)},
}

STATIONARY_TOL = 1.0e-12


def _cfg(**keys) -> str:
    """Render `section__key=value` keyword pairs as config lines."""
    lines = []
    for key, value in keys.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key.replace('__', '.')} = {value}")
    return "\n".join(lines) + "\n"


def _physics(delta: float, a_bulk: float, a_surf: float | None = None,
             b_surf: float = 0.0) -> dict:
    """Logarithmic potential with one delta on bulk and boundary, latent -a r^2 + b r."""
    a_surf = a_bulk if a_surf is None else a_surf
    return dict(potential_bulk__kind="logarithmic", potential_bulk__delta=delta,
                potential_surf__kind="logarithmic", potential_surf__delta=delta,
                latent_bulk__a=a_bulk, latent_bulk__b=0.0, latent_bulk__c=0.0,
                latent_surf__a=a_surf, latent_surf__b=b_surf, latent_surf__c=0.0)


def config_text(workload: str, seed: int, size: str, out_dir: str) -> str:
    """The pfstrip config of one workload operation."""
    nx, ny, steps = SIZES[size][workload]
    if workload == "stripe_96":
        return _cfg(domain__lx=1.0, domain__ly=1.0, domain__nx=nx, domain__ny=ny,
                    time__dt=1.0e-3, time__t_end=steps * 1.0e-3,
                    **_physics(1.0, 1.0),
                    init__theta_kind="constant", init__theta_value=1.0,
                    init__chi_kind="tanh_stripe", init__chi_value=0.0,
                    init__chi_amplitude=0.3, init__chi_width=0.2,
                    output__dir=out_dir)
    if workload == "homog_8x4":
        # The criterion-4 data, moved by the seed within +-1e-3.  Over wider
        # ranges the heat solve takes 1 or 2 Newton iterations per step
        # depending on the exact constants, so the work would change by seed.
        rng = random.Random(seed)
        theta0 = 2.0 + 2.0e-3 * (rng.random() - 0.5)
        chi0 = 0.3 + 2.0e-3 * (rng.random() - 0.5)
        return _cfg(domain__lx=1.0, domain__ly=1.0, domain__nx=nx, domain__ny=ny,
                    time__dt=1.0e-4, time__t_end=steps * 1.0e-4,
                    **_physics(1.8628, 0.2),
                    init__theta_kind="constant", init__theta_value=theta0,
                    init__chi_kind="constant", init__chi_value=chi0,
                    solver__cg_tol=1.0e-12, output__dir=out_dir)
    if workload == "cli_snapshots":
        return _cfg(domain__lx=1.0, domain__ly=1.0, domain__nx=nx, domain__ny=ny,
                    time__dt=1.0e-3, time__t_end=steps * 1.0e-3,
                    time__snapshot_every=1,
                    **_physics(3.0, -0.5),
                    init__theta_kind="random", init__theta_value=1.0,
                    init__theta_amplitude=0.1,
                    init__chi_kind="tanh_stripe", init__chi_amplitude=0.8,
                    init__chi_width=0.1, init__seed=seed,
                    output__dir=out_dir, output__write_pgm=True)
    if workload == "stationary_96":
        return _cfg(domain__lx=1.0, domain__ly=1.0, domain__nx=nx, domain__ny=ny,
                    time__dt=1.0e-3, time__t_end=0.0,
                    **_physics(1.0, -1.0, -1.0, 0.5),
                    init__theta_kind="constant", init__theta_value=1.0,
                    init__chi_kind="random", init__chi_amplitude=0.3,
                    init__seed=seed,
                    solver__newton_tol=STATIONARY_TOL, output__dir=out_dir)
    raise ValueError(f"unknown workload '{workload}'")


def probe_config_text(out_dir: str) -> str:
    """configs/example.cfg physics with latent a = +0.5 on bulk and boundary.

    `pfstrip check` accepts it, but `pfstrip stationary` fails in the inner
    CG on the clamped Jacobian.  The stationary workload runs it as a probe
    so the defect stays visible until it is fixed.
    """
    return _cfg(domain__lx=1.0, domain__ly=1.0, domain__nx=32, domain__ny=16,
                time__dt=1.0e-3, time__t_end=0.05,
                **_physics(3.0, 0.5),
                init__theta_kind="constant", init__theta_value=1.0,
                init__chi_kind="tanh_stripe", init__chi_amplitude=0.8,
                init__chi_width=0.1, output__dir=out_dir)


def stripe_perturbation(x, y, lx: float, ly: float, seed: int, amplitude: float = 0.01):
    """Smooth seeded perturbation of the stripe: a few low Fourier modes, peak `amplitude`.

    x and y are numpy arrays of node coordinates; the result has their shape.
    """
    import numpy as np

    rng = random.Random(seed)
    field = np.zeros_like(x)
    for mx in range(1, 4):
        for my in range(0, 4):
            coef = rng.gauss(0.0, 1.0) / (1.0 + mx * mx + my * my)
            phase = 2.0 * math.pi * rng.random()
            field += coef * np.cos(2.0 * math.pi * mx * x / lx + phase) \
                * np.cos(math.pi * my * y / ly)
    return field * (amplitude / float(np.max(np.abs(field))))
