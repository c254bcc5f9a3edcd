"""Run `pfstrip stationary` in-process on 2160 configs and count the solves.

    python3 tools/stationary_sweep.py [--loop both|pseudo-transient|bordered] [SRC_DIR] > sweep.json

The grid: 8x4 and 16x8 on the unit square; both potentials logarithmic or
both quartic, delta in {0.5, 1, 3}; the same latent heat -a r^2 + b r + c on
bulk and surface, a in {-1, -0.5, 0, 0.5, 1}, b in {0, 0.5, 2}, c = 0; a constant
initial temperature theta0 in {0.2, 1, 3}; four initial phases: tanh stripes
of amplitude 0.3 and width 0.2 (stripe3) and of amplitude 0.8 and width 0.1
(stripe8), the sinusoid 0.1 + 0.5 cos (sin) and random data of amplitude
0.5 at seed 3 (rand).  The solver keys keep their defaults, so the stationary
tolerance is 1e-10.

--loop picks the solver behind the command: `both` is solve_stationary as it
ships, `pseudo-transient` its first loop alone and `bordered` the bordered
Newton fallback alone, each from the command's own start.  stdout gets one
JSON object: per config theta_inf and the mass gap, or the exit code and the
error; stderr gets the count of solved configs.  pfstrip comes from SRC_DIR
(default src), so the diff of two trees' outputs shows each config a change
moved.  One loop's sweep takes 28-37 s on a 2-vCPU Xeon VM.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import sys
import tempfile

INITS = {"stripe3": ["init.chi_kind = tanh_stripe", "init.chi_amplitude = 0.3",
                     "init.chi_width = 0.2"],
         "stripe8": ["init.chi_kind = tanh_stripe", "init.chi_amplitude = 0.8",
                     "init.chi_width = 0.1"],
         "sin": ["init.chi_kind = sinusoid", "init.chi_amplitude = 0.5", "init.chi_value = 0.1"],
         "rand": ["init.chi_kind = random", "init.chi_amplitude = 0.5", "init.seed = 3"]}
GRIDS = ((8, 4), (16, 8))
KINDS = ("logarithmic", "quartic")
DELTAS = (0.5, 1.0, 3.0)
LATENT_A = (-1.0, -0.5, 0.0, 0.5, 1.0)
LATENT_B = (0.0, 0.5, 2.0)
THETA0 = (0.2, 1.0, 3.0)
LOOPS = ("both", "pseudo-transient", "bordered")


def config_text(nx, ny, kind, delta, a, b, init, theta0) -> str:
    lines = ["domain.lx = 1.0", "domain.ly = 1.0", f"domain.nx = {nx}", f"domain.ny = {ny}",
             "time.dt = 0.001", "time.t_end = 0.05", "init.theta_kind = constant",
             f"init.theta_value = {theta0}"] + INITS[init]
    for part in ("bulk", "surf"):
        lines += [f"potential_{part}.kind = {kind}", f"potential_{part}.delta = {delta}",
                  f"latent_{part}.a = {a}", f"latent_{part}.b = {b}", f"latent_{part}.c = 0.0"]
    return "\n".join(lines) + "\n"


def configs() -> dict:
    """Config text by name, e.g. '8x4 logarithmic delta=0.5 a=-1.0 b=0.0 stripe3 theta0=0.2'."""
    out = {}
    for (nx, ny), kind, delta, a, b, init, theta0 in itertools.product(
            GRIDS, KINDS, DELTAS, LATENT_A, LATENT_B, INITS, THETA0):
        name = f"{nx}x{ny} {kind} delta={delta} a={a} b={b} {init} theta0={theta0}"
        out[name] = config_text(nx, ny, kind, delta, a, b, init, theta0)
    return out


def loop_solver(loop: str):
    """A stand-in for io_cli.solve_stationary that runs the named loop."""
    from pfstrip import stationary
    if loop == "both":
        return stationary.solve_stationary
    if loop == "pseudo-transient":
        inner = stationary._pseudo_transient
    else:
        from pfstrip.bordered_newton import bordered_newton as inner

    def solve(mu_target, theta0, guess, model, tol):
        return inner(guess, -1.0 / theta0, mu_target, model, tol)
    return solve


def sweep(loop: str) -> dict:
    """Each config's result under the named loop, keyed by config name."""
    from pfstrip import io_cli
    solve, results = loop_solver(loop), []
    io_cli.solve_stationary = lambda *a, **k: results.append(solve(*a, **k)) or results[-1]
    out = {}
    for name, text in configs().items():
        results.clear()
        with tempfile.TemporaryDirectory() as work:
            cfg = os.path.join(work, "run.cfg")
            with open(cfg, "w", encoding="ascii") as fh:
                fh.write(text)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = io_cli.cli_main(["stationary", "--config", cfg,
                                        "--output", os.path.join(work, "out")])
        if code == 0:
            out[name] = {"theta_inf": results[0].theta_inf, "mass_gap": results[0].mass_gap}
        else:
            out[name] = {"exit": code, "error": err.getvalue().strip()}
    return out


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--loop", choices=LOOPS, default="both")
    parser.add_argument("src", nargs="?", default="src")
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    result = sweep(args.loop)
    solved = sum("theta_inf" in r for r in result.values())
    print(f"{args.loop}: {solved} of {len(result)} configs solved", file=sys.stderr)
    print(json.dumps(result, indent=1, sort_keys=True))
