"""Run 42 fixed command-line cases in-process and print a JSON digest of them.

    python3 tools/output_digest.py SRC_DIR > digest.json

Cases: configs/example.cfg through all four commands, an ode whose trajectory
leaves the potential domain (exit 3), the benchmark workload
configs at seeds 1 and 7, the perfbench stationary probe, two stationary
solves (a steady state 1.16e-7 from the singular wall, and the 16x8 stripe
saddle that the stationary solver does not converge on), a check of quartic
potentials with delta = 60, a check of a quartic bulk with a logarithmic
surface (the one compatibility constant other than 1), checks that fail
compatibility or the initial state and one that reports a nonzero projected
source mean, a simulate with a sinusoid source, two simulates whose surface
laws differ from the bulk ones (a quartic bulk potential; a surface delta and
latent heat of their own), a two-step simulate whose snapshots hold exact
zeros and values below 1e-6 (the snapshot writer's per-value path), a
simulate whose first step is halved and whose step size doubles back after ten
successes, one that fails at the minimum step size (exit 2), a simulate whose
Newton steps are halved into the guard box and backtracked on their residual,
a stationary solve whose steps are halved into the guard box, a stationary
solve with quartic potentials that does not converge (exit 2), nine rejected
configs and the help texts.  Per
case: exit code, stdout, stderr and the sha256 of every output file.  pfstrip
comes from SRC_DIR and the inputs from this repository, so the diff of two
trees' digests shows any output byte a change moved.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402


def example(old: str = "", new: str = "") -> str:
    """configs/example.cfg with the line old replaced by new (appended if old is empty)."""
    with open(os.path.join(ROOT, "configs", "example.cfg"), encoding="ascii") as fh:
        text = fh.read()
    assert old in text, old
    return text.replace(old, new) if old else text + new + "\n"


NEAR_WALL = """\
domain.lx = 1.0
domain.ly = 1.0
domain.nx = 8
domain.ny = 4
time.dt = 0.001
time.t_end = 0.05
potential_bulk.kind = logarithmic
potential_bulk.delta = 0.5
potential_surf.kind = logarithmic
potential_surf.delta = 0.5
latent_bulk.a = 0.2
latent_bulk.b = -40.0
latent_bulk.c = 0.0
latent_surf.a = 0.2
latent_surf.b = -40.0
latent_surf.c = 0.0
init.theta_kind = constant
init.theta_value = 2.5
init.chi_kind = constant
init.chi_value = 0.999999884
"""


def cases() -> dict:
    out = {cmd: ([cmd], example()) for cmd in ("check", "simulate", "stationary")}
    out["ode"] = (["ode"], example("init.chi_kind = tanh_stripe",
                                   "init.chi_kind = constant\ninit.chi_value = 0.3"))
    out["ode_nonconstant"] = (["ode"], example())
    leaves = example("time.dt = 0.001\ntime.t_end = 0.05", "time.dt = 0.5\ntime.t_end = 1.0")
    out["ode_leaves_domain"] = (["ode"], leaves.replace(
        "init.chi_kind = tanh_stripe", "init.chi_kind = constant\ninit.chi_value = 0.99"))
    for seed in (1, 7):
        for name, cmd, size in (("cli_snapshots", "simulate", "full"),
                                ("stationary_96", "stationary", "full"),
                                ("homog_8x4", "simulate", "tiny"),
                                ("stripe_96", "simulate", "tiny")):
            out[f"{name}_{seed}"] = ([cmd], workloads.config_text(name, seed, size, "out"))
    out["probe"] = (["stationary"], workloads.probe_config_text("out"))
    out["near_wall"] = (["stationary"], NEAR_WALL)
    saddle = example("domain.nx = 32\ndomain.ny = 16", "domain.nx = 16\ndomain.ny = 8")
    out["saddle_16x8"] = (["stationary"], saddle.replace(".a = -0.5", ".a = 0.5"))
    quartic = example().replace("kind = logarithmic", "kind = quartic")
    out["quartic_delta_60"] = (["check"], quartic.replace("delta = 3.0", "delta = 60"))
    out["quartic_bulk"] = (["check"], example("potential_bulk.kind = logarithmic",
                                              "potential_bulk.kind = quartic"))
    out["quartic_surface"] = (["check"], example("potential_surf.kind = logarithmic",
                                                 "potential_surf.kind = quartic"))
    out["bad_initial_chi"] = (["check"], example("init.chi_kind = tanh_stripe",
                                                 "init.chi_kind = constant\ninit.chi_value = 1.5"))
    sinusoid = "source.kind = sinusoid\nsource.amplitude = 0.5"
    out["source_mean"] = (["check"], example("", sinusoid + "\nsource.kx = 0"))
    out["simulate_source"] = (["simulate"], example("", sinusoid + "\nsource.omega = 20.0"))
    out["simulate_quartic_bulk"] = (["simulate"], example("potential_bulk.kind = logarithmic",
                                                          "potential_bulk.kind = quartic"))
    surface_laws = example("potential_surf.delta = 3.0", "potential_surf.delta = 2.0")
    out["simulate_surface_laws"] = (["simulate"], surface_laws.replace("latent_surf.b = 0.0",
                                                                       "latent_surf.b = 0.3"))
    tiny = example("init.chi_kind = tanh_stripe",   # chi_0 = 1e-7 (cos 2 pi x - 1)
                   "init.chi_kind = sinusoid\ninit.chi_value = -1e-7")
    tiny = tiny.replace("chi_amplitude = 0.8", "chi_amplitude = 1e-7")
    out["simulate_tiny_values"] = (["simulate"], tiny.replace("t_end = 0.05", "t_end = 0.002")
                                   .replace("snapshot_every = 25", "snapshot_every = 1"))
    out["simulate_halving"] = (["simulate"], example("time.dt = 0.001", "time.dt = 0.005")
                               + "solver.newton_max_iter = 3\n")
    out["simulate_step_floor"] = (["simulate"], example("", "solver.newton_max_iter = 1"))
    backtracking = example("time.dt = 0.001\ntime.t_end = 0.05",
                           "time.dt = 0.05\ntime.t_end = 0.2")
    out["simulate_backtracking"] = (["simulate"], backtracking.replace(
        "init.theta_value = 1.0", "init.theta_value = 0.05"))
    out["stationary_guard_box"] = (["stationary"], example().replace(".b = 0.0", ".b = -3.0"))
    out["stationary_quartic"] = (["stationary"], quartic)
    for i, edit in enumerate((("domain.nx = 32", "domain.nx = 3"),
                              ("potential_bulk.kind = logarithmic", "potential_bulk.kind = cubic"),
                              ("", "time.min_dt = 0.01"),
                              ("init.chi_kind = tanh_stripe", "init.chi_kind = wave"),
                              ("", "source.kind = square"), ("", "solver.newton_tol = -1"),
                              ("domain.ny = 16", "domain.ny = 1"),
                              ("potential_surf.delta = 3.0", "potential_surf.delta = -1"),
                              ("init.chi_width = 0.1", "init.chi_width = 0"))):
        out[f"bad_{i}"] = (["check"], example(*edit))
    out.update(help=(["--help"], None), simulate_help=(["simulate", "--help"], None))
    return out


def run_case(cli_main, argv: list, text, work: str) -> dict:
    out_dir, cfg = os.path.join(work, "out"), os.path.join(work, "run.cfg")
    if text is not None:
        with open(cfg, "w", encoding="ascii") as fh:
            fh.write(text)
        argv = argv + ["--config", cfg, "--output", out_dir]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    names = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    files = {n: hashlib.sha256((Path(out_dir) / n).read_bytes()).hexdigest() for n in names}
    return {"exit": code, "stdout": out.getvalue().replace(work, "<work>"),
            "stderr": err.getvalue().replace(work, "<work>"), "files": files}


def digest(cli_main) -> dict:
    """Every case's result, keyed by case name."""
    result = {}
    for name, (argv, text) in cases().items():
        with tempfile.TemporaryDirectory() as work:
            result[name] = run_case(cli_main, argv, text, work)
    return result


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"   # argparse wraps its help to the terminal width
    sys.path.insert(0, os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else "src"))
    from pfstrip.io_cli import cli_main
    print(json.dumps(digest(cli_main), indent=1, sort_keys=True))
