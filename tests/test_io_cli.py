"""Config grammar, validation report, output formats, and CLI exit codes."""

import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from helpers import stepper
import oracles
import pfstrip.io_cli as io_cli
from pfstrip.errors import ConfigError
from pfstrip.functionals import DiagnosticsRow
from pfstrip.grid_ops import build_grid
from pfstrip.io_cli import (CSV_HEADER, build_stepper_config, cli_main,
                            format_diagnostics_row, parse_config, validate_config,
                            write_pgm, write_snapshot)
from pfstrip.potentials import LatentHeat, Potential

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

MINIMAL = textwrap.dedent("""\
    domain.lx = 1.0
    domain.ly = 1.0
    domain.nx = 8
    domain.ny = 4
    time.dt = 0.01
    time.t_end = 0.0
    potential_bulk.kind = logarithmic
    potential_bulk.delta = 1.0
    potential_surf.kind = logarithmic
    potential_surf.delta = 1.0
    latent_bulk.a = -0.5
    latent_bulk.b = 0.0
    latent_bulk.c = 0.0
    latent_surf.a = -0.5
    latent_surf.b = 0.0
    latent_surf.c = 0.0
    """)


def with_lines(*extra):
    """MINIMAL plus overrides; an override replaces an existing key in place."""
    lines = MINIMAL.splitlines()
    for item in extra:
        key = item.split("=")[0].strip()
        hits = [i for i, l in enumerate(lines) if l.split("=")[0].strip() == key]
        if hits:
            lines[hits[0]] = item
        else:
            lines.append(item)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- parsing


def test_minimal_config_defaults():
    c = parse_config(MINIMAL)
    schema_keys = [entry[0] for entry in io_cli._SCHEMA]
    assert [f"{sec}.{key}" for sec in vars(c) for key in vars(getattr(c, sec))] == schema_keys
    assert (c.domain.lx, c.domain.ly, c.domain.nx, c.domain.ny) == (1.0, 1.0, 8, 4)
    assert c.time.snapshot_every == 0
    assert c.time.min_dt == 0.01 / 1024.0
    assert (c.source.kind, c.source.amplitude) == ("zero", 0.0)
    assert (c.source.kx, c.source.omega) == (1, 0.0)
    assert (c.init.theta_kind, c.init.theta_value) == ("constant", 1.0)
    assert (c.init.chi_kind, c.init.chi_value) == ("constant", 0.0)
    assert (c.init.theta_amplitude, c.init.chi_amplitude) == (0.0, 0.0)
    assert (c.init.theta_kx, c.init.chi_kx) == (1, 1)
    assert (c.init.theta_width, c.init.chi_width) == (0.1, 0.1)
    assert c.init.seed == 0
    assert (c.solver.newton_tol, c.solver.newton_max_iter) == (1.0e-10, 50)
    assert (c.solver.cg_tol, c.solver.guard_eps) == (1.0e-10, 1.0e-12)
    assert (c.output.dir, c.output.write_pgm) == ("out", False)


def test_parse_comments_and_spacing():
    text = MINIMAL.replace("domain.nx = 8", "  domain.nx=8   # columns")
    assert parse_config(text).domain.nx == 8


# test id: a config line whose value only the schema rejects, and its message
SCHEMA_BOUNDS = {
    "nx": ("domain.nx = 3", "must be at least 4"),
    "ny": ("domain.ny = 1", "must be at least 2"),
    "lx": ("domain.lx = -1.0", "must be positive"),
    "dt": ("time.dt = 0.0", "must be positive"),
    "guard_eps": ("solver.guard_eps = 2.0", "must lie in (0, 1)"),
    "newton_tol": ("solver.newton_tol = 0.0", "must be positive"),
    "cg_tol": ("solver.cg_tol = -1e-10", "must be positive"),
    "newton_max_iter": ("solver.newton_max_iter = 0", "must be at least 1"),
    "bulk_kind": ("potential_bulk.kind = cubic", "must be one of logarithmic/quartic"),
    "surf_delta": ("potential_surf.delta = -1.0", "must be nonnegative"),
    "chi_width": ("init.chi_width = 0.0", "must be positive"),
    "theta_kind": ("init.theta_kind = vortex",
                   "must be one of constant/sinusoid/tanh_stripe/random"),
    "source_kind": ("source.kind = square", "must be zero or sinusoid"),
}


@pytest.mark.parametrize("line,message", list(SCHEMA_BOUNDS.values()), ids=list(SCHEMA_BOUNDS))
def test_parse_bound_violation(line, message):
    with pytest.raises(ConfigError, match=re.escape(f"{line}: {message}")):
        parse_config(with_lines(line))


def test_parse_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate key 'domain.lx'"):
        parse_config(MINIMAL + "domain.lx = 2.0\n")


def test_parse_unknown_key():
    with pytest.raises(ConfigError, match="unknown key 'domain.nz'"):
        parse_config(MINIMAL + "domain.nz = 8\n")


def test_parse_type_error_carries_line_number():
    with pytest.raises(ConfigError, match="line 3.*expects a int.*'eight'"):
        parse_config(MINIMAL.replace("domain.nx = 8", "domain.nx = eight"))


@pytest.mark.parametrize("line,typ", [("domain.lx = inf", "float"), ("domain.lx = nan", "float"),
                                      ("output.write_pgm = yes", "bool")],
                         ids=["inf", "nan", "bool"])
def test_parse_rejects_nonfinite_floats_and_bad_bools(line, typ):
    text = with_lines(line)
    line_no = text.splitlines().index(line) + 1
    with pytest.raises(ConfigError, match=re.escape(
            f"line {line_no}: key '{line.split(' =')[0]}' expects a {typ}, got '{line[-3:]}'")):
        parse_config(text)


def test_parse_missing_required_key():
    text = "\n".join(l for l in MINIMAL.splitlines() if not l.startswith("time.dt"))
    with pytest.raises(ConfigError, match="missing required key 'time.dt'"):
        parse_config(text)


def test_parse_min_dt_above_dt():
    with pytest.raises(ConfigError, match="min_dt must not exceed"):
        parse_config(with_lines("time.min_dt = 0.02"))


def test_stepper_helper_is_the_cli_settings():
    """The tests' stepper(tau) is what the CLI runs with at time.dt = tau and no
    solver keys: the same solver defaults and the same default step floor."""
    assert stepper(0.01) == build_stepper_config(parse_config(MINIMAL))


def test_config_sections_reach_objects():
    """Every non-default solver, time, source, potential and latent value
    reaches the stepper settings, the HeatSource and the Model built from it."""
    c = parse_config(with_lines(
        "time.min_dt = 0.004",
        "solver.newton_tol = 3e-9", "solver.newton_max_iter = 17",
        "solver.cg_tol = 4e-11", "solver.guard_eps = 2e-9",
        "source.kind = sinusoid", "source.amplitude = 0.3", "source.kx = 2",
        "source.omega = 5.0",
        "potential_bulk.kind = quartic", "potential_bulk.delta = 0.7",
        "potential_surf.delta = 0.4",
        "latent_bulk.a = 0.11", "latent_bulk.b = 0.22", "latent_bulk.c = 0.33",
        "latent_surf.a = 0.44", "latent_surf.b = 0.55", "latent_surf.c = 0.66"))
    expected = stepper(0.01, newton_tol=3e-9, newton_max_iter=17, guard_eps=2e-9,
                       min_tau=0.004, cg_tol=4e-11)
    defaults = stepper(0.01)
    assert build_stepper_config(c) == expected
    for name in ("newton_tol", "newton_max_iter", "guard_eps", "min_tau", "cg_tol"):
        assert getattr(expected, name) != getattr(defaults, name), name

    report = validate_config(c)
    m, src = report.model, report.source
    assert (m.grid.lx, m.grid.ly, m.grid.nx, m.grid.ny) == (1.0, 1.0, 8, 4)
    assert (m.p_bulk, m.p_surf) == (Potential("quartic", 0.7), Potential("logarithmic", 0.4))
    assert m.l_bulk == LatentHeat(0.11, 0.22, 0.33)
    assert m.l_surf == LatentHeat(0.44, 0.55, 0.66)

    g = m.grid
    # kx = 2 has zero dm-mean on the periodic grid, so nothing is projected out.
    np.testing.assert_allclose(src.profile, 0.3 * np.cos(4.0 * np.pi * g.x / g.lx),
                               rtol=0.0, atol=1e-15)
    assert src.omega == 5.0


def test_parse_overrides_optional_fields():
    c = parse_config(with_lines("init.chi_kind = tanh_stripe",
                                "init.chi_amplitude = 0.4",
                                "source.kind = sinusoid",
                                "source.amplitude = 0.25",
                                "output.write_pgm = true"))
    assert c.init.chi_kind == "tanh_stripe" and c.init.chi_amplitude == 0.4
    assert c.source.kind == "sinusoid" and c.source.amplitude == 0.25
    assert c.output.write_pgm is True
    base = parse_config(MINIMAL)
    assert (c.domain, c.time, c.potential_bulk) == (base.domain, base.time, base.potential_bulk)


# ------------------------------------------------------------- validation


def test_validate_minimal_ok():
    rep = validate_config(parse_config(MINIMAL))
    assert rep.ok
    assert rep.c_s == 1.0
    assert rep.initial_state_error is None
    assert rep.mu0 == pytest.approx(3.0)
    assert "overall: ok" in rep.render()


def test_validate_quartic_bulk_log_surface_ok():
    text = MINIMAL.replace("potential_bulk.kind = logarithmic",
                           "potential_bulk.kind = quartic")
    rep = validate_config(parse_config(text))
    assert rep.ok


def test_validate_quartic_strong_concavity_ok():
    # lambda - s0 = r^4/4 - 30 r^2 + 0.5 r^2 is coercive although it is negative
    # for every |r| < 10.8; the verdict must not depend on a sampled radius.
    rep = validate_config(parse_config(with_lines(
        "potential_bulk.kind = quartic", "potential_bulk.delta = 60.0",
        "potential_surf.kind = quartic", "potential_surf.delta = 60.0")))
    assert rep.ok
    assert "coercivity: ok" in rep.render()


def test_validate_log_bulk_quartic_surface_rejected():
    text = MINIMAL.replace("potential_surf.kind = logarithmic",
                           "potential_surf.kind = quartic")
    rep = validate_config(parse_config(text))
    assert not rep.ok
    assert "must be contained in" in rep.compatibility_error
    assert "compatibility: FAIL" in rep.render()


def test_validate_mean_mode_source_is_reported():
    # kx = 0 keeps the projected mean; the report must expose it.
    rep = validate_config(parse_config(with_lines(
        "source.kind = sinusoid", "source.amplitude = 0.5", "source.kx = 0")))
    assert rep.ok
    assert rep.source.projected_mean == pytest.approx(0.5)


def test_validate_mass_bounds_quadratic_latent():
    # lambda(r) = r^2 on [-1,1]: range [0,1], so the mass bounds on the
    # (1,1) strip are 0 (min) and lx*ly + 2*lx = 3 (max)
    quadratic = ("domain.nx = 16", "domain.ny = 8", "latent_bulk.a = -1.0",
                 "latent_surf.a = -1.0", "init.chi_value = 0.2")
    rep = validate_config(parse_config(with_lines(*quadratic, "init.theta_value = 1.0")))
    assert rep.mu0 == pytest.approx(3.12, rel=1e-12)
    assert rep.mass_admissible and rep.mass_lower_bound == pytest.approx(0.0, abs=1e-14)
    assert rep.mass_dominates and rep.mass_upper_bound == pytest.approx(3.0, rel=1e-14)
    assert rep.slope_margin == pytest.approx(2.0, rel=1e-14)
    assert "info: separating latent slope: yes (margin=2)" in rep.render()

    rep2 = validate_config(parse_config(with_lines(*quadratic,
                                                   "init.theta_value = 0.6266666666666667")))
    assert rep2.mu0 == pytest.approx(2.0, rel=1e-12)
    assert rep2.mass_admissible and not rep2.mass_dominates


def test_validate_bad_initial_state():
    rep = validate_config(parse_config(with_lines("init.chi_value = 1.5")))
    assert not rep.ok and not rep.mass_admissible
    assert rep.initial_state_error is not None
    assert "initial state: FAIL" in rep.render()


# ---------------------------------------------------------- output formats


def test_csv_header():
    assert CSV_HEADER == ("step,time,mu,energy,entropy,dissipation_cum,source_cum,"
                          "energy_id_residual,theta_min,theta_max,chi_min,chi_max,"
                          "u_spatial_std,newton_iters_chi,newton_iters_theta")


def test_format_diagnostics_row():
    row = DiagnosticsRow(step=3, t=0.25, mu=1.0, energy=-2.0, entropy=0.5,
                         dissipation_cum=0.0, source_cum=0.0,
                         energy_id_residual=1.0e-15, theta_min=0.9, theta_max=1.1,
                         chi_min=-0.5, chi_max=0.5, u_spatial_std=0.01,
                         newton_iters_chi=4, newton_iters_theta=5)
    cells = format_diagnostics_row(row).split(",")
    assert len(cells) == 15
    assert cells[0] == "3"
    assert cells[1] == "2.5000000000000000e-01"
    assert cells[3] == "-2.0000000000000000e+00"
    assert cells[-2:] == ["4", "5"]


def test_snapshot_matches_golden(tmp_path):
    g = build_grid(1.0, 1.0, 4, 2)
    field = np.arange(12, dtype=float) * 0.25 - 1.0
    path = tmp_path / "snap.csv"
    write_snapshot(field, g, str(path))
    with open(os.path.join(GOLDEN, "snapshot_4x2.csv"), "rb") as fh:
        assert path.read_bytes() == fh.read()


def test_snapshot_write_peak_memory_not_above_percent_writer(tmp_path):
    """One 96x97 write_snapshot peaks no higher in traced allocations than the per-value
    '%.16e' writer it replaced, measured here on the same field, and writes its bytes."""
    g = build_grid(1.0, 1.0, 96, 96)
    field = np.random.default_rng(3).standard_normal(g.n_nodes)
    peaks = []
    for write in (oracles.write_snapshot_percent, write_snapshot):
        path = str(tmp_path / write.__name__)
        write(field, g, path)   # a first call may allocate once for good
        tracemalloc.start()
        try:
            write(field, g, path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (tmp_path / "write_snapshot").read_bytes() == \
        (tmp_path / "write_snapshot_percent").read_bytes()
    assert peaks[1] <= peaks[0], peaks


def test_snapshot_top_row_first(tmp_path):
    g = build_grid(1.0, 1.0, 4, 2)
    field = np.arange(12, dtype=float)
    path = tmp_path / "snap.csv"
    write_snapshot(field, g, str(path))
    rows = path.read_text().splitlines()
    assert len(rows) == 3
    assert rows[0].split(",")[0] == "8.0000000000000000e+00"
    assert rows[2].split(",")[0] == "0.0000000000000000e+00"


def test_pgm_grammar(tmp_path):
    g = build_grid(1.0, 1.0, 4, 2)
    field = np.arange(12, dtype=float) * 0.25 - 1.0
    path = tmp_path / "field.pgm"
    write_pgm(field, g, str(path))
    blob = path.read_bytes()
    header = b"P5\n4 3\n65535\n"
    assert blob.startswith(header)
    payload = blob[len(header):]
    assert len(payload) == 2 * 12
    samples = np.frombuffer(payload, dtype=">u2").reshape(3, 4)
    assert samples[0, 3] == 65535  # max lives on the top boundary row (j = 2)
    assert samples[2, 0] == 0
    sidecar = (tmp_path / "field.range.txt").read_text()
    assert sidecar == "-1.0000000000000000e+00 1.7500000000000000e+00\n"


def test_pgm_roundoff_field_is_flat(tmp_path):
    """A field constant up to round-off maps to 0; an O(1) field keeps full contrast."""
    g = build_grid(1.0, 1.0, 4, 2)
    field = np.arange(12, dtype=float) * 0.25 - 1.0
    for scale, top in ((1.0e-20, 0), (1.0, 65535)):
        path = tmp_path / f"f{top}.pgm"
        write_pgm(scale * field, g, str(path))
        samples = np.frombuffer(path.read_bytes()[len(b"P5\n4 3\n65535\n"):], dtype=">u2")
        assert (samples.min(), samples.max()) == (0, top)
        lo, hi = map(float, (tmp_path / f"f{top}.range.txt").read_text().split())
        assert (lo, hi) == (-scale, 1.75 * scale)


def test_pgm_constant_field(tmp_path):
    g = build_grid(1.0, 1.0, 4, 2)
    path = tmp_path / "flat.pgm"
    write_pgm(np.full(12, 7.0), g, str(path))
    blob = path.read_bytes()
    samples = np.frombuffer(blob[len(b"P5\n4 3\n65535\n"):], dtype=">u2")
    assert not samples.any()
    assert (tmp_path / "flat.range.txt").read_text().split() == [
        "7.0000000000000000e+00", "7.0000000000000000e+00"]


# -------------------------------------------------------------------- CLI


def test_cli_help_lists_commands(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        cli_main(["--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [[line.split() for line in lines].index([name, *blurb.split()]) for name, blurb in (
        ("simulate", "time-step the coupled system and write diagnostics"),
        ("stationary", "solve the steady-state system at the initial mass"),
        ("check", "print the config validation report"),
        ("ode", "integrate the spatially homogeneous reduction"))]
    assert rows == sorted(rows)


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_check_example_config(capsys):
    code = cli_main(["check", "--config",
                     os.path.join(os.path.dirname(GOLDEN), "..", "configs", "example.cfg")])
    assert code == 0
    out = capsys.readouterr().out
    assert "overall: ok" in out


def count_model_builds(monkeypatch):
    calls = []
    real = io_cli.build_model
    monkeypatch.setattr(io_cli, "build_model", lambda c: calls.append(c) or real(c))
    return calls


def test_cli_simulate_zero_horizon(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path, MINIMAL)
    out_dir = tmp_path / "out"
    builds = count_model_builds(monkeypatch)
    assert cli_main(["simulate", "--config", cfg, "--output", str(out_dir)]) == 0
    assert len(builds) == 1
    lines = (out_dir / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2 and lines[1].startswith("0,")
    assert not (out_dir / ".lock").exists()
    assert "simulate: 0 steps" in capsys.readouterr().out


def test_cli_malformed_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "domain.lx 1.0\n")
    assert cli_main(["simulate", "--config", cfg]) == 1
    assert "expected 'section.key = value'" in capsys.readouterr().err


def test_cli_missing_config_file(tmp_path, capsys):
    assert cli_main(["check", "--config", str(tmp_path / "no.cfg")]) == 1
    assert "cannot read config" in capsys.readouterr().err
    undecodable = tmp_path / "bad.cfg"
    undecodable.write_bytes(b"domain.lx = 1.0\n\xff\n")
    assert cli_main(["check", "--config", str(undecodable)]) == 1
    err = capsys.readouterr().err
    assert f"error: cannot read config '{undecodable}'" in err
    assert "Traceback" not in err


def test_cli_validation_failure_exits_3(tmp_path, capsys):
    text = MINIMAL.replace("potential_surf.kind = logarithmic",
                           "potential_surf.kind = quartic")
    cfg = write_cfg(tmp_path, text)
    out_dir = tmp_path / "out"
    assert cli_main(["simulate", "--config", cfg, "--output", str(out_dir)]) == 3
    assert "compatibility: FAIL" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_stationary_inadmissible_mass(tmp_path, capsys):
    # lambda(r) = -r^2 on quartic potentials: mu0 = 3 (0.5 - 9) sits far
    # below the lower bound of -3, so validation refuses to run the solve.
    text = textwrap.dedent("""\
        domain.lx = 1.0
        domain.ly = 1.0
        domain.nx = 8
        domain.ny = 4
        time.dt = 0.01
        time.t_end = 0.0
        potential_bulk.kind = quartic
        potential_bulk.delta = 1.0
        potential_surf.kind = quartic
        potential_surf.delta = 1.0
        latent_bulk.a = 1.0
        latent_bulk.b = 0.0
        latent_bulk.c = 0.0
        latent_surf.a = 1.0
        latent_surf.b = 0.0
        latent_surf.c = 0.0
        init.theta_value = 0.5
        init.chi_value = 3.0
        """)
    cfg = write_cfg(tmp_path, text)
    code = cli_main(["stationary", "--config", cfg, "--output", str(tmp_path / "out")])
    assert code == 3
    assert "mass admissibility: FAIL" in capsys.readouterr().err


def test_cli_stationary_writes_outputs(tmp_path, capsys, monkeypatch):
    text = with_lines("init.chi_value = 0.2", "output.write_pgm = true")
    cfg = write_cfg(tmp_path, text)
    out_dir = tmp_path / "out"
    builds = count_model_builds(monkeypatch)
    assert cli_main(["stationary", "--config", cfg, "--output", str(out_dir)]) == 0
    assert len(builds) == 1
    assert (out_dir / "chi_inf.csv").exists()
    assert (out_dir / "chi_inf.pgm").exists()
    summary = (out_dir / "stationary_summary.txt").read_text()
    assert summary == capsys.readouterr().out
    assert summary.splitlines()[0].startswith("theta_inf = ")
    assert "mass_admissible = yes" in summary


def test_cli_builds_the_initial_state_once_per_command(tmp_path, monkeypatch):
    """simulate and stationary run from the model, state and source that
    validate_config built: one build of each per command."""
    names = ("build_model", "build_initial_state", "make_source")
    calls = dict.fromkeys(names, 0)

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(io_cli, name, counted(name, getattr(io_cli, name)))
    cfg = write_cfg(tmp_path, with_lines("init.chi_value = 0.2", "init.theta_kind = random",
                                         "init.theta_value = 1.0", "init.theta_amplitude = 0.1",
                                         "source.kind = sinusoid", "source.amplitude = 0.1"))
    for cmd in ("simulate", "stationary"):
        calls.update(dict.fromkeys(names, 0))
        assert cli_main([cmd, "--config", cfg, "--output", str(tmp_path / cmd)]) == 0
        assert calls == dict.fromkeys(names, 1), cmd


def test_cli_solver_failure_exits_2(tmp_path, capsys):
    # One Newton iteration cannot resolve a stripe, and min_dt = dt leaves
    # the stepper no room to retry.
    text = with_lines("time.t_end = 0.01",
                      "init.chi_kind = tanh_stripe",
                      "init.chi_amplitude = 0.5",
                      "init.chi_width = 0.2",
                      "solver.newton_max_iter = 1",
                      "time.min_dt = 0.01")
    cfg = write_cfg(tmp_path, text)
    assert cli_main(["simulate", "--config", cfg, "--output", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_locked_output_dir(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL)
    out_dir = tmp_path / "busy"
    out_dir.mkdir()
    (out_dir / ".lock").touch()
    assert cli_main(["simulate", "--config", cfg, "--output", str(out_dir)]) == 2
    assert "locked by another run" in capsys.readouterr().err
    assert (out_dir / ".lock").exists()  # a foreign lock is never removed


def test_python_m_pfstrip_help_exits_0():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run([sys.executable, "-m", "pfstrip", "--help"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0 and "stationary" in out.stdout, out.stdout + out.stderr


def test_cli_output_path_that_is_a_file_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL)
    (tmp_path / "taken").write_text("")
    assert cli_main(["simulate", "--config", cfg, "--output", str(tmp_path / "taken")]) == 2
    assert "cannot create output directory" in capsys.readouterr().err


def test_cli_unwritable_snapshot_exits_2_and_unlocks(tmp_path, capsys):
    cfg = write_cfg(tmp_path, with_lines("time.snapshot_every = 1"))
    out_dir = tmp_path / "out"
    (out_dir / "theta_0.csv").mkdir(parents=True)
    assert cli_main(["simulate", "--config", cfg, "--output", str(out_dir)]) == 2
    assert "cannot write" in capsys.readouterr().err
    assert not (out_dir / ".lock").exists()


def test_cli_ode_command(tmp_path, capsys):
    text = with_lines("time.t_end = 0.1", "init.theta_value = 2.0",
                      "init.chi_value = 0.3")
    cfg = write_cfg(tmp_path, text)
    out_dir = tmp_path / "out"
    assert cli_main(["ode", "--config", cfg, "--output", str(out_dir)]) == 0
    lines = (out_dir / "ode.csv").read_text().splitlines()
    assert lines[0] == "t,theta,chi"
    assert len(lines) > 2
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 2.0
    assert "samples to t = 0.1" in capsys.readouterr().out


def test_cli_ode_at_t_end_zero_writes_the_initial_sample(tmp_path, capsys):
    cfg = write_cfg(tmp_path, with_lines("init.theta_value = 2.0", "init.chi_value = 0.3"))
    out_dir = tmp_path / "out"
    assert cli_main(["ode", "--config", cfg, "--output", str(out_dir)]) == 0
    lines = (out_dir / "ode.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[0] == "t,theta,chi"
    assert [float(v) for v in lines[1].split(",")] == [0.0, 2.0, 0.3]
    assert "ode: 1 samples to t = 0" in capsys.readouterr().out


def test_cli_ode_trajectory_leaving_the_domain_exits_3(tmp_path, capsys):
    # an RK4 stage of tau_ref = 0.5 from chi = 0.99 leaves the logarithmic domain
    with open(os.path.join(os.path.dirname(GOLDEN), "..", "configs", "example.cfg")) as fh:
        text = fh.read().replace("init.chi_kind = tanh_stripe",
                                 "init.chi_kind = constant\ninit.chi_value = 0.99")
    cfg = write_cfg(tmp_path, text.replace("time.dt = 0.001\ntime.t_end = 0.05",
                                           "time.dt = 0.5\ntime.t_end = 1.0"))
    assert cli_main(["ode", "--config", cfg, "--output", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == \
        "error: trajectory left the potential domain; reduce the step (time.dt)\n"
    assert not (tmp_path / "o").exists()


def test_cli_ode_rejects_nonconstant_presets(tmp_path, capsys):
    text = with_lines("init.chi_kind = tanh_stripe", "init.chi_amplitude = 0.3")
    cfg = write_cfg(tmp_path, text)
    assert cli_main(["ode", "--config", cfg, "--output", str(tmp_path / "o")]) == 1
    assert "constant init presets" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [("latent_surf.a = -0.5", "latent_surf.a = 0.7"),
                                  ("potential_surf.delta = 3.0", "potential_surf.delta = 0.5")])
def test_cli_ode_rejects_surface_sections_unlike_the_bulk(tmp_path, capsys, edit):
    # the homogeneous ODE is the reduction of the system only for equal sections
    with open(os.path.join(os.path.dirname(GOLDEN), "..", "configs", "example.cfg")) as fh:
        text = fh.read().replace("init.chi_kind = tanh_stripe",
                                 "init.chi_kind = constant\ninit.chi_value = 0.3")
    assert edit[0] in text
    cfg = write_cfg(tmp_path, text.replace(*edit))
    assert cli_main(["ode", "--config", cfg, "--output", str(tmp_path / "o")]) == 1
    section = edit[1].split(".")[0]
    assert f"requires {section} equal to" in capsys.readouterr().err
    assert not (tmp_path / "o" / "ode.csv").exists()


def test_cli_runs_are_byte_identical(tmp_path):
    text = with_lines("time.t_end = 0.05",
                      "time.snapshot_every = 2",
                      "init.theta_kind = random",
                      "init.theta_amplitude = 0.1",
                      "init.chi_kind = random",
                      "init.chi_amplitude = 0.3",
                      "init.seed = 7",
                      "output.write_pgm = true")
    cfg = write_cfg(tmp_path, text)
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        assert cli_main(["simulate", "--config", cfg, "--output", str(d)]) == 0
    names = sorted(os.listdir(dirs[0]))
    assert names == sorted(os.listdir(dirs[1]))
    assert "diagnostics.csv" in names and "theta_2.pgm" in names
    for name in names:
        a = (dirs[0] / name).read_bytes()
        b = (dirs[1] / name).read_bytes()
        assert a == b, name


def test_import_and_simulate_leave_scipy_unloaded(tmp_path):
    """The runtime is numpy-only: scipy is a test dependency."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = textwrap.dedent("""\
        import sys
        from pfstrip.io_cli import cli_main
        code = cli_main(["simulate", "--config", sys.argv[1], "--output", sys.argv[2]])
        print(code, [m for m in sys.modules if m.split(".")[0] == "scipy"])
        """)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run([sys.executable, "-c", script, os.path.join(root, "configs", "example.cfg"),
                          str(tmp_path / "out")], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "0 []", out.stdout + out.stderr


def test_benchmark_patched_names_resolve():
    """Every name perfbench traces, patches or calls exists where it looks for it,
    so a cleanup that deletes one fails here and not in the benchmark run."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(root, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    called = [("grid_ops", "solve_spd"), ("grid_ops", "StiffnessOp.matrix"),
              ("timestepper", "Model.chi_bounds"), ("io_cli", "solve_stationary"),
              ("io_cli", "run"), ("io_cli", "cli_main"), ("io_cli", "load_config"),
              ("io_cli", "build_initial_state"), ("io_cli", "build_stepper_config")]
    for module, attr in [entry[:2] for entry in tracing.TRACED] + called:
        owner = vars(sys.modules["pfstrip." + module])
        if "." in attr:     # "Class.method" is looked up on the class, as tracing does
            cls_name, attr = attr.split(".")
            owner = vars(owner[cls_name])
        assert attr in owner, (module, attr)

    # The worker imports pfstrip, then pfstrip.io_cli, and calls pfstrip.timestepper.run.
    script = "import pfstrip\nimport pfstrip.io_cli\nprint(*sorted(vars(pfstrip)))"
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert set(tracing.LAYERS) <= set(out.stdout.split()), out.stdout


def test_output_digest_cases_keep_their_bytes(monkeypatch):
    """The command-line cases of tools/output_digest.py, run in-process, keep the sha256
    of each case's result (exit code, stdout, stderr and the sha256 of every output file)
    recorded in golden/output_digest.json.  When a change moves output bytes on purpose,
    diff the tool's JSON of both trees to see what moved, then record the values that
    this test's failure lists."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.setenv("COLUMNS", "80")   # as the tool sets it: argparse wraps its help to it
    monkeypatch.setattr(sys, "path", list(sys.path))   # the tool adds perfbench to it
    spec = importlib.util.spec_from_file_location(
        "output_digest", os.path.join(root, "tools", "output_digest.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    got = {name: hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()
           for name, result in tool.digest(cli_main).items()}
    with open(os.path.join(GOLDEN, "output_digest.json"), encoding="ascii") as fh:
        want = json.load(fh)
    moved = {name: got.get(name) for name in sorted(set(got) | set(want))
             if got.get(name) != want.get(name)}
    assert not moved, json.dumps(moved, indent=1)
