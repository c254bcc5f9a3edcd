"""Config grammar, validation report, output formats, and the command line.

Config files are flat, line-oriented `section.key = value` text with `#`
comments, order-insensitive keys, and strict rejection of unknown or
duplicate keys.  All outputs are deterministic byte-for-byte: diagnostics
CSV with 17-significant-digit floats, one CSV matrix per snapshot field
(top row first), and optional 16-bit big-endian P5 heatmaps with the scaling
range in a text sidecar.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from collections.abc import Iterable
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, DomainError, IoError, SolverError
from .floatfmt import csv_rows
from .functionals import DiagnosticsRow, State, dm_mean, mass_mu
from .grid_ops import Grid, build_grid
from .potentials import (DOMAINS, LatentHeat, Potential, check_compatibility,
                         integrate_homogeneous, latent_range, separating_slope_margin)
from .stationary import StationaryResult, solve_stationary
from .timestepper import (EPS, PRESET_KINDS, SOURCE_KINDS, HeatSource, Model, make_source,
                          preset_field, run)

LOCK_NAME = ".lock"


_REQUIRED = object()
_DT_FRACTION = object()   # default step floor: time.min_dt = MIN_DT_FRACTION time.dt
MIN_DT_FRACTION = 1.0 / 1024.0
_POSITIVE = (lambda v: v > 0.0, "must be positive")
_NONNEGATIVE = (lambda v: v >= 0, "must be nonnegative")


def _one_of(kinds) -> tuple:
    return (lambda v: v in kinds), "must be one of " + "/".join(kinds)


# name, type, default, bound check, bound message: the one list of config keys and
# their defaults.  The order fixes the attribute order of each parsed section and
# lets the time.min_dt default read time.dt.  A section's keys are the parameter
# names of what it builds; time and solver become the stepper's settings.
_SCHEMA = (
    ("domain.lx", float, _REQUIRED, *_POSITIVE),
    ("domain.ly", float, _REQUIRED, *_POSITIVE),
    ("domain.nx", int, _REQUIRED, lambda v: v >= 4, "must be at least 4"),
    ("domain.ny", int, _REQUIRED, lambda v: v >= 2, "must be at least 2"),
    ("time.dt", float, _REQUIRED, *_POSITIVE),
    ("time.t_end", float, _REQUIRED, *_NONNEGATIVE),
    ("time.snapshot_every", int, 0, *_NONNEGATIVE),
    ("time.min_dt", float, _DT_FRACTION, *_POSITIVE),
    ("potential_bulk.kind", str, _REQUIRED, *_one_of(DOMAINS)),
    ("potential_bulk.delta", float, 0.0, *_NONNEGATIVE),
    ("potential_surf.kind", str, _REQUIRED, *_one_of(DOMAINS)),
    ("potential_surf.delta", float, 0.0, *_NONNEGATIVE),
    ("latent_bulk.a", float, _REQUIRED, None, ""),
    ("latent_bulk.b", float, _REQUIRED, None, ""),
    ("latent_bulk.c", float, _REQUIRED, None, ""),
    ("latent_surf.a", float, _REQUIRED, None, ""),
    ("latent_surf.b", float, _REQUIRED, None, ""),
    ("latent_surf.c", float, _REQUIRED, None, ""),
    ("source.kind", str, "zero",
     lambda v: v in SOURCE_KINDS, "must be " + " or ".join(SOURCE_KINDS)),
    ("source.amplitude", float, 0.0, None, ""),
    ("source.kx", int, 1, None, ""),
    ("source.omega", float, 0.0, None, ""),
    ("init.theta_kind", str, "constant", *_one_of(PRESET_KINDS)),
    ("init.theta_value", float, 1.0, None, ""),
    ("init.theta_amplitude", float, 0.0, None, ""),
    ("init.theta_kx", int, 1, None, ""),
    ("init.theta_width", float, 0.1, *_POSITIVE),
    ("init.chi_kind", str, "constant", *_one_of(PRESET_KINDS)),
    ("init.chi_value", float, 0.0, None, ""),
    ("init.chi_amplitude", float, 0.0, None, ""),
    ("init.chi_kx", int, 1, None, ""),
    ("init.chi_width", float, 0.1, *_POSITIVE),
    ("init.seed", int, 0, *_NONNEGATIVE),
    # newton_tol bounds the residual's L^2(dm) norm relative to the initial one,
    # floored at an absolute 1e-12; cg_tol is the tightest relative tolerance of an inner
    # PCG solve, loosened to a tenth of the Newton target and, in a first solve, to a tenth
    # of the last step's first contraction (timestepper._newton)
    ("solver.newton_tol", float, 1.0e-10, *_POSITIVE),
    ("solver.newton_max_iter", int, 50, lambda v: v >= 1, "must be at least 1"),
    ("solver.cg_tol", float, 1.0e-10, *_POSITIVE),
    ("solver.guard_eps", float, 1.0e-12, lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
    ("output.dir", str, "out", None, ""),
    ("output.write_pgm", bool, False, None, ""),
)


def _convert(name: str, typ: type, text: str, line_no: int):
    try:
        if typ is float:
            v = float(text)
            if not math.isfinite(v):
                raise ValueError
            return v
        if typ is int:
            return int(text, 10)
        if typ is bool:
            if text not in ("true", "false"):
                raise ValueError
            return text == "true"
        return text
    except ValueError:
        raise ConfigError(
            f"line {line_no}: key '{name}' expects a {typ.__name__}, got '{text}'") from None


def parse_config(text: str) -> SimpleNamespace:
    """Parse config text into one namespace per section, its attributes the _SCHEMA keys
    in order; ConfigError carries the line number of the offence."""
    raw: dict[str, tuple[str, int]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {line_no}: expected 'section.key = value'")
        key, _, val = body.partition("=")
        key, val = key.strip(), val.strip()
        if key in raw:
            raise ConfigError(f"line {line_no}: duplicate key '{key}'")
        raw[key] = (val, line_no)

    known = {entry[0] for entry in _SCHEMA}
    for key, (_, line_no) in raw.items():
        if key not in known:
            raise ConfigError(f"line {line_no}: unknown key '{key}'")

    values: dict[str, object] = {}
    for name, typ, default, _, _ in _SCHEMA:
        if name in raw:
            values[name] = _convert(name, typ, *raw[name])
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key '{name}'")
        elif default is _DT_FRACTION:
            values[name] = values["time.dt"] * MIN_DT_FRACTION
        else:
            values[name] = default

    for name, _, _, check, msg in _SCHEMA:
        if check is not None and not check(values[name]):
            raise ConfigError(f"{name} = {values[name]}: {msg}")
    if values["time.min_dt"] > values["time.dt"]:
        raise ConfigError("time.min_dt must not exceed time.dt")

    sections: dict[str, dict] = {}
    for name, v in values.items():
        sec, _, key = name.partition(".")
        sections.setdefault(sec, {})[key] = v
    return SimpleNamespace(**{sec: SimpleNamespace(**kw) for sec, kw in sections.items()})


def build_model(c: SimpleNamespace) -> Model:
    return Model(grid=build_grid(**vars(c.domain)),
                 p_bulk=Potential(**vars(c.potential_bulk)),
                 p_surf=Potential(**vars(c.potential_surf)),
                 l_bulk=LatentHeat(**vars(c.latent_bulk)),
                 l_surf=LatentHeat(**vars(c.latent_surf)))


def build_stepper_config(c: SimpleNamespace) -> SimpleNamespace:
    """The settings run reads: tau, min_tau and the solver keys."""
    return SimpleNamespace(tau=c.time.dt, min_tau=c.time.min_dt, **vars(c.solver))


def build_initial_state(c: SimpleNamespace, model: Model) -> State:
    """Fields from the init presets; theta seeds with seed, chi with seed + 1."""
    ic = c.init
    g = model.grid
    theta = preset_field(g, ic.theta_kind, value=ic.theta_value,
                         amplitude=ic.theta_amplitude, kx=ic.theta_kx,
                         width=ic.theta_width, seed=ic.seed)
    chi = preset_field(g, ic.chi_kind, value=ic.chi_value,
                       amplitude=ic.chi_amplitude, kx=ic.chi_kx,
                       width=ic.chi_width, seed=ic.seed + 1)
    with np.errstate(divide="ignore"):
        u = -1.0 / theta
    return State(0.0, u, chi)


@dataclass
class ValidationReport:
    """The model, initial state and source of a config, with the checks of the
    paper's hypotheses on them; ok requires every mandatory check.

    mass_lower_bound / mass_upper_bound are the integrals of the latent
    extrema over bulk and boundary; a mass target above the lower bound
    admits a constant positive temperature, and one above the upper bound
    keeps the steady temperature above a uniform positive level regardless
    of the phase.  slope_margin > 0 is the alternative route to the same
    conclusion through the sign of lambda' at the pure states.
    """

    model: Model
    source: HeatSource | None
    c_s: float | None   # compatibility constant; C_s = 0 for every admissible pair
    compatibility_error: str | None
    initial_state: State   # built from the init presets; may fail State.validate
    initial_state_error: str | None
    mu0: float | None
    mass_lower_bound: float
    mass_upper_bound: float
    slope_margin: float

    @property
    def mass_admissible(self) -> bool:
        return self.mu0 is not None and self.mu0 > self.mass_lower_bound

    @property
    def mass_dominates(self) -> bool:
        return self.mu0 is not None and self.mu0 > self.mass_upper_bound

    @property
    def ok(self) -> bool:
        return self.compatibility_error is None and self.mass_admissible

    def render(self) -> str:
        lines = []
        if self.compatibility_error is not None:
            lines.append(f"compatibility: FAIL ({self.compatibility_error})")
        else:
            lines.append(f"compatibility: ok (c_s={self.c_s:.6g}, C_s=0)")
        lines.append("coercivity: ok")   # holds for every config: see the potentials docstring
        if self.initial_state_error is not None:
            lines.append(f"initial state: FAIL ({self.initial_state_error})")
            lines.append("mass admissibility: FAIL (no valid initial state)")
        else:
            lines.append("initial state: ok")
            lines.append(f"mass admissibility: {'ok' if self.mass_admissible else 'FAIL'} "
                         f"(mu0={self.mu0:.10g}, lower bound={self.mass_lower_bound:.10g})")
        projected = self.source.projected_mean if self.source is not None else 0.0
        lines.append(f"source projected mean: {projected:.3e}")
        lines.append(f"info: mass above upper latent bound: "
                     f"{'yes' if self.mass_dominates else 'no'} "
                     f"(upper bound={self.mass_upper_bound:.10g})")
        lines.append(f"info: separating latent slope: "
                     f"{'yes' if self.slope_margin > 0.0 else 'no'} "
                     f"(margin={self.slope_margin:.6g})")
        lines.append(f"overall: {'ok' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def validate_config(c: SimpleNamespace) -> ValidationReport:
    """Build the model, initial state and source of c, once, and run every
    pre-flight check on them; never raises, failures land in the report."""
    model = build_model(c)

    c_s = None
    compat_err = None
    try:
        c_s = check_compatibility(model.p_bulk, model.p_surf)
    except DomainError as exc:
        compat_err = str(exc)

    source = make_source(model, **vars(c.source))

    s0 = build_initial_state(c, model)
    state_err = mu0 = None
    try:
        s0.validate(model)
        mu0 = mass_mu(s0, model)
    except DomainError as exc:
        state_err = str(exc)

    # |Omega| ext(lambda_b) + |Gamma| ext(lambda_s) over the pure-state interval [-1, 1]
    area, perimeter = c.domain.lx * c.domain.ly, 2.0 * c.domain.lx
    (lo_b, hi_b), (lo_s, hi_s) = latent_range(model.l_bulk), latent_range(model.l_surf)
    return ValidationReport(
        model=model, source=source, c_s=c_s, compatibility_error=compat_err,
        initial_state=s0, initial_state_error=state_err, mu0=mu0,
        mass_lower_bound=area * lo_b + perimeter * lo_s,
        mass_upper_bound=area * hi_b + perimeter * hi_s,
        slope_margin=min(separating_slope_margin(model.l_bulk),
                         separating_slope_margin(model.l_surf)),
    )


CSV_HEADER = ",".join("time" if f.name == "t" else f.name for f in fields(DiagnosticsRow))
_ROW_FORMAT = ",".join(f"%({f.name})" + ("s" if f.type in (int, "int") else ".16e")
                       for f in fields(DiagnosticsRow))


def format_diagnostics_row(row: DiagnosticsRow) -> str:
    return _ROW_FORMAT % vars(row)


def _write(path: str, data: str | Iterable[bytes]) -> None:
    """Write ASCII text, or byte chunks in order, to path as they are; OSError becomes IoError."""
    try:
        with open(path, "wb") as fh:
            fh.writelines([data.encode("ascii")] if isinstance(data, str) else data)
    except OSError as exc:
        raise IoError(f"cannot write '{path}': {exc}") from exc


def write_diagnostics(rows, path: str) -> None:
    lines = [CSV_HEADER]
    lines += [format_diagnostics_row(r) for r in rows]
    _write(path, "\n".join(lines) + "\n")


def write_snapshot(field: np.ndarray, grid: Grid, path: str) -> None:
    """One CSV matrix, ny+1 rows of nx values, top boundary row (j = ny) first."""
    _write(path, csv_rows(grid.reshape(np.asarray(field, dtype=float))[::-1]))


def write_pgm(field: np.ndarray, grid: Grid, path: str) -> None:
    """Binary P5, 16-bit big-endian, linear min-max scaling; the (min, max)
    pair lands in a `.range.txt` sidecar.  A field that is constant up to
    round-off, hi - lo <= 8 eps max(1, |lo|, |hi|), maps to 0."""
    z = grid.reshape(np.asarray(field, dtype=float))[::-1]
    lo, hi = float(z.min()), float(z.max())
    if hi - lo > 8.0 * EPS * max(1.0, abs(lo), abs(hi)):
        samples = np.round((z - lo) / (hi - lo) * 65535.0).astype(">u2")
    else:
        samples = np.zeros(z.shape, dtype=">u2")
    header = f"P5\n{grid.nx} {grid.ny + 1}\n65535\n".encode("ascii")
    _write(path, (header, samples.tobytes()))
    _write(os.path.splitext(path)[0] + ".range.txt", f"{lo:.16e} {hi:.16e}\n")


@contextlib.contextmanager
def _output_lock(out_dir: str):
    """Single writer per output directory, enforced by an exclusive lock file."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory '{out_dir}': {exc}") from exc
    lock_path = os.path.join(out_dir, LOCK_NAME)
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise IoError(f"output directory '{out_dir}' is locked by another run "
                      f"(remove {lock_path} if stale)") from None
    except OSError as exc:
        raise IoError(f"cannot lock output directory '{out_dir}': {exc}") from exc
    try:
        os.close(fd)
        yield out_dir
    finally:
        with contextlib.suppress(OSError):
            os.unlink(lock_path)


def _write_field(c: SimpleNamespace, grid: Grid, field: np.ndarray, stem: str) -> None:
    """stem.csv in output.dir, plus stem.pgm if output.write_pgm."""
    write_snapshot(field, grid, os.path.join(c.output.dir, stem + ".csv"))
    if c.output.write_pgm:
        write_pgm(field, grid, os.path.join(c.output.dir, stem + ".pgm"))


def _stationary_summary(r: StationaryResult, report: ValidationReport) -> str:
    lines = [
        f"theta_inf = {r.theta_inf:.16e}",
        f"u_inf = {r.u_inf:.16e}",
        f"mu_target = {r.mu_target:.16e}",
        f"phase_residual = {r.phase_residual:.3e}",
        f"mass_gap = {r.mass_gap:.3e}",
        f"separation = {r.separation:.6e}",
        f"mass_admissible = {'yes' if report.mass_admissible else 'no'} "
        f"(lower bound {report.mass_lower_bound:.10g})",
        f"mass_above_upper_bound = {'yes' if report.mass_dominates else 'no'} "
        f"(upper bound {report.mass_upper_bound:.10g})",
        f"separating_slope = {'yes' if report.slope_margin > 0.0 else 'no'} "
        f"(margin {report.slope_margin:.6g})",
    ]
    return "\n".join(lines) + "\n"


def _cmd_check(c: SimpleNamespace) -> int:
    report = validate_config(c)
    print(report.render())
    return 0 if report.ok else 3


def _cmd_simulate(c: SimpleNamespace) -> int:
    report = validate_config(c)
    if not report.ok:
        print(report.render(), file=sys.stderr)
        return 3
    cfg = build_stepper_config(c)

    def snapshot(step: int, s: State) -> None:
        for name, field in (("theta", s.theta), ("chi", s.chi)):
            _write_field(c, report.model.grid, field, f"{name}_{step}")

    with _output_lock(c.output.dir) as out_dir:
        rows, _ = run(report.model, cfg, report.initial_state, c.time.t_end,
                      source=report.source, snapshot_every=c.time.snapshot_every,
                      on_snapshot=snapshot)
        write_diagnostics(rows, os.path.join(out_dir, "diagnostics.csv"))
    print(f"simulate: {len(rows) - 1} steps to t = {rows[-1].t:.6g}, "
          f"mu drift {abs(rows[-1].mu - rows[0].mu):.3e}")
    return 0


def _cmd_stationary(c: SimpleNamespace) -> int:
    report = validate_config(c)
    if not report.ok:
        print(report.render(), file=sys.stderr)
        return 3
    model, s0 = report.model, report.initial_state
    result = solve_stationary(report.mu0, dm_mean(s0.theta, model.masses), s0.chi, model,
                              tol=c.solver.newton_tol)
    summary = _stationary_summary(result, report)
    with _output_lock(c.output.dir) as out_dir:
        _write_field(c, model.grid, result.chi_inf, "chi_inf")
        _write(os.path.join(out_dir, "stationary_summary.txt"), summary)
    print(summary, end="")
    return 0


def _cmd_ode(c: SimpleNamespace) -> int:
    if c.init.theta_kind != "constant" or c.init.chi_kind != "constant":
        raise ConfigError("the ode command requires constant init presets")
    for surf, bulk in (("potential_surf", "potential_bulk"), ("latent_surf", "latent_bulk")):
        if vars(getattr(c, surf)) != vars(getattr(c, bulk)):
            raise ConfigError(f"the ode command requires {surf} equal to {bulk}")
    t, theta, chi = integrate_homogeneous(
        c.init.theta_value, c.init.chi_value, Potential(**vars(c.potential_bulk)),
        LatentHeat(**vars(c.latent_bulk)), tau_ref=c.time.dt, t_end=c.time.t_end)
    with _output_lock(c.output.dir) as out_dir:
        _write(os.path.join(out_dir, "ode.csv"),
               [b"t,theta,chi\n", *csv_rows(np.column_stack((t, theta, chi)))])
    print(f"ode: {len(t)} samples to t = {t[-1]:.6g}")
    return 0


# name: (handler, help text); the order is the order of the help listing.
_COMMANDS = {
    "simulate": (_cmd_simulate, "time-step the coupled system and write diagnostics"),
    "stationary": (_cmd_stationary, "solve the steady-state system at the initial mass"),
    "check": (_cmd_check, "print the config validation report"),
    "ode": (_cmd_ode, "integrate the spatially homogeneous reduction"),
}


def load_config(path: str) -> SimpleNamespace:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config '{path}': {exc}") from exc
    return parse_config(text)


def cli_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pfstrip",
        description="Phase-field simulator on a periodic strip with coupled "
                    "dynamic boundary conditions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, blurb) in _COMMANDS.items():
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", required=True, help="path to the config file")
        p.add_argument("--output", default=None, help="override output.dir")
    args = parser.parse_args(argv)

    try:
        c = load_config(args.config)
        if args.output is not None:
            c.output.dir = args.output
        return _COMMANDS[args.command][0](c)
    except (ConfigError, SolverError, IoError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConfigError) else 3 if isinstance(exc, DomainError) else 2


def main() -> None:
    sys.exit(cli_main())
