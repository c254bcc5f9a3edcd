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
from dataclasses import dataclass, fields, make_dataclass, replace

import numpy as np

from .errors import ConfigError, DomainError, FatalSolverError, IoError, SolverError
from .functionals import DiagnosticsRow, State, dm_mean, mass_mu
from .grid_ops import Grid, assemble_masses, assemble_stiffness, build_grid
from .potentials import DOMAINS, CompatReport, LatentHeat, Potential, check_compatibility
from .stationary import HypothesisReport, StationaryResult, hypothesis_report, solve_stationary
from .timestepper import (EPS, MIN_TAU_FRACTION, PRESET_KINDS, SOURCE_KINDS, HeatSource,
                          Model, StepperConfig, integrate_homogeneous, make_source,
                          preset_field, run)

LOCK_NAME = ".lock"


_REQUIRED = object()
_DT_FRACTION = object()
_POSITIVE = (lambda v: v > 0.0, "must be positive")
_NONNEGATIVE = (lambda v: v >= 0, "must be nonnegative")


def _one_of(kinds) -> tuple:
    return (lambda v: v in kinds), "must be one of " + "/".join(kinds)


# name, type, default, bound check, bound message; the order fixes the dataclass
# fields and lets the time.min_dt default read time.dt.
# A section's keys are the parameter names of the object it builds, and the
# solver defaults are StepperConfig's.
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
    ("solver.newton_tol", float, StepperConfig.newton_tol, *_POSITIVE),
    ("solver.newton_max_iter", int, StepperConfig.newton_max_iter,
     lambda v: v >= 1, "must be at least 1"),
    ("solver.cg_tol", float, StepperConfig.cg_tol, *_POSITIVE),
    ("solver.guard_eps", float, StepperConfig.guard_eps,
     lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
    ("output.dir", str, "out", None, ""),
    ("output.write_pgm", bool, False, None, ""),
)


def _make_sections() -> dict[str, type]:
    """One frozen dataclass per config section, its fields the _SCHEMA keys in order."""
    keys: dict[str, list] = {}
    for name, typ, *_ in _SCHEMA:
        sec, _, key = name.partition(".")
        keys.setdefault(sec, []).append((key, typ))
    return {sec: make_dataclass(sec.title().replace("_", "") + "Cfg", fields, frozen=True,
                                namespace={"__module__": __name__})
            for sec, fields in keys.items()}


_SECTIONS = _make_sections()
Config = make_dataclass("Config", list(_SECTIONS.items()), frozen=True,
                        namespace={"__module__": __name__})


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


def parse_config(text: str) -> Config:
    """Parse config text; ConfigError carries the line number of the offence."""
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
            values[name] = values["time.dt"] * MIN_TAU_FRACTION
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
    return Config(**{sec: _SECTIONS[sec](**kw) for sec, kw in sections.items()})


def build_model(c: Config) -> Model:
    g = build_grid(**vars(c.domain))
    return Model(grid=g, masses=assemble_masses(g), stiffness=assemble_stiffness(g),
                 p_bulk=Potential(**vars(c.potential_bulk)),
                 p_surf=Potential(**vars(c.potential_surf)),
                 l_bulk=LatentHeat(**vars(c.latent_bulk)),
                 l_surf=LatentHeat(**vars(c.latent_surf)))


def build_stepper_config(c: Config) -> StepperConfig:
    return StepperConfig(tau=c.time.dt, min_tau=c.time.min_dt, **vars(c.solver))


def build_initial_state(c: Config, model: Model) -> State:
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


def build_source(c: Config, model: Model) -> HeatSource | None:
    return make_source(model, **vars(c.source))


@dataclass
class ValidationReport:
    """Mandatory checks plus informational flags; ok requires all mandatory ones."""

    compatibility: CompatReport | None
    compatibility_error: str | None
    initial_state_error: str | None
    mu0: float | None
    hypotheses: HypothesisReport
    source_projected_mean: float
    initial_state: State | None   # built from the init presets; None if that failed

    @property
    def ok(self) -> bool:
        """A failed initial state leaves the hypotheses at mu0 = -inf, so not mass_admissible."""
        return self.compatibility_error is None and self.hypotheses.mass_admissible

    def render(self) -> str:
        lines = []
        if self.compatibility_error is not None:
            lines.append(f"compatibility: FAIL ({self.compatibility_error})")
        else:
            cr = self.compatibility
            lines.append(f"compatibility: ok (c_s={cr.c_s:.6g}, C_s={cr.big_c_s:.6g})")
        lines.append("coercivity: ok")   # holds for every config: see the potentials docstring
        if self.initial_state_error is not None:
            lines.append(f"initial state: FAIL ({self.initial_state_error})")
            lines.append("mass admissibility: FAIL (no valid initial state)")
        else:
            lines.append("initial state: ok")
            h = self.hypotheses
            verdict = "ok" if h.mass_admissible else "FAIL"
            lines.append(f"mass admissibility: {verdict} (mu0={self.mu0:.10g}, "
                         f"lower bound={h.mass_lower_bound:.10g})")
        lines.append(f"source projected mean: {self.source_projected_mean:.3e}")
        h = self.hypotheses
        lines.append(f"info: mass above upper latent bound: "
                     f"{'yes' if h.mass_dominates else 'no'} "
                     f"(upper bound={h.mass_upper_bound:.10g})")
        lines.append(f"info: separating latent slope: "
                     f"{'yes' if h.slope_separates else 'no'} "
                     f"(margin={h.slope_margin:.6g})")
        lines.append(f"overall: {'ok' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def validate_config(c: Config, model: Model | None = None) -> ValidationReport:
    """Run every pre-flight check on c and its model (built here unless the
    caller passes build_model(c)); never raises, failures land in the report."""
    model = build_model(c) if model is None else model

    compat = None
    compat_err = None
    try:
        compat = check_compatibility(model.p_bulk, model.p_surf)
    except DomainError as exc:
        compat_err = str(exc)

    source = build_source(c, model)
    projected = source.projected_mean if source is not None else 0.0

    state_err = None
    mu0 = s0 = None
    try:
        s0 = build_initial_state(c, model)
        s0.validate(model)
        mu0 = mass_mu(s0, model)
    except DomainError as exc:
        state_err = str(exc)

    hyp = hypothesis_report(model, mu0 if mu0 is not None else -math.inf)
    return ValidationReport(
        compatibility=compat, compatibility_error=compat_err,
        initial_state_error=state_err, mu0=mu0,
        hypotheses=hyp, source_projected_mean=projected, initial_state=s0,
    )


CSV_HEADER = ",".join("time" if f.name == "t" else f.name for f in fields(DiagnosticsRow))
_ROW_FORMAT = ",".join(f"%({f.name})" + ("s" if f.type in (int, "int") else ".16e")
                       for f in fields(DiagnosticsRow))


def format_diagnostics_row(row: DiagnosticsRow) -> str:
    return _ROW_FORMAT % vars(row)


def _write(path: str, data: str | bytes) -> None:
    """Write ASCII text or bytes to path as they are; OSError becomes IoError."""
    try:
        with open(path, "wb") as fh:
            fh.write(data.encode("ascii") if isinstance(data, str) else data)
    except OSError as exc:
        raise IoError(f"cannot write '{path}': {exc}") from exc


def write_diagnostics(rows, path: str) -> None:
    lines = [CSV_HEADER]
    lines += [format_diagnostics_row(r) for r in rows]
    _write(path, "\n".join(lines) + "\n")


def write_snapshot(field: np.ndarray, grid: Grid, path: str) -> None:
    """One CSV matrix, ny+1 rows of nx values, top boundary row (j = ny) first."""
    z = grid.reshape(np.asarray(field, dtype=float))
    row_fmt = ",".join(["%.16e"] * grid.nx) + "\n"
    _write(path, "".join([row_fmt % tuple(row) for row in z[::-1].tolist()]))


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
    _write(path, header + samples.tobytes())
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


def _snapshot_writer(c: Config, model: Model):
    out_dir = c.output.dir

    def emit(step: int, s: State) -> None:
        for name, field in (("theta", s.theta), ("chi", s.chi)):
            write_snapshot(field, model.grid, os.path.join(out_dir, f"{name}_{step}.csv"))
            if c.output.write_pgm:
                write_pgm(field, model.grid, os.path.join(out_dir, f"{name}_{step}.pgm"))

    return emit


def _stationary_summary(r: StationaryResult, h: HypothesisReport) -> str:
    lines = [
        f"theta_inf = {r.theta_inf:.16e}",
        f"u_inf = {r.u_inf:.16e}",
        f"mu_target = {r.mu_target:.16e}",
        f"phase_residual = {r.phase_residual:.3e}",
        f"mass_gap = {r.mass_gap:.3e}",
        f"separation = {r.separation:.6e}",
        f"mass_admissible = {'yes' if h.mass_admissible else 'no'} "
        f"(lower bound {h.mass_lower_bound:.10g})",
        f"mass_above_upper_bound = {'yes' if h.mass_dominates else 'no'} "
        f"(upper bound {h.mass_upper_bound:.10g})",
        f"separating_slope = {'yes' if h.slope_separates else 'no'} "
        f"(margin {h.slope_margin:.6g})",
    ]
    return "\n".join(lines) + "\n"


def _cmd_check(c: Config) -> int:
    report = validate_config(c)
    print(report.render())
    return 0 if report.ok else 3


def _cmd_simulate(c: Config) -> int:
    model = build_model(c)
    report = validate_config(c, model)
    if not report.ok:
        print(report.render(), file=sys.stderr)
        return 3
    source = build_source(c, model)
    cfg = build_stepper_config(c)
    with _output_lock(c.output.dir) as out_dir:
        rows, _ = run(model, cfg, report.initial_state, c.time.t_end, source=source,
                      snapshot_every=c.time.snapshot_every,
                      on_snapshot=_snapshot_writer(c, model))
        write_diagnostics(rows, os.path.join(out_dir, "diagnostics.csv"))
    print(f"simulate: {len(rows) - 1} steps to t = {rows[-1].t:.6g}, "
          f"mu drift {abs(rows[-1].mu - rows[0].mu):.3e}")
    return 0


def _cmd_stationary(c: Config) -> int:
    model = build_model(c)
    report = validate_config(c, model)
    if not report.ok:
        print(report.render(), file=sys.stderr)
        return 3
    s0 = report.initial_state
    result = solve_stationary(report.mu0, dm_mean(s0.theta, model.masses), s0.chi, model,
                              tol=c.solver.newton_tol)
    summary = _stationary_summary(result, report.hypotheses)
    with _output_lock(c.output.dir) as out_dir:
        write_snapshot(result.chi_inf, model.grid, os.path.join(out_dir, "chi_inf.csv"))
        if c.output.write_pgm:
            write_pgm(result.chi_inf, model.grid, os.path.join(out_dir, "chi_inf.pgm"))
        _write(os.path.join(out_dir, "stationary_summary.txt"), summary)
    print(summary, end="")
    return 0


def _cmd_ode(c: Config) -> int:
    if c.init.theta_kind != "constant" or c.init.chi_kind != "constant":
        raise ConfigError("the ode command requires constant init presets")
    for surf, bulk in (("potential_surf", "potential_bulk"), ("latent_surf", "latent_bulk")):
        if vars(getattr(c, surf)) != vars(getattr(c, bulk)):
            raise ConfigError(f"the ode command requires {surf} equal to {bulk}")
    t, theta, chi = integrate_homogeneous(
        c.init.theta_value, c.init.chi_value, Potential(**vars(c.potential_bulk)),
        LatentHeat(**vars(c.latent_bulk)), tau_ref=c.time.dt, t_end=c.time.t_end)
    lines = ["t,theta,chi"]
    lines += [f"{ti:.16e},{th:.16e},{ch:.16e}" for ti, th, ch in zip(t, theta, chi)]
    with _output_lock(c.output.dir) as out_dir:
        _write(os.path.join(out_dir, "ode.csv"), "\n".join(lines) + "\n")
    print(f"ode: {len(t)} samples to t = {t[-1]:.6g}")
    return 0


# name: (handler, help text); the order is the order of the help listing.
_COMMANDS = {
    "simulate": (_cmd_simulate, "time-step the coupled system and write diagnostics"),
    "stationary": (_cmd_stationary, "solve the steady-state system at the initial mass"),
    "check": (_cmd_check, "print the config validation report"),
    "ode": (_cmd_ode, "integrate the spatially homogeneous reduction"),
}


def load_config(path: str) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
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
            c = replace(c, output=replace(c.output, dir=args.output))
        return _COMMANDS[args.command][0](c)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, FatalSolverError, IoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_main())
