"""One operation of one workload, in a fresh interpreter.

Usage (run.py starts it; it is not meant to be run by hand):

    python3 perfbench/worker.py WORKLOAD SEED SIZE TRACE WORK_DIR

Prints one JSON object as its last stdout line: the perf_counter time at
which set-up ended (the parent subtracts its own spawn time; both read the
system-wide monotonic clock), the timed operation, per-step times,
correctness checks, peak RSS, the reference kernel's time and, with TRACE=1,
per-layer figures.
"""

import os
import sys
import time

# The reference kernel runs for this share of the operation's time, and at least
# REF_MIN_S seconds.
REF_SHARE = 0.25
REF_MIN_S = 0.15


def _pin_to_current_cpu():
    """Stay on the CPU the scheduler started this process on, so that the operation and
    the reference kernel timed after it run on the same CPU (see reference.py)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})


_pin_to_current_cpu()

# pfstrip first, so import_s is its whole import; the harness modules below
# then add only their own small load to setup_s (pfstrip already imports the
# standard-library modules they use).
_t = time.perf_counter()
import pfstrip  # noqa: E402
import pfstrip.io_cli as io_cli  # noqa: E402
IMPORT_S = time.perf_counter() - _t

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

import numpy as np  # noqa: E402  (already loaded by pfstrip)

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _diag_checks(mu, dissipation_cum, chi_min, chi_max, model, guard_eps):
    """Mass drift, nonnegative dissipation increments and the chi guard box."""
    mu = np.asarray(mu)
    drift = float(np.max(np.abs(mu - mu[0])))
    incs = np.diff(np.asarray(dissipation_cum))
    lo, hi = model.chi_bounds(guard_eps)
    return {
        "mass_drift": drift <= 1.0e-8 * (1.0 + abs(float(mu[0]))),
        "dissipation_nonnegative": bool(np.all(incs >= 0.0)),
        "chi_in_guard_box": bool(min(chi_min) >= lo.min() and max(chi_max) <= hi.max()),
    }, {"mass_drift": drift, "min_dissipation_increment": float(incs.min()) if incs.size else 0.0}


def _dir_digest(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            blob = fh.read()
        h.update(f"{name}\0{len(blob)}\0".encode())
        h.update(blob)
    return h.hexdigest()


def _read_csv_columns(path: str) -> dict:
    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def _summary_values(path: str) -> dict:
    out = {}
    with open(path, encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition(" = ")
            out[key.strip()] = value.split()[0]
    return out


class Hooks:
    """Timestamps taken at the program's own call boundaries (tracing off or on)."""

    def __init__(self, patches):
        self.op_start = None
        self.marks = []
        self.rows = []
        self.patches = patches

    def mark_entry(self, module, attr):
        def make(fn):
            def entered(*args, **kwargs):
                if self.op_start is None:
                    self.op_start = time.perf_counter()
                return fn(*args, **kwargs)
            return entered
        self.patches.replace(module, attr, make)

    def stop(self):
        """End the timed operation: put every original back, so that the checks after
        it are not traced.  Returns the end time."""
        t_end = time.perf_counter()
        self.patches.restore()
        return t_end

    def on_row(self, row):
        self.marks.append(time.perf_counter())
        self.rows.append(row)

    def add_on_row(self):
        """Give io_cli's call of run() an on_row callback (the CLI passes none)."""
        def make(fn):
            def with_rows(*args, **kwargs):
                if self.op_start is None:
                    self.op_start = time.perf_counter()
                return fn(*args, on_row=self.on_row, **kwargs)
            return with_rows
        self.patches.replace("io_cli", "run", make)

    def step_s(self):
        """Intervals between successive on_row callbacks: one per accepted step."""
        return [b - a for a, b in zip(self.marks, self.marks[1:])]


def _config_file(work, name, text):
    path = os.path.join(work, name)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return path


def _quiet_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = io_cli.cli_main(argv)
    return code, out.getvalue() + err.getvalue()


def run_stepping(name, seed, size, work, hooks):
    """stripe_96 / homog_8x4: in-process run() after config parse, validation and assembly."""
    c = io_cli.parse_config(workloads.config_text(name, seed, size, work))
    report = io_cli.validate_config(c)
    if not report.ok:
        raise RuntimeError("config failed validation:\n" + report.render())
    model = io_cli.build_model(c)
    s0 = io_cli.build_initial_state(c, model)
    if name == "stripe_96":
        g = model.grid
        s0.chi = s0.chi + workloads.stripe_perturbation(g.x, g.y, g.lx, g.ly, seed)
    cfg = io_cli.build_stepper_config(c)
    t_setup = time.perf_counter()
    rows, final = pfstrip.timestepper.run(model, cfg, s0, c.time.t_end,
                                          on_row=hooks.on_row)
    t_end = hooks.stop()
    checks, details = _diag_checks([r.mu for r in rows], [r.dissipation_cum for r in rows],
                                   [r.chi_min for r in rows], [r.chi_max for r in rows],
                                   model, cfg.guard_eps)
    lo, hi = model.chi_bounds(cfg.guard_eps)
    checks["chi_in_guard_box"] &= bool(np.all(final.chi >= lo) and np.all(final.chi <= hi))
    return t_setup, t_end, rows, checks, details, {}


def run_cli_snapshots(name, seed, size, work, hooks):
    """`pfstrip simulate` through cli_main, writing every snapshot as CSV and PGM."""
    out_dir = os.path.join(work, "out")
    cfg_path = _config_file(work, "workload.cfg", workloads.config_text(name, seed, size, out_dir))
    hooks.add_on_row()
    code, text = _quiet_cli(["simulate", "--config", cfg_path])
    t_end = hooks.stop()
    if code != 0:
        raise RuntimeError(f"pfstrip simulate exited {code}: {text.strip()}")
    c = io_cli.load_config(cfg_path)
    model = io_cli.build_model(c)
    cols = _read_csv_columns(os.path.join(out_dir, "diagnostics.csv"))
    checks, details = _diag_checks(cols["mu"], cols["dissipation_cum"], cols["chi_min"],
                                   cols["chi_max"], model, c.solver.guard_eps)
    return hooks.op_start, t_end, hooks.rows, checks, details, {"digest": _dir_digest(out_dir)}


def _stationary_checks(out_dir, c, model, tol):
    values = _summary_values(os.path.join(out_dir, "stationary_summary.txt"))
    chi = np.loadtxt(os.path.join(out_dir, "chi_inf.csv"), delimiter=",").ravel()
    lo, hi = model.chi_bounds(c.solver.guard_eps)
    residual, gap = float(values["phase_residual"]), float(values["mass_gap"])
    checks = {"phase_residual": residual <= tol, "mass_gap": abs(gap) <= tol,
              "chi_in_guard_box": bool(np.all(chi >= lo.min()) and np.all(chi <= hi.max()))}
    return checks, {"phase_residual": residual, "mass_gap": gap,
                    "theta_inf": float(values["theta_inf"])}


def run_stationary(name, seed, size, work, hooks):
    """`pfstrip stationary` through cli_main, then the known-defect probe (untimed in run_s)."""
    out_dir = os.path.join(work, "out")
    cfg_path = _config_file(work, "workload.cfg", workloads.config_text(name, seed, size, out_dir))
    hooks.mark_entry("io_cli", "solve_stationary")
    code, text = _quiet_cli(["stationary", "--config", cfg_path])
    t_end = hooks.stop()
    if code != 0:
        raise RuntimeError(f"pfstrip stationary exited {code}: {text.strip()}")
    c = io_cli.load_config(cfg_path)
    checks, details = _stationary_checks(out_dir, c, io_cli.build_model(c),
                                         workloads.STATIONARY_TOL)
    return hooks.op_start, t_end, [], checks, details, {}


def run_probe(work):
    """The example physics with latent a = +0.5: passes `check`, fails `stationary` today."""
    out_dir = os.path.join(work, "probe_out")
    cfg_path = _config_file(work, "probe.cfg", workloads.probe_config_text(out_dir))
    t0 = time.perf_counter()
    code, text = _quiet_cli(["stationary", "--config", cfg_path])
    probe_s = time.perf_counter() - t0
    ok = code == 0
    if ok:
        c = io_cli.load_config(cfg_path)
        checks, _ = _stationary_checks(out_dir, c, io_cli.build_model(c), c.solver.newton_tol)
        ok = all(checks.values())
    return {"s": probe_s, "exit": code, "ok": ok, "message": text.strip()[-300:]}


RUNNERS = {"stripe_96": run_stepping, "homog_8x4": run_stepping,
           "cli_snapshots": run_cli_snapshots, "stationary_96": run_stationary}


def layer_figures(tracer, model_bytes, window, n_rows, run_s):
    """The per-layer metrics of one traced operation."""
    s = tracer.summary(window)
    by = s["names"]

    def get(name, key):
        return by[name][key] if name in by else 0

    fig = {}
    for name in ("potentials.evaluate", "potentials.latent_eval", "grid_ops.solve_spd",
                 "grid_ops.stiffness_apply", "stationary.solve_chi_given_u",
                 "io_cli.write_snapshot", "io_cli.write_pgm", "io_cli.write_diagnostics"):
        fig[name + ".calls"] = get(name, "calls")
        fig[name + ".self_s"] = get(name, "self_s")
    for name in ("functionals.energy", "functionals.entropy", "functionals.mass_mu",
                 "functionals.dm_std", "functionals.dissipation_increment",
                 "timestepper.step_chi", "timestepper.step_theta"):
        fig[name + ".self_s"] = get(name, "self_s")
    for name in ("io_cli.write_snapshot", "io_cli.write_pgm", "io_cli.write_diagnostics"):
        fig[name + ".bytes"] = tracer.counters.get(name + ".bytes", 0.0)
    solves = get("grid_ops.solve_spd", "calls")
    fig["grid_ops.matvecs_per_solve"] = (tracer.counters.get("matvecs", 0.0) / solves
                                         if solves else 0.0)
    fig["grid_ops.stiffness_apply.bytes_computed"] = \
        get("grid_ops.stiffness_apply", "calls") * model_bytes
    fig["grid_ops.assemble_s"] = sum(get(n, "incl_s") for n in tracing.ASSEMBLY)
    steps = max(n_rows - 1, 0)
    fig["timestepper.rejected_attempts"] = get("timestepper.step_chi", "calls") - steps
    points = get("stationary.solve_chi_given_u", "calls")
    fig["stationary.newton_iters_per_point"] = (
        tracer.children_of("stationary.solve_chi_given_u", "grid_ops.solve_spd") / points
        if points else 0.0)
    fig["io_cli.validate_config.s"] = get("io_cli.validate_config", "incl_s")
    for layer, value in s["layer_self_s"].items():
        fig[layer + ".self_frac"] = value / run_s if run_s > 0 else 0.0
    return fig


def stiffness_apply_bytes(model) -> int:
    """Bytes one CSR K.z touches: values, column indices, row pointers, z read, result written."""
    a = model.stiffness.matrix
    n = a.shape[0]
    return (a.data.nbytes + a.indices.nbytes + a.indptr.nbytes + 2 * n * a.dtype.itemsize)


def main(argv):
    name, seed, size, traced, work = argv[0], int(argv[1]), argv[2], argv[3] == "1", argv[4]
    os.makedirs(work, exist_ok=True)
    patches = tracing.Patches()
    hooks = Hooks(patches)
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install(patches)
    t_setup, t_end, rows, checks, details, extra = RUNNERS[name](name, seed, size, work, hooks)
    run_s = t_end - t_setup
    import resource  # only now, so its load is not counted in setup_s

    result = {
        "setup_end": t_setup, "run_s": run_s, "import_s": IMPORT_S,
        "step_s": hooks.step_s(), "checks": checks, "details": details,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ref_s": reference.kernel_s(max(REF_MIN_S, REF_SHARE * run_s)),
    }
    result.update(extra)
    if rows:
        result["newton_iters_per_step"] = sum(
            r.newton_iters_chi + r.newton_iters_theta for r in rows[1:]) / max(len(rows) - 1, 1)
    if traced:
        c = io_cli.parse_config(workloads.config_text(name, seed, size, work))
        result["layers"] = layer_figures(
            tracer, stiffness_apply_bytes(io_cli.build_model(c)), (t_setup, t_end),
            len(rows), run_s)
        tracer.dump(os.path.join(work, "spans.json"))
    if name == "stationary_96":
        result["probe"] = run_probe(work)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
