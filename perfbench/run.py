"""pfstrip benchmark: four seeded workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py --workload stripe_96 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, summary table

Run from the repository root; the program is imported from ``src/``.  Each
operation is one fresh ``perfbench/worker.py`` process, started strictly
one at a time; a run repeats operations until ``--seconds`` is spent (at
least three) and reports medians.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` alternates untraced and traced operations and prints
the per-layer metrics.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end metrics (tracing off):
  setup_s      fresh interpreter to the first time step or solve: import,
               config parse, validate_config and model assembly (median).
  run_rel      wall time of the timed operation after set-up, summed over the
               run's operations, divided by the summed wall time of a fixed
               reference kernel timed in each operation's process right after
               it (reference.py).  Over ten runs on a shared 2-vCPU VM the
               quartile spread of the raw wall time was 0.13-0.48 of its
               median, that of this ratio 0.05-0.11.
  peak_rss_mb  peak resident memory of an operation's process (median).

The raw ``run_s`` (median wall time of the operation) and ``ref_s`` are
printed by every run and reported among the per-layer metrics.

``step_ms.p50`` and ``step_ms.p95`` are informational (printed by every run,
and per-layer metrics): time per accepted step, between successive on_row
callbacks, pooled over the run's operations (stepping workloads only).  On a
shared machine step times fall into a fast and a slow cluster whose weights
drift with outside load, so these quantiles move more from run to run than
the end-to-end bounds allow.

An operation fails if its process raises, exits nonzero, or fails a
correctness check; ``failed_frac`` is failed / attempted.  The stationary
workload also runs a probe of a known defect (example physics with latent
a = +0.5, where ``pfstrip stationary`` fails).  The probe is timed outside
``run_s`` and counted in the per-layer ``failed_frac``, not in the
``attempted`` / ``failed`` of the last line, so the benchmark stays usable
while the defect is open.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

DEFAULT_SEED = 1
MIN_OPS = 3
RUN_LIMIT_S = 170.0
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
TRACE_DIR = os.path.join(ROOT, ".perfbench_out")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _BENCH = json.load(_fh)
END_TO_END = [m["name"] for m in _BENCH["end_to_end"]]
UNIT = {m["name"]: m["unit"] for m in _BENCH["end_to_end"] + _BENCH["per_layer"]}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here (program missing or broken)."""


def _env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def machine() -> dict:
    """The machine and library versions a result was measured on."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "threads": {k: os.environ.get(k) for k in THREAD_VARS}}


def warm_up(env) -> None:
    """Import the program once (bytecode compiled) and fail loudly if it is not there."""
    proc = subprocess.run([sys.executable, "-c", "import pfstrip; print(pfstrip.__file__)"],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    where = proc.stdout.strip()
    if proc.returncode != 0 or not where.startswith(os.path.join(ROOT, "src")):
        raise BenchError(f"cannot import pfstrip from {ROOT}/src: {proc.stderr.strip()[-500:]}")


def run_op(workload, seed, size, traced, env, timeout):
    """One worker process; returns its result dict, or one with an 'error' key."""
    work = os.path.join(WORK_DIR, "op")
    shutil.rmtree(work, ignore_errors=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), size,
           "1" if traced else "0", work]
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s", "traced": traced}
    if proc.returncode != 0:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-800:]}",
                "traced": traced}
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_s"] = res["setup_end"] - t_spawn
    res["traced"] = traced
    if traced:
        os.makedirs(TRACE_DIR, exist_ok=True)
        os.replace(os.path.join(work, "spans.json"),
                   os.path.join(TRACE_DIR, f"{workload}.spans.json"))
    shutil.rmtree(work, ignore_errors=True)
    return res


def quantile(values, q):
    """Inclusive linear-interpolation quantile (q in [0, 1])."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1] \
        if len(values) > 1 else values[0]


def run_workload(workload, seed, seconds, traced, size="full"):
    """Repeat operations for `seconds`; return their results."""
    env = _env()
    t0 = time.perf_counter()
    warm_up(env)
    ops, longest = [], 0.0
    min_ops = MIN_OPS + 1 if traced else MIN_OPS
    while True:
        elapsed = time.perf_counter() - t0
        if len(ops) >= min_ops and elapsed + longest > seconds:
            break
        timeout = max(10.0, RUN_LIMIT_S - elapsed)
        t_op = time.perf_counter()
        # with tracing, alternate untraced and traced operations
        ops.append(run_op(workload, seed, size, traced and len(ops) % 2 == 1, env, timeout))
        longest = max(longest, time.perf_counter() - t_op)
        if "error" in ops[-1] and len(ops) >= min_ops:
            break
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    return ops


def verdicts(workload, ops):
    """Mark each operation failed or not; byte-identical outputs across one seed's repeats."""
    digests = [op.get("digest") for op in ops if "error" not in op]
    reference = digests[0] if digests else None
    for op in ops:
        if "error" in op:
            op["failed"] = True
            continue
        if workload == "cli_snapshots":
            op["checks"]["byte_identical_repeats"] = op["digest"] == reference
        op["failed"] = not all(op["checks"].values())
    return sum(op["failed"] for op in ops)


def step_ms(ops):
    """Step times of the untraced, passing operations, pooled, in ms."""
    return [s * 1e3 for op in ops if not op["failed"] and not op["traced"] for s in op["step_s"]]


def end_to_end(ops):
    good = [op for op in ops if not op["failed"] and not op["traced"]]
    if not good:
        return {}
    return {
        "setup_s": statistics.median(op["setup_s"] for op in good),
        "run_rel": sum(op["run_s"] for op in good) / sum(op["ref_s"] for op in good),
        "peak_rss_mb": statistics.median(op["rss_mb"] for op in good),
    }


def per_layer(ops, failed):
    """Medians over the traced operations, plus trace overhead and the failure fraction."""
    traced = [op for op in ops if op["traced"] and not op["failed"]]
    plain = [op for op in ops if not op["traced"] and not op["failed"]]
    probes = [op["probe"] for op in ops if "probe" in op]
    m = {}
    if traced:
        for key in traced[0]["layers"]:
            m[key] = statistics.median(op["layers"][key] for op in traced)
        m["io_cli.import_s"] = statistics.median(op["import_s"] for op in traced)
        m["timestepper.newton_iters_per_step"] = traced[0].get("newton_iters_per_step", 0.0)
        if plain:
            m["trace_overhead_frac"] = (statistics.median(op["run_s"] for op in traced)
                                        / statistics.median(op["run_s"] for op in plain) - 1.0)
    if plain:
        m["run_s"] = statistics.median(op["run_s"] for op in plain)
        m["ref_s"] = statistics.median(op["ref_s"] for op in plain)
    steps = step_ms(ops)
    m["step_ms.p50"] = statistics.median(steps) if steps else 0.0
    m["step_ms.p95"] = quantile(steps, 0.95) if steps else 0.0
    m["step_ms.samples"] = len(steps)
    m["stationary.probe_s"] = statistics.median(p["s"] for p in probes) if probes else 0.0
    m["stationary.probe_failed"] = sum(not p["ok"] for p in probes)
    m["failed_frac"] = (failed + m["stationary.probe_failed"]) / (len(ops) + len(probes))
    return m


def report(workload, seed, traced, size, seconds):
    """Run one workload; print the human summary and return the contract result."""
    ops = run_workload(workload, seed, seconds, traced, size)
    failed = verdicts(workload, ops)
    e2e = end_to_end(ops)
    print(f"# workload {workload}  seed {seed}  trace {int(traced)}  size {size}  "
          f"ops {len(ops)}  failed {failed}")
    print("# machine " + json.dumps(machine()))
    for op in ops:
        if "error" in op:
            print(f"#   op FAILED: {op['error']}")
        else:
            bad = [k for k, ok in op["checks"].items() if not ok]
            print(f"#   op {'traced' if op['traced'] else 'plain '} setup {op['setup_s']:.3f} s"
                  f"  run {op['run_s']:.3f} s  ref {op['ref_s'] * 1e3:.2f} ms"
                  f"  steps {len(op['step_s'])}"
                  f"  checks {'ok' if not bad else 'FAILED ' + ','.join(bad)}"
                  f"  {json.dumps(op['details'])}")
        if "probe" in op:
            p = op["probe"]
            print(f"#   probe (known defect, latent a=+0.5): exit {p['exit']}  "
                  f"{'ok' if p['ok'] else 'FAILED'}  {p['s']:.3f} s  {p['message'][-120:]}")
    layers = per_layer(ops, failed)
    n_steps = layers["step_ms.samples"]
    print(f"# step samples {n_steps}" + ("" if n_steps >= 200 or size != "full"
                                         else "  (fewer than 200: p95 has < 10 beyond it)"))
    print(f"# informational: run_s {layers.get('run_s', 0.0):.6g} s, "
          f"ref_s {layers.get('ref_s', 0.0):.6g} s, "
          f"step_ms.p50 {layers['step_ms.p50']:.6g} ms, "
          f"step_ms.p95 {layers['step_ms.p95']:.6g} ms, "
          f"failed_frac {layers['failed_frac']:.3f} (known-defect probe included)")
    metrics = layers if traced else e2e
    for name, value in metrics.items():
        print(f"{name:45s} {value:.6g} {UNIT[name]}")
    result = {"correct": failed == 0 and len(ops) > 0, "attempted": len(ops), "failed": failed,
              "metrics": {k: {"value": v, "unit": UNIT[k]} for k, v in metrics.items()}}
    return result, layers


def print_table(results):
    """One row per workload: the end-to-end metrics, step times and failed_frac."""
    cols = END_TO_END
    extra = ["run_s", "step_ms.p50", "step_ms.p95", "failed_frac"]
    print("\n" + f"{'workload':14s}" + "".join(f"{c:>14s}" for c in cols + extra))
    for workload, (res, layers) in results.items():
        cells = [res["metrics"].get(c, {}).get("value", float("nan")) for c in cols]
        print(f"{workload:14s}" + "".join(f"{v:14.5g}" for v in cells + [layers[c] for c in extra]))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                   help="tiny runs every workload at a smoke-test size")
    args = p.parse_args(argv)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    try:
        results = {w: report(w, args.seed, bool(args.trace), args.size, args.seconds)
                   for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        if not args.trace:
            print_table(results)
        print(json.dumps({w: res for w, (res, _) in results.items()}))
    else:
        print(json.dumps(results[args.workload][0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
