"""Run 43 fixed command-line cases in-process and print a JSON digest of them.

    python3 tools/output_digest.py SRC_DIR > digest.json
    python3 tools/output_digest.py SRC_DIR --against OTHER_SRC

Cases: configs/example.cfg through all four commands, an ode whose trajectory
leaves the potential domain (exit 3), the benchmark workload configs at seeds 1
and 7, three steps of the full-size stripe_96 workload (96x96: 9312 nodes, and
18528 edges in StiffnessOp.quad's dot, past the 10000 entries above which
OpenBLAS splits a ddot over threads), the perfbench stationary probe, two
stationary solves (a steady state 1.16e-7 from the singular wall, and a 16x8
stripe saddle), a check of quartic potentials with delta = 60, a check of a
quartic bulk with a logarithmic surface (the one compatibility constant other
than 1), checks that fail compatibility or the initial state and one that
reports a nonzero projected source mean, a simulate with a sinusoid source, two
simulates whose surface laws differ from the bulk ones (a quartic bulk
potential; a surface delta and latent heat of their own), a two-step simulate
whose snapshots hold exact zeros and values below 1e-6 (the snapshot writer's
per-value path), a simulate whose first step is halved and whose step size
doubles back after ten successes, one that fails at the minimum step size (exit
2), a simulate whose Newton steps are halved into the guard box and backtracked
on their residual, a stationary solve whose steps are halved into the guard box,
a stationary solve with quartic potentials that lands on a stripe, nine rejected
configs and the help texts.  Per case: exit code, stdout, stderr and the sha256
of every output file.  pfstrip comes from SRC_DIR and the inputs from this
repository, so the diff of two trees' digests shows any output byte a change
moved.

--against runs every case on both trees and prints, for each case whose
result differs, the exit codes and per output (stdout and each file) the
largest absolute and relative difference over its numbers, with the CSV
column or `key = value` key of each and the columns or keys that moved; a
PGM gets its count of differing bytes.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
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
    stripe = workloads.config_text("stripe_96", 1, "full", "out")
    assert "t_end = 0.04\n" in stripe
    out["stripe_96_steps"] = (["simulate"], stripe.replace("t_end = 0.04\n", "t_end = 0.003\n"))
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


def load_cli(src: str):
    """io_cli.cli_main of the pfstrip package in src, imported afresh."""
    for name in [m for m in sys.modules if m == "pfstrip" or m.startswith("pfstrip.")]:
        del sys.modules[name]
    sys.path.insert(0, os.path.abspath(src))
    try:
        from pfstrip.io_cli import cli_main
    finally:
        sys.path.pop(0)
    return cli_main


NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)(?![\w.])")
KEY = re.compile(r"(\w+) = ")


def labelled_numbers(text: str, default: str) -> tuple[list, list, str]:
    """The labels and values of the numbers in text, and text with each number cut out.
    A number is labelled by its CSV column when the first line is a header, by the key of
    a `key = value` line, else by default."""
    lines = text.splitlines()
    header = lines[0].split(",") if lines and "," in lines[0] and \
        not NUMBER.search(lines[0]) else None
    labels, values = [], []
    for line in lines[1:] if header else lines:
        key = KEY.match(line)
        for i, tok in enumerate(NUMBER.findall(line)):
            labels.append(header[i] if header else key.group(1) if key else default)
            values.append(float(tok))
    return labels, values, NUMBER.sub("#", text)


def number_diff(a: str, b: str, label: str) -> tuple | None:
    """(largest absolute difference, its label, largest relative difference, its label, the
    labels that moved) between the numbers of texts a and b, or None if their other text
    differs.  A difference is relative to the largest magnitude under its label."""
    la, va, rest_a = labelled_numbers(a, label)
    lb, vb, rest_b = labelled_numbers(b, label)
    if rest_a != rest_b or la != lb:
        return None
    scale = {}
    for name, x, y in zip(la, va, vb):
        scale[name] = max(scale.get(name, 0.0), abs(x), abs(y))
    worst_abs = worst_rel = (0.0, label)
    moved = set()
    for name, x, y in zip(la, va, vb):
        if repr(x) != repr(y):
            moved.add(name)
            diff = abs(x - y) if math.isfinite(x - y) else math.inf
            worst_abs = max(worst_abs, (diff, name))
            worst_rel = max(worst_rel, (diff / scale[name] if scale[name] else math.inf, name))
    return (*worst_abs, *worst_rel, moved)


def moved_outputs(a: dict, b: dict, out_a: str, out_b: str) -> list:
    """Report lines on each output, stdout and stderr included, that differs between the
    run_case results a and b, whose files lie in out_a and out_b.  Numbered files such as
    chi_25.csv are reported in groups (chi_#.csv)."""
    groups, lines = {}, []
    for key in ("stdout", "stderr"):
        if a[key] != b[key]:
            groups.setdefault(key, []).append((a[key], b[key]))
    for name in sorted(set(a["files"]) | set(b["files"])):
        if a["files"].get(name) == b["files"].get(name):
            continue
        if name not in a["files"] or name not in b["files"]:
            lines.append(f"  {name}: in one tree only")
            continue
        xa, xb = Path(out_a, name).read_bytes(), Path(out_b, name).read_bytes()
        if name.endswith(".pgm"):
            count = sum(p != q for p, q in zip(xa, xb)) + abs(len(xa) - len(xb))
            groups.setdefault(re.sub(r"\d+", "#", name), []).append(count)
        else:
            groups.setdefault(re.sub(r"\d+", "#", name), []).append((xa.decode(), xb.decode()))
    for group, items in groups.items():
        files = f" ({len(items)} files)" if len(items) > 1 else ""
        if group.endswith(".pgm"):
            lines.append(f"  {group}{files}: {sum(items)} bytes differ")
            continue
        diffs = [number_diff(x, y, group) for x, y in items]
        if None in diffs:
            lines.append(f"  {group}{files}: text other than numbers differs")
            continue
        (d_abs, l_abs), (d_rel, l_rel) = max(d[:2] for d in diffs), max(d[2:4] for d in diffs)
        named = sorted(set().union(*(d[4] for d in diffs)) - {group})
        lines.append(f"  {group}{files}: max abs {d_abs:.3g} ({l_abs}), "
                     f"max rel {d_rel:.3g} ({l_rel})"
                     + (f"; moved: {', '.join(named)}" if named else ""))
    return lines


def against(src: str, other: str) -> list:
    """Report lines on every case whose result differs between the trees other and src."""
    with tempfile.TemporaryDirectory() as work:
        results = []
        for i, tree in enumerate((other, src)):
            cli_main = load_cli(tree)
            results.append({})
            for name, (argv, text) in cases().items():
                os.makedirs(os.path.join(work, str(i), name))
                results[i][name] = run_case(cli_main, argv, text, os.path.join(work, str(i), name))
        moved = [name for name in results[0] if results[0][name] != results[1][name]]
        lines = [f"{len(moved)} of {len(results[0])} cases moved from {other} to {src}"]
        for name in moved:
            a, b = results[0][name], results[1][name]
            lines.append(f"{name}: exit {a['exit']} -> {b['exit']}")
            lines += moved_outputs(a, b, *(os.path.join(work, i, name, "out") for i in "01"))
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Digest the command-line cases of a tree.")
    parser.add_argument("src", nargs="?", default="src", help="pfstrip source tree")
    parser.add_argument("--against", metavar="OTHER_SRC",
                        help="print how far each moved case's numbers lie from OTHER_SRC's")
    args = parser.parse_args()
    os.environ["COLUMNS"] = "80"   # argparse wraps its help to the terminal width
    if args.against:
        print("\n".join(against(args.src, args.against)))
    else:
        print(json.dumps(digest(load_cli(args.src)), indent=1, sort_keys=True))
