"""Count the solver work of each stepping benchmark workload, in-process.

    python3 tools/solver_counts.py SRC_DIR [--seed 1] [--size full|tiny]

For stripe_96, homog_8x4 and cli_snapshots (perfbench/workloads.py, the
stripe_96 phase perturbed as the benchmark perturbs it) this runs
timestepper.run once and prints one JSON object per workload and line: the
accepted steps, the Newton iterations of the phase and heat solves, the
preconditioner applies of each (calls of the callable that
ShiftedInverse.solver returns, made during step_chi or step_theta), the
StiffnessOp.apply calls and the mass drift max_k |mu_k - mu_0| over the
diagnostics rows.  pfstrip comes from SRC_DIR, so two trees compare by
running this once on each.  Every count is deterministic; the drift depends
on the BLAS thread count above 96x96 (README, Threads).
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402

STEPPING = ("stripe_96", "homog_8x4", "cli_snapshots")


def counts(name: str, seed: int, size: str) -> dict:
    """Run one workload config and return its solver counts."""
    from pfstrip import io_cli, timestepper
    from pfstrip.grid_ops import ShiftedInverse, StiffnessOp

    c = io_cli.parse_config(workloads.config_text(name, seed, size, os.devnull))
    model = io_cli.build_model(c)
    s0 = io_cli.build_initial_state(c, model)
    if name == "stripe_96":
        g = model.grid
        s0.chi = s0.chi + workloads.stripe_perturbation(g.x, g.y, g.lx, g.ly, seed)
    tally = {"precond_chi": 0, "precond_theta": 0, "k_applies": 0}
    solve = {"now": None}   # the step whose solves the applies belong to
    real_solver, real_apply = ShiftedInverse.solver, StiffnessOp.apply
    real_chi, real_theta = timestepper.step_chi, timestepper.step_theta

    def solver(self, shift):
        inner = real_solver(self, shift)

        def counted(r):
            tally["precond_" + solve["now"]] += 1
            return inner(r)
        return counted

    def apply(self, z):
        tally["k_applies"] += 1
        return real_apply(self, z)

    def within(label, step):
        def labelled(*args):
            solve["now"] = label
            return step(*args)
        return labelled

    ShiftedInverse.solver, StiffnessOp.apply = solver, apply
    timestepper.step_chi, timestepper.step_theta = within("chi", real_chi), \
        within("theta", real_theta)
    try:
        rows, _ = timestepper.run(model, io_cli.build_stepper_config(c), s0, c.time.t_end)
    finally:
        ShiftedInverse.solver, StiffnessOp.apply = real_solver, real_apply
        timestepper.step_chi, timestepper.step_theta = real_chi, real_theta
    return {"workload": name, "seed": seed, "size": size, "steps": len(rows) - 1,
            "newton_chi": sum(r.newton_iters_chi for r in rows),
            "newton_theta": sum(r.newton_iters_theta for r in rows),
            **tally, "precond": tally["precond_chi"] + tally["precond_theta"],
            "mass_drift": max(abs(r.mu - rows[0].mu) for r in rows)}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", help="directory holding the pfstrip package")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    for name in STEPPING:
        print(json.dumps(counts(name, args.seed, args.size)))


if __name__ == "__main__":
    main()
