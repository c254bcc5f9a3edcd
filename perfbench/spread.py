"""Run-to-run spread of the end-to-end metrics, as the benchmark's bounds are checked.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 [--workloads stripe_96 ...]

Runs ``run.py`` once per (seed, workload), interleaving workloads within each
seed, and prints for every end-to-end metric the median and the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median, next to the metric's bound from BENCHMARK.json.  A
spread below a third of the bound is marked steady.  ``--out FILE`` keeps
every run's result as JSON.  Repeating one seed (``--seeds 7 7 7 7 7``)
gives the host's share of the spread alone, without the seed's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--workloads", nargs="+", default=names, choices=names)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    runs = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for w in args.workloads:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[w].append({"seed": seed, **res})
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"{w:14s} seed {seed:3d} correct {res['correct']} "
                  f"failed {res['failed']}/{res['attempted']}  {vals}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1)

    print(f"\n{'workload':14s} {'metric':12s} {'median':>10s} {'spread':>8s} {'bound':>6s}")
    for w, results in runs.items():
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "steady" if spread < metric["bound"] / 3 else (
                "ok" if spread <= metric["bound"] else "TOO WIDE")
            print(f"{w:14s} {metric['name']:12s} {med:10.5g} {spread:8.4f} "
                  f"{metric['bound']:6.2f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
