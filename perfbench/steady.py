"""Run one workload repeatedly and print each metric's median and quartiles.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--seconds S]
                                [--first-seed 1]

Each run is a fresh ``run.py`` process with its own seed (first-seed,
first-seed + 1, ...).  For every metric the table gives the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and
the spread (Q3 - Q1) / median, plus the share of failed operations.
``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    seconds = args.seconds or json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    values, units, shares = {}, {}, []
    for k in range(args.runs):
        seed = args.first_seed + k
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.exit(f"run with seed {seed} exited {proc.returncode}:\n"
                     f"{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: wrong answers:\n{proc.stderr}")
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            file=sys.stderr)

    print(f"{args.workload}: {args.runs} runs of {seconds} s, "
          f"failed share {sorted(set(shares))}")
    print(f"{'metric':44s} {'unit':>12s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:44s} {units[name]:>12s} {med:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {spread:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
