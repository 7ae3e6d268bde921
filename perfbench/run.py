"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
A run is one process and a closed loop: the workload's operations run
one after another on one thread, in whole rounds, until a round as long
as the longest so far would end after ``--seconds``; at least two rounds always run (one
untraced and one traced with ``--trace 1``).  Every
answer is checked (``checks.py``).  BLAS and OpenMP pools are pinned to
one thread before numpy loads.

``--trace 0`` prints the end-to-end metrics:
  scaled_wall_s  median over the run's rounds of the wall time of one
                 round of the operations (checks excluded), each
                 operation's time scaled to the reference machine speed:
                 times CALIBRATION_REF_S over the mean time of the
                 calibration kernel run just before and just after it
  setup_s        median over fresh processes (three before the first
                 round, one after each round) of the time from process
                 start until the first operation can run: imports and
                 inputs; not scaled
  peak_rss_mb    peak resident memory of this process
``--trace 1`` alternates untraced and traced rounds and prints the
per-layer metrics of the median traced round (``spans.py``), plus
``trace.overhead_s``; the spans go to ``perfbench/out/``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 3
# the calibration kernel's median time on the 2-core VM of README.md's
# reference figures; it only fixes the unit of scaled_wall_s
CALIBRATION_REF_S = 0.080


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _load(args):
    """Import the program and build the workload's inputs."""
    if not (SRC / "qbrown" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC}/qbrown; run from a "
                 f"checkout of the repository")
    sys.path.insert(0, str(SRC))
    import qbrown  # noqa: F401  (numpy and scipy come with it)
    import scipy  # noqa: F401
    import workloads
    return workloads.build(args.workload, args.seed, OUT)


def _setup_probe(args):
    """Seconds from the start of a fresh process until its inputs are built."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"perfbench: setup probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - start


def _calibrate(matrix):
    """Seconds that one fixed kernel takes now: a probe of machine speed.

    Outside load on a shared host slows the same work by up to 2x in
    phases of seconds to minutes, and adjacent operations slow together,
    so an operation's time is scaled by the kernel timed next to it.  The
    kernel mixes the workloads' kinds of work: interpreted float
    stepping, numpy calls on small arrays and dense products.  It runs no
    program code, so no change to the program can move it.
    """
    start = time.perf_counter()
    y = s = 0.0
    for i in range(200_000):
        y += 1e-6 * (s - y)
        s += 1e-9 * i
    x = np.linspace(0.0, 1.0, 321)
    z = x.copy()
    for _ in range(1500):
        z = z + 1e-3 * (np.roll(z, 1) - 2.0 * z + np.roll(z, -1))
    b = np.eye(matrix.shape[0])
    for _ in range(20):
        b = matrix @ b
    return time.perf_counter() - start


def _round(ops, matrix):
    """Run every operation once.

    Returns (per-op wall times, calibration times, attempted, failed,
    wrong); the calibration kernel runs before the first operation and
    after each one, so operation i sits between calibrations i and i + 1.
    """
    times = []
    calib = [_calibrate(matrix)]
    attempted = failed = 0
    wrong = []
    for op in ops:
        attempted += 1
        start = time.perf_counter()
        try:
            answer = op.run()
        except Exception as exc:  # a failing operation is counted, not fatal
            times.append(time.perf_counter() - start)
            failed += 1
            print(f"perfbench: {op.name} failed: {exc!r}", file=sys.stderr)
        else:
            times.append(time.perf_counter() - start)
            try:
                op.check(answer)
            except AssertionError as exc:
                wrong.append(f"{op.name}: {exc}")
        calib.append(_calibrate(matrix))
    return times, calib, attempted, failed, wrong


def scaled_round(times, calib):
    """One round's wall time at the reference machine speed."""
    return sum(t * CALIBRATION_REF_S / (0.5 * (before + after))
               for t, before, after in zip(times, calib, calib[1:]))


def end_to_end(rounds, setup_times):
    """The end-to-end metrics of an untraced run.

    ``rounds`` holds (per-op wall times, calibration times) per round.
    """
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scaled = statistics.median(scaled_round(*r) for r in rounds)
    return {"scaled_wall_s": {"value": scaled, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MiB"}}


def main(argv=None):
    args = _parse(argv)
    ops = _load(args)
    if args.setup_probe:
        print(repr(time.time()))
        return 0

    import spans
    import qbrown

    # set-up is probed in fresh processes spread over the run, so that a
    # burst of outside load cannot cover every probe
    setup_times = [] if args.trace else [_setup_probe(args)
                                         for _ in range(SETUP_PROBES)]
    tracer = spans.Tracer() if args.trace else None
    matrix = np.random.default_rng(0).standard_normal((256, 256)) / 16.0
    rounds = {False: [], True: []}
    layer_rounds = []
    attempted = failed = 0
    wrong = []
    begin = time.perf_counter()
    longest = 0.0
    while True:
        round_start = time.perf_counter()
        traced = bool(args.trace) and len(rounds[False]) > len(rounds[True])
        if traced:
            tracer.reset()
            tracer.install(qbrown)
        try:
            times, calib, n, bad, errs = _round(ops, matrix)
        finally:
            if traced:
                tracer.uninstall()
        rounds[traced].append((times, calib))
        if traced:
            layer_rounds.append(tracer.metrics(sum(times)))
        elif not args.trace:
            setup_times.append(_setup_probe(args))
        attempted += n
        failed += bad
        wrong += errs
        # stop before a round that would end after --seconds.  An untraced
        # run keeps at least two rounds: the process's peak memory settles
        # only in the second (most likely the allocator reusing the heap
        # the first round's large temporaries left behind)
        elapsed = time.perf_counter() - begin
        longest = max(longest, time.perf_counter() - round_start)
        done = rounds[True] if args.trace else len(rounds[False]) >= 2
        if done and elapsed + longest > args.seconds:
            break

    for line in dict.fromkeys(wrong):
        print(f"perfbench: wrong answer: {line}", file=sys.stderr)

    if args.trace:
        tracer.write(str(OUT / f"trace_{args.workload}_seed{args.seed}.jsonl"))
        layer_rounds.sort(key=lambda m: m["trace.wall_s"])
        chosen = layer_rounds[(len(layer_rounds) - 1) // 2]
        chosen["trace.overhead_s"] = (
            statistics.median(sum(r[0]) for r in rounds[True])
            - statistics.median(sum(r[0]) for r in rounds[False]))
        metrics = {name: {"value": chosen[name], "unit": unit}
                   for name, unit in spans.METRICS}
    else:
        metrics = end_to_end(rounds[False], setup_times)
        raw = statistics.median(sum(r[0]) for r in rounds[False])
        kernel = statistics.median(c for r in rounds[False] for c in r[1])
        print(f"perfbench: unscaled round wall time {raw:.4f} s (median of "
              f"{len(rounds[False])}), calibration kernel {kernel:.4f} s "
              f"(median of {sum(len(r[1]) for r in rounds[False])})",
              file=sys.stderr)
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"rounds_{args.workload}_seed{args.seed}.json").write_text(
            json.dumps({"ops": [op.name for op in ops],
                        "rounds": [{"times": t, "calibration": c}
                                   for t, c in rounds[False]],
                        "setup": setup_times}))
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
