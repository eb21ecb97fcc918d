"""Benchmark of ``isingring``: one workload per run, in a fresh process.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from ``src/`` next to this directory, with BLAS
pinned to one thread before numpy is loaded.  The run makes the workload's
inputs from the seed, repeats the workload's fixed job in whole rounds for
about S seconds (at least one round), then checks the outputs against
independent references.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it first runs one untraced round, then repeats
traced rounds of the job and reports per-layer metrics per round.  Rounds
are timed in reference seconds (``speed.py``) in both modes.  The last line
of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("gd_peak_scan", "state_measures", "large_ring")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup_seconds(workdir: Path) -> list[tuple[float, float]]:
    """Cold starts (import + one call per layer), one per fresh process,
    as (wall seconds, reference seconds)."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(workdir)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        wall, ref = proc.stdout.split()[-2:]
        times.append((float(wall), float(ref)))
    return times


def environment() -> dict:
    import numpy as np
    import scipy

    a = np.ones((256, 256))
    a @ a  # starts the BLAS thread pool, if it has one
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
            "blas_env": {k: os.environ[k] for k in BLAS_ENV},
            "process_threads_after_blas_call": threads}


def run_rounds(job, seconds: float, clock=None):
    """Whole rounds until the next one would end past ``seconds``.

    Returns each round's output, wall seconds and, with a ``SpeedClock``,
    reference seconds.  Also returns the peak resident set (MiB) once the
    first round is done: later rounds repeat the same work, and with the
    allocator's heap growth their peak would depend on how many rounds fit.
    """
    outs, walls, refs, start = [], [], [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if clock is not None:
            clock.start()
        try:
            outs.append(job())
        finally:
            if clock is not None:
                refs.append(clock.stop())
        walls.append(time.perf_counter() - t0)
        if len(walls) == 1:
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return outs, walls, refs, peak_mib


def measure(args, workdir: Path) -> dict:
    setup_times = [] if args.trace else setup_seconds(workdir)

    import isingring
    from references import self_test
    from spans import Recorder, layer_metrics
    from speed import SpeedClock
    from workloads import WORKLOADS, Ops

    if not Path(isingring.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"isingring imported from {isingring.__file__}, not {SRC}")
    warnings.simplefilter("ignore")
    env = environment()
    workload = WORKLOADS[args.workload](args.seed, workdir)
    ops = Ops()

    clock = SpeedClock()
    recorder = None
    reference = None
    if args.trace:
        (reference,), _, (untraced_ref,), _ = run_rounds(
            lambda: workload.job(Ops()), 0.0, clock)
        untraced_opt_sum = workload.opt_sum(reference)
        recorder = Recorder()
        recorder.install()

        def job():
            recorder.new_round()
            return workload.job(ops)
    else:
        def job():
            return workload.job(ops)

    try:
        outs, walls, refs, peak_mib = run_rounds(job, args.seconds, clock)
    finally:
        if recorder is not None:
            recorder.uninstall()

    fails = []
    if any(out != outs[0] for out in outs[1:]):
        fails.append("rounds of the same job produced different outputs")
    if reference is not None:
        if reference != outs[0]:
            fails.append("traced outputs differ from the untraced round")
        if workload.opt_sum(outs[0]) != untraced_opt_sum:
            fails.append("traced opt_sum_bits differs from the untraced round")
    fails += self_test() + workload.check(outs[0])

    if recorder is not None:
        metrics = layer_metrics(recorder, [r / w for r, w in zip(refs, walls)])
        traced_ref = statistics.median(refs)
        metrics["trace.wall_ref_s"] = (traced_ref, "s")
        extra = {"untraced_round_ref_s": untraced_ref,
                 "tracing_overhead": traced_ref / untraced_ref - 1.0}
        recorder.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": (statistics.median(ref for _, ref in setup_times), "s"),
            "wall_ref_s": (statistics.median(refs), "s"),
            "peak_rss_mb": (peak_mib, "MiB"),
            "opt_sum_bits": (workload.opt_sum(outs[0]), "bit"),
        }
        extra = {"wall_s": statistics.median(walls),
                 "setup_wall_s": statistics.median(wall for wall, _ in setup_times)}
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, "setup_times_s": setup_times, "round_walls_s": walls,
        "round_ref_s": refs, **extra,
        "failures": ops.failures + fails,
        "result": {
            "correct": not (fails or ops.failures),
            "attempted": ops.attempted,
            "failed": min(len(ops.failures) + len(fails), ops.attempted),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for key in BLAS_ENV:
        os.environ[key] = "1"
    os.environ.pop("ISINGRING_THREADS", None)
    if not (SRC / "isingring" / "__init__.py").is_file():
        print(f"perfbench: no isingring package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        record = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    result = record["result"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(record['round_walls_s'])} rounds, {result['attempted']} operations, "
          f"{result['failed']} failed")
    for key, metric in result["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    for key in ("wall_s", "setup_wall_s"):
        if key in record:
            print(f"  ({key} = {record[key]:.6g} s, wall clock, not normalized)")
    if "untraced_round_ref_s" in record:
        print(f"  (untraced round {record['untraced_round_ref_s']:.6g} s, "
              f"tracing overhead {record['tracing_overhead']:+.2%})")
    for line in record["failures"]:
        print(f"  FAILED: {line}")
    print("environment " + json.dumps(record["environment"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
