"""handemg benchmark: one workload, one seed, one run.

    python3 benchmark/run.py --workload emg_pipeline --seed 1 --seconds 25 --trace 0

Run from the root of a handemg checkout. The run writes the workload's
inputs from --seed (gen.py), times fresh imports of `handemg.cli` (setup_s),
then measures the workload in its own child process with the BLAS thread
count pinned (measure.py). It prints the metrics with their units, one per
line, and as its last line a JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1 (which skips the setup_s imports). Scratch files live
under .bench_work/ and are removed at the end; with --trace 1 the spans are
kept in .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
WORKLOADS = ("emg_pipeline", "pose_ik", "occlusion")
BLAS_THREADS = "1"
# fresh imports timed for setup_s; one more runs first to compile bytecode
SETUP_PROBES = 9
# every child gets this budget; the whole run must end within 180 s
DEADLINE_S = 170.0

# CPU time of the import, and of the calibration kernel right after it, so
# setup_s is in reference seconds like the job times (see measure.py)
SETUP_PROBE = """
import sys, time
t0 = time.process_time()
import handemg.cli
handemg.cli.build_parser()
setup = time.process_time() - t0
sys.path.insert(0, sys.argv[1])
from calibration import Calibration
print(setup, Calibration().kernel_seconds())
"""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, deadline: float) -> str:
    """Runs a child to completion (killing it at the deadline); returns stdout."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left for " + " ".join(argv[:3]))
    proc = subprocess.run([sys.executable, *argv], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[:3])} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout


def tail(times: list):
    """Highest percentile of job time with at least 10 jobs beyond it:
    (value, percentile, jobs beyond)."""
    ordered = sorted(times)
    beyond = min(10, len(ordered) - 1)
    k = len(ordered) - 1 - beyond
    return ordered[k], 100.0 * (k + 1) / len(ordered), beyond


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="handemg benchmark run")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "handemg" / "cli.py").is_file():
        print(f"error: no handemg sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_JSON.read_text())
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = work / "inputs"
        run_child([str(HERE / "gen.py"), "--workload", args.workload, "--seed",
                   str(args.seed), "--out", str(inputs)], deadline)
        probes = [] if args.trace else [
            setup * REFERENCE_S / kernel for setup, kernel in (
                map(float, run_child(["-c", SETUP_PROBE, str(HERE)], deadline).split())
                for _ in range(SETUP_PROBES + 1))][1:]
        measure = [str(HERE / "measure.py"), "--workload", args.workload,
                   "--input", str(inputs), "--work", str(work / "jobs"),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--result", str(work / "result.json")]
        if args.trace:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            measure += ["--spans", str(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")]
        run_child(measure, deadline)
        result = json.loads((work / "result.json").read_text())
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):      # kept while other runs use it
            work.parent.rmdir()

    times = result["times"]
    print(f"workload {args.workload}, seed {args.seed}: {result['units']} {result['unit']} "
          f"in {len(times)} jobs, {sum(times):.2f} reference s, {sum(result['cpu']):.2f} s CPU "
          f"time, {sum(result['walls']):.2f} s wall time, BLAS threads {BLAS_THREADS}")
    print(f"calibration kernel: median {1e3 * statistics.median(result['kernel']):.2f} ms "
          f"of {len(result['kernel'])} runs, {1e3 * REFERENCE_S:.2f} ms on the reference machine")
    if args.trace:
        layers = result["layers"]
        print(f"traced repeats: {sum(result['traced_cpu']):.2f} s CPU time for the same "
              f"{len(times)} jobs ({layers['trace.overhead_pct']:+.1f}% tracing overhead)")
        values, notes = layers, {}
        declared = spec["per_layer"]
    else:
        tail_ms, tail_pct, beyond = tail(times)
        values = {"setup_s": statistics.median(probes),
                  "throughput_per_s": result["units"] / sum(times),
                  "job_p50_ms": 1e3 * statistics.median(times),
                  "job_tail_ms": 1e3 * tail_ms,
                  "peak_rss_mb": result["peak_rss_mb"]}
        raw_cpu, raw_wall = (result["units"] / sum(result[k]) for k in ("cpu", "walls"))
        notes = {"setup_s": f"median of {len(probes)} fresh imports",
                 "throughput_per_s": f"{result['unit']} per reference second; {raw_cpu:.6g} "
                                     f"per CPU second, {raw_wall:.6g} per wall second",
                 "job_tail_ms": f"p{tail_pct:.1f} of {len(times)} jobs, {beyond} beyond it"}
        declared = spec["end_to_end"]
    for m in declared:
        print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}  {notes.get(m['name'], '')}"
              .rstrip())
    print(f"fail_ratio {result['failed'] / max(result['attempted'], 1):.6g} ratio  "
          f"{result['failed']} of {result['attempted']} operations")
    if "ik_rms_max_mm" in result:
        print(f"ik_rms_max_mm {result['ik_rms_max_mm']:.6g} mm  worst per-frame IK residual")
    for message in result["messages"]:
        print(f"failure: {message}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
