"""The measuring process: runs one workload's jobs closed-loop, one client.

    python3 benchmark/measure.py --workload W --input DIR --work DIR
        --seconds S --trace 0|1 --result result.json

It only reads the generated input files. After one untimed warm-up job it
runs jobs back to back until their summed time reaches --seconds (and at
least MIN_JOBS have run), checking each job's outputs between jobs, outside
the timed sections.

A job's time is the CPU time (user + system) the process spends in it,
converted to reference seconds by the calibration kernel (calibration.py).
The load is one single-threaded client whose jobs wait on nothing but the
page cache, so on an unshared machine CPU time equals wall time. On a shared
virtual machine the hypervisor steals a varying share of the core, which
wall time counts and CPU time does not, and neighbours slow the core itself,
which the calibration cancels. Raw CPU and wall times are kept as well.

With --trace 1 the untraced jobs fill half of --seconds, and each is
followed by a traced run of the same job with every traced function wrapped
(see spans.py). The traced runs give the per-layer metrics, and the gap
between the two passes the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import handemg.cli  # noqa: E402  (loads every module the jobs use)
from calibration import REFERENCE_S, Calibration  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Ops  # noqa: E402

# tail latency needs at least 10 jobs beyond the reported percentile
MIN_JOBS = 11
# ...but a run stops at this multiple of --seconds, so that a much slower
# program still finishes well inside the 180 s a run may take
MAX_SECONDS_FACTOR = 3
# job CPU time between two runs of the calibration kernel (see calibration.py)
CALIBRATE_EVERY_S = 0.1
# jobs whose outputs are kept for the reference checks: 0, 1, 3, 7, 15, 31,
# so the check cost grows with the log of the job count
CHECKED_JOBS = tuple(2 ** k - 1 for k in range(6))


def _reset(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Runner:
    def __init__(self, workload: str, input_dir: Path, work: Path):
        self.wl = WORKLOADS[workload](handemg, input_dir)
        self.jobs = json.loads((input_dir / "jobs.json").read_text())["jobs"]
        self.work = work
        self.ops = Ops()
        self.calibration = Calibration()

    def one(self, i: int, out: Path):
        """Runs job i into `out`; returns (CPU seconds, wall seconds, units done)."""
        job = self.jobs[i % len(self.jobs)]
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result = self.wl.run(job, out, self.ops)
        except Exception as exc:  # a failed job is counted, and the run goes on
            self.ops.fail(f"job {i}: {type(exc).__name__}: {exc}")
            result = None
        cpu, wall = time.process_time() - c0, time.perf_counter() - t0
        if result is None:
            return cpu, wall, 0
        try:
            self.wl.quick_check(job, out, result, self.ops)
        except Exception as exc:
            self.ops.fail(f"job {i} check: {type(exc).__name__}: {exc}")
            return cpu, wall, 0
        return cpu, wall, self.wl.units(job)

    def loop(self, seconds: float, min_jobs: int, tracer: Tracer | None = None) -> dict:
        """Jobs 0, 1, ... until their summed CPU time reaches `seconds`.

        After every CALIBRATE_EVERY_S of job CPU time the calibration kernel
        runs, and the jobs since the last kernel run get their times in
        reference seconds from it. With a tracer, every job runs a second
        time right after, traced, so both passes see the same conditions.
        """
        run = {"times": [], "cpu": [], "walls": [], "kernel": [], "units": 0,
               "traced_cpu": [], "traced_units": 0}
        total, i, pending = 0.0, 0, []
        while (total < seconds or i < min_jobs) and total < MAX_SECONDS_FACTOR * seconds:
            out = _reset(self.work / (f"job{i}" if i in CHECKED_JOBS else "cur"))
            cpu, wall, done = self.one(i, out)
            run["cpu"].append(cpu)
            run["walls"].append(wall)
            run["units"] += done
            total += cpu
            pending.append(cpu)
            if tracer is not None:
                tracer.job_id = i
                tracer.instrument()
                try:
                    cpu, _, done = self.one(i, _reset(self.work / "traced"))
                finally:
                    tracer.restore()
                run["traced_cpu"].append(cpu)
                run["traced_units"] += done
            i += 1
            if sum(pending) >= CALIBRATE_EVERY_S:
                self._calibrate(run, pending)
                pending = []
        if pending:
            self._calibrate(run, pending)
        return run

    def _calibrate(self, run: dict, pending: list) -> None:
        kernel = self.calibration.kernel_seconds()
        run["kernel"].append(kernel)
        run["times"] += [cpu * REFERENCE_S / kernel for cpu in pending]

    def full_checks(self, n_jobs: int) -> None:
        for i in CHECKED_JOBS:
            if i < n_jobs:
                try:
                    self.wl.full_check(self.jobs[i % len(self.jobs)], self.work / f"job{i}",
                                       self.ops)
                except Exception as exc:
                    self.ops.fail(f"job {i} reference check: {type(exc).__name__}: {exc}")

    def rerun_check(self) -> None:
        """Job 0 ran as the warm-up and again as the first timed job."""
        first, second = self.work / "warmup", self.work / "job0"
        names = sorted(p.name for p in first.iterdir())
        if names != sorted(p.name for p in second.iterdir()):
            self.ops.fail("re-run of job 0 wrote a different set of files")
        for name in names:
            if (first / name).read_bytes() != (second / name).read_bytes():
                self.ops.fail(f"re-run of job 0 wrote different bytes to {name}")


def _mask_cache_counts():
    """(hits, misses) of the filter-mask cache; (0, 0) if there is none."""
    info = getattr(handemg.emg_dsp.build_filter_mask, "cache_info", None)
    return (info().hits, info().misses) if info else (0, 0)


def _safe(num, den):
    return float(num) / den if den else 0.0


def layer_metrics(spans: dict, notes: dict, jobs: list, n_jobs: int, units: int) -> dict:
    """Per-layer metrics of one traced pass over jobs 0..n_jobs-1."""
    names = list(spans["names"])
    name = spans["name"]
    dur = spans["end"] - spans["start"]
    own = self_times(spans["start"], spans["end"], spans["parent"])
    parent = spans["parent"]
    n = len(dur)

    def ids(fn):
        return np.flatnonzero(name == names.index(fn)) if fn in names else np.zeros(0, int)

    def total(fn):
        return float(dur[ids(fn)].sum())

    def count(fn):
        return len(ids(fn))

    def note_sum(fn, pick=lambda v: v):
        return sum(pick(notes[i]) for i in ids(fn) if i in notes)

    under = {}                              # span inside some span of a name

    def inside(fn):
        if fn not in under:
            target = names.index(fn) if fn in names else -1
            flags = np.zeros(n, bool)
            for i in range(n):
                p = parent[i]
                flags[i] = p >= 0 and (name[p] == target or flags[p])
            under[fn] = flags
        return under[fn]

    ms = 1e3
    m = {}
    # model_core: per window of 7790 samples
    conv = np.array([i for i in ids("model_core.conv1d_valid") if i in notes], int)
    conv_kernel = np.array([notes[i][1] for i in conv], int)
    conv_flops = float(sum(notes[i][0] for i in conv))
    feat = inside("model_core.tds_featurize")
    se = ids("model_core.se_gate")
    m["model_core.featurize_ms_per_window"] = _safe(total("model_core.tds_featurize") * ms, units)
    for key, kernel in (("conv1", 11), ("conv2", 5), ("stage1_in", 9), ("stage2_in", 3)):
        m[f"model_core.{key}_ms_per_window"] = _safe(
            dur[conv[conv_kernel == kernel]].sum() * ms, units)
    m["model_core.se_ms_per_window"] = _safe(dur[se].sum() * ms, units)
    m["model_core.tds_self_ms_per_window"] = _safe(
        (total("model_core.tds_featurize") - dur[conv[feat[conv]]].sum()
         - dur[se[feat[se]]].sum()) * ms, units)
    m["model_core.transformer_ms_per_window"] = _safe(total("model_core.transformer_forward") * ms,
                                                      units)
    m["model_core.pose_head_ms_per_window"] = _safe(total("model_core.pose_head") * ms, units)
    m["model_core.conv_gflop_per_window"] = _safe(conv_flops / 1e9, units)
    m["model_core.conv_gflops"] = _safe(conv_flops / 1e9, dur[conv].sum())
    m["model_core.weights_init_ms_per_job"] = _safe(
        total("model_core.init_featurizer_weights") * ms, n_jobs)
    # emg_dsp
    m["emg_dsp.filter_ms_per_job"] = _safe(total("emg_dsp.filter_emg") * ms, n_jobs)
    samples = note_sum("emg_dsp.filter_emg", lambda v: v[0] * v[1])
    m["emg_dsp.filter_msamples_per_s"] = _safe(samples / 1e6, total("emg_dsp.filter_emg"))
    m["emg_dsp.fft_pad_ratio"] = _safe(note_sum("emg_dsp.filter_emg", lambda v: v[2]),
                                       note_sum("emg_dsp.filter_emg", lambda v: v[0]))
    m["augment.emg_ms_per_job"] = _safe(total("augment.augment_emg") * ms, n_jobs)
    # datastore
    m["datastore.synth_ms_per_job"] = _safe(total("datastore.synth_episode") * ms, n_jobs)
    m["datastore.windows_ms_per_job"] = _safe(total("datastore.extract_windows") * ms, n_jobs)
    for verb, fn, past in (("write", "datastore.write_blocks", "written"),
                           ("read", "datastore.read_blocks", "read")):
        nbytes = note_sum(fn)
        m[f"datastore.{verb}_ms_per_job"] = _safe(total(fn) * ms, n_jobs)
        m[f"datastore.{verb}_mb_per_s"] = _safe(nbytes / 1e6, total(fn))
        m[f"datastore.bytes_{past}_per_job"] = _safe(nbytes, n_jobs)
    # hand_model and ik: per pose frame
    m["hand_model.skeleton_load_ms_per_job"] = _safe(total("hand_model.default_skeleton") * ms,
                                                     n_jobs)
    for key, fn in (("fk", "hand_model.forward_kinematics"),
                    ("jacobian", "hand_model.landmark_jacobian")):
        m[f"hand_model.{key}_calls_per_frame"] = _safe(count(fn), units)
        m[f"hand_model.{key}_us_per_call"] = _safe(total(fn) * 1e6, count(fn))
    fits = ids("ik.fit_joint_angles")
    starts = ids("ik.lbfgs_minimize")
    cold = np.zeros(len(fits), bool)
    ordinal = {}
    for k, i in enumerate(fits):
        job_id = int(spans["job"][i])
        frame = ordinal.get(job_id, 0)
        ordinal[job_id] = frame + 1
        cold[k] = frame in jobs[job_id % len(jobs)].get("cuts", ())
    m["ik.ms_per_frame"] = _safe(dur[fits].sum() * ms, len(fits))
    m["ik.warm_ms_per_frame"] = _safe(dur[fits[~cold]].sum() * ms, int((~cold).sum()))
    m["ik.cold_ms_per_frame"] = _safe(dur[fits[cold]].sum() * ms, int(cold.sum()))
    m["ik.starts_per_frame"] = _safe(len(starts), len(fits))
    m["ik.evals_per_frame"] = _safe(count("ik.ik_loss_and_gradient"), len(fits))
    starts_of = np.bincount(parent[starts][parent[starts] >= 0], minlength=n)
    m["ik.first_start_accept_ratio"] = _safe(int((starts_of[fits] == 1).sum()), len(fits))
    m["ik.lbfgs_self_ms_per_frame"] = _safe(own[starts].sum() * ms, len(fits))
    m["ik.converged_ratio"] = _safe(sum(bool(notes.get(i)) for i in fits), len(fits))
    # occlusion: per mesh
    m["occlusion.raster_ms_per_mesh"] = _safe(total("occlusion.rasterize_depth") * ms, units)
    m["occlusion.visibility_ms_per_mesh"] = _safe(total("occlusion.vertex_visibility") * ms,
                                                  units)
    m["occlusion.triangles_per_s"] = _safe(note_sum("occlusion.rasterize_depth"),
                                           total("occlusion.rasterize_depth"))
    # evalkit: outermost evalkit spans per thousand compared rows
    top_eval = [i for i in range(n) if names[name[i]].startswith("evalkit.")
                and not (parent[i] >= 0 and names[name[parent[i]]].startswith("evalkit."))]
    rows = note_sum("evalkit.records_from_predictions")
    m["evalkit.ms_per_1k_rows"] = _safe(dur[top_eval].sum() * ms, rows / 1e3)
    m["cli.self_ms_per_job"] = _safe(own[ids("cli.run")].sum() * ms, n_jobs)
    failed = spans["failed"].copy()
    for i in ids("cli.run"):
        failed[i] |= notes.get(i, 0) != 0
    for module in ("model_core", "emg_dsp", "augment", "datastore", "hand_model", "ik",
                   "occlusion", "evalkit", "cli"):
        ours = np.array([names[k].startswith(module + ".") for k in name], bool)
        m[f"{module}.failed_calls"] = int((failed & ours).sum()) if n else 0
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--input", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    runner = Runner(args.workload, args.input, args.work)
    runner.one(0, _reset(args.work / "warmup"))

    tracer = Tracer() if args.trace else None
    cache_before = _mask_cache_counts()
    # the traced run needs no tail percentile, and runs every job twice
    result = runner.loop(args.seconds / 2 if tracer else args.seconds,
                         1 if tracer else MIN_JOBS, tracer)
    cache_after = _mask_cache_counts()
    result.update(workload=args.workload, unit=runner.wl.unit,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    if tracer is not None:
        spans = tracer.arrays()
        layers = layer_metrics(spans, tracer.notes, runner.jobs, len(result["traced_cpu"]),
                               result["traced_units"])
        hits, misses = (after - before for after, before in zip(cache_after, cache_before))
        layers["emg_dsp.mask_cache_hit_ratio"] = _safe(hits, hits + misses)
        layers["trace.overhead_pct"] = 100.0 * (sum(result["traced_cpu"])
                                                / sum(result["cpu"]) - 1.0)
        result["layers"] = layers
        if args.spans is not None:
            tracer.save(args.spans)

    runner.full_checks(len(result["times"]))
    runner.rerun_check()
    if getattr(runner.wl, "rms", None):
        result["ik_rms_max_mm"] = max(runner.wl.rms)
    if args.trace:
        result["layers"]["ik.rms_max_mm"] = result.get("ik_rms_max_mm", 0.0)
    result.update(attempted=runner.ops.attempted, failed=runner.ops.failed,
                  messages=runner.ops.messages)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
