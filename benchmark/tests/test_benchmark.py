"""Tests of the benchmark itself: generator determinism, output checks,
span tracing and self-time arithmetic.

    python3 -m pytest benchmark/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gen  # noqa: E402
import handemg  # noqa: E402
import handemg.cli  # noqa: E402
import reference as ref  # noqa: E402
from measure import Runner, layer_metrics  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Ops  # noqa: E402


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    gen.generate(workload, 5, tmp_path / "a")
    gen.generate(workload, 5, tmp_path / "b")
    gen.generate(workload, 6, tmp_path / "c")
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    assert first["jobs.json"] != _files(tmp_path / "c")["jobs.json"]


def _run_job(tmp_path, workload, pick=lambda jobs: jobs[0]):
    inputs = tmp_path / "inputs"
    gen.generate(workload, 3, inputs)
    wl = WORKLOADS[workload](handemg, inputs)
    job = pick(json.loads((inputs / "jobs.json").read_text())["jobs"])
    out = tmp_path / "out"
    out.mkdir()
    ops = Ops()
    result = wl.run(job, out, ops)
    return wl, job, out, result, ops


def _bump(path: Path, block: str, index: tuple, delta: float) -> None:
    """Rewrites an EGL1 file with one value of one block moved by `delta`."""
    meta, arrays = ref.read_egl(path)
    arrays = {k: np.array(v) for k, v in arrays.items()}
    arrays[block][index] += delta
    ref.write_egl(path, meta, arrays)


def test_emg_checks_reject_perturbed_outputs(tmp_path):
    wl, job, out, result, ops = _run_job(
        tmp_path, "emg_pipeline", lambda jobs: min(jobs, key=lambda j: j["duration_s"]))
    wl.quick_check(job, out, result, ops)
    wl.full_check(job, out, ops)

    bad = dict(result, stdout=result["stdout"].replace("mae_deg,", "mae_deg,1"))
    with pytest.raises(CheckFailed, match="mae"):
        wl.quick_check(job, out, bad, ops)
    with pytest.raises(CheckFailed, match="pose head"):
        wl.quick_check(job, out, dict(result, pred=result["pred"][:-1]), ops)

    original = (out / "features.egl").read_bytes()
    _bump(out / "features.egl", "features", (0, 7, 9), 1e-6)
    with pytest.raises(CheckFailed, match="einsum reference"):
        wl.full_check(job, out, ops)
    (out / "features.egl").write_bytes(original)
    _bump(out / "filtered.egl", "emg_samples", (100, 3), 1e-3)
    with pytest.raises(CheckFailed, match="FFT-mask"):
        wl.full_check(job, out, ops)


def test_pose_ik_checks_reject_perturbed_outputs(tmp_path):
    wl, job, out, result, ops = _run_job(tmp_path, "pose_ik")
    wl.quick_check(job, out, result, ops)
    assert max(wl.rms) < 0.5
    pristine = {name: (out / name).read_bytes() for name in ("angles.egl", "landmarks.egl")}

    def expect(name, block, index, delta, message):
        _bump(out / name, block, index, delta)
        with pytest.raises(CheckFailed, match=message):
            wl.quick_check(job, out, result, ops)
        (out / name).write_bytes(pristine[name])

    fitted = ref.read_egl(out / "angles.egl")[1]["angles"]
    to_limit = wl.skel.limits[6, 1] - fitted[3, 6]
    expect("angles.egl", "angles", (3, 6), to_limit, "joint limits")
    expect("angles.egl", "angles", (3, 6), -3.0, "RMS")
    expect("landmarks.egl", "landmarks", (2, 5, 1), 1e-6, "fk landmarks")
    bad = dict(result, stdout=result["stdout"].replace("mae_deg,", "mae_deg,9"))
    with pytest.raises(CheckFailed, match="mae"):
        wl.quick_check(job, out, bad, ops)


def test_occlusion_checks_reject_perturbed_outputs(tmp_path):
    wl, job, out, result, ops = _run_job(tmp_path, "occlusion")
    wl.quick_check(job, out, result, ops)
    wl.full_check(job, out, ops)
    text = result["stdout"]
    s_occ, visible = wl._parse(text)

    moved = text.replace(f"s_occ,{s_occ:.9f}", f"s_occ,{s_occ + 0.05:.9f}")
    (out / "occlude.txt").write_text(moved)
    with pytest.raises(CheckFailed, match="s_occ"):
        wl.full_check(job, out, ops)
    flipped = visible.copy()
    flipped[: max(2, len(visible) // 20)] ^= True
    flags = "visible," + ",".join("1" if v else "0" for v in flipped)
    lines = [flags if line.startswith("visible,") else line for line in text.splitlines()]
    (out / "occlude.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailed, match="visibility flags"):
        wl.full_check(job, out, ops)
    with pytest.raises(CheckFailed, match="outside"):
        wl.quick_check(job, out, dict(result, stdout=text.replace("s_occ,", "s_occ,1")), ops)


def test_rerun_check_rejects_changed_bytes(tmp_path):
    inputs = tmp_path / "inputs"
    gen.generate("occlusion", 3, inputs)
    runner = Runner("occlusion", inputs, tmp_path / "work")
    for name in ("warmup", "job0"):
        (tmp_path / "work" / name).mkdir(parents=True)
        runner.one(0, tmp_path / "work" / name)
    runner.rerun_check()
    assert runner.ops.failed == 0
    path = tmp_path / "work" / "job0" / "occlude.txt"
    path.write_text(path.read_text() + " ")
    runner.rerun_check()
    assert runner.ops.failed == 1


def test_self_times_on_a_hand_built_tree():
    #  0 root  [0, 10]
    #  1 child [1, 3]      3 grandchild of 1 [1.5, 2]
    #  2 child [2, 5]      overlaps child 1: together they cover [1, 5]
    #  4 child [6, 7]
    start = [0.0, 1.0, 2.0, 1.5, 6.0]
    end = [10.0, 3.0, 5.0, 2.0, 7.0]
    parent = [-1, 0, 0, 1, 0]
    assert np.allclose(self_times(start, end, parent), [5.0, 1.5, 3.0, 0.5, 1.0])


def test_tracer_wraps_every_binding_and_restores(tmp_path):
    angles = tmp_path / "angles.csv"
    np.savetxt(angles, np.tile(ref.Skeleton(gen.SKELETON_ASSET).limits.mean(axis=1), (2, 1)),
               delimiter=",")
    original = handemg.hand_model.forward_kinematics
    tracer = Tracer()
    tracer.instrument()
    try:
        assert handemg.cli.forward_kinematics is handemg.ik.forward_kinematics
        assert handemg.cli.forward_kinematics is not original
        tracer.job_id = 7
        code = handemg.cli.run(["fk", "--angles", str(angles), "--out", str(tmp_path / "l.egl")])
    finally:
        tracer.restore()
    assert code == 0
    assert handemg.cli.forward_kinematics is original
    spans = tracer.arrays()
    names = [str(spans["names"][k]) for k in spans["name"]]
    run = names.index("cli.run")
    fk_spans = [i for i, n in enumerate(names) if n == "hand_model.forward_kinematics"]
    assert len(fk_spans) == 2
    assert all(spans["parent"][i] == run for i in fk_spans)
    assert set(spans["job"]) == {7}
    assert np.all(spans["end"] >= spans["start"])
    metrics = layer_metrics(spans, tracer.notes, [{"frames": 2}], 1, 2)
    assert metrics["hand_model.fk_calls_per_frame"] == 1.0
    assert metrics["cli.failed_calls"] == 0
    assert metrics["datastore.bytes_written_per_job"] == (tmp_path / "l.egl").stat().st_size
