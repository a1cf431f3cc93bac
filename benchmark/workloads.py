"""The three workloads: one job each, its cheap per-job checks, and its
reference checks.

A job drives the public entry point `handemg.cli.run(argv)` in-process, and
calls `model_core` directly where the CLI has no subcommand. Every CLI
invocation and every direct library call is one operation; a nonzero exit,
an exception or a failed output check is one failed operation.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import reference as ref
from gen import SKELETON_ASSET, TRANSFORMER_S

WINDOW_SAMPLES = 7790
FRAME_STRIDE = 50
# worst per-frame IK landmark RMS accepted, and agreement with the references
IK_RMS_LIMIT_MM = 0.5
FK_TOL_MM = 1e-9
FEATURE_RTOL = 1e-9
FILTER_RTOL = 1e-9
MAE_TOL_DEG = 1e-6
S_OCC_TOL = 2e-3
VISIBLE_MISMATCH_SHARE = 0.01


class CheckFailed(Exception):
    pass


class Ops:
    """Attempted and failed operation counts, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            raise CheckFailed(message)


def cli_call(cli, ops: Ops, argv) -> str:
    """One in-process `handemg` invocation; returns its stdout."""
    out, err = io.StringIO(), io.StringIO()
    ops.attempted += 1
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"handemg {argv[0]} exited {code}: {err.getvalue().strip()[-300:]}")
    return out.getvalue()


def library_call(ops: Ops, fn, *args, **kwargs):
    ops.attempted += 1
    return fn(*args, **kwargs)


def _printed_value(stdout: str, key: str) -> float:
    for line in stdout.splitlines():
        if line.startswith(key + ","):
            return float(line.split(",")[1])
    raise CheckFailed(f"no {key} line in the output")


class EmgPipeline:
    """synth -> filter -> augment-emg -> featurize -> transformer S + pose
    head per window -> eval against the pose targets on the feature timeline."""

    unit = "windows"

    def __init__(self, handemg, input_dir: Path):
        self.cli, self.mc, self.ds = handemg.cli, handemg.model_core, handemg.datastore
        self.config = self.mc.TransformerConfig(*TRANSFORMER_S)
        model = np.load(input_dir / "model.npz")
        d, f = self.config.d_model, self.config.d_ffn
        layers = []
        for i in range(self.config.n_layers):
            w = {k: model[f"l{i}_{k}"] for k in ("wq", "wk", "wv", "wo", "ffn1_w", "ffn2_w")}
            layers.append(self.mc.LayerWeights(
                ln1_g=np.ones(d), ln1_b=np.zeros(d), bq=np.zeros(d), bk=np.zeros(d),
                bv=np.zeros(d), bo=np.zeros(d), ln2_g=np.ones(d), ln2_b=np.zeros(d),
                ffn1_b=np.zeros(f), ffn2_b=np.zeros(d), **w))
        self.transformer = self.mc.TransformerWeights(
            layers=tuple(layers), final_ln_g=np.ones(d), final_ln_b=np.zeros(d))
        self.pose_w, self.pose_b = model["pose_w"], model["pose_b"]

    @staticmethod
    def units(job) -> int:
        return int(round(job["duration_s"] * 2000)) // WINDOW_SAMPLES

    def run(self, job, out: Path, ops: Ops) -> dict:
        cli, mc = self.cli, self.mc
        cli_call(cli, ops, ["synth", "--seed", job["synth_seed"], "--duration", job["duration_s"],
                            "--gesture", job["gesture"], "--participant", job["participant"],
                            "--out", out / "episode.egl"])
        cli_call(cli, ops, ["filter", out / "episode.egl", "--out", out / "filtered.egl"])
        cli_call(cli, ops, ["augment-emg", out / "filtered.egl", "--seed", job["aug_seed"],
                            "--out", out / "augmented.egl"])
        cli_call(cli, ops, ["featurize", out / "augmented.egl", "--seed", job["feat_seed"],
                            "--out", out / "features.egl"])
        _, blocks = library_call(ops, self.ds.read_blocks, out / "features.egl")
        episode = library_call(ops, self.ds.read_episode, out / "augmented.egl")
        windows = library_call(ops, self.ds.extract_windows, episode)
        preds, targets = [], []
        for feats, window in zip(blocks["features"], windows):
            seq = mc.FeatureSequence(feats, frame_rate=2000.0 / FRAME_STRIDE)
            hidden = library_call(ops, mc.transformer_forward, seq, self.config, self.transformer)
            preds.append(library_call(ops, mc.pose_head, hidden, self.pose_w, self.pose_b))
            targets.append(window.pose_frames_right)
        pred, target = np.concatenate(preds), np.concatenate(targets)
        library_call(ops, self.ds.write_blocks, out / "pred.egl", {"type": "angles"},
                     {"angles": pred})
        library_call(ops, self.ds.write_blocks, out / "target.egl", {"type": "angles"},
                     {"angles": target})
        stdout = cli_call(cli, ops, ["eval", "--pred", out / "pred.egl",
                                     "--gt", out / "target.egl"])
        return {"pred": pred, "target": target, "stdout": stdout,
                "n_features": len(blocks["features"])}

    def quick_check(self, job, out: Path, result: dict, ops: Ops) -> None:
        n = self.units(job)
        ops.check(result["n_features"] == n, f"featurize gave {result['n_features']} windows, "
                  f"expected {n}")
        ops.check(result["pred"].shape == (n * 146, 22) and np.all(np.isfinite(result["pred"])),
                  f"pose head output {result['pred'].shape} is not a finite ({n * 146}, 22)")
        mae = float(np.abs(result["pred"] - result["target"]).mean())
        printed = _printed_value(result["stdout"], "mae_deg")
        ops.check(abs(printed - mae) <= MAE_TOL_DEG * max(1.0, mae),
                  f"eval printed mae {printed}, reference {mae}")

    def full_check(self, job, out: Path, ops: Ops) -> None:
        meta, raw = ref.read_egl(out / "episode.egl")
        _, filtered = ref.read_egl(out / "filtered.egl")
        rate = float(meta["sample_rate"])
        expect = ref.filter_emg(raw["emg_samples"], rate)
        err = np.abs(filtered["emg_samples"] - expect).max()
        ops.check(err <= FILTER_RTOL * np.abs(expect).max(),
                  f"filter output differs from the FFT-mask reference by {err:.3g}")
        _, augmented = ref.read_egl(out / "augmented.egl")
        _, feats = ref.read_egl(out / "features.egl")
        w = job["check_pick"] % self.units(job)
        window = augmented["emg_samples"][w * WINDOW_SAMPLES:(w + 1) * WINDOW_SAMPLES]
        expect = ref.featurize(window, ref.featurizer_weights(job["feat_seed"]))
        err = np.abs(feats["features"][w] - expect).max()
        ops.check(err <= FEATURE_RTOL * np.abs(expect).max(),
                  f"features of window {w} differ from the einsum reference by {err:.3g}")


class PoseIk:
    """Angles CSV -> fk -> ik -> eval against the true angles."""

    unit = "frames"

    def __init__(self, handemg, input_dir: Path):
        self.cli = handemg.cli
        self.input_dir = input_dir
        self.skel = ref.Skeleton(SKELETON_ASSET)
        self.rms = []

    @staticmethod
    def units(job) -> int:
        return job["frames"]

    def run(self, job, out: Path, ops: Ops) -> dict:
        src = self.input_dir
        cli_call(self.cli, ops, ["fk", "--angles", src / job["angles"], "--handedness",
                                 job["handedness"], "--out", out / "landmarks.egl"])
        cli_call(self.cli, ops, ["ik", "--landmarks", out / "landmarks.egl", "--handedness",
                                 job["handedness"], "--out", out / "angles.egl"])
        stdout = cli_call(self.cli, ops, ["eval", "--pred", out / "angles.egl",
                                          "--gt", src / job["truth"]])
        return {"stdout": stdout}

    def quick_check(self, job, out: Path, result: dict, ops: Ops) -> None:
        _, truth = ref.read_egl(self.input_dir / job["truth"])
        _, landmarks = ref.read_egl(out / "landmarks.egl")
        _, fitted = ref.read_egl(out / "angles.egl")
        truth, angles = truth["angles"], fitted["angles"]
        ops.check(angles.shape == truth.shape, f"ik gave angles {angles.shape}")
        lo, hi = self.skel.limits[:, 0], self.skel.limits[:, 1]
        ops.check(bool(np.all((angles > lo) & (angles < hi))),
                  "ik angles are not strictly inside the joint limits")
        targets = np.stack([ref.fk(self.skel, a) for a in truth])
        err = np.abs(landmarks["landmarks"] - targets).max()
        ops.check(err <= FK_TOL_MM, f"fk landmarks differ from the reference by {err:.3g} mm")
        rms = np.sqrt(np.mean(np.sum((np.stack([ref.fk(self.skel, a) for a in angles])
                                      - targets) ** 2, axis=2), axis=1))
        self.rms.append(float(rms.max()))
        ops.check(rms.max() < IK_RMS_LIMIT_MM, f"ik landmark RMS {rms.max():.4f} mm "
                  f">= {IK_RMS_LIMIT_MM} mm")
        mae = float(np.abs(angles - truth).mean())
        printed = _printed_value(result["stdout"], "mae_deg")
        ops.check(abs(printed - mae) <= MAE_TOL_DEG * max(1.0, mae),
                  f"eval printed mae {printed}, reference {mae}")

    def full_check(self, job, out: Path, ops: Ops) -> None:
        pass        # every pose_ik check is cheap and runs on every job


class Occlusion:
    """occlude on one text mesh and a YAML camera."""

    unit = "meshes"

    def __init__(self, handemg, input_dir: Path):
        self.cli = handemg.cli
        self.input_dir = input_dir

    @staticmethod
    def units(job) -> int:
        return 1

    def run(self, job, out: Path, ops: Ops) -> dict:
        stdout = cli_call(self.cli, ops, ["occlude", "--mesh", self.input_dir / job["mesh"],
                                          "--camera", self.input_dir / job["camera"]])
        (out / "occlude.txt").write_text(stdout)
        return {"stdout": stdout}

    @staticmethod
    def _parse(stdout: str):
        s_occ = _printed_value(stdout, "s_occ")
        flags = [line for line in stdout.splitlines() if line.startswith("visible,")]
        if len(flags) != 1:
            raise CheckFailed("no visible line in the output")
        return s_occ, np.array([v == "1" for v in flags[0].split(",")[1:]])

    def quick_check(self, job, out: Path, result: dict, ops: Ops) -> None:
        s_occ, visible = self._parse(result["stdout"])
        ops.check(0.0 <= s_occ <= 1.0, f"s_occ {s_occ} outside [0, 1]")
        ops.check(len(visible) == job["vertices"],
                  f"{len(visible)} visibility flags for {job['vertices']} vertices")

    def full_check(self, job, out: Path, ops: Ops) -> None:
        s_occ, visible = self._parse((out / "occlude.txt").read_text())
        verts, faces = [], []
        for line in (self.input_dir / job["mesh"]).read_text().splitlines():
            kind, *vals = line.split()
            (verts if kind == "v" else faces).append(vals)
        cam = json.loads((self.input_dir / job["camera"]).read_text())
        expect, expect_visible = ref.occlusion_score(np.array(verts, float),
                                                     np.array(faces, int), cam)
        ops.check(abs(s_occ - expect) <= S_OCC_TOL,
                  f"s_occ {s_occ} differs from the reference {expect}")
        ops.check(np.mean(visible != expect_visible) <= VISIBLE_MISMATCH_SHARE,
                  f"{int(np.sum(visible != expect_visible))} visibility flags differ "
                  f"from the reference")


WORKLOADS = {"emg_pipeline": EmgPipeline, "pose_ik": PoseIk, "occlusion": Occlusion}
