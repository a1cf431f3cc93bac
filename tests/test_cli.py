import dataclasses
import json
import re
import struct
import warnings

import numpy as np
import pytest
import yaml

from handemg import augment, cli, datastore as ds, emg_dsp, errors, graph_features, occlusion
from handemg.errors import DataFormatError
from handemg.hand_model import (JointAngles22, default_skeleton,
                                forward_kinematics)


def _run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "0.1.0" in out and "EGL1" in out


def test_usage_error_exit_1(capsys):
    code, _, err = _run(capsys, "bogus-command")
    assert code == 1
    assert err.startswith("error: usage:")
    code, _, _ = _run(capsys, "synth")  # missing required --out
    assert code == 1


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert cli.build_parser() is cli.build_parser()
    code, _, err = _run(capsys, "split", "--seed", "5")
    assert code == 0 and '"seed": 5' in err
    code, _, err = _run(capsys, "split")
    assert code == 0 and '"seed": 0' in err
    code, _, _ = _run(capsys, "split", "--bogus")
    assert code == 1
    code, _, _ = _run(capsys, "split")
    assert code == 0


def test_data_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.egl"
    bad.write_bytes(b"NOPE1234")
    code, _, err = _run(capsys, "info", str(bad))
    assert code == 2
    assert "error: bad-magic:" in err


def test_synth_info_filter_pipeline(capsys, tmp_path):
    ep = tmp_path / "ep.egl"
    code, out, err = _run(capsys, "synth", "--seed", "5", "--duration", "4",
                          "--out", str(ep))
    assert code == 0
    assert "config:" in err  # resolved config echoed for reproducibility
    code, out, _ = _run(capsys, "info", str(ep))
    assert code == 0
    assert "type,episode" in out
    assert "emg_samples,8000x16" in out
    filt = tmp_path / "filt.egl"
    resp = tmp_path / "resp.csv"
    code, _, _ = _run(capsys, "filter", str(ep), "--out", str(filt),
                      "--response", str(resp))
    assert code == 0
    lines = resp.read_text().splitlines()
    header, first = lines[:2]
    assert header == "frequency_hz,gain"
    assert float(first.split(",")[1]) == 0.0  # DC gain
    # one row per bin up to Nyquist of the filter's own FFT length
    assert len(lines) == 1 + emg_dsp.filter_fft_length(8000) // 2 + 1 == 4098


def test_synth_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.egl", tmp_path / "b.egl"
    assert _run(capsys, "synth", "--seed", "9", "--out", str(a))[0] == 0
    assert _run(capsys, "synth", "--seed", "9", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_augment_emg_seeded(capsys, tmp_path):
    ep = tmp_path / "ep.egl"
    _run(capsys, "synth", "--seed", "0", "--duration", "4", "--out", str(ep))
    outs = []
    for name in ("x.egl", "y.egl"):
        out = tmp_path / name
        code, _, _ = _run(capsys, "augment-emg", str(ep), "--seed", "3",
                          "--out", str(out))
        assert code == 0
        outs.append(ds.read_episode(out).emg.samples)
    assert np.array_equal(outs[0], outs[1])


@pytest.mark.parametrize("command", ["filter", "augment-emg"])
def test_episode_without_emg_samples_is_bad_input(capsys, tmp_path, command):
    """A (0, 16) EMG block fails with one typed line, not numpy warnings or a
    raw FFT error, and writes nothing."""
    ep, out = tmp_path / "ep.egl", tmp_path / "out.egl"
    episode = ds.synth_episode(seed=0, duration_s=4.0)
    ds.write_episode(dataclasses.replace(
        episode, emg=emg_dsp.EmgWindow(samples=np.zeros((0, emg_dsp.N_CHANNELS))),
        emg_timestamps_ms=np.zeros(0)), ep)
    assert ds.read_episode(ep).emg.n_samples == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out_text, err = _run(capsys, command, str(ep), "--out", str(out))
    assert code == 2 and out_text == ""
    assert err.splitlines()[-1].startswith(f"error: bad-input: {ep}: ")
    assert not out.exists()


def test_fk_ik_roundtrip(capsys, tmp_path):
    skeleton = default_skeleton()
    lo, hi = skeleton.limits[:, 0], skeleton.limits[:, 1]
    rng = np.random.default_rng(1)
    angles = lo + (hi - lo) * rng.uniform(0.25, 0.75, size=(3, 22))
    csv = tmp_path / "angles.csv"
    np.savetxt(csv, angles, delimiter=",")
    lm = tmp_path / "lm.egl"
    assert _run(capsys, "fk", "--angles", str(csv), "--out", str(lm))[0] == 0
    _, arrays = ds.read_blocks(lm)
    expect = np.stack([forward_kinematics(skeleton, JointAngles22(a)).points
                       for a in angles])
    assert np.array_equal(arrays["landmarks"], expect)
    solved = tmp_path / "solved.egl"
    code, out, _ = _run(capsys, "ik", "--landmarks", str(lm), "--out",
                        str(solved))
    assert code == 0
    steps, starts = re.search(r"per frame ([\d.]+) LM steps from ([\d.]+) starts$",
                              out.strip()).groups()
    assert float(steps) >= 1.0 and starts == "1.00"
    _, fit = ds.read_blocks(solved)
    assert fit["angles"].shape == (3, 22)
    assert fit["residual_rms_mm"].max() < 0.5


def test_wrist_command(capsys, tmp_path):
    from handemg import wrist_geometry as wg
    a = np.zeros(3)
    b = np.array([0.0, 0.0, -250.0])
    c = np.array([40.0, 0.0, -20.0])
    frame = wg.forearm_frame(a, b, c)
    mcp = a + 90.0 * wg.hand_direction(frame, 25.0, -10.0)
    csv = tmp_path / "pts.csv"
    np.savetxt(csv, np.vstack([a, b, c, a, mcp]), delimiter=",")
    code, out, _ = _run(capsys, "wrist", "--points", str(csv))
    assert code == 0
    values = dict(line.split(",") for line in out.strip().splitlines())
    assert abs(float(values["theta_fe_deg"]) - 25.0) < 1e-6
    assert abs(float(values["theta_ru_deg"]) + 10.0) < 1e-6


@pytest.mark.parametrize("command, text", [
    ("fk", "1,2,x\n"),                                     # unparsable value
    ("fk", ",".join(["0"] * 21) + "\n"),                    # 21 angles, not 22
    ("fk", ",".join(["0"] * 21 + ["nan"]) + "\n"),          # non-finite angle
    ("wrist", "0,0,0\n0,0,x\n0,0,1\n1,0,0\n0,1,0\n"),   # unparsable value
    ("wrist", "0,0,0\n0,0,-250\n40,0,-20\n0,0,0\nnan,0,90\n"),   # NaN middle MCP
    ("wrist", "0,0,0\n0,0,-250\ninf,0,-20\n0,0,0\n0,0,90\n"),    # inf marker c
    ("wrist", "0,0,0\n0,0,-250\n40,0,-20\n"),                     # 3 rows, not 5
], ids=["fk-unparsable", "fk-21-columns", "fk-nan", "wrist-unparsable", "wrist-nan-mcp",
        "wrist-inf-marker", "wrist-3-rows"])
def test_malformed_csv_is_bad_input(capsys, tmp_path, command, text):
    csv = tmp_path / "in.csv"
    csv.write_text(text)
    option = {"fk": ("--angles", str(csv), "--out", str(tmp_path / "lm.egl")),
              "wrist": ("--points", str(csv))}[command]
    code, out, err = _run(capsys, command, *option)
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith(f"error: bad-input: {csv}: ")


@pytest.mark.parametrize("command, text", [
    ("fk", ""), ("fk", " \n\t\n"), ("fk", "# angles\n  # none yet\n"), ("wrist", ""),
], ids=["fk-empty", "fk-whitespace", "fk-comments-only", "wrist-empty"])
def test_empty_csv_is_one_bad_input_line(capsys, tmp_path, command, text):
    """An empty input is rejected before numpy parses it: no warning, only the
    documented error line after the config echo."""
    csv = tmp_path / "in.csv"
    csv.write_text(text)
    option = {"fk": ("--angles", str(csv), "--out", str(tmp_path / "lm.egl")),
              "wrist": ("--points", str(csv))}[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, command, *option)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert lines[0].startswith("config: ")
    assert lines[1:] == [f"error: bad-input: {csv}: no data"]


@pytest.mark.parametrize("landmarks", [
    np.zeros((0, 20, 3)),
    np.zeros((4, 5, 3)),
    np.zeros((2, 20)),
    np.where(np.arange(120).reshape(2, 20, 3) == 77, np.nan, 1.0),
], ids=["zero-frames", "5-landmarks", "2-d", "nan"])
def test_malformed_landmarks_block_is_bad_input(capsys, tmp_path, landmarks):
    path = tmp_path / "lm.egl"
    ds.write_blocks(path, {"type": "landmarks"}, {"landmarks": landmarks})
    code, out, err = _run(capsys, "ik", "--landmarks", str(path), "--out",
                          str(tmp_path / "angles.egl"))
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith(f"error: bad-input: {path}: ")
    assert not (tmp_path / "angles.egl").exists()


@pytest.mark.parametrize("duration", ["inf", "-inf", "nan", "3.99", "600.01", "1e12"])
def test_synth_rejects_a_duration_that_is_not_finite_and_at_least_4_s(
        capsys, tmp_path, duration):
    code, out, err = _run(capsys, "synth", f"--duration={duration}", "--out",
                          str(tmp_path / "ep.egl"))
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith(
        "error: InvalidInputError: duration must be a finite number of at least 4 s")


@pytest.mark.parametrize("scale", ["nan", "inf", "0"])
def test_augment_markers_rejects_a_hand_scale_that_is_not_finite_and_positive(
        capsys, tmp_path, scale):
    """At seed 3 the spike op fires on 14 of the 200 frames, and a spike is
    scaled by the hand size."""
    episode, out_path = tmp_path / "ep.egl", tmp_path / "out.egl"
    synth = ds.synth_episode(seed=0, duration_s=4.0)
    ds.write_episode(dataclasses.replace(
        synth, markers=np.random.default_rng(3).normal(scale=40.0, size=(200, 21, 3)),
        marker_timestamps_ms=synth.pose_timestamps_ms[:200]), episode)
    code, out, err = _run(capsys, "augment-markers", "--seed", "3",
                          f"--hand-scale={scale}", str(episode), "--out", str(out_path))
    assert code == 2 and out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: InvalidInputError: hand_scale_mm must be a finite positive number, "
        f"got {float(scale)!r}"]
    assert not out_path.exists()


def test_augment_markers_frames_draw_apart_from_neighbouring_seeds(capsys, tmp_path):
    """Frame i + 1 at --seed 3 is not frame i at --seed 4, and frame 0 is the
    library call of the same seed. The input frames are identical and no frame
    is bypassed, so only the draws tell the frames apart."""
    episode, config = tmp_path / "ep.egl", tmp_path / "aug.yaml"
    synth = ds.synth_episode(seed=0, duration_s=4.0)
    frame = np.random.default_rng(5).normal(scale=40.0, size=(21, 3))
    ds.write_episode(dataclasses.replace(
        synth, markers=np.tile(frame, (6, 1, 1)),
        marker_timestamps_ms=synth.pose_timestamps_ms[:6]), episode)
    config.write_text("bypass_p: 0.0\n")
    out = {}
    for seed in (3, 4):
        path = tmp_path / f"out{seed}.egl"
        code, _, _ = _run(capsys, "augment-markers", "--seed", str(seed), "--config",
                          str(config), str(episode), "--out", str(path))
        assert code == 0
        out[seed] = ds.read_episode(path).markers
    for i in range(5):
        assert not np.array_equal(out[3][i + 1], out[4][i])
    graph = graph_features.default_marker_graph()
    expect, _ = augment.augment_markers(augment.MarkerSet(frame), graph, 180.0, 3,
                                        augment.MarkerAugConfig(bypass_p=0.0))
    assert np.array_equal(out[3][0], expect.points)


def test_occlude_command(capsys, tmp_path):
    mesh = tmp_path / "mesh.txt"
    mesh.write_text("v -50 -50 800\nv 50 -50 800\nv 0 50 800\n"
                    "v -50 -50 400\nv 50 -50 400\nv 0 50 400\n"
                    "f 0 1 2\nf 3 4 5\n")
    cam = tmp_path / "cam.yaml"
    cam.write_text("fx: 500.0\nfy: 500.0\ncx: 256.0\ncy: 256.0\n"
                   "width: 512\nheight: 512\n")
    code, out, _ = _run(capsys, "occlude", "--mesh", str(mesh),
                        "--camera", str(cam))
    assert code == 0
    lines = dict(line.split(",", 1) for line in out.strip().splitlines())
    assert abs(float(lines["s_occ"]) - 0.5) < 1e-9
    assert lines["visible"] == "0,0,0,1,1,1"
    bad = tmp_path / "bad.txt"
    bad.write_text("v 0 0 0\nnot a line\n")
    code, _, err = _run(capsys, "occlude", "--mesh", str(bad),
                        "--camera", str(cam))
    assert code == 2
    assert "bad-mesh" in err


_MESH = "v -50 -50 800\nv 50 -50 800\nv 0 50 800\nf 0 1 2\n"
_CAMERA = {"fx": "500.0", "fy": "500.0", "cx": "256.0", "cy": "256.0",
           "width": "512", "height": "512"}


@pytest.mark.parametrize("mesh, camera, detail", [
    (_MESH + "f 0 1 2.5\n", {}, "bad-mesh: {mesh}:5:"),
    (_MESH + "v 1 2 abc\n", {}, "bad-mesh: {mesh}:5:"),
    (_MESH + "f 0 1 99999999999999999999\n", {}, "bad-mesh: {mesh}:"),
    (_MESH + "f 0 1 3\n", {}, "bad-mesh: {mesh}: triangle index out of range"),
    (_MESH.replace("v 50 -50 800", "v nan -50 800"), {}, "bad-mesh: {mesh}: vertices must"),
    (_MESH.replace("v 50 -50 800", "v inf -50 800"), {}, "bad-mesh: {mesh}: vertices must"),
    (_MESH.replace("v 50 -50 800", "v 1e300 -50 800"), {},
     "bad-mesh: {mesh}: triangle areas overflow"),
    (_MESH, {"fx": '"abc"'}, "bad-camera: {camera}:"),
    (_MESH, {"fx": "nan"}, "bad-camera: {camera}: intrinsics must"),
    (_MESH, {"fx": "null"}, "bad-camera: {camera}: intrinsics must"),
    (_MESH, {"fx": "true"}, "bad-camera: {camera}: fx must be numbers, not booleans"),
    (_MESH, {"rotation": "[[1, 0, 0], [0, true, 0], [0, 0, 1]]"},
     "bad-camera: {camera}: rotation must be numbers, not booleans"),
    (_MESH, {"translation": "[0, false, 5]"},
     "bad-camera: {camera}: translation must be numbers, not booleans"),
    (_MESH, {"rotation": "[1, 2]"}, "bad-camera: {camera}:"),
    (_MESH, {"translation": "[0, .inf, 0]"}, "bad-camera: {camera}: translation must"),
    (_MESH, {"width": '"x"'}, "bad-camera: {camera}: resolution must"),
    (_MESH, {"width": "64.7"}, "bad-camera: {camera}: resolution must"),
    (_MESH, {"height": "true"}, "bad-camera: {camera}: resolution must"),
    (_MESH, {"width": "100000", "height": "100000"},
     "bad-camera: {camera}: resolution 100000x100000 exceeds"),
    (_MESH + "v 1e150 0 0.001\n", {"fx": "1e300", "fy": "1e300"},
     "bad-camera: {camera}: a vertex projects beyond the floating-point range"),
    (_MESH + "v 1.7e308 0 800\n", {"translation": "[1.7e308, 0, 0]"},
     "bad-camera: {camera}: vertices must be finite"),
], ids=["face-float-index", "vertex-not-a-number", "face-index-overflow",
        "face-index-out-of-range", "vertex-nan", "vertex-inf", "area-overflow", "fx-string", "fx-nan",
        "fx-null", "fx-bool", "rotation-bool", "translation-bool", "rotation-two-values",
        "translation-inf", "width-string", "width-float", "height-bool", "too-many-pixels",
        "projection-overflow", "translation-overflow"])
def test_malformed_mesh_or_camera_exit_2(capsys, tmp_path, mesh, camera, detail):
    mesh_path, cam_path = tmp_path / "mesh.txt", tmp_path / "cam.yaml"
    mesh_path.write_text(mesh)
    cam_path.write_text("".join(f"{k}: {v}\n" for k, v in {**_CAMERA, **camera}.items()))
    code, out, err = _run(capsys, "occlude", "--mesh", str(mesh_path),
                          "--camera", str(cam_path))
    assert code == 2
    assert err.splitlines()[-1].startswith(
        "error: " + detail.format(mesh=mesh_path, camera=cam_path))
    assert out == ""


_CAMERA_TEXT = "".join(f"{k}: {v}\n" for k, v in _CAMERA.items()).encode()


@pytest.mark.parametrize("mesh, camera, kind", [
    (_MESH.encode(), b"fx: [1\n", "bad-camera"),
    (_MESH.encode(), b"- 1\n- 2\n", "bad-camera"),
    (_MESH.encode(), _CAMERA_TEXT + b"\xff\xfe: 1\n", "bad-camera"),
    (_MESH.encode(), _CAMERA_TEXT + b"rotation:\n" + b"- " * 470 + b"1\n", "bad-camera"),
    (_MESH.encode(), _CAMERA_TEXT + b"rotation:\n" + b"- " * 30_000 + b"1\n", "bad-camera"),
    (b"v 0 0 0\n\xff\xfe\n", _CAMERA_TEXT, "bad-mesh"),
], ids=["camera-yaml-unclosed-list", "camera-not-a-mapping", "camera-not-utf8",
        "camera-nested-470-deep", "camera-nested-30000-deep", "mesh-not-utf8"])
def test_unreadable_mesh_or_camera_file_exit_2(capsys, tmp_path, mesh, camera, kind):
    mesh_path, cam_path = tmp_path / "mesh.txt", tmp_path / "cam.yaml"
    mesh_path.write_bytes(mesh)
    cam_path.write_bytes(camera)
    code, out, err = _run(capsys, "occlude", "--mesh", str(mesh_path),
                          "--camera", str(cam_path))
    assert code == 2 and out == ""
    path = mesh_path if kind == "bad-mesh" else cam_path
    assert err.splitlines()[-1].startswith(f"error: {kind}: {path}")


_BAD_EMG_CONFIGS = {
    "yaml-unclosed-list": "a: [1",
    "channel_dropout_p-string": "channel_dropout_p: x",
    "noise_snr_db-scalar": "noise_snr_db: 5",
    "n_freq_masks-float": "n_freq_masks: 1.5",
    "jitter_ms-null": "jitter_ms: null",
    "unknown-int-and-str-keys": "1: 2\na: 3",
}


@pytest.mark.parametrize("text", _BAD_EMG_CONFIGS.values(), ids=_BAD_EMG_CONFIGS)
def test_malformed_augment_config_is_bad_config(capsys, tmp_path, text):
    episode, config = tmp_path / "ep.egl", tmp_path / "aug.yaml"
    ds.write_episode(ds.synth_episode(seed=0, duration_s=4.0), episode)
    config.write_text(text + "\n")
    code, out, err = _run(capsys, "augment-emg", "--config", str(config), str(episode),
                          "--out", str(tmp_path / "out.egl"))
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith("error: bad-config: ")
    assert not (tmp_path / "out.egl").exists()


def test_occlude_depth_file_is_the_rasterized_buffer(capsys, tmp_path):
    mesh_path, cam_path = tmp_path / "mesh.txt", tmp_path / "cam.yaml"
    mesh_path.write_text("v -50 -50 800\nv 50 -50 800\nv 0 50 800\n"
                         "v -30 -40 400\nv 40 -20 400\nv 0 30 500\nf 0 1 2\nf 3 5 4\n")
    cam_path.write_text("fx: 90.0\nfy: 90.0\ncx: 40.0\ncy: 30.0\nwidth: 80\nheight: 60\n"
                        "rotation: [[0.8, -0.6, 0], [0.6, 0.8, 0], [0, 0, 1]]\n"
                        "translation: [5.0, -3.0, 20.0]\n")
    depth = tmp_path / "depth.f32"
    code, out, _ = _run(capsys, "occlude", "--mesh", str(mesh_path),
                        "--camera", str(cam_path), "--depth", str(depth))
    assert code == 0
    assert out.splitlines()[-1] == f"wrote {depth} (60x80 float32)"
    mesh, camera = cli._read_mesh(mesh_path), cli._read_camera(cam_path)
    buffer = occlusion.rasterize_depth(occlusion.transform_to_camera(mesh, camera), camera)
    assert np.isfinite(buffer).any() and np.isinf(buffer).any()
    expect = np.where(np.isfinite(buffer), buffer, 0.0).astype("<f4").tobytes()
    assert depth.read_bytes() == expect


def test_occlude_depth_write_failure_prints_nothing(capsys, tmp_path):
    mesh_path, cam_path = tmp_path / "mesh.txt", tmp_path / "cam.yaml"
    mesh_path.write_text(_MESH)
    cam_path.write_bytes(_CAMERA_TEXT)
    code, out, err = _run(capsys, "occlude", "--mesh", str(mesh_path), "--camera",
                          str(cam_path), "--depth", str(tmp_path / "missing" / "depth.f32"))
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith("error: FileNotFoundError: ")


def test_graph_pe_command(capsys):
    code, out, _ = _run(capsys, "graph-pe", "--k", "3")
    assert code == 0
    lines = out.strip().splitlines()
    eigen = [float(x) for x in lines[0].split(",")[1:]]
    assert abs(eigen[0]) < 1e-9
    assert len([l for l in lines if l.startswith("eigenvector_row")]) == 21
    assert len([l for l in lines if l.startswith("spd_row")]) == 21


def test_featurize_command(capsys, tmp_path):
    ep = tmp_path / "ep.egl"
    _run(capsys, "synth", "--seed", "2", "--duration", "4", "--out", str(ep))
    feat = tmp_path / "feat.egl"
    code, out, _ = _run(capsys, "featurize", str(ep), "--seed", "0",
                        "--out", str(feat))
    assert code == 0
    _, arrays = ds.read_blocks(feat)
    assert arrays["features"].shape == (1, 256, 146)


def test_split_command(capsys):
    code, out, _ = _run(capsys, "split", "--seed", "0")
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.strip().splitlines())
    n, frac = rows["train"].split(",")
    assert n == "1750"
    assert abs(float(frac) - 0.7114) < 1e-4


@pytest.mark.parametrize("option, count", [
    ("--gestures", "61"), ("--gestures", "100"), ("--gestures", "-1"), ("--gestures", "-5"),
    ("--participants", "3"),
])
def test_split_rejects_counts_outside_the_roster(capsys, option, count):
    code, out, err = _run(capsys, "split", option, count)
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith("error: InvalidInputError: ")


def test_eval_command(capsys, tmp_path):
    rng = np.random.default_rng(4)
    gt = rng.normal(size=(20, 22))
    pred_p, gt_p = tmp_path / "p.egl", tmp_path / "g.egl"
    ds.write_blocks(pred_p, {"type": "angles"}, {"angles": gt + 2.0})
    ds.write_blocks(gt_p, {"type": "angles"}, {"angles": gt})
    csv = tmp_path / "eval.csv"
    code, out, _ = _run(capsys, "eval", "--pred", str(pred_p), "--gt",
                        str(gt_p), "--csv", str(csv))
    assert code == 0
    assert out.splitlines()[0] == "mae_deg,2.000000000"
    body = csv.read_text().splitlines()
    assert body[0] == "group,mae_deg"
    assert len(body) == 1 + 1 + 7 + 3  # header, overall, fingers, phalanges


def test_eval_rejects_empty_angle_blocks(capsys, tmp_path):
    pred_p, gt_p = tmp_path / "p.egl", tmp_path / "g.egl"
    for path in (pred_p, gt_p):
        ds.write_blocks(path, {"type": "angles"}, {"angles": np.zeros((0, 22))})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "eval", "--pred", str(pred_p), "--gt", str(gt_p))
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith("error: InvalidInputError: ")


@pytest.mark.parametrize("n_columns", [21, 23])
def test_eval_rejects_angle_blocks_not_22_wide(capsys, tmp_path, n_columns):
    pred_p, gt_p = tmp_path / "p.egl", tmp_path / "g.egl"
    for path in (pred_p, gt_p):
        ds.write_blocks(path, {"type": "angles"}, {"angles": np.zeros((5, n_columns))})
    code, out, err = _run(capsys, "eval", "--pred", str(pred_p), "--gt", str(gt_p))
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith(f"error: bad-input: {pred_p}: expected a (T, 22)")


# a minimal valid command line per subcommand (files need not exist: only
# parsing is exercised)
MINIMAL_ARGV = {
    "synth": ["--out", "o.egl"],
    "filter": ["i.egl", "--out", "o.egl"],
    "augment-emg": ["i.egl", "--out", "o.egl"],
    "augment-markers": ["i.egl", "--out", "o.egl"],
    "fk": ["--angles", "a.csv", "--out", "o.egl"],
    "wrist": ["--points", "p.csv"],
    "ik": ["--landmarks", "l.egl", "--out", "o.egl"],
    "occlude": ["--mesh", "m.txt", "--camera", "c.yaml"],
    "graph-pe": [],
    "featurize": ["i.egl", "--out", "o.egl"],
    "split": [],
    "eval": ["--pred", "p.egl", "--gt", "g.egl"],
    "info": ["i.egl"],
}
SEEDED = {"synth", "augment-emg", "augment-markers", "featurize", "split"}
CONFIGURED = {"augment-emg", "augment-markers"}


@pytest.mark.parametrize("command", sorted(MINIMAL_ARGV))
def test_option_surface(capsys, monkeypatch, tmp_path, command):
    """Each subcommand takes exactly the shared options it reads."""
    monkeypatch.chdir(tmp_path)
    argv = [command] + MINIMAL_ARGV[command]
    cli.build_parser().parse_args(argv)
    for option, value, takers in (("--seed", "1", SEEDED),
                                  ("--config", "c.yaml", CONFIGURED),
                                  ("--verbose", None, set())):
        extra = [option] + ([value] if value else [])
        if command in takers:
            args = cli.build_parser().parse_args(argv + extra)
            assert str(getattr(args, option[2:])) == value
        else:
            code, _, err = _run(capsys, *argv, *extra)
            assert code == 1
            assert err.startswith("error: usage:") and option in err


def _drop(key):
    def edit(manifest):
        del manifest[key]
        return manifest
    return edit


def _drop_block_crc(manifest):
    del manifest["blocks"][0]["crc32"]
    return manifest


def _drop_participant(manifest):
    del manifest["meta"]["participant_id"]
    return manifest


def _duplicate_block(manifest):
    manifest["blocks"].append(dict(manifest["blocks"][0]))
    return manifest


def _alias_block(manifest):
    """A second name for block 0's bytes: the CRC holds, the ranges overlap."""
    manifest["blocks"].append(dict(manifest["blocks"][0], name="alias"))
    return manifest


def _set_block(key, value):
    def edit(manifest):
        manifest["blocks"][0][key] = value
        return manifest
    return edit


_MISTYPED_BLOCK_FIELDS = {
    "shape-string": ("shape", "ab"),
    "shape-float": ("shape", [2.0, 2]),
    "shape-negative": ("shape", [-2, -2]),
    "shape-bool": ("shape", [True, 2]),
    "offset-string": ("offset", "0"),
    "offset-negative": ("offset", -8),
    "offset-bool": ("offset", False),
    "crc32-negative": ("crc32", -1),
    "name-list": ("name", [1]),
    "dtype-list": ("dtype", ["<f8"]),
}


@pytest.mark.parametrize("edit, info_fails", [
    (lambda manifest: [manifest], True),
    (_drop("blocks"), True),
    (_drop("meta"), True),
    (_drop_block_crc, True),
    (_drop_participant, False),   # a valid EGL1 file, not a valid episode
    (_duplicate_block, True),
    (_alias_block, True),
] + [(_set_block(*change), True) for change in _MISTYPED_BLOCK_FIELDS.values()],
    ids=["json-list", "no-blocks", "no-meta", "block-without-crc32",
         "episode-without-participant_id", "duplicate-block-name", "overlapping-blocks",
         *_MISTYPED_BLOCK_FIELDS])
def test_malformed_manifest_is_bad_manifest(capsys, tmp_path, edit, info_fails):
    path = tmp_path / "ep.egl"
    ds.write_episode(ds.synth_episode(seed=0, duration_s=4.0), path)
    raw = path.read_bytes()
    (length,) = struct.unpack("<I", raw[4:8])
    manifest = json.dumps(edit(json.loads(raw[8:8 + length]))).encode()
    path.write_bytes(raw[:4] + struct.pack("<I", len(manifest)) + manifest
                     + raw[8 + length:])
    with pytest.raises(DataFormatError) as err:
        ds.read_episode(path)
    assert err.value.kind == "bad-manifest"
    code, _, err = _run(capsys, "featurize", str(path), "--out",
                        str(tmp_path / "f.egl"))
    assert code == 2 and err.splitlines()[-1].startswith("error: bad-manifest:")
    code, _, err = _run(capsys, "info", str(path))
    if info_fails:
        assert code == 2 and err.splitlines()[-1].startswith("error: bad-manifest:")
    else:
        assert code == 0


# every kind a CLI input boundary documents (README), and the typed errors
_CLI_ERROR_KINDS = {"bad-input", "bad-config", "bad-mesh", "bad-camera"} | {
    cls.__name__ for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.HandEmgError)
    and cls is not DataFormatError}


def _text_mutations(text, rng, n_substitutions):
    """Seeded corruptions of a text input: truncation at every character,
    then single-character substitutions."""
    for n in range(len(text)):
        yield text[:n]
    alphabet = "0123456789-+.eE,:#[]{}\n \"'abcfinvxyzINF"
    for pos in rng.integers(0, len(text), n_substitutions):
        yield text[:pos] + alphabet[rng.integers(len(alphabet))] + text[pos + 1:]


def _text_input_cases(tmp_path):
    """(name, valid text, argv, substitution count) for each text input of the
    CLI; the argv reads the mutated text from `tmp_path / "input.txt"`."""
    skeleton = default_skeleton()
    lo, hi = skeleton.limits[:, 0], skeleton.limits[:, 1]
    angles = lo + (hi - lo) * np.random.default_rng(3).uniform(0.3, 0.7, size=(2, 22))
    points = "0,0,0\n0,0,-250\n40,0,-20\n0,0,0\n10,15,85\n"
    mesh = "v -50 -50 800\nv 50 -50 800\nv 0 50 800\nv -30 -40 400\nf 0 1 2\nf 0 3 1\n"
    camera = ("fx: 45.0\nfy: 45.0\ncx: 32.0\ncy: 24.0\nwidth: 64\nheight: 48\n"
              "rotation: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]\ntranslation: [0, 0, 5]\n")
    episode = tmp_path / "ep.egl"
    ds.write_episode(ds.synth_episode(seed=0, duration_s=4.0), episode)
    config = ("channel_dropout_p: 0.25\nn_freq_masks: 3\nmax_mask_bins: 128\n"
              "noise_snr_db: [25.0, 35.0]\nnoise_p: 0.5\njitter_ms: 40.0\n")
    path = tmp_path / "input.txt"
    mesh_path, camera_path = tmp_path / "mesh.txt", tmp_path / "cam.yaml"
    mesh_path.write_text(mesh)
    camera_path.write_text(camera)
    out = str(tmp_path / "out.egl")
    return [
        ("fk --angles", "\n".join(",".join(f"{a:.4f}" for a in row) for row in angles),
         ["fk", "--angles", str(path), "--out", out], 160),
        ("wrist --points", points, ["wrist", "--points", str(path)], 160),
        ("occlude --mesh", mesh, ["occlude", "--mesh", str(path), "--camera",
                                  str(camera_path)], 160),
        ("occlude --camera", camera, ["occlude", "--mesh", str(mesh_path), "--camera",
                                      str(path)], 160),
        ("augment-emg --config", config, ["augment-emg", "--config", str(path),
                                          str(episode), "--out", out], 60),
    ]


def test_text_input_mutations_exit_0_or_2_with_a_documented_kind(capsys, tmp_path):
    """Every truncated or corrupted CSV, mesh, camera or config input either
    runs (exit 0) or fails with exit 2 and `error: <documented kind>:`."""
    rng = np.random.default_rng(2027)
    for name, text, argv, n_substitutions in _text_input_cases(tmp_path):
        path = tmp_path / "input.txt"
        outcomes = set()
        for mutant in _text_mutations(text, rng, n_substitutions):
            path.write_text(mutant)
            code = cli.run(argv)
            err = capsys.readouterr().err
            assert code in (0, 2), (name, mutant, err)
            if code == 2:
                last = err.splitlines()[-1]
                assert last.startswith("error: "), (name, mutant, err)
                assert last.split(":", 2)[1].strip() in _CLI_ERROR_KINDS, (name, mutant, err)
            outcomes.add(code)
        assert outcomes == {0, 2}, name


def test_libyaml_and_pure_python_loaders_give_one_outcome(monkeypatch, tmp_path):
    """Every camera and augment-config mutant of the mutation loop gives equal
    values, or the same error kind, under the module's YAML loader and under
    pure-Python PyYAML. The extra config is the one mutant known to part the
    two parsers: libyaml rejects it, PyYAML reads `[25.0, {35.0: None}]`."""
    extra = {"augment-emg --config": ["noise_snr_db: [25.0, 35.:]\n"]}

    def outcome(name, path):
        try:
            if name == "occlude --camera":
                camera = cli._read_camera(path)
                return "ok", repr([np.asarray(getattr(camera, f.name)).tolist()
                                   for f in dataclasses.fields(camera)])
            config = cli._load_config(path)
            return "ok", repr(cli._dataclass_from_config(augment.EmgAugConfig, config))
        except DataFormatError as exc:
            return "error", exc.kind

    rng = np.random.default_rng(2027)
    path = tmp_path / "input.txt"
    for name, text, _, n_substitutions in _text_input_cases(tmp_path):
        # draw every case's mutants, so that each matches the CLI mutation loop
        mutants = list(_text_mutations(text, rng, n_substitutions)) + extra.get(name, [])
        if name not in ("occlude --camera", "augment-emg --config"):
            continue
        seen = set()
        for mutant in mutants:
            path.write_text(mutant)
            fast = outcome(name, path)
            with monkeypatch.context() as patch:
                patch.setattr(cli, "_YAML_LOADER", yaml.SafeLoader)
                assert outcome(name, path) == fast, (name, mutant)
            seen.add(fast[0])
        assert seen == {"ok", "error"}, name
