"""Acceptance gate: eleven analytic/property criteria with frozen tolerances.

Each test prints exactly one PASS/FAIL line (visible under pytest capture via
capsys.disabled) and asserts the same condition, so the suite both reports
and enforces the gate.
"""

import dataclasses
import time

import numpy as np
import pytest

from conftest import random_pose
from handemg import augment, datastore as ds, emg_dsp, evalkit as ek
from handemg import graph_features as gf, ik, model_core as mc, occlusion as occ
from handemg import wrist_geometry as wg
from handemg.emg_dsp import EmgWindow
from handemg.hand_model import N_DOF, landmark_positions


def _report(capsys, ok, name, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_featurizer_shape(capsys):
    """[16 x 7790] -> [256 x 146] with stages 1556/776/154/150/148/146, <1 s."""
    rng = np.random.default_rng(0)
    window = EmgWindow(samples=rng.normal(size=(7790, 16)))
    weights = mc.init_featurizer_weights(0)
    mc.tds_featurize(window, weights)  # warm any lazy setup before timing
    t0 = time.perf_counter()
    out = mc.tds_featurize(window, weights)
    elapsed = time.perf_counter() - t0
    stages = tuple(mc.featurizer_lengths(7790))
    ok = (out.data.shape == (256, 146)
          and stages == (1556, 776, 154, 150, 148, 146)
          and elapsed < 1.0)
    _report(capsys, ok, "criterion 1 featurizer shape",
            f"output {out.data.shape}, stages {stages}, {elapsed:.3f} s")


def test_criterion_02_ik_roundtrip(capsys, skeleton):
    """100 poses: RMS < 0.5 mm, gradient rel err < 1e-5, angles inside limits,
    < 30 s."""
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    truth = np.array([random_pose(rng, skeleton) for _ in range(100)])
    result = ik.fit_batch(landmark_positions(skeleton, truth), skeleton)
    worst_rms = float(np.sqrt(result.residual_mse).max())
    lo, hi = skeleton.limits[:, 0], skeleton.limits[:, 1]
    inside = bool(np.all(result.angles > lo) and np.all(result.angles < hi))
    elapsed = time.perf_counter() - t0

    targets = landmark_positions(skeleton, random_pose(rng, skeleton)[None])[0]
    z = rng.normal(scale=1.5, size=N_DOF)
    _, grad = ik.ik_loss_and_gradient(z, targets, skeleton)
    h = 1e-6
    worst_rel = 0.0
    for j in range(N_DOF):
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        num = (ik.ik_loss_and_gradient(zp, targets, skeleton)[0]
               - ik.ik_loss_and_gradient(zm, targets, skeleton)[0]) / (2 * h)
        worst_rel = max(worst_rel, abs(grad[j] - num) / max(abs(num), 1.0))

    ok = worst_rms < 0.5 and worst_rel < 1e-5 and inside and elapsed < 30.0
    _report(capsys, ok, "criterion 2 IK round-trip",
            f"worst RMS {worst_rms:.3f} mm, grad rel err {worst_rel:.2e}, "
            f"inside limits {inside}, {elapsed:.1f} s")


def test_criterion_03_optimizer_oracle(capsys):
    """Rosenbrock from (-1.2, 1) to within 1e-6 of (1, 1) in <= 100 steps,
    solved by IK's Levenberg-Marquardt core as the least-squares residual
    r = (1 - x, 10 (y - x^2))."""
    evaluations = []

    def rosenbrock(z, rows):
        (x, y), = z
        r = np.array([1 - x, 10 * (y - x * x)])
        jac = np.array([[-1.0, 0.0], [-20 * x, 10.0]])
        cost = r @ r
        evaluations.append((cost, z[0].copy()))
        return np.array([cost]), (jac.T @ jac)[None], (jac.T @ r)[None, :, None], z.copy()

    cost, _, steps, z = ik._lm_solve(rosenbrock, np.array([[-1.2, 1.0]]))
    err = float(np.abs(z[0] - 1.0).max())
    # Levenberg-Marquardt accepts a step when it lowers the cost of the current point
    accepted = []
    for loss, point in evaluations[1:]:
        if loss < (accepted[-1][0] if accepted else evaluations[0][0]):
            accepted.append((loss, point))
    losses = np.array([loss for loss, _ in accepted])
    # one evaluation per step tried, and the solve ends on its last accepted point
    counted = (len(evaluations) == steps[0] + 1 and cost[0] == losses[-1]
               and np.array_equal(z[0], accepted[-1][1]))
    monotone = bool(np.all(np.diff(losses) <= 0) and counted)
    ok = err < 1e-6 and len(losses) <= 100 and monotone
    _report(capsys, ok, "criterion 3 optimizer oracle",
            f"|z - (1,1)| = {err:.2e} after {len(losses)} accepted steps, "
            f"monotone {monotone}")


def test_criterion_04_filter_response(capsys):
    """>= 40 dB at 50/100 Hz, 300 Hz ripple <= 0.5%, DC < 1e-9, linear 1e-9.

    Tones are coherently sampled (2048 Hz, 4096-point FFT) so attenuation is
    read at exact bins without leakage."""
    fs, n = 2048.0, 4096

    def tone(freq):
        x = np.sin(2 * np.pi * freq * np.arange(n) / fs)
        return EmgWindow(samples=np.tile(x[:, None], (1, 16)), sample_rate=fs)

    def rms(x):
        return float(np.sqrt(np.mean(x ** 2)))

    atten = {}
    for freq in (50.0, 100.0):
        out = emg_dsp.filter_emg(tone(freq))
        ratio = rms(out.samples[:, 0]) / rms(tone(freq).samples[:, 0])
        atten[freq] = -20 * np.log10(max(ratio, 1e-300))
    out300 = emg_dsp.filter_emg(tone(300.0))
    ripple = abs(rms(out300.samples[:, 0]) / rms(tone(300.0).samples[:, 0]) - 1)
    dc_in = EmgWindow(samples=np.full((n, 16), 2.5), sample_rate=fs)
    dc_out = float(np.abs(emg_dsp.filter_emg(dc_in).samples).max())
    rng = np.random.default_rng(2)
    a = rng.normal(size=(n, 16))
    b = rng.normal(size=(n, 16))
    f = lambda x: emg_dsp.filter_emg(EmgWindow(samples=x, sample_rate=fs)).samples
    lin = float(np.abs(f(3.0 * a - 0.5 * b) - (3.0 * f(a) - 0.5 * f(b))).max())
    ok = (min(atten.values()) >= 40.0 and ripple <= 0.005
          and dc_out < 1e-9 and lin < 1e-9)
    _report(capsys, ok, "criterion 4 filter response",
            f"attenuation 50 Hz {atten[50.0]:.0f} dB / 100 Hz "
            f"{atten[100.0]:.0f} dB, 300 Hz ripple {ripple:.2e}, "
            f"DC {dc_out:.1e}, linearity {lin:.1e}")


def test_criterion_05_wrist_grid(capsys):
    """19x19 grid over [-80, 80] x [-40, 40] deg recovered within 1e-9;
    rotation invariance within 1e-9."""
    from handemg.hand_model import rodrigues
    a = np.zeros(3)
    b = np.array([0.0, 0.0, -250.0])
    c = np.array([40.0, 0.0, -20.0])
    frame = wg.forearm_frame(a, b, c)
    worst = 0.0
    for fe in np.linspace(-80.0, 80.0, 19):
        for ru in np.linspace(-40.0, 40.0, 19):
            mcp = a + 90.0 * wg.hand_direction(frame, fe, ru)
            out = wg.wrist_angles(frame, a, mcp)
            worst = max(worst, abs(out.theta_fe - fe), abs(out.theta_ru - ru))
    rng = np.random.default_rng(3)
    worst_rot = 0.0
    mcp = a + 90.0 * wg.hand_direction(frame, 25.0, -10.0)
    for _ in range(25):
        axis = rng.normal(size=3)
        r = rodrigues(axis / np.linalg.norm(axis), rng.uniform(-180, 180))
        t = rng.normal(scale=200, size=3)
        frame2 = wg.forearm_frame(r @ a + t, r @ b + t, r @ c + t)
        out = wg.wrist_angles(frame2, r @ a + t, r @ mcp + t)
        worst_rot = max(worst_rot, abs(out.theta_fe - 25.0),
                        abs(out.theta_ru + 10.0))
    ok = worst < 1e-9 and worst_rot < 1e-9
    _report(capsys, ok, "criterion 5 wrist geometry",
            f"grid error {worst:.2e} deg, rotation invariance "
            f"{worst_rot:.2e} deg")


def _camera(width=512, height=512, f=500.0):
    k = np.array([[f, 0, width / 2], [0, f, height / 2], [0, 0, 1.0]])
    return occ.PinholeCamera(intrinsics=k, rotation=np.eye(3),
                             translation=np.zeros(3), width=width,
                             height=height)


def test_criterion_06_occlusion_scenes(capsys):
    """Two-triangle s_occ = 0.5 +- 0.02 at 512^2; single = 0; behind = 1;
    monotone over 10 growing occluders."""
    camera = _camera()
    back = np.array([[-50.0, -50.0, 800.0], [50.0, -50.0, 800.0],
                     [0.0, 50.0, 800.0]])
    front = back.copy()
    front[:, 2] = 400.0
    two = occ.self_occlusion_score(
        occ.TriangleMesh(np.vstack([back, front]),
                         np.array([[0, 1, 2], [3, 4, 5]])), camera).s_occ
    single = occ.self_occlusion_score(
        occ.TriangleMesh(back, np.array([[0, 1, 2]])), camera).s_occ
    behind = occ.self_occlusion_score(
        occ.TriangleMesh(back * np.array([1.0, 1.0, -1.0]),
                         np.array([[0, 1, 2]])), camera).s_occ

    g = np.linspace(-100.0, 100.0, 21)
    gx, gy = np.meshgrid(g, g)
    plane = np.stack([gx.ravel(), gy.ravel(), np.full(gx.size, 800.0)], axis=1)
    tris = []
    for r in range(20):
        for cc in range(20):
            i = r * 21 + cc
            tris += [[i, i + 1, i + 22], [i, i + 22, i + 21]]
    scores = []
    for s in np.arange(4.0, 50.0, 5.0):   # 10 scenes
        quad = np.array([[-s, -s, 400.0], [s, -s, 400.0],
                         [s, s, 400.0], [-s, s, 400.0]])
        n = len(plane)
        faces = np.array(tris + [[n, n + 1, n + 2], [n, n + 2, n + 3]])
        scores.append(occ.self_occlusion_score(
            occ.TriangleMesh(np.vstack([plane, quad]), faces), camera).s_occ)
    monotone = all(y > x for x, y in zip(scores, scores[1:]))
    ok = (abs(two - 0.5) < 0.02 and single == 0.0 and behind == 1.0
          and monotone)
    _report(capsys, ok, "criterion 6 occlusion scenes",
            f"two-triangle {two:.3f}, single {single}, behind {behind}, "
            f"monotone over {len(scores)} scenes {monotone}")


def test_criterion_07_graph_features(capsys):
    """P5 eigenvalues match 2 - 2cos(pi m/5) within 1e-10; SPD equals
    Floyd-Warshall on 50 random connected 21-node graphs."""
    p5 = gf.SkeletonGraph(n_nodes=5, edges=[(i, i + 1) for i in range(4)])
    eig = gf.laplacian_eigenvectors(p5, k=5).eigenvalues
    expected = 2.0 - 2.0 * np.cos(np.pi * np.arange(5) / 5)
    eig_err = float(np.abs(eig - expected).max())

    rng = np.random.default_rng(4)
    spd_ok = True
    for _ in range(50):
        edges = set()
        for i in range(1, 21):
            edges.add((int(rng.integers(0, i)), i))
        for _ in range(int(rng.integers(0, 10))):
            a, b = sorted(rng.choice(21, 2, replace=False).tolist())
            edges.add((a, b))
        g = gf.SkeletonGraph(n_nodes=21, edges=sorted(edges))
        spd = gf.shortest_path_distances(g)
        dist = np.full((21, 21), np.inf)
        np.fill_diagonal(dist, 0.0)
        for a, b in g.edges:
            dist[a, b] = dist[b, a] = 1.0
        for k in range(21):
            dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
        spd_ok &= bool(np.array_equal(spd, dist.astype(int)))
    ok = eig_err < 1e-10 and spd_ok
    _report(capsys, ok, "criterion 7 graph features",
            f"P5 eigenvalue error {eig_err:.2e}, Floyd-Warshall match on "
            f"50 graphs {spd_ok}")


def test_criterion_08_fusion_zero_init(capsys):
    """Zero-initialized correction head: fused == vision bit-exactly, 1000x."""
    rng = np.random.default_rng(5)
    weights = mc.FusionWeights(
        vision_w=rng.normal(size=(22, 256)), vision_b=rng.normal(size=22),
        fusion1_w=rng.normal(size=(128, 512)), fusion1_b=rng.normal(size=128),
        fusion2_w=np.zeros((22, 128)), fusion2_b=np.zeros(22))
    exact = True
    for _ in range(1000):
        y, y_v, delta = mc.fusion_predict(rng.normal(size=256),
                                          rng.normal(size=256), weights)
        exact &= bool(np.array_equal(y, y_v) and not delta.any())
    _report(capsys, exact, "criterion 8 fusion residual identity",
            f"bit-exact over 1000 random inputs: {exact}")


def test_criterion_09_augmentation_calibration(capsys):
    """10,000 seeds: dropout rate 0.25 +- 0.02, bypass 0.50 +- 0.02, spike
    within [2,5] x hand scale, caps never violated."""
    n_seeds = 10_000
    rng = np.random.default_rng(6)
    win = EmgWindow(samples=rng.normal(size=(64, 16)))
    drop_cfg = augment.EmgAugConfig(n_freq_masks=0, max_mask_bins=0,
                                    noise_p=0.0, jitter_ms=0.0)
    dropped = 0
    for seed in range(n_seeds):
        out = augment.augment_emg(win, seed=seed, config=drop_cfg)
        dropped += int(np.count_nonzero(~out.samples.any(axis=0)))
    drop_rate = dropped / (n_seeds * 16)

    graph = gf.default_marker_graph()
    markers = augment.MarkerSet(rng.normal(scale=40.0, size=(21, 3)))
    bypassed = 0
    caps_ok = True
    for seed in range(n_seeds):
        _, ops = augment.augment_markers(markers, graph, 180.0, seed=seed)
        names = [op["op"] for op in ops]
        if not names:   # bypassed draws apply nothing and audit nothing
            bypassed += 1
        caps_ok &= names.count("swap") <= 3 and names.count("dropout") <= 3
        caps_ok &= names.count("drift") <= 3 and names.count("spike") <= 1
    bypass_rate = bypassed / n_seeds

    spike_cfg = augment.MarkerAugConfig(
        bypass_p=0.0, bone_scale_pct=0.0, global_scale=(1.0, 1.0), swap_p=0.0,
        max_dropout=0, blend_self_weight=1.0, gaussian_sigma_mm=0.0,
        per_marker_dropout_p=0.0, drift_mm=0.0, max_drift_markers=0,
        spike_p=1.0)
    spike_ok = True
    for seed in range(1000):
        out, _ = augment.augment_markers(markers, graph, 180.0, seed=seed,
                                         config=spike_cfg)
        mag = np.linalg.norm(out.points - markers.points, axis=1).max() / 180.0
        spike_ok &= 2.0 - 1e-9 <= mag <= 5.0 + 1e-9
    ok = (abs(drop_rate - 0.25) < 0.02 and abs(bypass_rate - 0.50) < 0.02
          and spike_ok and caps_ok)
    _report(capsys, ok, "criterion 9 augmentation calibration",
            f"dropout rate {drop_rate:.3f}, bypass rate {bypass_rate:.3f}, "
            f"spike in [2,5]x scale {spike_ok}, caps {caps_ok}")


def test_criterion_10_protocol_plumbing(capsys, tmp_path):
    """Split audit, MAE vs double loop 1e-12, duplication invariance, and
    write-then-read identity on 100 random episodes."""
    users = list(range(41))
    gestures = list(ds.GESTURE_VOCABULARY)
    split = ds.generate_splits(users, gestures, seed=0)
    leak = any(split.tag(u, g) == "train"
               and (u in split.held_out_users or g in split.held_out_gestures)
               for u in users for g in gestures)
    n_train = sum(split.tag(u, g) == "train" for u in users for g in gestures)
    frac = n_train / (41 * 60)
    split_ok = not leak and abs(frac - 0.7) < 0.03

    rng = np.random.default_rng(7)
    pred = rng.normal(size=(100, 22))
    gt = rng.normal(size=(100, 22))
    loop = sum(abs(pred[t, j] - gt[t, j]) for t in range(100)
               for j in range(22)) / (100 * 22)
    mae_err = abs(ek.mae(pred, gt) - loop)

    base = rng.uniform(0, 8, (20, 22))
    base_users = np.repeat([1, 2], 10)
    dup = np.concatenate([base] + [base[base_users == 1]] * 4)
    dup_users = np.concatenate([base_users] + [base_users[base_users == 1]] * 4)
    dup_err = abs(ek.per_user_aggregate(base, base_users)[0]
                  - ek.per_user_aggregate(dup, dup_users)[0])

    io_ok = True
    for i in range(100):
        ep = ds.synth_episode(seed=i, duration_s=4.0,
                              gesture_label=gestures[i % 60],
                              participant_id=i % 41)
        if i % 3 == 0:
            ep = dataclasses.replace(
                ep, markers=rng.normal(size=(20, 21, 3)),
                marker_timestamps_ms=ep.pose_timestamps_ms[:20])
        path = tmp_path / f"e{i}.egl"
        ds.write_episode(ep, path)
        back = ds.read_episode(path)
        io_ok &= bool(np.array_equal(back.emg.samples, ep.emg.samples)
                      and np.array_equal(back.pose_left, ep.pose_left)
                      and np.array_equal(back.pose_right, ep.pose_right)
                      and back.gesture_label == ep.gesture_label
                      and back.participant_id == ep.participant_id
                      and ((back.markers is None) == (ep.markers is None))
                      and (ep.markers is None
                           or np.array_equal(back.markers, ep.markers)))
    ok = split_ok and mae_err < 1e-12 and dup_err < 1e-12 and io_ok
    _report(capsys, ok, "criterion 10 protocol plumbing",
            f"train fraction {frac:.4f} (no leakage {not leak}), MAE err "
            f"{mae_err:.1e}, duplication err {dup_err:.1e}, 100-episode "
            f"round-trip {io_ok}")


def test_criterion_11_rope_attention(capsys):
    """RoPE norm preservation 1e-6; attention rows sum to 1 within 1e-6;
    relative-offset invariance of q.k within 1e-6."""
    rng = np.random.default_rng(8)
    x = rng.normal(size=(4, 40, 64))
    rot = mc.rope_apply(x, np.arange(40, dtype=float))
    norm_err = float(np.abs(np.linalg.norm(rot, axis=-1)
                            - np.linalg.norm(x, axis=-1)).max())

    config = mc.TransformerConfig.variant("S")
    weights = mc.init_transformer_weights(config, seed=0)
    feats = rng.normal(size=(30, config.d_model))
    _, probs = mc.multi_head_attention(feats, weights.layers[0], config,
                                       np.arange(30, dtype=float))
    row_err = float(np.abs(probs.sum(axis=-1) - 1.0).max())

    q = rng.normal(size=64)
    k = rng.normal(size=64)
    offsets_err = 0.0
    for delta in (1, 5, 17):
        scores = []
        for start in (0.0, 9.0, 100.0):
            rq = mc.rope_apply(q[None, None], np.array([start]))[0, 0]
            rk = mc.rope_apply(k[None, None], np.array([start + delta]))[0, 0]
            scores.append(rq @ rk)
        offsets_err = max(offsets_err, max(scores) - min(scores))
    ok = norm_err < 1e-6 and row_err < 1e-6 and offsets_err < 1e-6
    _report(capsys, ok, "criterion 11 RoPE/attention",
            f"norm err {norm_err:.1e}, row-sum err {row_err:.1e}, "
            f"offset invariance err {offsets_err:.1e}")
