import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_pose
from handemg import ik
from handemg.errors import InvalidInputError
from handemg.hand_model import (JointAngles22, forward_kinematics, landmark_positions,
                                N_DOF, WRIST_FE, WRIST_RU)


def _least_squares(residual, jacobian):
    """The `ik._lm_solve` problem of residual(z) (k, m) with Jacobian (k, m, d),
    handing back z."""
    def problem(z, rows):
        r, jac = residual(z), jacobian(z)
        jac_t = jac.transpose(0, 2, 1)
        return np.vecdot(r, r), jac_t @ jac, jac_t @ r[..., None], z.copy()
    return problem


# r = (1 - x, 10 (y - x^2)), zero at (1, 1)
_rosenbrock = _least_squares(
    lambda z: np.stack([1.0 - z[:, 0], 10.0 * (z[:, 1] - z[:, 0] ** 2)], axis=1),
    lambda z: np.stack([np.stack([-np.ones(len(z)), np.zeros(len(z))], axis=1),
                        np.stack([-20.0 * z[:, 0], np.full(len(z), 10.0)], axis=1)], axis=1))


def test_sigmoid_reparam_bijection():
    limits = np.array([[-30.0, 90.0]] * 5)
    rng = np.random.default_rng(0)
    z = rng.normal(scale=3.0, size=5)
    a = ik.sigmoid_reparam(z, limits)
    assert np.all(a > limits[:, 0]) and np.all(a < limits[:, 1])
    z_back = ik.inverse_sigmoid_reparam(a, limits)
    assert np.abs(z_back - z).max() < 1e-9


def test_loss_gradient_matches_central_differences(skeleton):
    rng = np.random.default_rng(1)
    targets = landmark_positions(skeleton, random_pose(rng, skeleton)[None])[0]
    z = rng.normal(scale=1.5, size=N_DOF)
    loss, grad = ik.ik_loss_and_gradient(z, targets, skeleton)
    h = 1e-6
    for j in range(N_DOF):
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        num = (ik.ik_loss_and_gradient(zp, targets, skeleton)[0]
               - ik.ik_loss_and_gradient(zm, targets, skeleton)[0]) / (2 * h)
        assert abs(grad[j] - num) / max(abs(num), 1.0) < 1e-5


def test_lm_quadratic_fast():
    """A linear residual sqrt(diag(1, 10, 100)) z converges in a few steps."""
    root = np.sqrt(np.diag([1.0, 10.0, 100.0]))
    quad = _least_squares(lambda z: z @ root, lambda z: np.broadcast_to(root, (len(z), 3, 3)))
    _, converged, steps, z = ik._lm_solve(quad, np.ones((1, 3)))
    assert converged[0] and np.abs(z).max() < 1e-7
    assert steps[0] < 40


def test_lm_batch_rows_solve_as_if_alone():
    """Rosenbrock from 4 seeded starts and from its minimum in one call: each
    row gives the bytes of its own one-row solve, and the row that starts at
    the minimum is converged after 0 steps."""
    starts = np.vstack([np.random.default_rng(16).uniform(-2.0, 2.0, size=(4, 2)), [1.0, 1.0]])
    batch = ik._lm_solve(_rosenbrock, starts)
    for row, start in enumerate(starts):
        alone = ik._lm_solve(_rosenbrock, start[None])
        assert [value[row].tobytes() for value in batch] == [value[0].tobytes()
                                                            for value in alone]
    _, converged, steps, z = batch
    assert converged[4] and steps[4] == 0 and np.array_equal(z[4], [1.0, 1.0])
    assert np.all(steps[:4] > 0)


def test_roundtrip_small_batch(skeleton):
    rng = np.random.default_rng(2)
    for _ in range(10):
        truth = random_pose(rng, skeleton)
        result = ik.fit_batch(landmark_positions(skeleton, truth[None]), skeleton)
        rms = np.sqrt(result.residual_mse[0])
        assert rms < 0.5  # mm
        lo, hi = skeleton.limits[:, 0], skeleton.limits[:, 1]
        assert np.all(result.angles[0] > lo)
        assert np.all(result.angles[0] < hi)


def test_fit_is_deterministic(skeleton):
    rng = np.random.default_rng(3)
    targets = landmark_positions(skeleton, random_pose(rng, skeleton)[None])
    a = ik.fit_batch(targets, skeleton)
    b = ik.fit_batch(targets, skeleton)
    assert np.array_equal(a.angles, b.angles)
    assert np.array_equal(a.residual_mse, b.residual_mse)


def _cut_sequence(skeleton, n_frames=24, cut=13):
    """Landmarks of two seeded slow drifts joined by a hard cut at `cut`."""
    rng = np.random.default_rng(11)
    span = skeleton.limits[:, 1] - skeleton.limits[:, 0]
    segments = []
    for n in (cut, n_frames - cut):
        drift = np.linspace(0.0, 0.1, n)[:, None] * span * rng.choice([-1.0, 1.0], N_DOF)
        segments.append(random_pose(rng, skeleton, margin=0.25) + drift)
    return landmark_positions(skeleton, np.concatenate(segments))


def _frame_bytes(fit):
    """Each frame's angles, per-landmark errors and residual, as bytes."""
    rows = np.column_stack([fit.angles, fit.per_landmark_error, fit.residual_mse])
    return [row.tobytes() for row in rows]


_IK_CHILD = """
import sys
import numpy as np
from handemg import ik
from handemg.hand_model import default_skeleton
targets = np.frombuffer(sys.stdin.buffer.read()).reshape(-1, 20, 3)
fit = ik.fit_batch(targets, default_skeleton())
sys.stdout.buffer.write(np.column_stack([fit.angles, fit.per_landmark_error,
                                         fit.residual_mse]).tobytes())
"""


def test_fit_batch_bit_identical_across_blas_threads(skeleton):
    """The thread count is set in each child's environment only."""
    targets = _cut_sequence(skeleton)
    path = [str(Path(ik.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(p for p in path if p))
        child = subprocess.run([sys.executable, "-c", _IK_CHILD], input=targets.tobytes(),
                               env=env, capture_output=True, check=True, timeout=300)
        outputs.append(child.stdout)
    here = b"".join(_frame_bytes(ik.fit_batch(targets, skeleton)))
    assert len(here) == len(targets) * (N_DOF + 20 + 1) * 8
    assert outputs[0] == outputs[1] == here


def test_fit_is_exact_on_clean_targets(skeleton):
    """Levenberg-Marquardt drives clean targets to a (numerically) zero residual."""
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(20):
        targets = landmark_positions(skeleton, random_pose(rng, skeleton)[None])
        result = ik.fit_batch(targets, skeleton)
        worst = max(worst, np.sqrt(result.residual_mse[0]))
        assert result.converged[0]
    fit = ik.fit_batch(_cut_sequence(skeleton), skeleton)
    worst = max(worst, np.sqrt(fit.residual_mse).max())
    assert worst < 1e-6  # mm


def test_per_landmark_error_is_the_fk_distance(skeleton):
    """The reported errors are those of FK at the returned angles, bit for bit."""
    targets = _cut_sequence(skeleton)
    fit = ik.fit_batch(targets, skeleton)
    for target, angles, error, mse in zip(targets, fit.angles, fit.per_landmark_error,
                                          fit.residual_mse):
        fk = forward_kinematics(skeleton, JointAngles22(angles)).points
        distance = np.linalg.norm(fk - target, axis=1)
        assert np.array_equal(error, distance)
        assert mse == np.mean(distance ** 2)


def test_fit_takes_no_config(skeleton):
    """Neither a config object nor a handedness label: the fit uses `skeleton`
    as it is, and its settings are module constants."""
    assert not hasattr(ik, "IkConfig")
    targets = _cut_sequence(skeleton)[:1]
    for option in ({"config": None}, {"handedness": "left"}):
        with pytest.raises(TypeError):
            ik.fit_batch(targets, skeleton, **option)


@pytest.mark.parametrize("shape, bad", [
    ((20, 3), None), ((2, 19, 3), None), ((2, 20, 2), None), ((2, 60), None),
    ((3, 20, 3), np.nan), ((3, 20, 3), np.inf),
], ids=["one-frame-2-d", "19-landmarks", "2-d-points", "flat-frames", "nan", "inf"])
def test_fit_batch_rejects_targets_not_finite_n_by_20_by_3(skeleton, shape, bad):
    targets = np.ones(shape)
    if bad is not None:
        targets[1, 7, 2] = bad
    with pytest.raises(InvalidInputError):
        ik.fit_batch(targets, skeleton)


def test_fit_batch_of_no_frames_is_empty(skeleton):
    fit = ik.fit_batch(np.zeros((0, 20, 3)), skeleton)
    assert fit.angles.shape == (0, N_DOF) and fit.per_landmark_error.shape == (0, 20)
    assert all(len(column) == 0 for column in fit)


def test_fit_batch_is_independent_of_chunking(skeleton, monkeypatch):
    """Each frame's result depends only on its own targets: a sequence fitted
    whole, one frame at a time or in chunks of 5 gives the same bytes, and so
    does a sequence longer than the lockstep block. Noise on some frames
    sends them through the later start rounds."""
    targets = _cut_sequence(skeleton)
    targets[3::7] += np.random.default_rng(15).normal(scale=1.0, size=targets[3::7].shape)

    def fitted(chunk):
        return [frame for i in range(0, len(targets), chunk)
                for frame in _frame_bytes(ik.fit_batch(targets[i:i + chunk], skeleton))]

    whole = fitted(len(targets))
    assert len(whole) == 24
    assert list(ik.fit_batch(targets, skeleton).starts_used > 1) == [
        i % 7 == 3 for i in range(24)]
    assert fitted(1) == whole
    assert fitted(5) == whole
    monkeypatch.setattr(ik, "_BLOCK_FRAMES", 7)
    assert fitted(len(targets)) == whole


def test_frame_accepted_in_first_round_joins_no_later_round(skeleton, monkeypatch):
    """Only frames that the first start does not fit exactly are solved again,
    once, from the finger-sweep start."""
    targets = _cut_sequence(skeleton, n_frames=6, cut=3)
    # frames 1 and 4 three times as far from the wrist: no pose reaches them
    targets[[1, 4]] *= 3.0
    rounds = []
    solve = ik._lm_fit
    monkeypatch.setattr(ik, "_lm_fit",
                        lambda z0, tgt, *args: rounds.append(tgt.copy()) or solve(z0, tgt, *args))
    fit = ik.fit_batch(targets, skeleton)
    assert len(rounds) == 2
    assert np.array_equal(rounds[0], targets)
    assert np.array_equal(rounds[1], targets[[1, 4]])
    assert list(fit.starts_used) == [1, 2, 1, 1, 2, 1]
    assert np.all(fit.iterations_used > 0)


def test_unreachable_targets_try_every_start_in_order(skeleton, monkeypatch):
    """The wrist-aligned start, then the finger-sweep start."""
    rng = np.random.default_rng(13)
    # every landmark three times as far from the wrist: no pose reaches them
    targets = 3.0 * landmark_positions(skeleton, random_pose(rng, skeleton)[None])
    starts = []
    solve = ik._lm_fit
    monkeypatch.setattr(ik, "_lm_fit",
                        lambda z0, *args: starts.append(z0[0]) or solve(z0, *args))
    result = ik.fit_batch(targets, skeleton)
    assert result.residual_mse[0] > 1.0
    assert result.starts_used[0] == len(starts) == 2
    expected = [ik._wrist_aligned_start(targets, skeleton)[0],
                ik._finger_sweep_start(targets, skeleton)[0]]
    for got, want in zip(starts, expected):
        assert np.array_equal(got, want)


def test_full_range_poses_fit_exactly_from_two_starts(skeleton):
    """Poses drawn over the whole joint range, where finger local minima
    trap a start at mid-range, fit exactly; with 1 mm noise every frame fits
    at least as close as the pose that made the targets."""
    lo, hi = skeleton.limits[:, 0], skeleton.limits[:, 1]
    rng = np.random.default_rng(21)
    truth = landmark_positions(skeleton, rng.uniform(lo, hi, size=(48, N_DOF)))
    fit = ik.fit_batch(truth, skeleton)
    assert np.sqrt(fit.residual_mse).max() < 1e-6     # mm
    assert fit.starts_used.max() <= 2
    noisy = truth + rng.normal(scale=1.0, size=truth.shape)
    fit = ik.fit_batch(noisy, skeleton)
    true_mse = np.mean(np.sum((truth - noisy) ** 2, axis=2), axis=1)
    assert np.all(fit.residual_mse <= true_mse + 1e-12)
    assert fit.starts_used.max() <= 2


@pytest.mark.parametrize("noise_mm", [0.3, 1.0])
def test_noisy_targets_fit_no_worse_than_the_true_pose(skeleton, noise_mm):
    """On noisy targets no pose fits exactly, and the later start rounds run;
    each frame's fit is still at least as close as the pose that made them."""
    truth = _cut_sequence(skeleton, n_frames=12, cut=7)
    rng = np.random.default_rng(14)
    noisy = truth + rng.normal(scale=noise_mm, size=truth.shape)
    fit = ik.fit_batch(noisy, skeleton)
    true_rms = np.sqrt(np.mean(np.sum((truth - noisy) ** 2, axis=2), axis=1))
    assert np.all(np.sqrt(fit.residual_mse) <= true_rms + 1e-6)
    if noise_mm == 1.0:
        assert np.all(fit.starts_used > 1)


def test_wrist_aligned_start_matches_per_frame_procrustes(skeleton):
    """The stacked SVD gives each frame the start of the one-frame Procrustes."""
    targets = _cut_sequence(skeleton)
    targets[5] = targets[5] @ np.diag([-1.0, 1.0, 1.0])    # a mirrored frame: d = -1
    lo, hi = skeleton.limits[:, 0], skeleton.limits[:, 1]
    rigid, rest = skeleton.wrist_rigid_rest
    expected = []
    for frame in targets:
        u, _, vt = np.linalg.svd(rest.T @ frame[rigid])
        d = np.sign(np.linalg.det(vt.T @ u.T))
        rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
        start = skeleton.limits.mean(axis=1)
        start[WRIST_RU] = np.clip(np.degrees(np.arctan2(rot[1, 0], rot[0, 0])),
                                  lo[WRIST_RU], hi[WRIST_RU])
        start[WRIST_FE] = np.clip(np.degrees(np.arctan2(rot[2, 1], rot[2, 2])),
                                  lo[WRIST_FE], hi[WRIST_FE])
        pad = 0.01 * (hi - lo)
        expected.append(ik.inverse_sigmoid_reparam(np.clip(start, lo + pad, hi - pad),
                                                   skeleton.limits))
    assert np.array_equal(ik._wrist_aligned_start(targets, skeleton), np.array(expected))
