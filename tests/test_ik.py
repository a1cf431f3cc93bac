import numpy as np
import pytest

from conftest import random_pose
from handemg import ik
from handemg.hand_model import (JointAngles22, LandmarkSet, forward_kinematics,
                                N_DOF)
from handemg.errors import InvalidInputError


def _rosenbrock(z):
    x, y = z
    loss = (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2
    grad = np.array([-2.0 * (1.0 - x) - 400.0 * x * (y - x * x),
                     200.0 * (y - x * x)])
    return loss, grad


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
    targets = LandmarkSet(forward_kinematics(
        skeleton, JointAngles22(random_pose(rng, skeleton))).points)
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


def test_lbfgs_rosenbrock():
    config = ik.IkConfig(outer_steps=100, loss_tolerance=0.0)
    z, trace = ik.lbfgs_minimize(_rosenbrock, np.array([-1.2, 1.0]), config)
    assert np.abs(z - 1.0).max() < 1e-6
    losses = np.array(trace.accepted_losses)
    assert np.all(np.diff(losses) <= 0)  # accepted losses never increase


def test_lbfgs_quadratic_fast():
    a = np.diag([1.0, 10.0, 100.0])

    def quad(z):
        return 0.5 * z @ a @ z, a @ z

    z, trace = ik.lbfgs_minimize(quad, np.array([1.0, 1.0, 1.0]),
                                 ik.IkConfig(loss_tolerance=0.0))
    assert np.abs(z).max() < 1e-7
    assert len(trace.accepted_losses) < 40


def test_roundtrip_small_batch(skeleton):
    rng = np.random.default_rng(2)
    for _ in range(10):
        truth = random_pose(rng, skeleton)
        targets = LandmarkSet(forward_kinematics(skeleton,
                                                 JointAngles22(truth)).points)
        result = ik.fit_joint_angles(targets, skeleton)
        rms = np.sqrt(result.residual_mse)
        assert rms < 0.5  # mm
        lo, hi = skeleton.limits[:, 0], skeleton.limits[:, 1]
        assert np.all(result.angles.values > lo)
        assert np.all(result.angles.values < hi)


def test_fit_is_deterministic(skeleton):
    rng = np.random.default_rng(3)
    targets = LandmarkSet(forward_kinematics(
        skeleton, JointAngles22(random_pose(rng, skeleton))).points)
    a = ik.fit_joint_angles(targets, skeleton)
    b = ik.fit_joint_angles(targets, skeleton)
    assert np.array_equal(a.angles.values, b.angles.values)
    assert a.residual_mse == b.residual_mse


def test_alignment_transform(skeleton):
    """A known similarity transform on targets is undone before fitting."""
    from handemg.hand_model import rodrigues
    rng = np.random.default_rng(4)
    truth = random_pose(rng, skeleton)
    points = forward_kinematics(skeleton, JointAngles22(truth)).points
    r = rodrigues(np.array([0.0, 1.0, 0.0]), 40.0)
    scale, t = 1.3, np.array([10.0, -20.0, 5.0])
    moved = (points - t[None]) @ r / scale  # inverse of the declared transform
    align = ik.SimilarityTransform(scale=scale, rotation=r, translation=t)
    result = ik.fit_joint_angles(LandmarkSet(moved), skeleton, alignment=align)
    assert np.sqrt(result.residual_mse) < 0.5


def test_batch_warm_start_chain(skeleton):
    """fit_batch is exactly a loop warm-starting each frame from the last."""
    rng = np.random.default_rng(5)
    start = random_pose(rng, skeleton)
    end = random_pose(rng, skeleton)
    frames = [LandmarkSet(forward_kinematics(
        skeleton, JointAngles22(start + (end - start) * s)).points)
        for s in np.linspace(0, 1, 8)]
    res_a = ik.fit_batch(frames, skeleton)
    res_b, previous = [], None
    for frame in frames:
        previous = ik.fit_joint_angles(
            frame, skeleton,
            warm_start=None if previous is None else previous.angles)
        res_b.append(previous)
    assert len(res_a) == len(res_b)
    for a, b in zip(res_a, res_b):
        assert np.array_equal(a.angles.values, b.angles.values)
        assert a.residual_mse == b.residual_mse
    assert all(np.sqrt(r.residual_mse) < 0.5 for r in res_a)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        ik.IkConfig(outer_steps=0)
    with pytest.raises(InvalidInputError):
        ik.IkConfig(learning_rate=-1.0)
    with pytest.raises(InvalidInputError):
        ik.IkConfig(loss_tolerance=-0.1)
    with pytest.raises(TypeError):
        ik.IkConfig(chunk_size=3)
