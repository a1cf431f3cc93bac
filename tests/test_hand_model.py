import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_pose
from handemg import hand_model as hm
from handemg.errors import InvalidInputError

FINGERTIPS = (3, 7, 11, 15, 19)


def test_layout_constants():
    assert hm.N_DOF == 22
    assert hm.N_LANDMARKS == 20
    assert hm.AA_INDICES == (1, 4, 8, 12, 16)
    assert (hm.WRIST_FE, hm.WRIST_RU) == (20, 21)


def test_rodrigues_is_rotation():
    rng = np.random.default_rng(0)
    for _ in range(50):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        r = hm.rodrigues(axis, rng.uniform(-180, 180))
        assert np.abs(r @ r.T - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(r) - 1.0) < 1e-12
        # the axis is fixed by its own rotation
        assert np.abs(r @ axis - axis).max() < 1e-12


def test_rodrigues_composition():
    axis = np.array([0.0, 0.0, 1.0])
    r = hm.rodrigues(axis, 30.0) @ hm.rodrigues(axis, 25.0)
    assert np.abs(r - hm.rodrigues(axis, 55.0)).max() < 1e-12


def test_rodrigues_broadcasts_over_angles():
    rng = np.random.default_rng(4)
    axes = rng.normal(size=(7, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = rng.uniform(-180, 180, size=(5, 7))
    batch = hm.rodrigues(axes, angles)
    assert batch.shape == (5, 7, 3, 3)
    for n in range(5):
        for b in range(7):
            assert np.array_equal(batch[n, b], hm.rodrigues(axes[b], angles[n, b]))
    assert np.array_equal(hm.rodrigues(axes[0], 0.0), np.eye(3))
    axes[3] *= 1.01
    with pytest.raises(InvalidInputError):
        hm.rodrigues(axes, angles)


def test_landmark_positions_matches_single_pose_fk(skeleton):
    rng = np.random.default_rng(5)
    lo, hi = skeleton.limits[:, 0], skeleton.limits[:, 1]
    poses = rng.uniform(lo, hi, size=(200, 22))
    batch = hm.landmark_positions(skeleton, poses)
    single = np.stack([hm.forward_kinematics(skeleton, hm.JointAngles22(p)).points
                       for p in poses])
    assert np.array_equal(batch, single)
    points, jac = hm.landmark_jacobians(skeleton, poses)
    assert np.array_equal(points, single)
    for pose, pose_jac in zip(poses, jac):
        assert np.array_equal(hm.landmark_jacobians(skeleton, pose[None])[1][0], pose_jac)


def _loop_fk(skeleton, values):
    """Reference FK: one step per bone, in the skeleton's own bone order.
    Landmarks (N, 20, 3), DoF world axes and DoF origins (N, 22, 3)."""
    n, n_bones = len(values), len(skeleton.bones)
    axes = np.array([b.axis for b in skeleton.bones])
    columns = [-1 if b.dof is None else b.dof for b in skeleton.bones]
    padded = np.concatenate([values, np.zeros((n, 1))], axis=1)
    local = hm.rodrigues(axes, padded[:, columns])
    origins = np.zeros((n, n_bones + 1, 3))
    rotations = np.zeros((n, n_bones + 1, 3, 3))
    rotations[:, -1] = np.eye(3)
    dof_axes = np.zeros((n, hm.N_DOF, 3))
    dof_origins = np.zeros((n, hm.N_DOF, 3))
    for i, bone in enumerate(skeleton.bones):
        parent_r = rotations[:, bone.parent]
        origins[:, i] = origins[:, bone.parent] + parent_r @ bone.offset
        rotations[:, i] = parent_r @ local[:, i]
        if bone.dof is not None:
            dof_axes[:, bone.dof] = parent_r @ bone.axis
            dof_origins[:, bone.dof] = origins[:, i]
    bones = [bi for bi, _ in skeleton.landmark_map]
    offsets = np.array([off for _, off in skeleton.landmark_map])
    points = origins[:, bones] + (rotations[:, bones] @ offsets[:, :, None])[..., 0]
    return points, dof_axes, dof_origins


def _loop_jacobian(skeleton, values):
    points, dof_axes, dof_origins = _loop_fk(skeleton, values[None])
    rel = points[0][:, None, :] - dof_origins[0][None, :, :]
    jac = np.cross(np.broadcast_to(dof_axes[0], rel.shape), rel)
    jac = jac * skeleton.landmark_dof_mask[:, :, None]
    return points[0], np.swapaxes(jac, 1, 2) * (np.pi / 180.0)


def test_fk_core_matches_per_bone_loop(skeleton):
    rng = np.random.default_rng(6)
    lo, hi = skeleton.limits[:, 0], skeleton.limits[:, 1]
    poses = rng.uniform(lo, hi, size=(500, 22))
    for batch in (poses[:1], poses):
        assert np.array_equal(hm.landmark_positions(skeleton, batch),
                              _loop_fk(skeleton, batch)[0])
    points, jac = hm.landmark_jacobians(skeleton, poses[:200])
    for values, pose_points, pose_jac in zip(poses, points, jac):
        ref_points, ref_jac = _loop_jacobian(skeleton, values)
        assert np.array_equal(pose_points, ref_points)
        assert np.array_equal(pose_jac, ref_jac)


def test_default_skeleton_levels_read_parents_by_slice(skeleton):
    levels = skeleton._fk_tables.levels
    assert [s.stop - s.start for s, _, _ in levels] == [1, 1, 5, 5, 5, 5, 5]
    assert all(isinstance(parents, slice) for _, parents, _ in levels)


def _reordered(skeleton, order):
    """The same hand with its bones listed in `order` (a valid tree order)."""
    new_index = {old: new for new, old in enumerate(order)}
    new_index[-1] = -1
    bones = tuple(hm.Bone(parent=new_index[b.parent], offset=b.offset, axis=b.axis,
                          dof=b.dof, name=b.name)
                  for b in (skeleton.bones[i] for i in order))
    return hm.HandSkeleton(
        bones=bones, limits=skeleton.limits,
        landmark_map=tuple((new_index[bi], off) for bi, off in skeleton.landmark_map),
        fingertip_indices=skeleton.fingertip_indices)


def test_fk_is_independent_of_bone_order(tmp_path, skeleton):
    """A seeded random tree order interleaves the fingers, so that some
    level reads its parents through an index array."""
    rng = np.random.default_rng(8)
    placed, order = {-1}, []
    while len(order) < len(skeleton.bones):
        ready = [i for i, b in enumerate(skeleton.bones)
                 if i not in placed and b.parent in placed]
        order.append(ready[rng.integers(len(ready))])
        placed.add(order[-1])
    path = tmp_path / "reordered.skel"
    hm.save_skeleton(_reordered(skeleton, order), path)
    loaded = hm.load_skeleton(path)
    assert [b.name for b in loaded.bones] != [b.name for b in skeleton.bones]
    assert any(isinstance(parents, np.ndarray) for _, parents, _ in loaded._fk_tables.levels)
    poses = rng.uniform(skeleton.limits[:, 0], skeleton.limits[:, 1], size=(50, 22))
    expect = hm.landmark_positions(skeleton, poses)
    got = hm.landmark_positions(loaded, poses)
    assert np.abs(got - expect).max() <= 1e-12
    assert np.array_equal(got, expect)
    _, jac = hm.landmark_jacobians(loaded, poses)
    _, expect_jac = hm.landmark_jacobians(skeleton, poses)
    assert np.abs(jac - expect_jac).max() <= 1e-12
    assert np.array_equal(jac, expect_jac)


_FK_CHILD = """
import sys
import numpy as np
from handemg import hand_model as hm
skeleton = hm.default_skeleton()
poses = np.frombuffer(sys.stdin.buffer.read()).reshape(-1, hm.N_DOF)
sys.stdout.buffer.write(hm.landmark_positions(skeleton, poses).tobytes())
for values in poses:
    points, jac = hm.landmark_jacobians(skeleton, values[None])
    sys.stdout.buffer.write(points.tobytes() + jac.tobytes())
"""


def test_fk_bit_identical_across_blas_threads(skeleton):
    """The thread count is set in each child's environment only."""
    rng = np.random.default_rng(9)
    poses = rng.uniform(skeleton.limits[:, 0], skeleton.limits[:, 1], size=(100, 22))
    path = [str(Path(hm.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(p for p in path if p))
        child = subprocess.run([sys.executable, "-c", _FK_CHILD], input=poses.tobytes(),
                               env=env, capture_output=True, check=True, timeout=300)
        outputs.append(child.stdout)
    here = hm.landmark_positions(skeleton, poses).tobytes() + b"".join(
        b"".join(a.tobytes() for a in hm.landmark_jacobians(skeleton, v[None]))
        for v in poses)
    assert len(here) == len(poses) * 20 * 3 * (1 + 1 + 22) * 8
    assert outputs[0] == outputs[1] == here


def test_fk_zero_pose_shapes(skeleton):
    lm = hm.forward_kinematics(skeleton, hm.JointAngles22(np.zeros(22)))
    assert lm.points.shape == (20, 3)
    assert np.all(np.isfinite(lm.points))
    # fingertips are the most distal landmarks of each digit
    tip_d = np.linalg.norm(lm.points[list(FINGERTIPS)], axis=1)
    mcp_d = np.linalg.norm(lm.points[[0, 4, 8, 12, 16]], axis=1)
    assert np.all(tip_d > mcp_d)


def test_fk_deterministic(skeleton):
    rng = np.random.default_rng(1)
    pose = hm.JointAngles22(random_pose(rng, skeleton))
    a = hm.forward_kinematics(skeleton, pose).points
    b = hm.forward_kinematics(skeleton, pose).points
    assert np.array_equal(a, b)


def test_fk_wrist_rotation_is_rigid(skeleton):
    """Changing only wrist angles applies a rigid motion to all landmarks."""
    base = np.zeros(22)
    bent = base.copy()
    bent[hm.WRIST_FE], bent[hm.WRIST_RU] = 30.0, -15.0
    p0 = hm.forward_kinematics(skeleton, hm.JointAngles22(base)).points
    p1 = hm.forward_kinematics(skeleton, hm.JointAngles22(bent)).points
    d0 = np.linalg.norm(p0[:, None] - p0[None, :], axis=-1)
    d1 = np.linalg.norm(p1[:, None] - p1[None, :], axis=-1)
    assert np.abs(d0 - d1).max() < 1e-9


def test_jacobian_matches_central_differences(skeleton):
    rng = np.random.default_rng(2)
    h = 1e-5
    for _ in range(5):
        values = random_pose(rng, skeleton)
        points, jac = (a[0] for a in hm.landmark_jacobians(skeleton, values[None]))
        assert jac.shape == (20, 3, 22)
        fk0 = hm.forward_kinematics(skeleton, hm.JointAngles22(values)).points
        assert np.abs(points - fk0).max() < 1e-12
        for j in rng.choice(22, size=8, replace=False):
            plus, minus = values.copy(), values.copy()
            plus[j] += h
            minus[j] -= h
            num = (hm.forward_kinematics(skeleton, hm.JointAngles22(plus)).points
                   - hm.forward_kinematics(skeleton, hm.JointAngles22(minus)).points) / (2 * h)
            denom = max(np.abs(num).max(), 1.0)
            assert np.abs(jac[:, :, j] - num).max() / denom < 1e-6


def test_jacobian_is_zero_outside_the_landmark_dof_mask(skeleton):
    mask = skeleton.landmark_dof_mask
    assert mask.sum() == 100
    rng = np.random.default_rng(8)
    poses = rng.uniform(skeleton.limits[:, 0], skeleton.limits[:, 1], size=(300, 22))
    _, jac = hm.landmark_jacobians(skeleton, poses)
    by_pair = np.swapaxes(jac, 2, 3)            # (N, 20, 22, 3)
    assert not np.any(by_pair[:, ~mask])
    assert np.any(by_pair[:, mask])
    points, jac = hm.landmark_jacobians(skeleton, np.zeros((0, 22)))
    assert points.shape == (0, 20, 3) and jac.shape == (0, 20, 3, 22)


def test_mirror_pose_involution():
    rng = np.random.default_rng(3)
    values = rng.uniform(-40, 40, size=22)
    pose = hm.JointAngles22(values, handedness="right")
    mirrored = hm.mirror_pose(pose)
    assert mirrored.handedness == "left"
    for i in hm.AA_INDICES:
        assert mirrored.values[i] == -values[i]
    assert mirrored.values[hm.WRIST_RU] == -values[hm.WRIST_RU]
    assert mirrored.values[hm.WRIST_FE] == values[hm.WRIST_FE]
    back = hm.mirror_pose(mirrored)
    assert back.handedness == "right"
    assert np.array_equal(back.values, values)


def test_skeleton_roundtrip(tmp_path, skeleton):
    path = tmp_path / "hand.skel"
    hm.save_skeleton(skeleton, path)
    loaded = hm.load_skeleton(path)
    zero = hm.JointAngles22(np.zeros(22))
    assert np.array_equal(hm.forward_kinematics(skeleton, zero).points,
                          hm.forward_kinematics(loaded, zero).points)
    assert np.array_equal(loaded.limits, skeleton.limits)


def test_default_skeleton_is_one_read_only_instance():
    skeleton = hm.default_skeleton()
    assert hm.default_skeleton() is skeleton
    for arr in (skeleton.limits, skeleton.bones[1].offset, skeleton.bones[1].axis,
                skeleton.landmark_map[0][1], skeleton.landmark_dof_mask,
                *skeleton.wrist_rigid_rest):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_wrist_rigid_rest_matches_per_call_definition(skeleton):
    """The cached landmarks equal the Jacobian test and rest-pose FK that IK
    used to run on every frame, and are computed once per skeleton."""
    mid = skeleton.limits.mean(axis=1)
    jac = hm.landmark_jacobians(skeleton, mid[None])[1][0]
    rigid = [i for i in range(hm.N_LANDMARKS)
             if np.abs(jac[i, :, :hm.WRIST_FE]).max() < 1e-12]
    rest_angles = mid.copy()
    rest_angles[[hm.WRIST_FE, hm.WRIST_RU]] = 0.0
    rest = hm.forward_kinematics(skeleton, hm.JointAngles22(rest_angles)).points[rigid]
    cached_rigid, cached_rest = skeleton.wrist_rigid_rest
    assert len(rigid) >= 3 and cached_rigid.tolist() == rigid
    assert np.array_equal(cached_rest, rest)
    assert skeleton.wrist_rigid_rest[1] is cached_rest


def test_invalid_inputs(skeleton):
    with pytest.raises(InvalidInputError):
        hm.JointAngles22(np.zeros(21))
    with pytest.raises(InvalidInputError):
        hm.JointAngles22(np.zeros(22), handedness="upward")
    with pytest.raises(InvalidInputError):
        hm.LandmarkSet(np.zeros((19, 3)))
    bad = np.zeros(22)
    bad[0] = np.nan
    with pytest.raises(InvalidInputError):
        hm.JointAngles22(bad)
    for value in (np.nan, np.inf, -np.inf):
        points = np.zeros((20, 3))
        points[7, 1] = value
        with pytest.raises(InvalidInputError, match="finite"):
            hm.LandmarkSet(points)
    for angles in (np.zeros((3, 21)), np.zeros(22), np.stack([np.zeros(22), bad])):
        with pytest.raises(InvalidInputError):
            hm.landmark_positions(skeleton, angles)
        with pytest.raises(InvalidInputError):
            hm.landmark_jacobians(skeleton, angles)
