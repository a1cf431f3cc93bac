import numpy as np
import pytest

from handemg import wrist_geometry as wg
from handemg.errors import DegenerateGeometryError, InvalidInputError


def _rand_frame(rng, handedness="right"):
    a = rng.normal(scale=50, size=3)
    b = a + rng.normal(scale=100, size=3)
    c = a + rng.normal(scale=60, size=3)
    return wg.forearm_frame(a, b, c, handedness=handedness), a


def test_frame_is_orthonormal():
    rng = np.random.default_rng(0)
    for handedness in ("right", "left"):
        for _ in range(25):
            frame, _ = _rand_frame(rng, handedness)
            basis = np.stack([frame.f_hat, frame.l_hat, frame.n_hat])
            assert np.abs(basis @ basis.T - np.eye(3)).max() < 1e-9
            det = np.linalg.det(basis)
            assert abs(abs(det) - 1.0) < 1e-9


def test_angle_recovery_roundtrip():
    """hand_direction is the exact inverse of wrist_angles away from gimbal."""
    rng = np.random.default_rng(1)
    for _ in range(100):
        frame, origin = _rand_frame(rng)
        fe = rng.uniform(-80, 80)
        ru = rng.uniform(-40, 40)
        mcp = origin + 90.0 * wg.hand_direction(frame, fe, ru)
        out = wg.wrist_angles(frame, origin, mcp)
        assert not out.ru_degenerate
        assert abs(out.theta_fe - fe) < 1e-9
        assert abs(out.theta_ru - ru) < 1e-9


def test_rotation_invariance():
    """Rigidly moving markers and hand points together leaves angles fixed."""
    from handemg.hand_model import rodrigues
    rng = np.random.default_rng(2)
    a = np.array([0.0, 0.0, 0.0])
    b = np.array([0.0, 0.0, -250.0])
    c = np.array([40.0, 0.0, -20.0])
    frame = wg.forearm_frame(a, b, c)
    mcp = a + 90.0 * wg.hand_direction(frame, 25.0, -10.0)
    for _ in range(20):
        axis = rng.normal(size=3)
        r = rodrigues(axis / np.linalg.norm(axis), rng.uniform(-180, 180))
        t = rng.normal(scale=300, size=3)
        frame2 = wg.forearm_frame(r @ a + t, r @ b + t, r @ c + t)
        out = wg.wrist_angles(frame2, r @ a + t, r @ mcp + t)
        assert abs(out.theta_fe - 25.0) < 1e-8
        assert abs(out.theta_ru + 10.0) < 1e-8


def test_left_hand_mirror():
    """Flipping the frame normal negates flexion, mirroring deviation sense."""
    a = np.array([0.0, 0.0, 0.0])
    b = np.array([0.0, 0.0, -250.0])
    c = np.array([40.0, 0.0, -20.0])
    right = wg.forearm_frame(a, b, c, handedness="right")
    left = wg.forearm_frame(a, b, c, handedness="left")
    assert np.abs(left.n_hat + right.n_hat).max() < 1e-12
    mcp = a + 90.0 * wg.hand_direction(right, 30.0, 5.0)
    out = wg.wrist_angles(left, a, mcp)
    assert abs(out.theta_fe + 30.0) < 1e-9


def test_ru_degeneracy_flag():
    a = np.array([0.0, 0.0, 0.0])
    b = np.array([0.0, 0.0, -250.0])
    c = np.array([40.0, 0.0, -20.0])
    frame = wg.forearm_frame(a, b, c)
    mcp = a + 90.0 * frame.n_hat  # straight along the normal: ru undefined
    out = wg.wrist_angles(frame, a, mcp)
    assert out.ru_degenerate
    assert out.theta_ru == 0.0
    assert abs(out.theta_fe - 90.0) < 1e-9


def test_degenerate_geometry_raises():
    a, b = np.zeros(3), np.array([0.0, 0.0, -250.0])
    with pytest.raises(DegenerateGeometryError):
        wg.forearm_frame(a, b, 0.5 * (a + b))  # collinear markers
    c = np.array([40.0, 0.0, -20.0])
    frame = wg.forearm_frame(a, b, c)
    with pytest.raises(DegenerateGeometryError):
        wg.wrist_angles(frame, a, a + 1e-9)    # coincident wrist/MCP


@pytest.mark.parametrize("row, value", [(0, np.nan), (2, np.inf), (3, -np.inf), (4, np.nan)])
def test_non_finite_points_are_rejected(row, value):
    """Markers a, b, c, the wrist and the middle MCP must all be finite."""
    points = np.array([[0.0, 0, 0], [0, 0, -250], [40, 0, -20], [0, 0, 0], [10, 15, 85]])
    points[row, 1] = value
    with pytest.raises(InvalidInputError, match="must be finite"):
        frame = wg.forearm_frame(*points[:3])
        wg.wrist_angles(frame, points[3], points[4])
