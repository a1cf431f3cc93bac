"""Wrist flexion/extension and radial/ulnar deviation from armband markers.

Three non-collinear armband markers define an orthonormal forearm frame
(forearm direction F, leftward direction L, normal N). The wrist-to-middle-MCP
direction H then yields the two wrist angles:

    theta_fe = arcsin(H . N)
    theta_ru = atan2(H_proj . L, H_proj . F),   H_proj = H - (H . N) N

with extension and radial deviation positive. For the left hand the normal is
flipped (N = L x F) so the sign convention matches across hands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, InvalidInputError

_MIN_TRIANGLE_AREA_MM2 = 1.0
_MIN_HAND_VECTOR_MM = 1.0
_RU_DEGENERACY_TOL = 1e-9


def _finite_point(p, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise InvalidInputError(f"{name} must be finite")
    return p


def _unit(v):
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise DegenerateGeometryError("cannot normalize a zero vector")
    return v / n


@dataclass(frozen=True)
class ForearmFrame:
    """Orthonormal forearm frame. All basis vectors are unit-norm."""

    f_hat: np.ndarray
    l_hat: np.ndarray
    n_hat: np.ndarray
    handedness: str = "right"

    def __post_init__(self):
        for name in ("f_hat", "l_hat", "n_hat"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (3,) or abs(np.linalg.norm(v) - 1.0) > 1e-9:
                raise InvalidInputError(f"{name} must be a unit 3-vector")
            object.__setattr__(self, name, v)
        if self.handedness not in ("left", "right"):
            raise InvalidInputError(f"bad handedness {self.handedness!r}")


@dataclass(frozen=True)
class WristAngles:
    """Wrist angles in degrees. `ru_degenerate` marks frames where the hand
    vector was (anti)parallel to the frame normal and theta_ru is reported 0."""

    theta_fe: float
    theta_ru: float
    ru_degenerate: bool = False


def forearm_frame(marker_a, marker_b, marker_c, handedness: str = "right") -> ForearmFrame:
    """Build the forearm frame from three armband markers.

    F points from marker_a to marker_b; L is marker_a->marker_c orthogonalized
    against F; N completes the frame (flipped for the left hand).
    """
    a = _finite_point(marker_a, "marker_a")
    b = _finite_point(marker_b, "marker_b")
    c = _finite_point(marker_c, "marker_c")
    ab, ac = b - a, c - a
    area = 0.5 * np.linalg.norm(np.cross(ab, ac))
    if area <= _MIN_TRIANGLE_AREA_MM2:
        raise DegenerateGeometryError(
            f"armband markers are (near-)collinear: triangle area {area:.3g} mm^2")
    f_hat = _unit(ab)
    l_hat = _unit(ac - (ac @ f_hat) * f_hat)
    if handedness == "right":
        n_hat = _unit(np.cross(f_hat, l_hat))
    else:
        n_hat = _unit(np.cross(l_hat, f_hat))
    return ForearmFrame(f_hat=f_hat, l_hat=l_hat, n_hat=n_hat, handedness=handedness)


def wrist_angles(frame: ForearmFrame, wrist_pt, middle_mcp_pt) -> WristAngles:
    """Wrist angles from the frame and the wrist -> middle-MCP direction."""
    hand = _finite_point(middle_mcp_pt, "middle_mcp_pt") - _finite_point(wrist_pt, "wrist_pt")
    if np.linalg.norm(hand) <= _MIN_HAND_VECTOR_MM:
        raise DegenerateGeometryError("wrist and middle-MCP points (near-)coincide")
    h_hat = _unit(hand)
    h_dot_n = float(np.clip(h_hat @ frame.n_hat, -1.0, 1.0))
    theta_fe = float(np.degrees(np.arcsin(h_dot_n)))
    if abs(h_dot_n) > 1.0 - _RU_DEGENERACY_TOL:
        # hand vector parallel to the normal: deviation is undefined
        return WristAngles(theta_fe=theta_fe, theta_ru=0.0, ru_degenerate=True)
    h_proj = h_hat - h_dot_n * frame.n_hat
    theta_ru = float(np.degrees(np.arctan2(h_proj @ frame.l_hat, h_proj @ frame.f_hat)))
    return WristAngles(theta_fe=theta_fe, theta_ru=theta_ru)


def hand_direction(frame: ForearmFrame, theta_fe_deg: float, theta_ru_deg: float) -> np.ndarray:
    """Unit hand vector that reproduces the given wrist angles (inverse map)."""
    fe = np.radians(theta_fe_deg)
    ru = np.radians(theta_ru_deg)
    return (np.cos(fe) * np.cos(ru) * frame.f_hat
            + np.cos(fe) * np.sin(ru) * frame.l_hat
            + np.sin(fe) * frame.n_hat)
