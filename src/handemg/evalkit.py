"""Metrics and aggregation for the joint-angle benchmark.

The headline metric is mean absolute error over joint angles in degrees.
Aggregation order is part of the protocol: per-user MAE is computed first
and then averaged unweighted across users (population std backs the +-
columns). Per-finger and per-phalanx groupings follow the 22-DoF layout;
the phalanx membership (thumb CMC counted as proximal, thumb MCP as
mid-phalanx, thumb IP as distal) is a declared convention.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

FINGER_GROUPS = {
    "thumb": (0, 1, 2, 3),
    "index": (4, 5, 6, 7),
    "middle": (8, 9, 10, 11),
    "ring": (12, 13, 14, 15),
    "pinky": (16, 17, 18, 19),
    "wrist_fe": (20,),
    "wrist_ru": (21,),
}
PHALANX_GROUPS = {
    "proximal": (0, 1, 4, 5, 8, 9, 12, 13, 16, 17),
    "mid_phalanx": (2, 6, 10, 14, 18),
    "distal": (3, 7, 11, 15, 19),
}


def _check_errors(errors) -> np.ndarray:
    """A non-empty (T, J) matrix of finite, non-negative absolute errors."""
    errors = np.asarray(errors, dtype=float)
    if errors.ndim != 2 or errors.size == 0:
        raise InvalidInputError("errors must be a non-empty (T, J) matrix")
    if not np.all(np.isfinite(errors)) or errors.min() < 0:
        raise InvalidInputError("errors must be finite and non-negative")
    return errors


def mae(pred: np.ndarray, gt: np.ndarray) -> float:
    """(1/JT) sum |pred - gt| in degrees."""
    pred, gt = np.asarray(pred, dtype=float), np.asarray(gt, dtype=float)
    if pred.shape != gt.shape:
        raise InvalidInputError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    return float(np.abs(pred - gt).mean())


def group_mae(errors, grouping=None) -> dict:
    """Mean error restricted to each named index set; empty groups absent.

    `errors` is the (T, J) matrix of absolute errors, e.g. |pred - gt|.
    """
    errors = _check_errors(errors)
    if grouping is None:
        grouping = FINGER_GROUPS
    n_joints = errors.shape[1]
    out = {}
    for name, idx in grouping.items():
        idx = [i for i in idx if i < n_joints]
        if idx:
            out[name] = float(errors[:, idx].mean())
    return out


def per_user_aggregate(errors, user_ids):
    """Per-user MAE first, then unweighted mean and population std across users.

    `errors` is (T, J); `user_ids` gives the user of each of the T rows.
    Returns (mean, std, {user_id: mae}).
    """
    errors = _check_errors(errors)
    user_ids = np.asarray(user_ids)
    if user_ids.shape != (len(errors),):
        raise InvalidInputError("user_ids must give one user per error row")
    user_mae = {u.item(): float(errors[user_ids == u].mean())
                for u in np.unique(user_ids)}
    values = np.array(list(user_mae.values()))
    return float(values.mean()), float(values.std()), user_mae
