"""Joint-angle recovery from target landmarks.

The 22 angles are fitted in an unconstrained space z through a sigmoid box
reparameterization a = a_min + (a_max - a_min) * sigmoid(z), so every iterate
stays strictly inside the joint limits. The fit is a least-squares problem:
60 landmark coordinate residuals FK(a(z)) - targets (mm) over 22 unknowns,
zero at the solution for clean targets. `fit_batch` solves it for an
(N, 20, 3) target array in lockstep: one Levenberg-Marquardt on the analytic
FK Jacobian, which converges quadratically near a zero-residual solution,
runs every frame at once with per-frame damping and stopping. Each frame
has at most two deterministic starts: the mid-range pose with the wrist
set by Procrustes, then, for a frame the first does not fit exactly, that
pose with every finger DoF set in closed form. Every product is a stacked
matmul and every solve a batched one, so a frame's result depends only on
its own targets. It returns one record of arrays.

The Levenberg-Marquardt core, `_lm_solve`, takes any batch of least-squares
problems through their normal equations; acceptance criterion 3 runs it on
the Rosenbrock residual. `ik_loss_and_gradient` is the IK objective (mean
squared landmark distance, mm^2) and its z-gradient. The fit and
`ik_loss_and_gradient` share one residual, `_residuals`, so a gradient check
tests the Jacobian the fit uses.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError
from .hand_model import (
    N_DOF,
    N_LANDMARKS,
    WRIST_FE,
    WRIST_RU,
    HandSkeleton,
    forward_kinematics,  # unused here; benchmark/tests read ik.forward_kinematics
    _fk_state,
    landmark_jacobians,
)

# sigmoid saturation guard keeping the reparameterized angles strictly
# inside their limits at float precision
_SIGMOID_EPS = 1e-14


def _sigmoid(z):
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return np.clip(out, _SIGMOID_EPS, 1.0 - _SIGMOID_EPS)


def sigmoid_reparam(z, limits) -> np.ndarray:
    """Map unconstrained z to angles strictly inside (a_min, a_max)."""
    z = np.asarray(z, dtype=float)
    limits = np.asarray(limits, dtype=float)
    lo, hi = limits[:, 0], limits[:, 1]
    if not np.all(lo < hi):
        raise InvalidInputError("limits require a_min < a_max")
    return lo + (hi - lo) * _sigmoid(z)


def inverse_sigmoid_reparam(a, limits) -> np.ndarray:
    """Inverse of `sigmoid_reparam`; a must be strictly inside the limits."""
    a = np.asarray(a, dtype=float)
    limits = np.asarray(limits, dtype=float)
    lo, hi = limits[:, 0], limits[:, 1]
    if np.any(a <= lo) or np.any(a >= hi):
        raise InvalidInputError("angles must be strictly inside (a_min, a_max)")
    t = (a - lo) / (hi - lo)
    return np.log(t) - np.log1p(-t)


def _residuals(z, targets: np.ndarray, skeleton: HandSkeleton):
    """The IK least-squares problem of N frames at z (N, 22) with targets
    (N, 20, 3): the angles a(z), their landmarks (N, 20, 3), the residuals
    FK(a(z)) - targets (N, 60) and their z-Jacobians (N, 60, 22)."""
    limits = skeleton.limits
    lo, span = limits[:, 0], limits[:, 1] - limits[:, 0]
    s = _sigmoid(z)
    angles = lo + span * s
    points, jac = landmark_jacobians(skeleton, angles)
    n = len(z)
    residual = (points - targets).reshape(n, N_LANDMARKS * 3)
    jac_z = jac.reshape(n, N_LANDMARKS * 3, N_DOF)
    jac_z *= (span * s * (1.0 - s))[:, None]
    return angles, points, residual, jac_z


def ik_loss_and_gradient(z, targets, skeleton: HandSkeleton):
    """Mean squared landmark error of FK(sigmoid_reparam(z)) against targets
    (20, 3) in mm, and its z-gradient."""
    _, _, residual, jac_z = _residuals(np.asarray(z, dtype=float)[None],
                                       np.asarray(targets, dtype=float)[None], skeleton)
    residual, jac_z = residual[0], jac_z[0]
    return (float(residual @ residual) / N_LANDMARKS,
            2.0 / N_LANDMARKS * (residual @ jac_z))


# Levenberg-Marquardt per problem: initial damping relative to diag(J^T J),
# the step budget, the mean squared landmark error (mm^2, 1e-8 mm RMS) that
# counts as an exact fit, and the relative decrease of an accepted step below
# which the solve has stalled in a local minimum
_LM_DAMPING = 1e-4
_LM_MAX_STEPS = 50
_LM_EXACT_MSE = 1e-16
_LM_STALL = 1e-6
# frames solved in lockstep at most: the solve's working memory grows with
# the frame count (about 55 kB per frame), and the time per frame stops
# falling at about this many
_BLOCK_FRAMES = 128


def _normal_equations(z, targets: np.ndarray, skeleton: HandSkeleton):
    """The squared error (N,) of N frames at z, the normal equations' J^T J
    (N, 22, 22) and J^T r (N, 22, 1), which are stacked matmuls, then the
    angles and landmarks. J itself is dropped: it is the largest array of a
    step."""
    angles, points, residual, jac = _residuals(z, targets, skeleton)
    jac_t = jac.transpose(0, 2, 1)
    return (np.vecdot(residual, residual), jac_t @ jac, jac_t @ residual[..., None],
            angles, points)


def _lm_solve(problem, z0):
    """Levenberg-Marquardt on k least-squares problems at once, from starts
    z0 (k, d).

    `problem(z, rows)` evaluates problems `rows` at z (len(rows), d): it
    returns their costs (sums of squared residuals), J^T J (., d, d) and
    J^T r (., d, 1), then any per-problem arrays to hand back. Each
    problem's step solves (J^T J + lam diag(J^T J)) dz = -J^T r. An accepted
    step (lower cost) divides that problem's lam by 3, a rejected one
    multiplies it by 4. A problem leaves the active set when it converges
    (cost at most _LM_EXACT_MSE * N_LANDMARKS, or an accepted step lowers
    it by at most the fraction _LM_STALL) or has tried _LM_MAX_STEPS steps.
    The step is a batched solve, so each problem's arithmetic is the same as
    if it were solved alone. Returns (cost, converged, steps, *arrays) of
    each problem's best evaluation; `steps` counts the steps tried,
    accepted or not.
    """
    exact_cost = _LM_EXACT_MSE * N_LANDMARKS
    z = np.array(z0, dtype=float)
    best = list(problem(z, np.arange(len(z))))
    cost, jtj, jtr = best[:3]
    damping = np.full(len(z), _LM_DAMPING)
    converged = cost <= exact_cost
    steps = np.zeros(len(z), dtype=int)
    diagonal = np.arange(z.shape[1])
    active = np.flatnonzero(~converged)
    while active.size:
        lhs = jtj[active]
        # floored so that a coordinate moving no residual still gets damped
        scale = lhs[:, diagonal, diagonal]
        scale = np.maximum(scale, 1e-12 * scale.max(axis=1, keepdims=True))
        lhs[:, diagonal, diagonal] += damping[active, None] * scale
        dz = np.linalg.solve(lhs, -jtr[active])[..., 0]
        steps[active] += 1
        trial = problem(z[active] + dz, active)
        better = trial[0] < cost[active]
        damping[active[~better]] *= 4.0
        accepted, cost_old, cost_new = active[better], cost[active[better]], trial[0][better]
        converged[accepted] = ((cost_new <= exact_cost)
                               | (cost_old - cost_new <= _LM_STALL * cost_old))
        z[accepted] += dz[better]
        for kept, value in zip(best, trial):
            kept[accepted] = value[better]
        damping[accepted] /= 3.0
        active = active[~converged[active] & (steps[active] < _LM_MAX_STEPS)]
    return (cost, converged, steps, *best[3:])


def _lm_fit(z0, targets: np.ndarray, skeleton: HandSkeleton):
    """`_lm_solve` on the landmark residuals FK(a(z)) - targets of N frames,
    from starts z0 (N, 22) toward targets (N, 20, 3). Returns per-frame
    arrays (angles, points, mse, converged, steps) of the best evaluation."""
    cost, converged, steps, angles, points = _lm_solve(
        lambda z, rows: _normal_equations(z, targets[rows], skeleton), z0)
    return angles, points, cost / N_LANDMARKS, converged, steps


def _wrist_aligned_start(targets: np.ndarray, skeleton: HandSkeleton) -> np.ndarray:
    """Mid-range poses (N, 22) in z with the wrist set by rotation-only
    Procrustes on targets (N, 20, 3).

    The base-knuckle landmarks are rigid with respect to the finger DoFs, so
    the best-fit rotation of their rest positions onto the targets estimates
    the two wrist angles in closed form, one stacked SVD for all frames.
    Degenerate cases fall back to the mid-range wrist.
    """
    limits = skeleton.limits
    lo, hi = limits[:, 0], limits[:, 1]
    start = np.tile(limits.mean(axis=1), (len(targets), 1))
    rigid, rest = skeleton.wrist_rigid_rest
    if len(rigid) >= 3:
        u, _, vt = np.linalg.svd(rest.T @ targets[:, rigid])
        v, u_t = vt.transpose(0, 2, 1), u.transpose(0, 2, 1)
        # a reflection flips the last singular direction: V diag(1, 1, d) U^T
        v[:, :, 2] *= np.sign(np.linalg.det(v @ u_t))[:, None]
        rot = v @ u_t
        # decompose as deviation-about-z composed with flexion-about-x
        ru = np.degrees(np.arctan2(rot[:, 1, 0], rot[:, 0, 0]))
        fe = np.degrees(np.arctan2(rot[:, 2, 1], rot[:, 2, 2]))
        ok = np.isfinite(fe) & np.isfinite(ru)
        start[ok, WRIST_FE] = np.clip(fe[ok], lo[WRIST_FE], hi[WRIST_FE])
        start[ok, WRIST_RU] = np.clip(ru[ok], lo[WRIST_RU], hi[WRIST_RU])
    # pulled 1% inside the limits, where the inverse map is defined
    pad = 0.01 * (hi - lo)
    return inverse_sigmoid_reparam(np.clip(start, lo + pad, hi - pad), limits)


def _finger_sweep_start(targets: np.ndarray, skeleton: HandSkeleton) -> np.ndarray:
    """The wrist-aligned starts (N, 22) in z with every finger DoF set in
    closed form for targets (N, 20, 3).

    With the wrist fixed the five fingers move disjoint landmarks, so the
    k-th DoF of all five (DoFs k, 4 + k, ..., 16 + k) is set at once, for
    k = 0..3 and in two sweeps: 8 FK evaluations. Each DoF takes the exact
    minimiser of the squared error of the landmarks it moves: with a its
    world axis and v, t the current and target landmarks relative to its
    origin, its angle moves by atan2(sum a.(v x t), sum v.t - (a.v)(a.t)).
    Angles are clipped 1% inside the limits.
    """
    limits = skeleton.limits
    pad = 0.01 * (limits[:, 1] - limits[:, 0])
    lo, hi = limits[:, 0] + pad, limits[:, 1] - pad
    angles = sigmoid_reparam(_wrist_aligned_start(targets, skeleton), limits)
    for k in (0, 1, 2, 3) * 2:
        dofs = np.arange(k, WRIST_FE, 4)
        points, axes, origins = _fk_state(skeleton, angles)
        a = axes[:, dofs, None]                         # (N, 5, 1, 3)
        v = points[:, None] - origins[:, dofs, None]    # (N, 5, 20, 3)
        t = targets[:, None] - origins[:, dofs, None]
        moved = skeleton.landmark_dof_mask[:, dofs].T   # (5, 20)
        sin = np.sum(np.vecdot(a, np.cross(v, t)) * moved, axis=-1)
        cos = np.sum((np.vecdot(v, t) - np.vecdot(a, v) * np.vecdot(a, t)) * moved, axis=-1)
        angles[:, dofs] = np.clip(angles[:, dofs] + np.degrees(np.arctan2(sin, cos)),
                                  lo[dofs], hi[dofs])
    return inverse_sigmoid_reparam(angles, limits)


class IkBatchResult(NamedTuple):
    """The fits of N frames, one array per field, frame k in row k."""

    angles: np.ndarray                  # (N, 22) degrees
    residual_mse: np.ndarray            # (N,) mm^2, mean of squared landmark distances
    per_landmark_error: np.ndarray      # (N, 20) mm
    converged: np.ndarray               # (N,) bool
    iterations_used: np.ndarray         # (N,) Levenberg-Marquardt steps tried, all starts
    starts_used: np.ndarray             # (N,) starting points solved from


def _fit_block(targets: np.ndarray, skeleton: HandSkeleton) -> IkBatchResult:
    """`fit_batch` of at most _BLOCK_FRAMES frames, all in lockstep."""
    angles, points, mse, converged, steps = _lm_fit(_wrist_aligned_start(targets, skeleton),
                                                   targets, skeleton)
    starts = np.ones(len(targets), dtype=int)
    retry = np.flatnonzero(mse > _LM_EXACT_MSE)
    if retry.size:
        second = _lm_fit(_finger_sweep_start(targets[retry], skeleton), targets[retry],
                         skeleton)
        steps[retry] += second[4]
        starts[retry] = 2
        better = second[2] < mse[retry]
        for best, fit in zip((angles, points, mse, converged), second):
            best[retry[better]] = fit[better]

    per_landmark = np.linalg.norm(points - targets, axis=2)
    return IkBatchResult(angles=angles, residual_mse=np.mean(per_landmark ** 2, axis=1),
                         per_landmark_error=per_landmark, converged=converged,
                         iterations_used=steps, starts_used=starts)


def fit_batch(targets, skeleton: HandSkeleton) -> IkBatchResult:
    """Recover 22 joint angles per frame whose FK landmarks match the target
    landmarks (N, 20, 3) in mm, all frames in lockstep.

    Every frame is solved from the wrist-aligned mid-range pose; a frame
    that this does not fit exactly (squared error above _LM_EXACT_MSE) is
    solved once more from the finger-sweep start and keeps the better of its
    two fits. So no frame is solved more than twice. A frame's result depends
    only on its own targets: it is the same, bit for bit, whether a sequence
    is fitted whole, frame by frame or in chunks, and from call to call.
    Frames are solved _BLOCK_FRAMES at a time.
    """
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 3 or targets.shape[1:] != (N_LANDMARKS, 3):
        raise InvalidInputError(f"expected (N, {N_LANDMARKS}, 3) target landmarks, "
                                f"got shape {targets.shape}")
    if not np.all(np.isfinite(targets)):
        raise InvalidInputError("target landmarks must be finite")
    blocks = [_fit_block(targets[first:first + _BLOCK_FRAMES], skeleton)
              for first in range(0, max(len(targets), 1), _BLOCK_FRAMES)]
    return IkBatchResult(*(np.concatenate(column) for column in zip(*blocks)))

