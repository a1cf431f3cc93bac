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
its own targets. It returns one record of arrays; `fit_joint_angles` is
the one-frame case.

`lbfgs_minimize` is a general minimizer of any (loss, gradient) objective:
L-BFGS with a strong Wolfe line search, at fixed settings (100 accepted
steps, 50 evaluations per line search, history 10, first trial step 0.1,
gradient tolerance 1e-8). `ik_loss_and_gradient` is the IK objective (mean
squared landmark distance, mm^2) in that form. The fit and
`ik_loss_and_gradient` share one residual, `_residuals`, so a gradient check
tests the Jacobian the fit uses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError
from .hand_model import (
    N_DOF,
    N_LANDMARKS,
    WRIST_FE,
    WRIST_RU,
    HandSkeleton,
    JointAngles22,
    LandmarkSet,
    forward_kinematics,  # unused here; benchmark/tests read ik.forward_kinematics
    _fk_state,
    landmark_jacobians,
)

# classical strong Wolfe constants
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
_MAX_BRACKET_ATTEMPTS = 20
# L-BFGS: accepted-step budget, objective evaluations per line search (the
# bracketing phase takes at most _MAX_BRACKET_ATTEMPTS, the zoom the rest),
# curvature pairs kept, first trial step, and the max-|gradient| stop
_LBFGS_MAX_STEPS = 100
_LBFGS_LINE_SEARCH_EVALS = 50
_LBFGS_HISTORY = 10
_LBFGS_FIRST_STEP = 0.1
_LBFGS_GRADIENT_TOL = 1e-8
# sigmoid saturation guard keeping the reparameterized angles strictly
# inside their limits at float precision
_SIGMOID_EPS = 1e-14


@dataclass(frozen=True)
class IkResult:
    angles: JointAngles22
    residual_mse: float                 # mm^2, mean of squared landmark distances
    per_landmark_error: np.ndarray      # (20,) mm
    converged: bool
    iterations_used: int                # Levenberg-Marquardt steps tried, all starts
    starts_used: int                    # starting points solved from


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


def ik_loss_and_gradient(z, targets: LandmarkSet, skeleton: HandSkeleton):
    """Mean squared landmark error of FK(sigmoid_reparam(z)) and its z-gradient."""
    _, _, residual, jac_z = _residuals(np.asarray(z, dtype=float)[None],
                                       targets.points[None], skeleton)
    residual, jac_z = residual[0], jac_z[0]
    return (float(residual @ residual) / N_LANDMARKS,
            2.0 / N_LANDMARKS * (residual @ jac_z))


@dataclass
class LbfgsTrace:
    accepted_losses: list = field(default_factory=list)
    converged: bool = False


def _zoom(objective, x, d, phi0, dphi0, lo, hi, budget):
    """Nocedal-Wright zoom on the bracket [lo, hi] (each entry (alpha, phi, dphi, f, g, xa)).

    Returns (f, g, xa) of the point it settles on."""
    c1, c2 = WOLFE_C1, WOLFE_C2
    a_lo, phi_lo, dphi_lo, f_lo, g_lo, x_lo = lo
    a_hi, phi_hi, dphi_hi, f_hi, g_hi, x_hi = hi
    best = (f_lo, g_lo, x_lo)
    for _ in range(budget):
        # quadratic interpolation, guarded toward bisection
        denom = phi_hi - phi_lo - dphi_lo * (a_hi - a_lo)
        if denom != 0.0:
            alpha = a_lo - 0.5 * dphi_lo * (a_hi - a_lo) ** 2 / denom
        else:
            alpha = 0.5 * (a_lo + a_hi)
        span_lo, span_hi = min(a_lo, a_hi), max(a_lo, a_hi)
        margin = 0.1 * (span_hi - span_lo)
        if not (span_lo + margin <= alpha <= span_hi - margin):
            alpha = 0.5 * (a_lo + a_hi)
        xa = x + alpha * d
        f, g = objective(xa)
        phi, dphi = f, float(g @ d)
        if phi > phi0 + c1 * alpha * dphi0 or phi >= phi_lo:
            a_hi, phi_hi, dphi_hi, f_hi, g_hi, x_hi = alpha, phi, dphi, f, g, xa
        else:
            if abs(dphi) <= -c2 * dphi0:
                return f, g, xa
            if dphi * (a_hi - a_lo) >= 0:
                a_hi, phi_hi, dphi_hi, f_hi, g_hi, x_hi = a_lo, phi_lo, dphi_lo, f_lo, g_lo, x_lo
            a_lo, phi_lo, dphi_lo, f_lo, g_lo, x_lo = alpha, phi, dphi, f, g, xa
            if phi_lo < best[0]:
                best = (f, g, xa)
        if abs(a_hi - a_lo) < 1e-16:
            break
    if phi_lo < phi0:
        return f_lo, g_lo, x_lo
    return best


def _strong_wolfe_search(objective, x, f0, g0, d, alpha_init):
    """Strong Wolfe line search. Returns (x_new, f, g), or None on failure."""
    c1, c2 = WOLFE_C1, WOLFE_C2
    phi0, dphi0 = f0, float(g0 @ d)
    if dphi0 >= 0:
        return None
    prev = (0.0, phi0, dphi0, f0, g0, x)
    alpha = alpha_init
    for attempt in range(_MAX_BRACKET_ATTEMPTS):
        xa = x + alpha * d
        f, g = objective(xa)
        phi, dphi = f, float(g @ d)
        cur = (alpha, phi, dphi, f, g, xa)
        if phi > phi0 + c1 * alpha * dphi0 or (attempt > 0 and phi >= prev[1]):
            lo, hi = prev, cur
        elif abs(dphi) <= -c2 * dphi0:
            return xa, f, g
        elif dphi >= 0:
            lo, hi = cur, prev
        else:
            prev = cur
            alpha *= 2.0
            continue
        # the zoom spends what is left of the evaluation budget
        f, g, xa = _zoom(objective, x, d, phi0, dphi0, lo, hi,
                         _LBFGS_LINE_SEARCH_EVALS - (attempt + 1))
        return (xa, f, g) if f < phi0 else None
    # bracketing exhausted: accept the last sufficient-decrease point if any
    if prev[0] > 0.0 and prev[1] < phi0:
        return prev[5], prev[3], prev[4]
    return None


def lbfgs_minimize(objective, z0):
    """Minimize `objective` (returning (loss, gradient)) with L-BFGS.

    Returns (z_star, trace). Accepted losses are monotone non-increasing;
    iteration stops on the gradient tolerance, a stalled loss (relative
    decrease < 1e-12 over 3 steps), the step budget, or a failed line search.
    `trace.converged` distinguishes the outcomes.
    """
    x = np.asarray(z0, dtype=float).copy()
    f, g = objective(x)
    if not (np.isfinite(f) and np.all(np.isfinite(g))):
        raise InvalidInputError("objective must be finite at the starting point")
    trace = LbfgsTrace()
    s_hist: deque = deque(maxlen=_LBFGS_HISTORY)
    y_hist: deque = deque(maxlen=_LBFGS_HISTORY)
    recent = deque([f], maxlen=4)
    for step in range(_LBFGS_MAX_STEPS):
        if np.max(np.abs(g)) < _LBFGS_GRADIENT_TOL:
            break
        # two-loop recursion
        q = g.copy()
        alphas = []
        for s, y in zip(reversed(s_hist), reversed(y_hist)):
            rho = 1.0 / (y @ s)
            a = rho * (s @ q)
            alphas.append((a, rho, s, y))
            q -= a * y
        if y_hist:
            s, y = s_hist[-1], y_hist[-1]
            q *= (s @ y) / (y @ y)
        for a, rho, s, y in reversed(alphas):
            b = rho * (y @ q)
            q += (a - b) * s
        d = -q
        if d @ g >= 0:
            d = -g
        alpha_init = _LBFGS_FIRST_STEP if step == 0 else 1.0
        res = _strong_wolfe_search(objective, x, f, g, d, alpha_init)
        if res is None:
            break
        x_new, f_new, g_new = res
        s_vec = x_new - x
        y_vec = g_new - g
        if s_vec @ y_vec > 1e-14 * np.linalg.norm(s_vec) * np.linalg.norm(y_vec):
            s_hist.append(s_vec)
            y_hist.append(y_vec)
        x, f, g = x_new, f_new, g_new
        trace.accepted_losses.append(f)
        recent.append(f)
        if len(recent) == 4 and recent[0] - recent[-1] < 1e-12 * max(abs(recent[0]), 1.0):
            trace.converged = True
            break
    if np.max(np.abs(g)) < _LBFGS_GRADIENT_TOL:
        trace.converged = True
    return x, trace


# Levenberg-Marquardt per start: initial damping relative to diag(J^T J),
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
    """The angles, landmarks and squared error (N,) of N frames at z, with
    the normal equations' J^T J (N, 22, 22) and J^T r (N, 22, 1), which are
    stacked matmuls. J itself is dropped: it is the largest array of a step."""
    angles, points, residual, jac = _residuals(z, targets, skeleton)
    jac_t = jac.transpose(0, 2, 1)
    return (angles, points, np.vecdot(residual, residual),
            jac_t @ jac, jac_t @ residual[..., None])


def _lm_solve(z0, targets: np.ndarray, skeleton: HandSkeleton):
    """Levenberg-Marquardt on the landmark residuals FK(a(z)) - targets of N
    frames at once, from starts z0 (N, 22) toward targets (N, 20, 3).

    Each frame's step solves (J^T J + lam diag(J^T J)) dz = -J^T r with J its
    (60, 22) z-space Jacobian. An accepted step (lower squared error) divides
    that frame's lam by 3, a rejected one multiplies it by 4. A frame leaves
    the active set when it converges or has spent its step budget. J^T J and
    J^T r are stacked matmuls and the step a batched solve, so each frame's
    arithmetic is the same as if it were solved alone. Returns per-frame
    arrays (angles, points, mse, converged, steps): `angles` and `points` are
    those of the best evaluation, and `steps` counts the steps tried,
    accepted or not.
    """
    exact_cost = _LM_EXACT_MSE * N_LANDMARKS
    z = np.array(z0, dtype=float)
    angles, points, cost, jtj, jtr = _normal_equations(z, targets, skeleton)
    damping = np.full(len(z), _LM_DAMPING)
    converged = cost <= exact_cost
    steps = np.zeros(len(z), dtype=int)
    diagonal = np.arange(N_DOF)
    active = np.flatnonzero(~converged)
    while active.size:
        lhs = jtj[active]
        # floored so that a DoF moving no landmark still gets damped
        scale = lhs[:, diagonal, diagonal]
        scale = np.maximum(scale, 1e-12 * scale.max(axis=1, keepdims=True))
        lhs[:, diagonal, diagonal] += damping[active, None] * scale
        dz = np.linalg.solve(lhs, -jtr[active])[..., 0]
        steps[active] += 1
        trial = _normal_equations(z[active] + dz, targets[active], skeleton)
        better = trial[2] < cost[active]
        damping[active[~better]] *= 4.0
        accepted, cost_old, cost_new = active[better], cost[active[better]], trial[2][better]
        converged[accepted] = ((cost_new <= exact_cost)
                               | (cost_old - cost_new <= _LM_STALL * cost_old))
        z[accepted] += dz[better]
        angles[accepted], points[accepted], cost[accepted], jtj[accepted], jtr[accepted] = (
            value[better] for value in trial)
        damping[accepted] /= 3.0
        active = active[~converged[active] & (steps[active] < _LM_MAX_STEPS)]
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
    angles, points, mse, converged, steps = _lm_solve(_wrist_aligned_start(targets, skeleton),
                                                     targets, skeleton)
    starts = np.ones(len(targets), dtype=int)
    retry = np.flatnonzero(mse > _LM_EXACT_MSE)
    if retry.size:
        second = _lm_solve(_finger_sweep_start(targets[retry], skeleton), targets[retry],
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


def fit_joint_angles(targets: LandmarkSet, skeleton: HandSkeleton) -> IkResult:
    """Recover 22 joint angles whose FK landmarks match `targets` (mm): the
    one-frame case of `fit_batch`."""
    fit = fit_batch(targets.points[None], skeleton)
    return IkResult(angles=JointAngles22(fit.angles[0]),
                    residual_mse=float(fit.residual_mse[0]),
                    per_landmark_error=fit.per_landmark_error[0],
                    converged=bool(fit.converged[0]),
                    iterations_used=int(fit.iterations_used[0]),
                    starts_used=int(fit.starts_used[0]))
