"""Joint-angle recovery from target landmarks.

The 22 angles are optimized in an unconstrained space z through a sigmoid box
reparameterization a = a_min + (a_max - a_min) * sigmoid(z), so every iterate
stays strictly inside the joint limits. The objective is the mean squared
landmark distance (mm^2) between forward kinematics output and the targets,
minimized with L-BFGS using a strong Wolfe line search.

"Inner iterations" counts objective evaluations spent inside one line search;
"outer steps" counts accepted L-BFGS updates.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

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
    forward_kinematics,
    landmark_jacobian,
)

# classical strong Wolfe constants
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
_MAX_BRACKET_ATTEMPTS = 20
# sigmoid saturation guard keeping the reparameterized angles strictly
# inside their limits at float precision
_SIGMOID_EPS = 1e-14


@dataclass(frozen=True)
class IkConfig:
    outer_steps: int = 100
    max_inner_iters: int = 50
    learning_rate: float = 0.1
    history_size: int = 10
    gradient_tolerance: float = 1e-8
    # stop once the objective is at least this good (mm^2 for landmark fits;
    # ~0.22 mm RMS). The tail of the IK landscape converges only linearly, so
    # without a loss floor every solve burns the full outer budget. Set to 0
    # to disable and run to the gradient/stall criteria.
    loss_tolerance: float = 0.05

    def __post_init__(self):
        for name in ("outer_steps", "max_inner_iters", "history_size"):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be >= 1")
        if self.learning_rate <= 0:
            raise InvalidInputError("learning_rate must be positive")
        if self.loss_tolerance < 0:
            raise InvalidInputError("loss_tolerance must be >= 0")


@dataclass(frozen=True)
class IkResult:
    angles: JointAngles22
    residual_mse: float                 # mm^2, mean of squared landmark distances
    per_landmark_error: np.ndarray      # (20,) mm
    converged: bool
    iterations_used: int


@dataclass(frozen=True)
class SimilarityTransform:
    """Fixed scale/rotation/translation applied to targets before fitting."""

    scale: float = 1.0
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        return self.scale * points @ np.asarray(self.rotation, float).T + np.asarray(
            self.translation, float)


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


def ik_loss_and_gradient(z, targets: LandmarkSet, skeleton: HandSkeleton):
    """Mean squared landmark error of FK(sigmoid_reparam(z)) and its z-gradient."""
    z = np.asarray(z, dtype=float)
    limits = skeleton.limits
    s = _sigmoid(z)
    a = limits[:, 0] + (limits[:, 1] - limits[:, 0]) * s
    points, jac = landmark_jacobian(skeleton, JointAngles22(a))
    residual = points - targets.points                       # (20, 3)
    loss = float(np.sum(residual ** 2)) / N_LANDMARKS
    grad_a = 2.0 / N_LANDMARKS * np.einsum("ik,ikj->j", residual, jac)
    da_dz = (limits[:, 1] - limits[:, 0]) * s * (1.0 - s)
    return loss, grad_a * da_dz


@dataclass
class LbfgsTrace:
    accepted_losses: list = field(default_factory=list)
    wolfe_satisfied: list = field(default_factory=list)
    inner_evals: list = field(default_factory=list)
    n_evals: int = 0
    converged: bool = False
    outer_steps: int = 0                # accepted L-BFGS updates
    final_loss: float = np.nan
    final_gradient: np.ndarray | None = None


def _zoom(objective, x, d, phi0, dphi0, lo, hi, c1, c2, budget, trace):
    """Nocedal-Wright zoom on the bracket [lo, hi] (each entry (alpha, phi, dphi, f, g, xa))."""
    a_lo, phi_lo, dphi_lo, f_lo, g_lo, x_lo = lo
    a_hi, phi_hi, dphi_hi, f_hi, g_hi, x_hi = hi
    best = (a_lo, f_lo, g_lo, x_lo, False)
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
        trace.n_evals += 1
        phi, dphi = f, float(g @ d)
        if phi > phi0 + c1 * alpha * dphi0 or phi >= phi_lo:
            a_hi, phi_hi, dphi_hi, f_hi, g_hi, x_hi = alpha, phi, dphi, f, g, xa
        else:
            if abs(dphi) <= -c2 * dphi0:
                return alpha, f, g, xa, True
            if dphi * (a_hi - a_lo) >= 0:
                a_hi, phi_hi, dphi_hi, f_hi, g_hi, x_hi = a_lo, phi_lo, dphi_lo, f_lo, g_lo, x_lo
            a_lo, phi_lo, dphi_lo, f_lo, g_lo, x_lo = alpha, phi, dphi, f, g, xa
            if phi_lo < best[1]:
                best = (alpha, f, g, xa, False)
        if abs(a_hi - a_lo) < 1e-16:
            break
    if phi_lo < phi0:
        return a_lo, f_lo, g_lo, x_lo, False
    return best


def _strong_wolfe_search(objective, x, f0, g0, d, alpha_init, budget, trace):
    """Strong Wolfe line search. Returns (x_new, f, g, ok) or None on failure."""
    c1, c2 = WOLFE_C1, WOLFE_C2
    phi0, dphi0 = f0, float(g0 @ d)
    if dphi0 >= 0:
        return None
    prev = (0.0, phi0, dphi0, f0, g0, x)
    alpha = alpha_init
    used = 0
    for attempt in range(_MAX_BRACKET_ATTEMPTS):
        if used >= budget:
            break
        xa = x + alpha * d
        f, g = objective(xa)
        trace.n_evals += 1
        used += 1
        phi, dphi = f, float(g @ d)
        cur = (alpha, phi, dphi, f, g, xa)
        if phi > phi0 + c1 * alpha * dphi0 or (attempt > 0 and phi >= prev[1]):
            lo, hi = prev, cur
        elif abs(dphi) <= -c2 * dphi0:
            return xa, f, g, True
        elif dphi >= 0:
            lo, hi = cur, prev
        else:
            prev = cur
            alpha *= 2.0
            continue
        _, f, g, xa, ok = _zoom(objective, x, d, phi0, dphi0, lo, hi, c1, c2,
                                budget - used, trace)
        return (xa, f, g, ok) if f < phi0 else None
    # bracketing exhausted: accept the last sufficient-decrease point if any
    if prev[0] > 0.0 and prev[1] < phi0:
        return prev[5], prev[3], prev[4], False
    return None


def lbfgs_minimize(objective, z0, config: IkConfig = IkConfig()):
    """Minimize `objective` (returning (loss, gradient)) with L-BFGS.

    Returns (z_star, trace). Accepted losses are monotone non-increasing;
    iteration stops on the gradient tolerance, the loss tolerance, a stalled
    loss (relative decrease < 1e-12 over 3 steps), the outer-step budget, or
    a failed line search. `trace.converged` distinguishes the outcomes.
    """
    x = np.asarray(z0, dtype=float).copy()
    f, g = objective(x)
    trace = LbfgsTrace(n_evals=1)
    if not (np.isfinite(f) and np.all(np.isfinite(g))):
        raise InvalidInputError("objective must be finite at the starting point")
    s_hist: deque = deque(maxlen=config.history_size)
    y_hist: deque = deque(maxlen=config.history_size)
    converged = False
    recent = deque(maxlen=4)
    recent.append(f)
    steps = 0
    for step in range(config.outer_steps):
        if np.max(np.abs(g)) < config.gradient_tolerance:
            converged = True
            break
        if config.loss_tolerance > 0 and f <= config.loss_tolerance:
            converged = True
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
        alpha_init = config.learning_rate if step == 0 else 1.0
        evals_before = trace.n_evals
        res = _strong_wolfe_search(objective, x, f, g, d, alpha_init,
                                   config.max_inner_iters, trace)
        trace.inner_evals.append(trace.n_evals - evals_before)
        if res is None:
            break
        x_new, f_new, g_new, wolfe_ok = res
        s_vec = x_new - x
        y_vec = g_new - g
        if s_vec @ y_vec > 1e-14 * np.linalg.norm(s_vec) * np.linalg.norm(y_vec):
            s_hist.append(s_vec)
            y_hist.append(y_vec)
        x, f, g = x_new, f_new, g_new
        steps += 1
        trace.accepted_losses.append(f)
        trace.wolfe_satisfied.append(wolfe_ok)
        recent.append(f)
        if config.loss_tolerance > 0 and f <= config.loss_tolerance:
            converged = True
            break
        if len(recent) == 4 and recent[0] - recent[-1] < 1e-12 * max(abs(recent[0]), 1.0):
            converged = True
            break
    else:
        converged = converged or np.max(np.abs(g)) < config.gradient_tolerance
    if np.max(np.abs(g)) < config.gradient_tolerance:
        converged = True
    trace.converged = converged
    trace.outer_steps = steps
    trace.final_loss = f
    trace.final_gradient = g
    return x, trace


# residual (mm^2) below which a solve is accepted without trying further
# starting points; stuck local minima sit orders of magnitude above this
_ACCEPT_MSE = 0.2
# restarts perturb the wrist-aligned start rather than sampling globally:
# the wrist basin is almost always right and only the finger DoFs need a kick
_N_PERTURBED_RESTARTS = 4
_RESTART_SIGMA = 0.75


def _wrist_aligned_start(targets: LandmarkSet, skeleton: HandSkeleton) -> np.ndarray:
    """Mid-range pose with the wrist set by rotation-only Procrustes.

    The base-knuckle landmarks are rigid with respect to the finger DoFs, so
    the best-fit rotation of their rest positions onto the targets estimates
    the two wrist angles in closed form. Degenerate cases fall back to the
    mid-range wrist.
    """
    limits = skeleton.limits
    lo, hi = limits[:, 0], limits[:, 1]
    mid = limits.mean(axis=1)
    start = mid.copy()
    rigid, rest = skeleton.wrist_rigid_rest
    if len(rigid) >= 3:
        tgt = targets.points[rigid]
        u, _, vt = np.linalg.svd(rest.T @ tgt)
        d = np.sign(np.linalg.det(vt.T @ u.T))
        rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
        # decompose as deviation-about-z composed with flexion-about-x
        ru = np.degrees(np.arctan2(rot[1, 0], rot[0, 0]))
        fe = np.degrees(np.arctan2(rot[2, 1], rot[2, 2]))
        if np.isfinite(fe) and np.isfinite(ru):
            start[WRIST_FE] = np.clip(fe, lo[WRIST_FE], hi[WRIST_FE])
            start[WRIST_RU] = np.clip(ru, lo[WRIST_RU], hi[WRIST_RU])
    pad = 0.01 * (hi - lo)
    return inverse_sigmoid_reparam(np.clip(start, lo + pad, hi - pad), limits)


def fit_joint_angles(targets: LandmarkSet, skeleton: HandSkeleton,
                     config: IkConfig = IkConfig(),
                     warm_start: JointAngles22 | None = None,
                     alignment: SimilarityTransform | None = None,
                     handedness: str = "right") -> IkResult:
    """Recover 22 joint angles whose FK landmarks match `targets` (mm).

    Starting points are tried in order (warm start if given, wrist-aligned
    mid-range pose, mid-range pose, then a fixed set of seeded perturbations)
    until the residual is acceptable; the best solve is returned either way.
    The candidate list is deterministic, so repeated calls are bit-identical.
    `handedness` only labels the returned angles: the fit uses `skeleton` as is.
    """
    if alignment is not None:
        targets = LandmarkSet(alignment.apply(targets.points))
    limits = skeleton.limits
    lo, hi = limits[:, 0], limits[:, 1]

    candidates = []
    if warm_start is not None:
        # pull the warm pose 1% inside the limits so the inverse map is defined
        pad = 0.01 * (hi - lo)
        candidates.append(inverse_sigmoid_reparam(
            np.clip(warm_start.values, lo + pad, hi - pad), limits))
    z_aligned = _wrist_aligned_start(targets, skeleton)
    candidates.append(z_aligned)
    candidates.append(np.zeros(N_DOF))
    restart_rng = np.random.Generator(np.random.Philox(key=0))
    candidates += [z_aligned + restart_rng.normal(size=N_DOF) * _RESTART_SIGMA
                   for _ in range(_N_PERTURBED_RESTARTS)]

    def objective(z):
        return ik_loss_and_gradient(z, targets, skeleton)

    best = None
    iterations_total = 0
    for z0 in candidates:
        z_star, trace = lbfgs_minimize(objective, z0, config)
        iterations_total += trace.outer_steps
        if best is None or trace.final_loss < best[1]:
            best = (z_star, trace.final_loss, trace.converged)
        if best[1] <= _ACCEPT_MSE:
            break

    z_star, _, converged = best
    angles = JointAngles22(sigmoid_reparam(z_star, limits), handedness=handedness)
    points = forward_kinematics(skeleton, angles).points
    per_landmark = np.linalg.norm(points - targets.points, axis=1)
    return IkResult(angles=angles,
                    residual_mse=float(np.mean(per_landmark ** 2)),
                    per_landmark_error=per_landmark,
                    converged=bool(converged),
                    iterations_used=iterations_total)


def fit_batch(target_sequences, skeleton: HandSkeleton,
              config: IkConfig = IkConfig(),
              alignment: SimilarityTransform | None = None,
              handedness: str = "right"):
    """Fit a landmark sequence frame by frame, warm-starting each frame from
    the previous frame's angles."""
    results = []
    warm = None
    for targets in target_sequences:
        result = fit_joint_angles(targets, skeleton, config, warm_start=warm,
                                  alignment=alignment, handedness=handedness)
        results.append(result)
        warm = result.angles
    return results
