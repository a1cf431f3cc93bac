"""22-DoF scalar-angle hand skeleton and forward kinematics.

The skeleton is a tree of bones rooted at the wrist. Each bone carries a rest
offset from its parent (mm) and a rotation axis; most bones are driven by one
of the 22 scalar joint angles (degrees), tip bones are rigid. Landmarks are
points attached to bones; the default skeleton exposes the 20 finger joints
(4 per finger: base, two inter-phalangeal joints, tip), wrist excluded.

Angle index layout (degrees everywhere):

====== ======== ======= ========
index  finger   joint   motion
====== ======== ======= ========
0      thumb    CMC     FE
1      thumb    CMC     AA
2      thumb    MCP     FE
3      thumb    IP      FE
4..7   index    MCP AA, MCP FE, PIP FE, DIP FE
8..11  middle   (same layout)
12..15 ring     (same layout)
16..19 pinky    (same layout)
20     wrist    FE
21     wrist    RU
====== ======== ======= ========

The default skeleton (`default_skeleton`, read from the packaged asset
``assets/default_hand.skel``, the only definition of the default hand) is a
right hand with literature-typical bone lengths. Fingers extend along +y and
the palm normal is +z; finger FE axes lie in the palm plane perpendicular to
each finger, AA axes follow the palm normal. Landmark local offsets are all
zero: landmarks sit at joint origins, with rigid tip bones supplying the
fingertip points.

Forward kinematics is one state function over an (N, 22) angle array
(`landmark_positions`); the single-pose `forward_kinematics` and
`landmark_jacobian` are its N = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from importlib import resources

import numpy as np
import yaml

from .errors import ConfigurationError, InvalidInputError

N_DOF = 22
N_LANDMARKS = 20
AA_INDICES = (1, 4, 8, 12, 16)
WRIST_FE = 20
WRIST_RU = 21

SKELETON_FORMAT = "handemg-skeleton/1"


def _read_only(values) -> np.ndarray:
    """A float copy of `values` that cannot be written to."""
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


def rodrigues(axis, angle_deg) -> np.ndarray:
    """Rotation matrices for rotations of `angle_deg` degrees about unit axes.

    Axes (..., 3) and angles broadcast against each other; the result is
    (..., 3, 3), a single (3, 3) matrix for one axis and one angle.
    """
    axis = np.asarray(axis, dtype=float)
    if axis.ndim == 0 or axis.shape[-1] != 3:
        raise InvalidInputError(f"axis must be a 3-vector, got shape {axis.shape}")
    norm = np.linalg.norm(axis, axis=-1)
    if not np.all(np.abs(norm - 1.0) <= 1e-6):
        raise InvalidInputError(f"axis must be unit-norm, |axis| = {norm!r}")
    theta = np.radians(angle_deg)
    x, y, z = axis[..., 0], axis[..., 1], axis[..., 2]
    zero = np.zeros_like(x)
    k = np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=-1)
    k = k.reshape(axis.shape[:-1] + (3, 3))
    sin = np.sin(theta)[..., None, None]
    versin = (1.0 - np.cos(theta))[..., None, None]
    return np.eye(3) + sin * k + versin * (k @ k)


@dataclass(frozen=True)
class JointAngles22:
    """One hand's 22 joint angles in degrees plus handedness."""

    values: np.ndarray
    handedness: str = "right"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (N_DOF,):
            raise InvalidInputError(f"expected {N_DOF} angles, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("joint angles must be finite")
        if self.handedness not in ("left", "right"):
            raise InvalidInputError(f"handedness must be 'left' or 'right', got {self.handedness!r}")
        object.__setattr__(self, "values", _read_only(values))


@dataclass(frozen=True)
class LandmarkSet:
    """20 wrist-relative 3D landmark positions in mm."""

    points: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        if points.shape != (N_LANDMARKS, 3):
            raise InvalidInputError(f"expected ({N_LANDMARKS}, 3) points, got {points.shape}")
        object.__setattr__(self, "points", _read_only(points))


@dataclass(frozen=True)
class Bone:
    """One segment of the kinematic tree.

    parent: index of the parent bone, -1 for the root.
    offset: rest translation from the parent joint, mm.
    axis: unit rotation axis in the bone's local frame.
    dof: driving angle index in 0..21, or None for rigid (tip) bones.
    name: stable identifier used by config files.
    """

    parent: int
    offset: np.ndarray
    axis: np.ndarray
    dof: int | None
    name: str

    def __post_init__(self):
        object.__setattr__(self, "offset", _read_only(self.offset))
        object.__setattr__(self, "axis", _read_only(self.axis))


@dataclass(frozen=True)
class HandSkeleton:
    """Kinematic chain definition: bones, per-DoF limits, landmark attachment.

    Its arrays are read-only copies, so one instance can be shared.
    """

    bones: tuple
    limits: np.ndarray          # (22, 2) degrees, [a_min, a_max) rows
    landmark_map: tuple         # 20 entries of (bone_index, local_offset)
    fingertip_indices: tuple    # 5 landmark indices

    def __post_init__(self):
        limits = _read_only(self.limits)
        if limits.shape != (N_DOF, 2):
            raise ConfigurationError(f"limits must have shape ({N_DOF}, 2), got {limits.shape}")
        if not np.all(limits[:, 0] < limits[:, 1]):
            raise ConfigurationError("every DoF requires a_min < a_max")
        object.__setattr__(self, "limits", limits)
        object.__setattr__(self, "landmark_map", tuple(
            (bone, _read_only(offset)) for bone, offset in self.landmark_map))
        seen_dofs = set()
        for i, bone in enumerate(self.bones):
            if not (-1 <= bone.parent < i):
                raise ConfigurationError(
                    f"bone {i} ({bone.name}): parent {bone.parent} must precede it (tree order)")
            if abs(np.linalg.norm(bone.axis) - 1.0) > 1e-9:
                raise ConfigurationError(f"bone {i} ({bone.name}): rotation axis must be unit-norm")
            if bone.dof is not None:
                if not 0 <= bone.dof < N_DOF:
                    raise ConfigurationError(f"bone {i}: dof index {bone.dof} out of range")
                if bone.dof in seen_dofs:
                    raise ConfigurationError(f"dof {bone.dof} driven by more than one bone")
                seen_dofs.add(bone.dof)
        if len(seen_dofs) != N_DOF:
            raise ConfigurationError(f"skeleton drives {len(seen_dofs)} DoFs, expected {N_DOF}")
        if sum(b.parent == -1 for b in self.bones) != 1:
            raise ConfigurationError("bone graph must be a tree with a single wrist root")
        if len(self.landmark_map) != N_LANDMARKS:
            raise ConfigurationError(f"landmark_map must define {N_LANDMARKS} landmarks")
        if len(self.fingertip_indices) != 5:
            raise ConfigurationError("fingertip_indices must list 5 landmarks")

    @cached_property
    def landmark_dof_mask(self) -> np.ndarray:
        """(20, 22) boolean: landmark i moves when DoF j changes."""
        mask = np.zeros((N_LANDMARKS, N_DOF), dtype=bool)
        for li, (j, _offset) in enumerate(self.landmark_map):
            while j >= 0:       # the landmark's bone and its ancestors
                if self.bones[j].dof is not None:
                    mask[li, self.bones[j].dof] = True
                j = self.bones[j].parent
        mask.flags.writeable = False
        return mask

    @cached_property
    def wrist_rigid_rest(self):
        """Landmarks that move with the wrist but with no finger DoF, and their
        positions (K, 3) in the mid-range pose with both wrist angles at 0.

        Rigidity is read from the Jacobian at the mid-range pose. IK aligns
        these rest positions to its targets to estimate the wrist angles.
        """
        mid = self.limits.mean(axis=1)
        _, jac = landmark_jacobian(self, JointAngles22(mid))
        rigid = np.flatnonzero(np.abs(jac[:, :, :WRIST_FE]).max(axis=(1, 2)) < 1e-12)
        rigid.flags.writeable = False
        rest_angles = mid.copy()
        rest_angles[WRIST_FE] = 0.0
        rest_angles[WRIST_RU] = 0.0
        rest = forward_kinematics(self, JointAngles22(rest_angles)).points[rigid]
        return rigid, _read_only(rest)

    @cached_property
    def _fk_tables(self):
        """Bone axes (B, 3), each bone's angle column (-1 for rigid bones),
        and each landmark's bone index and local offset (20, 3)."""
        axes = np.array([b.axis for b in self.bones])
        columns = np.array([-1 if b.dof is None else b.dof for b in self.bones])
        landmark_bones = np.array([bi for bi, _ in self.landmark_map])
        landmark_offsets = np.array([off for _, off in self.landmark_map], dtype=float)
        return axes, columns, landmark_bones, landmark_offsets


def _fk_state(skeleton: HandSkeleton, values: np.ndarray):
    """Bone world origins and rotations, and per-DoF world axes and origins.

    `values` is an (N, 22) angle array. Origins (N, B + 1, 3) and rotations
    (N, B + 1, 3, 3) end in an identity "world" slot, which the root reads
    as its parent (index -1). Rigid bones read a fixed 0 degrees, whose
    rotation is exactly the identity.
    """
    axes, columns, _, _ = skeleton._fk_tables
    n, n_bones = len(values), len(skeleton.bones)
    padded = np.concatenate([values, np.zeros((n, 1))], axis=1)   # column -1: 0 deg
    local = rodrigues(axes, padded[:, columns])                 # (N, B, 3, 3)
    origins = np.zeros((n, n_bones + 1, 3))
    rotations = np.zeros((n, n_bones + 1, 3, 3))
    rotations[:, -1] = np.eye(3)
    dof_axes = np.zeros((n, N_DOF, 3))
    dof_origins = np.zeros((n, N_DOF, 3))
    for i, bone in enumerate(skeleton.bones):
        parent_r = rotations[:, bone.parent]
        origins[:, i] = origins[:, bone.parent] + parent_r @ bone.offset
        rotations[:, i] = parent_r @ local[:, i]
        if bone.dof is not None:
            dof_axes[:, bone.dof] = parent_r @ bone.axis
            dof_origins[:, bone.dof] = origins[:, i]
    return origins, rotations, dof_axes, dof_origins


def _landmark_points(skeleton: HandSkeleton, origins, rotations) -> np.ndarray:
    _, _, bones, offsets = skeleton._fk_tables
    return origins[:, bones] + (rotations[:, bones] @ offsets[:, :, None])[..., 0]


def landmark_positions(skeleton: HandSkeleton, angles) -> np.ndarray:
    """Landmark positions (N, 20, 3), mm and wrist-relative, for an (N, 22)
    array of joint angles in degrees."""
    values = np.asarray(angles, dtype=float)
    if values.ndim != 2 or values.shape[1] != N_DOF:
        raise InvalidInputError(f"expected (N, {N_DOF}) angles, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise InvalidInputError("joint angles must be finite")
    origins, rotations, _, _ = _fk_state(skeleton, values)
    return _landmark_points(skeleton, origins, rotations)


def forward_kinematics(skeleton: HandSkeleton, angles: JointAngles22) -> LandmarkSet:
    """Landmark positions (mm, wrist-relative) for the given joint angles."""
    return LandmarkSet(landmark_positions(skeleton, angles.values[None])[0])


def landmark_jacobian(skeleton: HandSkeleton, angles: JointAngles22):
    """Analytic FK Jacobian.

    Returns (points, jac) with points (20, 3) mm and jac (20, 3, 22) in
    mm per degree: jac[i, :, j] = d points[i] / d angles[j].
    """
    origins, rotations, dof_axes, dof_origins = _fk_state(skeleton, angles.values[None])
    points = _landmark_points(skeleton, origins, rotations)[0]
    # revolute-joint rule: dp/dtheta = axis x (p - joint_origin), per radian
    rel = points[:, None, :] - dof_origins[0][None, :, :]       # (20, 22, 3)
    jac = np.cross(np.broadcast_to(dof_axes[0], rel.shape), rel)  # (20, 22, 3)
    jac = jac * skeleton.landmark_dof_mask[:, :, None]
    return points, np.swapaxes(jac, 1, 2) * (np.pi / 180.0)


def mirror_pose(angles: JointAngles22) -> JointAngles22:
    """Mirror a pose to the opposite hand.

    FE angles are shared between hands; AA angles and wrist radial/ulnar
    deviation flip sign under the anatomical mirror.
    """
    values = angles.values.copy()
    for i in AA_INDICES:
        values[i] = -values[i]
    values[WRIST_RU] = -values[WRIST_RU]
    other = "left" if angles.handedness == "right" else "right"
    return JointAngles22(values, handedness=other)


def clamp_to_limits(angles: JointAngles22, skeleton: HandSkeleton) -> JointAngles22:
    """Clamp every angle into its [a_min, a_max] interval."""
    clamped = np.clip(angles.values, skeleton.limits[:, 0], skeleton.limits[:, 1])
    return JointAngles22(clamped, handedness=angles.handedness)


# ---------------------------------------------------------------------------
# skeleton config-file persistence


def save_skeleton(skeleton: HandSkeleton, path) -> None:
    """Write a skeleton config file (versioned YAML key/value tree)."""
    doc = {
        "format": SKELETON_FORMAT,
        "bones": [
            {
                "name": b.name,
                "parent": int(b.parent),
                "offset": [float(x) for x in b.offset],
                "axis": [float(x) for x in b.axis],
                "dof": None if b.dof is None else int(b.dof),
            }
            for b in skeleton.bones
        ],
        "limits": [[float(lo), float(hi)] for lo, hi in skeleton.limits],
        "landmark_map": [
            {"bone": int(bi), "offset": [float(x) for x in off]}
            for bi, off in skeleton.landmark_map
        ],
        "fingertip_indices": [int(i) for i in skeleton.fingertip_indices],
    }
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


def load_skeleton(path) -> HandSkeleton:
    """Read a skeleton config file written by `save_skeleton`."""
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict) or doc.get("format") != SKELETON_FORMAT:
        raise ConfigurationError(f"unsupported skeleton file format: {doc.get('format')!r}"
                                 if isinstance(doc, dict) else "not a skeleton config file")
    bones = tuple(
        Bone(parent=int(b["parent"]), offset=b["offset"], axis=b["axis"],
             dof=None if b["dof"] is None else int(b["dof"]), name=str(b["name"]))
        for b in doc["bones"]
    )
    landmark_map = tuple((int(e["bone"]), np.asarray(e["offset"], float))
                         for e in doc["landmark_map"])
    return HandSkeleton(bones=bones, limits=np.asarray(doc["limits"], float),
                        landmark_map=landmark_map,
                        fingertip_indices=tuple(int(i) for i in doc["fingertip_indices"]))


@cache
def default_skeleton() -> HandSkeleton:
    """The packaged default right-hand skeleton (assets/default_hand.skel).

    Parsed once per process; every call returns the same read-only instance.
    """
    ref = resources.files("handemg").joinpath("assets/default_hand.skel")
    with resources.as_file(ref) as path:
        return load_skeleton(path)
