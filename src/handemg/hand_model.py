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
(`landmark_positions`, and `landmark_jacobians` with the analytic
Jacobian); the single-pose `forward_kinematics` is the N = 1 case of
`landmark_positions`. It composes the tree one depth
level per step, all bones of a level at once: 7 steps for the default hand
(the two wrist bones, then one bone per finger at each of levels 2-6). Each
skeleton builds its tables once (`HandSkeleton._fk_tables`): the bones in
level order, each level's parent slots, and each joint axis's skew matrix K
with K @ K, so a local rotation is I + sin(a) K + (1 - cos(a)) K^2. The
tables also hold the (landmark, DoF) pairs of `landmark_dof_mask`: the
Jacobian is evaluated only at those pairs (100 of 440 for the default hand)
and is zero elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from importlib import resources
from typing import NamedTuple

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


def _skew(axis: np.ndarray) -> np.ndarray:
    """Cross-product matrices K (..., 3, 3) of axes (..., 3): K @ v = axis x v."""
    x, y, z = axis[..., 0], axis[..., 1], axis[..., 2]
    zero = np.zeros_like(x)
    k = np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=-1)
    return k.reshape(axis.shape[:-1] + (3, 3))


def _axis_angle(k: np.ndarray, kk: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Rodrigues' formula I + sin(theta) K + (1 - cos(theta)) K^2, for skew
    matrices `k`, their squares `kk` and angles `theta` in radians."""
    sin = np.sin(theta)[..., None, None]
    versin = (1.0 - np.cos(theta))[..., None, None]
    return np.eye(3) + sin * k + versin * kk


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
    k = _skew(axis)
    return _axis_angle(k, k @ k, np.radians(angle_deg))


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
        if not np.all(np.isfinite(points)):
            raise InvalidInputError("landmark points must be finite")
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


def _parent_slots(slots: list):
    """A level's parent slots as a slice where they are contiguous or shared
    (a one-slot slice broadcasts), else as an index array."""
    first = slots[0]
    if slots == [first] * len(slots):
        return slice(first, first + 1)
    if slots == list(range(first, first + len(slots))):
        return slice(first, first + len(slots))
    return np.array(slots)


class _FkTables(NamedTuple):
    """A skeleton's bones in level order, one slot each, with slot B the
    identity "world" frame that the root reads as its parent.

    levels: per depth level, its slots (a slice), its parents' slots and its
        rest offsets (k, 3, 1).
    columns: each slot's angle column, N_DOF for rigid bones (a fixed 0 deg).
    skew, skew_sq: each slot's axis as a cross-product matrix K, and K @ K.
    dof_slots, dof_parent_slots: the slot of the bone each DoF drives, and of
        that bone's parent.
    dof_axes: each DoF's rotation axis (22, 3, 1) in its bone's frame.
    landmark_slots, landmark_offsets: each landmark's slot and local offset
        (20, 3, 1).
    jac_landmarks, jac_dofs: the (landmark, DoF) pairs of `landmark_dof_mask`,
        the only Jacobian entries that can be nonzero (100 of 440 for the
        default hand).
    jac_index: each pair's x, y, z entries (P, 3) in a flattened
        (20, 3, 22) Jacobian.
    """

    levels: tuple
    columns: np.ndarray
    skew: np.ndarray
    skew_sq: np.ndarray
    dof_slots: np.ndarray
    dof_parent_slots: np.ndarray
    dof_axes: np.ndarray
    landmark_slots: np.ndarray
    landmark_offsets: np.ndarray
    jac_landmarks: np.ndarray
    jac_dofs: np.ndarray
    jac_index: np.ndarray


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
        _, jac = landmark_jacobians(self, mid[None])
        rigid = np.flatnonzero(np.abs(jac[0, :, :, :WRIST_FE]).max(axis=(1, 2)) < 1e-12)
        rigid.flags.writeable = False
        rest_angles = mid.copy()
        rest_angles[WRIST_FE] = 0.0
        rest_angles[WRIST_RU] = 0.0
        rest = landmark_positions(self, rest_angles[None])[0, rigid]
        return rigid, _read_only(rest)

    @cached_property
    def _fk_tables(self) -> _FkTables:
        """The bones in level order and what FK reads per level, built once."""
        depth = []
        for bone in self.bones:     # tree order: a parent's depth is known
            depth.append(0 if bone.parent < 0 else depth[bone.parent] + 1)
        order = sorted(range(len(self.bones)), key=depth.__getitem__)
        slot = {bone: i for i, bone in enumerate(order)}
        slot[-1] = len(order)       # parent -1 reads the world slot
        ordered = [self.bones[i] for i in order]
        parents = [slot[b.parent] for b in ordered]
        levels, start = [], 0
        for level in range(max(depth) + 1):
            stop = start + depth.count(level)
            offsets = np.array([b.offset for b in ordered[start:stop]])[:, :, None]
            levels.append((slice(start, stop), _parent_slots(parents[start:stop]), offsets))
            start = stop
        columns = [N_DOF if b.dof is None else b.dof for b in ordered]
        dof_slots = np.array([columns.index(dof) for dof in range(N_DOF)])
        skew = _skew(np.array([b.axis for b in ordered]))
        jac_landmarks, jac_dofs = np.nonzero(self.landmark_dof_mask)
        return _FkTables(
            levels=tuple(levels),
            columns=np.array(columns),
            skew=skew,
            skew_sq=skew @ skew,
            dof_slots=dof_slots,
            dof_parent_slots=np.array(parents)[dof_slots],
            dof_axes=np.array([ordered[i].axis for i in dof_slots])[:, :, None],
            landmark_slots=np.array([slot[bi] for bi, _ in self.landmark_map]),
            landmark_offsets=np.array([off for _, off in self.landmark_map])[:, :, None],
            jac_landmarks=jac_landmarks,
            jac_dofs=jac_dofs,
            jac_index=(jac_landmarks[:, None] * 3 + np.arange(3)) * N_DOF + jac_dofs[:, None],
        )


def _fk_state(skeleton: HandSkeleton, values: np.ndarray):
    """Bone world origins and rotations, and per-DoF world axes and origins.

    `values` is an (N, 22) angle array. Origins (N, B + 1, 3) and rotations
    (N, B + 1, 3, 3) are indexed by level-order slot and end in the identity
    "world" slot. The tree is composed one depth level per step: every bone
    of a level reads its parent from the level above. Rigid bones read a
    fixed 0 degrees, whose rotation is exactly the identity.
    """
    tables = skeleton._fk_tables
    n, n_bones = len(values), len(tables.columns)
    padded = np.concatenate([values, np.zeros((n, 1))], axis=1)   # column N_DOF: 0 deg
    local = _axis_angle(tables.skew, tables.skew_sq,
                        np.radians(padded[:, tables.columns]))     # (N, B, 3, 3)
    origins = np.zeros((n, n_bones + 1, 3))
    rotations = np.zeros((n, n_bones + 1, 3, 3))
    rotations[:, -1] = np.eye(3)
    for slots, parents, offsets in tables.levels:
        parent_r = rotations[:, parents]
        origins[:, slots] = origins[:, parents] + (parent_r @ offsets)[..., 0]
        rotations[:, slots] = parent_r @ local[:, slots]
    dof_axes = (rotations[:, tables.dof_parent_slots] @ tables.dof_axes)[..., 0]
    return origins, rotations, dof_axes, origins[:, tables.dof_slots]


def _landmark_points(skeleton: HandSkeleton, origins, rotations) -> np.ndarray:
    tables = skeleton._fk_tables
    slots = tables.landmark_slots
    return origins[:, slots] + (rotations[:, slots] @ tables.landmark_offsets)[..., 0]


def _angle_rows(angles) -> np.ndarray:
    """`angles` as a finite (N, 22) float array."""
    values = np.asarray(angles, dtype=float)
    if values.ndim != 2 or values.shape[1] != N_DOF:
        raise InvalidInputError(f"expected (N, {N_DOF}) angles, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise InvalidInputError("joint angles must be finite")
    return values


def landmark_positions(skeleton: HandSkeleton, angles) -> np.ndarray:
    """Landmark positions (N, 20, 3), mm and wrist-relative, for an (N, 22)
    array of joint angles in degrees."""
    origins, rotations, _, _ = _fk_state(skeleton, _angle_rows(angles))
    return _landmark_points(skeleton, origins, rotations)


def forward_kinematics(skeleton: HandSkeleton, angles: JointAngles22) -> LandmarkSet:
    """Landmark positions (mm, wrist-relative) for the given joint angles."""
    return LandmarkSet(landmark_positions(skeleton, angles.values[None])[0])


def landmark_jacobians(skeleton: HandSkeleton, angles):
    """Landmarks and analytic FK Jacobians for an (N, 22) array of joint
    angles in degrees.

    Returns (points, jac) with points (N, 20, 3) mm and jac (N, 20, 3, 22) in
    mm per degree: jac[n, i, :, j] = d points[n, i] / d angles[n, j].
    """
    origins, rotations, dof_axes, dof_origins = _fk_state(skeleton, _angle_rows(angles))
    points = _landmark_points(skeleton, origins, rotations)
    tables = skeleton._fk_tables
    # revolute-joint rule: dp/dtheta = axis x (p - joint_origin), per radian,
    # at the (landmark, DoF) pairs where the landmark moves with the DoF
    r = points[:, tables.jac_landmarks] - dof_origins[:, tables.jac_dofs]     # (N, P, 3)
    a = dof_axes[:, tables.jac_dofs]
    cross = np.empty_like(r)
    cross[..., 0] = a[..., 1] * r[..., 2] - a[..., 2] * r[..., 1]
    cross[..., 1] = a[..., 2] * r[..., 0] - a[..., 0] * r[..., 2]
    cross[..., 2] = a[..., 0] * r[..., 1] - a[..., 1] * r[..., 0]
    cross *= np.pi / 180.0
    n = len(points)
    jac = np.zeros((n, N_LANDMARKS * 3 * N_DOF))
    jac[:, tables.jac_index] = cross
    return points, jac.reshape(n, N_LANDMARKS, 3, N_DOF)


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
