"""Episode persistence, windowing, splits, and synthetic episodes.

An episode bundles one recording: bilateral 16-channel EMG at 2 kHz with
host-clock timestamps, per-hand 22-DoF pose streams at 120 Hz, an optional
marker stream, and an optional camera calibration.

Files use the "EGL1" container: the 4 magic bytes, a u32 little-endian
length, a JSON manifest (block table of name/kind/dtype/shape/offset/crc32
plus scalar metadata), then raw little-endian payload blocks. Unknown block
kinds are skipped with a warning so future writers stay readable. The full
byte-level layout lives in docs/FORMAT.md.
"""

from __future__ import annotations

import json
import math
import struct
import warnings
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .emg_dsp import DEFAULT_SAMPLE_RATE, EmgWindow
from .errors import DataFormatError, InvalidInputError
from .graph_features import N_MARKERS
from .hand_model import N_DOF
from .model_core import FRAME_STRIDE, MIN_INPUT_SAMPLES, featurizer_lengths
from .occlusion import PinholeCamera

WINDOW_SAMPLES = 7790
POSE_RATE_HZ = 120.0
MAGIC = b"EGL1"

_SINGLE_HAND = tuple(f"ASL{i}" for i in range(1, 10)) + (
    "Claw3", "Claw5", "FreeAction", "ILY", "IndexBow", "IndexMiddleClaw",
    "JoystickCircle", "JoystickSlide", "MiddleBow", "Nine", "PalmYaw",
    "PinchMiddle", "PinkyBow", "Rest", "RingAndThumb", "RingBow", "Rock",
    "Thumb", "nocontact_disperse_palm", "nocontact_free", "nocontact_grab")
_SYM_BIMANUAL = (
    "Clap", "CrossHand", "CrossStretch", "FingerTipTouch", "FistBump",
    "Gaming", "HandClasp", "HandRub", "IndexTapping", "Kiss", "PalmStack",
    "Prayer", "MiddleOppo", "SymOpen", "SymSwing", "ThumbWrestle", "Typing",
    "raw")
_ASYM_BIMANUAL = (
    "FingerPullLeft", "FingerPullRight", "PalmRoll", "PinkyHook", "Squeeze",
    "Beijing", "Checky", "PairClaw", "PairOK", "Picture", "PinchWring",
    "ThumbOppo")
GESTURE_VOCABULARY = _SINGLE_HAND + _SYM_BIMANUAL + _ASYM_BIMANUAL
assert len(GESTURE_VOCABULARY) == 60

# full-roster held-out counts; scaled proportionally for smaller rosters
_HELD_GESTURES_FULL, _N_GESTURES_FULL = 10, 60
_HELD_USERS_FULL, _N_USERS_FULL = 6, 41


def _check_increasing(name, t):
    if t.ndim != 1 or (len(t) > 1 and np.any(np.diff(t) <= 0)):
        raise InvalidInputError(f"{name} timestamps must be strictly increasing")


@dataclass(frozen=True)
class Episode:
    participant_id: int
    gesture_label: str
    emg: EmgWindow
    emg_timestamps_ms: np.ndarray
    pose_timestamps_ms: np.ndarray
    pose_left: np.ndarray              # (P, 22) degrees
    pose_right: np.ndarray             # (P, 22) degrees
    markers: np.ndarray | None = None  # (M, 21, 3) mm
    marker_timestamps_ms: np.ndarray | None = None
    calibration: PinholeCamera | None = None

    def __post_init__(self):
        if self.gesture_label not in GESTURE_VOCABULARY:
            raise InvalidInputError(f"unknown gesture label {self.gesture_label!r}")
        emg_t = np.asarray(self.emg_timestamps_ms, dtype=float)
        pose_t = np.asarray(self.pose_timestamps_ms, dtype=float)
        _check_increasing("emg", emg_t)
        _check_increasing("pose", pose_t)
        if len(emg_t) != self.emg.n_samples:
            raise InvalidInputError("EMG timestamps must match the sample count")
        left = np.asarray(self.pose_left, dtype=float)
        right = np.asarray(self.pose_right, dtype=float)
        for name, pose in (("pose_left", left), ("pose_right", right)):
            if pose.shape != (len(pose_t), N_DOF):
                raise InvalidInputError(f"{name} must be (n_pose_frames, {N_DOF})")
        if (self.markers is None) != (self.marker_timestamps_ms is None):
            raise InvalidInputError("markers and marker timestamps go together")
        if self.markers is not None:
            mk = np.asarray(self.markers, dtype=float)
            mk_t = np.asarray(self.marker_timestamps_ms, dtype=float)
            _check_increasing("marker", mk_t)
            if mk.shape != (len(mk_t), N_MARKERS, 3):
                raise InvalidInputError("markers must be (M, 21, 3)")
            object.__setattr__(self, "markers", mk)
            object.__setattr__(self, "marker_timestamps_ms", mk_t)
        object.__setattr__(self, "emg_timestamps_ms", emg_t)
        object.__setattr__(self, "pose_timestamps_ms", pose_t)
        object.__setattr__(self, "pose_left", left)
        object.__setattr__(self, "pose_right", right)


def resample_to_timeline(timestamps: np.ndarray, values: np.ndarray,
                         target_timestamps: np.ndarray) -> np.ndarray:
    """Per-channel linear interpolation onto the target timeline."""
    timestamps = np.asarray(timestamps, dtype=float)
    values = np.asarray(values, dtype=float)
    target = np.asarray(target_timestamps, dtype=float)
    if target.min() < timestamps[0] or target.max() > timestamps[-1]:
        raise InvalidInputError(
            f"target timeline [{target.min()}, {target.max()}] extends beyond the "
            f"source range [{timestamps[0]}, {timestamps[-1]}]")
    flat = values.reshape(len(timestamps), -1)
    out = np.stack([np.interp(target, timestamps, flat[:, j])
                    for j in range(flat.shape[1])], axis=1)
    return out.reshape((len(target),) + values.shape[1:])


@dataclass(frozen=True)
class WindowSample:
    """One training/eval window with pose targets on the feature timeline."""

    emg: EmgWindow
    offset: int
    center_index: int                  # sample index within the window
    frame_timestamps_ms: np.ndarray    # (F,)
    pose_frames_left: np.ndarray       # (F, 22)
    pose_frames_right: np.ndarray
    center_pose_left: np.ndarray       # (22,)
    center_pose_right: np.ndarray


def feature_frame_indices(length: int) -> np.ndarray:
    """EMG sample index at the receptive-field center of each feature frame."""
    n_frames = featurizer_lengths(length)[-1]
    half_field = (MIN_INPUT_SAMPLES - 1) // 2
    return np.arange(n_frames) * FRAME_STRIDE + half_field


def extract_windows(episode: Episode, length: int = WINDOW_SAMPLES,
                    stride: int | None = None):
    """Windows at offsets 0, stride, ...; pose resampled to feature frames."""
    if stride is None:
        stride = length
    if length < MIN_INPUT_SAMPLES or stride < 1:
        raise InvalidInputError("window length/stride out of range")
    total = episode.emg.n_samples
    if total < length:
        warnings.warn(f"episode of {total} samples is shorter than the "
                      f"{length}-sample window; no windows extracted")
        return []
    center = length // 2
    sample_idx = np.append(feature_frame_indices(length), center)   # frames, then centre
    poses = np.stack([episode.pose_left, episode.pose_right], axis=1)   # (P, 2, 22)
    windows = []
    for offset in range(0, total - length + 1, stride):
        times = episode.emg_timestamps_ms[offset + sample_idx]
        at = resample_to_timeline(episode.pose_timestamps_ms, poses, times)
        windows.append(WindowSample(
            emg=replace(episode.emg, samples=episode.emg.samples[offset:offset + length]),
            offset=offset, center_index=center, frame_timestamps_ms=times[:-1],
            pose_frames_left=at[:-1, 0], pose_frames_right=at[:-1, 1],
            center_pose_left=at[-1, 0], center_pose_right=at[-1, 1]))
    return windows


# ---------------------------------------------------------------------------
# splits


@dataclass(frozen=True)
class SplitAssignment:
    """Held-out sets plus their seeded val/test halves."""

    seed: int
    held_out_gestures: tuple
    held_out_users: tuple
    val_gestures: tuple
    test_gestures: tuple
    val_users: tuple
    test_users: tuple

    def tag(self, participant_id, gesture_label) -> str:
        gesture_held = gesture_label in self.held_out_gestures
        user_held = participant_id in self.held_out_users
        if gesture_held and user_held:
            # both held out: val only when both land in the val halves
            if gesture_label in self.val_gestures and participant_id in self.val_users:
                return "val_both"
            return "test_both"
        if gesture_held:
            return "val_gesture" if gesture_label in self.val_gestures else "test_gesture"
        if user_held:
            return "val_user" if participant_id in self.val_users else "test_user"
        return "train"


def generate_splits(participants, gestures, seed: int) -> SplitAssignment:
    """Hold out gestures and users (10/60 and 6/41, scaled for small rosters)."""
    participants = list(participants)
    gestures = list(gestures)
    if len(participants) < 7:
        raise InvalidInputError("need at least 7 participants to split")
    if len(gestures) < 11:
        raise InvalidInputError("need at least 11 gestures to split")
    if len(set(participants)) != len(participants) or len(set(gestures)) != len(gestures):
        raise InvalidInputError("participants and gestures must be unique")
    n_hold_g = max(1, round(_HELD_GESTURES_FULL * len(gestures) / _N_GESTURES_FULL))
    n_hold_u = max(1, round(_HELD_USERS_FULL * len(participants) / _N_USERS_FULL))
    rng = np.random.default_rng(seed)
    held_g = [gestures[i] for i in rng.choice(len(gestures), n_hold_g, replace=False)]
    held_u = [participants[i] for i in rng.choice(len(participants), n_hold_u,
                                                  replace=False)]
    val_g = held_g[:len(held_g) // 2] or held_g[:1]
    val_u = held_u[:len(held_u) // 2] or held_u[:1]
    return SplitAssignment(
        seed=seed,
        held_out_gestures=tuple(held_g), held_out_users=tuple(held_u),
        val_gestures=tuple(val_g),
        test_gestures=tuple(g for g in held_g if g not in val_g),
        val_users=tuple(val_u),
        test_users=tuple(u for u in held_u if u not in val_u))


# ---------------------------------------------------------------------------
# synthetic episodes


def _band_limited(rng, n_frames: int, rate_hz: float, max_freq_hz: float = 2.0,
                  n_components: int = 4) -> np.ndarray:
    """Smooth signal in [-1, 1]: normalized sum of low-frequency sinusoids."""
    t = np.arange(n_frames) / rate_hz
    amps = rng.uniform(0.3, 1.0, n_components)
    freqs = rng.uniform(0.1, max_freq_hz, n_components)
    phases = rng.uniform(0.0, 2 * np.pi, n_components)
    signal = sum(a * np.sin(2 * np.pi * f * t + p)
                 for a, f, p in zip(amps, freqs, phases))
    return signal / amps.sum()


def synth_episode(seed: int, duration_s: float,
                  gesture_label: str = "Rest",
                  participant_id: int = 0) -> Episode:
    """Deterministic synthetic episode with EMG/pose structure to recover.

    Pose DoFs are band-limited trajectories inside the default joint limits.
    EMG is broadband noise whose per-channel envelope is a fixed linear
    function of the summed joint speeds, plus 50 Hz line interference, so
    filtering and featurizing have something real to find.
    """
    from .hand_model import default_skeleton  # deferred: heavy asset load

    if duration_s < 4.0:
        raise InvalidInputError("duration must be at least 4 s")
    rng = np.random.default_rng(seed)
    limits = default_skeleton().limits
    lo, hi = limits[:, 0], limits[:, 1]
    n_pose = int(round(duration_s * POSE_RATE_HZ))
    pose_t = np.arange(n_pose) * (1000.0 / POSE_RATE_HZ)
    poses = {}
    for hand in ("left", "right"):
        traj = np.empty((n_pose, N_DOF))
        for j in range(N_DOF):
            mid, amp = 0.5 * (lo[j] + hi[j]), 0.45 * (hi[j] - lo[j])
            traj[:, j] = mid + amp * _band_limited(rng, n_pose, POSE_RATE_HZ)
        poses[hand] = np.clip(traj, lo, hi)

    n_emg = int(round(duration_s * DEFAULT_SAMPLE_RATE))
    emg_t = np.arange(n_emg) * (1000.0 / DEFAULT_SAMPLE_RATE)
    speed = np.abs(np.gradient(poses["left"], axis=0)).sum(axis=1) \
        + np.abs(np.gradient(poses["right"], axis=0)).sum(axis=1)
    speed_2k = np.interp(emg_t, pose_t, speed)
    # fixed (seed-independent) linear map from summed joint speed to envelope
    gains = 0.05 + 0.1 * ((np.arange(16) * 7) % 11) / 10.0
    envelope = 0.2 + gains[None, :] * speed_2k[:, None]
    carrier = rng.standard_normal((n_emg, 16))
    line_hum = 0.5 * np.sin(2 * np.pi * 50.0 * emg_t / 1000.0)
    samples = envelope * carrier + line_hum[:, None]
    return Episode(
        participant_id=participant_id, gesture_label=gesture_label,
        emg=EmgWindow(samples=samples), emg_timestamps_ms=emg_t,
        pose_timestamps_ms=pose_t,
        pose_left=poses["left"], pose_right=poses["right"])


# ---------------------------------------------------------------------------
# EGL1 container


_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}
_BLOCK_FIELDS = ("name", "dtype", "shape", "offset", "crc32")


def _is_count(value) -> bool:
    """A non-negative JSON integer; a bool does not count."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def write_blocks(path, meta: dict, arrays: dict) -> None:
    """Write named arrays plus JSON metadata in the EGL1 layout."""
    blocks, buffers, offset = [], [], 0
    for name, arr in arrays.items():
        code = "<i8" if np.issubdtype(np.asarray(arr).dtype, np.integer) else "<f8"
        buf = np.ascontiguousarray(arr, dtype=_DTYPES[code])
        blocks.append({"name": name, "kind": "array", "dtype": code,
                       "shape": list(buf.shape), "offset": offset,
                       "crc32": zlib.crc32(buf)})
        buffers.append(buf)
        offset += buf.nbytes
    manifest = json.dumps({"format": "EGL1", "version": 1, "meta": meta,
                           "blocks": blocks}).encode()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(manifest)))
        f.write(manifest)
        for buf in buffers:
            f.write(buf)


def read_blocks(path):
    """Read an EGL1 file; returns (meta, arrays). Unknown kinds are skipped."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != MAGIC:
        raise DataFormatError("bad-magic", f"{path} does not start with {MAGIC!r}")
    if len(data) < 8:
        raise DataFormatError("truncated", "file ends inside the header")
    (manifest_len,) = struct.unpack("<I", data[4:8])
    manifest_end = 8 + manifest_len
    if len(data) < manifest_end:
        raise DataFormatError("truncated", "file ends inside the manifest")
    try:
        manifest = json.loads(data[8:manifest_end].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError("bad-manifest", str(exc)) from exc
    if not isinstance(manifest, dict):
        raise DataFormatError("bad-manifest", "manifest is not a JSON object")
    if manifest.get("format") != "EGL1":
        raise DataFormatError("bad-manifest", "missing or wrong format field")
    meta, blocks = manifest.get("meta"), manifest.get("blocks")
    if not isinstance(meta, dict):
        raise DataFormatError("bad-manifest", "missing or non-object meta field")
    if not isinstance(blocks, list) or not all(isinstance(b, dict) for b in blocks):
        raise DataFormatError("bad-manifest", "blocks must be a list of objects")
    arrays = {}
    payload = memoryview(data)[manifest_end:]   # block slices share the file's bytes
    for block in blocks:
        if block.get("kind") != "array":
            warnings.warn(f"skipping unknown block kind {block.get('kind')!r} "
                          f"({block.get('name')})")
            continue
        missing = [key for key in _BLOCK_FIELDS if key not in block]
        if missing:
            raise DataFormatError("bad-manifest", f"block {block.get('name')!r} "
                                  f"lacks {', '.join(missing)}")
        name, shape = block["name"], block["shape"]
        if not (isinstance(name, str) and isinstance(block["dtype"], str)):
            raise DataFormatError("bad-manifest", f"block {name!r}: name and dtype "
                                  f"must be strings")
        if name in arrays:
            raise DataFormatError("bad-manifest", f"two blocks are named {name!r}")
        if not (isinstance(shape, list) and all(_is_count(d) for d in shape)):
            raise DataFormatError("bad-manifest", f"block {name}: shape must be a "
                                  f"list of non-negative integers")
        if not (_is_count(block["offset"]) and _is_count(block["crc32"])):
            raise DataFormatError("bad-manifest", f"block {name}: offset and crc32 "
                                  f"must be non-negative integers")
        dtype = _DTYPES.get(block["dtype"])
        if dtype is None:
            raise DataFormatError("bad-manifest", f"unknown dtype {block['dtype']}")
        start = block["offset"]
        end = start + math.prod(shape) * dtype.itemsize
        if end > len(payload):
            raise DataFormatError("truncated", f"block {name} ends at "
                                  f"{end} but payload has {len(payload)} bytes")
        raw = payload[start:end]
        if zlib.crc32(raw) != block["crc32"]:
            raise DataFormatError("checksum", f"block {name} is corrupt")
        arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape)
    return meta, arrays


def write_episode(episode: Episode, path) -> None:
    meta = {"type": "episode",
            "participant_id": episode.participant_id,
            "gesture_label": episode.gesture_label,
            "sample_rate": episode.emg.sample_rate,
            "emg_kind": episode.emg.kind}
    arrays = {"emg_samples": episode.emg.samples,
              "emg_timestamps_ms": episode.emg_timestamps_ms,
              "pose_timestamps_ms": episode.pose_timestamps_ms,
              "pose_left": episode.pose_left,
              "pose_right": episode.pose_right}
    if episode.markers is not None:
        arrays["markers"] = episode.markers
        arrays["marker_timestamps_ms"] = episode.marker_timestamps_ms
    if episode.calibration is not None:
        cam = episode.calibration
        arrays["calibration"] = np.concatenate(
            [cam.intrinsics.ravel(), cam.rotation.ravel(), cam.translation])
        meta["calibration_resolution"] = [cam.width, cam.height]
    write_blocks(path, meta, arrays)


def read_episode(path) -> Episode:
    meta, arrays = read_blocks(path)
    if meta.get("type") != "episode":
        raise DataFormatError("bad-manifest", f"not an episode file: {meta.get('type')}")
    for name in ("emg_samples", "emg_timestamps_ms", "pose_timestamps_ms",
                 "pose_left", "pose_right"):
        if name not in arrays:
            raise DataFormatError("bad-manifest", f"missing block {name}")
    calibration = None
    try:
        participant_id = int(meta["participant_id"])
        gesture_label = meta["gesture_label"]
        sample_rate = float(meta["sample_rate"])
        if "calibration" in arrays:
            # PinholeCamera rejects a non-integer resolution and a bad matrix
            width, height = meta["calibration_resolution"]
            flat = arrays["calibration"]
            calibration = PinholeCamera(intrinsics=flat[:9].reshape(3, 3),
                                        rotation=flat[9:18].reshape(3, 3),
                                        translation=flat[18:21],
                                        width=width, height=height)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError("bad-manifest", f"episode meta field {exc}") from exc
    return Episode(
        participant_id=participant_id,
        gesture_label=gesture_label,
        emg=EmgWindow(samples=arrays["emg_samples"],
                      sample_rate=sample_rate,
                      kind=meta.get("emg_kind", "raw")),
        emg_timestamps_ms=arrays["emg_timestamps_ms"],
        pose_timestamps_ms=arrays["pose_timestamps_ms"],
        pose_left=arrays["pose_left"], pose_right=arrays["pose_right"],
        markers=arrays.get("markers"),
        marker_timestamps_ms=arrays.get("marker_timestamps_ms"),
        calibration=calibration)
