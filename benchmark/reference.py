"""Reference re-derivations the benchmark checks the program's outputs against.

Everything here is independent of the handemg package: the EGL1 container,
the skeleton asset, forward kinematics, the FFT filter mask, the featurizer
(with the plain einsum convolution) and the z-buffer rasterizer are written
out again from their specifications (docs/FORMAT.md and the module
docstrings), so an optimisation of the program is checked against the
arithmetic it replaced rather than against itself.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np
import yaml

N_CHANNELS = 16
D_FEATURE = 256

# ---------------------------------------------------------------------------
# EGL1 container (docs/FORMAT.md)


def write_egl(path, meta: dict, arrays: dict) -> None:
    blocks, payload = [], bytearray()
    for name, arr in arrays.items():
        raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        blocks.append({"name": name, "kind": "array", "dtype": "<f8",
                       "shape": list(np.shape(arr)), "offset": len(payload),
                       "crc32": zlib.crc32(raw)})
        payload += raw
    manifest = json.dumps({"format": "EGL1", "version": 1, "meta": meta,
                           "blocks": blocks}).encode()
    with open(path, "wb") as f:
        f.write(b"EGL1" + struct.pack("<I", len(manifest)) + manifest + payload)


def read_egl(path):
    """Returns (meta, arrays); raises ValueError on any format violation."""
    data = Path(path).read_bytes()
    if data[:4] != b"EGL1" or len(data) < 8:
        raise ValueError(f"{path}: not an EGL1 file")
    (length,) = struct.unpack("<I", data[4:8])
    manifest = json.loads(data[8:8 + length].decode())
    payload = data[8 + length:]
    arrays = {}
    for block in manifest["blocks"]:
        dtype = np.dtype(block["dtype"])
        count = int(np.prod(block["shape"])) if block["shape"] else 1
        raw = payload[block["offset"]:block["offset"] + count * dtype.itemsize]
        if len(raw) != count * dtype.itemsize or zlib.crc32(raw) != block["crc32"]:
            raise ValueError(f"{path}: block {block['name']} is truncated or corrupt")
        arrays[block["name"]] = np.frombuffer(raw, dtype=dtype).reshape(block["shape"])
    return manifest["meta"], arrays


# ---------------------------------------------------------------------------
# skeleton and forward kinematics


class Skeleton:
    """The skeleton asset as plain arrays: bone tree, limits, landmarks."""

    def __init__(self, path):
        with open(path) as f:
            doc = yaml.safe_load(f)
        self.parent = [int(b["parent"]) for b in doc["bones"]]
        self.offset = np.array([b["offset"] for b in doc["bones"]], float)
        self.axis = np.array([b["axis"] for b in doc["bones"]], float)
        self.dof = [None if b["dof"] is None else int(b["dof"]) for b in doc["bones"]]
        self.limits = np.array(doc["limits"], float)
        self.landmark_bone = [int(e["bone"]) for e in doc["landmark_map"]]
        self.landmark_offset = np.array([e["offset"] for e in doc["landmark_map"]], float)


def _rotation(axis, angle_deg):
    k = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    theta = np.radians(angle_deg)
    return np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


def fk(skel: Skeleton, angles) -> np.ndarray:
    """(20, 3) landmark positions in mm for one 22-angle pose."""
    n = len(skel.parent)
    origins = np.zeros((n, 3))
    rotations = np.zeros((n, 3, 3))
    for i in range(n):
        p = skel.parent[i]
        parent_o = origins[p] if p >= 0 else np.zeros(3)
        parent_r = rotations[p] if p >= 0 else np.eye(3)
        origins[i] = parent_o + parent_r @ skel.offset[i]
        local = np.eye(3) if skel.dof[i] is None else _rotation(skel.axis[i],
                                                                  angles[skel.dof[i]])
        rotations[i] = parent_r @ local
    return np.array([origins[b] + rotations[b] @ off
                     for b, off in zip(skel.landmark_bone, skel.landmark_offset)])


# ---------------------------------------------------------------------------
# FFT-mask filter (emg_dsp docstring: DC, 50/100 Hz notches, 20-850 Hz band)


def _cosine_rise(f, f0, f1):
    t = np.clip((f - f0) / (f1 - f0), 0.0, 1.0)
    return 0.5 - 0.5 * np.cos(np.pi * t)


def filter_mask(n_fft: int, sample_rate: float) -> np.ndarray:
    k = np.arange(n_fft)
    f = np.minimum(k, n_fft - k) * (sample_rate / n_fft)
    gain = _cosine_rise(f, 17.0, 23.0) * (1.0 - _cosine_rise(f, 847.0, 900.0))
    gain = np.where(f > 900.0, 0.0, gain)
    for center in (50.0, 100.0):
        d = np.abs(f - center)
        gain = gain * np.where(d <= 1.0, 0.0, _cosine_rise(d, 1.0, 3.0))
    return np.where(f == 0.0, 0.0, gain)


def filter_emg(samples: np.ndarray, sample_rate: float) -> np.ndarray:
    n = samples.shape[0]
    n_fft = 1 << (max(n, 4096) - 1).bit_length()
    x = samples - samples.mean(axis=0, keepdims=True)
    spectrum = np.fft.fft(x, n=n_fft, axis=0) * filter_mask(n_fft, sample_rate)[:, None]
    return np.fft.ifft(spectrum, axis=0)[:n].real


# ---------------------------------------------------------------------------
# featurizer: conv 16->256 k11 s5, conv 256->256 k5 s2, TDS stages (in-conv
# k9 s5 / k3 s1, depthwise 5 / 3 over an 8 x 32 grid), SE after each stage


def _fan_in_uniform(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, shape)


def featurizer_weights(seed: int) -> dict:
    """The seeded fan-in initialisation, drawn in the program's order."""
    rng = np.random.default_rng(seed)
    d = D_FEATURE

    def tds(width):
        return {"dw": _fan_in_uniform(rng, (8, width), width), "db": np.zeros(8),
                "m1": _fan_in_uniform(rng, (d, d), d), "b1": np.zeros(d),
                "m2": _fan_in_uniform(rng, (d, d), d), "b2": np.zeros(d)}

    def se():
        h = d // 4
        return {"w1": _fan_in_uniform(rng, (h, d), d), "b1": np.zeros(h),
                "w2": _fan_in_uniform(rng, (d, h), h), "b2": np.zeros(d)}

    w = {"conv1": _fan_in_uniform(rng, (d, N_CHANNELS, 11), N_CHANNELS * 11)}
    w["conv2"] = _fan_in_uniform(rng, (d, d, 5), d * 5)
    w["in1"] = _fan_in_uniform(rng, (d, d, 9), d * 9)
    w["tds1"] = tds(5)
    w["in2"] = _fan_in_uniform(rng, (d, d, 3), d * 3)
    w["tds2"] = tds(3)
    w["se1"] = se()
    w["se2"] = se()
    return w


def conv1d_valid(x, weight, stride):
    """The plain einsum convolution: (C_in, T) -> (C_out, T'), zero bias."""
    windows = np.lib.stride_tricks.sliding_window_view(x, weight.shape[2], axis=1)
    return np.einsum("oik,itk->ot", weight, windows[:, ::stride])


def _relu(x):
    return np.maximum(x, 0.0)


def _se(x, w):
    z = w["w2"] @ _relu(w["w1"] @ x.mean(axis=1) + w["b1"]) + w["b2"]
    e = np.exp(-np.abs(z))
    return x * np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))[:, None]


def _tds(x, w):
    k = w["dw"].shape[1]
    grid = x.reshape(8, 32, -1)
    win = np.lib.stride_tricks.sliding_window_view(grid, k, axis=2)
    y = np.einsum("gk,gwtk->gwt", w["dw"], win) + w["db"][:, None, None]
    crop = (k - 1) // 2
    f = (_relu(y) + grid[:, :, crop:crop + y.shape[2]]).reshape(D_FEATURE, -1)
    return w["m2"] @ _relu(w["m1"] @ f + w["b1"][:, None]) + w["b2"][:, None] + f


def featurize(samples: np.ndarray, w: dict) -> np.ndarray:
    """(T, 16) EMG window -> (256, T') features."""
    x = _relu(conv1d_valid(samples.T, w["conv1"], 5))
    x = _relu(conv1d_valid(x, w["conv2"], 2))
    x = _relu(conv1d_valid(x, w["in1"], 5))
    x = _se(_tds(x, w["tds1"]), w["se1"])
    x = _relu(conv1d_valid(x, w["in2"], 1))
    return _se(_tds(x, w["tds2"]), w["se2"])


# ---------------------------------------------------------------------------
# occlusion: z-buffer rasterizer and area-weighted visibility score
# (occlusion docstring: pixel centres at +0.5, inclusive top-left rule,
# perspective-correct depth, whole-triangle near clip, 5x5 window, 5 mm)


def camera_matrices(cam: dict):
    k = np.array([[cam["fx"], 0.0, cam["cx"]], [0.0, cam["fy"], cam["cy"]],
                  [0.0, 0.0, 1.0]])
    return k, np.array(cam["rotation"], float), np.array(cam["translation"], float)


def rasterize(v_cam, triangles, k, width, height) -> np.ndarray:
    buf = np.full((height, width), np.inf)
    z_all = v_cam[:, 2]
    safe_z = np.where(z_all > 1e-6, z_all, 1.0)
    safe_xy = np.where(z_all[:, None] > 1e-6, v_cam[:, :2], 0.0)
    u_all = k[0, 0] * safe_xy[:, 0] / safe_z + k[0, 2]
    v_all = k[1, 1] * safe_xy[:, 1] / safe_z + k[1, 2]
    for tri in triangles:
        z = z_all[tri]
        if z.min() <= 1e-6:
            continue
        u, v = u_all[tri], v_all[tri]
        area2 = (u[1] - u[0]) * (v[2] - v[0]) - (v[1] - v[0]) * (u[2] - u[0])
        if area2 == 0.0:
            continue
        if area2 < 0:
            tri = tri[[0, 2, 1]]
            z, u, v = z_all[tri], u_all[tri], v_all[tri]
            area2 = -area2
        x0, x1 = max(int(np.floor(u.min() - 0.5)), 0), min(int(np.ceil(u.max() - 0.5)), width - 1)
        y0, y1 = max(int(np.floor(v.min() - 0.5)), 0), min(int(np.ceil(v.max() - 0.5)), height - 1)
        if x1 < x0 or y1 < y0:
            continue
        pu, pv = np.meshgrid(np.arange(x0, x1 + 1) + 0.5, np.arange(y0, y1 + 1) + 0.5)
        inside = np.ones(pu.shape, dtype=bool)
        inv_z = np.zeros(pu.shape)
        for i in range(3):
            ax, ay = u[(i + 1) % 3], v[(i + 1) % 3]
            bx, by = u[(i + 2) % 3], v[(i + 2) % 3]
            e = (bx - ax) * (pv - ay) - (by - ay) * (pu - ax)
            top_left = (by == ay and bx > ax) or (by < ay)
            inside &= (e > 0) | ((e == 0) & top_left)
            inv_z = inv_z + (e / area2) / z[i]
        view = buf[y0:y1 + 1, x0:x1 + 1]
        np.minimum(view, np.where(inside, 1.0 / inv_z, np.inf), out=view)
    return buf


def occlusion_score(vertices, triangles, cam: dict):
    """(s_occ, visible flags) for a world-frame mesh seen by `cam`."""
    a, b, c = (vertices[triangles[:, i]] for i in range(3))
    areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    weights = np.zeros(len(vertices))
    for corner in range(3):
        np.add.at(weights, triangles[:, corner], areas / 3.0)
    k, rot, trans = camera_matrices(cam)
    v_cam = vertices @ rot.T + trans
    width, height = int(cam["width"]), int(cam["height"])
    buf = rasterize(v_cam, triangles, k, width, height)
    visible = np.zeros(len(vertices), dtype=bool)
    for i, (x, y, z) in enumerate(v_cam):
        if z <= 1e-6:
            continue
        px = int(np.floor(k[0, 0] * x / z + k[0, 2]))
        py = int(np.floor(k[1, 1] * y / z + k[1, 2]))
        if 0 <= px < width and 0 <= py < height:
            window = buf[max(py - 2, 0):py + 3, max(px - 2, 0):px + 3]
            visible[i] = bool(np.any(np.abs(window - z) <= 5.0))
    return 1.0 - weights[visible].sum() / weights.sum(), visible
