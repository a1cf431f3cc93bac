"""Seeded augmentation for EMG windows and 21-marker hand captures.

Every augmentation is a pure function of (input, seed, config). Each
sub-operation draws from its own counter-based Philox stream keyed by
(seed, op id), with a marker frame's index in the counter's high word, so
toggling one perturbation never shifts another's draws, no two (seed, frame)
pairs share draws, and results are reproducible regardless of call order or
threading.

Marker perturbations follow a fixed structural -> identity -> noise order:
bone-length scaling, global scaling, marker swap, marker dropout,
neighborhood blending, Gaussian noise (+ per-marker dropout), marker drift,
and marker spike. Each is individually neutralizable through its config
field, and every applied perturbation is recorded for audit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .emg_dsp import EmgWindow
from .errors import InvalidInputError
from .graph_features import N_MARKERS, SkeletonGraph

# op ids keying the per-operation Philox streams
_EMG_DROPOUT, _EMG_FREQ_MASK, _EMG_NOISE, _EMG_JITTER = range(4)
(_MK_BYPASS, _MK_BONE, _MK_SCALE, _MK_SWAP, _MK_DROPOUT,
 _MK_BLEND, _MK_NOISE, _MK_DRIFT, _MK_SPIKE) = range(9)


def _op_rng(seed: int, op_id: int, frame: int = 0) -> np.random.Generator:
    key = np.array([np.uint64(seed & (2**64 - 1)), np.uint64(op_id)])
    counter = np.array([0, 0, 0, frame], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def _is_number(value) -> bool:
    """A finite real number; a bool does not count."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _check_amount(name, value):
    if not (_is_number(value) and value >= 0):
        raise InvalidInputError(f"{name} must be a finite non-negative number, "
                                f"got {value!r}")


def _check_count(name, value):
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= 0):
        raise InvalidInputError(f"{name} must be a non-negative integer, got {value!r}")


def _check_prob(name, p):
    if not (_is_number(p) and 0.0 <= p <= 1.0):
        raise InvalidInputError(f"{name} must be in [0, 1], got {p!r}")


def _check_range(name, r):
    if not (isinstance(r, tuple) and len(r) == 2 and all(map(_is_number, r))
            and r[0] <= r[1]):
        raise InvalidInputError(f"{name} must be an ordered (lo, hi) pair, got {r!r}")


@dataclass(frozen=True)
class EmgAugConfig:
    channel_dropout_p: float = 0.25
    n_freq_masks: int = 3
    max_mask_bins: int = 128
    noise_snr_db: tuple = (25.0, 35.0)
    noise_p: float = 0.5
    jitter_ms: float = 40.0

    def __post_init__(self):
        _check_prob("channel_dropout_p", self.channel_dropout_p)
        _check_prob("noise_p", self.noise_p)
        _check_range("noise_snr_db", self.noise_snr_db)
        _check_count("n_freq_masks", self.n_freq_masks)
        _check_count("max_mask_bins", self.max_mask_bins)
        _check_amount("jitter_ms", self.jitter_ms)


@dataclass(frozen=True)
class MarkerAugConfig:
    bypass_p: float = 0.5
    bone_scale_pct: float = 5.0
    global_scale: tuple = (0.6, 1.4)
    swap_radius_mm: float = 15.0
    swap_p: float = 0.3
    max_swaps: int = 3
    max_dropout: int = 3
    blend_self_weight: float = 0.5
    gaussian_sigma_mm: float = 1.0
    per_marker_dropout_p: float = 0.1
    drift_mm: float = 5.0
    max_drift_markers: int = 3
    spike_scale: tuple = (2.0, 5.0)
    spike_p: float = 0.1

    def __post_init__(self):
        for name in ("bypass_p", "swap_p", "per_marker_dropout_p", "spike_p"):
            _check_prob(name, getattr(self, name))
        _check_range("global_scale", self.global_scale)
        _check_range("spike_scale", self.spike_scale)
        _check_prob("blend_self_weight", self.blend_self_weight)
        for name in ("bone_scale_pct", "swap_radius_mm", "gaussian_sigma_mm", "drift_mm"):
            _check_amount(name, getattr(self, name))
        for name in ("max_swaps", "max_dropout", "max_drift_markers"):
            _check_count(name, getattr(self, name))


@dataclass(frozen=True)
class MarkerSet:
    """21 optical marker positions in mm, shape (21, 3)."""

    points: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        if points.shape != (N_MARKERS, 3):
            raise InvalidInputError(f"expected ({N_MARKERS}, 3) markers, got {points.shape}")
        object.__setattr__(self, "points", points)


def augment_emg(window: EmgWindow, seed: int,
                config: EmgAugConfig = EmgAugConfig()) -> EmgWindow:
    """Channel dropout -> frequency masking -> additive noise -> jitter."""
    x = window.samples.copy()
    n = x.shape[0]

    dropped = _op_rng(seed, _EMG_DROPOUT).random(x.shape[1]) < config.channel_dropout_p
    x[:, dropped] = 0.0

    if config.n_freq_masks > 0 and config.max_mask_bins > 0:
        rng = _op_rng(seed, _EMG_FREQ_MASK)
        spectrum = np.fft.rfft(x, axis=0)
        n_bins = spectrum.shape[0]
        for _ in range(config.n_freq_masks):
            width = int(rng.integers(1, config.max_mask_bins + 1))
            width = min(width, n_bins)
            start = int(rng.integers(0, n_bins - width + 1))
            spectrum[start:start + width] = 0.0
        x = np.fft.irfft(spectrum, n=n, axis=0)

    rng = _op_rng(seed, _EMG_NOISE)
    if rng.random() < config.noise_p:
        snr_db = rng.uniform(*config.noise_snr_db)
        rms = np.sqrt(np.mean(x ** 2, axis=0))
        sigma = rms * 10.0 ** (-snr_db / 20.0)
        x = x + rng.standard_normal(x.shape) * sigma[None, :]

    if config.jitter_ms > 0:
        max_shift = int(round(config.jitter_ms * 1e-3 * window.sample_rate))
        shift = int(_op_rng(seed, _EMG_JITTER).integers(-max_shift, max_shift + 1))
        # a window no longer than the shift becomes n copies of its edge sample
        shift = min(max(shift, -n), n)
        if shift > 0:
            x = np.concatenate([np.repeat(x[:1], shift, axis=0), x[:n - shift]])
        elif shift < 0:
            x = np.concatenate([x[-shift:], np.repeat(x[-1:], -shift, axis=0)])

    return replace(window, samples=x)


def _tree_edges(graph: SkeletonGraph, root: int = 0):
    """Edges (parent, child) in BFS order from the root; graph must be a tree."""
    if len(graph.edges) != graph.n_nodes - 1:
        raise InvalidInputError("bone-length perturbation needs a tree-shaped graph")
    parent = {root: None}
    order = []
    queue = [root]
    while queue:
        u = queue.pop(0)
        for v in graph.neighbors(u):
            if v not in parent:
                parent[v] = u
                order.append((u, v))
                queue.append(v)
    if len(parent) != graph.n_nodes:
        raise InvalidInputError("graph is disconnected")
    return order


def _subtree(graph: SkeletonGraph, child: int, parent: int):
    """Nodes on the child side of edge (parent, child)."""
    members = {child}
    queue = [child]
    while queue:
        u = queue.pop(0)
        for v in graph.neighbors(u):
            if v != parent and v not in members:
                members.add(v)
                queue.append(v)
    return sorted(members)


def _neighbor_mean(points, graph, idx, fallback):
    nbrs = graph.neighbors(idx)
    if not nbrs:
        return fallback[idx]
    return points[nbrs].mean(axis=0)


def augment_markers(markers: MarkerSet, skeleton_graph: SkeletonGraph,
                    hand_scale_mm: float, seed: int,
                    config: MarkerAugConfig = MarkerAugConfig(), frame: int = 0):
    """Apply the eight marker perturbations to frame `frame` of a sequence;
    returns (markers, applied_ops).

    With probability `bypass_p` nothing is applied and applied_ops is empty.
    Each entry of applied_ops is a dict with an "op" name plus the draws that
    parameterized it, sufficient to audit (or re-apply) the perturbation.
    """
    if not (_is_number(hand_scale_mm) and hand_scale_mm > 0):
        raise InvalidInputError(f"hand_scale_mm must be a finite positive number, "
                                f"got {hand_scale_mm!r}")
    if skeleton_graph.n_nodes != N_MARKERS:
        raise InvalidInputError("marker graph must have 21 nodes")
    _check_count("frame", frame)
    applied = []
    if _op_rng(seed, _MK_BYPASS, frame).random() < config.bypass_p:
        return markers, applied
    p = markers.points.copy()

    # (1) bone-length perturbation: scaling an edge displaces the distal subtree
    if config.bone_scale_pct > 0:
        rng = _op_rng(seed, _MK_BONE, frame)
        scales = []
        for parent, child in _tree_edges(skeleton_graph):
            s = 1.0 + rng.uniform(-config.bone_scale_pct, config.bone_scale_pct) / 100.0
            delta = (s - 1.0) * (p[child] - p[parent])
            p[_subtree(skeleton_graph, child, parent)] += delta
            scales.append((parent, child, s))
        applied.append({"op": "bone_scale", "edges": scales})

    # (2) global scaling about the root marker
    lo, hi = config.global_scale
    if (lo, hi) != (1.0, 1.0):
        s = _op_rng(seed, _MK_SCALE, frame).uniform(lo, hi)
        p = p[0] + s * (p - p[0])
        applied.append({"op": "global_scale", "factor": float(s)})

    # (3) marker swap among spatially proximate pairs
    if config.swap_p > 0 and config.max_swaps > 0:
        rng = _op_rng(seed, _MK_SWAP, frame)
        dists = np.linalg.norm(p[:, None] - p[None, :], axis=-1)
        pairs = [(i, j) for i in range(N_MARKERS) for j in range(i + 1, N_MARKERS)
                 if dists[i, j] <= config.swap_radius_mm]
        swapped = []
        used = set()
        for k in rng.permutation(len(pairs)):
            i, j = pairs[k]
            if i in used or j in used or len(swapped) >= config.max_swaps:
                continue
            if rng.random() < config.swap_p:
                p[[i, j]] = p[[j, i]]
                used |= {i, j}
                swapped.append((i, j))
        if swapped:
            applied.append({"op": "swap", "pairs": swapped})

    # (4) marker dropout, replaced with the mean of graph neighbors
    if config.max_dropout > 0:
        rng = _op_rng(seed, _MK_DROPOUT, frame)
        count = int(rng.integers(0, config.max_dropout + 1))
        if count:
            idx = rng.choice(N_MARKERS, size=count, replace=False)
            ref = p.copy()
            for i in sorted(int(i) for i in idx):
                p[i] = _neighbor_mean(ref, skeleton_graph, i, ref)
            applied.append({"op": "dropout", "markers": sorted(int(i) for i in idx)})

    # (5) neighborhood blending with a random convex combination of neighbors
    if config.blend_self_weight < 1.0:
        rng = _op_rng(seed, _MK_BLEND, frame)
        ref = p.copy()
        for i in range(N_MARKERS):
            nbrs = skeleton_graph.neighbors(i)
            if not nbrs:
                continue
            w = rng.random(len(nbrs))
            w /= w.sum()
            p[i] = (config.blend_self_weight * ref[i]
                    + (1.0 - config.blend_self_weight) * (w @ ref[nbrs]))
        applied.append({"op": "blend", "self_weight": config.blend_self_weight})

    # (6) Gaussian coordinate noise + per-marker dropout
    if config.gaussian_sigma_mm > 0 or config.per_marker_dropout_p > 0:
        rng = _op_rng(seed, _MK_NOISE, frame)
        p = p + rng.standard_normal(p.shape) * config.gaussian_sigma_mm
        dropped = np.nonzero(rng.random(N_MARKERS) < config.per_marker_dropout_p)[0]
        ref = p.copy()
        for i in dropped:
            p[i] = _neighbor_mean(ref, skeleton_graph, int(i), ref)
        applied.append({"op": "noise", "sigma_mm": config.gaussian_sigma_mm,
                        "dropped": [int(i) for i in dropped]})

    # (7) marker drift: systematic offset of up to drift_mm
    if config.drift_mm > 0 and config.max_drift_markers > 0:
        rng = _op_rng(seed, _MK_DRIFT, frame)
        count = int(rng.integers(0, config.max_drift_markers + 1))
        if count:
            idx = rng.choice(N_MARKERS, size=count, replace=False)
            for i in idx:
                direction = rng.standard_normal(3)
                direction /= np.linalg.norm(direction)
                p[int(i)] += direction * rng.uniform(0.0, config.drift_mm)
            applied.append({"op": "drift", "markers": sorted(int(i) for i in idx)})

    # (8) marker spike to 2-5x the hand scale
    if config.spike_p > 0:
        rng = _op_rng(seed, _MK_SPIKE, frame)
        if rng.random() < config.spike_p:
            i = int(rng.integers(0, N_MARKERS))
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            dist = rng.uniform(*config.spike_scale) * hand_scale_mm
            p[i] = p[i] + direction * dist
            applied.append({"op": "spike", "marker": i, "distance_mm": float(dist)})

    return MarkerSet(points=p), applied
