"""Deterministic forward passes of the EMG pose network.

Covers the TDS convolutional featurizer (16-channel, 2 kHz EMG to a 256-d
sequence at ~37.5 Hz), squeeze-and-excitation gating, a pre-norm transformer
with rotary positional encoding, the per-frame pose head, and the residual
vision/EMG fusion combiner. No training: weights are supplied externally or
drawn from a seeded fan-in initializer, and every pass is a pure function of
(input, weights).

Architecture constants follow the published layer list: Conv1d 16->256 k11 s5,
Conv1d 256->256 k5 s2, then two TDS stages (in-conv k9 s5 / k3 s1, depthwise
width 5 / 3 over an 8 x 32 channel grid, two 256x256 channel-mix linears) with
global SE after each stage. All convolutions are valid (unpadded); the TDS
residual center-crops (k-1)/2 frames per side. The four strided convolutions
are per-tap BLAS matrix products (`conv1d_valid`). Unstated details are fixed
here as conventions: ReLU after the frontend and in-convs, SE ratio 4,
pre-norm transformer with (tanh-approximate) GELU, bidirectional attention,
RoPE base 10000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .emg_dsp import EmgWindow, N_CHANNELS
from .errors import ConfigurationError, InvalidInputError
from .hand_model import N_DOF

D_FEATURE = 256
SE_RATIO = 4
ROPE_BASE = 10000.0
TDS_GRID = (8, 32)                      # channel grid: 8 x 32 = 256
# (kernel, stride) of the four strided convolutions, in order
_CONV_LAYOUT = ((11, 5), (5, 2), (9, 5), (3, 1))
_TDS_WIDTHS = (5, 3)                    # depthwise widths of stage 1 / stage 2
# (kernel, stride) of the six temporal layers in order: each TDS depthwise
# conv follows the in-conv of its stage, at stride 1
_TEMPORAL_LAYERS = (_CONV_LAYOUT[0], _CONV_LAYOUT[1], _CONV_LAYOUT[2], (_TDS_WIDTHS[0], 1),
                    _CONV_LAYOUT[3], (_TDS_WIDTHS[1], 1))
# input samples per output frame: 50
FRAME_STRIDE = math.prod(stride for _, stride in _CONV_LAYOUT)
# the receptive field, 1 + sum over layers of (k - 1) x (product of earlier
# strides): 511, the fewest input samples that give one output frame
MIN_INPUT_SAMPLES = 1 + sum((kernel - 1) * math.prod(s for _, s in _TEMPORAL_LAYERS[:i])
                            for i, (kernel, _) in enumerate(_TEMPORAL_LAYERS))


def _conv_out_len(n: int, kernel: int, stride: int) -> int:
    return (n - kernel) // stride + 1


def featurizer_lengths(n_samples: int):
    """Intermediate sequence lengths through the six temporal layers."""
    lengths = []
    n = n_samples
    for kernel, stride in _TEMPORAL_LAYERS:
        n = _conv_out_len(n, kernel, stride)
        lengths.append(n)
    return lengths


def relu(x):
    return np.maximum(x, 0.0)


def gelu(x):
    """Tanh-approximate GELU."""
    # x * x * x, not x ** 3: numpy evaluates the power through pow, ~7x slower
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x * x * x)))


def _sigmoid(x):
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def conv1d_valid(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                 stride: int) -> np.ndarray:
    """Valid (unpadded) 1-D convolution: (C_in, T) -> (C_out, T').

    One BLAS matrix product per kernel tap k, weight[:, :, k] times the strided
    view x[:, k::stride], summed in tap order; no (C_in * kernel, T') column
    matrix is built.
    """
    kernel = weight.shape[2]
    n_out = _conv_out_len(x.shape[1], kernel, stride)
    if n_out < 1:
        raise InvalidInputError(f"{x.shape[1]} samples are fewer than the "
                                f"kernel width {kernel}")
    span = stride * (n_out - 1) + 1
    out = weight[:, :, 0] @ x[:, :span:stride]
    for k in range(1, kernel):
        out += weight[:, :, k] @ x[:, k:k + span:stride]
    out += bias[:, None]
    return out


def _check_shape(name, arr, shape):
    if arr.shape != shape:
        raise InvalidInputError(f"{name} must have shape {shape}, got {arr.shape}")


@dataclass(frozen=True)
class SeWeights:
    """Squeeze-and-excitation: d -> d/ratio -> d with a logistic gate."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        hidden = self.w1.shape[0]
        d = self.w1.shape[1]
        _check_shape("se.w1", self.w1, (hidden, d))
        _check_shape("se.b1", self.b1, (hidden,))
        _check_shape("se.w2", self.w2, (d, hidden))
        _check_shape("se.b2", self.b2, (d,))


@dataclass(frozen=True)
class TdsBlockWeights:
    """Depthwise temporal conv over the channel grid + two channel-mix linears."""

    depthwise_w: np.ndarray   # (grid channels, width)
    depthwise_b: np.ndarray   # (grid channels,)
    mix1_w: np.ndarray        # (256, 256)
    mix1_b: np.ndarray
    mix2_w: np.ndarray
    mix2_b: np.ndarray

    def __post_init__(self):
        g = TDS_GRID[0]
        if self.depthwise_w.ndim != 2 or self.depthwise_w.shape[0] != g:
            raise InvalidInputError(
                f"depthwise kernel must be ({g}, width), got {self.depthwise_w.shape}")
        _check_shape("tds.depthwise_b", self.depthwise_b, (g,))
        for name in ("mix1", "mix2"):
            _check_shape(f"tds.{name}_w", getattr(self, f"{name}_w"),
                         (D_FEATURE, D_FEATURE))
            _check_shape(f"tds.{name}_b", getattr(self, f"{name}_b"), (D_FEATURE,))

    @property
    def width(self) -> int:
        return self.depthwise_w.shape[1]


# weight-name prefixes of the four _CONV_LAYOUT convolutions, in order
_CONV_NAMES = ("conv1", "conv2", "stage1_in", "stage2_in")


@dataclass(frozen=True)
class FeaturizerWeights:
    conv1_w: np.ndarray
    conv1_b: np.ndarray
    conv2_w: np.ndarray
    conv2_b: np.ndarray
    stage1_in_w: np.ndarray
    stage1_in_b: np.ndarray
    stage1_tds: TdsBlockWeights
    stage2_in_w: np.ndarray
    stage2_in_b: np.ndarray
    stage2_tds: TdsBlockWeights
    se1: SeWeights
    se2: SeWeights

    def __post_init__(self):
        d = D_FEATURE
        for name, c_in, (kernel, _) in zip(_CONV_NAMES, (N_CHANNELS, d, d, d), _CONV_LAYOUT):
            _check_shape(f"{name}_w", getattr(self, f"{name}_w"), (d, c_in, kernel))
        for name in _CONV_NAMES:
            _check_shape(f"{name}_b", getattr(self, f"{name}_b"), (d,))
        if (self.stage1_tds.width, self.stage2_tds.width) != _TDS_WIDTHS:
            raise InvalidInputError(
                f"TDS depthwise widths must be {_TDS_WIDTHS[0]} and {_TDS_WIDTHS[1]}")


@dataclass(frozen=True)
class FeatureSequence:
    """A (d_model, T) feature map with its frame rate in Hz."""

    data: np.ndarray
    frame_rate: float

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2:
            raise InvalidInputError("feature data must be 2-D (d_model, T)")
        object.__setattr__(self, "data", data)

    @property
    def n_frames(self) -> int:
        return self.data.shape[1]


def se_gate(features: FeatureSequence, se_weights: SeWeights) -> FeatureSequence:
    """Scale each channel by a logistic gate of its time-mean activation."""
    x = features.data
    squeeze = x.mean(axis=1)
    g = _sigmoid(se_weights.w2 @ relu(se_weights.w1 @ squeeze + se_weights.b1)
                 + se_weights.b2)
    return FeatureSequence(data=x * g[:, None], frame_rate=features.frame_rate)


def _tds_block(x: np.ndarray, w: TdsBlockWeights) -> np.ndarray:
    """Depthwise temporal conv with center-cropped residual, then channel mix."""
    g, width = TDS_GRID
    k = w.width
    grid = x.reshape(g, width, -1)                               # (8, 32, T)
    windows = np.lib.stride_tricks.sliding_window_view(grid, k, axis=2)
    y = np.einsum("gk,gwtk->gwt", w.depthwise_w, windows) + w.depthwise_b[:, None, None]
    crop = (k - 1) // 2
    y = relu(y) + grid[:, :, crop:crop + y.shape[2]]
    f = y.reshape(g * width, -1)
    return w.mix2_w @ relu(w.mix1_w @ f + w.mix1_b[:, None]) + w.mix2_b[:, None] + f


def featurizer_stages(window: EmgWindow, weights: FeaturizerWeights):
    """Run the frontend, returning (pre-SE stage-1, pre-SE stage-2, output).

    The pre-SE activations have strictly local receptive fields (SE gating is
    the only global step), which is what receptive-field checks probe.
    """
    if window.samples.shape[1] != N_CHANNELS:
        raise InvalidInputError(f"expected {N_CHANNELS} EMG channels")
    if window.n_samples < MIN_INPUT_SAMPLES:
        raise InvalidInputError(
            f"window of {window.n_samples} samples is too short; the valid-conv "
            f"stack needs at least {MIN_INPUT_SAMPLES} samples for one frame")
    frame_rate = window.sample_rate / FRAME_STRIDE
    x = window.samples.T                                         # (16, T)
    x = relu(conv1d_valid(x, weights.conv1_w, weights.conv1_b, _CONV_LAYOUT[0][1]))
    x = relu(conv1d_valid(x, weights.conv2_w, weights.conv2_b, _CONV_LAYOUT[1][1]))
    x = relu(conv1d_valid(x, weights.stage1_in_w, weights.stage1_in_b,
                          _CONV_LAYOUT[2][1]))
    stage1 = _tds_block(x, weights.stage1_tds)
    x = se_gate(FeatureSequence(stage1, frame_rate), weights.se1).data
    x = relu(conv1d_valid(x, weights.stage2_in_w, weights.stage2_in_b,
                          _CONV_LAYOUT[3][1]))
    stage2 = _tds_block(x, weights.stage2_tds)
    out = se_gate(FeatureSequence(stage2, frame_rate), weights.se2)
    return stage1, stage2, out


def tds_featurize(window: EmgWindow, weights: FeaturizerWeights) -> FeatureSequence:
    """Full frontend: conv stack, two TDS stages, SE after each stage."""
    return featurizer_stages(window, weights)[2]


# ---------------------------------------------------------------------------
# transformer with rotary positional encoding


_VARIANTS = {"S": (3, 256, 4, 512), "M": (6, 256, 8, 1024), "L": (8, 384, 12, 1536)}


@dataclass(frozen=True)
class TransformerConfig:
    n_layers: int
    d_model: int
    n_heads: int
    d_ffn: int

    def __post_init__(self):
        if min(self.n_layers, self.d_model, self.n_heads, self.d_ffn) < 1:
            raise ConfigurationError("all transformer dimensions must be >= 1")
        if self.d_model % self.n_heads:
            raise ConfigurationError("d_model must be divisible by n_heads")
        if (self.d_model // self.n_heads) % 2:
            raise ConfigurationError("head dimension must be even for RoPE pairing")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @classmethod
    def variant(cls, name: str) -> "TransformerConfig":
        if name not in _VARIANTS:
            raise ConfigurationError(f"unknown variant {name!r}; choose from S/M/L")
        return cls(*_VARIANTS[name])


@dataclass(frozen=True)
class LayerWeights:
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    wq: np.ndarray
    bq: np.ndarray
    wk: np.ndarray
    bk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray
    ffn1_w: np.ndarray
    ffn1_b: np.ndarray
    ffn2_w: np.ndarray
    ffn2_b: np.ndarray


@dataclass(frozen=True)
class TransformerWeights:
    layers: tuple
    final_ln_g: np.ndarray
    final_ln_b: np.ndarray


def rope_apply(x: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Rotate consecutive coordinate pairs of (heads, T, head_dim) by pos*theta_i."""
    head_dim = x.shape[-1]
    if head_dim % 2:
        raise ConfigurationError("RoPE needs an even head dimension")
    positions = np.asarray(positions, dtype=float)
    theta = ROPE_BASE ** (-2.0 * np.arange(head_dim // 2) / head_dim)
    angle = positions[:, None] * theta[None, :]              # (T, head_dim/2)
    cos, sin = np.cos(angle), np.sin(angle)
    x_even, x_odd = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = x_even * cos - x_odd * sin
    out[..., 1::2] = x_even * sin + x_odd * cos
    return out


def _layer_norm(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def multi_head_attention(x: np.ndarray, layer: LayerWeights,
                         config: TransformerConfig, positions: np.ndarray):
    """Bidirectional self-attention with RoPE; returns (output, probs).

    x is (T, d_model); probs is (n_heads, T, T), rows summing to 1.
    """
    n_frames = x.shape[0]
    heads, head_dim = config.n_heads, config.head_dim

    def split(m):
        return m.reshape(n_frames, heads, head_dim).transpose(1, 0, 2)

    q = rope_apply(split(x @ layer.wq.T + layer.bq), positions)
    k = rope_apply(split(x @ layer.wk.T + layer.bk), positions)
    v = split(x @ layer.wv.T + layer.bv)
    scores = q @ k.transpose(0, 2, 1) / np.sqrt(head_dim)
    probs = _softmax(scores)
    mixed = (probs @ v).transpose(1, 0, 2).reshape(n_frames, config.d_model)
    return mixed @ layer.wo.T + layer.bo, probs


def transformer_forward(features: FeatureSequence, config: TransformerConfig,
                        weights: TransformerWeights) -> FeatureSequence:
    """Pre-norm transformer over the feature sequence; (d_model, T) -> (d_model, T)."""
    x = features.data.T                                      # (T, d_model)
    if x.shape[1] != config.d_model:
        raise ConfigurationError(f"feature dim {x.shape[1]} != d_model {config.d_model}")
    if len(weights.layers) != config.n_layers:
        raise ConfigurationError("layer count does not match the config")
    positions = np.arange(x.shape[0])
    for layer in weights.layers:
        attn, _ = multi_head_attention(
            _layer_norm(x, layer.ln1_g, layer.ln1_b), layer, config, positions)
        x = x + attn
        h = _layer_norm(x, layer.ln2_g, layer.ln2_b)
        x = x + gelu(h @ layer.ffn1_w.T + layer.ffn1_b) @ layer.ffn2_w.T + layer.ffn2_b
    x = _layer_norm(x, weights.final_ln_g, weights.final_ln_b)
    return FeatureSequence(data=x.T, frame_rate=features.frame_rate)


# ---------------------------------------------------------------------------
# heads and fusion


def pose_head(features: FeatureSequence, weight: np.ndarray,
              bias: np.ndarray) -> np.ndarray:
    """Per-frame linear map d_model -> 22 joint angles (deg); returns (T, 22)."""
    _check_shape("pose_head bias", bias, (N_DOF,))
    if weight.shape != (N_DOF, features.data.shape[0]):
        raise InvalidInputError(
            f"pose head weight must be ({N_DOF}, {features.data.shape[0]})")
    return features.data.T @ weight.T + bias


@dataclass(frozen=True)
class FusionWeights:
    """Vision head plus the correction head on the 512-d concatenation."""

    vision_w: np.ndarray    # (22, 256)
    vision_b: np.ndarray
    fusion1_w: np.ndarray   # (hidden, 512)
    fusion1_b: np.ndarray
    fusion2_w: np.ndarray   # (22, hidden); zero-initialized at the start
    fusion2_b: np.ndarray


def fusion_predict(vision_feature: np.ndarray, emg_feature: np.ndarray,
                   weights: FusionWeights):
    """Residual fusion: y = y_v + delta, delta from the concatenated features."""
    y_v = weights.vision_w @ vision_feature + weights.vision_b
    joint = np.concatenate([vision_feature, emg_feature])
    delta = weights.fusion2_w @ relu(weights.fusion1_w @ joint + weights.fusion1_b) \
        + weights.fusion2_b
    return y_v + delta, y_v, delta


# ---------------------------------------------------------------------------
# seeded initialization (tests only; training is out of scope)


def _fan_in_uniform(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, shape)


def init_se_weights(rng) -> SeWeights:
    d, hidden = D_FEATURE, D_FEATURE // SE_RATIO
    return SeWeights(w1=_fan_in_uniform(rng, (hidden, d), d),
                     b1=np.zeros(hidden),
                     w2=_fan_in_uniform(rng, (d, hidden), hidden),
                     b2=np.zeros(d))


def _init_tds(rng, width: int) -> TdsBlockWeights:
    g = TDS_GRID[0]
    return TdsBlockWeights(
        depthwise_w=_fan_in_uniform(rng, (g, width), width),
        depthwise_b=np.zeros(g),
        mix1_w=_fan_in_uniform(rng, (D_FEATURE, D_FEATURE), D_FEATURE),
        mix1_b=np.zeros(D_FEATURE),
        mix2_w=_fan_in_uniform(rng, (D_FEATURE, D_FEATURE), D_FEATURE),
        mix2_b=np.zeros(D_FEATURE))


def init_featurizer_weights(seed: int) -> FeaturizerWeights:
    rng = np.random.default_rng(seed)
    d = D_FEATURE
    (k1, _), (k2, _), (k3, _), (k4, _) = _CONV_LAYOUT
    return FeaturizerWeights(
        conv1_w=_fan_in_uniform(rng, (d, N_CHANNELS, k1), N_CHANNELS * k1),
        conv1_b=np.zeros(d),
        conv2_w=_fan_in_uniform(rng, (d, d, k2), d * k2),
        conv2_b=np.zeros(d),
        stage1_in_w=_fan_in_uniform(rng, (d, d, k3), d * k3),
        stage1_in_b=np.zeros(d),
        stage1_tds=_init_tds(rng, _TDS_WIDTHS[0]),
        stage2_in_w=_fan_in_uniform(rng, (d, d, k4), d * k4),
        stage2_in_b=np.zeros(d),
        stage2_tds=_init_tds(rng, _TDS_WIDTHS[1]),
        se1=init_se_weights(rng),
        se2=init_se_weights(rng))


def init_transformer_weights(config: TransformerConfig, seed: int) -> TransformerWeights:
    rng = np.random.default_rng(seed)
    d, f = config.d_model, config.d_ffn
    layers = []
    for _ in range(config.n_layers):
        layers.append(LayerWeights(
            ln1_g=np.ones(d), ln1_b=np.zeros(d),
            wq=_fan_in_uniform(rng, (d, d), d), bq=np.zeros(d),
            wk=_fan_in_uniform(rng, (d, d), d), bk=np.zeros(d),
            wv=_fan_in_uniform(rng, (d, d), d), bv=np.zeros(d),
            wo=_fan_in_uniform(rng, (d, d), d), bo=np.zeros(d),
            ln2_g=np.ones(d), ln2_b=np.zeros(d),
            ffn1_w=_fan_in_uniform(rng, (f, d), d), ffn1_b=np.zeros(f),
            ffn2_w=_fan_in_uniform(rng, (d, f), f), ffn2_b=np.zeros(d)))
    return TransformerWeights(layers=tuple(layers),
                              final_ln_g=np.ones(d), final_ln_b=np.zeros(d))
