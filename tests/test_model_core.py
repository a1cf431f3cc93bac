import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from handemg import model_core as mc
from handemg.emg_dsp import EmgWindow
from handemg.errors import ConfigurationError, InvalidInputError

# frozen stage lengths for the 7790-sample training window (valid-conv math)
WINDOW = 7790
STAGE_LENGTHS = (1556, 776, 154, 150, 148, 146)


def _window(rng, n=WINDOW):
    return EmgWindow(samples=rng.normal(size=(n, 16)))


def _identity_se():
    """Gate float-exactly 1.0: sigmoid(50) rounds to 1.0 in double precision."""
    hidden = mc.D_FEATURE // mc.SE_RATIO
    return mc.SeWeights(w1=np.zeros((hidden, mc.D_FEATURE)), b1=np.zeros(hidden),
                        w2=np.zeros((mc.D_FEATURE, hidden)),
                        b2=np.full(mc.D_FEATURE, 50.0))


def test_featurizer_lengths_arithmetic():
    assert tuple(mc.featurizer_lengths(WINDOW)) == STAGE_LENGTHS
    assert mc.MIN_INPUT_SAMPLES == 511
    assert mc.featurizer_lengths(511)[-1] == 1
    assert mc.featurizer_lengths(510)[-1] == 0  # below the minimum: no frames
    # one extra output frame appears every FRAME_STRIDE samples
    assert mc.featurizer_lengths(WINDOW + 21)[-1] == 147
    assert mc.featurizer_lengths(WINDOW + 50)[-1] == 147


def test_featurize_output_shape():
    rng = np.random.default_rng(0)
    weights = mc.init_featurizer_weights(0)
    out = mc.tds_featurize(_window(rng), weights)
    assert out.data.shape == (256, 146)
    assert out.frame_rate == 2000.0 / mc.FRAME_STRIDE
    assert np.all(np.isfinite(out.data))


def test_featurize_deterministic():
    rng = np.random.default_rng(1)
    win = _window(rng, 2000)
    weights = mc.init_featurizer_weights(3)
    a = mc.tds_featurize(win, weights)
    b = mc.tds_featurize(win, weights)
    assert np.array_equal(a.data, b.data)


def _conv_reference(x, weight, bias, stride):
    """out[o, t] = bias[o] + sum over (i, k) of weight[o, i, k] * x[i, stride*t + k]."""
    windows = np.lib.stride_tricks.sliding_window_view(x, weight.shape[2], axis=1)
    return np.einsum("oik,itk->ot", weight, windows[:, ::stride]) + bias[:, None]


# input length of each strided conv for the 7790-sample window
_CONV_INPUTS = (WINDOW, STAGE_LENGTHS[0], STAGE_LENGTHS[1], STAGE_LENGTHS[3])


@pytest.mark.parametrize("layer", range(len(mc._CONV_LAYOUT)))
def test_conv_matches_einsum_definition(layer):
    rng = np.random.default_rng(20 + layer)
    kernel, stride = mc._CONV_LAYOUT[layer]
    c_in = 16 if layer == 0 else mc.D_FEATURE
    weight = rng.normal(size=(mc.D_FEATURE, c_in, kernel)) / np.sqrt(c_in * kernel)
    bias = rng.normal(size=mc.D_FEATURE)
    # the window's length, then the two lengths that give exactly one frame
    for n in (_CONV_INPUTS[layer], kernel, kernel + stride - 1):
        x = rng.normal(size=(c_in, n))
        out = mc.conv1d_valid(x, weight, bias, stride)
        ref = _conv_reference(x, weight, bias, stride)
        assert out.shape == ref.shape == (mc.D_FEATURE, (n - kernel) // stride + 1)
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
    with pytest.raises(InvalidInputError):
        mc.conv1d_valid(rng.normal(size=(c_in, kernel - 1)), weight, bias, stride)


_FEATURIZE_CHILD = """
import sys
import numpy as np
from handemg import model_core as mc
from handemg.emg_dsp import EmgWindow
window = EmgWindow(samples=np.random.default_rng(7).normal(size=(7790, 16)))
features = mc.tds_featurize(window, mc.init_featurizer_weights(7)).data
sys.stdout.buffer.write(features.tobytes())
"""


def test_featurize_bit_identical_across_blas_threads():
    """The thread count is set in each child's environment only."""
    path = [str(Path(mc.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(p for p in path if p))
        child = subprocess.run([sys.executable, "-c", _FEATURIZE_CHILD], env=env,
                               capture_output=True, check=True, timeout=300)
        outputs.append(child.stdout)
    assert len(outputs[0]) == mc.D_FEATURE * STAGE_LENGTHS[-1] * 8
    assert outputs[0] == outputs[1]


def test_receptive_field_locality():
    """With identity SE gates, frame t sees exactly samples [50t, 50t+511)."""
    rng = np.random.default_rng(2)
    weights = mc.init_featurizer_weights(0)
    from dataclasses import replace
    weights = replace(weights, se1=_identity_se(), se2=_identity_se())
    base = _window(rng)
    ref = mc.tds_featurize(base, weights).data
    for t in (0, 70, 145):
        lo, hi = 50 * t, 50 * t + mc.MIN_INPUT_SAMPLES
        bumped = base.samples.copy()
        if lo > 0:
            bumped[lo - 1] += 100.0       # just outside: no effect
        if hi < WINDOW:
            bumped[hi] += 100.0
        out = mc.tds_featurize(EmgWindow(samples=bumped), weights).data
        assert np.array_equal(out[:, t], ref[:, t])
        inside = base.samples.copy()
        inside[lo + 255] += 100.0         # center sample: must change frame t
        out2 = mc.tds_featurize(EmgWindow(samples=inside), weights).data
        assert not np.array_equal(out2[:, t], ref[:, t])


def test_se_gate_identity_and_squash():
    rng = np.random.default_rng(3)
    feats = mc.FeatureSequence(rng.normal(size=(256, 12)), frame_rate=40.0)
    out = mc.se_gate(feats, _identity_se())
    assert np.array_equal(out.data, feats.data)
    # strongly negative bias closes the gate
    hidden = 256 // 4
    closed = mc.SeWeights(w1=np.zeros((hidden, 256)), b1=np.zeros(hidden),
                          w2=np.zeros((256, hidden)), b2=np.full(256, -700.0))
    assert np.abs(mc.se_gate(feats, closed).data).max() < 1e-300


def test_too_short_input_message():
    rng = np.random.default_rng(4)
    with pytest.raises(InvalidInputError, match="511"):
        mc.tds_featurize(_window(rng, 400), mc.init_featurizer_weights(0))


def test_gelu_matches_power_definition():
    """`gelu` cubes by multiplication; the x ** 3 form is the definition. The
    bound is relative to the peak: deep in the negative tail the output is
    1 + tanh ~ 1e-8, where any one-ulp change in the cube is amplified."""
    x = np.random.default_rng(8).normal(scale=3.0, size=(146, 512))
    ref = 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))
    assert np.abs(mc.gelu(x) - ref).max() <= 1e-15 * np.abs(ref).max()


def test_rope_preserves_norm_and_relative_offsets():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 30, 64))
    pos = np.arange(30, dtype=float)
    rot = mc.rope_apply(x, pos)
    assert np.abs(np.linalg.norm(rot, axis=-1)
                  - np.linalg.norm(x, axis=-1)).max() < 1e-9
    # inner products depend only on the position offset
    q = rng.normal(size=64)
    k = rng.normal(size=64)
    def score(pq, pk):
        rq = mc.rope_apply(q[None, None], np.array([float(pq)]))[0, 0]
        rk = mc.rope_apply(k[None, None], np.array([float(pk)]))[0, 0]
        return rq @ rk
    assert abs(score(3, 7) - score(10, 14)) < 1e-9
    assert abs(score(0, 5) - score(20, 25)) < 1e-9
    assert mc.rope_apply(x, np.zeros(30)).shape == x.shape
    assert np.abs(mc.rope_apply(x, np.zeros(30)) - x).max() < 1e-12


def test_attention_rows_are_distributions():
    config = mc.TransformerConfig.variant("S")
    weights = mc.init_transformer_weights(config, seed=0)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(20, config.d_model))
    _, probs = mc.multi_head_attention(x, weights.layers[0], config,
                                       np.arange(20, dtype=float))
    assert probs.shape == (config.n_heads, 20, 20)
    assert np.abs(probs.sum(axis=-1) - 1.0).max() < 1e-12
    assert probs.min() >= 0.0


def test_transformer_variants_and_shapes():
    for name, (layers, d, heads, ffn) in (("S", (3, 256, 4, 512)),
                                          ("M", (6, 256, 8, 1024)),
                                          ("L", (8, 384, 12, 1536))):
        cfg = mc.TransformerConfig.variant(name)
        assert (cfg.n_layers, cfg.d_model, cfg.n_heads, cfg.d_ffn) == \
            (layers, d, heads, ffn)
    cfg = mc.TransformerConfig.variant("S")
    weights = mc.init_transformer_weights(cfg, seed=1)
    rng = np.random.default_rng(7)
    feats = mc.FeatureSequence(rng.normal(size=(256, 15)), frame_rate=40.0)
    out = mc.transformer_forward(feats, cfg, weights)
    assert out.data.shape == (256, 15)
    with pytest.raises(ConfigurationError, match="feature dim 64 != d_model 256"):
        mc.transformer_forward(mc.FeatureSequence(rng.normal(size=(64, 9)), frame_rate=40.0),
                               cfg, weights)
    with pytest.raises(ConfigurationError):
        mc.TransformerConfig.variant("XL")
    with pytest.raises(ConfigurationError):
        mc.TransformerConfig(3, 256, 7, 512)   # not divisible


def test_pose_head():
    rng = np.random.default_rng(9)
    feats = mc.FeatureSequence(rng.normal(size=(256, 11)), frame_rate=40.0)
    w, b = rng.normal(size=(22, 256)), rng.normal(size=22)
    pose = mc.pose_head(feats, w, b)
    assert pose.shape == (11, 22)
    assert np.abs(pose[4] - (w @ feats.data[:, 4] + b)).max() < 1e-12


def test_zero_init_fusion_passthrough():
    """With the correction head zero-initialized, y equals the vision head."""
    rng = np.random.default_rng(10)
    hidden = 128
    weights = mc.FusionWeights(
        vision_w=rng.normal(size=(22, 256)), vision_b=rng.normal(size=22),
        fusion1_w=rng.normal(size=(hidden, 512)),
        fusion1_b=rng.normal(size=hidden),
        fusion2_w=np.zeros((22, hidden)), fusion2_b=np.zeros(22))
    for _ in range(50):
        vision = rng.normal(size=256)
        emg = rng.normal(size=256)
        y, y_v, delta = mc.fusion_predict(vision, emg, weights)
        assert np.array_equal(y, y_v)
        assert np.array_equal(delta, np.zeros(22))


def test_init_reproducible():
    a = mc.init_featurizer_weights(5)
    b = mc.init_featurizer_weights(5)
    assert np.array_equal(a.conv1_w, b.conv1_w)
    assert np.array_equal(a.stage2_tds.mix2_w, b.stage2_tds.mix2_w)
    c = mc.init_featurizer_weights(6)
    assert not np.array_equal(a.conv1_w, c.conv1_w)
