import numpy as np
import pytest

from handemg import augment
from handemg.emg_dsp import EmgWindow, N_CHANNELS, fast_fft_length
from handemg.graph_features import default_marker_graph
from handemg.errors import InvalidInputError

GRAPH = default_marker_graph()
HAND_SCALE = 180.0  # mm


def _window(rng, n=4000):
    return EmgWindow(samples=rng.normal(size=(n, N_CHANNELS)))


def _markers(rng):
    return augment.MarkerSet(rng.normal(scale=40.0, size=(21, 3)))


def test_emg_same_seed_bit_identical():
    rng = np.random.default_rng(0)
    win = _window(rng)
    a = augment.augment_emg(win, seed=7)
    b = augment.augment_emg(win, seed=7)
    assert np.array_equal(a.samples, b.samples)


def test_emg_different_seeds_differ():
    rng = np.random.default_rng(1)
    win = _window(rng)
    a = augment.augment_emg(win, seed=7)
    b = augment.augment_emg(win, seed=8)
    assert not np.array_equal(a.samples, b.samples)


def test_emg_neutral_config_is_identity():
    rng = np.random.default_rng(2)
    win = _window(rng)
    neutral = augment.EmgAugConfig(channel_dropout_p=0.0, n_freq_masks=0,
                                   max_mask_bins=0, noise_p=0.0, jitter_ms=0.0)
    for seed in range(5):
        out = augment.augment_emg(win, seed=seed, config=neutral)
        assert np.array_equal(out.samples, win.samples)


def test_emg_per_op_streams_independent():
    """Disabling one op must not change the draws consumed by another."""
    rng = np.random.default_rng(3)
    win = _window(rng)
    noise_only = augment.EmgAugConfig(channel_dropout_p=0.0, n_freq_masks=0,
                                      max_mask_bins=0, noise_p=1.0, jitter_ms=0.0)
    noise_plus_jitter = augment.EmgAugConfig(channel_dropout_p=0.0, n_freq_masks=0,
                                             max_mask_bins=0, noise_p=1.0,
                                             jitter_ms=40.0)
    a = augment.augment_emg(win, seed=11, config=noise_only)
    b = augment.augment_emg(win, seed=11, config=noise_plus_jitter)
    # the noise component is identical; jitter then shifts whole columns
    shifted = augment.augment_emg(
        win, seed=11, config=augment.EmgAugConfig(
            channel_dropout_p=0.0, n_freq_masks=0, max_mask_bins=0,
            noise_p=0.0, jitter_ms=40.0))
    shift = np.flatnonzero(np.all(win.samples[0] == shifted.samples, axis=1))
    assert shift.size >= 1  # the first raw row appears at the jitter offset


@pytest.mark.parametrize("n", [1, 20, 79, 80, 81, 200])
def test_emg_jitter_keeps_the_sample_count(n):
    """Jitter shifts by at most 80 samples (40 ms at 2 kHz) with edge padding;
    a window no longer than the shift becomes copies of one edge sample."""
    ramp = np.repeat(np.arange(n, dtype=float)[:, None], N_CHANNELS, axis=1)
    jitter_only = augment.EmgAugConfig(channel_dropout_p=0.0, n_freq_masks=0,
                                       max_mask_bins=0, noise_p=0.0, jitter_ms=40.0)
    shifted = {s: np.clip(ramp - s, 0, n - 1) for s in range(-80, 81)}
    for seed in range(40):
        out = augment.augment_emg(EmgWindow(samples=ramp), seed=seed, config=jitter_only)
        assert out.samples.shape == (n, N_CHANNELS)
        assert any(np.array_equal(out.samples, expect) for expect in shifted.values())


def test_emg_dropout_zeroes_whole_channels():
    rng = np.random.default_rng(4)
    win = _window(rng)
    cfg = augment.EmgAugConfig(channel_dropout_p=1.0, n_freq_masks=0,
                               max_mask_bins=0, noise_p=0.0, jitter_ms=0.0)
    out = augment.augment_emg(win, seed=0, config=cfg)
    assert np.array_equal(out.samples, np.zeros_like(win.samples))


def test_emg_noise_snr_in_range():
    rng = np.random.default_rng(5)
    win = _window(rng, n=20000)
    cfg = augment.EmgAugConfig(channel_dropout_p=0.0, n_freq_masks=0,
                               max_mask_bins=0, noise_p=1.0,
                               noise_snr_db=(30.0, 30.0), jitter_ms=0.0)
    out = augment.augment_emg(win, seed=1, config=cfg)
    noise = out.samples - win.samples
    for ch in range(N_CHANNELS):
        snr = 20 * np.log10(np.sqrt(np.mean(win.samples[:, ch] ** 2))
                            / np.sqrt(np.mean(noise[:, ch] ** 2)))
        assert abs(snr - 30.0) < 1.0


def test_marker_same_seed_bit_identical():
    rng = np.random.default_rng(6)
    markers = _markers(rng)
    a, ops_a = augment.augment_markers(markers, GRAPH, HAND_SCALE, seed=3)
    b, ops_b = augment.augment_markers(markers, GRAPH, HAND_SCALE, seed=3)
    assert np.array_equal(a.points, b.points)
    assert ops_a == ops_b


def test_marker_bypass_identity():
    rng = np.random.default_rng(7)
    markers = _markers(rng)
    cfg = augment.MarkerAugConfig(bypass_p=1.0)
    out, ops = augment.augment_markers(markers, GRAPH, HAND_SCALE, seed=0,
                                       config=cfg)
    assert np.array_equal(out.points, markers.points)
    assert ops == []  # bypass applies nothing and audits nothing


def test_marker_each_op_neutralizable():
    """With every probability/magnitude zeroed the pipeline is the identity."""
    rng = np.random.default_rng(8)
    markers = _markers(rng)
    cfg = augment.MarkerAugConfig(
        bypass_p=0.0, bone_scale_pct=0.0, global_scale=(1.0, 1.0),
        swap_p=0.0, max_dropout=0, blend_self_weight=1.0,
        gaussian_sigma_mm=0.0, per_marker_dropout_p=0.0, drift_mm=0.0,
        max_drift_markers=0, spike_p=0.0)
    for seed in range(10):
        out, _ = augment.augment_markers(markers, GRAPH, HAND_SCALE, seed=seed,
                                         config=cfg)
        assert np.abs(out.points - markers.points).max() < 1e-12


def test_marker_caps_respected():
    rng = np.random.default_rng(9)
    cfg = augment.MarkerAugConfig(bypass_p=0.0, swap_p=1.0, spike_p=1.0,
                                  per_marker_dropout_p=1.0)
    for seed in range(50):
        markers = _markers(rng)
        _, ops = augment.augment_markers(markers, GRAPH, HAND_SCALE, seed=seed,
                                         config=cfg)
        by_op = {}
        for op in ops:
            by_op.setdefault(op["op"], []).append(op)
        assert len(by_op.get("spike", [])) <= 1
        for name, cap in (("swap", cfg.max_swaps), ("dropout", cfg.max_dropout),
                          ("drift", cfg.max_drift_markers)):
            for entry in by_op.get(name, []):
                count = sum(len(np.atleast_1d(v)) for k, v in entry.items()
                            if k != "op" and not np.isscalar(v)) or 1
            assert len(by_op.get(name, [])) <= max(cap, 1)


def test_marker_spike_magnitude():
    rng = np.random.default_rng(10)
    cfg = augment.MarkerAugConfig(
        bypass_p=0.0, bone_scale_pct=0.0, global_scale=(1.0, 1.0),
        swap_p=0.0, max_dropout=0, blend_self_weight=1.0,
        gaussian_sigma_mm=0.0, per_marker_dropout_p=0.0, drift_mm=0.0,
        max_drift_markers=0, spike_p=1.0, spike_scale=(2.0, 5.0))
    hits = 0
    for seed in range(40):
        markers = _markers(rng)
        out, ops = augment.augment_markers(markers, GRAPH, HAND_SCALE,
                                           seed=seed, config=cfg)
        moved = np.linalg.norm(out.points - markers.points, axis=1)
        if np.any(moved > 0):
            hits += 1
            assert np.count_nonzero(moved) == 1   # exactly one marker displaced
            mag = moved.max() / HAND_SCALE
            assert 2.0 - 1e-9 <= mag <= 5.0 + 1e-9
    assert hits == 40


def test_config_validation():
    with pytest.raises(InvalidInputError):
        augment.EmgAugConfig(channel_dropout_p=1.5)
    with pytest.raises(InvalidInputError):
        augment.EmgAugConfig(noise_snr_db=(35.0, 25.0))
    with pytest.raises(InvalidInputError):
        augment.MarkerAugConfig(global_scale=(1.4, 0.6))
    with pytest.raises(InvalidInputError):
        augment.MarkerAugConfig(max_swaps=-1)


@pytest.mark.parametrize("cls, field, value", [
    (augment.EmgAugConfig, "channel_dropout_p", "x"),
    (augment.EmgAugConfig, "noise_snr_db", 5),
    (augment.EmgAugConfig, "noise_snr_db", (25.0, "35")),
    (augment.EmgAugConfig, "n_freq_masks", 1.5),
    (augment.EmgAugConfig, "max_mask_bins", True),
    (augment.EmgAugConfig, "jitter_ms", None),
    (augment.EmgAugConfig, "jitter_ms", float("nan")),
    (augment.MarkerAugConfig, "drift_mm", "5"),
    (augment.MarkerAugConfig, "global_scale", (0.6, float("inf"))),
    (augment.MarkerAugConfig, "max_swaps", 2.5),
    (augment.MarkerAugConfig, "spike_p", None),
])
def test_config_rejects_mistyped_values(cls, field, value):
    """Non-numbers and non-integer counts are invalid input, not a TypeError."""
    with pytest.raises(InvalidInputError, match=field):
        cls(**{field: value})


_MASK_ONLY = augment.EmgAugConfig(channel_dropout_p=0.0, noise_p=0.0, jitter_ms=0.0)


@pytest.mark.parametrize("n", [7919, 8546])
def test_emg_masking_keeps_the_sample_count_at_lengths_that_are_not_5_smooth(n):
    """7919 is prime and 8546 = 2 * 4273: both are masked at a padded length."""
    win = _window(np.random.default_rng(n), n)
    for config in (_MASK_ONLY, augment.EmgAugConfig()):
        a = augment.augment_emg(win, seed=3, config=config)
        b = augment.augment_emg(win, seed=3, config=config)
        assert a.samples.shape == (n, N_CHANNELS)
        assert np.array_equal(a.samples, b.samples)


def _exact_length_augment_emg(window, seed, config):
    """`augment_emg` as it was when both transforms ran at the window's own
    length, down the columns of its (n, 16) array."""
    x = window.samples.copy()
    n = x.shape[0]
    dropped = augment._op_rng(seed, augment._EMG_DROPOUT).random(x.shape[1])
    x[:, dropped < config.channel_dropout_p] = 0.0
    rng = augment._op_rng(seed, augment._EMG_FREQ_MASK)
    spectrum = np.fft.rfft(x, axis=0)
    n_bins = spectrum.shape[0]
    for _ in range(config.n_freq_masks):
        width = min(int(rng.integers(1, config.max_mask_bins + 1)), n_bins)
        start = int(rng.integers(0, n_bins - width + 1))
        spectrum[start:start + width] = 0.0
    x = np.fft.irfft(spectrum, n=n, axis=0)
    rng = augment._op_rng(seed, augment._EMG_NOISE)
    if rng.random() < config.noise_p:
        snr_db = rng.uniform(*config.noise_snr_db)
        sigma = np.sqrt(np.mean(x ** 2, axis=0)) * 10.0 ** (-snr_db / 20.0)
        x = x + rng.standard_normal(x.shape) * sigma[None, :]
    max_shift = int(round(config.jitter_ms * 1e-3 * window.sample_rate))
    shift = int(augment._op_rng(seed, augment._EMG_JITTER).integers(-max_shift, max_shift + 1))
    if shift > 0:
        x = np.concatenate([np.repeat(x[:1], shift, axis=0), x[:n - shift]])
    elif shift < 0:
        x = np.concatenate([x[-shift:], np.repeat(x[-1:], -shift, axis=0)])
    return x


def test_emg_augment_at_a_5_smooth_length_is_the_exact_length_augment():
    """At n = 8640 = 2**6 * 3**3 * 5 the padded length is n itself, and every
    op's output is bit for bit what it was when the transforms ran down the
    columns: the noise's per-channel RMS sums the same rows in the same order."""
    win = _window(np.random.default_rng(8640), 8640)
    for config in (_MASK_ONLY, augment.EmgAugConfig(),
                   augment.EmgAugConfig(channel_dropout_p=0.5, noise_p=1.0)):
        for seed in range(4):
            out = augment.augment_emg(win, seed=seed, config=config)
            assert np.array_equal(out.samples, _exact_length_augment_emg(win, seed, config))


@pytest.mark.parametrize("n", [7919, 8546])
def test_emg_mask_removes_its_band(n):
    """One mask, drawn over the bins of the padded spectrum, leaves at most 1%
    of the input's energy in its frequency band of the output."""
    win = _window(np.random.default_rng(n), n)
    config = augment.EmgAugConfig(channel_dropout_p=0.0, n_freq_masks=1, max_mask_bins=1000,
                                  noise_p=0.0, jitter_ms=0.0)
    out = augment.augment_emg(win, seed=0, config=config)
    m = fast_fft_length(n)
    rng = augment._op_rng(0, augment._EMG_FREQ_MASK)
    width = int(rng.integers(1, config.max_mask_bins + 1))
    start = int(rng.integers(0, m // 2 + 1 - width + 1))
    cycles = np.arange(n // 2 + 1) / n      # the output's bins, in cycles per sample
    band = (cycles >= start / m) & (cycles <= (start + width - 1) / m)
    assert band.sum() >= 100

    def energy(x):
        return np.sum(np.abs(np.fft.rfft(x, axis=0)[band]) ** 2)
    assert energy(out.samples) <= 0.01 * energy(win.samples)


def test_emg_without_samples_is_invalid_input():
    empty = EmgWindow(samples=np.zeros((0, N_CHANNELS)))
    for config in (augment.EmgAugConfig(), _MASK_ONLY, augment.EmgAugConfig(
            n_freq_masks=0, max_mask_bins=0)):
        with pytest.raises(InvalidInputError, match="no samples"):
            augment.augment_emg(empty, seed=0, config=config)
