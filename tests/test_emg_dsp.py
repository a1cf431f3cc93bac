import numpy as np
import pytest

from handemg import emg_dsp
from handemg.errors import ConfigurationError, InvalidInputError

# Coherent sampling setup: at 2048 Hz with a 4096-point FFT the bin spacing
# is exactly 0.5 Hz, so 50/100/300 Hz tones land on bins and attenuation can
# be read without leakage.
FS = 2048.0
N = 4096


def _tone(freq, n=N, fs=FS):
    t = np.arange(n) / fs
    x = np.sin(2 * np.pi * freq * t)
    return emg_dsp.EmgWindow(samples=np.tile(x[:, None], (1, emg_dsp.N_CHANNELS)),
                             sample_rate=fs)


def _rms(x):
    return float(np.sqrt(np.mean(x ** 2)))


def test_mask_shape_and_symmetry():
    mask = emg_dsp.build_filter_mask(N, FS)
    assert mask.gains.shape == (N,)
    assert mask.gains[0] == 0.0
    assert mask.gains.min() >= 0.0 and mask.gains.max() <= 1.0
    # real-filter constraint: gains symmetric around Nyquist
    assert np.abs(mask.gains[1:] - mask.gains[1:][::-1]).max() < 1e-12


def test_mask_band_structure():
    freqs = np.array([10.0, 17.0, 23.0, 40.0, 400.0, 847.0, 900.0, 1000.0])
    g = emg_dsp.mask_gain(freqs)
    assert g[0] == 0.0 and g[1] == 0.0          # below the rise
    assert g[2] == 1.0 and g[3] == 1.0          # passband start
    assert g[4] == 1.0 and abs(g[5] - 1.0) < 1e-12
    assert g[6] == 0.0 and g[7] == 0.0          # above the fall
    # notches fully closed within +-1 Hz of the line frequencies
    assert np.all(emg_dsp.mask_gain(np.array([49.0, 50.0, 51.0, 99.5, 100.9])) == 0.0)
    # raised-cosine shoulders strictly between 0 and 1
    shoulder = emg_dsp.mask_gain(np.array([52.0, 48.0, 102.0]))
    assert np.all(shoulder > 0.0) and np.all(shoulder < 1.0)


def test_notch_attenuation_coherent():
    for freq in (50.0, 100.0):
        out = emg_dsp.filter_emg(_tone(freq))
        ratio = _rms(out.samples[:, 0]) / _rms(_tone(freq).samples[:, 0])
        assert ratio < 1e-2, f"{freq} Hz tone attenuated only to {ratio:.3g}"


def test_passband_preserved():
    win = _tone(300.0)
    out = emg_dsp.filter_emg(win)
    ratio = _rms(out.samples[:, 0]) / _rms(win.samples[:, 0])
    assert abs(ratio - 1.0) < 5e-3


def test_dc_removed():
    win = emg_dsp.EmgWindow(
        samples=np.full((N, emg_dsp.N_CHANNELS), 3.7), sample_rate=FS)
    out = emg_dsp.filter_emg(win)
    assert np.abs(out.samples).max() < 1e-9


def test_linearity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(1000, emg_dsp.N_CHANNELS))
    b = rng.normal(size=(1000, emg_dsp.N_CHANNELS))
    f = lambda x: emg_dsp.filter_emg(
        emg_dsp.EmgWindow(samples=x, sample_rate=FS)).samples
    lhs = f(2.0 * a + 0.5 * b)
    rhs = 2.0 * f(a) + 0.5 * f(b)
    assert np.abs(lhs - rhs).max() < 1e-9


def test_large_amplitude_filters_cleanly():
    """FFT roundoff grows with amplitude; the residue check scales with it."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3000, emg_dsp.N_CHANNELS))
    big = emg_dsp.filter_emg(emg_dsp.EmgWindow(samples=1e8 * x)).samples
    unit = emg_dsp.filter_emg(emg_dsp.EmgWindow(samples=x)).samples
    assert np.abs(big - 1e8 * unit).max() < 1e-9 * 1e8


def test_filter_marks_kind_and_is_deterministic():
    rng = np.random.default_rng(1)
    win = emg_dsp.EmgWindow(samples=rng.normal(size=(5000, 16)))
    out1 = emg_dsp.filter_emg(win)
    out2 = emg_dsp.filter_emg(win)
    assert out1.kind == "filtered"
    assert np.array_equal(out1.samples, out2.samples)
    with pytest.raises(InvalidInputError):
        emg_dsp.filter_emg(out1)  # double filtering is rejected


def test_padding_to_pow2():
    # odd-length windows go through a >= 4096 power-of-two FFT transparently
    rng = np.random.default_rng(2)
    win = emg_dsp.EmgWindow(samples=rng.normal(size=(4097, 16)))
    out = emg_dsp.filter_emg(win)
    assert out.samples.shape == (4097, 16)
    assert np.all(np.isfinite(out.samples))


def test_configuration_errors():
    with pytest.raises(ConfigurationError):
        emg_dsp.build_filter_mask(32, 2000.0)       # FFT too short
    with pytest.raises(ConfigurationError):
        emg_dsp.build_filter_mask(4096, 1000.0)     # sample rate too low
    with pytest.raises(ConfigurationError):
        emg_dsp.build_filter_mask(64, 2000.0)       # bin spacing > 2 Hz


def test_window_validation():
    with pytest.raises(InvalidInputError):
        emg_dsp.EmgWindow(samples=np.zeros((100, 8)))   # wrong channel count
    bad = np.zeros((100, 16))
    bad[3, 2] = np.inf
    with pytest.raises(InvalidInputError):
        emg_dsp.filter_emg(emg_dsp.EmgWindow(samples=bad))
