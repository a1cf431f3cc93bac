import os
import subprocess
import sys
from pathlib import Path

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
    assert mask.gains.shape == (N // 2 + 1,)
    assert mask.gains[0] == 0.0
    assert mask.gains.min() >= 0.0 and mask.gains.max() <= 1.0


def test_cached_mask_is_read_only():
    """Every caller shares the cached mask, so no caller may change it."""
    mask = emg_dsp.build_filter_mask(N, FS)
    assert mask.gains[600] == 1.0                # 300 Hz, in the passband
    with pytest.raises(ValueError):
        mask.gains[600] = 0.0
    assert emg_dsp.build_filter_mask(N, FS).gains[600] == 1.0


def _full_spectrum_filter(samples, fs):
    """The filter by its definition: a complex FFT, the gain of each bin's
    folded frequency min(k, n - k) * df, and the real part of the inverse."""
    n = samples.shape[0]
    n_fft = emg_dsp.filter_fft_length(n)
    k = np.arange(n_fft)
    gains = emg_dsp.mask_gain(np.minimum(k, n_fft - k) * (fs / n_fft))
    x = samples - samples.mean(axis=0, keepdims=True)
    y = np.fft.ifft(np.fft.fft(x, n=n_fft, axis=0) * gains[:, None], axis=0)[:n]
    assert np.abs(y.imag).max() <= 1e-9 * np.abs(y.real).max()
    return y.real


@pytest.mark.parametrize("n, fs", [(4096, 2048.0), (4097, 2000.0), (7790, 2000.0),
                                   (16000, 2000.0)])
def test_filter_matches_full_spectrum_definition(n, fs):
    samples = np.random.default_rng(n).normal(size=(n, emg_dsp.N_CHANNELS))
    samples += 0.5 * np.sin(2 * np.pi * 50.0 * np.arange(n) / fs)[:, None]
    ref = _full_spectrum_filter(samples, fs)
    out = emg_dsp.filter_emg(emg_dsp.EmgWindow(samples=samples, sample_rate=fs))
    assert out.samples.shape == (n, emg_dsp.N_CHANNELS)
    assert np.abs(out.samples - ref).max() <= 1e-12 * np.abs(ref).max()


_FILTER_CHILD = """
import sys
import numpy as np
from handemg import emg_dsp
window = emg_dsp.EmgWindow(samples=np.random.default_rng(3).normal(size=(16000, 16)))
sys.stdout.buffer.write(emg_dsp.filter_emg(window).samples.tobytes())
"""


def test_filter_bit_identical_across_blas_threads():
    """The thread count is set in each child's environment only."""
    path = [str(Path(emg_dsp.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(p for p in path if p))
        child = subprocess.run([sys.executable, "-c", _FILTER_CHILD], env=env,
                               capture_output=True, check=True, timeout=300)
        outputs.append(child.stdout)
    assert len(outputs[0]) == 16000 * emg_dsp.N_CHANNELS * 8
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("n", [8546, 16012])
def test_filter_on_channel_rows_is_the_axis_0_transform(n):
    """Transforming contiguous channel rows gives the bytes of the transform
    pair along axis 0 of the (time, 16) array, in C order."""
    samples = np.random.default_rng(n).normal(size=(n, emg_dsp.N_CHANNELS))
    n_fft = emg_dsp.filter_fft_length(n)
    x = samples - samples.mean(axis=0, keepdims=True)
    spectrum = np.fft.rfft(x, n=n_fft, axis=0) * emg_dsp.build_filter_mask(n_fft).gains[:, None]
    expected = np.fft.irfft(spectrum, n=n_fft, axis=0)[:n]
    out = emg_dsp.filter_emg(emg_dsp.EmgWindow(samples=samples)).samples
    assert out.flags.c_contiguous
    assert out.tobytes() == expected.tobytes()


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
    """FFT roundoff grows with amplitude; the filter stays linear at 1e8 mV."""
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
    with pytest.raises(InvalidInputError, match="at least one"):
        emg_dsp.filter_emg(emg_dsp.EmgWindow(samples=np.zeros((0, 16))))


def _five_smooth(candidates):
    """The 2**a * 3**b * 5**c among `candidates`, by dividing each one out."""
    rest = candidates.copy()
    for q in (2, 3, 5):
        while np.any(divisible := rest % q == 0):
            rest[divisible] //= q
    return candidates[rest == 1]


def test_fast_fft_length_is_the_least_5_smooth_length_at_or_above_n():
    ns = np.r_[1:20_001, 1_199_900:1_200_101]
    smooth = _five_smooth(np.r_[1:20_251, 1_199_900:1_215_001])   # 20250 = 2 * 3**4 * 5**3
    expect = smooth[np.searchsorted(smooth, ns)]
    assert [emg_dsp.fast_fft_length(int(n)) for n in ns] == expect.tolist()
    assert emg_dsp.fast_fft_length(1_200_001) == 1_215_000
    for n in (0, -1):
        with pytest.raises(InvalidInputError):
            emg_dsp.fast_fft_length(n)
