"""Frequency-domain EMG filtering.

The filter is a real FFT of each channel, one gain per non-negative frequency
bin (the half spectrum), and the inverse real FFT, so its output is real by
construction. The gains give DC removal, narrow notches at the 50 Hz
power-line frequency and its first harmonic at 100 Hz, a broadband 20--850 Hz
bandpass with raised-cosine edges, and a hard cutoff above 900 Hz. Values
stay in mV throughout; no amplitude normalization.

Mask shape conventions (the widths are fixed module constants, not
parameters):

* notches: gain 0 within +-1 Hz of the notch center, raised-cosine shoulders
  out to +-3 Hz;
* bandpass: cosine rise on [17, 23] Hz, flat 1 on [23, 847] Hz, cosine fall
  on [847, 900] Hz, 0 above 900 Hz;
* DC bin is always 0.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, InvalidInputError

N_CHANNELS = 16          # 8 per wrist; left = 0-7, right = 8-15
DEFAULT_SAMPLE_RATE = 2000.0
_MIN_N_FFT = 64
_MIN_SAMPLE_RATE = 1800.0
# a +-1 Hz notch needs at least one bin inside it on each side
_MAX_BIN_SPACING_HZ = 2.0
_NOTCH_CENTERS_HZ = (50.0, 100.0)
_NOTCH_ZERO_HZ = 1.0
_NOTCH_SHOULDER_HZ = 3.0
_BAND_RISE_HZ = (17.0, 23.0)
_BAND_FALL_HZ = (847.0, 900.0)
_FILTER_PAD_MIN = 4096


@dataclass(frozen=True)
class EmgWindow:
    """A window of multi-channel surface EMG in mV, shape (time, 16)."""

    samples: np.ndarray
    sample_rate: float = DEFAULT_SAMPLE_RATE
    kind: str = "raw"

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != N_CHANNELS:
            raise InvalidInputError(
                f"expected (time, {N_CHANNELS}) samples, got {samples.shape}")
        rate = self.sample_rate
        if not (isinstance(rate, numbers.Real) and not isinstance(rate, bool)
                and rate > 0 and math.isfinite(rate)):
            raise InvalidInputError(f"sample_rate must be a finite positive number, "
                                    f"got {rate!r}")
        if self.kind not in ("raw", "filtered"):
            raise InvalidInputError(f"bad window kind {self.kind!r}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", float(rate))

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class FilterMask:
    """Read-only gains in [0, 1] on the n_fft // 2 + 1 non-negative bins of a
    real FFT of length n_fft."""

    gains: np.ndarray
    n_fft: int
    sample_rate: float

    def __post_init__(self):
        gains = np.array(self.gains, dtype=float)
        if gains.shape != (self.n_fft // 2 + 1,):
            raise InvalidInputError("gains must have shape (n_fft // 2 + 1,)")
        if gains.min() < 0.0 or gains.max() > 1.0:
            raise InvalidInputError("gains must lie in [0, 1]")
        if gains[0] != 0.0:
            raise InvalidInputError("DC gain must be 0")
        gains.flags.writeable = False   # build_filter_mask shares one instance
        object.__setattr__(self, "gains", gains)

    @property
    def frequencies_hz(self) -> np.ndarray:
        """Bin frequencies: bin k maps to k * df."""
        return np.arange(self.n_fft // 2 + 1) * (self.sample_rate / self.n_fft)


def _cosine_rise(f, f0, f1):
    """Smooth 0 -> 1 raised-cosine ramp on [f0, f1]."""
    t = np.clip((f - f0) / (f1 - f0), 0.0, 1.0)
    return 0.5 - 0.5 * np.cos(np.pi * t)


def mask_gain(frequency_hz) -> np.ndarray:
    """The filter's target gain at arbitrary (non-negative) frequencies."""
    f = np.abs(np.asarray(frequency_hz, dtype=float))
    gain = _cosine_rise(f, *_BAND_RISE_HZ) * (1.0 - _cosine_rise(f, *_BAND_FALL_HZ))
    gain = np.where(f > _BAND_FALL_HZ[1], 0.0, gain)
    for center in _NOTCH_CENTERS_HZ:
        d = np.abs(f - center)
        notch = _cosine_rise(d, _NOTCH_ZERO_HZ, _NOTCH_SHOULDER_HZ)
        notch = np.where(d <= _NOTCH_ZERO_HZ, 0.0, notch)
        gain = gain * notch
    return np.where(f == 0.0, 0.0, gain)


@functools.lru_cache(maxsize=32)
def build_filter_mask(n_fft: int, sample_rate: float = DEFAULT_SAMPLE_RATE) -> FilterMask:
    """Build the per-bin gain mask for an FFT of length `n_fft`."""
    if n_fft < _MIN_N_FFT:
        raise ConfigurationError(f"n_fft must be >= {_MIN_N_FFT}, got {n_fft}")
    if sample_rate <= _MIN_SAMPLE_RATE:
        raise ConfigurationError(
            f"sample_rate must exceed {_MIN_SAMPLE_RATE} Hz, got {sample_rate}")
    spacing = sample_rate / n_fft
    if spacing > _MAX_BIN_SPACING_HZ:
        raise ConfigurationError(
            f"bin spacing {spacing:.2f} Hz cannot resolve the +-1 Hz notches; "
            f"increase n_fft")
    freqs = np.arange(n_fft // 2 + 1) * spacing
    return FilterMask(gains=mask_gain(freqs), n_fft=n_fft, sample_rate=sample_rate)


def filter_fft_length(n_samples: int) -> int:
    """FFT length `filter_emg` uses for a window of `n_samples` samples: the
    next power of two, and at least 4096."""
    return 1 << (max(n_samples, _FILTER_PAD_MIN) - 1).bit_length()


def fast_fft_length(n: int) -> int:
    """The least 2**a * 3**b * 5**c >= n, a length at which numpy's FFT runs
    radix passes instead of Bluestein's algorithm."""
    if n < 1:
        raise InvalidInputError(f"an FFT needs at least one point, got {n}")
    k = n.bit_length()      # 3**b * 5**c with b + c >= k exceeds 2**k, the power-of-two bound
    return min(p << (-(-n // p) - 1).bit_length()
               for p in (3**b * 5**c for b in range(k) for c in range(k - b)))


def filter_emg(window: EmgWindow) -> EmgWindow:
    """Apply the FFT mask per channel; mean is removed first.

    Windows shorter than 4096 samples are zero-padded to the next power of
    two before filtering and truncated afterwards, which makes the mask
    resolvable but introduces mild boundary effects at the window edges.
    """
    if window.kind != "raw":
        raise InvalidInputError("filter_emg expects a raw window")
    if not (window.n_samples and np.all(np.isfinite(window.samples))):
        raise InvalidInputError("EMG window needs at least one sample, all finite")
    n = window.n_samples
    n_fft = filter_fft_length(n)
    mask = build_filter_mask(n_fft, window.sample_rate)
    x = window.samples - window.samples.mean(axis=0, keepdims=True)
    # contiguous channel rows, which pocketfft transforms faster than strided columns
    spectrum = np.fft.rfft(np.ascontiguousarray(x.T), n=n_fft) * mask.gains
    y = np.ascontiguousarray(np.fft.irfft(spectrum, n=n_fft)[:, :n].T)
    return replace(window, samples=y, kind="filtered")
