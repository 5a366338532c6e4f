"""Discrete-time building blocks shared across the toolkit.

Impulse responses here are short FIR sequences: checked 1-D float arrays.
The sample rate is the scene's, not theirs. Spectral quantities (magnitude
responses, smoothing, design weights) all live on the one-sided bins of one
uniform DFT grid so they stay bin-compatible with each other.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ImpulseResponse",
    "FrequencyGrid",
    "convolution_matrix",
    "fractional_octave_smooth",
]


def _is_whole(value, least: int) -> bool:
    """True for an integral number no smaller than `least`.

    False for booleans, ±inf, NaN and anything int() cannot take, so callers
    raise their own error naming the field instead of an OverflowError.
    """
    if isinstance(value, bool):
        return False
    try:
        return int(value) == value and value >= least
    except (TypeError, ValueError, OverflowError):
        return False


def _pow2_at_least(n: int) -> int:
    """Smallest power of two, at least 2, that is no smaller than n."""
    return 1 << max(int(n) - 1, 1).bit_length()


def _sampling_margin(magnitudes: np.ndarray, nfft: int) -> tuple[int, float]:
    """Weighted-median centre c of the tap magnitudes |x[k]|, and a margin.

    The DTFT of x advanced by c samples, X(w)·e^{jwc}, is Lipschitz in w
    with constant L = sum |k - c| |x[k]|, so its value anywhere lies within
    (pi/nfft)·L of its value at the nearest of nfft DFT samples. The margin
    is that, plus 8·log2(nfft)·eps·sum |x[k]| for the FFT's rounding.
    Centring on the weighted median keeps a leading delay from widening it.
    """
    total = magnitudes.sum()
    centre = np.searchsorted(np.cumsum(magnitudes), 0.5 * total)
    margin = np.pi / nfft * (np.abs(np.arange(magnitudes.size) - centre) @ magnitudes)
    margin += 8 * np.log2(nfft) * np.finfo(float).eps * total
    return int(centre), margin


@dataclass(frozen=True, eq=False)
class ImpulseResponse:
    """A finite impulse response.

    The sample array is copied and validated on construction, so downstream
    code can rely on float dtype and finite values.
    """

    samples: np.ndarray

    def __post_init__(self):
        arr = np.array(self.samples, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("impulse response must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("impulse response contains non-finite samples")
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform DFT grid; bin l sits at l * sample_rate_hz / fft_size.

    Spectra on the grid are one-sided: bins 0 .. fft_size // 2, from 0 Hz up
    to the Nyquist frequency (reached only when fft_size is even).
    """

    fft_size: int
    sample_rate_hz: float

    def __post_init__(self):
        if not _is_whole(self.fft_size, 2):
            raise ValueError("fft_size must be an integer of at least 2")
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be positive")

    @property
    def frequencies_hz(self) -> np.ndarray:
        return np.arange(self.fft_size // 2 + 1) * (self.sample_rate_hz / self.fft_size)


def convolution_matrix(h, num_cols: int) -> np.ndarray:
    """Tall Toeplitz matrix T with T @ x == np.convolve(h, x) for len(x) == num_cols.

    Column j holds h delayed by j samples; the shape is
    (len(h) + num_cols - 1, num_cols). Row i is the window of h zero-padded
    by num_cols - 1 on each side that ends at sample i, reversed. The array
    is a C-contiguous float64 copy, because Gram products take their BLAS
    route, and so their rounding, from its memory layout.
    """
    if not _is_whole(num_cols, 1):
        raise ValueError("num_cols must be a positive integer")
    num_cols = int(num_cols)
    pad = np.zeros(num_cols - 1)
    padded = np.concatenate([pad, h, pad])
    return np.lib.stride_tricks.sliding_window_view(padded, num_cols)[:, ::-1].copy()


# the full width, in octaves, of the smoothing window
_SMOOTHING_OCTAVES = 1.0 / 6.0


def fractional_octave_smooth(values, grid: FrequencyGrid) -> np.ndarray:
    """Smooth a magnitude-like spectrum with a rectangular 1/6-octave window.

    Each positive-frequency bin is replaced by the arithmetic mean over the
    bins whose centre frequencies lie within +-1/12 octave around it,
    clipped to the grid's one-sided bins. The DC bin (no geometric band
    exists at 0 Hz) and, for even sizes, the Nyquist bin pass through
    unchanged.

    Parameters
    ----------
    values : array, length fft_size // 2 + 1, nonnegative
    grid : FrequencyGrid

    Returns
    -------
    array of the same length.
    """
    v = np.asarray(values, dtype=float)
    n = grid.fft_size // 2 + 1
    if v.shape != (n,):
        raise ValueError(f"expected {n} spectrum values, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("spectrum contains non-finite values")
    if np.any(v < 0):
        raise ValueError("smoothing expects nonnegative magnitude values")

    centres, window, sizes = _smoothing_windows(grid)
    out = v.copy()
    # deviations from the centre bin, so constant inputs come back bit-exact;
    # the padding repeats the centre bin and adds exact zeros
    deviation = v[window] - v[centres, None]
    out[centres] = v[centres] + deviation.sum(axis=1) / sizes
    return out


@functools.lru_cache(maxsize=8)
def _smoothing_windows(grid: FrequencyGrid):
    """Centre bins, padded window indices and window sizes for smoothing.

    Row i of the window array lists the bins whose centre frequencies lie
    within +-1/12 octave of centres[i], clipped to the grid's one-sided
    bins, followed by copies of centres[i] up to the longest window;
    sizes[i] counts the unpadded bins. The arrays are read-only because the
    cache hands them to every caller.
    """
    n = grid.fft_size
    freqs = grid.frequencies_hz
    edge = 2.0 ** (_SMOOTHING_OCTAVES / 2.0)
    # stops before the Nyquist bin when n is even
    centres = np.arange(1, (n + 1) // 2)
    first = np.maximum(np.searchsorted(freqs, freqs[centres] / edge, side="left"), 1)
    last = np.searchsorted(freqs, freqs[centres] * edge, side="right") - 1
    width = int((last - first).max(initial=0)) + 1
    window = first[:, None] + np.arange(width)
    window = np.where(window <= last[:, None], window, centres[:, None])
    sizes = last - first + 1
    for arr in (centres, window, sizes):
        arr.setflags(write=False)
    return centres, window, sizes
