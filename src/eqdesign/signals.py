"""Discrete-time building blocks shared across the toolkit.

Impulse responses here are short FIR sequences: plain 1-D float arrays, plus
a sample rate so that mixed-rate operations fail loudly instead of silently
producing garbage. Spectral quantities (magnitude responses, smoothing,
design weights) all live on the one-sided bins of one uniform DFT grid so
they stay bin-compatible with each other.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import convolution_matrix as _scipy_convolution_matrix

__all__ = [
    "ImpulseResponse",
    "FrequencyGrid",
    "convolve",
    "convolution_matrix",
    "delay",
    "magnitude_response",
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


def _clean_samples(samples, what: str = "impulse response") -> np.ndarray:
    arr = np.array(samples, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{what} must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite samples")
    return arr


@dataclass(frozen=True, eq=False)
class ImpulseResponse:
    """A finite impulse response tied to a sample rate.

    The sample array is copied and validated on construction, so downstream
    code can rely on float dtype and finite values.
    """

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        object.__setattr__(self, "samples", _clean_samples(self.samples))
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be positive")

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


def _payload(h, what: str = "impulse response") -> np.ndarray:
    if isinstance(h, ImpulseResponse):
        return h.samples
    return _clean_samples(h, what)


def convolve(h1, h2):
    """Full linear convolution, length len(h1) + len(h2) - 1.

    Takes either two ImpulseResponse objects (rates must agree; the result
    keeps the rate) or two plain arrays. Mixing the two styles is refused
    because the result's rate would be a guess.
    """
    wrapped1 = isinstance(h1, ImpulseResponse)
    wrapped2 = isinstance(h2, ImpulseResponse)
    if wrapped1 != wrapped2:
        raise ValueError("convolve expects two ImpulseResponse objects or two arrays, not a mix")
    if wrapped1 and h1.sample_rate_hz != h2.sample_rate_hz:
        raise ValueError(
            f"sample rate mismatch: {h1.sample_rate_hz} Hz vs {h2.sample_rate_hz} Hz"
        )
    out = np.convolve(_payload(h1), _payload(h2))
    if wrapped1:
        return ImpulseResponse(out, h1.sample_rate_hz)
    return out


def convolution_matrix(h, num_cols: int) -> np.ndarray:
    """Tall Toeplitz matrix T with T @ x == convolve(h, x) for len(x) == num_cols.

    Column j holds h delayed by j samples; the shape is
    (len(h) + num_cols - 1, num_cols).
    """
    if not _is_whole(num_cols, 1):
        raise ValueError("num_cols must be a positive integer")
    return _scipy_convolution_matrix(_payload(h), int(num_cols), mode="full")


def delay(h, num_samples: int):
    """Prepend num_samples zeros: a pure delay, magnitude response unchanged."""
    if not _is_whole(num_samples, 0):
        raise ValueError("delay must be a nonnegative integer number of samples")
    x = _payload(h)
    out = np.concatenate([np.zeros(int(num_samples)), x])
    if isinstance(h, ImpulseResponse):
        return ImpulseResponse(out, h.sample_rate_hz)
    return out


def magnitude_response(h, grid: FrequencyGrid) -> np.ndarray:
    """|DFT| of h on the grid's one-sided bins, length fft_size // 2 + 1.

    An ImpulseResponse input must match the grid's sample rate, and h must
    fit inside the grid.
    """
    x = _payload(h)
    n = grid.fft_size
    if isinstance(h, ImpulseResponse) and h.sample_rate_hz != grid.sample_rate_hz:
        raise ValueError(
            f"sample rate mismatch: response at {h.sample_rate_hz} Hz, grid at {grid.sample_rate_hz} Hz"
        )
    if x.size > n:
        raise ValueError(f"impulse response of length {x.size} does not fit fft_size {n}")
    return np.abs(np.fft.rfft(x, n))


def fractional_octave_smooth(values, grid: FrequencyGrid, fraction: float = 1.0 / 6.0) -> np.ndarray:
    """Smooth a magnitude-like spectrum with a rectangular fractional-octave window.

    Each positive-frequency bin is replaced by the arithmetic mean over the
    bins whose centre frequencies lie within +-fraction/2 octave around it,
    clipped to the grid's one-sided bins. The DC bin (no geometric band
    exists at 0 Hz) and, for even sizes, the Nyquist bin pass through
    unchanged.

    Parameters
    ----------
    values : array, length fft_size // 2 + 1, nonnegative
    grid : FrequencyGrid
    fraction : octave fraction of the full window width, default 1/6

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
    if not fraction > 0:
        raise ValueError("fraction must be positive")

    centres, window, sizes = _smoothing_windows(grid, float(fraction))
    out = v.copy()
    # deviations from the centre bin, so constant inputs come back bit-exact;
    # the padding repeats the centre bin and adds exact zeros
    deviation = v[window] - v[centres, None]
    out[centres] = v[centres] + deviation.sum(axis=1) / sizes
    return out


@functools.lru_cache(maxsize=8)
def _smoothing_windows(grid: FrequencyGrid, fraction: float):
    """Centre bins, padded window indices and window sizes for smoothing.

    Row i of the window array lists the bins whose centre frequencies lie
    within +-fraction/2 octave of centres[i], clipped to the grid's one-sided
    bins, followed by copies of centres[i] up to the longest window;
    sizes[i] counts the unpadded bins. The arrays are read-only because the
    cache hands them to every caller.
    """
    n = grid.fft_size
    freqs = grid.frequencies_hz
    edge = 2.0 ** (fraction / 2.0)
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
