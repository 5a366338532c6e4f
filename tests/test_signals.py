"""Hand-checked values and algebraic properties of the signal primitives."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqdesign.design import _set_spectra
from eqdesign.scenario import MeasurementSet, forward_path_ir
from eqdesign.signals import (
    FrequencyGrid,
    ImpulseResponse,
    convolution_matrix,
    fractional_octave_smooth,
)


def by_matrix(h1, h2):
    """Full linear convolution of two sample arrays, by convolution_matrix."""
    return convolution_matrix(np.asarray(h1, dtype=float), len(h2)) @ np.asarray(h2, dtype=float)


def leakage_spectrum(h, grid):
    """The spectrum that design._set_spectra takes of a leakage response h on the grid."""
    h = ImpulseResponse(h)
    unit = ImpulseResponse(np.r_[1.0, np.zeros(len(h) - 1)])
    ms = MeasurementSet(unit, unit, h, (unit,))
    return _set_spectra(ms, forward_path_ir(0.0, 0), grid, 0)[0]


def test_impulse_response_validates_and_copies():
    src = np.array([1.0, 2.0])
    ir = ImpulseResponse(src)
    src[0] = 99.0
    assert ir.samples[0] == 1.0
    assert len(ir) == 2
    with pytest.raises(ValueError):
        ImpulseResponse([])
    with pytest.raises(ValueError):
        ImpulseResponse([1.0, np.nan])
    with pytest.raises(ValueError):
        ImpulseResponse([[1.0], [2.0]])


def test_frequency_grid():
    grid = FrequencyGrid(8, 16000.0)
    assert np.array_equal(grid.frequencies_hz, np.arange(5) * 2000.0)  # 0 Hz .. Nyquist
    odd = FrequencyGrid(9, 16000.0).frequencies_hz
    assert odd.size == 5 and odd[-1] < 8000.0  # an odd grid stops short of Nyquist
    with pytest.raises(ValueError):
        FrequencyGrid(1, 16000.0)
    with pytest.raises(ValueError):
        FrequencyGrid(8, -1.0)


def test_convolve_hand_values():
    assert np.array_equal(by_matrix([1.0], [3.0, 4.0]), [3.0, 4.0])
    assert np.array_equal(by_matrix([1.0, 1.0], [1.0, -1.0]), [1.0, 0.0, -1.0])
    assert np.array_equal(by_matrix([1.0, 2.0], [3.0, 0.0, 1.0]), [3.0, 6.0, 1.0, 2.0])


def test_convolve_commutative_associative():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal(rng.integers(1, 9))
        b = rng.standard_normal(rng.integers(1, 9))
        c = rng.standard_normal(rng.integers(1, 9))
        assert np.allclose(by_matrix(a, b), by_matrix(b, a), atol=1e-12)
        assert np.allclose(
            by_matrix(by_matrix(a, b), c), by_matrix(a, by_matrix(b, c)), atol=1e-12
        )


def test_convolution_matrix_layout():
    assert np.array_equal(
        convolution_matrix([1.0, 2.0], 2), [[1.0, 0.0], [2.0, 1.0], [0.0, 2.0]]
    )
    assert np.array_equal(convolution_matrix([1.0], 3), np.eye(3))
    out = convolution_matrix([1.0, 0.0, -1.0], 2) @ [2.0, 3.0]
    assert np.array_equal(out, [2.0, 3.0, -2.0, -3.0])


def test_convolution_matrix_matches_convolve():
    rng = np.random.default_rng(1)
    for _ in range(20):
        h = rng.standard_normal(rng.integers(1, 12))
        x = rng.standard_normal(rng.integers(1, 12))
        assert np.allclose(convolution_matrix(h, x.size) @ x, np.convolve(h, x), atol=1e-12)
    with pytest.raises(ValueError):
        convolution_matrix([1.0], 0)


@settings(max_examples=80)
@given(h_length=st.integers(1, 800), num_cols=st.integers(1, 450), seed=st.integers(0, 2**32 - 1))
@example(h_length=1, num_cols=1, seed=0)
@example(h_length=1, num_cols=450, seed=1)
@example(h_length=800, num_cols=1, seed=2)
@example(h_length=800, num_cols=450, seed=3)
def test_convolution_matrix_is_scipys(h_length, num_cols, seed):
    h = np.random.default_rng(seed).standard_normal(h_length)
    h[::7] = -0.0
    out = convolution_matrix(h, num_cols)
    expected = scipy.linalg.convolution_matrix(h, num_cols, mode="full")
    assert out.dtype == np.float64 and out.flags.c_contiguous
    assert out.tobytes() == expected.tobytes() and out.shape == expected.shape


def test_delay():
    # the forward path is a pure delay: zeros, then the gain
    assert np.array_equal(forward_path_ir(0.0, 2).samples, [0.0, 0.0, 1.0])
    assert np.array_equal(forward_path_ir(0.0, 0).samples, [1.0])
    assert len(forward_path_ir(0.0, 4)) == 5
    with pytest.raises(ValueError):
        forward_path_ir(0.0, -1)

    # a delay leaves the magnitude response unchanged
    grid = FrequencyGrid(64, 16000.0)
    rng = np.random.default_rng(2)
    h = rng.standard_normal(10)
    delayed = by_matrix(forward_path_ir(0.0, 7).samples, h)
    assert np.allclose(
        np.abs(leakage_spectrum(delayed, grid)), np.abs(leakage_spectrum(h, grid)), atol=1e-12
    )


# the one-sided magnitude response, as design._set_spectra takes it


def test_magnitude_response_hand_values():
    grid = FrequencyGrid(4, 16000.0)
    assert np.allclose(np.abs(leakage_spectrum([1.0], grid)), np.ones(3), atol=1e-15)
    assert np.allclose(np.abs(leakage_spectrum([0.0, 1.0], grid)), np.ones(3), atol=1e-15)
    # 4-point DFT of [1, 1]: 2, 1-j, 0, 1+j; the one-sided bins are the first three
    expected = [2.0, np.sqrt(2.0), 0.0]
    assert np.allclose(np.abs(leakage_spectrum([1.0, 1.0], grid)), expected, atol=1e-12)


def test_magnitude_response_layout_and_limits():
    rng = np.random.default_rng(3)
    for n in (8, 9, 16, 31):
        grid = FrequencyGrid(n, 16000.0)
        mag = np.abs(leakage_spectrum(rng.standard_normal(n - 2), grid))
        assert mag.shape == (n // 2 + 1,)
        assert np.all(mag >= 0.0)
    with pytest.raises(ValueError, match="does not fit L_FFT 4"):
        leakage_spectrum(np.ones(5), FrequencyGrid(4, 16000.0))


def test_smoothing_preserves_constants_exactly():
    grid = FrequencyGrid(64, 16000.0)
    flat = np.full(33, 0.37)
    assert np.array_equal(fractional_octave_smooth(flat, grid), flat)


def test_smoothing_spike_window():
    """A spike at 1 kHz on a 1024-bin 16 kHz grid averages over bins 61..67.

    The sixth-octave band around 1000 Hz runs 943.9..1059.5 Hz; at a bin
    spacing of 15.625 Hz that covers exactly bins 61 through 67.
    """
    grid = FrequencyGrid(1024, 16000.0)
    mag = np.ones(513)
    spike_bin = 64
    assert grid.frequencies_hz[spike_bin] == 1000.0
    mag[spike_bin] = 9.0
    out = fractional_octave_smooth(mag, grid)

    freqs = grid.frequencies_hz
    lo = 1000.0 * 2.0 ** (-1.0 / 12.0)
    hi = 1000.0 * 2.0 ** (1.0 / 12.0)
    window = np.flatnonzero((freqs >= lo) & (freqs <= hi))
    assert np.array_equal(window, np.arange(61, 68))
    assert out[spike_bin] == pytest.approx(15.0 / 7.0, rel=1e-12)
    assert out[spike_bin] == pytest.approx(np.mean(mag[61:68]), rel=1e-12)
    # the spike spreads to every bin whose window reaches bin 64, nowhere else
    assert np.all(out[1:61] == 1.0)
    assert np.all(out[spike_bin] >= out)


@pytest.mark.parametrize("fft_size", [512, 511])
def test_smoothing_window_spans_a_twelfth_octave_either_side(fft_size):
    """Bin l averages exactly the positive bins within f_l / 2^(1/12) .. f_l * 2^(1/12)."""
    grid = FrequencyGrid(fft_size, 16000.0)
    freqs = grid.frequencies_hz
    bins = freqs.size
    # column k smooths a unit spike at bin k, so row l shows bin l's window
    spread = np.column_stack([fractional_octave_smooth(np.eye(bins)[k], grid)
                              for k in range(bins)])
    edge = 2.0 ** (1.0 / 12.0)
    for l in range(1, (fft_size + 1) // 2):
        window = np.flatnonzero((freqs >= freqs[l] / edge) & (freqs <= freqs[l] * edge))
        window = window[window >= 1]
        assert np.array_equal(np.flatnonzero(spread[l]), window)
        assert np.allclose(spread[l, window], 1.0 / window.size, rtol=1e-12, atol=0.0)


def test_smoothing_edges():
    grid = FrequencyGrid(128, 16000.0)
    rng = np.random.default_rng(4)
    mag = rng.uniform(0.1, 2.0, 65)
    out = fractional_octave_smooth(mag, grid)
    assert out.shape == (65,)
    assert out[0] == mag[0]  # DC and Nyquist pass through
    assert out[64] == mag[64]


def test_smoothing_monotone_and_bounded():
    grid = FrequencyGrid(256, 16000.0)
    rng = np.random.default_rng(5)
    base = rng.uniform(0.0, 1.0, 129)
    bigger = base + rng.uniform(0.0, 1.0, 129)
    s_base = fractional_octave_smooth(base, grid)
    s_bigger = fractional_octave_smooth(bigger, grid)
    assert np.all(s_bigger >= s_base - 1e-12)
    assert s_base.max() <= base.max() + 1e-12


def test_smoothing_rejects_bad_input():
    grid = FrequencyGrid(16, 16000.0)
    with pytest.raises(ValueError):
        fractional_octave_smooth(-np.ones(9), grid)
    with pytest.raises(ValueError):
        fractional_octave_smooth(np.ones(16), grid)  # the two-sided length
    with pytest.raises(ValueError):
        fractional_octave_smooth(np.full(9, np.inf), grid)


def two_sided_magnitude(h, n):
    """The mirrored two-sided magnitude response that the one-sided spectra replaced."""
    half = np.abs(np.fft.rfft(h, n))
    out = np.empty(n)
    out[: half.size] = half
    out[half.size:] = half[1 : n - half.size + 1][::-1]
    return out


def per_bin_smooth(values, n, rate):
    """The two-sided per-bin loop that fractional_octave_smooth replaced, kept as its oracle.

    Returns the smoothed values and the length of each bin's window, 0 for a
    bin that passes through.
    """
    v = np.asarray(values, dtype=float)
    freqs = np.arange(n) * (rate / n)
    half_idx = n // 2
    edge = 2.0 ** (1.0 / 12.0)  # a 1/6-octave window
    out = v.copy()
    sizes = np.zeros(n, dtype=int)
    for l in range(1, (n + 1) // 2):
        lo = freqs[l] / edge
        hi = freqs[l] * edge
        k0 = max(int(np.searchsorted(freqs[: half_idx + 1], lo, side="left")), 1)
        k1 = int(np.searchsorted(freqs[: half_idx + 1], hi, side="right")) - 1
        out[l] = v[l] + np.mean(v[k0 : k1 + 1] - v[l])
        out[n - l] = out[l]
        sizes[l] = k1 - k0 + 1
    return out, sizes


@settings(max_examples=80)
@given(half_size=st.integers(1, 2048), seed=st.integers(0, 2**32 - 1))
def test_magnitude_response_matches_two_sided_formula(half_size, seed):
    rng = np.random.default_rng(seed)
    # an even and an odd size with the same number of one-sided bins
    for n in (2 * half_size, 2 * half_size + 1):
        grid = FrequencyGrid(n, 16000.0)
        bins = n // 2 + 1
        assert np.array_equal(grid.frequencies_hz, (np.arange(n) * (16000.0 / n))[:bins])
        h = rng.standard_normal(int(rng.integers(1, n + 1)))
        assert np.array_equal(np.abs(leakage_spectrum(h, grid)), two_sided_magnitude(h, n)[:bins])


@settings(max_examples=80)
@given(fft_size=st.integers(2, 4096), seed=st.integers(0, 2**32 - 1))
def test_smoothing_matches_per_bin_loop(fft_size, seed):
    grid = FrequencyGrid(fft_size, 16000.0)
    bins = fft_size // 2 + 1
    rng = np.random.default_rng(seed)
    # spectra spanning 60 dB, with some exact zeros
    mag = 10.0 ** rng.uniform(-3.0, 0.0, fft_size) * (rng.uniform(size=fft_size) > 0.1)
    expected, sizes = per_bin_smooth(mag, fft_size, 16000.0)
    got = fractional_octave_smooth(mag[:bins], grid)
    # Both add the same m rounded deviations v[k] - v[l] of a bin's window (the
    # padding adds exact zeros), in different orders. A sum of m terms in any
    # order is within gamma(m - 1) * sum|v[k] - v[l]| of the exact sum, and each
    # rounded |v[k] - v[l]| is at most V = max v for nonnegative v; with the
    # division by m and the addition of v[l], each side is within
    # gamma(m + 1) * V of v[l] plus the exact mean of those deviations (Higham,
    # Accuracy and Stability of Numerical Algorithms, 2nd ed., sections 3.1 and
    # 4.2), where gamma(k) = k u / (1 - k u) and u = eps / 2.
    ku = (sizes[:bins] + 1) * (np.finfo(float).eps / 2)
    bound = 2 * ku / (1 - ku) * np.max(mag[:bins])
    assert np.all(np.abs(got - expected[:bins]) <= bound)

    flat = np.full(bins, rng.uniform(0.0, 10.0))
    assert np.array_equal(fractional_octave_smooth(flat, grid), flat)
