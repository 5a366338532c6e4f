"""Hand-checked values and algebraic properties of the signal primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqdesign.signals import (
    FrequencyGrid,
    ImpulseResponse,
    convolution_matrix,
    convolve,
    delay,
    fractional_octave_smooth,
    magnitude_response,
)


def test_impulse_response_validates_and_copies():
    src = np.array([1.0, 2.0])
    ir = ImpulseResponse(src, 16000.0)
    src[0] = 99.0
    assert ir.samples[0] == 1.0
    assert len(ir) == 2
    with pytest.raises(ValueError):
        ImpulseResponse([], 16000.0)
    with pytest.raises(ValueError):
        ImpulseResponse([1.0, np.nan], 16000.0)
    with pytest.raises(ValueError):
        ImpulseResponse([[1.0], [2.0]], 16000.0)
    with pytest.raises(ValueError):
        ImpulseResponse([1.0], 0.0)


def test_frequency_grid():
    grid = FrequencyGrid(8, 16000.0)
    assert np.array_equal(grid.frequencies_hz, np.arange(8) * 2000.0)
    with pytest.raises(ValueError):
        FrequencyGrid(1, 16000.0)
    with pytest.raises(ValueError):
        FrequencyGrid(8, -1.0)


def test_convolve_hand_values():
    assert np.array_equal(convolve([1.0], [3.0, 4.0]), [3.0, 4.0])
    assert np.array_equal(convolve([1.0, 1.0], [1.0, -1.0]), [1.0, 0.0, -1.0])
    assert np.array_equal(convolve([1.0, 2.0], [3.0, 0.0, 1.0]), [3.0, 6.0, 1.0, 2.0])


def test_convolve_wrapped_and_mixed():
    a = ImpulseResponse([1.0, 2.0], 16000.0)
    b = ImpulseResponse([3.0, 0.0, 1.0], 16000.0)
    out = convolve(a, b)
    assert isinstance(out, ImpulseResponse)
    assert out.sample_rate_hz == 16000.0
    assert np.array_equal(out.samples, [3.0, 6.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        convolve(a, ImpulseResponse([1.0], 8000.0))
    with pytest.raises(ValueError):
        convolve(a, [1.0, 2.0])


def test_convolve_commutative_associative():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal(rng.integers(1, 9))
        b = rng.standard_normal(rng.integers(1, 9))
        c = rng.standard_normal(rng.integers(1, 9))
        assert np.allclose(convolve(a, b), convolve(b, a), atol=1e-12)
        assert np.allclose(
            convolve(convolve(a, b), c), convolve(a, convolve(b, c)), atol=1e-12
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
        assert np.allclose(convolution_matrix(h, x.size) @ x, convolve(h, x), atol=1e-12)
    with pytest.raises(ValueError):
        convolution_matrix([1.0], 0)


def test_delay():
    assert np.array_equal(delay([1.0, 2.0], 2), [0.0, 0.0, 1.0, 2.0])
    assert np.array_equal(delay([5.0], 0), [5.0])
    ir = delay(ImpulseResponse([1.0, 2.0], 16000.0), 3)
    assert isinstance(ir, ImpulseResponse)
    assert len(ir) == 5
    with pytest.raises(ValueError):
        delay([1.0], -1)

    grid = FrequencyGrid(64, 16000.0)
    rng = np.random.default_rng(2)
    h = rng.standard_normal(10)
    assert np.allclose(
        magnitude_response(delay(h, 7), grid), magnitude_response(h, grid), atol=1e-12
    )


def test_magnitude_response_hand_values():
    grid = FrequencyGrid(4, 16000.0)
    assert np.allclose(magnitude_response([1.0], grid), np.ones(4), atol=1e-15)
    assert np.allclose(magnitude_response([0.0, 1.0], grid), np.ones(4), atol=1e-15)
    # 4-point DFT of [1, 1]: 2, 1-j, 0, 1+j
    expected = [2.0, np.sqrt(2.0), 0.0, np.sqrt(2.0)]
    assert np.allclose(magnitude_response([1.0, 1.0], grid), expected, atol=1e-12)


def test_magnitude_response_symmetry_and_limits():
    rng = np.random.default_rng(3)
    for n in (8, 9, 16, 31):
        grid = FrequencyGrid(n, 16000.0)
        mag = magnitude_response(rng.standard_normal(n - 2), grid)
        for l in range(1, n):
            assert mag[l] == mag[n - l]
        assert np.all(mag >= 0.0)
    with pytest.raises(ValueError):
        magnitude_response(np.ones(5), FrequencyGrid(4, 16000.0))
    with pytest.raises(ValueError):
        magnitude_response(ImpulseResponse([1.0], 8000.0), FrequencyGrid(4, 16000.0))


def test_smoothing_preserves_constants_exactly():
    grid = FrequencyGrid(64, 16000.0)
    flat = np.full(64, 0.37)
    assert np.array_equal(fractional_octave_smooth(flat, grid), flat)


def test_smoothing_spike_window():
    """A spike at 1 kHz on a 1024-bin 16 kHz grid averages over bins 61..67.

    The sixth-octave band around 1000 Hz runs 943.9..1059.5 Hz; at a bin
    spacing of 15.625 Hz that covers exactly bins 61 through 67.
    """
    grid = FrequencyGrid(1024, 16000.0)
    mag = np.ones(1024)
    spike_bin = 64
    assert grid.frequencies_hz[spike_bin] == 1000.0
    mag[spike_bin] = 9.0
    mag[1024 - spike_bin] = 9.0
    out = fractional_octave_smooth(mag, grid)

    freqs = grid.frequencies_hz[:513]
    lo = 1000.0 * 2.0 ** (-1.0 / 12.0)
    hi = 1000.0 * 2.0 ** (1.0 / 12.0)
    window = np.flatnonzero((freqs >= lo) & (freqs <= hi))
    assert np.array_equal(window, np.arange(61, 68))
    assert out[spike_bin] == pytest.approx(15.0 / 7.0, rel=1e-12)
    assert out[spike_bin] == pytest.approx(np.mean(mag[61:68]), rel=1e-12)
    # the spike spreads to every bin whose window reaches bin 64, nowhere else
    assert np.all(out[1:61] == 1.0)
    assert np.all(out[spike_bin] >= out)


def test_smoothing_symmetry_and_edges():
    grid = FrequencyGrid(128, 16000.0)
    rng = np.random.default_rng(4)
    mag = rng.uniform(0.1, 2.0, 128)
    mag[65:] = mag[1:64][::-1]  # conjugate-symmetric layout
    out = fractional_octave_smooth(mag, grid)
    assert out[0] == mag[0]
    assert out[64] == mag[64]
    for l in range(1, 128):
        assert out[l] == out[128 - l]


def test_smoothing_monotone_and_bounded():
    grid = FrequencyGrid(256, 16000.0)
    rng = np.random.default_rng(5)
    base = rng.uniform(0.0, 1.0, 256)
    bigger = base + rng.uniform(0.0, 1.0, 256)
    s_base = fractional_octave_smooth(base, grid)
    s_bigger = fractional_octave_smooth(bigger, grid)
    assert np.all(s_bigger >= s_base - 1e-12)
    assert s_base.max() <= base.max() + 1e-12


def test_smoothing_rejects_bad_input():
    grid = FrequencyGrid(16, 16000.0)
    with pytest.raises(ValueError):
        fractional_octave_smooth(-np.ones(16), grid)
    with pytest.raises(ValueError):
        fractional_octave_smooth(np.ones(8), grid)
    with pytest.raises(ValueError):
        fractional_octave_smooth(np.full(16, np.inf), grid)
    with pytest.raises(ValueError):
        fractional_octave_smooth(np.ones(16), grid, fraction=0.0)


def per_bin_smooth(values, grid, fraction):
    """The per-bin loop that fractional_octave_smooth replaced, kept as its oracle."""
    v = np.asarray(values, dtype=float)
    n = grid.fft_size
    freqs = grid.frequencies_hz
    half_idx = n // 2
    edge = 2.0 ** (fraction / 2.0)
    out = v.copy()
    for l in range(1, (n + 1) // 2):
        lo = freqs[l] / edge
        hi = freqs[l] * edge
        k0 = max(int(np.searchsorted(freqs[: half_idx + 1], lo, side="left")), 1)
        k1 = int(np.searchsorted(freqs[: half_idx + 1], hi, side="right")) - 1
        out[l] = v[l] + np.mean(v[k0 : k1 + 1] - v[l])
        out[n - l] = out[l]
    return out


@settings(max_examples=80)
@given(
    fft_size=st.integers(2, 4096),
    fraction=st.sampled_from([1.0 / 3.0, 1.0 / 6.0, 1.0 / 24.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_smoothing_matches_per_bin_loop(fft_size, fraction, seed):
    grid = FrequencyGrid(fft_size, 16000.0)
    rng = np.random.default_rng(seed)
    # spectra spanning 60 dB, with some exact zeros
    mag = 10.0 ** rng.uniform(-3.0, 0.0, fft_size) * (rng.uniform(size=fft_size) > 0.1)
    expected = per_bin_smooth(mag, grid, fraction)
    gap = np.max(np.abs(fractional_octave_smooth(mag, grid, fraction) - expected))
    assert gap <= 4 * np.finfo(float).eps * np.max(np.abs(expected))

    flat = np.full(fft_size, rng.uniform(0.0, 10.0))
    assert np.array_equal(fractional_octave_smooth(flat, grid, fraction), flat)
