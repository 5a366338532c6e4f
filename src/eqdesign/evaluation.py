"""How close does the aided ear get to the open ear.

The headline number is an auditory-band spectral distance: the absolute
log-magnitude deviation between aided and desired responses, averaged over
frequency with weights proportional to the inverse equivalent rectangular
bandwidth, so every auditory band counts about equally no matter how many
DFT bins it spans.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .signals import FrequencyGrid, ImpulseResponse
from .scenario import Scenario
from .design import (
    DesignConfig,
    NumericsError,
    _check_grid_holds,
    _finite,
    _leakage_ratio,
    _set_spectra,
    weights_from_ratio,
)

__all__ = [
    "ERB_BAND_HZ",
    "EvaluationReport",
    "erb_bandwidth_hz",
    "erb_weights",
    "score_designs",
    "evaluate",
]

# keeps log-magnitude curves finite when a response truly vanishes
_MAG_FLOOR = 1e-300

# the bins, in Hz, that the auditory spectral distance weighs
ERB_BAND_HZ = (200.0, 8000.0)


def erb_bandwidth_hz(frequency_hz) -> np.ndarray:
    """Equivalent rectangular bandwidth of the auditory filter at a frequency."""
    f = np.asarray(frequency_hz, dtype=float)
    return 24.7 * (4.37 * f / 1000.0 + 1.0)


def erb_weights(grid: FrequencyGrid) -> np.ndarray:
    """Auditory-band weights on the grid's one-sided bins, summing to one.

    Only bins inside ERB_BAND_HZ get weight; the weight of a bin is the
    reciprocal of the ERB at its frequency, so densely packed low-frequency
    bands are not over-counted.
    """
    low, high = ERB_BAND_HZ
    if high > grid.sample_rate_hz / 2:
        raise ValueError(
            f"the band's upper edge {high} Hz exceeds the Nyquist frequency {grid.sample_rate_hz / 2}"
        )
    freqs = grid.frequencies_hz
    band = (freqs >= low) & (freqs <= high)
    if not np.any(band):
        raise ValueError("no grid bins fall inside the evaluation band")
    w = np.zeros(freqs.size)
    w[band] = 1.0 / erb_bandwidth_hz(freqs[band])
    w /= w[band].sum()
    return w


@functools.lru_cache(maxsize=8)
def _band_weights(grid: FrequencyGrid):
    """ERB weights of the weighted bins, and their slice.

    The weighted bins are one run, as the frequencies rise, so a stack of
    spectra sliced to them keeps each spectrum's bins contiguous. The weights
    are read-only because the cache hands them to every set scored on the grid.
    """
    w = erb_weights(grid)
    inside = np.flatnonzero(w)
    band = slice(inside[0], inside[-1] + 1)
    weights = w[band]
    weights.setflags(write=False)
    return weights, band


def _in_band(des: np.ndarray, grid: FrequencyGrid):
    """ERB weights and desired magnitudes of the weighted bins, and their slice.

    des is the desired response's magnitude on all of the grid's one-sided
    bins, or a stack of them along leading axes. A desired magnitude of 0 in
    the band, as under a dead forward path or a silent open ear, raises
    NumericsError naming the first such bin of the first response with one.
    """
    weights, band = _band_weights(grid)
    vanishing = np.argwhere(des[..., band] == 0.0)
    if vanishing.size:
        bad = band.start + vanishing[0, -1]
        raise NumericsError(
            f"desired response vanishes at {grid.frequencies_hz[bad]:.1f} Hz; distance undefined"
        )
    return weights, des[..., band], band


def _band_distance(aid, weights: np.ndarray, des: np.ndarray):
    """ERB-weighted mean of |20 log10(aid / des)| over the band's bins.

    aid holds one design's band magnitudes, or a stack of them along a
    leading axis; each design's mean sums along the last axis, as it would
    alone. A vanishing aided magnitude gives an infinite distance. A ratio of
    nonzero magnitudes that leaves the float range would give one too, so it
    raises NumericsError instead.
    """
    with np.errstate(divide="ignore", over="ignore"):
        ratio = aid / des
        deviation_db = 20.0 * np.log10(ratio)
    if np.isinf(ratio).any() or (ratio[aid > 0] == 0.0).any():
        raise NumericsError("aided-to-desired magnitude ratio left the float range")
    return np.sum(weights * np.abs(deviation_db), axis=-1)


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    """Per-set distances plus set-averaged traces on one grid's one-sided bins."""

    delta_h_aud_db: tuple[float, ...]
    frequencies_hz: np.ndarray
    mag_db_aid: np.ndarray
    mag_db_des: np.ndarray
    mag_db_occ: np.ndarray
    leakage_ratio: np.ndarray
    weight_trace: np.ndarray

    @property
    def mean_delta_h_aud_db(self) -> float:
        return float(np.mean(self.delta_h_aud_db))


def _to_db(mag: np.ndarray) -> np.ndarray:
    return 20.0 * np.log10(np.maximum(mag, _MAG_FLOOR))


def score_designs(spectra: np.ndarray, taps: np.ndarray, grid: FrequencyGrid) -> tuple[np.ndarray, np.ndarray]:
    """Aided magnitudes and auditory spectral distances of a stack of designs on a stack of sets.

    spectra is a design._set_spectra stack on the grid, sets x rows x bins:
    the leakage spectrum H_occ, the DFT of h_occ, the desired spectrum, and
    each loudspeaker's path spectrum P_n, the DFT of d_n * g * h_m. taps is a
    designs x N x taps array, and the first N path rows score it. Returns the
    sets x designs x bins aided magnitudes on all one-sided bins and the
    designs x sets distances in dB, the distances of a design along a
    contiguous last axis, which np.mean sums as it sums a 1-D array.

    The taps are transformed once. On a set, the aided spectrum of taps a_n
    is the sum of A_n P_n over the loudspeakers plus H_occ, where A_n is the
    DFT of a_n. No time response is formed: on a grid that holds the aided
    response, which the commands check on entry, this is its DFT, the linear
    convolution exactly. In floating point each aided magnitude lies within
    c·u·(Σ_n ‖a_n‖₁‖d_n‖₁‖g*h_m‖₁ + ‖h_occ‖₁) of the |rfft| of the aided
    impulse response, formed stage by stage in time, on the same bin, for
    unit roundoff u and a c set by the convolution lengths and log2 L_FFT;
    tests/test_evaluation.py derives it. A design scores bit for bit alike
    alone or in any stack, on a set alone or in any stack of sets.

    The sets are scored in order, each once its desired response is checked:
    a desired magnitude of 0 in the band, or finite taps that drive the aided
    response past the float range, raise NumericsError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        tap_spectra = np.fft.rfft(taps, grid.fft_size)
    aided = np.empty((len(spectra), len(taps), spectra.shape[-1]))
    distances = np.empty((len(taps), len(spectra)))
    for s, (leakage, desired, *paths) in enumerate(spectra):
        weights, des, band = _in_band(np.abs(desired), grid)
        with np.errstate(over="ignore", invalid="ignore"):
            response = tap_spectra[:, 0] * paths[0]
            for n in range(1, taps.shape[1]):
                response += tap_spectra[:, n] * paths[n]
            response += leakage
            aided[s] = _finite("aided response", np.abs(response))
        distances[:, s] = _band_distance(aided[s, :, band], weights, des)
    return aided, distances


def evaluate(
    scenario: Scenario,
    g: ImpulseResponse,
    taps: np.ndarray,
    config: DesignConfig,
) -> EvaluationReport:
    """Score a filter, its taps loudspeakers x L_A, against every measurement set of a scenario.

    delta_h_aud_db holds one distance per set; the magnitude traces, the
    leakage ratio and the weight trace are set averages, matching what the
    robust solver looks at. A grid too short for the aided response raises
    ValueError, and an aided response or set average past the float range
    raises NumericsError.
    """
    if len(taps) != scenario.num_loudspeakers:
        raise ValueError(f"filter drives {len(taps)} loudspeakers, scene has {scenario.num_loudspeakers}")
    grid = config.grid(scenario)
    _check_grid_holds(grid, scenario.sets[0], g, taps.shape[1])
    # each spectrum and set average once: the traces and the leakage ratio
    # share the averages of the scored stack's leakage and open-ear rows
    spectra = _set_spectra(scenario.sets, g, grid, scenario.num_loudspeakers)
    aided, distances = score_designs(spectra, taps[None], grid)
    with np.errstate(over="ignore"):
        mag_aid = _finite("set-averaged aided magnitude", np.mean(aided[:, 0], axis=0))
    mag_occ, mag_des = np.mean(np.abs(spectra[:, :2]), axis=0)
    ratio = _leakage_ratio(mag_occ, mag_des)
    return EvaluationReport(
        tuple(distances[0].tolist()),
        grid.frequencies_hz,
        _to_db(mag_aid),
        _to_db(mag_des),
        _to_db(mag_occ),
        ratio,
        weights_from_ratio(ratio, config.reg_beta, grid),
    )
