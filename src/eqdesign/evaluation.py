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
from .scenario import MeasurementSet, Scenario
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
    "SetScorer",
    "mean_distances",
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

    des is the desired response's magnitude on all of the grid's one-sided bins.
    A desired magnitude of 0 in the band, as under a dead forward path or a
    silent open ear, raises NumericsError.
    """
    weights, band = _band_weights(grid)
    vanishing = np.flatnonzero(des[band] == 0.0)
    if vanishing.size:
        bad = band.start + vanishing[0]
        raise NumericsError(
            f"desired response vanishes at {grid.frequencies_hz[bad]:.1f} Hz; distance undefined"
        )
    return weights, des[band], band


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


class SetScorer:
    """Auditory spectral distance of stacked filters on one set under one forward path.

    It holds what every filter scored there shares, on the grid's one-sided
    bins: the set's `spectra`, as design._set_spectra takes them, which are
    the leakage spectrum H_occ, the DFT of h_occ, the desired spectrum, and
    each loudspeaker's path spectrum P_n, the DFT of d_n * g * h_m; and the
    ERB weights and desired magnitudes of the band's bins.
    The aided spectrum of taps a_n is the sum of A_n P_n over the
    loudspeakers plus H_occ, where A_n is the DFT of a_n. No time response is
    formed: on a grid that holds the aided response, which `score` checks,
    this is its DFT, the linear convolution exactly. In floating point each
    aided magnitude lies within c·u·(Σ_n ‖a_n‖₁‖d_n‖₁‖g*h_m‖₁ + ‖h_occ‖₁) of
    the |rfft| of the aided impulse response, formed stage by stage in time,
    on the same bin, for unit roundoff u and a c set by the convolution
    lengths and log2 L_FFT; tests/test_evaluation.py derives it.
    """

    def __init__(self, ms: MeasurementSet, g: ImpulseResponse, grid: FrequencyGrid):
        self._ms, self._g, self._grid = ms, g, grid
        # a path response is the longest here, as long as a one-tap aided response
        _check_grid_holds(grid, ms, g, 1)
        self.spectra = _set_spectra(ms, g, grid, ms.num_loudspeakers)
        self._leakage, desired, *self._paths = self.spectra
        self._weights, self._desired_in_band, self._band = _in_band(np.abs(desired), grid)

    def score(self, coefficients) -> tuple[np.ndarray, np.ndarray]:
        """Aided magnitudes and distances in dB of a stack of designs.

        coefficients is a (designs x loudspeakers x taps) array. Returns the
        (designs x bins) aided magnitudes on all one-sided bins and the
        distance of each design. A design scores bit for bit alike alone or
        in any stack. Raises ValueError when the grid cannot hold the aided
        response of these taps, and NumericsError when finite taps drive it
        past the float range.
        """
        coef = self._checked(coefficients)
        return self._score_spectra(_tap_spectra(coef, self._grid))

    def _checked(self, coefficients) -> np.ndarray:
        """coefficients as a float array, once its shape and the grid fit this set."""
        coef = np.asarray(coefficients, dtype=float)
        if coef.ndim != 3 or coef.shape[1] != len(self._paths):
            raise ValueError(
                f"expected designs x {len(self._paths)} loudspeakers x taps, got shape {coef.shape}"
            )
        _check_grid_holds(self._grid, self._ms, self._g, coef.shape[2])
        return coef

    def _score_spectra(self, spectra: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """score, from the _tap_spectra of the checked designs."""
        with np.errstate(over="ignore", invalid="ignore"):
            aided = spectra[:, 0] * self._paths[0]
            for n in range(1, len(self._paths)):
                aided += spectra[:, n] * self._paths[n]
            aided += self._leakage
            aided = _finite("aided response", np.abs(aided))
        return aided, _band_distance(aided[:, self._band], self._weights, self._desired_in_band)


def _tap_spectra(coef: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """The one-sided spectra of a stack of designs' taps on the grid."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.fft.rfft(coef, grid.fft_size)


def mean_distances(scorers, coefficients) -> np.ndarray:
    """Mean distance in dB over the scorers' sets of each design in a stack.

    The scorers share one grid, so the taps are transformed once and every
    scorer scores that one transform, as its score would. Each design's
    mean is np.mean of its per-set distances bit for bit, as evaluate's
    mean_delta_h_aud_db takes it, in a stack of any size: the distances lie
    along a contiguous last axis, which np.mean sums as it sums a 1-D array.
    """
    coef = np.asarray(coefficients, dtype=float)
    for scorer in scorers:
        scorer._checked(coef)
    spectra = _tap_spectra(coef, scorers[0]._grid)
    distances = np.empty((len(coef), len(scorers)))
    for j, scorer in enumerate(scorers):
        distances[:, j] = scorer._score_spectra(spectra)[1]
    return distances.mean(axis=-1)


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
    # each spectrum once: the traces and the leakage ratio average the
    # scorers' own leakage and processed open-ear spectra
    distances, mags_aid, spectra = [], [], []
    for ms in scenario.sets:
        scorer = SetScorer(ms, g, grid)
        aided, distance = scorer.score(taps[None])
        distances.append(float(distance[0]))
        mags_aid.append(aided[0])
        spectra.append(scorer.spectra)
    with np.errstate(over="ignore"):
        mag_aid = _finite("set-averaged aided magnitude", np.mean(mags_aid, axis=0))
    mag_occ, mag_des = (np.mean([np.abs(s[row]) for s in spectra], axis=0) for row in (0, 1))
    ratio = _leakage_ratio(spectra)
    return EvaluationReport(
        tuple(distances),
        grid.frequencies_hz,
        _to_db(mag_aid),
        _to_db(mag_des),
        _to_db(mag_occ),
        ratio,
        weights_from_ratio(ratio, config.reg_beta, grid),
    )
