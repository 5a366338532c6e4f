"""How close does the aided ear get to the open ear.

The headline number is an auditory-band spectral distance: the absolute
log-magnitude deviation between aided and desired responses, averaged over
frequency with weights proportional to the inverse equivalent rectangular
bandwidth, so every auditory band counts about equally no matter how many
DFT bins it spans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import FrequencyGrid, ImpulseResponse, magnitude_response
from .scenario import MeasurementSet, Scenario
from .design import (
    DesignConfig,
    EqualizerFilter,
    _config_echo,
    _resolve_fft_size,
    frequency_weights,
)

__all__ = [
    "EvaluationReport",
    "erb_bandwidth_hz",
    "erb_weights",
    "auditory_spectral_distance",
    "aided_tf",
    "desired_tf",
    "simulate",
    "SetScorer",
    "set_distances",
    "evaluate",
]

# keeps log-magnitude curves finite when a response truly vanishes
_MAG_FLOOR = 1e-300


def erb_bandwidth_hz(frequency_hz) -> np.ndarray:
    """Equivalent rectangular bandwidth of the auditory filter at a frequency."""
    f = np.asarray(frequency_hz, dtype=float)
    return 24.7 * (4.37 * f / 1000.0 + 1.0)


def erb_weights(grid: FrequencyGrid, f_low_hz: float = 200.0, f_up_hz: float = 8000.0) -> np.ndarray:
    """Auditory-band weights on the grid's one-sided bins, summing to one.

    Only bins inside [f_low_hz, f_up_hz] get weight; the weight of a bin is
    the reciprocal of the ERB at its frequency, so densely packed
    low-frequency bands are not over-counted.
    """
    if not 0 < f_low_hz < f_up_hz:
        raise ValueError("need 0 < f_low_hz < f_up_hz")
    if f_up_hz > grid.sample_rate_hz / 2:
        raise ValueError(
            f"f_up_hz {f_up_hz} exceeds the Nyquist frequency {grid.sample_rate_hz / 2}"
        )
    freqs = grid.frequencies_hz
    band = (freqs >= f_low_hz) & (freqs <= f_up_hz)
    if not np.any(band):
        raise ValueError("no grid bins fall inside the evaluation band")
    w = np.zeros(freqs.size)
    w[band] = 1.0 / erb_bandwidth_hz(freqs[band])
    w /= w[band].sum()
    return w


def _in_band(h_des, grid: FrequencyGrid, f_low_hz: float, f_up_hz: float):
    """ERB weights and desired magnitudes of the weighted bins, and the bin mask."""
    des = magnitude_response(h_des, grid)
    w = erb_weights(grid, f_low_hz, f_up_hz)
    band = w > 0
    if np.any(des[band] == 0.0):
        bad = int(np.flatnonzero(band & (des == 0.0))[0])
        raise ValueError(
            f"desired response vanishes at {grid.frequencies_hz[bad]:.1f} Hz; distance undefined"
        )
    return w[band], des[band], band


def _band_distance(aid, weights: np.ndarray, des: np.ndarray) -> float:
    with np.errstate(divide="ignore"):
        deviation_db = 20.0 * np.log10(aid / des)
    return float(np.sum(weights * np.abs(deviation_db)))


def auditory_spectral_distance(
    h_aid,
    h_des,
    grid: FrequencyGrid,
    f_low_hz: float = 200.0,
    f_up_hz: float = 8000.0,
) -> float:
    """ERB-weighted mean absolute log-magnitude deviation, in dB.

    Zero means the aided response matches the desired one in magnitude at
    every weighted bin. The desired response must not vanish inside the
    band; a vanishing aided response yields an infinite distance.
    """
    weights, des, band = _in_band(h_des, grid, f_low_hz, f_up_hz)
    return _band_distance(magnitude_response(h_aid, grid)[band], weights, des)


def _check_filter(ms: MeasurementSet, filt: EqualizerFilter) -> None:
    if filt.num_loudspeakers != ms.num_loudspeakers:
        raise ValueError(
            f"filter drives {filt.num_loudspeakers} loudspeakers, scene has {ms.num_loudspeakers}"
        )


def aided_tf(ms: MeasurementSet, g: ImpulseResponse, filt: EqualizerFilter) -> np.ndarray:
    """Aided-ear impulse response: equalized playback plus vent leakage."""
    _check_filter(ms, filt)
    return _aided(ms, np.convolve(g.samples, ms.h_m.samples), filt.coefficients)


def _aided(ms: MeasurementSet, through_mic: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    total = None
    for d_n, a_n in zip(ms.d, coefficients):
        term = np.convolve(np.convolve(d_n.samples, a_n), through_mic)
        total = term if total is None else total + term
    total[: len(ms.h_occ)] += ms.h_occ.samples
    return total


def desired_tf(ms: MeasurementSet, g: ImpulseResponse) -> np.ndarray:
    """Open-ear response seen through the forward-path processing."""
    return np.convolve(g.samples, ms.h_open.samples)


def simulate(ms: MeasurementSet, g: ImpulseResponse, filt: EqualizerFilter, stimulus):
    """Run a stimulus through the aided and the desired signal chains.

    Returns (aided, desired) time signals. The aided chain is built stage by
    stage (microphone pickup, forward path, per-loudspeaker filtering and
    playback, plus leakage), which makes this an independent cross-check of
    aided_tf rather than a convolution with it.
    """
    _check_filter(ms, filt)
    s = np.asarray(stimulus, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("stimulus must be a non-empty 1-D sequence")
    picked_up = np.convolve(ms.h_m.samples, s)
    driven = np.convolve(g.samples, picked_up)
    aided = None
    for d_n, a_n in zip(ms.d, filt.coefficients):
        played = np.convolve(d_n.samples, np.convolve(a_n, driven))
        aided = played if aided is None else aided + played
    leak = np.convolve(ms.h_occ.samples, s)
    aided[: leak.size] += leak
    desired = np.convolve(g.samples, np.convolve(ms.h_open.samples, s))
    return aided, desired


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
    config: dict

    @property
    def mean_delta_h_aud_db(self) -> float:
        return float(np.mean(self.delta_h_aud_db))


def _to_db(mag: np.ndarray) -> np.ndarray:
    return 20.0 * np.log10(np.maximum(mag, _MAG_FLOOR))


def _grid(scenario: Scenario, config: DesignConfig) -> FrequencyGrid:
    return FrequencyGrid(
        _resolve_fft_size(config, scenario.sets[0].speaker_length), scenario.sample_rate_hz
    )


class SetScorer:
    """Auditory spectral distance of any filter on one set under one forward path.

    It holds what every filter scored there shares: the microphone pickup
    through g, the ERB weights and the in-band desired magnitudes. Calling it
    on a (loudspeakers x taps) coefficient array gives the distance in dB,
    bit for bit what auditory_spectral_distance gives on aided_tf and
    desired_tf.
    """

    def __init__(self, ms: MeasurementSet, g: ImpulseResponse, grid: FrequencyGrid):
        self._ms = ms
        self._grid = grid
        self._through_mic = np.convolve(g.samples, ms.h_m.samples)
        self._weights, self._desired, self._band = _in_band(
            desired_tf(ms, g), grid, 200.0, 8000.0
        )

    def __call__(self, coefficients: np.ndarray) -> float:
        aid = magnitude_response(_aided(self._ms, self._through_mic, coefficients), self._grid)
        return _band_distance(aid[self._band], self._weights, self._desired)


def set_distances(
    scenario: Scenario,
    g: ImpulseResponse,
    filt: EqualizerFilter,
    config: DesignConfig,
) -> tuple[float, ...]:
    """Auditory spectral distance of the filter on each measurement set, in dB.

    The grid is the one the config resolves for the scenario. This is the
    scoring part of evaluate alone, without its spectral traces.
    """
    for ms in scenario.sets:
        _check_filter(ms, filt)
    grid = _grid(scenario, config)
    return tuple(SetScorer(ms, g, grid)(filt.coefficients) for ms in scenario.sets)


def evaluate(
    scenario: Scenario,
    g: ImpulseResponse,
    filt: EqualizerFilter,
    config: DesignConfig,
) -> EvaluationReport:
    """Score a filter against every measurement set of a scenario.

    delta_h_aud_db holds one distance per set; the magnitude traces, the
    leakage ratio and the weight trace are set averages, matching what the
    robust solver looks at.
    """
    distances = set_distances(scenario, g, filt, config)
    grid = _grid(scenario, config)
    mags_aid = [magnitude_response(aided_tf(ms, g, filt), grid) for ms in scenario.sets]
    mags_des = [magnitude_response(desired_tf(ms, g), grid) for ms in scenario.sets]
    mags_occ = [magnitude_response(ms.h_occ.samples, grid) for ms in scenario.sets]
    ratio, weights = frequency_weights(scenario.sets, g, config.reg_beta, grid)
    return EvaluationReport(
        distances,
        grid.frequencies_hz,
        _to_db(np.mean(mags_aid, axis=0)),
        _to_db(np.mean(mags_des, axis=0)),
        _to_db(np.mean(mags_occ, axis=0)),
        ratio,
        weights,
        _config_echo(config, scenario),
    )
