"""Auditory-band distance, transfer-function probes, and the report."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqdesign.design import DesignConfig, EqualizerFilter, design_filter, frequency_weights
from eqdesign.evaluation import (
    aided_tf,
    auditory_spectral_distance,
    desired_tf,
    erb_bandwidth_hz,
    erb_weights,
    evaluate,
    simulate,
)
from eqdesign.scenario import (
    MeasurementSet,
    SynthSpec,
    forward_path_ir,
    synth_scenario,
)
from eqdesign.signals import FrequencyGrid, ImpulseResponse

RATE = 16000.0
DELTA_G = forward_path_ir(0.0, 0, RATE)


def ir(values):
    return ImpulseResponse(np.asarray(values, dtype=float), RATE)


def make_set(h_m, h_open, h_occ, d):
    return MeasurementSet(ir(h_m), ir(h_open), ir(h_occ), tuple(ir(dn) for dn in d))


def scene(seed=0, **overrides):
    fields = dict(num_sets=1, num_loudspeakers=1, source_ir_length=12,
                  speaker_ir_length=8, reinsertion_level_db=None)
    fields.update(overrides)
    return synth_scenario(SynthSpec(**fields), seed=seed)


# ---------------------------------------------------------------------------
# auditory weighting


def test_erb_bandwidth_values():
    assert abs(float(erb_bandwidth_hz(1000.0)) - 132.639) < 1e-9
    assert abs(float(erb_bandwidth_hz(0.0)) - 24.7) < 1e-12
    assert np.all(np.diff(erb_bandwidth_hz(np.linspace(0, 8000, 50))) > 0)


def test_erb_weights_normalization_and_support():
    grid = FrequencyGrid(1024, RATE)
    w = erb_weights(grid)
    freqs = grid.frequencies_hz
    assert w.shape == (513,)  # one weight per bin from 0 Hz to Nyquist
    assert abs(w.sum() - 1.0) < 1e-12
    in_band = (freqs >= 200.0) & (freqs <= 8000.0)
    assert np.all(w[in_band] > 0)
    assert np.all(w[~in_band] == 0.0)
    positive = w[in_band]
    assert np.all(np.diff(positive) < 0)  # wider auditory bands weigh less per bin


def two_sided_erb_weights(n, rate, f_low_hz, f_up_hz):
    """The two-sided erb_weights that the one-sided one replaced."""
    freqs = np.arange(n) * (rate / n)
    band = (freqs >= f_low_hz) & (freqs <= f_up_hz)
    band[n // 2 + 1 :] = False
    w = np.zeros(n)
    w[band] = 1.0 / erb_bandwidth_hz(freqs[band])
    w /= w[band].sum()
    return w


@settings(max_examples=80)
@given(
    # bins at most 250 Hz apart, so every band of 500 Hz or more holds one
    fft_size=st.integers(64, 4096),
    f_low_hz=st.floats(20.0, 2000.0),
    f_up_hz=st.floats(2500.0, 8000.0),
)
def test_erb_weights_match_two_sided_formula(fft_size, f_low_hz, f_up_hz):
    for n in (fft_size, fft_size + 1):  # an even and an odd size, in some order
        w = erb_weights(FrequencyGrid(n, RATE), f_low_hz, f_up_hz)
        expected = two_sided_erb_weights(n, RATE, f_low_hz, f_up_hz)[: n // 2 + 1]
        assert np.array_equal(w, expected)


def test_erb_weights_rejects_bad_bands():
    grid = FrequencyGrid(64, RATE)
    with pytest.raises(ValueError, match="Nyquist"):
        erb_weights(grid, 200.0, 9000.0)
    with pytest.raises(ValueError, match="f_low"):
        erb_weights(grid, 0.0, 8000.0)
    with pytest.raises(ValueError, match="no grid bins"):
        erb_weights(FrequencyGrid(4, RATE), 200.0, 3000.0)


def test_distance_identities():
    grid = FrequencyGrid(256, RATE)
    rng = np.random.default_rng(3)
    h = rng.standard_normal(20)
    assert auditory_spectral_distance(h, h, grid) == 0.0
    assert abs(auditory_spectral_distance(2.0 * h, h, grid)
               - 6.020599913279624) < 1e-9
    for alpha in (0.25, 3.0):
        got = auditory_spectral_distance(alpha * h, h, grid)
        assert abs(got - abs(20.0 * math.log10(alpha))) < 1e-9
    both = auditory_spectral_distance(5.0 * h, 5.0 * h, grid)
    assert both == 0.0


def test_distance_ignores_pure_delay():
    grid = FrequencyGrid(256, RATE)
    rng = np.random.default_rng(4)
    h = rng.standard_normal(20)
    ref = rng.standard_normal(20)
    base = auditory_spectral_distance(h, ref, grid)
    shifted = np.concatenate([np.zeros(7), h])
    assert abs(auditory_spectral_distance(shifted, ref, grid) - base) < 1e-9


def test_distance_degenerate_inputs():
    grid = FrequencyGrid(256, RATE)
    h = np.array([1.0, 0.5, 0.25, 0.125])  # no nulls on the unit circle
    with pytest.raises(ValueError, match="Hz"):
        auditory_spectral_distance(h, np.zeros(4), grid)
    assert auditory_spectral_distance(np.zeros(4), h, grid) == math.inf


# ---------------------------------------------------------------------------
# transfer functions


def test_aided_tf_zero_filter_is_leakage():
    ms = scene(seed=1).sets[0]
    filt = EqualizerFilter(np.zeros((1, 5)))
    h_aid = aided_tf(ms, DELTA_G, filt)
    expected = np.zeros(h_aid.size)
    expected[:12] = ms.h_occ.samples
    assert np.array_equal(h_aid, expected)


def test_aided_tf_identity_chain():
    ms = make_set([1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [[1.0, 0.0]])
    filt = EqualizerFilter(np.array([[1.0, 0.0]]))
    h_aid = aided_tf(ms, DELTA_G, filt)
    assert h_aid[0] == 1.0 and np.all(h_aid[1:] == 0.0)


def test_aided_tf_agrees_with_impulse_probe():
    ms = scene(seed=2, num_loudspeakers=2).sets[0]
    g = forward_path_ir(4.0, 3, RATE)
    rng = np.random.default_rng(5)
    filt = EqualizerFilter(rng.standard_normal((2, 6)))
    h_aid = aided_tf(ms, g, filt)
    probe, _ = simulate(ms, g, filt, np.array([1.0]))
    assert np.max(np.abs(h_aid - probe)) < 1e-12 * np.max(np.abs(h_aid))


def test_desired_tf():
    ms = scene(seed=3).sets[0]
    assert np.array_equal(desired_tf(ms, DELTA_G), ms.h_open.samples)
    g = forward_path_ir(6.0, 5, RATE)
    h_des = desired_tf(ms, g)
    gain = 10.0 ** (6.0 / 20.0)
    assert np.allclose(h_des, np.concatenate([np.zeros(5), gain * ms.h_open.samples]),
                       atol=1e-15)
    grid = FrequencyGrid(128, RATE)
    mag = np.abs(np.fft.fft(h_des, 128))
    product = np.abs(np.fft.fft(g.samples, 128)) * np.abs(np.fft.fft(ms.h_open.samples, 128))
    assert np.max(np.abs(mag - product)) < 1e-12 * np.max(product)


def test_simulate_matches_convolution():
    ms = scene(seed=4, num_loudspeakers=2).sets[0]
    g = forward_path_ir(2.0, 7, RATE)
    rng = np.random.default_rng(6)
    filt = EqualizerFilter(rng.standard_normal((2, 5)))
    stimulus = rng.standard_normal(400)
    aided, desired = simulate(ms, g, filt, stimulus)
    ref_aid = np.convolve(aided_tf(ms, g, filt), stimulus)
    ref_des = np.convolve(desired_tf(ms, g), stimulus)
    assert np.max(np.abs(aided - ref_aid)) < 1e-9 * np.max(np.abs(ref_aid))
    assert np.max(np.abs(desired - ref_des)) < 1e-9 * np.max(np.abs(ref_des))


def test_simulate_silent_device_and_sealed_vent():
    ms = make_set([1.0, 0.2], [0.9, 0.1], [0.0, 0.0], [[1.0, 0.3]])
    filt = EqualizerFilter(np.zeros((1, 4)))
    aided, _ = simulate(ms, DELTA_G, filt, np.ones(16))
    assert np.all(aided == 0.0)


def test_simulate_input_validation():
    ms = scene(seed=5).sets[0]
    filt = EqualizerFilter(np.zeros((1, 4)))
    with pytest.raises(ValueError, match="stimulus"):
        simulate(ms, DELTA_G, filt, np.zeros((4, 4)))
    with pytest.raises(ValueError, match="stimulus"):
        simulate(ms, DELTA_G, filt, [])
    wide = EqualizerFilter(np.zeros((2, 4)))
    with pytest.raises(ValueError, match="drives 2 loudspeakers, scene has 1"):
        simulate(ms, DELTA_G, wide, np.ones(4))


# ---------------------------------------------------------------------------
# full report


def test_evaluate_report_contents():
    spec = SynthSpec(num_sets=3, num_loudspeakers=2, source_ir_length=12,
                     speaker_ir_length=8, reinsertion_level_db=-25.0)
    scn = synth_scenario(spec, seed=6)
    g = forward_path_ir(0.0, 8, RATE)
    config = DesignConfig(variant="MFR_DELTA_LS", filter_length=9, acausal_delay=4,
                          reg_lambda=0.1)
    filt = design_filter(scn, g, config)
    report = evaluate(scn, g, filt, config)

    n = config.fft_size or 64  # default_fft_size(8, 9) = 64
    assert len(report.delta_h_aud_db) == 3
    for trace in (report.frequencies_hz, report.mag_db_aid, report.mag_db_des,
                  report.mag_db_occ, report.leakage_ratio, report.weight_trace):
        assert trace.shape == (n // 2 + 1,)
        assert np.all(np.isfinite(trace))
    assert report.mean_delta_h_aud_db == pytest.approx(
        float(np.mean(report.delta_h_aud_db))
    )
    grid = FrequencyGrid(n, RATE)
    ratio, weights = frequency_weights(scn.sets, g, config.reg_beta, grid)
    assert np.array_equal(report.leakage_ratio, ratio)
    assert np.array_equal(report.weight_trace, weights)
    assert report.config == filt.config


def test_evaluate_zero_filter_shows_leakage_only():
    scn = scene(seed=7)
    config = DesignConfig(variant="R_DELTA_LS", filter_length=9, acausal_delay=0,
                          reg_lambda=1e-8)
    filt = EqualizerFilter(np.zeros((1, 9)))
    report = evaluate(scn, DELTA_G, filt, config)
    assert np.array_equal(report.mag_db_aid, report.mag_db_occ)


def test_evaluate_exact_inversion_scene():
    spec = SynthSpec(num_sets=1, num_loudspeakers=2, source_ir_length=12,
                     speaker_ir_length=8, phase_family="co-prime-pair",
                     leakage_attenuation_db=math.inf, reinsertion_level_db=None,
                     correlation=1.0)
    scn = synth_scenario(spec, seed=3)
    config = DesignConfig(variant="R_DELTA_LS", filter_length=7, acausal_delay=0,
                          reg_lambda=1e-12)
    filt = design_filter(scn, DELTA_G, config)
    report = evaluate(scn, DELTA_G, filt, config)
    assert report.delta_h_aud_db[0] < 0.01
