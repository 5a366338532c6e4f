"""Auditory-band distance, transfer-function probes, and the report."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqdesign import design, evaluation
from eqdesign.design import DesignConfig, _set_spectra, design_filter, weights_from_ratio
from eqdesign.evaluation import (
    ERB_BAND_HZ,
    _band_distance,
    _in_band,
    _to_db,
    erb_bandwidth_hz,
    erb_weights,
    evaluate,
    score_designs,
)
from eqdesign.scenario import (
    MeasurementSet,
    Scenario,
    SynthSpec,
    forward_path_ir,
    synth_scenario,
)
from eqdesign.signals import FrequencyGrid, ImpulseResponse

from reference import staged_chain

RATE = 16000.0
DELTA_G = forward_path_ir(0.0, 0)


def ir(values):
    return ImpulseResponse(np.asarray(values, dtype=float))


def make_set(h_m, h_open, h_occ, d):
    return MeasurementSet(ir(h_m), ir(h_open), ir(h_occ), tuple(ir(dn) for dn in d))


def magnitudes(h, grid):
    """|DFT| of the samples h on the grid's one-sided bins."""
    return np.abs(np.fft.rfft(h, grid.fft_size))


def distance(h_aid, h_des, grid):
    """The band distance of two responses, by the kernel that score_designs scores with."""
    weights, des, band = _in_band(magnitudes(h_des, grid), grid)
    return float(_band_distance(magnitudes(h_aid, grid)[band], weights, des))


def score_on_set(ms, g, grid, stack):
    """Aided magnitudes and distances of a stack of designs on one set, as score_designs gives them."""
    aided, distances = score_designs(_set_spectra([ms], g, grid, stack.shape[1]), stack, grid)
    return aided[0], distances[:, 0]


def aided_response(ms, g, coefficients):
    """The aided impulse response, formed stage by stage in time."""
    return staged_chain(ms, g, coefficients, [1.0])[0]


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


def test_erb_band_is_200_to_8000_hz_inclusive():
    assert ERB_BAND_HZ == (200.0, 8000.0)
    grid = FrequencyGrid(400, RATE)  # bins 40 Hz apart: 200 Hz is bin 5, 8000 Hz bin 200
    w = erb_weights(grid)
    assert np.array_equal(np.flatnonzero(w), np.arange(5, 201))


def two_sided_erb_weights(n, rate):
    """The two-sided erb_weights that the one-sided one replaced."""
    freqs = np.arange(n) * (rate / n)
    band = (freqs >= ERB_BAND_HZ[0]) & (freqs <= ERB_BAND_HZ[1])
    band[n // 2 + 1 :] = False
    w = np.zeros(n)
    w[band] = 1.0 / erb_bandwidth_hz(freqs[band])
    w /= w[band].sum()
    return w


@settings(max_examples=80)
@given(
    # bins at most 1500 Hz apart, so the 7800 Hz wide band holds some
    fft_size=st.integers(64, 4096),
    rate=st.floats(16000.0, 96000.0),
)
def test_erb_weights_match_two_sided_formula(fft_size, rate):
    for n in (fft_size, fft_size + 1):  # an even and an odd size, in some order
        w = erb_weights(FrequencyGrid(n, rate))
        expected = two_sided_erb_weights(n, rate)[: n // 2 + 1]
        assert np.array_equal(w, expected)


def test_erb_weights_rejects_bad_bands():
    with pytest.raises(ValueError, match="Nyquist"):
        erb_weights(FrequencyGrid(64, 8000.0))
    # the one positive bin sits at 8500 Hz, above the band
    with pytest.raises(ValueError, match="no grid bins"):
        erb_weights(FrequencyGrid(2, 17000.0))


def test_distance_identities():
    grid = FrequencyGrid(256, RATE)
    rng = np.random.default_rng(3)
    h = rng.standard_normal(20)
    assert distance(h, h, grid) == 0.0
    assert abs(distance(2.0 * h, h, grid)
               - 6.020599913279624) < 1e-9
    for alpha in (0.25, 3.0):
        got = distance(alpha * h, h, grid)
        assert abs(got - abs(20.0 * math.log10(alpha))) < 1e-9
    both = distance(5.0 * h, 5.0 * h, grid)
    assert both == 0.0


def test_distance_ignores_pure_delay():
    grid = FrequencyGrid(256, RATE)
    rng = np.random.default_rng(4)
    h = rng.standard_normal(20)
    ref = rng.standard_normal(20)
    base = distance(h, ref, grid)
    shifted = np.concatenate([np.zeros(7), h])
    assert abs(distance(shifted, ref, grid) - base) < 1e-9


def test_distance_degenerate_inputs():
    grid = FrequencyGrid(256, RATE)
    h = np.array([1.0, 0.5, 0.25, 0.125])  # no nulls on the unit circle
    with pytest.raises(design.NumericsError, match="vanishes at 250.0 Hz"):
        distance(h, np.zeros(4), grid)
    assert distance(np.zeros(4), h, grid) == math.inf
    # nonzero magnitudes whose ratio overflows or underflows give no distance
    for aid, des in ((1e300 * h, 1e-300 * h), (1e-300 * h, 1e300 * h)):
        with pytest.raises(design.NumericsError, match="left the float range"):
            distance(aid, des, grid)


# ---------------------------------------------------------------------------
# transfer functions, as score_designs takes them on the grid, and the signal chain


def test_aided_tf_zero_filter_is_leakage():
    ms = scene(seed=1).sets[0]
    grid = FrequencyGrid(64, RATE)
    aided, _ = score_on_set(ms, DELTA_G, grid, np.zeros((1, 1, 5)))
    assert np.array_equal(aided[0], magnitudes(ms.h_occ.samples, grid))


def test_aided_tf_identity_chain():
    ms = make_set([1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [[1.0, 0.0]])
    aided, _ = score_on_set(ms, DELTA_G, FrequencyGrid(8, RATE), np.array([[[1.0, 0.0]]]))
    assert np.array_equal(aided[0], np.ones(5))


def test_aided_tf_agrees_with_impulse_probe():
    ms = scene(seed=2, num_loudspeakers=2).sets[0]
    g = forward_path_ir(4.0, 3)
    coef = np.random.default_rng(5).standard_normal((2, 6))
    grid = FrequencyGrid(64, RATE)
    aided, _ = score_on_set(ms, g, grid, coef[None])
    probe = magnitudes(aided_response(ms, g, coef), grid)
    assert np.max(np.abs(aided[0] - probe)) < 1e-12 * np.max(probe)


def test_desired_tf():
    ms = scene(seed=3).sets[0]
    grid = FrequencyGrid(128, RATE)
    desired = _set_spectra([ms], DELTA_G, grid, 0)[0, 1]
    assert np.array_equal(desired, np.fft.rfft(ms.h_open.samples, 128))
    g = forward_path_ir(6.0, 5)
    mag = np.abs(_set_spectra([ms], g, grid, 0)[0, 1])
    gain = 10.0 ** (6.0 / 20.0)
    product = gain * magnitudes(ms.h_open.samples, grid)
    assert np.max(np.abs(mag - product)) < 1e-12 * np.max(product)


def test_simulate_matches_convolution():
    # the staged chain in time is the scored transfer functions times the stimulus
    ms = scene(seed=4, num_loudspeakers=2).sets[0]
    g = forward_path_ir(2.0, 7)
    rng = np.random.default_rng(6)
    coef = rng.standard_normal((2, 5))
    stimulus = rng.standard_normal(400)
    grid = FrequencyGrid(512, RATE)  # holds the aided output of 400 + 8 + 5 + 7 + 12 - 3 samples
    aided, _ = score_on_set(ms, g, grid, coef[None])
    out_aid, out_des = staged_chain(ms, g, coef, stimulus)
    drive = magnitudes(stimulus, grid)
    ref_aid, ref_des = aided[0] * drive, np.abs(_set_spectra([ms], g, grid, 0)[0, 1]) * drive
    assert np.max(np.abs(magnitudes(out_aid, grid) - ref_aid)) < 1e-9 * np.max(ref_aid)
    assert np.max(np.abs(magnitudes(out_des, grid) - ref_des)) < 1e-9 * np.max(ref_des)


def test_simulate_silent_device_and_sealed_vent():
    ms = make_set([1.0, 0.2], [0.9, 0.1], [0.0, 0.0], [[1.0, 0.3]])
    aided, distances = score_on_set(ms, DELTA_G, FrequencyGrid(16, RATE), np.zeros((1, 1, 4)))
    assert np.all(aided == 0.0)
    assert distances[0] == math.inf


def test_simulate_input_validation():
    # a filter file's taps are a loudspeakers x L_A matrix (cli._filter_from_dict),
    # and evaluate checks the loudspeaker count against the scene
    scn = scene(seed=5)
    config = DesignConfig(variant="MFR_DELTA_LS", acausal_delay=32, reg_lambda=0.1, reg_beta=1.0,
                          filter_length=4)
    wide = np.zeros((2, 4))
    with pytest.raises(ValueError, match="drives 2 loudspeakers, scene has 1"):
        evaluate(scn, DELTA_G, wide, config)
    two = scene(seed=5, num_loudspeakers=2)
    with pytest.raises(ValueError, match="drives 1 loudspeakers, scene has 2"):
        evaluate(two, DELTA_G, np.zeros((1, 4)), config)


# ---------------------------------------------------------------------------
# full report


def test_evaluate_report_contents():
    spec = SynthSpec(num_sets=3, num_loudspeakers=2, source_ir_length=12,
                     speaker_ir_length=8, reinsertion_level_db=-25.0)
    scn = synth_scenario(spec, seed=6)
    g = forward_path_ir(0.0, 8)
    config = DesignConfig(variant="MFR_DELTA_LS", filter_length=9, acausal_delay=4,
                          reg_lambda=0.1, reg_beta=1.0)
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
    leak = np.mean([magnitudes(ms.h_occ.samples, grid) for ms in scn.sets], axis=0)
    open_gain = np.mean([magnitudes(np.convolve(g.samples, ms.h_open.samples), grid)
                         for ms in scn.sets], axis=0)
    assert np.array_equal(report.leakage_ratio, leak / open_gain)
    assert np.array_equal(report.weight_trace, weights_from_ratio(leak / open_gain, 1.0, grid))


def test_evaluate_zero_filter_shows_leakage_only():
    scn = scene(seed=7)
    config = DesignConfig(variant="R_DELTA_LS", filter_length=9, acausal_delay=0,
                          reg_lambda=1e-8, reg_beta=1.0)
    filt = np.zeros((1, 9))
    report = evaluate(scn, DELTA_G, filt, config)
    assert np.array_equal(report.mag_db_aid, report.mag_db_occ)


def test_evaluate_exact_inversion_scene():
    spec = SynthSpec(num_sets=1, num_loudspeakers=2, source_ir_length=12,
                     speaker_ir_length=8, phase_family="co-prime-pair",
                     leakage_attenuation_db=math.inf, reinsertion_level_db=None,
                     correlation=1.0)
    scn = synth_scenario(spec, seed=3)
    config = DesignConfig(variant="R_DELTA_LS", filter_length=7, acausal_delay=0,
                          reg_lambda=1e-12, reg_beta=1.0)
    filt = design_filter(scn, DELTA_G, config)
    report = evaluate(scn, DELTA_G, filt, config)
    assert report.delta_h_aud_db[0] < 0.01


def test_evaluate_takes_each_spectrum_once(monkeypatch):
    # the README default scene and operating point
    scn = synth_scenario(SynthSpec(), seed=0)
    g = forward_path_ir(0.0, 96)
    config = DesignConfig(variant="MFR_DELTA_LS", filter_length=99, acausal_delay=32,
                          reg_lambda=0.1, reg_beta=1.0)
    filt = design_filter(scn, g, config)
    grid = FrequencyGrid(1024, RATE)  # default_fft_size(100, 99)

    def mean_db(responses):
        return _to_db(np.mean([magnitudes(h, grid) for h in responses], axis=0))

    desired = [np.convolve(g.samples, ms.h_open.samples) for ms in scn.sets]
    ratio = (np.mean([magnitudes(ms.h_occ.samples, grid) for ms in scn.sets], axis=0)
             / np.mean([magnitudes(h, grid) for h in desired], axis=0))
    calls, checks = [], []

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return rfft(a, *args, **kwargs)

    def counted_check(*args):
        checks.append(args[3])
        return check(*args)

    rfft, check = np.fft.rfft, evaluation._check_grid_holds
    monkeypatch.setattr(np.fft, "rfft", counted)
    monkeypatch.setattr(evaluation, "_check_grid_holds", counted_check)
    report = evaluate(scn, g, filt, config)
    # one transform of every set's h_occ, g*h_open and each loudspeaker's
    # d_n*g*h_m, each padded to the grid, and one of the taps; and one grid
    # check, at entry, for the filter's L_A
    assert calls == [(5, 4, 1024), (1, 2, 99)]
    assert checks == [99]
    monkeypatch.undo()
    # the aided response is never formed in time: its spectrum agrees with
    # the staged chain's to rounding
    aided = [aided_response(ms, g, filt) for ms in scn.sets]
    assert np.allclose(report.delta_h_aud_db, [
        distance(h_aid, h_des, grid) for h_aid, h_des in zip(aided, desired)
    ], rtol=0, atol=1e-9)
    assert np.allclose(report.mag_db_aid, mean_db(aided), rtol=0, atol=1e-9)
    assert np.array_equal(report.mag_db_des, mean_db(desired))
    assert np.array_equal(report.mag_db_occ, mean_db([ms.h_occ.samples for ms in scn.sets]))
    assert np.array_equal(report.leakage_ratio, ratio)
    assert np.array_equal(report.weight_trace, weights_from_ratio(ratio, config.reg_beta, grid))


def test_mean_distances_transforms_each_batch_once(monkeypatch):
    # the README default scene: five sets score one batch of three designs,
    # and the sweep's mean over the held-out sets is a mean over each row
    scn = synth_scenario(SynthSpec(), seed=0)
    g = forward_path_ir(0.0, 96)
    grid = FrequencyGrid(1024, RATE)  # default_fft_size(100, 99)
    spectra = _set_spectra(scn.sets, g, grid, 2)
    stack = 0.1 * np.random.default_rng(0).standard_normal((3, 2, 99))
    per_set = np.empty((3, len(spectra)))
    for j in range(len(spectra)):
        per_set[:, j] = score_designs(spectra[j : j + 1], stack, grid)[1][:, 0]
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return rfft(a, *args, **kwargs)

    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", counted)
    _, distances = score_designs(spectra, stack, grid)
    # one transform of the taps serves every set
    assert calls == [(3, 2, 99)]
    assert distances.tobytes() == per_set.tobytes()
    assert distances.mean(axis=-1).tobytes() == per_set.mean(axis=-1).tobytes()


# ---------------------------------------------------------------------------
# scoring stacks of designs in frequency


def stack_case(num_sets, loudspeakers, source_length, speaker_length, seed, leakless,
               gain_db, path_delay, taps, random_rows, tap_seed, fft_pad):
    """A scene, forward path, grid config and stack of designs.

    The set `leakless` (if not None) loses its leakage, so there the zero
    filter and the -0.0 taps, which the stack always holds, score inf. The
    other rows are random taps at scales from 1e-6 to 1e6. fft_pad "none"
    gives the shortest grid that holds the aided response, "pow2" the power
    of two above it, and "double" twice that.
    """
    spec = SynthSpec(num_sets=num_sets, num_loudspeakers=loudspeakers,
                     source_ir_length=source_length, speaker_ir_length=speaker_length,
                     reinsertion_level_db=-20.0)
    sets = list(synth_scenario(spec, seed).sets)
    if leakless is not None:
        sets[leakless] = dataclasses.replace(sets[leakless], h_occ=ir(np.zeros(source_length)))
    rng = np.random.default_rng(tap_seed)
    scales = 10.0 ** rng.uniform(-6.0, 6.0, size=(random_rows, 1, 1))
    rows = list(scales * rng.standard_normal((random_rows, loudspeakers, taps)))
    rows[rng.integers(0, len(rows) + 1):0] = [np.zeros((loudspeakers, taps))]
    rows[rng.integers(0, len(rows) + 1):0] = [np.full((loudspeakers, taps), -0.0)]
    need = speaker_length + taps + path_delay + source_length - 2
    pow2 = 1 << (need - 1).bit_length()
    fft_size = {"none": need, "pow2": pow2, "double": 2 * pow2}[fft_pad]
    config = DesignConfig(variant="MFR_DELTA_LS", acausal_delay=32, reg_lambda=0.1, reg_beta=1.0,
                          filter_length=taps, fft_size=max(fft_size, 2))
    return (Scenario(tuple(sets), RATE), forward_path_ir(gain_db, path_delay), config,
            np.array(rows))


@st.composite
def stack_cases(draw, fft_pads=("none", "pow2", "double")):
    num_sets = draw(st.integers(2, 9))
    return (
        num_sets, draw(st.integers(1, 3)), draw(st.integers(4, 16)), draw(st.integers(2, 12)),
        draw(st.integers(0, 1000)), draw(st.none() | st.integers(0, num_sets - 1)),
        draw(st.sampled_from([0.0, -6.0, 10.0])), draw(st.integers(0, 5)),
        draw(st.integers(1, 12)), draw(st.integers(1, 6)), draw(st.integers(0, 2**32 - 1)),
        draw(st.sampled_from(fft_pads)),
    )


@settings(max_examples=60, deadline=None)
@given(stack_cases())
# 8 or more sets, where a set mean taken across rows would sum in another order
@example((9, 3, 12, 8, 0, 4, 0.0, 2, 9, 6, 1, "pow2"))
@example((8, 2, 16, 12, 1, None, -6.0, 5, 12, 5, 2, "none"))
def test_a_stack_scores_each_design_as_alone_and_as_evaluate(case):
    scn, g, config, stack = stack_case(*case)
    grid = config.grid(scn)
    spectra = _set_spectra(scn.sets, g, grid, scn.num_loudspeakers)
    aided, distances = score_designs(spectra, stack, grid)
    means = distances.mean(axis=-1)
    for i, coef in enumerate(stack):
        aided_alone, alone = score_designs(spectra, stack[i : i + 1], grid)
        assert aided_alone.tobytes() == aided[:, i : i + 1].tobytes()
        assert alone.tobytes() == distances[i : i + 1].tobytes()
        assert alone.mean(axis=-1).tobytes() == means[i : i + 1].tobytes()
        report = evaluate(scn, g, coef, config)
        assert report.delta_h_aud_db == tuple(distances[i].tolist())
        assert np.float64(report.mean_delta_h_aud_db).tobytes() == means[i : i + 1].tobytes()
        if case[5] is not None and not coef.any():
            assert means[i] == math.inf


@settings(max_examples=40, deadline=None)
@given(stack_cases(fft_pads=("pow2", "double")))
@example((9, 3, 16, 12, 3, 0, 10.0, 5, 12, 6, 3, "pow2"))
def test_aided_magnitudes_agree_with_the_time_response_to_rounding(case):
    """Each aided magnitude lies within a first-order rounding bound of the staged chain's |rfft|.

    Both sides take the same t = g*h_m. Let y be the exact aided response
    from the taps a_n, the loudspeaker responses d_n (L_D taps), t (L_T
    taps) and h_occ, and S = Σ_n ‖a_n‖₁‖d_n‖₁‖t‖₁ + ‖h_occ‖₁, which bounds
    every |Y_k| and ‖y‖₁. With unit roundoff u and γ(m) = m·u/(1 − m·u)
    (Higham, ch. 3), a sum of at most m products errs by γ(m) times the sum
    of their magnitudes in any order; a complex product by √2·γ(2)
    (Lemma 3.5); a complex sum of m+1 terms by √2·γ(m) of the magnitudes;
    and |z| = l·√(1 + (s/l)²) by γ(4). A power-of-two FFT errs on each bin
    by at most φ·‖x‖₁, φ = log2(L_FFT)·η, η = μ + γ(4)(√2 + μ) with twiddle
    error μ = u (Thm 24.2, whose per-stage bound holds entry by entry, and
    one path joins each input to each output). To first order:

    - time: a_n*t γ(L_T), then d_n* γ(L_D), then N sums γ(N), all in ℓ1
      and so on every bin; then the FFT φ and |·| γ(4);
    - frequency: d_n*t γ(L_D) and its FFT φ, the taps' FFT φ, the product
      √2·γ(2), N complex sums √2·γ(N), and |·| γ(4).

    So |mag − |rfft(y)|| ≤ c·u·S, y the staged chain's impulse response, with
    c·u = 2γ(L_D) + γ(L_T) + (1 + √2)γ(N) + 3φ + √2·γ(2) + 2γ(4).
    """
    scn, g, config, stack = stack_case(*case)
    grid = config.grid(scn)
    u = np.finfo(float).eps / 2

    def gamma(m):
        return m * u / (1 - m * u)

    phi = math.log2(grid.fft_size) * (u + gamma(4) * (math.sqrt(2) + u))
    loudspeakers = stack.shape[1]
    for ms in scn.sets:
        t = np.convolve(g.samples, ms.h_m.samples)
        c_u = (2 * gamma(ms.speaker_length) + gamma(t.size) + (1 + math.sqrt(2)) * gamma(loudspeakers)
               + 3 * phi + math.sqrt(2) * gamma(2) + 2 * gamma(4))
        d_norms = np.array([np.abs(d_n.samples).sum() for d_n in ms.d])
        sizes = np.abs(stack).sum(axis=2) @ d_norms * np.abs(t).sum() + np.abs(ms.h_occ.samples).sum()
        bounds = c_u * sizes
        aided, _ = score_on_set(ms, g, grid, stack)
        for coef, mags, bound in zip(stack, aided, bounds):
            expected = magnitudes(aided_response(ms, g, coef), grid)
            assert np.max(np.abs(mags - expected)) <= bound


def test_scorer_refuses_taps_its_grid_cannot_hold():
    # evaluate checks the grid once, at entry, for the filter's own L_A
    scn = scene(seed=8, num_loudspeakers=2)
    g = forward_path_ir(0.0, 3)
    config = DesignConfig(variant="RLS", acausal_delay=0, reg_lambda=0.1, reg_beta=1.0,
                          filter_length=4, fft_size=25)
    # L_D + L_A + d_G + L_S − 2 = 8 + 4 + 3 + 12 − 2
    assert evaluate(scn, g, np.ones((2, 4)), config).mag_db_aid.shape == (13,)
    with pytest.raises(ValueError, match="^L_FFT 25 cannot hold the aided response at d_G 3 "
                       "and L_A 5: it has 26 samples, so L_FFT must be at least 26$"):
        evaluate(scn, g, np.ones((2, 5)), config)


def stacked_case(num_sets, loudspeakers, source, speaker, taps, path_delay, fft_size, fewer,
                 designs, seed):
    """Random sets, a forward path, a grid, a loudspeaker count up to N and a stack of designs."""
    rng = np.random.default_rng(seed)
    sets = [make_set(*rng.standard_normal((3, source)), rng.standard_normal((loudspeakers, speaker)))
            for _ in range(num_sets)]
    scales = 10.0 ** rng.uniform(-3.0, 3.0, size=(designs, 1, 1))
    stack = scales * rng.standard_normal((designs, loudspeakers, taps))
    g = forward_path_ir(rng.choice([0.0, -6.0, 10.0]), path_delay)
    return sets, g, FrequencyGrid(fft_size, RATE), fewer, stack


@st.composite
def stacked_cases(draw):
    """stacked_case arguments whose aided responses fit an odd or even grid, d_G up to the most it holds."""
    fft_size = draw(st.integers(4, 300))
    source, speaker = draw(st.integers(1, fft_size // 3)), draw(st.integers(1, fft_size // 3))
    taps = draw(st.integers(1, fft_size - source - speaker + 2))
    n_spk = draw(st.integers(1, 3))
    return (draw(st.integers(1, 6)), n_spk, source, speaker, taps,
            draw(st.integers(0, fft_size - source - speaker - taps + 2)), fft_size,
            draw(st.integers(1, n_spk)), draw(st.integers(1, 4)), draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=80, deadline=None)
@given(stacked_cases())
# the README default scene's lengths on its grid, and a forward path that fills an odd grid
@example((5, 2, 130, 100, 99, 96, 1024, 1, 2, 0))
@example((6, 3, 4, 5, 3, 5, 15, 2, 3, 1))
def test_stacked_spectra_and_scores_match_one_set_calls(case):
    # each row of the stack is the 1-D rfft of its response, and every
    # (design, set) distance is the one a one-design, one-set call gives, bit
    # for bit; a stack's first N loudspeaker rows score N-loudspeaker taps
    # as a stack of N rows does
    sets, g, grid, fewer, stack = stacked_case(*case)
    n_spk = stack.shape[1]
    spectra = _set_spectra(sets, g, grid, n_spk)
    assert spectra.shape == (len(sets), 2 + n_spk, grid.fft_size // 2 + 1)
    for ms, rows in zip(sets, spectra):
        through_mic = np.convolve(g.samples, ms.h_m.samples)
        responses = [ms.h_occ.samples, np.convolve(g.samples, ms.h_open.samples),
                     *(np.convolve(d_n.samples, through_mic) for d_n in ms.d)]
        for row, response in zip(rows, responses, strict=True):
            assert row.tobytes() == np.fft.rfft(response, grid.fft_size).tobytes()
    aided, distances = score_designs(spectra, stack, grid)
    assert aided.shape == (len(sets), len(stack), grid.fft_size // 2 + 1)
    assert distances.shape == (len(stack), len(sets))
    for i in range(len(stack)):
        for s in range(len(sets)):
            one_aided, one = score_designs(spectra[s : s + 1], stack[i : i + 1], grid)
            assert one_aided.tobytes() == aided[s : s + 1, i : i + 1].tobytes()
            assert one.tobytes() == distances[i : i + 1, s : s + 1].tobytes()
    narrow = stack[:, :fewer]
    sliced = score_designs(spectra, narrow, grid)
    own = score_designs(_set_spectra(sets, g, grid, fewer), narrow, grid)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(sliced, own))
