"""Headline guarantees of the toolkit, one test per claim.

Every test prints a PASS line once its assertions clear, so a plain pytest
run leaves a visible scoreboard (run with -s to see the lines on success).
"""

import math
import sys
from time import perf_counter

import numpy as np
import scipy.linalg

from eqdesign.design import DesignConfig, default_fft_size, design_filter
from eqdesign.evaluation import (
    SetScorer,
    erb_bandwidth_hz,
    erb_weights,
    evaluate,
    _band_distance,
    _in_band,
)
from eqdesign.scenario import (
    Scenario,
    SynthSpec,
    forward_path_ir,
    synth_scenario,
)
from eqdesign.signals import FrequencyGrid

from reference import _penalty_block, padded_rtf_system, staged_chain

RATE = 16000.0


def report(line: str) -> None:
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


def rel_residual(system, filt) -> float:
    matrix, target = system
    return float(
        np.linalg.norm(matrix @ filt.ravel() - target)
        / np.linalg.norm(target)
    )


def ridge_design(scene, g, filter_length, reg_lambda, fft_size=None):
    """design_filter's R_DELTA_LS taps without slack; the ridge does not depend on L_FFT."""
    config = DesignConfig(variant="R_DELTA_LS", filter_length=filter_length, acausal_delay=0,
                          reg_lambda=reg_lambda, reg_beta=1.0, fft_size=fft_size)
    return design_filter(scene, g, config)


def test_1_exact_inversion_with_coprime_speaker_pair():
    start = perf_counter()
    spec = SynthSpec(
        num_sets=1, num_loudspeakers=2, source_ir_length=12, speaker_ir_length=8,
        phase_family="co-prime-pair", leakage_attenuation_db=math.inf,
        reinsertion_level_db=None, correlation=1.0,
    )
    scene = synth_scenario(spec, seed=3)
    g = forward_path_ir(0.0, 0)

    filt = ridge_design(scene, g, 7, 1e-12)
    residual = rel_residual(padded_rtf_system(scene.sets[0], g, 7), filt)
    assert residual < 1e-6

    config = DesignConfig(variant="R_DELTA_LS", filter_length=7, acausal_delay=0,
                          reg_lambda=1e-12, reg_beta=1.0)
    delta = evaluate(scene, g, filt, config).delta_h_aud_db[0]
    assert delta < 0.01

    elapsed = perf_counter() - start
    assert elapsed < 1.0
    report(f"PASS [1/8] exact inversion with a co-prime pair: residual {residual:.3e}"
           f" < 1e-6, distance {delta:.3e} dB < 0.01, {elapsed:.3f} s < 1 s")


def test_2_acausal_delay_recovers_nonminimum_phase_scenes():
    wins = 0
    scores = {}
    for seed in range(10):
        spec = SynthSpec(num_sets=1, num_loudspeakers=1,
                         phase_family="non-minimum-phase", reinsertion_level_db=None)
        scene = synth_scenario(spec, seed=seed)
        g = forward_path_ir(0.0, 96)
        for d_h in (0, 32):
            config = DesignConfig(variant="R_DELTA_LS", filter_length=99,
                                  acausal_delay=d_h, reg_lambda=1e-8, reg_beta=1.0)
            filt = design_filter(scene, g, config)
            scores[d_h] = evaluate(scene, g, filt, config).delta_h_aud_db[0]
        wins += scores[32] < scores[0]
    assert wins >= 9

    # slack taps keep the inversion exact under a two-channel co-prime scene
    # even with 96 samples of processing delay
    spec = SynthSpec(
        num_sets=1, num_loudspeakers=2, source_ir_length=24, speaker_ir_length=16,
        phase_family="co-prime-pair", leakage_attenuation_db=math.inf,
        reinsertion_level_db=None, correlation=1.0,
    )
    scene = synth_scenario(spec, seed=0)
    g = forward_path_ir(0.0, 96)
    # a grid that holds the aided response under 96 samples of delay
    filt = ridge_design(scene, g, 15, 1e-12, fft_size=256)
    residual = rel_residual(padded_rtf_system(scene.sets[0], g, 15), filt)
    assert residual < 1e-6
    report(f"PASS [2/8] acausal slack helps: delay-32 beat delay-0 in {wins}/10"
           f" non-minimum-phase scenes; delayed-path residual {residual:.3e} < 1e-6")


def test_3_regularization_trades_residual_for_seminorm():
    spec = SynthSpec(num_sets=1, num_loudspeakers=1, reinsertion_level_db=None)
    scene = synth_scenario(spec, seed=0)
    ms = scene.sets[0]
    g = forward_path_ir(0.0, 0)
    matrix, target = padded_rtf_system(ms, g, 99)

    lambdas = (1e-8, 1e-4, 1e-2, 0.1, 1.0, 10.0)
    seminorms, residuals, distances = [], [], []
    for lam in lambdas:
        config = DesignConfig(variant="FR_DELTA_LS", filter_length=99,
                              acausal_delay=0, reg_lambda=lam, reg_beta=1.0)
        filt = design_filter(scene, g, config)
        result = evaluate(scene, g, filt, config)
        # the seminorm of the weight the design regularizes by, as eval reports it
        penalty = _penalty_block(result.weight_trace, 99, config.grid(scene).fft_size)
        a = filt.ravel()
        seminorms.append(float(np.sqrt(a @ penalty @ a)))
        residuals.append(float(np.linalg.norm(matrix @ a - target)))
        distances.append(result.delta_h_aud_db[0])

    for i in range(len(lambdas) - 1):
        assert seminorms[i + 1] <= seminorms[i] + 1e-10
        assert residuals[i + 1] >= residuals[i] - 1e-10
    assert distances[3] < distances[4] < distances[5]
    report("PASS [3/8] regularization path: seminorm non-increasing, residual"
           f" non-decreasing over lambda {lambdas[0]:g}..{lambdas[-1]:g};"
           f" distance grows {distances[3]:.4f} -> {distances[4]:.4f} ->"
           f" {distances[5]:.4f} dB once lambda reaches 0.1")


def test_4_flat_weights_reduce_to_ridge_and_solver_is_optimal():
    def weighted_design(ms, g, filter_length, acausal_delay, lam):
        """design_filter's FR_DELTA_LS taps and the block-diagonal penalty of eval's weight trace."""
        scene = Scenario((ms,), RATE)
        config = DesignConfig(variant="FR_DELTA_LS", filter_length=filter_length,
                              acausal_delay=acausal_delay, reg_lambda=lam, reg_beta=1.0)
        filt = design_filter(scene, g, config)
        w = evaluate(scene, g, filt, config).weight_trace
        block = _penalty_block(w, filter_length, config.grid(scene).fft_size)
        return filt.ravel(), scipy.linalg.block_diag(*[block] * ms.num_loudspeakers)

    spec = SynthSpec(num_sets=1, num_loudspeakers=2, source_ir_length=20,
                     speaker_ir_length=12, reinsertion_level_db=None)
    ms = synth_scenario(spec, seed=7).sets[0]
    # on the design's grid, flat weights make the weighted penalty the ridge's
    fft_size = default_fft_size(ms.speaker_length, 11)
    assert np.array_equal(_penalty_block(np.ones(fft_size // 2 + 1), 11, fft_size), np.eye(11))
    g = forward_path_ir(0.0, 8)
    m, t = padded_rtf_system(ms, g, 11, 4)
    lam = 0.1
    a, penalty = weighted_design(ms, g, 11, 4, lam)
    gradient = float(
        np.linalg.norm((m.T @ m + lam * penalty) @ a - m.T @ t)
        / np.linalg.norm(m.T @ t)
    )
    assert gradient <= 1e-8

    spec = SynthSpec(num_sets=1, num_loudspeakers=2, source_ir_length=10,
                     speaker_ir_length=6, reinsertion_level_db=None)
    small = synth_scenario(spec, seed=4).sets[0]
    g2 = forward_path_ir(6.0, 3)
    m2, t2 = padded_rtf_system(small, g2, 5, 2)
    worst = 0.0
    for lam in (1e-6, 1e-2, 1.0):
        got, penalty2 = weighted_design(small, g2, 5, 2, lam)
        chol = np.linalg.cholesky(penalty2 + 1e-15 * np.eye(10))
        stacked = np.vstack([m2, math.sqrt(lam) * chol.T])
        rhs = np.concatenate([t2, np.zeros(10)])
        oracle, _, _, _ = np.linalg.lstsq(stacked, rhs, rcond=None)
        worst = max(worst, float(np.max(np.abs(got - oracle))
                                 / max(np.max(np.abs(oracle)), 1.0)))
    assert worst <= 1e-9
    report("PASS [4/8] weighted solver: flat weights give exactly the ridge's identity penalty,"
           f" normal-equation gradient {gradient:.3e} <= 1e-8,"
           f" augmented-system oracle gap {worst:.3e} <= 1e-9")


def test_5_averaged_design_generalizes_across_reinsertions():
    start = perf_counter()
    outcome = {}
    for n_spk in (1, 2):
        spec = SynthSpec(num_sets=5, num_loudspeakers=n_spk,
                         reinsertion_level_db=-20.0)
        scene = synth_scenario(spec, seed=12)
        g = forward_path_ir(0.0, 96)
        kwargs = dict(filter_length=99, acausal_delay=32, reg_lambda=0.1,
                      reg_beta=1.0)
        robust_scores, single_scores = [], []
        for fold in range(scene.num_sets):
            train = tuple(ms for i, ms in enumerate(scene.sets) if i != fold)
            held_out = Scenario((scene.sets[fold],), RATE)
            robust = design_filter(
                Scenario(train, RATE), g,
                DesignConfig(variant="MFR_DELTA_LS", **kwargs),
            )
            single = design_filter(
                Scenario(train[:1], RATE), g,
                DesignConfig(variant="FR_DELTA_LS", **kwargs),
            )
            config = DesignConfig(variant="MFR_DELTA_LS", **kwargs)
            robust_scores.append(evaluate(held_out, g, robust, config).delta_h_aud_db[0])
            single_scores.append(evaluate(held_out, g, single, config).delta_h_aud_db[0])
        outcome[n_spk] = (float(np.mean(robust_scores)), float(np.mean(single_scores)))
        assert outcome[n_spk][0] <= outcome[n_spk][1]
    elapsed = perf_counter() - start
    assert elapsed < 60.0
    report("PASS [5/8] averaged design generalizes: held-out distance"
           f" {outcome[1][0]:.4f} <= {outcome[1][1]:.4f} dB (1 speaker),"
           f" {outcome[2][0]:.4f} <= {outcome[2][1]:.4f} dB (2 speakers),"
           f" {elapsed:.1f} s < 60 s")


def test_6_auditory_distance_is_calibrated():
    grid = FrequencyGrid(512, RATE)

    def distance(h_aid, h_des):
        """The band kernel that SetScorer and evaluate score with, on two responses."""
        weights, des, band = _in_band(np.abs(np.fft.rfft(h_des, grid.fft_size)), grid)
        return float(_band_distance(np.abs(np.fft.rfft(h_aid, grid.fft_size))[band], weights, des))

    rng = np.random.default_rng(0)
    h = rng.standard_normal(24)
    assert distance(h, h) == 0.0
    doubled = distance(2.0 * h, h)
    assert abs(doubled - 6.020599913279624) < 1e-9
    delayed = np.concatenate([np.zeros(9), h])
    assert abs(distance(delayed, h)) < 1e-9
    w = erb_weights(grid)
    assert abs(w.sum() - 1.0) < 1e-12
    assert abs(float(erb_bandwidth_hz(1000.0)) - 132.639) < 1e-9
    report("PASS [6/8] distance calibration: identity 0, doubling"
           f" {doubled:.12f} dB, delay-invariant, weights sum to 1,"
           " 132.639 Hz auditory bandwidth at 1 kHz")


def test_7_time_domain_simulation_matches_transfer_functions():
    spec = SynthSpec(num_sets=1, num_loudspeakers=2, reinsertion_level_db=None)
    scene = synth_scenario(spec, seed=2)
    ms = scene.sets[0]
    g = forward_path_ir(10.0, 96)
    config = DesignConfig(variant="MFR_DELTA_LS", filter_length=99,
                          acausal_delay=32, reg_lambda=0.1, reg_beta=1.0)
    filt = design_filter(scene, g, config)
    grid = config.grid(scene)
    scorer = SetScorer(ms, g, grid)
    aided, _ = scorer.score(filt[None])
    h_aid, h_des = staged_chain(ms, g, filt, [1.0])
    ref_aid = np.abs(np.fft.rfft(h_aid, grid.fft_size))
    ref_des = np.abs(np.fft.rfft(h_des, grid.fft_size))
    err_aid = float(np.max(np.abs(aided[0] - ref_aid)) / np.max(ref_aid))
    err_des = float(np.max(np.abs(np.abs(scorer.spectra[1]) - ref_des)) / np.max(ref_des))
    assert err_aid <= 1e-9
    assert err_des <= 1e-9
    report(f"PASS [7/8] scored spectra agree with the staged time-domain chain:"
           f" aided {err_aid:.3e}, desired {err_des:.3e}, both <= 1e-9")


def test_8_forward_gain_rescales_leakage_ratio():
    spec = SynthSpec(num_sets=1, num_loudspeakers=1, reinsertion_level_db=None)
    scene = synth_scenario(spec, seed=6)
    # the README default operating point
    config = DesignConfig(variant="MFR_DELTA_LS", filter_length=99, acausal_delay=32,
                          reg_lambda=0.1, reg_beta=1.0)
    silent = np.zeros((1, 99))
    ratios = {}
    for gain_db in (0.0, 10.0, 20.0):
        g = forward_path_ir(gain_db, 0)
        ratios[gain_db] = evaluate(scene, g, silent, config).leakage_ratio
    err10 = float(np.max(np.abs(ratios[10.0] / ratios[0.0] - 10.0 ** -0.5)))
    err20 = float(np.max(np.abs(ratios[20.0] / ratios[0.0] - 0.1)))
    assert err10 <= 1e-10
    assert err20 <= 1e-10
    report("PASS [8/8] forward gain rescales the leakage ratio:"
           f" +10 dB -> 10^-1/2 (err {err10:.2e}), +20 dB -> 10^-1"
           f" (err {err20:.2e}), both <= 1e-10")
