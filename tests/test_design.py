"""Design systems, regularization weights, and the solvers."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eqdesign.design import (
    NORMAL_RCOND,
    RANK_RTOL,
    VARIANTS,
    DesignConfig,
    NumericsError,
    assemble_atf_system,
    default_fft_size,
    design_filter,
    design_points,
    solve_ls_atf,
    weights_from_ratio,
    _factor_normal_matrix,
    _fit_rtf,
    _leakage_ratio,
    _penalty_lags,
    _rtf_path,
    _rtf_target,
    _set_spectra,
    _solve_factored,
    _spectral_rcond_bound,
    _speaker_matrix,
    _through_mic,
)
from eqdesign.scenario import (
    PHASE_FAMILIES,
    MeasurementSet,
    Scenario,
    SynthSpec,
    ValidationError,
    forward_path_ir,
    select_loudspeakers,
    synth_scenario,
)
from eqdesign.evaluation import ERB_BAND_HZ, evaluate
from eqdesign.signals import FrequencyGrid, ImpulseResponse, convolution_matrix

from reference import _penalty_block, padded_rtf_system

RATE = 16000.0
DELTA_G = forward_path_ir(0.0, 0)
# perfbench's long scene
LONG_SPEC = SynthSpec(num_sets=3, num_loudspeakers=2, source_ir_length=256, speaker_ir_length=200)


def ir(values):
    return ImpulseResponse(np.asarray(values, dtype=float))


def delta_set(h_open, h_occ=None, d=((1.0,),)):
    """Identity microphone path with explicit open/occluded responses."""
    h_open = np.asarray(h_open, dtype=float)
    h_m = np.zeros_like(h_open)
    h_m[0] = 1.0
    if h_occ is None:
        h_occ = np.zeros_like(h_open)
    return MeasurementSet(ir(h_m), ir(h_open), ir(h_occ), tuple(ir(dn) for dn in d))


def rtf_target(ms, g, filter_length, shift):
    """The RTF target that the design fits for one set."""
    return _rtf_target(ms, g, filter_length, shift, _rtf_path(_through_mic(ms, g)))


def design(ms, g, variant, filter_length, shift=0, reg_lambda=0.1, reg_beta=1.0):
    """design_filter's taps on the one set ms, stacked as the padded system's unknowns."""
    config = DesignConfig(variant=variant, filter_length=filter_length, acausal_delay=shift,
                          reg_lambda=reg_lambda, reg_beta=reg_beta)
    return design_filter(Scenario((ms,), RATE), g, config).ravel()


def small_scene(seed, **overrides):
    fields = dict(
        num_sets=1, num_loudspeakers=2, source_ir_length=10, speaker_ir_length=8,
        reinsertion_level_db=None,
    )
    fields.update(overrides)
    return synth_scenario(SynthSpec(**fields), seed=seed)


# ---------------------------------------------------------------------------
# configuration


def test_default_fft_size():
    assert default_fft_size(100, 99) == 1024
    assert default_fft_size(64, 65) == 512  # exact powers of two stay put
    assert default_fft_size(1, 1) == 4
    assert default_fft_size(2, 1) == 8


# the four settings every command passes
SETTINGS = dict(variant="MFR_DELTA_LS", acausal_delay=32, reg_lambda=0.1, reg_beta=1.0)


def test_design_config_defaults():
    # only what a command may leave out has a default: a sweep grid's L_A and L_FFT
    c = DesignConfig(**SETTINGS)
    assert (c.filter_length, c.fft_size) == (99, None)
    for name in SETTINGS:
        with pytest.raises(TypeError, match=name):
            DesignConfig(**{k: v for k, v in SETTINGS.items() if k != name})


def test_design_config_validation():
    with pytest.raises(ValueError, match="variant"):
        DesignConfig(**{**SETTINGS, "variant": "WIENER"})
    with pytest.raises(ValueError, match="does not take an acausal delay"):
        DesignConfig(**{**SETTINGS, "variant": "LS_ATF", "acausal_delay": 5})
    with pytest.raises(ValueError, match="filter_length"):
        DesignConfig(**SETTINGS, filter_length=0)
    for not_whole in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="filter_length"):
            DesignConfig(**SETTINGS, filter_length=not_whole)
    with pytest.raises(ValueError, match="reg_lambda"):
        DesignConfig(**{**SETTINGS, "reg_lambda": -1.0})
    with pytest.raises(ValueError, match="reg_beta"):
        DesignConfig(**{**SETTINGS, "reg_beta": 0.0})
    with pytest.raises(ValueError, match="fft_size"):
        DesignConfig(**SETTINGS, fft_size=1)


@pytest.mark.parametrize("fft_size", [None, 48, 65])
@pytest.mark.parametrize("rate", [RATE, 8000.0])
def test_design_config_grid(fft_size, rate):
    scene = small_scene(seed=6, sample_rate_hz=rate)
    config = DesignConfig(variant="R_DELTA_LS", filter_length=9, acausal_delay=4,
                          reg_lambda=0.1, reg_beta=1.0, fft_size=fft_size)
    grid = config.grid(scene)
    if fft_size is None:
        fft_size = default_fft_size(scene.sets[0].speaker_length, 9)
    assert grid == FrequencyGrid(fft_size, rate)
    if rate < 2 * ERB_BAND_HZ[1]:
        # design applies eval's rule, whose band does not fit under this Nyquist frequency
        with pytest.raises(ValueError, match="exceeds the Nyquist frequency"):
            design_filter(scene, forward_path_ir(0.0, 8), config)
    else:
        assert design_filter(scene, forward_path_ir(0.0, 8), config).shape == (2, 9)


# ---------------------------------------------------------------------------
# full-path system


def test_assemble_identity_paths():
    ms = delta_set([0.75], h_occ=[0.25])
    matrix, target = assemble_atf_system(ms, DELTA_G, 3)
    assert np.array_equal(matrix, np.eye(3))
    assert np.array_equal(target, [0.5, 0.0, 0.0])


def test_assemble_matches_direct_convolution():
    scene = small_scene(seed=0)
    ms = scene.sets[0]
    g = forward_path_ir(6.0, 3)
    L_A = 5
    matrix, _ = assemble_atf_system(ms, g, L_A)
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, L_A))
    predicted = matrix @ a.ravel()
    direct = np.zeros(matrix.shape[0])
    for n in range(2):
        chain = np.convolve(np.convolve(np.convolve(a[n], g.samples), ms.h_m.samples),
                            ms.d[n].samples)
        direct[: chain.size] += chain
    assert np.max(np.abs(predicted - direct)) < 1e-12 * np.max(np.abs(direct))


def test_assemble_shared_factor_makes_rank_deficient():
    ms = small_scene(seed=2).sets[0]
    matrix, _ = assemble_atf_system(ms, forward_path_ir(0.0, 4), 10)
    cols = matrix.shape[1]
    assert cols == 20
    assert np.linalg.matrix_rank(matrix) < cols


def test_solve_ls_atf_reads_off_open_response():
    h_open = [0.9, 0.3, -0.2, 0.1]
    taps = solve_ls_atf(*assemble_atf_system(delta_set(h_open), DELTA_G, 6), 6)
    assert np.allclose(taps, [[0.9, 0.3, -0.2, 0.1, 0.0, 0.0]], atol=1e-14)

    silent = assemble_atf_system(delta_set([0.0, 0.0]), DELTA_G, 4)
    assert np.allclose(solve_ls_atf(*silent, 4), 0.0, atol=1e-14)


def checker_ls_atf(ms, g, filter_length):
    """LS_ATF taps as perfbench's checker derives them: its matrix filled column by column."""
    pickup = np.convolve(g.samples, ms.h_m.samples)
    blocks = []
    for d_n in ms.d:
        chain = np.convolve(pickup, d_n.samples)
        block = np.zeros((chain.size + filter_length - 1, filter_length))
        for j in range(filter_length):
            block[j : j + chain.size, j] = chain
        blocks.append(block)
    matrix = np.hstack(blocks)
    target = np.zeros(matrix.shape[0])
    open_branch = np.convolve(g.samples, ms.h_open.samples)
    target[: open_branch.size] += open_branch
    target[: len(ms.h_occ)] -= ms.h_occ.samples
    coef = np.linalg.lstsq(matrix, target, rcond=1e-10)[0]
    return coef.reshape(ms.num_loudspeakers, filter_length)


@pytest.mark.parametrize("spec, seed, filter_length", [
    pytest.param(LONG_SPEC, 7, 200, id="long-scene-7"),
    pytest.param(SynthSpec(), 0, 99, id="readme-scene-0"),
])
@pytest.mark.parametrize("n_spk", [1, 2])
def test_ls_atf_taps_are_the_checkers_bit_for_bit(spec, seed, filter_length, n_spk):
    # at N 2 the taps are rounding-dominated: an exact row permutation of the
    # system moves them by their own size, so only the checker's exact
    # construction and the same gelsd call reproduce them
    scene = select_loudspeakers(synth_scenario(spec, seed), n_spk)
    g = forward_path_ir(0.0, 96)
    config = DesignConfig(variant="LS_ATF", filter_length=filter_length, acausal_delay=0,
                          reg_lambda=0.0, reg_beta=1.0)
    taps = design_filter(scene, g, config)
    assert taps.tobytes() == checker_ls_atf(scene.sets[0], g, filter_length).tobytes()


def test_solve_ls_atf_is_min_norm_optimum():
    ms = small_scene(seed=4).sets[0]
    matrix, target = assemble_atf_system(ms, forward_path_ir(0.0, 2), 10)
    a = solve_ls_atf(matrix, target, 10).ravel()
    base = np.linalg.norm(matrix @ a - target)

    rng = np.random.default_rng(7)
    for _ in range(1000):
        trial = a + rng.standard_normal(a.size) * rng.choice([1e-3, 1e-1, 1.0])
        assert np.linalg.norm(matrix @ trial - target) >= base - 1e-12

    pinv_sol = np.linalg.pinv(matrix) @ target
    assert np.max(np.abs(a - pinv_sol)) < 1e-9


# ---------------------------------------------------------------------------
# reduced system


def test_reduce_identity_mic_recovers_difference():
    h_open = [0.8, 0.4, 0.1]
    h_occ = [0.2, 0.0, -0.1]
    ms = delta_set(h_open, h_occ=h_occ, d=((1.0, 0.5),))
    # n_taps = 2 + 4 - 1 = 5
    expected = np.array([0.6, 0.4, 0.2, 0.0, 0.0])
    assert np.allclose(rtf_target(ms, DELTA_G, 4, 0), expected, atol=1e-12)

    expected2 = np.zeros(7)
    expected2[2:5] = [0.6, 0.4, 0.2]
    assert np.allclose(rtf_target(ms, DELTA_G, 4, 2), expected2, atol=1e-12)
    # the loudspeaker matrix meets the first 5 taps, and the last 2 meet zero rows
    matrix, _ = padded_rtf_system(ms, DELTA_G, 4, 2)
    assert np.array_equal(matrix[:5], _speaker_matrix(ms, 4))
    assert np.array_equal(matrix[5:], np.zeros((2, 4)))


def test_reduce_target_satisfies_normal_equations():
    ms = small_scene(seed=5).sets[0]
    g = forward_path_ir(3.0, 4)
    L_A, d_H = 6, 2
    target = rtf_target(ms, g, L_A, d_H)
    n_taps = 8 + L_A - 1 + d_H

    through = np.convolve(g.samples, ms.h_m.samples)
    lhs = scipy.linalg.convolution_matrix(through, n_taps, mode="full")
    v = np.zeros(lhs.shape[0])
    open_branch = np.convolve(g.samples, ms.h_open.samples)
    v[d_H : d_H + open_branch.size] += open_branch
    v[d_H : d_H + len(ms.h_occ)] -= ms.h_occ.samples
    gradient = lhs.T @ (lhs @ target - v)
    assert np.linalg.norm(gradient) < 1e-10 * np.linalg.norm(lhs.T @ v)


@settings(max_examples=200, deadline=None)
@given(n_spk=st.integers(1, 3), filter_length=st.integers(1, 40),
       speaker_length=st.integers(1, 60), shift=st.integers(0, 64),
       seed=st.integers(0, 2**32 - 1), long_scene=st.just(False))
@example(n_spk=2, filter_length=40, speaker_length=60, shift=0, seed=0, long_scene=False)
# the long perfbench scene at its design point: its RTF target under d_G 96
@example(n_spk=2, filter_length=200, speaker_length=200, shift=32, seed=7, long_scene=True)
def test_shift_free_normal_equations_match_the_zero_padded_ones(
        n_spk, filter_length, speaker_length, shift, seed, long_scene):
    if long_scene:
        ms = synth_scenario(LONG_SPEC, seed).sets[0]
        g = forward_path_ir(0.0, 96)
        target = rtf_target(ms, g, filter_length, shift)
    else:
        rng = np.random.default_rng(seed)

        def taps(n):
            return rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0, n)

        d = tuple(ir(taps(speaker_length)) for _ in range(n_spk))
        ms = MeasurementSet(ir([1.0]), ir([1.0]), ir([0.0]), d)
        g = DELTA_G
        target = taps(speaker_length + filter_length - 1 + shift)
    assert (ms.num_loudspeakers, ms.speaker_length) == (n_spk, speaker_length)
    rows = speaker_length + filter_length - 1
    # the loudspeaker matrix with shift zero rows below, lined up with the whole target
    padded = np.zeros((rows + shift, n_spk * filter_length))
    for n, d_n in enumerate(ms.d):
        padded[:rows, n * filter_length:(n + 1) * filter_length] = convolution_matrix(
            d_n.samples, filter_length)
    m = _speaker_matrix(ms, filter_length)
    assert np.array_equal(m, padded[:rows])
    assert np.array_equal(padded_rtf_system(ms, g, filter_length, shift)[0], padded)
    gram, rhs = m.T @ m, m.T @ target[:rows]
    padded_gram, padded_rhs = padded.T @ padded, padded.T @ target
    if shift == 0:
        assert np.array_equal(gram, padded_gram)
        assert np.array_equal(rhs, padded_rhs)
    else:
        # each is within gamma_k |M|ᵀ|M| (resp. |M|ᵀ|t|) of the exact sums, which agree
        k = rows + shift
        u = np.finfo(float).eps / 2
        gamma = k * u / (1 - k * u)
        assert np.all(np.abs(gram - padded_gram) <= 2 * gamma * (np.abs(m).T @ np.abs(m)))
        assert np.all(np.abs(rhs - padded_rhs) <= 2 * gamma * (np.abs(m).T @ np.abs(target[:rows])))


def test_reduce_mint_two_speaker_exact():
    ms = delta_set([1.0, 0.0], d=((1.0, 0.5), (1.0, -0.5)))
    matrix, target = padded_rtf_system(ms, DELTA_G, 1)
    assert np.allclose(target, [1.0, 0.0], atol=1e-12)
    taps = design(ms, DELTA_G, "R_DELTA_LS", 1, reg_lambda=1e-12)
    assert np.allclose(taps, [0.5, 0.5], atol=1e-8)
    assert np.linalg.norm(matrix @ taps - target) < 1e-8


def test_reduce_rejects_dead_forward_path():
    ms = small_scene(seed=1).sets[0]
    dead = ImpulseResponse(np.zeros(3))
    with pytest.raises(NumericsError,
                       match=r"rank deficient: .*s_min/s_max 0 .*spectral rcond bound 0\)"):
        design(ms, dead, "R_DELTA_LS", 4)


def test_rank_deficient_fit_names_its_singular_value_ratio():
    # a 14th-order zero at DC: alive, but rank deficient at 64 taps
    through_mic = np.poly(np.ones(14))
    ratio = np.linalg.cond(scipy.linalg.convolution_matrix(through_mic, 64)) ** -1
    assert 0 < ratio <= RANK_RTOL
    with pytest.raises(NumericsError) as info:
        _fit_rtf(_rtf_path(through_mic), np.ones(through_mic.size + 63), 64)
    assert f"s_min/s_max {ratio:.3g} " in str(info.value)
    assert "spectral rcond bound 0)" in str(info.value)


def dense_rtf_fit(ms, g, n_taps, d_H):
    """Convolution matrix and target of the RTF fit, with its dense lstsq solution."""
    through = np.convolve(g.samples, ms.h_m.samples)
    lhs = scipy.linalg.convolution_matrix(through, n_taps, mode="full")
    v = np.zeros(lhs.shape[0])
    open_branch = np.convolve(g.samples, ms.h_open.samples)
    v[d_H : d_H + open_branch.size] += open_branch
    v[d_H : d_H + len(ms.h_occ)] -= ms.h_occ.samples
    return lhs, np.linalg.lstsq(lhs, v, rcond=None)[0]


@settings(max_examples=60)
@given(
    phase_family=st.sampled_from(PHASE_FAMILIES),
    spectral_range_db=st.floats(0.0, 150.0),
    G0_db=st.floats(-40.0, 20.0),
    d_G=st.integers(0, 96),
    L_A=st.integers(1, 64),
    d_H=st.integers(0, 64),
    seed=st.integers(0, 1000),
)
def test_reduce_toeplitz_fit_matches_dense_lstsq(
    phase_family, spectral_range_db, G0_db, d_G, L_A, d_H, seed
):
    try:
        ms = small_scene(seed, phase_family=phase_family,
                         spectral_range_db=spectral_range_db).sets[0]
    except ValidationError:
        assume(False)  # no loudspeaker pair of this family exists at this range
    g = forward_path_ir(G0_db, d_G)
    target = rtf_target(ms, g, L_A, d_H)
    n_taps = ms.speaker_length + L_A - 1 + d_H
    lhs, expected = dense_rtf_fit(ms, g, n_taps, d_H)
    # the normal equations square the condition number of the fit; near
    # kappa 1 the rounding of either solver, up to about n_taps * eps, dominates
    rcond = np.linalg.cond(lhs) ** -2
    gap = np.max(np.abs(target - expected)) / np.max(np.abs(expected))
    assert gap <= 10 * np.finfo(float).eps * (1 / rcond + n_taps)


@pytest.mark.parametrize("L_A", [40, 64])
def test_reduce_ill_conditioned_fit_falls_back_to_lstsq(L_A):
    # (1 - z^-1)^4, a fourth-order zero at DC: rcond near 3e-9 at 40 taps
    h_m = np.array([1.0, -4.0, 6.0, -4.0, 1.0])
    h_open = np.array([0.8, 0.4, 0.1, 0.05, 0.0])
    ms = MeasurementSet(ir(h_m), ir(h_open), ir(np.zeros(5)), (ir([1.0]),))
    lhs, expected = dense_rtf_fit(ms, DELTA_G, L_A, 0)
    assert np.linalg.cond(lhs) ** -2 < NORMAL_RCOND
    assert np.array_equal(rtf_target(ms, DELTA_G, L_A, 0), expected)


@st.composite
def microphone_paths(draw):
    """Forward path through the microphone, zeros at radius 0.5 to 1, delayed and scaled.

    Returns the path and whether one of its zeros lies exactly on the unit circle.
    """
    taps, on_circle = np.ones(1), False
    for _ in range(draw(st.integers(0, 5))):
        r = draw(st.one_of(st.floats(0.5, 1.0), st.just(1.0)))
        on_circle |= r == 1.0
        if draw(st.booleans()):  # a real zero at r or -r
            factor = [1.0, -r * draw(st.sampled_from([1.0, -1.0]))]
        else:  # a conjugate pair
            factor = [1.0, -2.0 * r * math.cos(draw(st.floats(0.0, math.pi))), r * r]
        taps = np.convolve(taps, factor)
    gain = 10.0 ** (draw(st.floats(-40.0, 20.0)) / 20.0)
    return np.concatenate([np.zeros(draw(st.integers(0, 96))), gain * taps]), on_circle


@settings(max_examples=150, deadline=None)
@given(path=microphone_paths(), n_taps=st.integers(1, 64), seed=st.integers(0, 1000))
def test_spectral_guard_is_a_lower_bound_and_certifies_levinson(path, n_taps, seed):
    through_mic, on_circle = path
    lhs = scipy.linalg.convolution_matrix(through_mic, n_taps, mode="full")
    eigenvalues = np.linalg.eigvalsh(lhs.T @ lhs)
    bound = _spectral_rcond_bound(through_mic)
    assert bound <= eigenvalues[0] / eigenvalues[-1]
    # a target the path mostly explains, as an RTF fit's is, plus a residual
    rng = np.random.default_rng(seed)
    v = lhs @ rng.standard_normal(n_taps)
    v += 0.1 * np.std(v) * rng.standard_normal(v.size)
    target, _, _, singulars = np.linalg.lstsq(lhs, v, rcond=None)
    if on_circle:
        assert bound == 0.0
    if bound >= NORMAL_RCOND:
        rcond = np.linalg.cond(lhs) ** -2
        gap = np.max(np.abs(_fit_rtf(_rtf_path(through_mic), v, n_taps) - target)) / np.max(np.abs(target))
        assert gap <= 10 * np.finfo(float).eps * (1 / rcond + n_taps)
    elif singulars[-1] <= RANK_RTOL * singulars[0]:
        with pytest.raises(NumericsError, match="rank deficient"):
            _fit_rtf(_rtf_path(through_mic), v, n_taps)
    else:  # the dense fallback, bit for bit
        assert np.array_equal(_fit_rtf(_rtf_path(through_mic), v, n_taps), target)


@settings(max_examples=150, deadline=None)
@given(path=microphone_paths(), n_taps=st.integers(1, 64), seed=st.integers(0, 1000))
@example(path=(np.array([1.0, -0.878, 0.25]), False), n_taps=1, seed=290)
def test_levinson_fit_of_any_target_is_within_the_least_squares_bound(path, n_taps, seed):
    through_mic, _ = path
    assume(_spectral_rcond_bound(through_mic) >= NORMAL_RCOND)  # the Levinson path
    lhs = scipy.linalg.convolution_matrix(through_mic, n_taps, mode="full")
    # a target the path need not explain at all
    v = np.random.default_rng(seed).standard_normal(lhs.shape[0])
    target, _, _, singulars = np.linalg.lstsq(lhs, v, rcond=None)
    residual = np.linalg.norm(v - lhs @ target)
    # Least-squares perturbation theory bounds a solver's error by
    # eps * kappa * (||x|| + kappa * ||r|| / ||C||) when it is backward stable
    # (lstsq) and by eps * kappa^2 * (||x|| + ||r|| / ||C||) when it solves the
    # normal equations (Levinson); the residual term is what a near-cancelling
    # right-hand side needs. The constant 10 and the n_taps rounding floor are
    # those of the explained-target bound above.
    kappa_squared = (singulars[0] / singulars[-1]) ** 2
    gap = np.linalg.norm(_fit_rtf(_rtf_path(through_mic), v, n_taps) - target)
    bound = 10 * np.finfo(float).eps * (kappa_squared + n_taps)
    assert gap <= bound * (np.linalg.norm(target) + residual / singulars[0])


# ---------------------------------------------------------------------------
# regularization weights


def test_weight_at_unit_ratio():
    grid = FrequencyGrid(64, RATE)
    w = weights_from_ratio(np.ones(33), 1.0, grid)
    assert np.allclose(w, 1.1757560423186113, atol=1e-12)


def test_weight_vanishes_without_leakage():
    grid = FrequencyGrid(64, RATE)
    assert np.array_equal(weights_from_ratio(np.zeros(33), 1.0, grid), np.zeros(33))


def test_weight_unimodal_in_ratio():
    # log-normal density peaks at exp(-sigma^2), about 0.89 for beta = 1
    grid = FrequencyGrid(64, RATE)
    levels = [0.05, 0.2, 0.5, 0.85, 0.95, 1.5, 4.0, 20.0]
    values = [weights_from_ratio(np.full(33, v), 1.0, grid)[3] for v in levels]
    assert values[0] < values[1] < values[2] < values[3]
    assert values[4] > values[5] > values[6] > values[7]


def test_frequency_weights_flag_dead_open_ear():
    ms = delta_set([0.0, 0.0], h_occ=[0.1, 0.0])
    with pytest.raises(NumericsError, match="bin 0"):
        _leakage_ratio(*np.abs(_set_spectra([ms], DELTA_G, FrequencyGrid(32, RATE), 0)[0]))


def test_frequency_weights_ratio_definition():
    scene = small_scene(seed=3, leakage_attenuation_db=12.0)
    ms = scene.sets[0]
    g = forward_path_ir(8.0, 5)
    grid = FrequencyGrid(128, RATE)
    ratio = _leakage_ratio(*np.abs(_set_spectra([ms], g, grid, 0)[0]))
    w = weights_from_ratio(ratio, 1.0, grid)
    leak = np.abs(np.fft.fft(ms.h_occ.samples, 128))[:65]
    open_gain = np.abs(np.fft.fft(np.convolve(g.samples, ms.h_open.samples), 128))[:65]
    assert np.allclose(ratio, leak / open_gain, atol=1e-12)
    assert w.shape == (65,)
    assert np.all(w >= 0.0)


@st.composite
def spectra_cases(draw):
    """(seed, h length, d length, d_G, N, loudspeakers, L_FFT, decade) whose paths fit L_FFT."""
    fft_size = draw(st.integers(2, 5000))
    source = draw(st.integers(1, fft_size))
    speaker = draw(st.integers(1, fft_size - source + 1))
    delay = draw(st.integers(0, fft_size - source - speaker + 1))
    n_spk = draw(st.integers(1, 3))
    return (draw(st.integers(0, 2**32 - 1)), source, speaker, delay, n_spk,
            draw(st.integers(0, n_spk)), fft_size, draw(st.integers(-200, 200)))


@settings(max_examples=150, deadline=None)
@given(spectra_cases())
# README default scenes at the default grid, and long scenes at theirs
@example((0, 130, 100, 96, 2, 2, 1024, 0))
@example((7, 256, 200, 96, 2, 2, 2048, 0))
@example((1, 256, 200, 48, 2, 0, 2048, 0))
@example((2, 3, 2, 0, 3, 3, 4, 0))  # the longest path fills the grid
@example((3, 4, 1, 1, 1, 1, 5, 200))
@example((4, 7, 5, 1, 2, 1, 1001, -200))
def test_set_spectra_rows_are_each_responses_rfft(case):
    # the batched transform equals the 1-D one byte for byte, on any L_FFT
    seed, source, speaker, delay, n_spk, loudspeakers, fft_size, decade = case
    rng = np.random.default_rng(seed)
    scale = 10.0**decade
    h_m, h_open, h_occ = (ir(scale * rng.standard_normal(source)) for _ in range(3))
    d = tuple(ir(rng.standard_normal(speaker)) for _ in range(n_spk))
    g = ir(rng.standard_normal(delay + 1))
    spectra = _set_spectra([MeasurementSet(h_m, h_open, h_occ, d)], g,
                           FrequencyGrid(fft_size, RATE), loudspeakers)[0]
    through_mic = np.convolve(g.samples, h_m.samples)
    responses = [h_occ.samples, np.convolve(g.samples, h_open.samples),
                 *(np.convolve(d_n.samples, through_mic) for d_n in d[:loudspeakers])]
    assert spectra.shape == (2 + loudspeakers, fft_size // 2 + 1)
    for row, response in zip(spectra, responses):
        assert row.tobytes() == np.fft.rfft(response, fft_size).tobytes()


# ---------------------------------------------------------------------------
# spectral penalty


def spectral_penalty(weights, num_loudspeakers, filter_length, grid):
    """The seminorm over all loudspeakers: one _penalty_block per loudspeaker."""
    block = _penalty_block(weights, filter_length, grid.fft_size)
    return scipy.linalg.block_diag(*([block] * num_loudspeakers))


def test_penalty_is_identity_for_flat_weights():
    penalty = spectral_penalty(np.ones(129), 2, 9, FrequencyGrid(256, RATE))
    assert np.array_equal(penalty, np.eye(18))


def test_penalty_structure():
    rng = np.random.default_rng(0)
    w = rng.uniform(0.1, 2.0, 33)
    penalty = spectral_penalty(w, 2, 5, FrequencyGrid(64, RATE))
    assert penalty.shape == (10, 10)
    assert np.allclose(penalty, penalty.T, atol=1e-14)
    assert np.min(scipy.linalg.eigvalsh(penalty)) > -1e-10
    assert np.array_equal(penalty[:5, 5:], np.zeros((5, 5)))
    assert np.array_equal(penalty[:5, :5], penalty[5:, 5:])


def test_penalty_rejects_short_weight_vector():
    with pytest.raises(ValueError, match="cannot constrain"):
        _penalty_block(np.ones(3), 8, 4)


def test_penalty_guard_counts_the_two_sided_size():
    # 65 one-sided bins of a 128-point grid constrain 99 taps; only
    # fft_size, not the one-sided length, bounds the tap count
    assert np.array_equal(_penalty_block(np.ones(65), 99, 128), np.eye(99))
    assert _penalty_block(np.ones(50), 99, 99).shape == (99, 99)
    with pytest.raises(ValueError, match="cannot constrain"):
        _penalty_block(np.ones(50), 99, 98)
    with pytest.raises(ValueError, match="does not match fft_size"):
        _penalty_block(np.ones(65), 9, 64)


@settings(max_examples=60)
@given(
    fft_size=st.integers(2, 600),
    filter_length=st.integers(1, 600),
    seed=st.integers(0, 2**32 - 1),
)
@example(fft_size=2, filter_length=1, seed=0)
@example(fft_size=600, filter_length=600, seed=1)
def test_penalty_block_matches_two_sided_spectrum(fft_size, filter_length, seed):
    assume(filter_length <= fft_size)
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 3.0, fft_size // 2 + 1) * (rng.uniform(size=fft_size // 2 + 1) > 0.1)
    bins = np.arange(fft_size)
    full = w[np.minimum(bins, fft_size - bins)]  # the two-sided, conjugate-symmetric layout
    expected = scipy.linalg.toeplitz(np.fft.ifft(full**2).real[:filter_length])
    assert np.array_equal(_penalty_block(w, filter_length, fft_size), expected)


# ---------------------------------------------------------------------------
# regularized solvers


def weight_trace(sets, g, config):
    """The leakage weight that eval reports, which the weighted designs regularize by."""
    scene = Scenario(tuple(sets), RATE)
    silent = np.zeros((scene.num_loudspeakers, config.filter_length))
    return evaluate(scene, g, silent, config).weight_trace


def test_ridge_matches_normal_equations():
    ms = small_scene(seed=8).sets[0]
    g = forward_path_ir(0.0, 3)
    matrix, target = padded_rtf_system(ms, g, 4, 2)
    for lam in (1e-6, 1e-2, 1.0):
        oracle = np.linalg.solve(
            matrix.T @ matrix + lam * np.eye(matrix.shape[1]), matrix.T @ target
        )
        got = design(ms, g, "R_DELTA_LS", 4, 2, lam)
        assert np.max(np.abs(got - oracle)) < 1e-12 * np.max(np.abs(oracle))


def test_weighted_solve_matches_augmented_least_squares():
    scene = small_scene(seed=4, source_ir_length=10, speaker_ir_length=6)
    ms = scene.sets[0]
    g = forward_path_ir(6.0, 3)
    matrix, target = padded_rtf_system(ms, g, 5, 2)
    grid = FrequencyGrid(64, RATE)
    config = DesignConfig(variant="FR_DELTA_LS", filter_length=5, acausal_delay=2,
                          reg_lambda=0.1, reg_beta=1.0)
    assert config.grid(scene) == grid
    penalty = spectral_penalty(weight_trace(scene.sets, g, config), 2, 5, grid)
    for lam in (1e-6, 1e-2, 1.0):
        got = design(ms, g, "FR_DELTA_LS", 5, 2, lam)
        chol = np.linalg.cholesky(penalty + 1e-15 * np.eye(10))
        stacked = np.vstack([matrix, math.sqrt(lam) * chol.T])
        rhs = np.concatenate([target, np.zeros(10)])
        oracle, _, _, _ = np.linalg.lstsq(stacked, rhs, rcond=None)
        assert np.max(np.abs(got - oracle)) < 1e-9 * max(np.max(np.abs(oracle)), 1.0)


def test_weighted_solve_checks_grid_congruence():
    with pytest.raises(ValueError, match="does not match fft_size"):
        _penalty_block(np.ones(32), 4, 64)


def test_weighted_solve_needs_the_grid():
    # 33 one-sided bins belong to fft_size 64 or 65 alike, and the two penalties differ
    w = np.random.default_rng(9).uniform(0.1, 2.0, 33)
    assert not np.array_equal(_penalty_lags(w, 4, 64), _penalty_lags(w, 4, 65))


def test_unregularized_singular_system_raises():
    ms = delta_set([1.0, 0.0], d=((1.0,), (1.0,)))  # two identical loudspeakers
    with pytest.raises(NumericsError, match="singular"):
        design(ms, DELTA_G, "R_DELTA_LS", 1, reg_lambda=0.0)


def test_rounding_level_indefinite_system_solves_by_ldl():
    # one rounding step short of singular: Cholesky meets the pivot -2**-50
    gram = np.array([[1.0, 1.0], [1.0, 1.0 - 2.0**-50]])
    rhs = np.array([1.0, 0.0])  # solved by (1 - 2**50, 2**50)
    with pytest.raises(np.linalg.LinAlgError):
        scipy.linalg.solve(gram, rhs, assume_a="pos")
    coef = _solve_factored(_factor_normal_matrix(gram, 0.0, None), rhs[:, None])[:, 0]
    assert np.allclose(coef, [1 - 2.0**50, 2.0**50], rtol=1e-14, atol=0)
    assert np.allclose(gram @ coef, rhs, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(17, 400), columns=st.integers(2, 7), weighted=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_cholesky_solve_matches_one_column_solves(n, columns, weighted, seed):
    # design_points solves a group's right-hand sides in one dpotrs; each
    # column must come out as a one-column solve gives it, bit for bit
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n + 5, n)) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    penalty = None
    if weighted:
        penalty = _penalty_block(rng.uniform(0.0, 2.0, n + 1), n, 2 * n)
    factored = _factor_normal_matrix(m.T @ m, 0.1, penalty)
    assume(factored[1])
    rhs = np.array([m.T @ rng.standard_normal(n + 5) for _ in range(columns)]).T
    stacked = _solve_factored(factored, rhs)
    for j in range(columns):
        assert stacked[:, j].tobytes() == _solve_factored(factored, rhs[:, [j]])[:, 0].tobytes()


def test_penalty_block_is_added_per_loudspeaker():
    scene = small_scene(seed=4, num_loudspeakers=3, source_ir_length=10, speaker_ir_length=6)
    ms = scene.sets[0]
    g = forward_path_ir(0.0, 2)
    config = DesignConfig(variant="FR_DELTA_LS", filter_length=5, acausal_delay=2, reg_lambda=0.3,
                          reg_beta=1.0)
    w = weight_trace(scene.sets, g, config)
    block = _penalty_block(w, 5, 64)
    assert block.shape == (5, 5)
    # the loudspeaker matrix and the RTF target rows it meets, as the design forms them
    m = _speaker_matrix(ms, 5)
    rhs = m.T @ rtf_target(ms, g, 5, 2)[: m.shape[0]]
    full = m.T @ m + 0.3 * spectral_penalty(w, 3, 5, FrequencyGrid(64, RATE))
    assert np.array_equal(
        design_filter(scene, g, config).ravel(),
        scipy.linalg.solve(full, rhs, assume_a="pos"),
    )


def test_ridge_path_is_monotone():
    ms = small_scene(seed=10).sets[0]
    g = forward_path_ir(0.0, 3)
    matrix, target = padded_rtf_system(ms, g, 5, 2)
    lambdas = [1e-8, 1e-4, 1e-2, 0.1, 1.0, 10.0, 100.0]
    norms, residuals = [], []
    for lam in lambdas:
        a = design(ms, g, "R_DELTA_LS", 5, 2, lam)
        norms.append(np.linalg.norm(a))
        residuals.append(np.linalg.norm(matrix @ a - target))
    for i in range(len(lambdas) - 1):
        assert norms[i + 1] <= norms[i] + 1e-10
        assert residuals[i + 1] >= residuals[i] - 1e-10


# ---------------------------------------------------------------------------
# multi-set solver


def robust_objective(scene, g, config, filt):
    grid = config.grid(scene)
    penalty = spectral_penalty(weight_trace(scene.sets, g, config), scene.num_loudspeakers,
                               config.filter_length, grid)
    a = filt.ravel()
    total = 0.0
    for ms in scene.sets:
        matrix, target = padded_rtf_system(ms, g, config.filter_length, config.acausal_delay)
        total += np.sum((matrix @ a - target) ** 2)
    return total / scene.num_sets + config.reg_lambda * a @ penalty @ a


def test_robust_single_set_matches_weighted_variant():
    scene = small_scene(seed=6)
    g = forward_path_ir(0.0, 8)
    kwargs = dict(filter_length=11, acausal_delay=4, reg_lambda=0.1, reg_beta=1.0)
    robust = design_filter(scene, g, DesignConfig(variant="MFR_DELTA_LS", **kwargs))
    single = design_filter(scene, g, DesignConfig(variant="FR_DELTA_LS", **kwargs))
    assert np.max(np.abs(robust - single)) < 1e-12


def test_robust_identical_copies_match_single_set():
    base = small_scene(seed=7)
    copies = Scenario(base.sets * 3, RATE)
    g = forward_path_ir(0.0, 8)
    config = DesignConfig(variant="MFR_DELTA_LS", filter_length=11, acausal_delay=4,
                          reg_lambda=0.1, reg_beta=1.0)
    one = design_filter(base, g, config)
    three = design_filter(copies, g, config)
    scale = np.max(np.abs(one))
    assert np.max(np.abs(one - three)) < 1e-10 * scale


def test_robust_minimizes_averaged_objective():
    spec = SynthSpec(num_sets=4, num_loudspeakers=2, source_ir_length=10,
                     speaker_ir_length=8, reinsertion_level_db=-20.0)
    scene = synth_scenario(spec, seed=11)
    g = forward_path_ir(0.0, 8)
    config = DesignConfig(variant="MFR_DELTA_LS", filter_length=11, acausal_delay=4,
                          reg_lambda=0.1, reg_beta=1.0)
    robust = design_filter(scene, g, config)
    best = robust_objective(scene, g, config, robust)
    for j in range(scene.num_sets):
        sub = Scenario((scene.sets[j],), RATE)
        rival = design_filter(sub, g, config)
        assert best <= robust_objective(scene, g, config, rival) + 1e-12


# ---------------------------------------------------------------------------
# top-level designs


def test_design_config_stores_integral_floats_as_ints():
    scene = small_scene(seed=6)
    g = forward_path_ir(0.0, 8)
    ints = DesignConfig(variant="R_DELTA_LS", filter_length=9, acausal_delay=4,
                        reg_lambda=0.1, reg_beta=1.0, fft_size=64)
    floats = DesignConfig(variant="R_DELTA_LS", filter_length=9.0, acausal_delay=4.0,
                          reg_lambda=0.1, reg_beta=1.0, fft_size=64.0)
    assert floats == ints
    for name in ("filter_length", "acausal_delay", "fft_size"):
        assert type(getattr(floats, name)) is int
    a, b = design_filter(scene, g, ints), design_filter(scene, g, floats)
    assert np.array_equal(a, b)


def test_single_set_variants_use_first_set():
    spec = SynthSpec(num_sets=3, num_loudspeakers=2, source_ir_length=10,
                     speaker_ir_length=8, reinsertion_level_db=-20.0)
    scene = synth_scenario(spec, seed=13)
    first_only = Scenario(scene.sets[:1], RATE)
    g = forward_path_ir(0.0, 8)
    for variant in ("LS_ATF", "RLS", "R_DELTA_LS", "FR_DELTA_LS"):
        delay = 0 if variant in ("LS_ATF", "RLS") else 4
        config = DesignConfig(variant=variant, filter_length=9, acausal_delay=delay,
                              reg_lambda=0.1, reg_beta=1.0)
        multi = design_filter(scene, g, config)
        single = design_filter(first_only, g, config)
        assert np.array_equal(multi, single)


def test_one_cache_serves_every_forward_path():
    # two forward paths, each with every variant in one call, through one cache
    # give the taps of one-point calls on fresh caches: nothing one path or
    # point shapes is served to another; each cache starts with the spectra
    # stack of the path, as the commands' caches do
    spec = SynthSpec(num_sets=3, num_loudspeakers=2, source_ir_length=10,
                     speaker_ir_length=8, reinsertion_level_db=-20.0)
    scene = synth_scenario(spec, seed=13)
    train, shared, first = (0, 1, 2), {}, {}
    configs = [DesignConfig(variant=variant, filter_length=9, reg_beta=1.0,
                            acausal_delay=0 if variant in ("LS_ATF", "RLS") else 32,
                            reg_lambda=1e-8 if variant == "RLS" else 0.1)
               for variant in VARIANTS]
    grid = configs[0].grid(scene)
    for g in (forward_path_ir(0.0, 8), forward_path_ir(-10.0, 4)):
        stack = {("spectra", g): _set_spectra(scene.sets, g, grid, 0)}
        shared.update(stack)
        together = design_points([(scene, g, config) for config in configs], train, shared)
        for variant, config, taps in zip(VARIANTS, configs, together):
            assert np.array_equal(taps, design_points([(scene, g, config)], train, dict(stack))[0])
            if variant in first:
                assert not np.array_equal(taps, first[variant])
            first[variant] = taps


@pytest.mark.parametrize("call, message", [
    # the frequency-weights stage: _set_spectra takes the spectra
    # small_scene's h_occ and h_open have 10 samples, and g*h_open 15 at d_G 5
    pytest.param(lambda: _set_spectra(small_scene(3).sets, forward_path_ir(0.0, 5),
                                      FrequencyGrid(9, RATE), 0),
                 "impulse response of length 10 does not fit L_FFT 9", id="frequency_weights-h_occ-grid"),
    pytest.param(lambda: _set_spectra(small_scene(3).sets, forward_path_ir(0.0, 5),
                                      FrequencyGrid(14, RATE), 0),
                 "impulse response of length 15 does not fit L_FFT 14", id="frequency_weights-open-grid"),
])
def test_bad_arguments_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()

