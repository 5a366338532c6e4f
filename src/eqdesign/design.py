"""Equalizer design: system assembly, target reduction, regularized solving.

The chain being shaped is loudspeaker -> eardrum on top of the processed
microphone pickup, and the goal is to make the aided ear look like the open
ear. Working directly on the full acoustic transfer functions gives a
rank-deficient system (the forward path contributes common zeros), so the
practical route divides it out and fits the relative transfer function with
the loudspeaker responses alone. A slack delay on the target absorbs
acausal components, and a log-normal spectral weight concentrates the
regularization where vent leakage dominates anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .signals import (
    FrequencyGrid,
    ImpulseResponse,
    _is_whole,
    convolution_matrix,
    fractional_octave_smooth,
    magnitude_response,
)
from .scenario import MeasurementSet, Scenario, scenario_fingerprint

__all__ = [
    "VARIANTS",
    "WEIGHTED_VARIANTS",
    "NORMAL_RCOND",
    "NumericsError",
    "DesignConfig",
    "LinearSystem",
    "EqualizerFilter",
    "default_fft_size",
    "assemble_atf_system",
    "solve_ls_atf",
    "reduce_to_rtf",
    "frequency_weights",
    "weights_from_ratio",
    "normal_equations",
    "leakage_penalty",
    "solve_normal_equations",
    "solve_regularized",
    "design_coefficients",
    "forget_forward_path",
    "design_filter",
]

VARIANTS = ("LS_ATF", "RLS", "R_DELTA_LS", "FR_DELTA_LS", "MFR_DELTA_LS")

# variants whose penalty is the leakage-weighted spectrum rather than the ridge
WEIGHTED_VARIANTS = ("FR_DELTA_LS", "MFR_DELTA_LS")

# singular values below this fraction of the largest count as rank loss
RANK_RTOL = 1e-10

# reciprocal condition number of the RTF normal equations below which the
# fit leaves them for dense least squares on the convolution matrix
NORMAL_RCOND = 1e-8

# ridge used when a plain-RLS config leaves the strength unspecified
STABILITY_LAMBDA = 1e-8

_DEFAULT_LAMBDA = {
    "LS_ATF": 0.0,
    "RLS": STABILITY_LAMBDA,
    "R_DELTA_LS": 0.1,
    "FR_DELTA_LS": 0.1,
    "MFR_DELTA_LS": 0.1,
}


class NumericsError(RuntimeError):
    """The linear algebra gave up: rank-deficient or singular design system."""


def default_fft_size(speaker_length: int, filter_length: int) -> int:
    """Smallest power of two giving at least 4 bins per modeled tap."""
    n = 4 * (speaker_length + filter_length - 1)
    return 1 << max(n - 1, 1).bit_length()


@dataclass(frozen=True)
class DesignConfig:
    """Solver settings.

    acausal_delay and reg_lambda default per variant: the delay-free
    variants (LS_ATF, RLS) get 0 slack, RLS gets a tiny stability ridge,
    and the delayed variants get the delay-32 / lambda-0.1 operating point
    that behaves well at the default scene dimensions. fft_size None means
    "derive from the scenario when needed".
    """

    variant: str = "MFR_DELTA_LS"
    filter_length: int = 99
    acausal_delay: int | None = None
    reg_lambda: float | None = None
    reg_beta: float = 1.0
    fft_size: int | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not _is_whole(self.filter_length, 1):
            raise ValueError("filter_length must be a positive integer")
        if self.acausal_delay is None:
            object.__setattr__(
                self, "acausal_delay", 0 if self.variant in ("LS_ATF", "RLS") else 32
            )
        if not _is_whole(self.acausal_delay, 0):
            raise ValueError("acausal_delay must be a nonnegative integer")
        if self.variant in ("LS_ATF", "RLS") and self.acausal_delay != 0:
            raise ValueError(f"variant {self.variant} does not take an acausal delay")
        if self.reg_lambda is None:
            object.__setattr__(self, "reg_lambda", _DEFAULT_LAMBDA[self.variant])
        if not self.reg_lambda >= 0:
            raise ValueError("reg_lambda must be nonnegative")
        if not self.reg_beta > 0:
            raise ValueError("reg_beta must be positive")
        if self.fft_size is not None and not _is_whole(self.fft_size, 2):
            raise ValueError("fft_size must be an integer of at least 2, or None")
        # integral floats pass the checks above; store them as the ints they are
        for name in ("filter_length", "acausal_delay", "fft_size"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, int(getattr(self, name)))


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """One least-squares problem: matrix @ coefficients ~ target.

    The coefficient vector concatenates the per-loudspeaker filters, so the
    matrix has num_loudspeakers * filter_length columns. acausal_delay is
    carried along so the solution remembers how the target was shifted.
    """

    matrix: np.ndarray
    target: np.ndarray
    num_loudspeakers: int
    filter_length: int
    acausal_delay: int = 0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        t = np.asarray(self.target, dtype=float)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "target", t)
        if m.ndim != 2:
            raise ValueError("matrix must be 2-D")
        if t.shape != (m.shape[0],):
            raise ValueError(
                f"target length {t.shape} does not match matrix rows {m.shape[0]}"
            )
        if m.shape[1] != self.num_loudspeakers * self.filter_length:
            raise ValueError(
                f"matrix has {m.shape[1]} columns, expected "
                f"{self.num_loudspeakers} * {self.filter_length}"
            )


@dataclass(frozen=True, eq=False)
class EqualizerFilter:
    """Designed FIR filters, one row per loudspeaker."""

    coefficients: np.ndarray
    acausal_delay: int = 0
    config: dict = field(default_factory=dict)
    scenario_fingerprint: str = ""

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=float)
        if coef.ndim != 2:
            raise ValueError("coefficients must be a 2-D array (loudspeakers x taps)")
        if not np.all(np.isfinite(coef)):
            raise ValueError("coefficients contain non-finite values")
        object.__setattr__(self, "coefficients", coef)

    @property
    def num_loudspeakers(self) -> int:
        return self.coefficients.shape[0]

    @property
    def filter_length(self) -> int:
        return self.coefficients.shape[1]

    def to_dict(self) -> dict:
        return {
            "num_loudspeakers": self.num_loudspeakers,
            "filter_length": self.filter_length,
            "d_H": self.acausal_delay,
            "coefficients": self.coefficients.tolist(),
            "config": dict(self.config),
            "scenario_fingerprint": self.scenario_fingerprint,
        }


def _chain(*irs: np.ndarray) -> np.ndarray:
    out = irs[0]
    for nxt in irs[1:]:
        out = np.convolve(out, nxt)
    return out


def _raw_target(ms: MeasurementSet, g: ImpulseResponse, rows: int, shift: int) -> np.ndarray:
    """Processed open-ear response minus leakage, delayed by `shift`, zero-padded."""
    open_branch = np.convolve(g.samples, ms.h_open.samples)
    v = np.zeros(rows)
    v[shift : shift + open_branch.size] += open_branch
    v[shift : shift + len(ms.h_occ)] -= ms.h_occ.samples
    return v


def _check_rates(ms: MeasurementSet, g: ImpulseResponse) -> None:
    if ms.sample_rate_hz != g.sample_rate_hz:
        raise ValueError(
            f"sample rate mismatch: scene at {ms.sample_rate_hz} Hz, forward path at {g.sample_rate_hz} Hz"
        )


def assemble_atf_system(ms: MeasurementSet, g: ImpulseResponse, filter_length: int) -> LinearSystem:
    """Full acoustic-transfer-function least-squares system.

    The block matrix convolves each candidate filter with forward path,
    microphone pickup and its loudspeaker response; the target is the
    processed open-ear response with the leakage already subtracted. Useful
    as a reference point; the matrix is structurally rank deficient because
    every block shares the forward-path-and-microphone factor.
    """
    if not _is_whole(filter_length, 1):
        raise ValueError("filter_length must be a positive integer")
    _check_rates(ms, g)
    filter_length = int(filter_length)
    blocks = [
        convolution_matrix(_chain(g.samples, ms.h_m.samples, d_n.samples), filter_length)
        for d_n in ms.d
    ]
    matrix = np.hstack(blocks)
    target = _raw_target(ms, g, matrix.shape[0], 0)
    return LinearSystem(matrix, target, ms.num_loudspeakers, filter_length, 0)


def solve_ls_atf(system: LinearSystem) -> EqualizerFilter:
    """Minimum-norm least-squares solution of the full-ATF system."""
    coef, _, _, _ = np.linalg.lstsq(system.matrix, system.target, rcond=RANK_RTOL)
    return EqualizerFilter(
        coef.reshape(system.num_loudspeakers, system.filter_length),
        system.acausal_delay,
    )


def _cholesky_solve(matrix: np.ndarray, rhs: np.ndarray, min_rcond: float = 0.0):
    """x with matrix @ x = rhs by Cholesky of the upper triangle, else None.

    None when the factorization fails or, for a positive min_rcond, when
    LAPACK's estimate of the reciprocal 1-norm condition number falls below
    it. The factor and solve are the dpotrf/dpotrs pair that
    scipy.linalg.solve(assume_a="pos") runs, so x matches it bit for bit,
    without its LinAlgWarning on an ill-conditioned matrix.
    """
    factor, info = scipy.linalg.lapack.dpotrf(matrix)
    if info != 0:
        return None
    if min_rcond > 0:
        rcond, _ = scipy.linalg.lapack.dpocon(factor, np.linalg.norm(matrix, 1))
        if not rcond >= min_rcond:
            return None
    x, _ = scipy.linalg.lapack.dpotrs(factor, rhs)
    return x


def _fit_rtf(through_mic: np.ndarray, v: np.ndarray, n_taps: int) -> np.ndarray:
    """Least-squares n_taps-tap x with convolve(through_mic, x) ~ v.

    The normal matrix of the convolution matrix is the symmetric Toeplitz
    matrix of the autocorrelation of through_mic, and its right-hand side is
    the cross-correlation of v with through_mic, so the well-conditioned
    case is one Cholesky solve that never forms the convolution matrix.
    Squaring the condition number is harmless there; below NORMAL_RCOND, or
    when the factorization fails, the fit falls back to dense lstsq on the
    convolution matrix, whose singular values decide rank deficiency.
    """
    acorr = np.correlate(through_mic, through_mic, "full")[through_mic.size - 1 :]
    column = np.zeros(n_taps)
    column[: min(acorr.size, n_taps)] = acorr[:n_taps]
    target = _cholesky_solve(
        scipy.linalg.toeplitz(column), np.correlate(v, through_mic, "valid"), NORMAL_RCOND
    )
    if target is not None:
        return target
    lhs = convolution_matrix(through_mic, n_taps)
    target, _, _, singulars = np.linalg.lstsq(lhs, v, rcond=None)
    if singulars[0] == 0.0 or singulars[-1] <= RANK_RTOL * singulars[0]:
        raise NumericsError(
            "forward path through the device microphone is rank deficient; "
            "cannot reduce to a relative transfer function"
        )
    return target


def reduce_to_rtf(
    ms: MeasurementSet,
    g: ImpulseResponse,
    filter_length: int,
    acausal_delay: int = 0,
) -> LinearSystem:
    """Divide the shared forward factor out of the full system.

    The target becomes the least-squares FIR fit of the relative transfer
    function (open ear over processed microphone path, leakage folded in),
    delayed by acausal_delay so anticausal content gets taps to land on.
    The matrix is the concatenation of the loudspeaker convolution matrices
    with acausal_delay zero rows appended; those rows line up with target
    taps that no causal filter can reach.

    Raises NumericsError when the forward path through the microphone is
    rank deficient (for example a zero-gain path).
    """
    if not _is_whole(filter_length, 1):
        raise ValueError("filter_length must be a positive integer")
    if not _is_whole(acausal_delay, 0):
        raise ValueError("acausal_delay must be a nonnegative integer")
    _check_rates(ms, g)
    filter_length = int(filter_length)
    acausal_delay = int(acausal_delay)

    n_taps = ms.speaker_length + filter_length - 1 + acausal_delay
    through_mic = np.convolve(g.samples, ms.h_m.samples)
    v = _raw_target(ms, g, through_mic.size + n_taps - 1, acausal_delay)
    target = _fit_rtf(through_mic, v, n_taps)

    rows = n_taps
    matrix = np.zeros((rows, ms.num_loudspeakers * filter_length))
    body = ms.speaker_length + filter_length - 1
    for n, d_n in enumerate(ms.d):
        matrix[:body, n * filter_length : (n + 1) * filter_length] = convolution_matrix(
            d_n.samples, filter_length
        )
    return LinearSystem(matrix, target, ms.num_loudspeakers, filter_length, acausal_delay)


def weights_from_ratio(ratio, reg_beta: float, grid: FrequencyGrid) -> np.ndarray:
    """Log-normal regularization weight for a given leakage-to-target ratio.

    The ratio is smoothed over 1/6 octave first; the weight is the log-normal
    density in the smoothed ratio with spread sigma^2 = beta * ln(10)/20, so
    it peaks where leakage and target are comparable and fades where either
    side dominates. Bins where the smoothed ratio is zero get weight zero.
    ratio and the weight are one-sided, length fft_size // 2 + 1.
    """
    if not reg_beta > 0:
        raise ValueError("reg_beta must be positive")
    smoothed = fractional_octave_smooth(np.asarray(ratio, dtype=float), grid)
    sigma = np.sqrt(np.log(10.0) / 20.0 * reg_beta)
    w = np.zeros(smoothed.size)
    pos = smoothed > 0
    w[pos] = np.exp(-0.5 * (np.log(smoothed[pos]) / sigma) ** 2) / (
        np.sqrt(2.0 * np.pi) * sigma * smoothed[pos]
    )
    return w


def frequency_weights(measurements, g: ImpulseResponse, reg_beta: float, grid: FrequencyGrid):
    """Leakage ratio V and regularization weight W on the grid.

    V is |leakage| over |processed open-ear target|, built from set-averaged
    magnitude spectra; pass one MeasurementSet or a sequence of them. Both
    returned arrays live on the grid's one-sided bins, length fft_size // 2 + 1.
    """
    if isinstance(measurements, MeasurementSet):
        measurements = [measurements]
    measurements = list(measurements)
    if not measurements:
        raise ValueError("at least one measurement set is required")
    for ms in measurements:
        _check_rates(ms, g)
    leak = np.mean(
        [magnitude_response(ms.h_occ.samples, grid) for ms in measurements], axis=0
    )
    open_gain = np.mean(
        [
            magnitude_response(np.convolve(g.samples, ms.h_open.samples), grid)
            for ms in measurements
        ],
        axis=0,
    )
    if np.any(open_gain == 0.0):
        bad = int(np.flatnonzero(open_gain == 0.0)[0])
        raise NumericsError(
            f"processed open-ear response vanishes at bin {bad}; leakage ratio undefined"
        )
    ratio = leak / open_gain
    return ratio, weights_from_ratio(ratio, reg_beta, grid)


def _penalty_block(weights: np.ndarray, filter_length: int, fft_size: int) -> np.ndarray:
    """Quadratic form of the weighted-spectrum seminorm of one loudspeaker's taps.

    weights is one-sided, length fft_size // 2 + 1. With the DFT scaled by
    1/sqrt(fft_size) the penalty for all-ones weights is exactly the
    identity, which keeps lambda comparable between the identity-regularized
    and frequency-weighted variants. The block is the Toeplitz
    autocorrelation of the squared weight curve, taken over its two-sided
    mirror image.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (fft_size // 2 + 1,):
        raise ValueError(
            f"weight spectrum of shape {w.shape} does not match fft_size {fft_size}: "
            f"expected {fft_size // 2 + 1} one-sided bins"
        )
    if fft_size < filter_length:
        raise ValueError(f"fft_size {fft_size} cannot constrain {filter_length} taps")
    w2 = w**2
    acorr = np.fft.ifft(np.concatenate([w2, w2[1 : fft_size - w2.size + 1][::-1]])).real
    return scipy.linalg.toeplitz(acorr[:filter_length])


def normal_equations(system: LinearSystem) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix MᵀM and right-hand side Mᵀt of one design system."""
    m = system.matrix
    return m.T @ m, m.T @ system.target


def leakage_penalty(sets, g: ImpulseResponse, config: DesignConfig) -> np.ndarray:
    """Weighted-spectrum penalty block of the weighted variants, before scaling by lambda.

    The weight comes from the set-averaged spectra of `sets` at config.reg_beta;
    the grid is the one the config resolves for these sets. The block is
    filter_length square and applies to every loudspeaker's taps alike.
    """
    grid = FrequencyGrid(
        _resolve_fft_size(config, sets[0].speaker_length), sets[0].sample_rate_hz
    )
    _, weights = frequency_weights(sets, g, config.reg_beta, grid)
    return _penalty_block(weights, config.filter_length, grid.fft_size)


def solve_normal_equations(pairs, reg_lambda: float, penalty: np.ndarray | None = None) -> np.ndarray:
    """Averaged, regularized normal equations solved by Cholesky, else LDLᵀ.

    pairs holds one (MᵀM, Mᵀt) per training set, as normal_equations returns
    them; they are summed in order and divided by their count, so a set
    count change leaves lambda comparable. reg_lambda times the penalty is
    added to each loudspeaker's diagonal block, where penalty is one
    filter_length-square block and None is the identity (ridge). Returns the
    concatenated coefficient vector. The pairs are not modified.

    A system that rounding leaves a hair short of positive definite fails
    Cholesky; it is solved once more by symmetric LDLᵀ, and only an exact
    zero pivot there raises NumericsError.
    """
    gram = pairs[0][0].copy()
    rhs = pairs[0][1].copy()
    for part_gram, part_rhs in pairs[1:]:
        gram += part_gram
        rhs += part_rhs
    gram /= len(pairs)
    rhs /= len(pairs)
    if penalty is None:
        gram[np.diag_indices_from(gram)] += reg_lambda
    else:
        scaled = reg_lambda * penalty
        taps = penalty.shape[0]
        for start in range(0, gram.shape[0], taps):
            gram[start : start + taps, start : start + taps] += scaled
    coef = _cholesky_solve(gram, rhs)
    if coef is not None:
        return coef
    try:
        return scipy.linalg.solve(gram, rhs, assume_a="sym")
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise NumericsError(
            "regularized normal equations are singular; the scene is not "
            "invertible at this regularization strength"
        ) from exc


def solve_regularized(
    system: LinearSystem,
    reg_lambda: float,
    weights: np.ndarray | None = None,
    grid: FrequencyGrid | None = None,
) -> EqualizerFilter:
    """Ridge or spectrally weighted least squares on one design system.

    Without weights the penalty is reg_lambda times the plain coefficient
    energy; with weights it is reg_lambda times the weighted spectral energy
    of the filters. Weights are one-sided and need the grid they live on,
    because their length alone does not tell an even fft_size from an odd one.
    """
    if not reg_lambda >= 0:
        raise ValueError("reg_lambda must be nonnegative")
    penalty = None
    if weights is not None:
        if grid is None:
            raise ValueError("weights need the grid they live on")
        penalty = _penalty_block(weights, system.filter_length, grid.fft_size)
    coef = solve_normal_equations([normal_equations(system)], reg_lambda, penalty)
    return EqualizerFilter(
        coef.reshape(system.num_loudspeakers, system.filter_length),
        system.acausal_delay,
    )


def _resolve_fft_size(config: DesignConfig, speaker_length: int) -> int:
    if config.fft_size is not None:
        return config.fft_size
    return default_fft_size(speaker_length, config.filter_length)


def design_coefficients(
    sets, train: tuple, g: ImpulseResponse, config: DesignConfig, memo: dict
) -> np.ndarray:
    """Taps of config.variant trained on the sets indexed by train, shape (N, L_A).

    LS_ATF solves the full system of the first training set; RLS, R_DELTA_LS
    and FR_DELTA_LS reduce that set alone; MFR_DELTA_LS averages the normal
    equations of every training set. The weighted variants regularize by the
    leakage penalty of the sets they train on, the others by a ridge.

    memo collects what other designs can reuse, each piece keyed by what it
    depends on. It stays valid while the sets, filter_length, acausal_delay
    and fft_size stay the same; g, the variant, reg_lambda and reg_beta may
    change between calls. The Gram MᵀM of set i does not depend on g and
    sits under ("gram", i). Everything else sits in memo[g.samples.tobytes()]:
    Mᵀt of set i under ("rhs", i), the penalty of training sets train at
    beta under ("penalty", train, beta), the LS_ATF taps of set i under
    ("LS_ATF", i), and the taps solved for training sets train at lambda
    under ("taps", train, lambda, penalty key or None). Variants that pose
    the same problem therefore share one solve: RLS and R_DELTA_LS at equal
    lambda, and the ridge variants across beta. forget_forward_path drops
    the entries of one g. Pass a new {} for a one-off design.
    """
    path = memo.setdefault(g.samples.tobytes(), {})
    if config.variant == "LS_ATF":
        key = ("LS_ATF", train[0])
        if key not in path:
            system = assemble_atf_system(sets[train[0]], g, config.filter_length)
            path[key] = solve_ls_atf(system).coefficients
        return path[key]
    if config.variant != "MFR_DELTA_LS":
        train = train[:1]
    penalty_key = None
    if config.variant in WEIGHTED_VARIANTS:
        penalty_key = ("penalty", train, config.reg_beta)
    key = ("taps", train, config.reg_lambda, penalty_key)
    if key not in path:
        pairs = []
        for i in train:
            if ("rhs", i) not in path:
                system = reduce_to_rtf(sets[i], g, config.filter_length, config.acausal_delay)
                m = system.matrix
                if ("gram", i) not in memo:
                    memo["gram", i] = m.T @ m
                path["rhs", i] = m.T @ system.target
                del system, m  # one reduced matrix alive at a time, none in the solve
            pairs.append((memo["gram", i], path["rhs", i]))
        penalty = None
        if penalty_key is not None:
            if penalty_key not in path:
                path[penalty_key] = leakage_penalty([sets[i] for i in train], g, config)
            penalty = path[penalty_key]
        coef = solve_normal_equations(pairs, config.reg_lambda, penalty)
        path[key] = coef.reshape(sets[0].num_loudspeakers, config.filter_length)
    return path[key]


def forget_forward_path(memo: dict, g: ImpulseResponse) -> None:
    """Drop what a design_coefficients memo holds for forward path g; Grams stay."""
    memo.pop(g.samples.tobytes(), None)


def _config_echo(config: DesignConfig, scenario: Scenario) -> dict:
    return {
        "variant": config.variant,
        "L_A": config.filter_length,
        "d_H": config.acausal_delay,
        "lambda": config.reg_lambda,
        "beta": config.reg_beta,
        "L_FFT": _resolve_fft_size(config, scenario.sets[0].speaker_length),
    }


def design_filter(scenario: Scenario, g: ImpulseResponse, config: DesignConfig) -> EqualizerFilter:
    """Design under the configured variant.

    The single-set variants (everything except MFR_DELTA_LS) work on the
    first measurement set of the scenario; the multi-set variant averages
    over all of them.
    """
    coef = design_coefficients(scenario.sets, tuple(range(scenario.num_sets)), g, config, {})
    return EqualizerFilter(
        coef,
        config.acausal_delay,
        _config_echo(config, scenario),
        scenario_fingerprint(scenario),
    )
