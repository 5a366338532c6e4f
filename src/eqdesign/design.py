"""Equalizer design: system assembly, target reduction, regularized solving.

The chain being shaped is loudspeaker -> eardrum on top of the processed
microphone pickup, and the goal is to make the aided ear look like the open
ear. Working directly on the full acoustic transfer functions gives a
rank-deficient system (the forward path contributes common zeros), so the
practical route divides it out and fits the relative transfer function with
the loudspeaker responses alone. A slack delay on the target absorbs
acausal components, and a log-normal spectral weight concentrates the
regularization where vent leakage dominates anyway.

scipy.linalg is imported inside the three functions that solve, so that
importing this module, and the commands that never solve, do not load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import (
    FrequencyGrid,
    ImpulseResponse,
    _is_whole,
    _pow2_at_least,
    _sampling_margin,
    convolution_matrix,
    fractional_octave_smooth,
)
from .scenario import MeasurementSet, Scenario

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
    "solve_regularized",
    "design_coefficients",
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


def _finite(what: str, values: np.ndarray) -> np.ndarray:
    """values, unless arithmetic on finite samples overflowed into them."""
    if not np.isfinite(values).all():
        raise NumericsError(f"{what} overflowed the float range")
    return values


def default_fft_size(speaker_length: int, filter_length: int) -> int:
    """Smallest power of two giving at least 4 bins per modeled tap."""
    return _pow2_at_least(4 * (speaker_length + filter_length - 1))


@dataclass(frozen=True)
class DesignConfig:
    """Solver settings.

    acausal_delay and reg_lambda default per variant: the delay-free
    variants (LS_ATF, RLS) get 0 slack, RLS gets a tiny stability ridge,
    and the delayed variants get the delay-32 / lambda-0.1 operating point
    that behaves well at the default scene dimensions. fft_size None means
    "derive from the measurement sets"; grid() resolves it.
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

    def grid(self, sets) -> FrequencyGrid:
        """The analysis grid of this config on these measurement sets.

        fft_size is taken as given; None gives default_fft_size of the sets'
        loudspeaker response length and filter_length. The rate is the sets'.
        """
        fft_size = self.fft_size
        if fft_size is None:
            fft_size = default_fft_size(sets[0].speaker_length, self.filter_length)
        return FrequencyGrid(fft_size, sets[0].sample_rate_hz)


def _check_grid_holds(grid: FrequencyGrid, sets, g: ImpulseResponse, filter_length: int) -> None:
    """Raise ValueError unless the grid holds every spectrum a design and its eval take.

    The longest is the aided response, L_D + L_A + d_G + L_S − 2 samples for
    loudspeaker responses of L_D taps, a forward path of d_G + 1 taps and
    source responses of L_S taps; the desired and leakage responses are shorter.
    """
    length = sets[0].speaker_length + filter_length + len(g) + sets[0].source_length - 3
    if grid.fft_size < length:
        raise ValueError(
            f"L_FFT {grid.fft_size} cannot hold the aided response at d_G {len(g) - 1} "
            f"and L_A {filter_length}: it has {length} samples, so L_FFT must be at least {length}"
        )


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """One least-squares problem: matrix @ coefficients ~ target.

    The coefficient vector concatenates the per-loudspeaker filters, so the
    matrix has num_loudspeakers * filter_length columns.
    """

    matrix: np.ndarray
    target: np.ndarray
    num_loudspeakers: int
    filter_length: int

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
    through_mic = np.convolve(g.samples, ms.h_m.samples)
    chains = [np.convolve(through_mic, d_n.samples) for d_n in ms.d]
    matrix = np.hstack([convolution_matrix(chain, filter_length) for chain in chains])
    target = _raw_target(ms, g, matrix.shape[0], 0)
    return LinearSystem(matrix, target, ms.num_loudspeakers, filter_length)


def solve_ls_atf(system: LinearSystem) -> EqualizerFilter:
    """Minimum-norm least-squares solution of the full-ATF system.

    Raises NumericsError when the system has rank 0, as under a dead
    forward path, or when the taps overflow the float range.
    """
    coef, _, rank, _ = np.linalg.lstsq(system.matrix, system.target, rcond=RANK_RTOL)
    if rank == 0:
        raise NumericsError("full-ATF system has rank 0, as under a dead forward path")
    return EqualizerFilter(_finite("taps", coef).reshape(system.num_loudspeakers, system.filter_length))


def _spectral_rcond_bound(through_mic: np.ndarray) -> float:
    """Proven lower bound on the reciprocal condition number of the RTF fit's normal matrix.

    For any number of taps that matrix is CᵀC, with C the full convolution
    matrix of through_mic = tm. Its Rayleigh quotients are averages of
    P(w) = |TM(e^jw)|², so its eigenvalues lie in [min P, max P]. |TM| is
    sampled by one rfft, and every w lies within pi/nfft of a sample.
    Widening the sampled extremes by signals._sampling_margin, which adds a
    rounding allowance for the FFT, brackets |TM|, and the bound is
    (low / high)². It is 0 when the bracket reaches 0, as for a zero on the
    unit circle or a dead path.
    """
    a = np.abs(through_mic)
    if not a.sum() > 0:
        return 0.0
    nfft = 8 << (a.size - 1).bit_length()
    mag = np.abs(np.fft.rfft(through_mic, nfft))
    _, margin = _sampling_margin(a, nfft)
    return (max(mag.min() - margin, 0.0) / (mag.max() + margin)) ** 2


def _fit_rtf(through_mic: np.ndarray, v: np.ndarray, n_taps: int) -> np.ndarray:
    """Least-squares n_taps-tap x with convolve(through_mic, x) ~ v.

    The normal matrix of the convolution matrix is the symmetric Toeplitz
    matrix of the autocorrelation of through_mic, and its right-hand side is
    the cross-correlation of v with through_mic. When _spectral_rcond_bound
    proves its reciprocal condition number at least NORMAL_RCOND, the fit is
    one Levinson solve in O(n_taps²) that never forms the convolution
    matrix; Levinson is weakly stable on positive definite Toeplitz
    matrices, and squaring the condition number is harmless there. Otherwise
    the fit falls back to dense lstsq on the convolution matrix, whose
    singular values decide rank deficiency. Correlations that overflow raise
    NumericsError.
    """
    acorr = _finite(
        "RTF autocorrelation",
        np.correlate(through_mic, through_mic, "full")[through_mic.size - 1 :],
    )
    xcorr = _finite("RTF cross-correlation", np.correlate(v, through_mic, "valid"))
    rcond_bound = _spectral_rcond_bound(through_mic)
    if rcond_bound >= NORMAL_RCOND:
        column = np.zeros(n_taps)
        column[: min(acorr.size, n_taps)] = acorr[:n_taps]
        import scipy.linalg

        return scipy.linalg.solve_toeplitz(column, xcorr)
    lhs = convolution_matrix(through_mic, n_taps)
    target, _, _, singulars = np.linalg.lstsq(lhs, v, rcond=None)
    if singulars[0] == 0.0 or singulars[-1] <= RANK_RTOL * singulars[0]:
        ratio = singulars[-1] / singulars[0] if singulars[0] > 0 else 0.0
        raise NumericsError(
            "forward path through the device microphone is rank deficient: "
            f"singular-value ratio s_min/s_max {ratio:.3g} is at most {RANK_RTOL:g} "
            f"(spectral rcond bound {rcond_bound:.3g}); "
            "cannot reduce to a relative transfer function"
        )
    return target


def _speaker_matrix(ms: MeasurementSet, filter_length: int) -> np.ndarray:
    """The loudspeaker convolution matrices side by side."""
    rows, width = ms.speaker_length + filter_length - 1, ms.num_loudspeakers * filter_length
    # a block of at least width rows, freed, fits the Gram-sized arrays a design
    # allocates next; a smaller one doubled a long-scene design's page faults
    matrix = np.empty((max(rows, width), width))[:rows]
    for n, d_n in enumerate(ms.d):
        matrix[:, n * filter_length : (n + 1) * filter_length] = convolution_matrix(d_n.samples, filter_length)
    return matrix


def _rtf_target(ms: MeasurementSet, g: ImpulseResponse, filter_length: int, shift: int) -> np.ndarray:
    """The RTF fit of one set under g, delayed by `shift`, free of the loudspeakers.

    Its first taps meet the rows of _speaker_matrix, which depends on neither g
    nor shift. A g at another sample rate than the set's raises ValueError.
    """
    _check_rates(ms, g)
    n_taps = ms.speaker_length + filter_length - 1 + shift
    through_mic = np.convolve(g.samples, ms.h_m.samples)
    v = _raw_target(ms, g, through_mic.size + n_taps - 1, shift)
    return _fit_rtf(through_mic, v, n_taps)


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
    filter_length = int(filter_length)
    acausal_delay = int(acausal_delay)
    target = _rtf_target(ms, g, filter_length, acausal_delay)
    matrix = np.pad(_speaker_matrix(ms, filter_length), ((0, acausal_delay), (0, 0)))
    return LinearSystem(matrix, target, ms.num_loudspeakers, filter_length)


def _log_normal_weight(smoothed: np.ndarray, reg_beta: float) -> np.ndarray:
    """The beta-dependent half of weights_from_ratio, on an already smoothed ratio."""
    sigma = np.sqrt(np.log(10.0) / 20.0 * reg_beta)
    w = np.zeros(smoothed.size)
    pos = smoothed > 0
    w[pos] = np.exp(-0.5 * (np.log(smoothed[pos]) / sigma) ** 2) / (
        np.sqrt(2.0 * np.pi) * sigma * smoothed[pos]
    )
    return w


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
    return _log_normal_weight(smoothed, reg_beta)


def _set_spectra(ms: MeasurementSet, g: ImpulseResponse, grid: FrequencyGrid, loudspeakers: int) -> np.ndarray:
    """A set's spectra under g on the grid's one-sided bins, one row per response.

    Row 0 is the leakage h_occ, row 1 the processed open ear g*h_open, and
    rows 2.. the paths d_n*g*h_m of the first `loudspeakers` loudspeakers.
    One transform takes them all, and each row is rfft(response, L_FFT) bit
    for bit. A g at another sample rate than the set's, or a response longer
    than L_FFT, raises ValueError.
    """
    _check_rates(ms, g)
    responses = [ms.h_occ.samples, np.convolve(g.samples, ms.h_open.samples)]
    if loudspeakers:
        through_mic = np.convolve(g.samples, ms.h_m.samples)
        responses += [np.convolve(d_n.samples, through_mic) for d_n in ms.d[:loudspeakers]]
    padded = np.zeros((len(responses), grid.fft_size))
    for row, response in zip(padded, responses):
        if response.size > grid.fft_size:
            raise ValueError(f"impulse response of length {response.size} does not fit L_FFT {grid.fft_size}")
        row[: response.size] = response
    return np.fft.rfft(padded)


def _leakage_ratio(spectra) -> np.ndarray:
    """|leakage| over |processed open-ear target|, each averaged over the sets' _set_spectra."""
    if not spectra:
        raise ValueError("at least one measurement set is required")
    leak = np.mean([np.abs(s[0]) for s in spectra], axis=0)
    open_gain = np.mean([np.abs(s[1]) for s in spectra], axis=0)
    if np.any(open_gain == 0.0):
        bad = int(np.flatnonzero(open_gain == 0.0)[0])
        raise NumericsError(
            f"processed open-ear response vanishes at bin {bad}; leakage ratio undefined"
        )
    return leak / open_gain


def frequency_weights(measurements, g: ImpulseResponse, reg_beta: float, grid: FrequencyGrid):
    """Leakage ratio V and regularization weight W on the grid.

    V is |leakage| over |processed open-ear target|, built from set-averaged
    magnitude spectra; pass one MeasurementSet or a sequence of them. Both
    returned arrays live on the grid's one-sided bins, length fft_size // 2 + 1.
    """
    if isinstance(measurements, MeasurementSet):
        measurements = [measurements]
    ratio = _leakage_ratio([_set_spectra(ms, g, grid, 0) for ms in measurements])
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
    lags = np.arange(filter_length)
    return acorr[np.abs(lags[:, None] - lags)]


def _mean(parts) -> np.ndarray:
    """A new array holding the sum of parts, added in order, over their count."""
    total = parts[0].copy()
    for part in parts[1:]:
        total += part
    total /= len(parts)
    return total


def _normal_matrix(grams, reg_lambda: float, penalty: np.ndarray | None) -> np.ndarray:
    """A new array holding the mean Gram plus reg_lambda times the penalty per loudspeaker.

    Averaging keeps lambda comparable across set counts; penalty None is the ridge.
    """
    gram = _mean(grams)
    if penalty is None:
        gram[np.diag_indices_from(gram)] += reg_lambda
    else:
        scaled = reg_lambda * penalty
        taps = penalty.shape[0]
        for start in range(0, gram.shape[0], taps):
            gram[start : start + taps, start : start + taps] += scaled
    return gram


def _factor_normal_matrix(grams, reg_lambda: float, penalty: np.ndarray | None):
    """The regularized normal matrix that _normal_matrix builds, ready for _solve_factored.

    Returns (its upper Cholesky factor, True), or (the matrix itself, False)
    when Cholesky fails. dpotrf factors the one array the sum is built in:
    that sum is exactly symmetric, so its transpose is the same matrix in
    the Fortran order dpotrf overwrites, and no copy is made. The factor is
    the one scipy.linalg.solve(assume_a="pos") makes, without its
    LinAlgWarning on an ill-conditioned matrix. A failed factorization has
    overwritten the sum, so it is built again for the LDLᵀ solve.
    """
    import scipy.linalg

    gram = _normal_matrix(grams, reg_lambda, penalty)
    factor, info = scipy.linalg.lapack.dpotrf(gram.T, overwrite_a=1)
    if info == 0:
        return factor, True
    return _normal_matrix(grams, reg_lambda, penalty), False


def _solve_factored(factored, rhs: np.ndarray) -> np.ndarray:
    """x with normal matrix @ x = rhs, from what _factor_normal_matrix returned.

    A Cholesky factor takes one dpotrs; a matrix that failed Cholesky is
    solved by symmetric LDLᵀ, and only an exact zero pivot there raises
    NumericsError. Neither modifies factored.
    """
    import scipy.linalg

    matrix, cholesky = factored
    if cholesky:
        x, _ = scipy.linalg.lapack.dpotrs(matrix, rhs)
        return x
    try:
        return scipy.linalg.solve(matrix, rhs, assume_a="sym")
    except np.linalg.LinAlgError as exc:
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
    m = system.matrix
    coef = _solve_factored(_factor_normal_matrix([m.T @ m], reg_lambda, penalty), m.T @ system.target)
    return EqualizerFilter(coef.reshape(system.num_loudspeakers, system.filter_length))


def design_coefficients(sets, train: tuple, g: ImpulseResponse, config: DesignConfig, cache: dict) -> np.ndarray:
    """Taps of config.variant trained on the sets indexed by train, shape (N, L_A).

    LS_ATF solves the full system of the first training set; RLS, R_DELTA_LS
    and FR_DELTA_LS reduce that set alone; MFR_DELTA_LS averages the normal
    equations of every training set. The weighted variants regularize by the
    leakage penalty of the sets they train on, the others by a ridge.

    cache collects what other designs can reuse, each piece keyed by all it
    depends on, with N = sets[0].num_loudspeakers, d_H = config.acausal_delay
    and g by identity, so an equal but new g only misses reuse; it stays
    valid while the measurements, filter_length and fft_size stay, across any
    number of forward paths. It holds set i's
    Gram MᵀM under ("gram", N, i), where M lacks the d_H zero rows of
    reduce_to_rtf, which add exact zeros; set i's RTF target under ("target",
    g, i, d_H) and Mᵀt on its first rows under ("rhs", g, N, i, d_H); the
    smoothed leakage ratio of sets train under ("ratio", g, train); LS_ATF
    taps under ("LS_ATF", g, N, i); and the taps solved from the factor key
    (N, train, lambda), extended by (beta, g) for the weighted variants,
    under ("taps", g, d_H, factor key). So RLS and R_DELTA_LS at equal lambda
    share one solve, as do the ridge variants across beta, and a ridge
    factor serves every g. Its one "factor" slot holds the factored
    regularized normal matrix last solved, with its factor key, which is all
    that matrix depends on; points that differ only in d_H share it when they
    run back to back. The slot is cleared before the next matrix is factored,
    so at most one factor is alive. Pass {} for a one-off.

    A Gram, right-hand side or tap vector that overflows raises NumericsError.
    """
    n_spk, taps, shift = sets[0].num_loudspeakers, config.filter_length, config.acausal_delay
    if config.variant == "LS_ATF":
        key = ("LS_ATF", g, n_spk, train[0])
        if key not in cache:
            cache[key] = solve_ls_atf(assemble_atf_system(sets[train[0]], g, taps)).coefficients
        return cache[key]
    if config.variant != "MFR_DELTA_LS":
        train = train[:1]
    weighted = config.variant in WEIGHTED_VARIANTS
    factor_key = (n_spk, train, config.reg_lambda) + ((config.reg_beta, g) if weighted else ())
    key = ("taps", g, shift, factor_key)
    if key not in cache:
        if cache.get("factor", (None,))[0] != factor_key:
            # at most one factor alive, and none while speaker matrices are built
            cache.pop("factor", None)
        for i in train:
            if ("rhs", g, n_spk, i, shift) not in cache:
                if ("target", g, i, shift) not in cache:
                    cache["target", g, i, shift] = _rtf_target(sets[i], g, taps, shift)
                m = _speaker_matrix(sets[i], taps)
                with np.errstate(over="ignore", invalid="ignore"):
                    if ("gram", n_spk, i) not in cache:
                        cache["gram", n_spk, i] = _finite(f"Gram of set {i}", m.T @ m)
                    rhs = m.T @ cache["target", g, i, shift][: m.shape[0]]
                    cache["rhs", g, n_spk, i, shift] = _finite(f"right-hand side of set {i}", rhs)
                del m  # one speaker matrix alive at a time, none in the solve
        if "factor" not in cache:
            penalty = None  # the ridge
            if weighted:
                grid = config.grid(sets)
                if ("ratio", g, train) not in cache:
                    ratio = _leakage_ratio([_set_spectra(sets[i], g, grid, 0) for i in train])
                    cache["ratio", g, train] = fractional_octave_smooth(ratio, grid)
                weight = _log_normal_weight(cache["ratio", g, train], config.reg_beta)
                penalty = _penalty_block(weight, taps, grid.fft_size)
            train_grams = [cache["gram", n_spk, i] for i in train]
            cache["factor"] = (factor_key, _factor_normal_matrix(train_grams, config.reg_lambda, penalty))
        rhs = _mean([cache["rhs", g, n_spk, i, shift] for i in train])
        coef = _finite("taps", _solve_factored(cache["factor"][1], rhs))
        cache[key] = coef.reshape(n_spk, taps)
    return cache[key]


def design_filter(scenario: Scenario, g: ImpulseResponse, config: DesignConfig) -> EqualizerFilter:
    """Design under the configured variant.

    The single-set variants (everything except MFR_DELTA_LS) work on the
    first measurement set of the scenario; the multi-set variant averages
    over all of them. A grid too short for the filter's eval raises ValueError.
    The filter is its taps alone; the command line writes the file around them.
    """
    _check_grid_holds(config.grid(scenario.sets), scenario.sets, g, config.filter_length)
    return EqualizerFilter(design_coefficients(scenario.sets, tuple(range(scenario.num_sets)), g, config, {}))
