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
    "default_fft_size",
    "assemble_atf_system",
    "solve_ls_atf",
    "weights_from_ratio",
    "design_points",
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
    """Solver settings: what a design config file, or a sweep grid point, sets.

    filter_length defaults to 99 taps, as a sweep grid's L_A does. fft_size
    None means "derive from the scene"; grid() resolves it.
    """

    variant: str
    acausal_delay: int
    reg_lambda: float
    reg_beta: float
    filter_length: int = 99
    fft_size: int | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not _is_whole(self.filter_length, 1):
            raise ValueError("filter_length must be a positive integer")
        if not _is_whole(self.acausal_delay, 0):
            raise ValueError("acausal_delay must be a nonnegative integer")
        if self.variant in ("LS_ATF", "RLS") and self.acausal_delay != 0:
            raise ValueError(f"variant {self.variant} does not take an acausal delay")
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

    def grid(self, scenario: Scenario) -> FrequencyGrid:
        """The analysis grid of this config on this scene.

        fft_size is taken as given; None gives default_fft_size of the
        scene's loudspeaker response length and filter_length. The rate is
        the scene's.
        """
        fft_size = self.fft_size
        if fft_size is None:
            fft_size = default_fft_size(scenario.sets[0].speaker_length, self.filter_length)
        return FrequencyGrid(fft_size, scenario.sample_rate_hz)


def _check_grid_holds(grid: FrequencyGrid, ms: MeasurementSet, g: ImpulseResponse, filter_length: int) -> None:
    """Raise ValueError unless the grid holds every spectrum a design and its eval take.

    The longest is the aided response, L_D + L_A + d_G + L_S − 2 samples for
    loudspeaker responses of L_D taps, a forward path of d_G + 1 taps and
    source responses of L_S taps; the desired and leakage responses are shorter.
    Every set of a scene shares ms's lengths.
    """
    length = ms.speaker_length + filter_length + len(g) + ms.source_length - 3
    if grid.fft_size < length:
        raise ValueError(
            f"L_FFT {grid.fft_size} cannot hold the aided response at d_G {len(g) - 1} "
            f"and L_A {filter_length}: it has {length} samples, so L_FFT must be at least {length}"
        )


def _raw_target(ms: MeasurementSet, g: ImpulseResponse, rows: int, shift: int) -> np.ndarray:
    """Processed open-ear response minus leakage, delayed by `shift`, zero-padded."""
    open_branch = np.convolve(g.samples, ms.h_open.samples)
    v = np.zeros(rows)
    v[shift : shift + open_branch.size] += open_branch
    v[shift : shift + len(ms.h_occ)] -= ms.h_occ.samples
    return v


def _through_mic(ms: MeasurementSet, g: ImpulseResponse) -> np.ndarray:
    """g * h_m, the forward path through the set's microphone."""
    return np.convolve(g.samples, ms.h_m.samples)


def assemble_atf_system(ms: MeasurementSet, g: ImpulseResponse, filter_length: int) -> tuple:
    """Full acoustic-transfer-function least-squares system: (matrix, target).

    The block matrix convolves each candidate filter with forward path,
    microphone pickup and its loudspeaker response, one block of
    filter_length columns per loudspeaker; the target is the processed
    open-ear response with the leakage already subtracted. The matrix is
    structurally rank deficient because every block shares the
    forward-path-and-microphone factor.
    """
    if not _is_whole(filter_length, 1):
        raise ValueError("filter_length must be a positive integer")
    filter_length = int(filter_length)
    through_mic = _through_mic(ms, g)
    chains = [np.convolve(through_mic, d_n.samples) for d_n in ms.d]
    matrix = np.hstack([convolution_matrix(chain, filter_length) for chain in chains])
    return matrix, _raw_target(ms, g, matrix.shape[0], 0)


def solve_ls_atf(matrix: np.ndarray, target: np.ndarray, filter_length: int) -> np.ndarray:
    """Minimum-norm least-squares taps, loudspeakers x filter_length, of an assemble_atf_system.

    Raises NumericsError when the system has rank 0, as under a dead
    forward path, or when the taps overflow the float range.
    """
    coef, _, rank, _ = np.linalg.lstsq(matrix, target, rcond=RANK_RTOL)
    if rank == 0:
        raise NumericsError("full-ATF system has rank 0, as under a dead forward path")
    return _finite("taps", coef).reshape(-1, filter_length)


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


def _rtf_path(through_mic: np.ndarray) -> tuple:
    """What every RTF fit on through_mic shares: the path, its autocorrelation and its _spectral_rcond_bound.

    An autocorrelation that overflows raises NumericsError.
    """
    acorr = _finite(
        "RTF autocorrelation",
        np.correlate(through_mic, through_mic, "full")[through_mic.size - 1 :],
    )
    return through_mic, acorr, _spectral_rcond_bound(through_mic)


def _fit_rtf(path: tuple, v: np.ndarray, n_taps: int) -> np.ndarray:
    """Least-squares n_taps-tap x with convolve(through_mic, x) ~ v, for path = _rtf_path(through_mic).

    The normal matrix of the convolution matrix is the symmetric Toeplitz
    matrix of the autocorrelation of through_mic, and its right-hand side is
    the cross-correlation of v with through_mic. When _spectral_rcond_bound
    proves its reciprocal condition number at least NORMAL_RCOND, the fit is
    one Levinson solve in O(n_taps²) that never forms the convolution
    matrix; Levinson is weakly stable on positive definite Toeplitz
    matrices, and squaring the condition number is harmless there. Otherwise
    the fit falls back to dense lstsq on the convolution matrix, whose
    singular values decide rank deficiency. A cross-correlation that
    overflows raises NumericsError.
    """
    through_mic, acorr, rcond_bound = path
    xcorr = _finite("RTF cross-correlation", np.correlate(v, through_mic, "valid"))
    if rcond_bound >= NORMAL_RCOND:
        column = np.zeros(n_taps)
        column[: min(acorr.size, n_taps)] = acorr[:n_taps]
        import scipy.linalg

        # _rtf_path and the line above checked both arguments finite
        return scipy.linalg.solve_toeplitz(column, xcorr, check_finite=False)
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


def _rtf_target(ms: MeasurementSet, g: ImpulseResponse, filter_length: int, shift: int, path: tuple) -> np.ndarray:
    """The RTF fit of one set under g, delayed by `shift`, free of the loudspeakers.

    This divides the shared forward factor out of the full system: the target
    is the least-squares FIR fit of the relative transfer function (open ear
    over processed microphone path, leakage folded in), delayed by `shift`
    so that anticausal content gets taps to land on. path is _rtf_path of
    the set's _through_mic under g. The target's first taps meet the rows of
    _speaker_matrix, which depends on neither g nor shift; its last `shift`
    taps meet zero rows, which no causal filter reaches and which add exact
    zeros to the normal equations, so the design leaves them out. A path
    through the microphone that is rank deficient, as a zero-gain one,
    raises NumericsError.
    """
    n_taps = ms.speaker_length + filter_length - 1 + shift
    v = _raw_target(ms, g, path[0].size + n_taps - 1, shift)
    return _fit_rtf(path, v, n_taps)


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
    ratio and the weight are one-sided, length fft_size // 2 + 1, and
    reg_beta is a DesignConfig's, so positive.
    """
    smoothed = fractional_octave_smooth(np.asarray(ratio, dtype=float), grid)
    return _log_normal_weight(smoothed, reg_beta)


def _set_spectra(ms: MeasurementSet, g: ImpulseResponse, grid: FrequencyGrid, loudspeakers: int) -> np.ndarray:
    """A set's spectra under g on the grid's one-sided bins, one row per response.

    Row 0 is the leakage h_occ, row 1 the processed open ear g*h_open, and
    rows 2.. the paths d_n*g*h_m of the first `loudspeakers` loudspeakers.
    One transform takes them all, and each row is rfft(response, L_FFT) bit
    for bit. A response longer than L_FFT raises ValueError.
    """
    responses = [ms.h_occ.samples, np.convolve(g.samples, ms.h_open.samples)]
    if loudspeakers:
        through_mic = _through_mic(ms, g)
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


def _penalty_lags(weights: np.ndarray, filter_length: int, fft_size: int) -> np.ndarray:
    """The first filter_length lags of the autocorrelation of the squared weight curve.

    weights is one-sided, length fft_size // 2 + 1, and the autocorrelation is
    taken over its two-sided mirror image. Their _toeplitz matrix is the
    quadratic form of the weighted-spectrum seminorm of one loudspeaker's
    taps: with the DFT scaled by 1/sqrt(fft_size), all-ones weights give
    exactly the identity, which keeps lambda comparable between the
    identity-regularized and frequency-weighted variants.
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
    return acorr[:filter_length].copy()


def _toeplitz(lags: np.ndarray) -> np.ndarray:
    """The symmetric Toeplitz matrix whose first column is lags."""
    index = np.arange(lags.size)
    return lags[np.abs(index[:, None] - index)]


def _mean(parts) -> np.ndarray:
    """The sum of parts, added in order, over their count: a new array, or the one part itself."""
    if len(parts) == 1:
        return parts[0]  # x / 1 is x
    total = parts[0].copy()
    for part in parts[1:]:
        total += part
    total /= len(parts)
    return total


def _normal_matrix(gram: np.ndarray, reg_lambda: float, penalty: np.ndarray | None) -> np.ndarray:
    """A new array holding the mean Gram plus reg_lambda times the penalty per loudspeaker.

    Averaging keeps lambda comparable across set counts; penalty None is the ridge.
    """
    gram = gram.copy()
    if penalty is None:
        gram[np.diag_indices_from(gram)] += reg_lambda
    else:
        scaled = reg_lambda * penalty
        taps = penalty.shape[0]
        for start in range(0, gram.shape[0], taps):
            gram[start : start + taps, start : start + taps] += scaled
    return gram


def _factor_normal_matrix(gram: np.ndarray, reg_lambda: float, penalty: np.ndarray | None):
    """The regularized normal matrix that _normal_matrix builds on a mean Gram, ready for _solve_factored.

    Returns (its upper Cholesky factor, True), or (the matrix itself, False)
    when Cholesky fails. dpotrf factors the one array the sum is built in:
    that sum is exactly symmetric, so its transpose is the same matrix in
    the Fortran order dpotrf overwrites, and no copy is made. The factor is
    the one scipy.linalg.solve(assume_a="pos") makes, without its
    LinAlgWarning on an ill-conditioned matrix. A failed factorization has
    overwritten the sum, so it is built again for the LDLᵀ solve. gram is
    left as it was.
    """
    import scipy.linalg

    factor, info = scipy.linalg.lapack.dpotrf(_normal_matrix(gram, reg_lambda, penalty).T, overwrite_a=1)
    if info == 0:
        return factor, True
    return _normal_matrix(gram, reg_lambda, penalty), False


def _solve_factored(factored, rhs: np.ndarray) -> np.ndarray:
    """The columns x of normal matrix @ x = rhs, from what _factor_normal_matrix returned.

    rhs holds one right-hand side per column. A Cholesky factor solves them
    all in one dpotrs, which gives each column the bits a one-column call
    gives it. A matrix that failed Cholesky is solved column by column by
    symmetric LDLᵀ, as stacking its columns changed their bits; only an
    exact zero pivot there raises NumericsError. Neither modifies factored.
    """
    import scipy.linalg

    matrix, cholesky = factored
    if cholesky:
        x, _ = scipy.linalg.lapack.dpotrs(matrix, rhs)
        return x
    try:
        return np.column_stack([scipy.linalg.solve(matrix, column, assume_a="sym") for column in rhs.T])
    except np.linalg.LinAlgError as exc:
        raise NumericsError(
            "regularized normal equations are singular; the scene is not "
            "invertible at this regularization strength"
        ) from exc


def _add_right_hand_sides(ms: MeasurementSet, i: int, columns, filter_length: int, cache: dict) -> None:
    """Cache set i's Gram and its right-hand side under each (g, d_H) of columns that lacks one.

    One speaker matrix serves them all, and it is freed on return.
    """
    n_spk = ms.num_loudspeakers
    missing = [(g, shift) for g, shift in columns if ("rhs", g, n_spk, i, shift) not in cache]
    if not missing:
        return
    for g, shift in missing:
        if ("target", g, i, shift) not in cache:
            if ("path", g, i) not in cache:
                cache["path", g, i] = _rtf_path(_through_mic(ms, g))
            cache["target", g, i, shift] = _rtf_target(ms, g, filter_length, shift, cache["path", g, i])
    m = _speaker_matrix(ms, filter_length)
    with np.errstate(over="ignore", invalid="ignore"):
        if ("gram", n_spk, i) not in cache:
            cache["gram", n_spk, i] = _finite(f"Gram of set {i}", m.T @ m)
        for g, shift in missing:
            rhs = m.T @ cache["target", g, i, shift][: m.shape[0]]
            cache["rhs", g, n_spk, i, shift] = _finite(f"right-hand side of set {i}", rhs)


def design_points(designs, train: tuple, cache: dict) -> list:
    """Taps of each (scenario, g, config) of designs trained on the sets indexed by train, in order.

    Each design's taps have shape (N, L_A), N = scenario.num_loudspeakers.
    LS_ATF solves the full system of the first training set; RLS, R_DELTA_LS
    and FR_DELTA_LS reduce that set alone; MFR_DELTA_LS averages the normal
    equations of every training set. The weighted variants regularize by the
    leakage penalty of the sets they train on, the others by a ridge. Every
    design shares L_A and L_FFT, and a scenario of N loudspeakers is the same
    in every design.

    Designs that share their regularized normal matrix form a group: they
    share N, training sets and lambda, and for the weighted variants beta and
    g too. Each group's matrix is built and factored once, and one dpotrs
    solves all of the group's distinct (g, d_H) right-hand sides, so RLS and
    R_DELTA_LS at equal lambda share a solve, and a ridge factor serves every
    g. LS_ATF designs run first, as their dense lstsq is the largest
    transient and no Gram is held yet then. Every speaker matrix is freed
    before any factor is made. The mean Gram of a training-set selection and
    the averaged right-hand sides live in the call; at most one mean Gram and
    one factor are alive at a time.

    cache collects what other calls can reuse, each piece keyed by all it
    depends on, with d_H = config.acausal_delay and g by identity, so an equal
    but new g only misses reuse; it stays valid while the measurements, L_A
    and L_FFT stay, across any number of forward paths and folds. It holds
    set i's _rtf_path under ("path", g, i) and its RTF target under
    ("target", g, i, d_H); its Gram MᵀM under ("gram", N, i), where M is
    _speaker_matrix, and Mᵀt on the target's first rows under
    ("rhs", g, N, i, d_H); the smoothed leakage
    ratio of the training sets `sel` under ("ratio", g, sel), and its penalty's
    _penalty_lags at beta under ("lags", g, sel, beta); and LS_ATF taps under
    ("LS_ATF", g, N, i). Pass {} for a one-off.

    A correlation, Gram, right-hand side or tap vector that overflows raises
    NumericsError.
    """
    taps = [None] * len(designs)
    # (N, training sets) -> factor key -> (g, d_H) -> the designs that column solves
    groups, scenes = {}, {}
    for index, (scenario, g, config) in enumerate(designs):
        n_spk = scenario.num_loudspeakers
        scenes.setdefault(n_spk, scenario.sets)
        if config.variant == "LS_ATF":
            key = ("LS_ATF", g, n_spk, train[0])
            if key not in cache:
                # the system is a temporary: it dies with this statement
                length = config.filter_length
                cache[key] = solve_ls_atf(*assemble_atf_system(scenario.sets[train[0]], g, length), length)
            taps[index] = cache[key]
            continue
        sel = train if config.variant == "MFR_DELTA_LS" else train[:1]
        weighted = config.variant in WEIGHTED_VARIANTS
        factor_key = (config.reg_lambda,) + ((config.reg_beta, g) if weighted else ())
        columns = groups.setdefault((n_spk, sel), {}).setdefault(factor_key, {})
        columns.setdefault((g, config.acausal_delay), []).append(index)
    if not groups:
        return taps
    config = designs[0][2]
    filter_length, grid = config.filter_length, config.grid(designs[0][0])

    wanted = {}  # (N, set) -> the (g, d_H) of its right-hand sides
    for (n_spk, sel), factors in groups.items():
        for columns in factors.values():
            for i in sel:
                wanted.setdefault((n_spk, i), {}).update(dict.fromkeys(columns))
    for (n_spk, i), columns in wanted.items():
        _add_right_hand_sides(scenes[n_spk][i], i, columns, filter_length, cache)

    for (n_spk, sel), factors in groups.items():
        gram = _mean([cache["gram", n_spk, i] for i in sel])
        means = {}  # (g, d_H) -> the right-hand side averaged over sel
        for (reg_lambda, *weighting), columns in factors.items():
            penalty = None  # the ridge
            if weighting:
                beta, g = weighting
                if ("lags", g, sel, beta) not in cache:
                    if ("ratio", g, sel) not in cache:
                        ratio = _leakage_ratio([_set_spectra(scenes[n_spk][i], g, grid, 0) for i in sel])
                        cache["ratio", g, sel] = fractional_octave_smooth(ratio, grid)
                    weight = _log_normal_weight(cache["ratio", g, sel], beta)
                    cache["lags", g, sel, beta] = _penalty_lags(weight, filter_length, grid.fft_size)
                penalty = _toeplitz(cache["lags", g, sel, beta])
            for g, shift in columns:
                if (g, shift) not in means:
                    means[g, shift] = _mean([cache["rhs", g, n_spk, i, shift] for i in sel])
            # one column per right-hand side; the factor dies with this statement
            rhs = np.array([means[column] for column in columns]).T
            solved = _finite("taps", _solve_factored(_factor_normal_matrix(gram, reg_lambda, penalty), rhs))
            for coef, indices in zip(solved.T, columns.values()):
                for index in indices:
                    taps[index] = coef.reshape(n_spk, filter_length)
        del gram  # at most one mean Gram alive
    return taps


def design_filter(scenario: Scenario, g: ImpulseResponse, config: DesignConfig) -> np.ndarray:
    """The taps, loudspeakers x L_A, designed under the configured variant.

    The single-set variants (everything except MFR_DELTA_LS) work on the
    first measurement set of the scenario; the multi-set variant averages
    over all of them. A grid too short for the filter's eval raises ValueError.
    A filter is its taps alone; the command line writes the file around them.
    """
    _check_grid_holds(config.grid(scenario), scenario.sets[0], g, config.filter_length)
    train = tuple(range(scenario.num_sets))
    return design_points([(scenario, g, config)], train, {})[0]
