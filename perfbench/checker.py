"""Independent checks of eqdesign's outputs, computed from its files alone.

Nothing here imports eqdesign. Scene, filter, report and sweep files are read
as plain JSON and CSV, and every quantity that is checked is recomputed with
NumPy from the definitions the README states:

* the auditory distance: ERB weights 1 / (24.7 (4.37 f/1000 + 1)) on the
  positive bins in [200, 8000] Hz, normalized to sum to one, applied to
  |20 log10(|aided| / |desired|)|;
* a plain dense reference design for every variant: explicit convolution
  matrices, a least-squares FIR fit of the relative transfer function,
  1/6-octave smoothing of the leakage ratio, the log-normal weight, its
  Toeplitz penalty, and one direct solve of the normal equations.

Findings collects the problems of every check; none means every output held.
"""

from __future__ import annotations

import csv
import itertools
import json
import math

import numpy as np

# A recomputed distance uses the program's own coefficients, so it differs
# only in summation order: gaps seen were below 1e-13 dB.
DISTANCE_TOL_DB = 1e-9

# A re-derived design solves the same normal equations with another
# factorization (LU instead of Cholesky, lstsq instead of the program's
# matrices), so the gap grows with the condition number kappa of the solved
# matrix: a backward-stable solve moves the solution by about kappa * eps.
# Seen: below 1e-12 dB where kappa < 1e5, and at most 0.15 * kappa * eps dB
# (0.02 dB at kappa 6e14 and 0.17 dB at kappa 1.4e16, single-set FR_DELTA_LS
# points with two 200-tap loudspeakers). A row passes within
# ROW_TOL_DB + kappa * eps dB, and coefficients within COEF_RTOL + kappa * eps
# relative to their peak.
ROW_TOL_DB = 1e-6
COEF_RTOL = 1e-8
EPS = float(np.finfo(float).eps)

# singular values below this share of the largest are dropped in the
# minimum-norm reference of the full-ATF variant
LS_ATF_RCOND = 1e-10

ERB_BAND_HZ = (200.0, 8000.0)

SWEEP_HEADER = ["variant", "N", "L_A", "d_H", "lambda", "beta", "G0_db", "d_G", "fold",
                "delta_h_aud_db"]


# ---------------------------------------------------------------------------
# file readers


def read_scene(path) -> dict:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    sets = [
        {
            "h_m": np.asarray(s["h_m"], dtype=float),
            "h_open": np.asarray(s["h_open"], dtype=float),
            "h_occ": np.asarray(s["h_occ"], dtype=float),
            "d": [np.asarray(x, dtype=float) for x in s["d"]],
        }
        for s in doc["sets"]
    ]
    return {"rate": float(doc["sample_rate_hz"]), "sets": sets}


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def read_csv(path) -> list[list[str]]:
    with open(path, newline="", encoding="ascii") as f:
        return list(csv.reader(f))


# ---------------------------------------------------------------------------
# signal pieces


def forward_path(gain_db: float, delay: int) -> np.ndarray:
    g = np.zeros(delay + 1)
    g[-1] = 10.0 ** (gain_db / 20.0)
    return g


def conv_matrix(h: np.ndarray, cols: int) -> np.ndarray:
    """T with T @ x == np.convolve(h, x) for len(x) == cols."""
    out = np.zeros((h.size + cols - 1, cols))
    for j in range(cols):
        out[j : j + h.size, j] = h
    return out


def half_magnitude(x: np.ndarray, n_fft: int) -> np.ndarray:
    """|DFT| on bins 0 .. n_fft // 2."""
    return np.abs(np.fft.rfft(x, n_fft))


def default_fft_size(speaker_length: int, taps: int) -> int:
    n = 4 * (speaker_length + taps - 1)
    size = 2
    while size < n:
        size *= 2
    return size


def erb_weights(n_fft: int, rate: float) -> np.ndarray:
    freqs = np.arange(n_fft // 2 + 1) * (rate / n_fft)
    band = (freqs >= ERB_BAND_HZ[0]) & (freqs <= ERB_BAND_HZ[1])
    w = np.where(band, 1.0 / (24.7 * (4.37 * freqs / 1000.0 + 1.0)), 0.0)
    return w / w.sum()


def distance_db(h_aid: np.ndarray, h_des: np.ndarray, n_fft: int, rate: float) -> float:
    w = erb_weights(n_fft, rate)
    band = w > 0
    ratio = half_magnitude(h_aid, n_fft)[band] / half_magnitude(h_des, n_fft)[band]
    return float(np.sum(w[band] * np.abs(20.0 * np.log10(ratio))))


def smooth_sixth_octave(v: np.ndarray, n_fft: int, rate: float) -> np.ndarray:
    """Mean over the bins within +-1/12 octave of each positive bin.

    v holds bins 0 .. n_fft // 2; DC and, for even sizes, Nyquist pass through.
    """
    freqs = np.arange(n_fft // 2 + 1) * (rate / n_fft)
    edge = 2.0 ** (1.0 / 12.0)
    centres = np.arange(1, (n_fft + 1) // 2)
    lo = np.maximum(np.searchsorted(freqs, freqs[centres] / edge, side="left"), 1)
    hi = np.searchsorted(freqs, freqs[centres] * edge, side="right")
    sums = np.concatenate([[0.0], np.cumsum(v)])
    out = v.copy()
    out[centres] = (sums[hi] - sums[lo]) / (hi - lo)
    return out


def aided_response(s: dict, g: np.ndarray, coef: np.ndarray) -> np.ndarray:
    pickup = np.convolve(g, s["h_m"])
    total = sum(np.convolve(np.convolve(d, a), pickup) for d, a in zip(s["d"], coef))
    total[: s["h_occ"].size] += s["h_occ"]
    return total


def set_distances(sets, g, coef, n_fft: int, rate: float) -> list[float]:
    return [
        distance_db(aided_response(s, g, coef), np.convolve(g, s["h_open"]), n_fft, rate)
        for s in sets
    ]


# ---------------------------------------------------------------------------
# dense reference design


def _shifted_target(s: dict, g: np.ndarray, rows: int, shift: int) -> np.ndarray:
    open_branch = np.convolve(g, s["h_open"])
    v = np.zeros(rows)
    v[shift : shift + open_branch.size] += open_branch
    v[shift : shift + s["h_occ"].size] -= s["h_occ"]
    return v


def _rtf_system(s: dict, g: np.ndarray, taps: int, shift: int):
    speaker_len = s["d"][0].size
    n_taps = speaker_len + taps - 1 + shift
    lhs = conv_matrix(np.convolve(g, s["h_m"]), n_taps)
    rtf = np.linalg.lstsq(lhs, _shifted_target(s, g, lhs.shape[0], shift), rcond=None)[0]
    matrix = np.zeros((n_taps, len(s["d"]) * taps))
    for n, d in enumerate(s["d"]):
        matrix[: speaker_len + taps - 1, n * taps : (n + 1) * taps] = conv_matrix(d, taps)
    return matrix, rtf


def _weight_penalty(sets, g, beta: float, taps: int, n_fft: int, rate: float) -> np.ndarray:
    leak = np.mean([half_magnitude(s["h_occ"], n_fft) for s in sets], axis=0)
    target = np.mean([half_magnitude(np.convolve(g, s["h_open"]), n_fft) for s in sets], axis=0)
    smoothed = smooth_sixth_octave(leak / target, n_fft, rate)
    sigma = math.sqrt(math.log(10.0) / 20.0 * beta)
    w = np.zeros_like(smoothed)
    pos = smoothed > 0
    w[pos] = np.exp(-0.5 * (np.log(smoothed[pos]) / sigma) ** 2) / (
        math.sqrt(2.0 * math.pi) * sigma * smoothed[pos]
    )
    acorr = np.fft.irfft(w**2, n_fft)[:taps]
    lags = np.abs(np.subtract.outer(np.arange(taps), np.arange(taps)))
    return acorr[lags]


def reference_design(sets, g, variant: str, taps: int, shift: int, lam: float,
                     beta: float, n_fft: int, rate: float) -> tuple[np.ndarray, float]:
    """Filter coefficients (loudspeakers x taps) for one design point, and the
    condition number of the matrix that was solved (for LS_ATF, of the
    retained part of its spectrum)."""
    speakers = len(sets[0]["d"])
    if variant != "MFR_DELTA_LS":
        sets = sets[:1]
    if variant == "LS_ATF":
        s = sets[0]
        pickup = np.convolve(g, s["h_m"])
        matrix = np.hstack([conv_matrix(np.convolve(pickup, d), taps) for d in s["d"]])
        target = _shifted_target(s, g, matrix.shape[0], 0)
        coef, _, rank, singulars = np.linalg.lstsq(matrix, target, rcond=LS_ATF_RCOND)
        return coef.reshape(speakers, taps), float(singulars[0] / singulars[rank - 1])
    gram = np.zeros((speakers * taps, speakers * taps))
    rhs = np.zeros(speakers * taps)
    for s in sets:
        matrix, rtf = _rtf_system(s, g, taps, shift)
        gram += matrix.T @ matrix
        rhs += matrix.T @ rtf
    gram /= len(sets)
    rhs /= len(sets)
    if variant in ("RLS", "R_DELTA_LS"):
        gram += lam * np.eye(speakers * taps)
    else:
        block = _weight_penalty(sets, g, beta, taps, n_fft, rate)
        for n in range(speakers):
            gram[n * taps : (n + 1) * taps, n * taps : (n + 1) * taps] += lam * block
    coef = np.linalg.solve(gram, rhs).reshape(speakers, taps)
    return coef, float(np.linalg.cond(gram))


# ---------------------------------------------------------------------------
# checks

# a solved matrix this ill-conditioned is counted as such in the findings
ILL_CONDITIONED = 1e10


class Findings:
    """What the checks saw: problems (empty when every output held) and the
    figures behind them."""

    def __init__(self):
        self.problems: list[str] = []
        self.reports = 0
        self.designed_db: list[float] = []
        self.zero_filter_db: list[float] = []
        self.rows_checked = 0
        self.rows_rederived = 0
        self.max_kappa = 0.0
        self.ill_conditioned = 0
        self.max_gap_db = 0.0
        self.max_coef_gap = 0.0

    def _kappa(self, kappa: float) -> None:
        self.max_kappa = max(self.max_kappa, kappa)
        self.ill_conditioned += kappa > ILL_CONDITIONED

    def summary(self) -> dict:
        return {
            "problems": len(self.problems),
            "reports_recomputed": self.reports,
            "designed_mean_db": [min(self.designed_db, default=0.0), max(self.designed_db, default=0.0)],
            "zero_filter_mean_db": [min(self.zero_filter_db, default=0.0),
                                    max(self.zero_filter_db, default=0.0)],
            "sweep_rows_checked": self.rows_checked,
            "rows_rederived": self.rows_rederived,
            "max_row_gap_db": self.max_gap_db,
            "max_coef_gap": self.max_coef_gap,
            "max_kappa": self.max_kappa,
            "ill_conditioned_solves": self.ill_conditioned,
        }

    def check_report(self, scene_path, config: dict, filter_path, report_path) -> None:
        """Recompute the per-set distances `eval` wrote, for the design
        config the harness asked for, and score the zero filter, which
        leaves only the leakage, against the designed one."""
        scene = read_scene(scene_path)
        report = read_json(report_path)
        g = forward_path(config["G0_db"], config["d_G"])
        coef = np.asarray(read_json(filter_path)["coefficients"], dtype=float)
        n_fft = _fft_size(config, scene)
        ours = set_distances(scene["sets"], g, coef, n_fft, scene["rate"])
        zero = set_distances(scene["sets"], g, np.zeros_like(coef), n_fft, scene["rate"])
        theirs = report["delta_h_aud_db"]
        self.reports += 1
        self.designed_db.append(float(np.mean(ours)))
        self.zero_filter_db.append(float(np.mean(zero)))
        if len(theirs) != len(ours):
            self.problems.append(f"{report_path}: {len(theirs)} distances for {len(ours)} sets")
            return
        for i, (a, b) in enumerate(zip(ours, theirs)):
            if not abs(a - b) <= DISTANCE_TOL_DB:
                self.problems.append(f"{report_path}: set {i} reads {b} dB, recomputed {a} dB")
        if not abs(report["mean_delta_h_aud_db"] - np.mean(ours)) <= DISTANCE_TOL_DB:
            self.problems.append(f"{report_path}: mean reads {report['mean_delta_h_aud_db']} dB, "
                                 f"recomputed {np.mean(ours)} dB")
        if not np.mean(ours) < np.mean(zero):
            self.problems.append(f"{filter_path}: mean distance {np.mean(ours)} dB is not below "
                                 f"the zero filter's {np.mean(zero)} dB")

    def check_design(self, scene_path, config: dict, filter_path) -> None:
        """Compare the coefficients `design` wrote with the dense reference."""
        scene = read_scene(scene_path)
        got = np.asarray(read_json(filter_path)["coefficients"], dtype=float)
        n_fft = _fft_size(config, scene)
        want, kappa = reference_design(
            scene["sets"], forward_path(config["G0_db"], config["d_G"]), config["variant"],
            config["L_A"], config["d_H"], config["lambda"], config["beta"], n_fft, scene["rate"],
        )
        self._kappa(kappa)
        if got.shape != want.shape:
            self.problems.append(f"{filter_path}: coefficients of shape {got.shape}, "
                                 f"expected {want.shape}")
            return
        gap = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        self.max_coef_gap = max(self.max_coef_gap, gap)
        if not gap <= COEF_RTOL + kappa * EPS:
            self.problems.append(f"{filter_path}: coefficients differ from the reference by "
                                 f"{gap:.3g} of their peak (kappa {kappa:.3g})")

    def check_sweep(self, scene_path, grid: dict, csv_path, mode: str, sample) -> None:
        """Every row present, in grid order, with a finite distance; the rows
        at the `sample` indices re-derived with the dense reference."""
        scene = read_scene(scene_path)
        rows = read_csv(csv_path)
        if not rows or rows[0] != SWEEP_HEADER:
            self.problems.append(f"{csv_path}: header {rows[:1]}")
            return
        rows = rows[1:]
        want = expected_rows(grid, len(scene["sets"]), mode)
        if len(rows) != len(want):
            self.problems.append(f"{csv_path}: {len(rows)} rows, expected {len(want)}")
            return
        taps = grid.get("L_A", 99)
        self.rows_checked += len(rows)
        for i, (row, key) in enumerate(zip(rows, want)):
            variant, n_spk, shift, lam, beta, g0, d_g, fold = key
            got = (row[0], int(row[1]), int(row[2]), int(row[3]), float(row[4]),
                   float(row[5]), float(row[6]), int(row[7]), int(row[8]))
            if got != (variant, n_spk, taps, shift, lam, beta, g0, d_g, fold):
                self.problems.append(f"{csv_path}: row {i} is {row[:9]}, expected {key}")
                return
            if not math.isfinite(float(row[9])):
                self.problems.append(f"{csv_path}: row {i} has distance {row[9]}")
        for i in sample:
            variant, n_spk, shift, lam, beta, g0, d_g, fold = want[i]
            sets = [dict(s, d=s["d"][:n_spk]) for s in scene["sets"]]
            train, test = sets, sets
            if fold >= 0:
                train = sets[:fold] + sets[fold + 1 :]
                test = [sets[fold]]
            n_fft = _fft_size(grid, scene)
            g = forward_path(g0, d_g)
            coef, kappa = reference_design(train, g, variant, taps, shift, lam, beta, n_fft,
                                           scene["rate"])
            ours = float(np.mean(set_distances(test, g, coef, n_fft, scene["rate"])))
            gap = abs(ours - float(rows[i][9]))
            self.rows_rederived += 1
            self._kappa(kappa)
            self.max_gap_db = max(self.max_gap_db, gap)
            if not gap <= ROW_TOL_DB + kappa * EPS:
                self.problems.append(f"{csv_path}: row {i} ({variant}, N={n_spk}, d_H={shift}, "
                                     f"lambda={lam}, fold={fold}) reads {rows[i][9]} dB, "
                                     f"reference {ours} dB (kappa {kappa:.3g})")


def _fft_size(config: dict, scene: dict) -> int:
    """The analysis grid a design config or grid names, or the default one."""
    return config.get("L_FFT") or default_fft_size(scene["sets"][0]["d"][0].size,
                                                   config.get("L_A", 99))


def _as_list(value) -> list:
    return value if isinstance(value, list) else [value]


def expected_rows(grid: dict, num_sets: int, mode: str) -> list[tuple]:
    """Sweep row keys in the documented order: the grid product, then fold."""
    axes = [_as_list(grid[k]) for k in ("variant", "N", "d_H", "lambda", "beta", "G0_db", "d_G")]
    folds = range(num_sets) if mode == "leave-one-out" else [-1]
    return [point + (fold,) for point in itertools.product(*axes) for fold in folds]
