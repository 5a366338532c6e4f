"""Acoustic scenes: measured transfer-function sets, synthesis, JSON round-trip.

A scene bundles the four acoustic paths that matter for a vented or open
hearing device: the external source to the device microphone (h_m), to the
open eardrum (h_open), and through the vent to the occluded eardrum (h_occ),
plus one loudspeaker-to-eardrum response per receiver (d). Several sets of
the same scene stand for repeated device insertions, which is where the
robust design variants get their averaging from.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .signals import ImpulseResponse, _is_whole, _pow2_at_least, _sampling_margin

__all__ = [
    "ValidationError",
    "MeasurementSet",
    "Scenario",
    "SynthSpec",
    "forward_path_ir",
    "synth_scenario",
    "select_loudspeakers",
    "scenario_fingerprint",
    "save_scenario",
    "load_scenario",
    "scenario_from_dict",
]

PHASE_FAMILIES = ("minimum-phase", "non-minimum-phase", "co-prime-pair")

_DB_TO_LN = math.log(10.0) / 20.0


class ValidationError(ValueError):
    """Structured input (scene data, config files) that violates the format."""


# ---------------------------------------------------------------------------
# containers


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """One insertion's worth of acoustic transfer functions.

    h_m, h_open and h_occ share one length; every loudspeaker response in d
    shares another. The sample rate is the scene's.
    """

    h_m: ImpulseResponse
    h_open: ImpulseResponse
    h_occ: ImpulseResponse
    d: tuple[ImpulseResponse, ...]

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(self.d))
        for name in ("h_m", "h_open", "h_occ"):
            if not isinstance(getattr(self, name), ImpulseResponse):
                raise ValidationError(f"{name}: expected an ImpulseResponse")
        if len(self.d) < 1:
            raise ValidationError("d: at least one loudspeaker response is required")
        for j, ir in enumerate(self.d):
            if not isinstance(ir, ImpulseResponse):
                raise ValidationError(f"d[{j}]: expected an ImpulseResponse")
        n = len(self.h_m)
        for name in ("h_open", "h_occ"):
            if len(getattr(self, name)) != n:
                raise ValidationError(
                    f"{name}: length {len(getattr(self, name))} does not match h_m length {n}"
                )
        m = len(self.d[0])
        for j, ir in enumerate(self.d):
            if len(ir) != m:
                raise ValidationError(f"d[{j}]: length {len(ir)} does not match d[0] length {m}")

    def _responses(self) -> tuple[ImpulseResponse, ...]:
        """h_m, h_open, h_occ, d[0], d[1], ...: the set's responses in file order."""
        return (self.h_m, self.h_open, self.h_occ, *self.d)

    @property
    def num_loudspeakers(self) -> int:
        return len(self.d)

    @property
    def source_length(self) -> int:
        return len(self.h_m)

    @property
    def speaker_length(self) -> int:
        return len(self.d[0])


@dataclass(frozen=True, eq=False)
class Scenario:
    """A congruent family of measurement sets, all sampled at the scene's one rate."""

    sets: tuple[MeasurementSet, ...]
    sample_rate_hz: float

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(self.sets))
        if len(self.sets) < 1:
            raise ValidationError("sets: at least one measurement set is required")
        if not self.sample_rate_hz > 0:
            raise ValidationError("sample_rate_hz must be positive")
        ref = self.sets[0]
        for i, ms in enumerate(self.sets):
            if not isinstance(ms, MeasurementSet):
                raise ValidationError(f"sets[{i}]: expected a MeasurementSet")
            if ms.num_loudspeakers != ref.num_loudspeakers:
                raise ValidationError(
                    f"sets[{i}].d: expected {ref.num_loudspeakers} loudspeakers, got {ms.num_loudspeakers}"
                )
            if ms.source_length != ref.source_length:
                raise ValidationError(
                    f"sets[{i}].h_m: length {ms.source_length} does not match sets[0] length {ref.source_length}"
                )
            if ms.speaker_length != ref.speaker_length:
                raise ValidationError(
                    f"sets[{i}].d: length {ms.speaker_length} does not match sets[0] length {ref.speaker_length}"
                )

    @property
    def num_sets(self) -> int:
        return len(self.sets)

    @property
    def num_loudspeakers(self) -> int:
        return self.sets[0].num_loudspeakers


def select_loudspeakers(scenario: Scenario, count: int) -> Scenario:
    """Restrict a scenario to its first `count` loudspeakers."""
    if not _is_whole(count, 1):
        raise ValidationError("loudspeaker count must be a positive integer")
    if count > scenario.num_loudspeakers:
        raise ValidationError(
            f"requested {count} loudspeakers, scenario has {scenario.num_loudspeakers}"
        )
    trimmed = tuple(
        MeasurementSet(ms.h_m, ms.h_open, ms.h_occ, ms.d[: int(count)]) for ms in scenario.sets
    )
    return Scenario(trimmed, scenario.sample_rate_hz)


def forward_path_ir(gain_db: float, delay_samples: int) -> ImpulseResponse:
    """Hearing-device forward path: a flat gain behind an integer processing delay."""
    if not _is_whole(delay_samples, 0):
        raise ValidationError("delay_samples must be a nonnegative integer")
    g = np.zeros(int(delay_samples) + 1)
    g[-1] = _db_to_gain(gain_db, "forward path gain")
    return ImpulseResponse(g)


def _db_to_gain(level_db: float, name: str) -> float:
    try:
        return 10.0 ** (level_db / 20.0)
    except OverflowError:
        raise ValidationError(f"{name} {level_db} dB overflows a float") from None


# ---------------------------------------------------------------------------
# synthetic scene generation


@dataclass(frozen=True)
class SynthSpec:
    """Knobs for the synthetic scene generator.

    correlation blends the random log-magnitude curves of h_m, h_open and
    h_occ towards one shared curve (1.0 makes them spectrally identical).
    leakage_attenuation_db sets how far the vent leakage has fallen below
    the open ear by the Nyquist frequency; the leakage matches the open-ear
    level at DC and rolls off linearly in dB across the band, the way a vent
    passes low frequencies and blocks high ones. inf silences the leakage
    entirely; a finite attenuation whose occluded response would overflow a
    float is refused (beyond about 6094 dB either way at the default
    lengths). reinsertion_level_db drives per-set multiplicative tap noise,
    None disables all perturbation and yields identical sets.
    """

    num_sets: int = 5
    num_loudspeakers: int = 2
    source_ir_length: int = 130
    speaker_ir_length: int = 100
    sample_rate_hz: float = 16000.0
    phase_family: str = "minimum-phase"
    leakage_attenuation_db: float = 20.0
    reinsertion_level_db: float | None = -30.0
    correlation: float = 0.9
    spectral_range_db: float = 10.0

    def __post_init__(self):
        if not _is_whole(self.num_sets, 1):
            raise ValidationError("num_sets must be a positive integer")
        if not _is_whole(self.num_loudspeakers, 1):
            raise ValidationError("num_loudspeakers must be a positive integer")
        for name in ("source_ir_length", "speaker_ir_length"):
            val = getattr(self, name)
            if not _is_whole(val, 1):
                raise ValidationError(f"{name} must be a positive integer")
        # integral floats pass the checks above; store them as the ints they are
        for name in ("num_sets", "num_loudspeakers", "source_ir_length", "speaker_ir_length"):
            object.__setattr__(self, name, int(getattr(self, name)))
        _refuse_over_budget(
            8 * self.num_sets * (3 * self.source_ir_length + self.num_loudspeakers * self.speaker_ir_length),
            "num_sets x (3 x source_ir_length + num_loudspeakers x speaker_ir_length) float64 samples",
        )
        if not _number(self.sample_rate_hz, "sample_rate_hz") > 0:
            raise ValidationError("sample_rate_hz must be positive")
        if self.phase_family not in PHASE_FAMILIES:
            raise ValidationError(
                f"phase_family must be one of {PHASE_FAMILIES}, got {self.phase_family!r}"
            )
        if self.phase_family == "co-prime-pair" and self.num_loudspeakers < 2:
            raise ValidationError("co-prime-pair needs at least two loudspeakers")
        if self.phase_family != "minimum-phase" and self.speaker_ir_length < 2:
            raise ValidationError(f"{self.phase_family} needs speaker_ir_length of at least 2")
        # None disables the scatter and +inf silences the leakage
        if self.reinsertion_level_db is not None:
            _number(self.reinsertion_level_db, "reinsertion_level_db")
        if not 0.0 <= _number(self.correlation, "correlation") <= 1.0:
            raise ValidationError("correlation must lie in [0, 1]")
        if not 0.0 <= _number(self.spectral_range_db, "spectral_range_db") < 200.0:
            raise ValidationError("spectral_range_db must lie in [0, 200)")
        if self.leakage_attenuation_db != math.inf:
            level = _number(self.leakage_attenuation_db, "leakage_attenuation_db")
            # The occluded curve lies within spectral_range_db / 2 of a line from
            # 0 dB to -level. The cepstral method exponentiates it and sums
            # fft_size of the gains, so fft_size times the gain at its farthest
            # reach must be a float, and so must fft_size over that gain.
            reach_db = 0.5 * self.spectral_range_db + abs(level)
            if not reach_db / 20.0 + math.log10(self.fft_size) < math.log10(np.finfo(float).max):
                raise ValidationError(f"leakage_attenuation_db {level} dB overflows a float")

    @property
    def fft_size(self) -> int:
        """DFT size of the magnitude curves the generator draws."""
        return _pow2_at_least(max(8 * self.source_ir_length, 8 * self.speaker_ir_length, 512))


def _random_log_magnitude_db(rng, fft_size: int, range_db: float) -> np.ndarray:
    """Piecewise-linear random curve over the positive-frequency half grid, in dB."""
    half = fft_size // 2 + 1
    knots = rng.uniform(-0.5, 0.5, 9) * range_db
    positions = np.linspace(0.0, half - 1.0, knots.size)
    return np.interp(np.arange(half), positions, knots)


def _root_factor(r: complex, real: bool) -> np.ndarray:
    """The real polynomial of the zero r: [1, −Re r] if real, else [1, −2·Re r, |r|²] with r̄."""
    return np.array([1.0, -r.real] if real else [1.0, -2.0 * r.real, abs(r) ** 2])


def _replace_factor(h: np.ndarray, r_old: complex, r_new: complex) -> np.ndarray:
    """Swap the root r_old of h (with its conjugate, if complex) for r_new."""
    real = abs(r_old.imag) <= 1e-12
    quotient, _ = np.polydiv(h, _root_factor(r_old, real))
    return np.convolve(quotient, _root_factor(r_new, real))


# _pull_roots_inside reflects zeros at or past _ROOT_CEILING to at most
# _ROOT_SQUEEZE. _CERTIFIED_RADIUS sits 0.002 below the ceiling, so that a
# response certified inside it has no zero np.roots could place at or past it
# unless np.roots misplaced that zero by 0.002. The margin is that narrow
# because the zeros of a truncated cepstral response crowd toward the circle as
# it lengthens: np.roots put the largest at 0.991-0.992 for 1000 taps and at
# 0.993-0.995 for 1500, so a radius of 0.99 certified none of those responses.
# Three tiers decide, in turn, whether a response needs that: one FFT winding
# count (_winding_certificate), then, where it cannot tell, the Schur–Cohn
# step-down (_zeros_within), and, where neither certifies the response,
# np.roots. The first two only ever return the response unchanged, and only
# when it has no zero at or past the radius. np.roots then finds no zero at or
# past the ceiling either, so the roots-only loop returned it unchanged too,
# and the output does not depend on which tier decides.
_ROOT_CEILING = 0.999
_ROOT_SQUEEZE = 0.99
_CERTIFIED_RADIUS = 0.997

# synth refuses a scene whose samples take more bytes than this, and to build
# a dense float64 matrix larger than this: np.roots's companion matrix or the
# Sylvester matrix of a co-prime check. 1 GiB allows an 11585 x 11585
# companion matrix, the zeros of an 11586-tap response. The commands refuse a
# size field that sets an array larger than this before they allocate it.
_DENSE_BYTE_BUDGET = 1 << 30


def _refuse_over_budget(size: int, what: str) -> None:
    """Raise ValidationError if `what`, size bytes, exceeds _DENSE_BYTE_BUDGET.

    The message is one short line for any size, and `what` names the fields
    that set it.
    """
    if size > _DENSE_BYTE_BUDGET:
        from decimal import Decimal  # three digits of an int past the float range too

        raise ValidationError(
            f"input too large: {what}: {Decimal(size):.3g} bytes, over the budget of "
            f"{_DENSE_BYTE_BUDGET:,} (1 GiB)"
        )


def _roots(h: np.ndarray) -> np.ndarray:
    size = h.size - 1
    _refuse_over_budget(
        8 * size * size,
        f"the zeros of a response of {h.size} taps, set by source_ir_length or "
        f"speaker_ir_length, take a {size} x {size} float64 companion matrix",
    )
    return np.roots(h)


def _winding_certificate(h: np.ndarray, radius: float) -> bool | None:
    """Decide from one FFT whether every zero of h lies strictly inside `radius`.

    The scaled taps a[k] = h[k] / radius**k have their zeros at z / radius.
    Factoring out w**-c, with c the weighted-median index of |a|, the rfft
    of a rolled left by c samples A(w) = sum a[k] w**(c - k) at N = 16 * 2**
    ceil(log2 n) points of the upper unit half circle. Between neighbouring
    samples A moves by at most twice signals._sampling_margin, so where
    every sample exceeds that, no increment between samples reaches a
    quarter turn, and the principal angles of the sample ratios sum to the
    exact phase change: pi * (c - K), with K the zeros at or past the
    radius. Returns True if K is 0, False if not, and None where it cannot
    tell: a sample within the margin, a zero leading tap (a zero at
    infinity that np.roots drops), a non-finite tap, or scaled taps that
    overflow. h is scaled to a largest tap of 1 first, so with a radius of at
    most 1 the largest scaled tap is at least 1, and a tap that underflows
    moves A by far less than the margin; a larger radius is declined where
    the largest scaled tap falls below 1.
    """
    if not h[0] != 0.0:
        return None
    with np.errstate(all="ignore"):
        a = h / np.abs(h).max() * radius ** -np.arange(h.size)
        peak = np.abs(a).max()
        if not 1.0 <= peak < math.inf:
            return None
        a = a / peak
        magnitudes = np.abs(a)
        nfft = 16 << (h.size - 1).bit_length()
        centre, margin = _sampling_margin(magnitudes, nfft)
        rolled = np.zeros(nfft)
        rolled[: h.size - centre] = a[centre:]
        rolled[nfft - centre :] = a[:centre]
        spectrum = np.fft.rfft(rolled)
        if not np.abs(spectrum).min() > 2.0 * margin:
            return None
        turns = np.angle(spectrum[1:] * spectrum[:-1].conj()).sum() / np.pi
    return round(turns) == centre


def _zeros_within(h: np.ndarray, radius: float) -> bool:
    """Schur–Cohn test: True only if every zero of h lies strictly inside `radius`.

    Levinson step-down on the monic, radius-scaled coefficients h[k] / radius**k:
    their zeros lie inside the unit circle iff every reflection coefficient has
    |k| < 1. O(n²) against the O(n³) eigenvalue solve of np.roots. False means
    "not certified" (a zero at or past the radius, a zero leading coefficient,
    or a non-finite value), not that a zero was located.
    """
    if h[0] == 0.0 or not np.all(np.isfinite(h)):
        return False
    a = h * radius ** -np.arange(h.size)
    a = a / a[0]
    for m in range(h.size - 1, 0, -1):
        k = a[m]
        if not abs(k) < 1.0:
            return False
        a = (a[:m] - k * a[m:0:-1]) / (1.0 - k * k)
    return True


def _pull_roots_inside(h: np.ndarray) -> np.ndarray:
    """Reflect any root at or outside _ROOT_CEILING back into the unit circle.

    Truncating a cepstrally built response can push isolated zeros onto or
    past the circle; this restores a strict minimum-phase layout without
    touching the rest of the zeros. Roots are computed only when neither
    the winding certificate nor the Schur–Cohn test certifies the response
    as it stands.
    """
    for _ in range(6):
        certified = _winding_certificate(h, _CERTIFIED_RADIUS)
        if certified is None:
            certified = _zeros_within(h, _CERTIFIED_RADIUS)
        if certified:
            return h
        roots = _roots(h)
        offenders = [r for r in roots if abs(r) >= _ROOT_CEILING and r.imag >= -1e-12]
        if not offenders:
            return h
        for r in offenders:
            flipped = r / (abs(r) ** 2)
            if abs(flipped) > _ROOT_SQUEEZE:
                flipped *= _ROOT_SQUEEZE / abs(flipped)
            h = _replace_factor(h, r, flipped)
    return h


def _cepstral_min_phase(curve_db: np.ndarray, length: int, normalize: bool = True) -> np.ndarray:
    """Minimum-phase response matching a smooth log-magnitude curve.

    Classic cepstrum folding: take the real cepstrum of the (symmetric) log
    magnitude, zero the anticausal half, double the causal half, and go back
    through exp. Truncation to `length` happens afterwards, followed by a
    strict-minimum-phase cleanup. With normalize=False the response keeps the
    absolute level of the curve, so two responses built from level-tied curves
    stay level-tied.
    """
    half = curve_db.size
    n = (half - 1) * 2
    log_mag = np.concatenate([curve_db, curve_db[-2:0:-1]]) * _DB_TO_LN
    cep = np.fft.ifft(log_mag).real
    folded = np.zeros(n)
    folded[0] = cep[0]
    folded[1 : n // 2] = 2.0 * cep[1 : n // 2]
    folded[n // 2] = cep[n // 2]
    h = np.fft.ifft(np.exp(np.fft.fft(folded))).real[:length]
    h = _pull_roots_inside(h)
    if normalize:
        h = h / np.max(np.abs(h))
    return h


def _flip_one_zero(h: np.ndarray) -> np.ndarray:
    """Reflect one interior zero outside the unit circle, magnitude preserved.

    A factor and its coefficient-reversed twin share the same magnitude
    response while their roots are mutual reflections, so swapping in the
    reversed factor makes the result non-minimum-phase without changing |H|.
    """
    roots = _roots(h)
    candidates = [r for r in roots if 0.05 < abs(r) < 0.995 and r.imag >= -1e-12]
    if not candidates:
        raise ValidationError(
            "phase_family: non-minimum-phase found no loudspeaker zero to reflect; "
            "raise spectral_range_db for a response with interior zeros"
        )
    # a moderate radius keeps the reflected zero clearly outside the circle
    r = min(candidates, key=lambda z: abs(abs(z) - 0.7))
    out_factor = _root_factor(r, abs(r.imag) <= 1e-12)
    quotient, _ = np.polydiv(h, out_factor)
    return np.convolve(quotient, out_factor[::-1])


def _sylvester_matrix(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    m = p.size - 1
    n = q.size - 1
    s = np.zeros((m + n, m + n))
    for i in range(n):
        s[i, i : i + m + 1] = p
    for i in range(m):
        s[n + i, i : i + n + 1] = q
    return s


def _coprimality_margin(p: np.ndarray, q: np.ndarray) -> float:
    """Smallest singular value of the Sylvester matrix of the unit-norm inputs.

    Zero means a shared root; small values mean nearly shared roots, which
    would make an exact multichannel inverse ill-conditioned.
    """
    size = p.size + q.size - 2
    _refuse_over_budget(
        8 * size * size,
        f"the co-prime check of loudspeaker responses of {max(p.size, q.size)} taps, set by "
        f"speaker_ir_length, takes a {size} x {size} float64 Sylvester matrix",
    )
    pu = p / np.linalg.norm(p)
    qu = q / np.linalg.norm(q)
    return float(np.linalg.svd(_sylvester_matrix(pu, qu), compute_uv=False)[-1])


def _draw_speaker_irs(rng, spec: SynthSpec, fft_size: int) -> list[np.ndarray]:
    # a genuinely shared root drives the margin to machine noise, while
    # distinct random draws stay orders of magnitude above it at any length
    shared_root_level = 1e-12 * spec.speaker_ir_length
    for _ in range(200):
        irs = [
            _cepstral_min_phase(
                _random_log_magnitude_db(rng, fft_size, spec.spectral_range_db),
                spec.speaker_ir_length,
            )
            for _ in range(spec.num_loudspeakers)
        ]
        if spec.phase_family == "non-minimum-phase":
            irs = [_flip_one_zero(ir) for ir in irs]
        if (
            spec.phase_family == "co-prime-pair"
            and _coprimality_margin(irs[0], irs[1]) <= shared_root_level
        ):
            continue
        return irs
    raise ValidationError(
        "phase_family: exhausted attempts drawing a co-prime loudspeaker pair; "
        "raise spectral_range_db so the responses have distinct zeros"
    )


def _jitter(arr: np.ndarray, rng, sigma: float) -> np.ndarray:
    return arr * (1.0 + sigma * rng.standard_normal(arr.size))


def synth_scenario(spec: SynthSpec, seed: int) -> Scenario:
    """Draw a reproducible synthetic scene.

    The base responses are minimum-phase by cepstral construction, with the
    loudspeaker paths optionally made non-minimum-phase (one reflected zero,
    magnitude untouched) or redrawn until the first two are numerically
    co-prime. Per-set reinsertion scatter is multiplicative tap noise at
    reinsertion_level_db on every response, which perturbs both gain and
    phase a little. Identical seeds give bit-identical scenarios.
    """
    rng = np.random.default_rng(seed)
    fft_size = spec.fft_size

    shared = _random_log_magnitude_db(rng, fft_size, spec.spectral_range_db)

    def blended():
        own = _random_log_magnitude_db(rng, fft_size, spec.spectral_range_db)
        return spec.correlation * shared + (1.0 - spec.correlation) * own

    h_m = _cepstral_min_phase(blended(), spec.source_ir_length)
    # open and occluded responses skip peak normalization so the vent
    # roll-off written into the occluded curve survives as a level tie
    h_open = _cepstral_min_phase(blended(), spec.source_ir_length, normalize=False)
    occ_curve = blended()
    if math.isinf(spec.leakage_attenuation_db):
        h_occ = np.zeros(spec.source_ir_length)
    else:
        rolloff = np.linspace(0.0, spec.leakage_attenuation_db, fft_size // 2 + 1)
        h_occ = _cepstral_min_phase(occ_curve - rolloff, spec.source_ir_length, normalize=False)
    speakers = _draw_speaker_irs(rng, spec, fft_size)

    sigma = None
    if spec.reinsertion_level_db is not None:
        sigma = _db_to_gain(spec.reinsertion_level_db, "reinsertion_level_db")

    sets = []
    for _ in range(spec.num_sets):
        if sigma is None:
            hm_i, hopen_i, hocc_i = h_m, h_open, h_occ
            d_i = speakers
        else:
            hm_i = _jitter(h_m, rng, sigma)
            hopen_i = _jitter(h_open, rng, sigma)
            hocc_i = _jitter(h_occ, rng, sigma)
            d_i = [_jitter(ir, rng, sigma) for ir in speakers]
        sets.append(
            MeasurementSet(
                ImpulseResponse(hm_i),
                ImpulseResponse(hopen_i),
                ImpulseResponse(hocc_i),
                tuple(ImpulseResponse(ir) for ir in d_i),
            )
        )
    return Scenario(tuple(sets), spec.sample_rate_hz)


# ---------------------------------------------------------------------------
# serialization


def _scenario_dict(scenario: Scenario) -> dict:
    return {
        "sample_rate_hz": float(scenario.sample_rate_hz),
        "num_loudspeakers": scenario.num_loudspeakers,
        "sets": [
            {
                "h_m": ms.h_m.samples.tolist(),
                "h_open": ms.h_open.samples.tolist(),
                "h_occ": ms.h_occ.samples.tolist(),
                "d": [ir.samples.tolist() for ir in ms.d],
            }
            for ms in scenario.sets
        ],
    }


def scenario_fingerprint(scenario: Scenario) -> str:
    """Stable hex digest of the scene contents, for tying filters to scenes.

    SHA-256 over the sample bytes, not any text form: the rate as a
    little-endian float64, the set and loudspeaker counts as little-endian
    int64, then for every response in file order (h_m, h_open, h_occ, d[0],
    d[1], ... of each set) its length as little-endian int64 and its samples
    as little-endian float64. Lengths and counts make the arrangement part of
    the digest, and every bit of every sample counts, the sign of zero too.
    """
    digest = hashlib.sha256(
        struct.pack("<dqq", scenario.sample_rate_hz, scenario.num_sets, scenario.num_loudspeakers)
    )
    for ms in scenario.sets:
        for ir in ms._responses():
            digest.update(struct.pack("<q", len(ir)))
            digest.update(ir.samples.astype("<f8", copy=False).tobytes())
    return digest.hexdigest()


def _finite_floats(node) -> np.ndarray | None:
    """node as a float64 array if it is a non-empty list of finite floats, else None.

    JSON numbers with a fraction or an exponent parse to floats, so a file's
    sample lists pass in one pass of C loops; anything else (ints, booleans,
    strings, nesting, NaN or ±Infinity) is left to the per-item checks.
    """
    if isinstance(node, list) and node and all(type(x) is float for x in node):
        values = np.array(node)
        if np.isfinite(values).all():
            return values
    return None


def _json_text(node, depth: int = 0) -> str:
    """json.dumps(node, indent=1), with object keys that are strings.

    The json module's indent encoder is pure Python and emits every number as
    its own chunk. Here a list of finite floats is one join of float.__repr__,
    the digits json writes for a float, and everything else is composed the
    way that encoder lays it out.
    """
    if isinstance(node, dict) and node:
        items = [f"{json.dumps(key)}: {_json_text(value, depth + 1)}" for key, value in node.items()]
        brackets = "{}"
    elif isinstance(node, (list, tuple)) and node:
        if _finite_floats(node) is not None:
            items = map(float.__repr__, node)
        else:
            items = [_json_text(item, depth + 1) for item in node]
        brackets = "[]"
    else:
        return json.dumps(node)
    inner = "\n" + " " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + " " * depth + brackets[1]


def _write_json(doc, path) -> None:
    """Write the bytes json.dump(doc, f, indent=1) then a newline would."""
    with open(path, "w", encoding="ascii") as f:
        f.write(_json_text(doc) + "\n")


def save_scenario(scenario: Scenario, path) -> None:
    """Write the scene as JSON; floats keep their exact binary value on reload."""
    _write_json(_scenario_dict(scenario), path)


def _load_json(path, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except OSError as exc:
        raise ValidationError(f"{what}: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what}: invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{what}: expected a JSON object at the top level")
    return data


def _require_fields(
    node: dict, required: tuple[str, ...], path: str, optional: tuple[str, ...] = ()
) -> None:
    if not isinstance(node, dict):
        raise ValidationError(f"{path}: expected an object")
    for key in required:
        if key not in node:
            raise ValidationError(f"{path}: missing field '{key}'")
    for key in node:
        if key not in required and key not in optional:
            raise ValidationError(f"{path}: unknown field '{key}'")


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}: expected an integer")
    return value


def _number(node, path: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ValidationError(f"{path}: expected a number")
    try:
        value = float(node)
    except OverflowError:  # an int past the float range
        value = math.inf
    if not math.isfinite(value):
        raise ValidationError(f"{path}: non-finite value")
    return value


def _number_list(node, path: str) -> np.ndarray:
    values = _finite_floats(node)
    if values is not None:
        return values
    if not isinstance(node, list) or len(node) == 0:
        raise ValidationError(f"{path}: expected a non-empty list of numbers")
    out = np.empty(len(node))
    for i, item in enumerate(node):
        try:
            out[i] = _number(item, path)
        except ValidationError:
            # the element path is formatted only for the element that fails
            out[i] = _number(item, f"{path}[{i}]")
    return out


def scenario_from_dict(data: dict) -> Scenario:
    """Validate a parsed scene document and build the Scenario.

    Errors name the offending field path, e.g. sets[2].d[1].
    """
    _require_fields(data, ("sample_rate_hz", "num_loudspeakers", "sets"), "scenario")
    rate = _number(data["sample_rate_hz"], "sample_rate_hz")
    n_spk = _as_int(data["num_loudspeakers"], "num_loudspeakers")
    if not isinstance(data["sets"], list):
        raise ValidationError("sets: expected a list")
    sets = []
    for i, raw in enumerate(data["sets"]):
        path = f"sets[{i}]"
        _require_fields(raw, ("h_m", "h_open", "h_occ", "d"), path)
        h = [
            ImpulseResponse(_number_list(raw[key], f"{path}.{key}"))
            for key in ("h_m", "h_open", "h_occ")
        ]
        if not isinstance(raw["d"], list) or len(raw["d"]) != n_spk:
            got = len(raw["d"]) if isinstance(raw["d"], list) else type(raw["d"]).__name__
            raise ValidationError(f"{path}.d: expected {n_spk} loudspeaker responses, got {got}")
        d = tuple(
            ImpulseResponse(_number_list(node, f"{path}.d[{j}]"))
            for j, node in enumerate(raw["d"])
        )
        try:
            sets.append(MeasurementSet(*h, d))
        except ValidationError as exc:
            raise ValidationError(f"{path}.{exc}") from exc
    return Scenario(tuple(sets), rate)


def load_scenario(path) -> Scenario:
    return scenario_from_dict(_load_json(path, "scenario"))
