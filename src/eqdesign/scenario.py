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
from dataclasses import dataclass

import numpy as np

from .signals import ImpulseResponse

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
    shares another. All responses must agree on the sample rate.
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
        rate = self.h_m.sample_rate_hz
        for name, ir in self._named_irs():
            if ir.sample_rate_hz != rate:
                raise ValidationError(
                    f"{name}: sample rate {ir.sample_rate_hz} Hz does not match h_m at {rate} Hz"
                )

    def _named_irs(self):
        yield "h_m", self.h_m
        yield "h_open", self.h_open
        yield "h_occ", self.h_occ
        for j, ir in enumerate(self.d):
            yield f"d[{j}]", ir

    @property
    def num_loudspeakers(self) -> int:
        return len(self.d)

    @property
    def source_length(self) -> int:
        return len(self.h_m)

    @property
    def speaker_length(self) -> int:
        return len(self.d[0])

    @property
    def sample_rate_hz(self) -> float:
        return self.h_m.sample_rate_hz


@dataclass(frozen=True, eq=False)
class Scenario:
    """A congruent family of measurement sets at one sample rate."""

    sets: tuple[MeasurementSet, ...]
    sample_rate_hz: float

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(self.sets))
        if len(self.sets) < 1:
            raise ValidationError("sets: at least one measurement set is required")
        ref = self.sets[0]
        for i, ms in enumerate(self.sets):
            if not isinstance(ms, MeasurementSet):
                raise ValidationError(f"sets[{i}]: expected a MeasurementSet")
            if ms.sample_rate_hz != self.sample_rate_hz:
                raise ValidationError(
                    f"sets[{i}]: sample rate {ms.sample_rate_hz} Hz does not match "
                    f"scenario rate {self.sample_rate_hz} Hz"
                )
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
    if int(count) != count or count < 1:
        raise ValidationError("loudspeaker count must be a positive integer")
    if count > scenario.num_loudspeakers:
        raise ValidationError(
            f"requested {count} loudspeakers, scenario has {scenario.num_loudspeakers}"
        )
    trimmed = tuple(
        MeasurementSet(ms.h_m, ms.h_open, ms.h_occ, ms.d[: int(count)]) for ms in scenario.sets
    )
    return Scenario(trimmed, scenario.sample_rate_hz)


def forward_path_ir(gain_db: float, delay_samples: int, sample_rate_hz: float) -> ImpulseResponse:
    """Hearing-device forward path: a flat gain behind an integer processing delay."""
    if int(delay_samples) != delay_samples or delay_samples < 0:
        raise ValidationError("delay_samples must be a nonnegative integer")
    g = np.zeros(int(delay_samples) + 1)
    g[-1] = 10.0 ** (gain_db / 20.0)
    return ImpulseResponse(g, sample_rate_hz)


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
    entirely. reinsertion_level_db drives per-set multiplicative tap noise,
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
        if int(self.num_sets) != self.num_sets or self.num_sets < 1:
            raise ValidationError("num_sets must be a positive integer")
        if int(self.num_loudspeakers) != self.num_loudspeakers or self.num_loudspeakers < 1:
            raise ValidationError("num_loudspeakers must be a positive integer")
        for name in ("source_ir_length", "speaker_ir_length"):
            val = getattr(self, name)
            if int(val) != val or val < 1:
                raise ValidationError(f"{name} must be a positive integer")
        if not self.sample_rate_hz > 0:
            raise ValidationError("sample_rate_hz must be positive")
        if self.phase_family not in PHASE_FAMILIES:
            raise ValidationError(
                f"phase_family must be one of {PHASE_FAMILIES}, got {self.phase_family!r}"
            )
        if self.phase_family == "co-prime-pair" and self.num_loudspeakers < 2:
            raise ValidationError("co-prime-pair needs at least two loudspeakers")
        if self.phase_family != "minimum-phase" and self.speaker_ir_length < 2:
            raise ValidationError(f"{self.phase_family} needs speaker_ir_length of at least 2")
        if math.isnan(self.leakage_attenuation_db) or self.leakage_attenuation_db == -math.inf:
            raise ValidationError("leakage_attenuation_db must be a number or +inf")
        if self.reinsertion_level_db is not None and not math.isfinite(self.reinsertion_level_db):
            raise ValidationError("reinsertion_level_db must be finite or None")
        if not 0.0 <= self.correlation <= 1.0:
            raise ValidationError("correlation must lie in [0, 1]")
        if not 0.0 <= self.spectral_range_db < 200.0:
            raise ValidationError("spectral_range_db must lie in [0, 200)")


def _pow2_at_least(n: int) -> int:
    return 1 << max(int(n) - 1, 1).bit_length()


def _random_log_magnitude_db(rng, fft_size: int, range_db: float, num_knots: int = 9) -> np.ndarray:
    """Piecewise-linear random curve over the positive-frequency half grid, in dB."""
    half = fft_size // 2 + 1
    positions = np.linspace(0.0, half - 1.0, num_knots)
    knots = rng.uniform(-0.5, 0.5, num_knots) * range_db
    return np.interp(np.arange(half), positions, knots)


def _replace_factor(h: np.ndarray, r_old: complex, r_new: complex) -> np.ndarray:
    """Swap the root r_old of h (with its conjugate, if complex) for r_new."""
    if abs(r_old.imag) <= 1e-12:
        out_factor = np.array([1.0, -r_old.real])
        in_factor = np.array([1.0, -r_new.real])
    else:
        out_factor = np.array([1.0, -2.0 * r_old.real, abs(r_old) ** 2])
        in_factor = np.array([1.0, -2.0 * r_new.real, abs(r_new) ** 2])
    quotient, _ = np.polydiv(h, out_factor)
    return np.convolve(quotient, in_factor)


def _pull_roots_inside(h: np.ndarray, ceiling: float = 0.999, squeeze: float = 0.99) -> np.ndarray:
    """Reflect any root at or outside `ceiling` back into the unit circle.

    Truncating a cepstrally built response can push isolated zeros onto or
    past the circle; this restores a strict minimum-phase layout without
    touching the rest of the zeros.
    """
    if h.size < 2:
        return h
    for _ in range(6):
        roots = np.roots(h)
        offenders = [
            r
            for r in roots
            if abs(r) >= ceiling and (r.imag > 1e-12 or abs(r.imag) <= 1e-12)
        ]
        if not offenders:
            return h
        for r in offenders:
            flipped = r / (abs(r) ** 2)
            if abs(flipped) > squeeze:
                flipped *= squeeze / abs(flipped)
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
    roots = np.roots(h)
    candidates = [
        r
        for r in roots
        if 0.05 < abs(r) < 0.995 and (r.imag > 1e-12 or abs(r.imag) <= 1e-12)
    ]
    if not candidates:
        raise ValidationError(
            "phase_family: non-minimum-phase found no loudspeaker zero to reflect; "
            "raise spectral_range_db for a response with interior zeros"
        )
    # a moderate radius keeps the reflected zero clearly outside the circle
    r = min(candidates, key=lambda z: abs(abs(z) - 0.7))
    if abs(r.imag) <= 1e-12:
        out_factor = np.array([1.0, -r.real])
        in_factor = out_factor[::-1].copy()
    else:
        out_factor = np.array([1.0, -2.0 * r.real, abs(r) ** 2])
        in_factor = out_factor[::-1].copy()
    quotient, _ = np.polydiv(h, out_factor)
    return np.convolve(quotient, in_factor)


def _sylvester_matrix(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    m = p.size - 1
    n = q.size - 1
    if m < 1 or n < 1:
        raise ValueError("resultant needs two polynomials of degree >= 1")
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
    fft_size = _pow2_at_least(max(8 * spec.source_ir_length, 8 * spec.speaker_ir_length, 512))

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

    rate = spec.sample_rate_hz
    sigma = None
    if spec.reinsertion_level_db is not None:
        sigma = 10.0 ** (spec.reinsertion_level_db / 20.0)

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
                ImpulseResponse(hm_i, rate),
                ImpulseResponse(hopen_i, rate),
                ImpulseResponse(hocc_i, rate),
                tuple(ImpulseResponse(ir, rate) for ir in d_i),
            )
        )
    return Scenario(tuple(sets), rate)


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
    """Stable hex digest of the scene contents, for tying filters to scenes."""
    payload = json.dumps(_scenario_dict(scenario), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def save_scenario(scenario: Scenario, path) -> None:
    """Write the scene as JSON; floats keep their exact binary value on reload."""
    with open(path, "w", encoding="ascii") as f:
        json.dump(_scenario_dict(scenario), f, indent=1)
        f.write("\n")


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


def _number(node, path: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ValidationError(f"{path}: expected a number")
    if not math.isfinite(node):
        raise ValidationError(f"{path}: non-finite value")
    return float(node)


def _number_list(node, path: str) -> np.ndarray:
    if not isinstance(node, list) or len(node) == 0:
        raise ValidationError(f"{path}: expected a non-empty list of numbers")
    out = np.empty(len(node))
    for i, item in enumerate(node):
        out[i] = _number(item, f"{path}[{i}]")
    return out


def scenario_from_dict(data: dict) -> Scenario:
    """Validate a parsed scene document and build the Scenario.

    Errors name the offending field path, e.g. sets[2].d[1].
    """
    _require_fields(data, ("sample_rate_hz", "num_loudspeakers", "sets"), "scenario")
    rate = _number(data["sample_rate_hz"], "sample_rate_hz")
    if rate <= 0:
        raise ValidationError("sample_rate_hz: must be positive")
    n_spk = data["num_loudspeakers"]
    if isinstance(n_spk, bool) or not isinstance(n_spk, int) or n_spk < 1:
        raise ValidationError("num_loudspeakers: expected a positive integer")
    raw_sets = data["sets"]
    if not isinstance(raw_sets, list) or len(raw_sets) == 0:
        raise ValidationError("sets: expected a non-empty list")

    sets = []
    source_len = speaker_len = None
    for i, raw in enumerate(raw_sets):
        path = f"sets[{i}]"
        _require_fields(raw, ("h_m", "h_open", "h_occ", "d"), path)
        h_m = _number_list(raw["h_m"], f"{path}.h_m")
        if source_len is None:
            source_len = h_m.size
        if h_m.size != source_len:
            raise ValidationError(
                f"{path}.h_m: length {h_m.size} does not match sets[0] length {source_len}"
            )
        named = {"h_m": h_m}
        for key in ("h_open", "h_occ"):
            arr = _number_list(raw[key], f"{path}.{key}")
            if arr.size != source_len:
                raise ValidationError(
                    f"{path}.{key}: length {arr.size} does not match h_m length {source_len}"
                )
            named[key] = arr
        if not isinstance(raw["d"], list) or len(raw["d"]) != n_spk:
            got = len(raw["d"]) if isinstance(raw["d"], list) else type(raw["d"]).__name__
            raise ValidationError(
                f"{path}.d: expected {n_spk} loudspeaker responses, got {got}"
            )
        d = []
        for j, node in enumerate(raw["d"]):
            arr = _number_list(node, f"{path}.d[{j}]")
            if speaker_len is None:
                speaker_len = arr.size
            if arr.size != speaker_len:
                raise ValidationError(
                    f"{path}.d[{j}]: length {arr.size} does not match sets[0].d[0] length {speaker_len}"
                )
            d.append(ImpulseResponse(arr, rate))
        sets.append(
            MeasurementSet(
                ImpulseResponse(named["h_m"], rate),
                ImpulseResponse(named["h_open"], rate),
                ImpulseResponse(named["h_occ"], rate),
                tuple(d),
            )
        )
    return Scenario(tuple(sets), rate)


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"scenario file {path}: invalid JSON ({exc})") from exc
    return scenario_from_dict(data)
