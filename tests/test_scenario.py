"""Scene containers, the synthetic generator, and the JSON round trip."""

import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqdesign import scenario as scenario_module
from eqdesign.scenario import (
    MeasurementSet,
    Scenario,
    SynthSpec,
    ValidationError,
    forward_path_ir,
    load_scenario,
    save_scenario,
    scenario_fingerprint,
    scenario_from_dict,
    select_loudspeakers,
    synth_scenario,
)
from eqdesign.scenario import (
    _CERTIFIED_RADIUS,
    _ROOT_CEILING,
    _cepstral_min_phase,
    _pow2_at_least,
    _pull_roots_inside,
    _random_log_magnitude_db,
    _replace_factor,
    _zeros_within,
)
from eqdesign.signals import FrequencyGrid, ImpulseResponse, magnitude_response

RATE = 16000.0


def ir(*samples):
    return ImpulseResponse(np.array(samples, dtype=float), RATE)


def small_set(n_spk=1):
    return MeasurementSet(
        ir(1.0, 0.2), ir(0.9, 0.1), ir(0.05, 0.0), tuple(ir(1.0, 0.3) for _ in range(n_spk))
    )


# ---------------------------------------------------------------------------
# containers


def test_measurement_set_validation_names_fields():
    with pytest.raises(ValidationError, match="h_open"):
        MeasurementSet(ir(1.0, 0.2), ir(0.9), ir(0.05, 0.0), (ir(1.0),))
    with pytest.raises(ValidationError, match=r"d\[1\]"):
        MeasurementSet(ir(1.0, 0.2), ir(0.9, 0.1), ir(0.05, 0.0), (ir(1.0), ir(1.0, 0.5)))
    with pytest.raises(ValidationError, match="d:"):
        MeasurementSet(ir(1.0, 0.2), ir(0.9, 0.1), ir(0.05, 0.0), ())
    other_rate = ImpulseResponse([1.0, 0.0], 8000.0)
    with pytest.raises(ValidationError, match="sample rate"):
        MeasurementSet(ir(1.0, 0.2), ir(0.9, 0.1), ir(0.05, 0.0), (other_rate,))
    with pytest.raises(ValidationError, match="h_m"):
        MeasurementSet(np.ones(2), ir(0.9, 0.1), ir(0.05, 0.0), (ir(1.0),))


def test_scenario_congruence_names_set_index():
    good = small_set()
    shorter_d = MeasurementSet(ir(1.0, 0.2), ir(0.9, 0.1), ir(0.05, 0.0), (ir(1.0, 0.3, 0.1),))
    with pytest.raises(ValidationError, match=r"sets\[1\]\.d"):
        Scenario((good, shorter_d), RATE)
    two_speakers = small_set(n_spk=2)
    with pytest.raises(ValidationError, match=r"sets\[1\]\.d"):
        Scenario((good, two_speakers), RATE)
    with pytest.raises(ValidationError, match="sets"):
        Scenario((), RATE)
    with pytest.raises(ValidationError, match=r"sets\[0\]"):
        Scenario((good,), 8000.0)


def test_select_loudspeakers():
    scene = Scenario((small_set(n_spk=3), small_set(n_spk=3)), RATE)
    trimmed = select_loudspeakers(scene, 2)
    assert trimmed.num_loudspeakers == 2
    assert trimmed.num_sets == 2
    assert np.array_equal(trimmed.sets[0].d[0].samples, scene.sets[0].d[0].samples)
    with pytest.raises(ValidationError):
        select_loudspeakers(scene, 4)
    with pytest.raises(ValidationError):
        select_loudspeakers(scene, 0)


def test_forward_path_ir():
    assert np.array_equal(forward_path_ir(0.0, 1, RATE).samples, [0.0, 1.0])
    assert np.allclose(forward_path_ir(20.0, 0, RATE).samples, [10.0], atol=1e-15)
    g = forward_path_ir(0.0, 96, RATE)
    assert len(g) == 97
    assert 96 / RATE == 0.006  # 6 ms processing delay
    with pytest.raises(ValidationError):
        forward_path_ir(0.0, -1, RATE)


# ---------------------------------------------------------------------------
# synthetic scenes


def test_synth_spec_validation():
    with pytest.raises(ValidationError, match="co-prime"):
        SynthSpec(num_loudspeakers=1, phase_family="co-prime-pair")
    with pytest.raises(ValidationError, match="phase_family"):
        SynthSpec(phase_family="linear-phase")
    with pytest.raises(ValidationError, match="leakage"):
        SynthSpec(leakage_attenuation_db=float("nan"))
    with pytest.raises(ValidationError, match="leakage"):
        SynthSpec(leakage_attenuation_db=-math.inf)
    with pytest.raises(ValidationError, match="correlation"):
        SynthSpec(correlation=1.5)
    with pytest.raises(ValidationError, match="reinsertion"):
        SynthSpec(reinsertion_level_db=-math.inf)
    with pytest.raises(ValidationError, match="spectral_range_db"):
        SynthSpec(spectral_range_db=-3.0)


def test_synth_determinism():
    spec = SynthSpec(num_sets=3, num_loudspeakers=2, source_ir_length=40, speaker_ir_length=30)
    a = synth_scenario(spec, seed=17)
    b = synth_scenario(spec, seed=17)
    assert scenario_fingerprint(a) == scenario_fingerprint(b)
    for ms_a, ms_b in zip(a.sets, b.sets):
        for (_, ir_a), (_, ir_b) in zip(ms_a._named_irs(), ms_b._named_irs()):
            assert np.array_equal(ir_a.samples, ir_b.samples)
    c = synth_scenario(spec, seed=18)
    assert scenario_fingerprint(c) != scenario_fingerprint(a)


def test_synth_shapes_and_defaults():
    scene = synth_scenario(SynthSpec(), seed=0)
    assert scene.num_sets == 5
    assert scene.num_loudspeakers == 2
    assert scene.sets[0].source_length == 130
    assert scene.sets[0].speaker_length == 100
    assert scene.sample_rate_hz == 16000.0


def test_minimum_phase_roots_inside_unit_circle():
    # short responses, then the README default lengths
    for source_len, speaker_len in ((10, 8), (130, 100)):
        spec = SynthSpec(
            num_sets=1, num_loudspeakers=2, source_ir_length=source_len,
            speaker_ir_length=speaker_len, reinsertion_level_db=None,
        )
        ms = synth_scenario(spec, seed=1).sets[0]
        for _, response in ms._named_irs():
            h = response.samples
            if np.any(h != 0.0):
                assert np.max(np.abs(np.roots(h))) < _ROOT_CEILING


def roots_only_pull(h, ceiling=0.999, squeeze=0.99):
    """The np.roots-only loop that _pull_roots_inside replaced, kept as its oracle."""
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


def truncated_cepstral_response(seed, length, range_db):
    """What _cepstral_min_phase hands to _pull_roots_inside for a random curve."""
    rng = np.random.default_rng(seed)
    curve = _random_log_magnitude_db(rng, _pow2_at_least(max(8 * length, 512)), range_db)
    with mock.patch.object(scenario_module, "_pull_roots_inside", lambda h: h):
        return _cepstral_min_phase(curve, length, normalize=False)


@settings(max_examples=60)
@given(
    length=st.integers(2, 300),
    range_db=st.floats(0.0, 150.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_pull_roots_inside_matches_roots_only_loop(length, range_db, seed):
    h = truncated_cepstral_response(seed, length, range_db)
    assert np.array_equal(_pull_roots_inside(h), roots_only_pull(h))


def poly_with_zeros(largest, seed, pairs=12, conjugate=True):
    """Real polynomial with `pairs` conjugate zero pairs within 0.9 * largest.

    Its largest zeros sit at modulus `largest`: a conjugate pair, or with
    conjugate=False one real zero.
    """
    rng = np.random.default_rng(seed)
    inner = 0.9 * largest * np.sqrt(rng.uniform(size=pairs)) * np.exp(
        2j * np.pi * rng.uniform(size=pairs)
    )
    if conjugate:
        outer = largest * np.exp(2j * np.pi * rng.uniform())
        zeros = np.concatenate([inner, inner.conj(), [outer, outer.conjugate()]])
    else:
        zeros = np.concatenate([inner, inner.conj(), [largest]])
    return np.poly(zeros).real


@pytest.mark.parametrize("h", [
    poly_with_zeros(0.995, seed=0, conjugate=False),
    poly_with_zeros(1.05, seed=1, conjugate=False),
    poly_with_zeros(1.2, seed=2),
    np.concatenate([[0.0], poly_with_zeros(0.5, seed=3)]),
], ids=["real-0.995", "real-1.05", "pair-1.2", "leading-zero"])
def test_pull_roots_inside_falls_back_to_roots(h):
    assert not _zeros_within(h, _CERTIFIED_RADIUS)
    pulled = _pull_roots_inside(h)
    assert np.array_equal(pulled, roots_only_pull(h))
    assert np.max(np.abs(np.roots(pulled))) < _ROOT_CEILING


@pytest.mark.parametrize("largest", [0.5, 0.98, 0.995, 1.0, 1.3])
@pytest.mark.parametrize("pairs", [0, 1, 12, 60])
@pytest.mark.parametrize("conjugate", [False, True])
def test_zeros_within_certifies_exactly_the_inside(largest, pairs, conjugate):
    inside = largest < _CERTIFIED_RADIUS
    for seed in range(5):
        h = poly_with_zeros(largest, seed, pairs, conjugate)
        assert _zeros_within(h, _CERTIFIED_RADIUS) == inside
        # zeros at the origin are inside any radius
        with_trailing = np.concatenate([h, [0.0, 0.0]])
        assert _zeros_within(with_trailing, _CERTIFIED_RADIUS) == inside
        # a zero leading coefficient is never certified
        assert not _zeros_within(np.concatenate([[0.0], h]), _CERTIFIED_RADIUS)


def test_zeros_within_rejects_non_finite():
    h = poly_with_zeros(0.5, seed=0)
    for where in (0, 3):
        for bad in (math.nan, math.inf, -math.inf):
            spoiled = h.copy()
            spoiled[where] = bad
            assert not _zeros_within(spoiled, _CERTIFIED_RADIUS)


def test_non_minimum_phase_sibling_keeps_magnitude():
    base = dict(
        num_sets=1, num_loudspeakers=1, source_ir_length=24, speaker_ir_length=16,
        reinsertion_level_db=None,
    )
    minimum = synth_scenario(SynthSpec(**base, phase_family="minimum-phase"), seed=9)
    flipped = synth_scenario(SynthSpec(**base, phase_family="non-minimum-phase"), seed=9)
    grid = FrequencyGrid(256, RATE)
    d_min = minimum.sets[0].d[0].samples
    d_flip = flipped.sets[0].d[0].samples
    m1 = magnitude_response(d_min, grid)
    m2 = magnitude_response(d_flip, grid)
    assert np.max(np.abs(m1 - m2) / m1) < 1e-10
    assert np.max(np.abs(np.roots(d_min))) < 1.0
    assert np.max(np.abs(np.roots(d_flip))) > 1.0


def test_coprime_pair_has_nonzero_resultant():
    spec = SynthSpec(
        num_sets=1, num_loudspeakers=2, source_ir_length=12, speaker_ir_length=8,
        phase_family="co-prime-pair", reinsertion_level_db=None,
    )
    scene = synth_scenario(spec, seed=3)
    p = scene.sets[0].d[0].samples
    q = scene.sets[0].d[1].samples

    # independent Sylvester build: resultant is zero iff a root is shared
    n, m = p.size - 1, q.size - 1
    syl = np.zeros((n + m, n + m))
    for i in range(m):
        syl[i, i : i + n + 1] = p
    for i in range(n):
        syl[m + i, i : i + m + 1] = q
    sign, logdet = np.linalg.slogdet(syl)
    assert sign != 0.0 and np.isfinite(logdet)
    roots_p = np.roots(p)
    roots_q = np.roots(q)
    gap = min(abs(rp - rq) for rp in roots_p for rq in roots_q)
    assert gap > 1e-6


def test_leakage_levels():
    silent = synth_scenario(
        SynthSpec(num_sets=1, num_loudspeakers=1, leakage_attenuation_db=math.inf), seed=0
    )
    assert np.array_equal(silent.sets[0].h_occ.samples, np.zeros(130))

    # at full correlation the open/occluded curves differ by the vent
    # roll-off alone: 0 dB at DC falling linearly to the attenuation at Nyquist
    tied = synth_scenario(
        SynthSpec(
            num_sets=1, num_loudspeakers=1, correlation=1.0,
            leakage_attenuation_db=20.0, reinsertion_level_db=None,
        ),
        seed=5,
    )
    ms = tied.sets[0]
    grid = FrequencyGrid(2048, RATE)
    ratio_db = 20.0 * np.log10(
        magnitude_response(ms.h_occ, grid) / magnitude_response(ms.h_open, grid)
    )
    expected = -20.0 * grid.frequencies_hz / 8000.0
    assert np.max(np.abs(ratio_db - expected)) < 0.2

    hm = ms.h_m.samples
    ho = ms.h_open.samples
    assert np.array_equal(hm / np.max(np.abs(hm)), ho / np.max(np.abs(ho)))


def test_reinsertion_scatter():
    spec = SynthSpec(num_sets=3, num_loudspeakers=1, source_ir_length=40, speaker_ir_length=30)
    frozen = synth_scenario(replace(spec, reinsertion_level_db=None), seed=2)
    for ms in frozen.sets[1:]:
        assert np.array_equal(ms.h_m.samples, frozen.sets[0].h_m.samples)
        assert np.array_equal(ms.d[0].samples, frozen.sets[0].d[0].samples)

    scattered = synth_scenario(replace(spec, reinsertion_level_db=-30.0), seed=2)
    a, b = scattered.sets[0].h_m.samples, scattered.sets[1].h_m.samples
    assert not np.array_equal(a, b)
    rel = np.abs(a - b) / np.max(np.abs(a))
    assert 1e-4 < np.max(rel) < 0.3


# ---------------------------------------------------------------------------
# serialization


def test_round_trip_bit_exact(tmp_path):
    spec = SynthSpec(num_sets=5, num_loudspeakers=2)  # full default dimensions
    scene = synth_scenario(spec, seed=11)
    path = tmp_path / "scene.json"
    save_scenario(scene, path)
    loaded = load_scenario(path)
    assert loaded.num_sets == 5
    assert loaded.sets[0].source_length == 130
    assert loaded.sets[0].speaker_length == 100
    assert scenario_fingerprint(loaded) == scenario_fingerprint(scene)
    for ms_a, ms_b in zip(scene.sets, loaded.sets):
        for (_, ir_a), (_, ir_b) in zip(ms_a._named_irs(), ms_b._named_irs()):
            assert np.array_equal(ir_a.samples, ir_b.samples)


def test_fingerprint_tracks_content():
    scene = synth_scenario(
        SynthSpec(num_sets=1, num_loudspeakers=1, source_ir_length=10, speaker_ir_length=8),
        seed=0,
    )
    doc = json.loads(json.dumps({
        "sample_rate_hz": scene.sample_rate_hz,
        "num_loudspeakers": 1,
        "sets": [{
            "h_m": scene.sets[0].h_m.samples.tolist(),
            "h_open": scene.sets[0].h_open.samples.tolist(),
            "h_occ": scene.sets[0].h_occ.samples.tolist(),
            "d": [scene.sets[0].d[0].samples.tolist()],
        }],
    }))
    same = scenario_from_dict(doc)
    assert scenario_fingerprint(same) == scenario_fingerprint(scene)
    doc["sets"][0]["h_m"][0] += 1e-9
    assert scenario_fingerprint(scenario_from_dict(doc)) != scenario_fingerprint(scene)


def valid_doc():
    return {
        "sample_rate_hz": 16000.0,
        "num_loudspeakers": 2,
        "sets": [
            {
                "h_m": [1.0, 0.1],
                "h_open": [0.9, 0.0],
                "h_occ": [0.1, 0.0],
                "d": [[1.0, 0.2, 0.0], [0.8, 0.1, 0.05]],
            },
            {
                "h_m": [1.0, 0.12],
                "h_open": [0.88, 0.0],
                "h_occ": [0.11, 0.0],
                "d": [[1.0, 0.21, 0.0], [0.79, 0.1, 0.04]],
            },
        ],
    }


def test_scenario_from_dict_error_paths():
    doc = valid_doc()
    del doc["sets"][1]["h_occ"]
    with pytest.raises(ValidationError, match=r"sets\[1\]: missing field 'h_occ'"):
        scenario_from_dict(doc)

    doc = valid_doc()
    doc["sets"][1]["d"][1] = [0.8, 0.1]
    with pytest.raises(ValidationError, match=r"sets\[1\]\.d\[1\]"):
        scenario_from_dict(doc)

    doc = valid_doc()
    doc["sets"][0]["h_m"][1] = float("inf")
    with pytest.raises(ValidationError, match=r"sets\[0\]\.h_m\[1\]"):
        scenario_from_dict(doc)

    doc = valid_doc()
    doc["comment"] = "hello"
    with pytest.raises(ValidationError, match="unknown field 'comment'"):
        scenario_from_dict(doc)

    doc = valid_doc()
    doc["sets"][0]["d"] = doc["sets"][0]["d"][:1]
    with pytest.raises(ValidationError, match=r"sets\[0\]\.d"):
        scenario_from_dict(doc)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError, match="invalid JSON"):
        load_scenario(path)
