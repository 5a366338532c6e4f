"""Scene containers, the synthetic generator, and the JSON round trip."""

import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    _number,
    _number_list,
    _pow2_at_least,
    _pull_roots_inside,
    _coprimality_margin,
    _random_log_magnitude_db,
    _refuse_over_budget,
    _replace_factor,
    _roots,
    _scenario_dict,
    _winding_certificate,
    _write_json,
    _zeros_within,
)
from eqdesign.signals import FrequencyGrid, ImpulseResponse

RATE = 16000.0


def ir(*samples):
    return ImpulseResponse(np.array(samples, dtype=float))


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
    for rate in (0.0, -RATE):
        with pytest.raises(ValidationError, match="^sample_rate_hz must be positive$"):
            Scenario((good,), rate)


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
    assert np.array_equal(forward_path_ir(0.0, 1).samples, [0.0, 1.0])
    assert np.allclose(forward_path_ir(20.0, 0).samples, [10.0], atol=1e-15)
    g = forward_path_ir(0.0, 96)
    assert len(g) == 97
    assert 96 / RATE == 0.006  # 6 ms processing delay
    with pytest.raises(ValidationError):
        forward_path_ir(0.0, -1)


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


def test_synth_spec_holds_a_scene_of_up_to_one_gib():
    # 8 bytes x 2**20 sets x (3 x 2 + 2 x 61) samples is 2**30 bytes; constructed, not synthesized
    at_budget = dict(num_sets=2**20, num_loudspeakers=2, source_ir_length=2, speaker_ir_length=61)
    assert SynthSpec(**at_budget).num_sets == 2**20
    for field in ("num_sets", "speaker_ir_length"):
        with pytest.raises(ValidationError, match="input too large"):
            SynthSpec(**{**at_budget, field: at_budget[field] + 1})


def test_synth_determinism():
    spec = SynthSpec(num_sets=3, num_loudspeakers=2, source_ir_length=40, speaker_ir_length=30)
    a = synth_scenario(spec, seed=17)
    b = synth_scenario(spec, seed=17)
    assert scenario_fingerprint(a) == scenario_fingerprint(b)
    for ms_a, ms_b in zip(a.sets, b.sets):
        for ir_a, ir_b in zip(ms_a._responses(), ms_b._responses()):
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
        for response in ms._responses():
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
    poly_with_zeros(0.998, seed=0, conjugate=False),
    poly_with_zeros(1.05, seed=1, conjugate=False),
    poly_with_zeros(1.2, seed=2),
    np.concatenate([[0.0], poly_with_zeros(0.5, seed=3)]),
], ids=["real-0.998", "real-1.05", "pair-1.2", "leading-zero"])
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


def check_winding_certificate(h, radius=_CERTIFIED_RADIUS):
    """The certificate's verdict on h, checked against np.roots and the step-down."""
    verdict = _winding_certificate(h, radius)
    if verdict is not None:
        largest = np.max(np.abs(np.roots(h)), initial=0.0)
        assert verdict == (largest < radius), largest
        with np.errstate(all="ignore"):  # the step-down's own overflow is not under test
            assert verdict == _zeros_within(h, radius)
    return verdict


@settings(max_examples=300)
@given(
    largest=st.floats(0.3, 1.5),
    pairs=st.integers(0, 60),
    conjugate=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(largest=_CERTIFIED_RADIUS, pairs=12, conjugate=False, seed=0)
@example(largest=0.995, pairs=60, conjugate=True, seed=1)
def test_winding_certificate_is_sound(largest, pairs, conjugate, seed):
    h = poly_with_zeros(largest, seed, pairs, conjugate)
    check_winding_certificate(h)
    # zeros at the origin are inside any radius; 1e-300 ** -2 overflows
    check_winding_certificate(np.concatenate([h, [0.0, 0.0]]))
    assert _winding_certificate(np.concatenate([h, [0.0]]), 1e-300) is None
    # a zero leading coefficient is a zero at infinity that np.roots drops
    assert _winding_certificate(np.concatenate([[0.0], h]), _CERTIFIED_RADIUS) is None
    for where in (0, h.size // 2, h.size - 1):
        for bad in (math.nan, math.inf, -math.inf):
            spoiled = h.copy()
            spoiled[where] = bad
            assert _winding_certificate(spoiled, _CERTIFIED_RADIUS) is None


@settings(max_examples=300)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3).filter(lambda h: abs(h[0]) >= 1e-6))
@example([1.0])
@example([1.0, -_CERTIFIED_RADIUS])
@example([1.0, 0.0, 0.0])
@example([1e-6, 1e3, -1e3])
def test_winding_certificate_is_sound_on_short_responses(h):
    check_winding_certificate(np.array(h))


def test_dense_matrix_budget_is_one_gibibyte():
    # the companion matrix of an 11586-tap response fits; refusals come before any matrix
    _refuse_over_budget(8 * 11585 * 11585, "an 11585 x 11585 float64 matrix")
    with pytest.raises(ValidationError, match=(
        r"^input too large: the zeros of a response of 11587 taps, set by source_ir_length or "
        r"speaker_ir_length, take a 11586 x 11586 float64 companion matrix: 1\.07e\+9 bytes, "
        r"over the budget of 1,073,741,824 \(1 GiB\)$"
    )):
        _roots(np.ones(11587))
    with pytest.raises(ValidationError, match=(
        r"^input too large: the co-prime check of loudspeaker responses of 5794 taps, set by "
        r"speaker_ir_length, takes a 11586 x 11586 float64 Sylvester matrix: 1\.07e\+9 bytes"
    )):
        _coprimality_margin(np.ones(5794), np.ones(5794))


# scenario_fingerprint of the README default scene and the perfbench long
# scene, seeds 0-4, and of one-set 1500-tap scenes, seeds 0-2, as np.roots
# alone produced them
PINNED_FINGERPRINTS = {
    "default": [
        "9ad2f315607e8bf876100ea9b521a2e0a3d6d71cef58292c8679f8935fbe8371",
        "c8bc84dd80afc342d99b5165106661b1db7c8df43bb72a84ef79b72e2b92ad11",
        "e2d0c08c7dc2a1396fec8fc5748fad6c3efd82dd77f59db8654310874b6f4d81",
        "6a61a1cb3ccc3cee4ecb755c8aa09082d6b78785cfdd2f0cdebe10dd4cb941ac",
        "e8b02c7aec1c29e50ba036d7e7ecbd6632517d7419521589722e863e38980540",
    ],
    "long": [
        "5a86677f9759e29e252ccedcd8da967b12e1b49424d9801bd42fc9da58be772c",
        "49597c73cea1dac43fe6cb473a73238f58bdd0ab2a091b3bde981598ddd75dc3",
        "b41a71582c8a5d9f952490b4eb2b47814c7fe9fe6c683f55d719bf6629041a5a",
        "59ed36a3a36ba0ed328a26d4a72a94fe8e1dacb2bdd15c79c74af1b94cd0d6bd",
        "d62f97d4bc1d064cb193465ea0fca28fec5967b982f33b2ef9d038a5d8c1e66b",
    ],
    "1500-tap": [
        "b0540ed0c961e59461513507d0a2f06798c8da0068c3dcfe0387ee04d6ea55c5",
        "73459f0621f7d120ef7f3c2ba3e420871cca7206945ac92022ad0c3f8992a621",
        "c0e4bd602bbdab7f9af860df2ea8100455245aec6b33c6bfc5a14cbe1fb3d920",
    ],
}


@pytest.mark.parametrize("name, spec", [
    ("default", SynthSpec()),
    ("long", SynthSpec(num_sets=3, source_ir_length=256, speaker_ir_length=200)),
    ("1500-tap", SynthSpec(num_sets=1, source_ir_length=1500, speaker_ir_length=1500)),
])
def test_synth_is_certified_by_one_fft_per_response(name, spec):
    with mock.patch.object(scenario_module, "_zeros_within", wraps=_zeros_within) as step_down, \
            mock.patch.object(np, "roots", wraps=np.roots) as roots:
        digests = [
            scenario_fingerprint(synth_scenario(spec, seed))
            for seed in range(len(PINNED_FINGERPRINTS[name]))
        ]
    assert digests == PINNED_FINGERPRINTS[name]
    assert step_down.call_count == 0 and roots.call_count == 0


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
    m1 = np.abs(np.fft.rfft(d_min, grid.fft_size))
    m2 = np.abs(np.fft.rfft(d_flip, grid.fft_size))
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
        np.abs(np.fft.rfft(ms.h_occ.samples, grid.fft_size))
        / np.abs(np.fft.rfft(ms.h_open.samples, grid.fft_size))
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
        for ir_a, ir_b in zip(ms_a._responses(), ms_b._responses()):
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


# every finite double: signed zeros, subnormals and the extremes included
SAMPLES = st.floats(allow_nan=False, allow_infinity=False)


def shaped_scene(samples, num_sets, num_loudspeakers, source_length, speaker_length,
                 rate=RATE):
    """A scene filled from `samples` in file order: h_m, h_open, h_occ, d[0], ... per set."""
    pos = 0

    def take(n):
        nonlocal pos
        pos += n
        return ImpulseResponse(np.array(samples[pos - n : pos], dtype=float))

    sets = []
    for _ in range(num_sets):
        h = [take(source_length) for _ in range(3)]
        sets.append(MeasurementSet(*h, tuple(take(speaker_length) for _ in range(num_loudspeakers))))
    assert pos == len(samples)
    return Scenario(tuple(sets), rate)


@st.composite
def scenes(draw):
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 4)),
             draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    count = shape[0] * (3 * shape[2] + shape[1] * shape[3])
    samples = draw(st.lists(SAMPLES, min_size=count, max_size=count))
    rate = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    return shaped_scene(samples, *shape, rate=rate)


EDGE_SAMPLES = [-0.0, 5e-324, -5e-324, 1e308, -1e308, 2.2250738585072014e-308, 0.1]


@settings(max_examples=60)
@given(scene=scenes())
@example(scene=shaped_scene(EDGE_SAMPLES, 1, 4, 1, 1, rate=1e300))
@example(scene=shaped_scene(EDGE_SAMPLES[:5], 1, 1, 1, 2))
def test_save_writes_what_json_dump_writes(scene):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scene.json"
        save_scenario(scene, path)
        # the document holds the sample arrays, which json writes as their lists
        expected = json.dumps(_scenario_dict(scene), indent=1, default=np.ndarray.tolist)
        assert path.read_bytes() == (expected + "\n").encode()
        loaded = load_scenario(path)
    assert scenario_fingerprint(loaded) == scenario_fingerprint(scene)


@pytest.mark.parametrize("doc", [
    {"delta_h_aud_db": [1.5, math.inf], "mean_delta_h_aud_db": math.inf},
    {"xs": [math.nan, -0.0], "ints": [1, 2.5, True, None], "nested": [[], [{}], [[0.5]]]},
    {"s": "µs \"quoted\"", "pair": (0.25, -1e-300), "empty": {}, "none": None},
    [1.0],
    [],
    7,
])
def test_json_writer_matches_json_dump_off_the_float_path(tmp_path, doc):
    _write_json(doc, tmp_path / "doc.json")
    assert (tmp_path / "doc.json").read_text() == json.dumps(doc, indent=1) + "\n"


@pytest.mark.parametrize("array", [
    np.array([0.5, -0.0, 5e-324, -1e308]),
    np.array([1.5, math.nan, -math.inf]),
    np.array([[0.25, 1e-300], [math.inf, 2.0]]),
    np.empty(0), np.empty((0, 3)), np.empty((2, 0)),
    np.arange(3), np.array([True, False]), np.float32([0.1, 3.0]), np.array(0.1),
    np.arange(8.0).reshape(2, 2, 2),
], ids=["finite", "non-finite", "2-d", "empty", "no-rows", "empty-rows", "int", "bool",
        "float32", "0-d", "3-d"])
def test_json_writer_writes_an_array_as_its_list(tmp_path, array):
    _write_json({"array": array}, tmp_path / "doc.json")
    expected = json.dumps({"array": array.tolist()}, indent=1)
    assert (tmp_path / "doc.json").read_text() == expected + "\n"


# one item a list of numbers may not hold, each with its own message
BAD_ITEMS = [True, "0.5", None, [1.0], 10**400, *json.loads("[NaN, Infinity, -Infinity]")]


@settings(max_examples=100)
@given(
    values=st.one_of(
        st.lists(SAMPLES, min_size=1, max_size=40),
        st.lists(st.one_of(SAMPLES, st.integers(-(2**53), 2**53)), min_size=1, max_size=40),
    ),
    bad=st.sampled_from(BAD_ITEMS),
    data=st.data(),
)
def test_number_list_agrees_with_per_item_checks(values, bad, data):
    expected = np.array([_number(x, "xs") for x in values])
    assert _number_list(values, "xs").tobytes() == expected.tobytes()
    at = data.draw(st.integers(0, len(values)))
    with pytest.raises(ValidationError) as alone:
        _number(bad, f"xs[{at}]")
    with pytest.raises(ValidationError) as listed:
        _number_list(values[:at] + [bad] + values[at:], "xs")
    assert str(listed.value) == str(alone.value)


# (sets, loudspeakers, source length, speaker length) of every scene of 12 samples
SHAPES_OF_12 = [
    (s, n, a, b)
    for s in range(1, 5) for n in range(1, 5) for a in range(1, 13) for b in range(1, 13)
    if s * (3 * a + n * b) == 12
]


@settings(max_examples=60)
@given(
    samples=st.lists(SAMPLES, min_size=12, max_size=12),
    shapes=st.lists(st.sampled_from(SHAPES_OF_12), min_size=2, max_size=2, unique=True),
    at=st.integers(0, 11),
)
def test_fingerprint_is_the_arrangement_and_every_bit(samples, shapes, at):
    digest = scenario_fingerprint(shaped_scene(samples, *shapes[0]))
    assert len(digest) == 64 and int(digest, 16) >= 0
    assert scenario_fingerprint(shaped_scene(list(samples), *shapes[0])) == digest
    # the same samples in another arrangement
    assert scenario_fingerprint(shaped_scene(samples, *shapes[1])) != digest
    # the sign of a zero
    digests = {
        scenario_fingerprint(shaped_scene(samples[:at] + [zero] + samples[at + 1 :], *shapes[0]))
        for zero in (0.0, -0.0)
    }
    assert len(digests) == 2


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
