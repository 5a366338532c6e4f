"""Malformed input files: every CLI command exits 2 naming the field, never a traceback."""

import contextlib
import copy
import functools
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqdesign import ValidationError, load_scenario
from eqdesign.cli import main

HUGE_INT = 10**400  # a valid JSON integer past the float range

SYNTH = {
    "num_sets": 2, "num_loudspeakers": 2, "source_ir_length": 8, "speaker_ir_length": 6,
    "sample_rate_hz": 16000.0, "phase_family": "minimum-phase",
    "leakage_attenuation_db": 20.0, "reinsertion_level_db": -30.0, "correlation": 0.9,
    "spectral_range_db": 10.0,
}
CONFIG = {"variant": "MFR_DELTA_LS", "L_A": 4, "d_H": 2, "lambda": 0.1, "beta": 1.0,
          "G0_db": 0.0, "d_G": 2, "L_FFT": 32}
GRID = {"variant": ["R_DELTA_LS", "MFR_DELTA_LS"], "N": [1, 2], "d_H": 2, "lambda": [0.1],
        "beta": 1.0, "G0_db": 0.0, "d_G": 2, "L_A": 4, "L_FFT": 32}

# fields whose value sets an allocation size: a huge one can fail to allocate,
# which exits 2 (tests/test_cli.py::test_input_too_large_to_allocate_exits_2),
# or run for as long as the size asks, so the mutations below never draw one
SIZE_FIELDS = {"num_sets", "num_loudspeakers", "source_ir_length", "speaker_ir_length",
               "filter_length", "L_A", "L_FFT", "d_H", "d_G", "N"}
BAD_VALUES = ["x", True, None, [], {}, -1, 0, 1.5, 1e308, HUGE_INT]


def run(*argv):
    """Exit code and stderr of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@functools.cache
def valid_docs() -> dict:
    """A small valid document of each input kind: synth, scene, config, grid, filter."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "synth.json").write_text(json.dumps(SYNTH))
        (tmp / "config.json").write_text(json.dumps(CONFIG))
        assert run("synth", "--config", tmp / "synth.json", "--seed", 5,
                   "--out", tmp / "scene.json")[0] == 0
        assert run("design", "--scenario", tmp / "scene.json", "--config", tmp / "config.json",
                   "--out", tmp / "filter.json")[0] == 0
        return {
            "synth": SYNTH,
            "scene": json.loads((tmp / "scene.json").read_text()),
            "config": CONFIG,
            "grid": GRID,
            "filter": json.loads((tmp / "filter.json").read_text()),
        }


def run_with(kind: str, doc, tmp: Path, command: str | None = None):
    """Run `command`, by default the one that reads a `kind` file, with `doc` as
    its `kind` file and every other input valid."""
    files = {}
    for name, valid in valid_docs().items():
        files[name] = tmp / f"{name}.json"
        files[name].write_text(json.dumps(doc if name == kind else valid))
    command = command or {"synth": "synth", "grid": "sweep", "filter": "eval"}.get(kind)
    if command == "synth":
        return run("synth", "--config", files["synth"], "--out", tmp / "out.json")
    if command == "sweep":
        return run("sweep", "--scenario", files["scene"], "--grid", files["grid"],
                   "--out", tmp / "out.csv")
    if command == "eval":
        return run("eval", "--scenario", files["scene"], "--filter", files["filter"],
                   "--out", tmp / "report")
    return run("design", "--scenario", files["scene"], "--config", files["config"],
               "--out", tmp / "out.json")


def paths(node, prefix=()):
    """Every path to a value inside node, outermost first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from paths(child, prefix + (key,))


def mutate(kind: str, path: tuple, op: str, value):
    """The valid `kind` document with the value at `path` deleted ("delete") or
    replaced ("set"), or with an unknown key in the innermost object on `path`."""
    doc = copy.deepcopy(valid_docs()[kind])
    if op == "set" and not path:
        return value
    if op == "unknown-key":
        node = target = doc
        for key in path:
            node = node[key]
            if isinstance(node, dict):
                target = node
        target["comment"] = "not a field"
        return doc
    if not path:
        return {}
    node = doc
    for key in path[:-1]:
        node = node[key]
    if op == "delete":
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


@pytest.mark.parametrize("kind, path, field", [
    ("scene", ("sets", 1, "h_occ", 3), "sets[1].h_occ[3]"),
    ("scene", ("sets", 0, "d", 1, 0), "sets[0].d[1][0]"),
    ("filter", ("coefficients", 1, 2), "filter.coefficients[1][2]"),
    ("config", ("lambda",), "config.lambda"),
    ("config", ("beta",), "config.beta"),
    ("filter", ("config", "lambda"), "filter.config.lambda"),
    ("filter", ("config", "beta"), "filter.config.beta"),
    ("grid", ("lambda", 0), "grid.lambda[0]"),
    ("grid", ("beta",), "grid.beta[0]"),
    ("synth", ("sample_rate_hz",), "sample_rate_hz"),
    ("synth", ("leakage_attenuation_db",), "leakage_attenuation_db"),
    ("synth", ("reinsertion_level_db",), "reinsertion_level_db"),
])
def test_integer_past_float_range_is_config_error(tmp_path, kind, path, field):
    code, err = run_with(kind, mutate(kind, path, "set", HUGE_INT), tmp_path)
    assert code == 2
    assert err == f"error: {field}: non-finite value\n"


def test_eval_reads_scene_samples_as_numbers(tmp_path):
    scene = mutate("scene", ("sets", 1, "h_m", 0), "set", HUGE_INT)
    (tmp_path / "bad.json").write_text(json.dumps(scene))
    (tmp_path / "filter.json").write_text(json.dumps(valid_docs()["filter"]))
    code, err = run("eval", "--scenario", tmp_path / "bad.json",
                    "--filter", tmp_path / "filter.json", "--out", tmp_path / "report")
    assert (code, err) == (2, "error: sets[1].h_m[0]: non-finite value\n")


@pytest.mark.parametrize("kind, path, value", [
    ("config", ("G0_db",), 1e308),
    ("grid", ("G0_db",), [0.0, 1e308]),
    ("filter", ("config", "G0_db"), 1e308),
    ("synth", ("reinsertion_level_db",), 1e308),
    ("synth", ("leakage_attenuation_db",), 1e308),
    ("synth", ("leakage_attenuation_db",), -7000.0),
])
def test_gain_past_float_range_is_config_error(tmp_path, kind, path, value):
    code, err = run_with(kind, mutate(kind, path, "set", value), tmp_path)
    # a synth field names itself; a forward path gain is named as such
    name = path[-1] if kind == "synth" else "forward path gain"
    level = value[-1] if isinstance(value, list) else value
    assert (code, err) == (2, f"error: {name} {level!r} dB overflows a float\n")


@pytest.mark.parametrize("command", ["design", "sweep"])
@pytest.mark.parametrize("path", [
    ("sets", 0, "h_m", 0),
    ("sets", 0, "h_open", 0),
    ("sets", 0, "h_occ", 0),
    ("sets", 0, "d", 0, 0),
    ("sets", 0, "d", 1, 0),
], ids=["h_m", "h_open", "h_occ", "d0", "d1"])
def test_overflow_on_finite_samples_is_numerical_failure(tmp_path, command, path):
    code, err = run_with("scene", mutate("scene", path, "set", 1e308), tmp_path, command)
    assert code == 3
    assert err.startswith("numerical failure: ") and err.count("\n") == 1


def test_overflowing_aided_response_is_numerical_failure(tmp_path):
    doc = mutate("filter", ("coefficients", 0, 0), "set", 1e308)
    code, err = run_with("filter", doc, tmp_path)
    assert (code, err) == (3, "numerical failure: aided response overflowed the float range\n")


def test_overflowing_distance_is_numerical_failure(tmp_path):
    # with a 1e308 leakage sample a one-loudspeaker MFR_DELTA_LS design stays
    # finite, but its aided magnitude over the desired one overflows
    scene = mutate("scene", ("sets", 0, "h_occ", 0), "set", 1e308)
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    grid = dict(GRID, variant=["MFR_DELTA_LS"], N=[1])
    (tmp_path / "grid.json").write_text(json.dumps(grid))
    message = "numerical failure: aided-to-desired magnitude ratio left the float range\n"
    assert run("sweep", "--scenario", tmp_path / "scene.json", "--grid", tmp_path / "grid.json",
               "--out", tmp_path / "out.csv") == (3, message)
    assert not (tmp_path / "out.csv").exists()

    scene["num_loudspeakers"] = 1
    for ms in scene["sets"]:
        ms["d"] = ms["d"][:1]
    (tmp_path / "one.json").write_text(json.dumps(scene))
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    assert run("design", "--scenario", tmp_path / "one.json", "--config", tmp_path / "config.json",
               "--out", tmp_path / "filter.json") == (0, "")
    assert run("eval", "--scenario", tmp_path / "one.json", "--filter", tmp_path / "filter.json",
               "--out", tmp_path / "report") == (3, message)
    assert not any(tmp_path.glob("report.*"))


@pytest.mark.parametrize("tap, what", [
    (1.5e308, "aided response"),
    (1e306, "set-averaged aided magnitude"),
], ids=["time-response", "set-average"])
def test_aided_overflow_on_the_readme_scene_is_numerical_failure(tmp_path, tap, what):
    # on the README default scene, 99 taps of 1.5e308 on one loudspeaker
    # overflow the aided time response; taps of 1e306 leave every per-set
    # distance finite, about 6126 dB, but overflow the mean of five sets' magnitudes
    (tmp_path / "synth.json").write_text("{}")
    config = {"variant": "MFR_DELTA_LS", "L_A": 99, "d_H": 32, "lambda": 0.1, "beta": 1.0,
              "G0_db": 0.0, "d_G": 96}
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert run("synth", "--config", tmp_path / "synth.json", "--seed", 0,
               "--out", tmp_path / "scene.json") == (0, "")
    assert run("design", "--scenario", tmp_path / "scene.json", "--config", tmp_path / "config.json",
               "--out", tmp_path / "filter.json") == (0, "")
    filt = json.loads((tmp_path / "filter.json").read_text())
    filt["coefficients"][0] = [tap] * 99
    (tmp_path / "filter.json").write_text(json.dumps(filt))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run("eval", "--scenario", tmp_path / "scene.json", "--filter", tmp_path / "filter.json",
                     "--out", tmp_path / "report")
    assert result == (3, f"numerical failure: {what} overflowed the float range\n")
    assert caught == []
    assert not any(tmp_path.glob("report.*"))


def test_infinite_distance_is_numerical_failure(tmp_path):
    # a zero filter on a set without leakage leaves that set's aided
    # response exactly 0, so its distance is infinite
    scene = mutate("scene", ("sets", 0, "h_occ"), "set", [0.0] * SYNTH["source_ir_length"])
    doc = copy.deepcopy(valid_docs()["filter"])
    doc["coefficients"] = [[0.0] * CONFIG["L_A"] for _ in doc["coefficients"]]
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    (tmp_path / "filter.json").write_text(json.dumps(doc))
    assert run("eval", "--scenario", tmp_path / "scene.json", "--filter", tmp_path / "filter.json",
               "--out", tmp_path / "report") == (
        3, "numerical failure: aided response of set 0 rounds to 0 in the band, "
           "so its distance is infinite\n")
    assert not any(tmp_path.glob("report.*"))


@pytest.mark.parametrize("kind, changes, message", [
    ("scene", {("sets", 1, key): [1.0] for key in ("h_m", "h_open", "h_occ")},
     "sets[1].h_m: length 1 does not match sets[0] length 8"),
    ("scene", {("sets",): {}}, "sets: expected a list"),
    ("scene", {("sets", 0, "h_m"): []}, "sets[0].h_m: expected a non-empty list of numbers"),
    ("config", {("d_H",): -1}, "config: acausal_delay must be a nonnegative integer"),
    ("filter", {("coefficients",): []},
     "filter.coefficients: expected one or more rows of 4 numbers (filter.config.L_A)"),
    ("synth", {("num_loudspeakers",): 0}, "num_loudspeakers must be a positive integer"),
    ("synth", {("sample_rate_hz",): 0}, "sample_rate_hz must be positive"),
    ("scene", {("sample_rate_hz",): 0}, "sample_rate_hz must be positive"),
    ("scene", {("sample_rate_hz",): -16000.0}, "sample_rate_hz must be positive"),
    ("synth", {("phase_family",): "non-minimum-phase", ("speaker_ir_length",): 1},
     "non-minimum-phase needs speaker_ir_length of at least 2"),
], ids=["h_m-lengths-differ", "sets-not-a-list", "empty-h_m", "negative-d_H",
        "no-loudspeakers-filter", "no-loudspeakers-synth",
        "zero-rate", "zero-rate-scene", "negative-rate-scene", "one-tap-non-minimum-phase"])
def test_refused_values_name_their_field(tmp_path, kind, changes, message):
    doc = copy.deepcopy(valid_docs()[kind])
    for path, value in changes.items():
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    assert run_with(kind, doc, tmp_path) == (2, f"error: {message}\n")


@pytest.mark.parametrize("tap", ["0.5", True, {}], ids=["string", "bool", "object"])
def test_filter_taps_must_be_numbers(tmp_path, tap):
    code, err = run_with("filter", mutate("filter", ("coefficients", 0, 3), "set", tap), tmp_path)
    assert (code, err) == (2, "error: filter.coefficients[0][3]: expected a number\n")


def test_filter_taps_are_a_finite_matrix(tmp_path):
    # the filter reader is the one check of a filter's taps: a row of L_A taps
    # per loudspeaker, every tap a finite number
    for coefficients, message in [
        ([0.0] * 4, "filter.coefficients: expected one or more rows of 4 numbers (filter.config.L_A)"),
        ([[0.0, float("nan"), 0.0, 0.0], [0.0] * 4], "filter.coefficients[0][1]: non-finite value"),
        ([[0.0] * 4, [0.0, 0.0, -float("inf"), 0.0]], "filter.coefficients[1][2]: non-finite value"),
    ]:
        doc = mutate("filter", ("coefficients",), "set", coefficients)
        assert run_with("filter", doc, tmp_path) == (2, f"error: {message}\n")


def test_filter_row_count_is_checked_before_taps(tmp_path):
    # the rows' count is the filter's loudspeaker count, and their length is
    # checked before any tap: a row of L_A taps of 2 loudspeakers, one short
    doc = mutate("filter", ("coefficients",), "set", [["x"] * 4, ["x"] * 3])
    code, err = run_with("filter", doc, tmp_path)
    assert (code, err) == (
        2, "error: filter.coefficients: expected one or more rows of 4 numbers (filter.config.L_A)\n")


@pytest.mark.parametrize("field", ["num_sets", "speaker_ir_length"])
def test_synth_integer_fields_reject_booleans(tmp_path, field):
    code, err = run_with("synth", mutate("synth", (field,), "set", True), tmp_path)
    assert (code, err) == (2, f"error: {field} must be a positive integer\n")


def test_load_scenario_names_unreadable_file(tmp_path):
    with pytest.raises(ValidationError, match="scenario: cannot read"):
        load_scenario(tmp_path / "missing.json")


@st.composite
def mutations(draw):
    kind = draw(st.sampled_from(sorted(valid_docs())))
    path = draw(st.sampled_from([()] + list(paths(valid_docs()[kind]))))
    op = draw(st.sampled_from(["delete", "unknown-key", "set"]))
    if op == "set":
        value = draw(st.sampled_from(BAD_VALUES))
        if any(key in SIZE_FIELDS for key in path) and value in (1e308, HUGE_INT):
            value = 0
        return kind, path, op, value
    return kind, path, op, None


@settings(max_examples=120)
@given(mutations())
def test_malformed_files_exit_cleanly(mutation):
    kind, path, op, value = mutation
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run_with(kind, mutate(kind, path, op, value), Path(tmp))
    assert code in (0, 2, 3)
    if code == 2:
        assert sum(line.startswith("error: ") for line in err.splitlines()) == 1
