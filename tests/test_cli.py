"""End-to-end runs of the command line: synth, design, eval, sweep."""

import csv
import dataclasses
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgWarning

from eqdesign import (
    DesignConfig,
    NumericsError,
    Scenario,
    SynthSpec,
    default_fft_size,
    design_filter,
    evaluate,
    forward_path_ir,
    load_scenario,
    save_scenario,
    scenario_fingerprint,
    select_loudspeakers,
    synth_scenario,
)
from eqdesign import cli, design, evaluation
from eqdesign.cli import EVAL_HEADER, SWEEP_HEADER, main
from eqdesign.design import VARIANTS
from eqdesign.scenario import _json_text, _write_json


def write_json(path, doc):
    path.write_text(json.dumps(doc) + "\n")
    return str(path)


def run(*argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


SMALL_SYNTH = {
    "num_sets": 1, "num_loudspeakers": 1, "source_ir_length": 12,
    "speaker_ir_length": 8, "reinsertion_level_db": None,
}

SMALL_CONFIG = {
    "variant": "R_DELTA_LS", "L_A": 9, "d_H": 4, "lambda": 1e-8, "beta": 1.0,
    "G0_db": 0.0, "d_G": 0, "L_FFT": 64,
}


@pytest.fixture
def small_scene_path(tmp_path):
    spec = write_json(tmp_path / "spec.json", SMALL_SYNTH)
    out = tmp_path / "scene.json"
    assert run("synth", "--config", spec, "--seed", 1, "--out", out) == 0
    return out


# ---------------------------------------------------------------------------
# synth


def test_synth_is_deterministic(tmp_path):
    spec = write_json(tmp_path / "spec.json", SMALL_SYNTH)
    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    assert run("synth", "--config", spec, "--seed", 3, "--out", a) == 0
    assert run("synth", "--config", spec, "--seed", 3, "--out", b) == 0
    assert run("synth", "--config", spec, "--seed", 4, "--out", c) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_synth_rejects_unknown_field(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", {"num_sets": 1, "venting": "large"})
    assert run("synth", "--config", spec, "--out", tmp_path / "x.json") == 2
    assert "unknown field 'venting'" in capsys.readouterr().err


def test_synth_rejects_broken_json(tmp_path, capsys):
    bad = tmp_path / "spec.json"
    bad.write_text("{")
    assert run("synth", "--config", bad, "--out", tmp_path / "x.json") == 2
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, field",
    [('{"num_sets": Infinity}', "num_sets"), ('{"source_ir_length": 1e400}', "source_ir_length")],
)
def test_synth_rejects_infinite_integer_field(tmp_path, capsys, text, field):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    assert run("synth", "--config", spec, "--out", tmp_path / "x.json") == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("field", ["num_sets", "num_loudspeakers", "source_ir_length",
                                   "speaker_ir_length"])
def test_synth_takes_integral_float_sizes(tmp_path, field):
    size = SMALL_SYNTH[field] + 1
    written = []
    for value in (size, float(size)):
        out = tmp_path / f"{value!r}.json"
        spec = write_json(tmp_path / "spec.json", {**SMALL_SYNTH, field: value})
        assert run("synth", "--config", spec, "--seed", 3, "--out", out) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]
    assert type(getattr(SynthSpec(**{field: 2.0}), field)) is int


@pytest.mark.parametrize("family", ["non-minimum-phase", "co-prime-pair"])
def test_synth_unsatisfiable_family_is_config_error(tmp_path, capsys, family):
    # a flat spectrum gives loudspeaker responses without interior zeros
    spec = write_json(tmp_path / "spec.json",
                      {**SMALL_SYNTH, "num_loudspeakers": 2, "phase_family": family,
                       "spectral_range_db": 0.0})
    assert run("synth", "--config", spec, "--seed", 0, "--out", tmp_path / "x.json") == 2
    err = capsys.readouterr().err
    assert "phase_family" in err and "spectral_range_db" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("spec, taps", [
    # np.roots on the minimum-phase cleanup: 3.2 GB
    ({"source_ir_length": 20000, "spectral_range_db": 199, "leakage_attenuation_db": -5800},
     20000),
    # a flat spectrum certifies at once, then np.roots on the zero reflection,
    # one tap past the budget
    ({"phase_family": "non-minimum-phase", "speaker_ir_length": 11587, "spectral_range_db": 0},
     11587),
    # the Sylvester matrix of two 5794-tap responses, 11586 rows
    ({"phase_family": "co-prime-pair", "speaker_ir_length": 5794, "spectral_range_db": 0},
     5794),
], ids=["min-phase-cleanup", "non-minimum-phase", "co-prime-pair"])
def test_synth_refuses_a_dense_matrix_past_its_budget(tmp_path, capsys, spec, taps):
    config = write_json(tmp_path / "spec.json", {**spec, "num_sets": 1})
    ran = AssertionError("a dense matrix past the budget was built")
    with mock.patch.object(np, "roots", side_effect=ran), \
            mock.patch.object(np.linalg, "svd", side_effect=ran):
        assert run("synth", "--config", config, "--seed", 0, "--out", tmp_path / "x.json") == 2
    err = capsys.readouterr().err.splitlines()
    # the one budget message, naming the response length and the fields that set it
    assert len(err) == 1 and err[0].startswith("error: input too large: ")
    assert err[0].endswith(" bytes, over the budget of 1,073,741,824 (1 GiB)")
    assert f" {taps} taps, set by " in err[0] and "speaker_ir_length" in err[0]
    assert not (tmp_path / "x.json").exists()


# ---------------------------------------------------------------------------
# design


def test_design_produces_filter_file(tmp_path, small_scene_path):
    config = write_json(tmp_path / "config.json", SMALL_CONFIG)
    out = tmp_path / "filter.json"
    assert run("design", "--scenario", small_scene_path, "--config", config,
               "--out", out) == 0
    doc = json.loads(out.read_text())
    assert (doc["config"]["L_A"], doc["config"]["d_H"]) == (9, 4)
    assert len(doc["coefficients"]) == 1 and len(doc["coefficients"][0]) == 9
    assert doc["config"]["G0_db"] == 0.0 and doc["config"]["d_G"] == 0
    assert len(doc["scenario_fingerprint"]) == 64
    assert out.read_text() == json.dumps(doc, indent=1) + "\n"


FILTER_KEYS = ["coefficients", "config", "scenario_fingerprint"]
FILTER_CONFIG_KEYS = ["variant", "L_A", "d_H", "lambda", "beta", "L_FFT", "G0_db", "d_G"]


@pytest.mark.parametrize("fft_size", [None, 256])
def test_design_writes_the_filter_file_layout(tmp_path, fft_size):
    scene_path = tmp_path / "scene.json"
    spec = SynthSpec(num_sets=2, num_loudspeakers=2, source_ir_length=12, speaker_ir_length=8)
    save_scenario(synth_scenario(spec, seed=6), scene_path)
    settings = {"variant": "MFR_DELTA_LS", "L_A": 11, "d_H": 4, "lambda": 0.1, "beta": 2.0,
                "G0_db": -3.0, "d_G": 8}
    if fft_size is not None:
        settings["L_FFT"] = fft_size
    out = tmp_path / "filter.json"
    assert run("design", "--scenario", scene_path, "--config",
               write_json(tmp_path / "config.json", settings), "--out", out) == 0
    doc = json.loads(out.read_text())
    assert list(doc) == FILTER_KEYS
    assert list(doc["config"]) == FILTER_CONFIG_KEYS
    # an absent L_FFT is written as the grid design derived
    assert doc["config"] == {**settings, "L_FFT": fft_size or default_fft_size(8, 11)}
    for key in ("L_A", "d_H", "L_FFT", "d_G"):
        assert type(doc["config"][key]) is int
    assert np.shape(doc["coefficients"]) == (2, 11)  # N rows of L_A taps
    scene = load_scenario(scene_path)
    assert doc["scenario_fingerprint"] == scenario_fingerprint(scene)
    config = DesignConfig(variant="MFR_DELTA_LS", filter_length=11, acausal_delay=4,
                          reg_lambda=0.1, reg_beta=2.0, fft_size=fft_size)
    assert doc["coefficients"] == design_filter(scene, forward_path_ir(-3.0, 8), config).tolist()

    # eval echoes the file's fingerprint, whatever scene it names
    write_json(out, {**doc, "scenario_fingerprint": "another scene"})
    assert run("eval", "--scenario", scene_path, "--filter", out,
               "--out", tmp_path / "report") == 0
    summary = json.loads((tmp_path / "report.json").read_text())
    assert summary["scenario_fingerprint"] == "another scene"


TAPS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def filters(draw, taps_drawn=st.floats()):
    """A filter file's document: 1-4 rows of 1-6 taps as a float64 array, and a config of its L_A."""
    n, taps = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(taps_drawn, min_size=taps, max_size=taps), min_size=n, max_size=n))
    config = draw(st.one_of(st.just({}), st.fixed_dictionaries({
        "variant": st.sampled_from(design.VARIANTS), "L_A": st.just(taps),
        "d_H": st.integers(0, 64), "lambda": TAPS, "beta": TAPS, "L_FFT": st.integers(2, 4096),
        "G0_db": TAPS, "d_G": st.integers(0, 96),
    })))
    return {"coefficients": np.array(rows), "config": config,
            "scenario_fingerprint": draw(st.text(max_size=64))}


@settings(max_examples=60)
@given(doc=filters())
@example(doc={"coefficients": np.array([[0.5, math.nan], [-math.inf, -0.0]]), "config": {},
              "scenario_fingerprint": ""})
def test_filter_file_is_what_json_dump_writes(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "filter.json"
        _write_json(doc, path)
        expected = io.StringIO()
        json.dump(doc, expected, indent=1, default=np.ndarray.tolist)
        assert path.read_text(encoding="ascii") == expected.getvalue() + "\n"


@settings(max_examples=60)
@given(doc=filters(TAPS), variant=st.sampled_from(design.VARIANTS), lam=st.floats(0.0, 1e3),
       beta=st.floats(1e-3, 1e3), gain_db=st.floats(-60.0, 60.0), path_delay=st.integers(0, 96))
def test_filter_file_round_trips_taps_and_config(doc, variant, lam, beta, gain_db, path_delay):
    taps = doc["coefficients"]
    scene = synth_scenario(SynthSpec(num_sets=1, num_loudspeakers=len(taps), source_ir_length=4,
                                     speaker_ir_length=3), seed=0)
    config = DesignConfig(variant=variant, filter_length=taps.shape[1],
                          acausal_delay=0 if variant in ("LS_ATF", "RLS") else path_delay,
                          reg_lambda=lam, reg_beta=beta)
    written = cli._filter_doc(taps, scene, config, gain_db, path_delay)
    read = cli._filter_from_dict(json.loads(_json_text(written)))
    assert read[0].tobytes() == taps.tobytes()
    # the config comes back with the grid it was written with
    assert read[1:] == (dataclasses.replace(config, fft_size=config.grid(scene).fft_size), gain_db,
                        path_delay, scenario_fingerprint(scene))


def test_design_config_errors(tmp_path, small_scene_path, capsys):
    missing = {k: v for k, v in SMALL_CONFIG.items() if k != "d_G"}
    config = write_json(tmp_path / "m.json", missing)
    assert run("design", "--scenario", small_scene_path, "--config", config,
               "--out", tmp_path / "f.json") == 2
    assert "missing field 'd_G'" in capsys.readouterr().err

    config = write_json(tmp_path / "u.json", {**SMALL_CONFIG, "ripple": 3})
    assert run("design", "--scenario", small_scene_path, "--config", config,
               "--out", tmp_path / "f.json") == 2
    assert "unknown field 'ripple'" in capsys.readouterr().err


def test_design_config_error_names_field_once(tmp_path, small_scene_path, capsys):
    config = write_json(tmp_path / "c.json", {**SMALL_CONFIG, "lambda": "big"})
    assert run("design", "--scenario", small_scene_path, "--config", config,
               "--out", tmp_path / "f.json") == 2
    assert capsys.readouterr().err == "error: config.lambda: expected a number\n"


def test_design_dead_forward_path_is_numerical_failure(tmp_path, small_scene_path, capsys):
    for variant in ({}, {"variant": "LS_ATF", "d_H": 0}):
        config = write_json(tmp_path / "config.json", {**SMALL_CONFIG, **variant, "G0_db": -1e9})
        assert run("design", "--scenario", small_scene_path, "--config", config,
                   "--out", tmp_path / "f.json") == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not (tmp_path / "f.json").exists()


def test_ls_atf_sweep_over_a_dead_forward_path_is_numerical_failure(tmp_path, small_scene_path, capsys):
    grid = write_json(tmp_path / "grid.json", {
        "variant": "LS_ATF", "N": 1, "d_H": 0, "lambda": 0.0,
        "beta": 1.0, "G0_db": [0.0, -1e9], "d_G": 0, "L_A": 9,
    })
    assert run("sweep", "--scenario", small_scene_path, "--grid", grid,
               "--out", tmp_path / "s.csv") == 3
    assert "numerical failure: full-ATF system has rank 0" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("case", ["eval-dead-forward-path", "eval-silent-open-ear",
                                  "sweep-silent-open-ear", "design-silent-open-ear"])
def test_vanishing_desired_response_is_numerical_failure(tmp_path, small_scene_path, capsys,
                                                         case):
    """A desired response that is 0 in the band exits 3 in every command that scores,
    and in design, which applies eval's rule to the scene it designs on."""
    scene = small_scene_path
    if case.endswith("silent-open-ear"):
        doc = json.loads(scene.read_text())
        for ms in doc["sets"]:
            ms["h_open"] = [0.0] * len(ms["h_open"])
        scene = write_json(tmp_path / "silent.json", doc)
    out = tmp_path / "out"
    config = write_json(tmp_path / "config.json", {**SMALL_CONFIG, "variant": "RLS", "d_H": 0})
    if case.startswith("sweep"):
        grid = write_json(tmp_path / "grid.json", {**SMALL_CONFIG, "N": 1,
                                                   "variant": ["RLS", "R_DELTA_LS"], "d_H": 0})
        argv = ["sweep", "--scenario", scene, "--grid", grid, "--out", out]
    elif case.startswith("design"):
        argv = ["design", "--scenario", scene, "--config", config, "--out", out]
    else:
        # designed on the scene as drawn, which design accepts
        filt = tmp_path / "filter.json"
        assert run("design", "--scenario", small_scene_path, "--config", config, "--out", filt) == 0
        if case == "eval-dead-forward-path":
            doc = json.loads(filt.read_text())
            doc["config"]["G0_db"] = -1e9
            write_json(filt, doc)
        argv = ["eval", "--scenario", scene, "--filter", filt, "--out", out]
    capsys.readouterr()
    assert run(*argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: desired response vanishes")
    assert list(tmp_path.glob("out*")) == []


# ---------------------------------------------------------------------------
# eval


def designed_pair(tmp_path, synth_doc, config_doc, seed=1):
    spec = write_json(tmp_path / "spec.json", synth_doc)
    scene = tmp_path / "scene.json"
    assert run("synth", "--config", spec, "--seed", seed, "--out", scene) == 0
    config = write_json(tmp_path / "config.json", config_doc)
    filt = tmp_path / "filter.json"
    assert run("design", "--scenario", scene, "--config", config, "--out", filt) == 0
    return scene, filt


def test_eval_outputs(tmp_path, small_scene_path):
    config = write_json(tmp_path / "config.json", SMALL_CONFIG)
    filt = tmp_path / "filter.json"
    assert run("design", "--scenario", small_scene_path, "--config", config,
               "--out", filt) == 0
    assert run("eval", "--scenario", small_scene_path, "--filter", filt,
               "--out", tmp_path / "report") == 0

    rows = read_csv(tmp_path / "report.csv")
    assert rows[0] == EVAL_HEADER
    assert len(rows) == 1 + 33  # one data row per bin from 0 Hz to Nyquist
    assert float(rows[1][0]) == 0.0  # DC bin leads

    summary = json.loads((tmp_path / "report.json").read_text())
    assert set(summary) == {"delta_h_aud_db", "mean_delta_h_aud_db",
                            "scenario_fingerprint"}
    assert len(summary["delta_h_aud_db"]) == 1
    assert (tmp_path / "report.json").read_text() == json.dumps(summary, indent=1) + "\n"


# Each step's argv comes as one argument; the script prints whether scipy is
# loaded after the import and after each step.
FRESH_CLI = """
import json, sys
from eqdesign import cli
loaded = ["scipy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
    loaded.append("scipy" in sys.modules)
print(json.dumps(loaded))
"""


def test_fresh_cli_loads_scipy_only_to_solve(tmp_path):
    # pytest has loaded scipy here, so the check runs in a fresh interpreter
    scene, filt = designed_pair(tmp_path, SMALL_SYNTH, SMALL_CONFIG)
    steps = [
        ["synth", "--config", str(tmp_path / "spec.json"), "--out", str(tmp_path / "s.json")],
        ["eval", "--scenario", str(scene), "--filter", str(filt), "--out", str(tmp_path / "r")],
        ["design", "--scenario", str(scene), "--config", str(tmp_path / "config.json"),
         "--out", str(tmp_path / "f.json")],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", FRESH_CLI, json.dumps(steps)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # import, synth and eval leave scipy out; design's solve loads it
    assert json.loads(proc.stdout) == [False, False, False, True]


@settings(max_examples=100)
@given(rows=st.lists(
    st.lists(st.one_of(st.floats(), st.integers(-2**63, 2**63), st.sampled_from(VARIANTS)),
             min_size=1, max_size=10),
    max_size=6,
))
@example(rows=[[-math.inf, math.nan, -0.0, 5e-324, 1e308], [0, -7, math.inf, 0.1, "RLS"]])
def test_csv_writer_writes_what_csv_module_writes(rows):
    expected = io.StringIO()
    csv.writer(expected).writerows([SWEEP_HEADER, *rows])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        cli._write_csv(path, SWEEP_HEADER, rows)
        assert path.read_bytes() == expected.getvalue().encode("ascii")


def test_eval_full_scale_row_count(tmp_path):
    scene, filt = designed_pair(
        tmp_path,
        {"num_sets": 1, "num_loudspeakers": 2, "reinsertion_level_db": None},
        {"variant": "MFR_DELTA_LS", "L_A": 99, "d_H": 32, "lambda": 0.1,
         "beta": 1.0, "G0_db": 0.0, "d_G": 96},
    )
    assert run("eval", "--scenario", scene, "--filter", filt,
               "--out", tmp_path / "report") == 0
    assert len(read_csv(tmp_path / "report.csv")) == 1 + 513


@pytest.mark.parametrize("fft_size", [64, 65])
def test_eval_csv_stops_at_nyquist(tmp_path, small_scene_path, fft_size):
    config = write_json(tmp_path / "config.json", dict(SMALL_CONFIG, L_FFT=fft_size))
    filt = tmp_path / "filter.json"
    assert run("design", "--scenario", small_scene_path, "--config", config,
               "--out", filt) == 0
    assert run("eval", "--scenario", small_scene_path, "--filter", filt,
               "--out", tmp_path / "report") == 0

    rows = read_csv(tmp_path / "report.csv")
    assert len(rows) == 1 + fft_size // 2 + 1
    freqs = [float(row[0]) for row in rows[1:]]
    nyquist = 8000.0  # the scene has synth's default 16 kHz rate
    assert freqs[0] == 0.0
    assert all(a < b for a, b in zip(freqs, freqs[1:]))
    assert freqs[-1] <= nyquist
    assert (freqs[-1] == nyquist) == (fft_size % 2 == 0)


def test_eval_zero_filter_reduces_to_leakage(tmp_path, small_scene_path):
    filt = write_json(tmp_path / "zero.json", {
        "coefficients": [[0.0] * 9],
        "config": {"variant": "R_DELTA_LS", "L_A": 9, "d_H": 0, "lambda": 1e-8,
                   "beta": 1.0, "L_FFT": 64, "G0_db": 0.0, "d_G": 0},
        "scenario_fingerprint": "",
    })
    assert run("eval", "--scenario", small_scene_path, "--filter", filt,
               "--out", tmp_path / "report") == 0
    for row in read_csv(tmp_path / "report.csv")[1:]:
        assert row[1] == row[3]  # aided magnitude is the leakage magnitude


def test_eval_speaker_count_mismatch(tmp_path, small_scene_path, capsys):
    filt = write_json(tmp_path / "wide.json", {
        "coefficients": [[0.0] * 4, [0.0] * 4],
        "config": {"variant": "R_DELTA_LS", "L_A": 4, "d_H": 0, "lambda": 1e-8,
                   "beta": 1.0, "G0_db": 0.0, "d_G": 0},
        "scenario_fingerprint": "",
    })
    assert run("eval", "--scenario", small_scene_path, "--filter", filt,
               "--out", tmp_path / "report") == 2
    assert "drives 2 loudspeakers" in capsys.readouterr().err


def test_eval_rejects_malformed_filter(tmp_path, small_scene_path, capsys):
    filt = write_json(tmp_path / "bad.json", {"coefficients": [[0.0]]})
    assert run("eval", "--scenario", small_scene_path, "--filter", filt,
               "--out", tmp_path / "report") == 2
    assert "filter: missing field" in capsys.readouterr().err


def test_eval_refuses_a_filter_that_repeats_its_shape(tmp_path, small_scene_path, capsys):
    # a filter file is its coefficients, config and fingerprint alone: a
    # loudspeaker count, tap count or d_H beside them, copies of what the rows
    # and the config hold, is an unknown field
    filt = tmp_path / "filter.json"
    assert run("design", "--scenario", small_scene_path, "--config",
               write_json(tmp_path / "config.json", SMALL_CONFIG), "--out", filt) == 0
    doc = json.loads(filt.read_text())
    write_json(filt, {"num_loudspeakers": 1, "filter_length": 9, "d_H": 4, **doc})
    capsys.readouterr()
    assert run("eval", "--scenario", small_scene_path, "--filter", filt,
               "--out", tmp_path / "report") == 2
    assert capsys.readouterr().err == "error: filter: unknown field 'num_loudspeakers'\n"
    assert not any(tmp_path.glob("report.*"))


@pytest.mark.parametrize("change, message", [
    ({"lambda": "big"}, "error: filter.config.lambda: expected a number\n"),
    ({"ripple": 3}, "error: filter.config: unknown field 'ripple'\n"),
    ({"L_A": 0}, "error: filter.config: filter_length must be a positive integer\n"),
], ids=["bad-number", "unknown-field", "bad-value"])
def test_eval_filter_config_errors_name_filter_fields(tmp_path, small_scene_path, capsys,
                                                      change, message):
    config = write_json(tmp_path / "config.json", SMALL_CONFIG)
    filt = tmp_path / "filter.json"
    assert run("design", "--scenario", small_scene_path, "--config", config,
               "--out", filt) == 0
    doc = json.loads(filt.read_text())
    doc["config"].update(change)
    write_json(filt, doc)
    assert run("eval", "--scenario", small_scene_path, "--filter", filt,
               "--out", tmp_path / "report") == 2
    assert capsys.readouterr().err == message
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("key, value, message", [
    ("config", [], "error: filter.config: expected an object\n"),
    ("scenario_fingerprint", 5, "error: filter.scenario_fingerprint: expected a string\n"),
], ids=["config-not-object", "fingerprint-not-a-string"])
def test_eval_filter_fields_checked_once(tmp_path, small_scene_path, capsys, key, value, message):
    config = write_json(tmp_path / "config.json", SMALL_CONFIG)
    filt = tmp_path / "filter.json"
    assert run("design", "--scenario", small_scene_path, "--config", config,
               "--out", filt) == 0
    doc = json.loads(filt.read_text())
    doc[key] = value
    write_json(filt, doc)
    assert run("eval", "--scenario", small_scene_path, "--filter", filt,
               "--out", tmp_path / "report") == 2
    assert capsys.readouterr().err == message
    assert not (tmp_path / "report.csv").exists()


def test_eval_refuses_a_filter_whose_tap_count_is_not_its_L_A(tmp_path, capsys):
    scene, filt = designed_pair(tmp_path, {}, {
        "variant": "MFR_DELTA_LS", "L_A": 99, "d_H": 32, "lambda": 0.1, "beta": 1.0,
        "G0_db": 0.0, "d_G": 96,
    }, seed=0)
    doc = json.loads(filt.read_text())
    doc["coefficients"] = [row[:9] for row in doc["coefficients"]]
    write_json(filt, doc)
    assert run("eval", "--scenario", scene, "--filter", filt, "--out", tmp_path / "report") == 2
    assert capsys.readouterr().err == (
        "error: filter.coefficients: expected one or more rows of 99 numbers (filter.config.L_A)\n")
    assert not any(tmp_path.glob("report.*"))


def test_eval_exact_inversion_pipeline(tmp_path):
    scene, filt = designed_pair(
        tmp_path,
        {"num_sets": 1, "num_loudspeakers": 2, "source_ir_length": 12,
         "speaker_ir_length": 8, "phase_family": "co-prime-pair",
         "leakage_attenuation_db": math.inf, "reinsertion_level_db": None,
         "correlation": 1.0},
        {"variant": "R_DELTA_LS", "L_A": 7, "d_H": 0, "lambda": 1e-12,
         "beta": 1.0, "G0_db": 0.0, "d_G": 0},
        seed=3,
    )
    assert run("eval", "--scenario", scene, "--filter", filt,
               "--out", tmp_path / "report") == 0
    summary = json.loads((tmp_path / "report.json").read_text())
    assert summary["mean_delta_h_aud_db"] < 0.01


# ---------------------------------------------------------------------------
# sweep


SWEEP_SYNTH = {
    "num_sets": 3, "num_loudspeakers": 2, "source_ir_length": 12,
    "speaker_ir_length": 8, "reinsertion_level_db": -20.0,
}


@pytest.fixture
def sweep_scene_path(tmp_path):
    spec = write_json(tmp_path / "spec.json", SWEEP_SYNTH)
    out = tmp_path / "scene.json"
    assert run("synth", "--config", spec, "--seed", 2, "--out", out) == 0
    return out


def test_sweep_resubstitution_rows(tmp_path, sweep_scene_path):
    grid = write_json(tmp_path / "grid.json", {
        "variant": "MFR_DELTA_LS", "N": 2, "d_H": 4, "lambda": [1e-4, 0.1],
        "beta": 1.0, "G0_db": 0.0, "d_G": 0, "L_A": 9,
    })
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--scenario", sweep_scene_path, "--grid", grid,
               "--out", out) == 0
    rows = read_csv(out)
    assert rows[0] == SWEEP_HEADER
    assert len(rows) == 3
    for row, lam in zip(rows[1:], (1e-4, 0.1)):
        assert row[0] == "MFR_DELTA_LS"
        assert (int(row[1]), int(row[2]), int(row[3])) == (2, 9, 4)
        assert float(row[4]) == lam
        assert int(row[8]) == -1
        assert float(row[9]) >= 0.0


def test_sweep_cartesian_order(tmp_path, sweep_scene_path):
    variants = ["R_DELTA_LS", "MFR_DELTA_LS"]
    counts = [1, 2]
    delays = [0, 4]
    lambdas = [1e-4, 0.1]
    grid = write_json(tmp_path / "grid.json", {
        "variant": variants, "N": counts, "d_H": delays, "lambda": lambdas,
        "beta": 1.0, "G0_db": 0.0, "d_G": 0, "L_A": 9,
    })
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--scenario", sweep_scene_path, "--grid", grid,
               "--out", out) == 0
    rows = read_csv(out)[1:]
    expected = list(itertools.product(variants, counts, delays, lambdas))
    assert len(rows) == len(expected)
    for row, (variant, n, d_h, lam) in zip(rows, expected):
        assert (row[0], int(row[1]), int(row[3]), float(row[4])) == (variant, n, d_h, lam)


def test_sweep_leave_one_out_folds(tmp_path, sweep_scene_path):
    grid = write_json(tmp_path / "grid.json", {
        "variant": "MFR_DELTA_LS", "N": 2, "d_H": 4, "lambda": [1e-4, 0.1],
        "beta": 1.0, "G0_db": 0.0, "d_G": 0, "L_A": 9,
    })
    out = tmp_path / "loo.csv"
    assert run("sweep", "--scenario", sweep_scene_path, "--grid", grid,
               "--out", out, "--mode", "leave-one-out") == 0
    rows = read_csv(out)[1:]
    assert len(rows) == 2 * 3
    assert [int(r[8]) for r in rows] == [0, 1, 2, 0, 1, 2]


def test_sweep_leave_one_out_needs_multiple_sets(tmp_path, small_scene_path, capsys):
    grid = write_json(tmp_path / "grid.json", {
        "variant": "R_DELTA_LS", "N": 1, "d_H": 0, "lambda": 1e-8,
        "beta": 1.0, "G0_db": 0.0, "d_G": 0, "L_A": 9,
    })
    assert run("sweep", "--scenario", small_scene_path, "--grid", grid,
               "--out", tmp_path / "loo.csv", "--mode", "leave-one-out") == 2
    assert "at least two sets" in capsys.readouterr().err


def test_sweep_grid_validation(tmp_path, sweep_scene_path, capsys):
    grid = write_json(tmp_path / "grid.json", {
        "variant": "R_DELTA_LS", "N": 1, "d_H": 0, "lambda": 1e-8,
        "beta": 1.0, "G0_db": 0.0,
    })
    assert run("sweep", "--scenario", sweep_scene_path, "--grid", grid,
               "--out", tmp_path / "s.csv") == 2
    assert "missing field 'd_G'" in capsys.readouterr().err

    grid = write_json(tmp_path / "grid.json", {
        "variant": "R_DELTA_LS", "N": 1, "d_H": 0, "lambda": [],
        "beta": 1.0, "G0_db": 0.0, "d_G": 0,
    })
    assert run("sweep", "--scenario", sweep_scene_path, "--grid", grid,
               "--out", tmp_path / "s.csv") == 2
    assert "empty value list" in capsys.readouterr().err

    # the error of a bad setting names the grid; the whole message is checked
    valid = {"variant": "RLS", "N": 1, "d_H": 0, "lambda": 1e-8, "beta": 1.0,
             "G0_db": 0.0, "d_G": 0, "L_A": 9}
    for change, message in [
        ({"d_H": [0, 4]}, "error: grid: variant RLS does not take an acausal delay\n"),
        ({"L_A": 0}, "error: grid: filter_length must be a positive integer\n"),
        ({"N": [1, 3]}, "error: grid.N: requested 3 loudspeakers, scenario has 2\n"),
    ]:
        grid = write_json(tmp_path / "grid.json", {**valid, **change})
        assert run("sweep", "--scenario", sweep_scene_path, "--grid", grid,
                   "--out", tmp_path / "s.csv") == 2
        assert capsys.readouterr().err == message
    assert not (tmp_path / "s.csv").exists()


def test_sweep_refuses_an_unknown_mode(tmp_path):
    with pytest.raises(ValueError, match="mode: expected resubstitution or leave-one-out, got 'x'"):
        cli.cmd_sweep(tmp_path / "scene.json", tmp_path / "grid.json", tmp_path / "s.csv", mode="x")


def test_negative_path_delay_names_its_field(tmp_path, small_scene_path, capsys):
    config = write_json(tmp_path / "config.json", dict(SMALL_CONFIG, d_G=-1))
    assert run("design", "--scenario", small_scene_path, "--config", config,
               "--out", tmp_path / "filter.json") == 2
    assert "error: config.d_G: must be nonnegative" in capsys.readouterr().err

    grid = write_json(tmp_path / "grid.json", {
        "variant": "R_DELTA_LS", "N": 1, "d_H": 0, "lambda": 1e-8,
        "beta": 1.0, "G0_db": 0.0, "d_G": [0, -1], "L_A": 9,
    })
    assert run("sweep", "--scenario", small_scene_path, "--grid", grid,
               "--out", tmp_path / "s.csv") == 2
    assert "error: grid.d_G[1]: must be nonnegative" in capsys.readouterr().err


# the first point is valid; the bad one comes later
@pytest.mark.parametrize("change, message", [
    ({"d_H": [0, 4]}, "does not take an acausal delay"),
    ({"N": [2, 3]}, "requested 3 loudspeakers"),
], ids=["RLS-with-d_H", "too-many-loudspeakers"])
def test_sweep_checks_every_point_before_any_design(tmp_path, sweep_scene_path, monkeypatch,
                                                    capsys, change, message):
    def no_design(*args):
        raise AssertionError("a design ran before the grid was checked")

    monkeypatch.setattr(cli, "design_points", no_design)
    grid = write_json(tmp_path / "grid.json", {
        "variant": "RLS", "N": 2, "d_H": 0, "lambda": 1e-8,
        "beta": 1.0, "G0_db": 0.0, "d_G": 0, "L_A": 9, **change,
    })
    assert run("sweep", "--scenario", sweep_scene_path, "--grid", grid,
               "--out", tmp_path / "s.csv") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


README_STUDY = {
    "variant": "MFR_DELTA_LS", "N": 2, "d_H": [0, 1, 32, 64],
    "lambda": [1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0], "beta": 1.0, "G0_db": 0.0, "d_G": 96,
}


@pytest.mark.parametrize("synth, grid, mode, grams", [
    (SWEEP_SYNTH, {"variant": ["R_DELTA_LS", "FR_DELTA_LS", "MFR_DELTA_LS"], "N": [1, 2],
                   "d_H": [0, 4, 8], "lambda": 0.1, "beta": 1.0, "G0_db": [0.0, -6.0],
                   "d_G": 2, "L_A": 9},
     "resubstitution", 2 * SWEEP_SYNTH["num_sets"]),
    ({"num_sets": 5, "num_loudspeakers": 2}, README_STUDY, "leave-one-out", 5),
], ids=["three-variants", "readme-study"])
def test_sweep_forms_one_gram_per_n_and_set(tmp_path, monkeypatch, synth, grid, mode, grams):
    formed = []

    def counted(what, values):
        if what.startswith("Gram"):
            formed.append(what)
        return finite(what, values)

    finite = design._finite
    monkeypatch.setattr(design, "_finite", counted)
    scene = tmp_path / "scene.json"
    assert run("synth", "--config", write_json(tmp_path / "spec.json", synth), "--seed", 2,
               "--out", scene) == 0
    assert run("sweep", "--scenario", scene, "--grid", write_json(tmp_path / "grid.json", grid),
               "--out", tmp_path / "sweep.csv", "--mode", mode) == 0
    # a Gram depends on N and the set alone, not on d_H or the forward path
    assert len(formed) == grams


def test_readme_study_factors_each_normal_matrix_once(tmp_path, monkeypatch):
    factored, calls = [], {"RTF autocorrelation": 0, "_speaker_matrix": 0, "_penalty_lags": 0,
                           "_toeplitz": 0, "_set_spectra": 0, "_check_grid_holds": 0, "dpotrs": 0}

    def spied_factor(*args):
        # the previous factor was released before this one is made
        assert all(ref() is None for ref in factored)
        result = factor(*args)
        factored.append(weakref.ref(result[0]))
        return result

    def counted_finite(what, values):
        calls[what] = calls.get(what, 0) + 1
        return finite(what, values)

    factor, finite = design._factor_normal_matrix, design._finite
    monkeypatch.setattr(design, "_factor_normal_matrix", spied_factor)
    monkeypatch.setattr(design, "_finite", counted_finite)
    for module, name in ((design, "_speaker_matrix"), (design, "_penalty_lags"),
                         (design, "_toeplitz"), (cli, "_set_spectra"),
                         (cli, "_check_grid_holds"), (scipy.linalg.lapack, "dpotrs")):
        def counted(*args, _name=name, _original=getattr(module, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    scene = tmp_path / "scene.json"
    assert run("synth", "--config", write_json(tmp_path / "spec.json",
                                                {"num_sets": 5, "num_loudspeakers": 2}),
               "--seed", 0, "--out", scene) == 0
    assert run("sweep", "--scenario", scene, "--grid",
               write_json(tmp_path / "grid.json", README_STUDY),
               "--out", tmp_path / "study.csv", "--mode", "leave-one-out") == 0
    # 120 points, but the normal matrix does not depend on d_H: one factor
    # per lambda and training fold serves all four delays, in one dpotrs
    assert len(factored) == 6 * 5
    assert calls["dpotrs"] == 6 * 5
    # one forward path: each set's autocorrelation and speaker matrix once,
    # and one penalty per training fold, whatever lambda and d_H are
    assert calls["RTF autocorrelation"] == calls["_speaker_matrix"] == 5
    assert calls["_penalty_lags"] == calls["_toeplitz"] == 5
    # one spectra stack of the five sets serves the folds' leakage ratios and
    # held-out scores, and the grid is checked once, before any design
    assert calls["_set_spectra"] == calls["_check_grid_holds"] == 1


def test_readme_design_and_eval_take_each_stack_and_set_average_once(tmp_path, monkeypatch):
    stacks, means = [], []

    def counted_spectra(sets, g, grid, loudspeakers):
        stacks.append((len(sets), loudspeakers))
        return set_spectra(sets, g, grid, loudspeakers)

    def counted_mean(a, *args, **kwargs):
        means.append(np.shape(a))
        return mean(a, *args, **kwargs)

    set_spectra, mean = design._set_spectra, np.mean
    for module in (design, evaluation, cli):
        monkeypatch.setattr(module, "_set_spectra", counted_spectra)
    scene, filt = designed_pair(tmp_path, {"num_sets": 5, "num_loudspeakers": 2}, {
        "variant": "MFR_DELTA_LS", "L_A": 99, "d_H": 32, "lambda": 0.1, "beta": 1.0,
        "G0_db": 0.0, "d_G": 96,
    }, seed=0)
    # one stack of the five sets' leakage and open-ear rows serves the
    # weighted design's leakage ratio and then eval's rule
    assert stacks == [(5, 0)]
    monkeypatch.setattr(np, "mean", counted_mean)
    assert run("eval", "--scenario", scene, "--filter", filt, "--out", tmp_path / "report") == 0
    # eval takes one stack with both loudspeakers' rows, and averages the
    # aided magnitudes, then rows 0 and 1 together, over the sets once; the
    # last mean is the summary's, over the five distances
    assert stacks == [(5, 0), (5, 2)]
    assert means == [(5, 513), (5, 2, 513), (5,)]


def test_commands_refuse_a_grid_shorter_than_the_aided_response(tmp_path, monkeypatch, capsys):
    scene = tmp_path / "scene.json"
    assert run("synth", "--config", write_json(tmp_path / "spec.json", {}), "--seed", 0,
               "--out", scene) == 0
    rls = {"variant": "RLS", "L_A": 99, "d_H": 0, "lambda": 1e-8, "beta": 1.0,
           "G0_db": 0.0, "d_G": 96}

    def refused(config, message):
        filt = tmp_path / "refused.json"
        assert run("design", "--scenario", scene, "--config",
                   write_json(tmp_path / "config.json", config), "--out", filt) == 2
        assert f"error: {message}\n" == capsys.readouterr().err
        assert not filt.exists()

    # 100 loudspeaker taps, 99 filter taps and 130 source taps leave the
    # default grid of 1024 bins room for d_G up to 697; RLS takes no spectrum
    # to design, MFR_DELTA_LS its leakage ratio
    refused(dict(rls, d_G=700), "L_FFT 1024 cannot hold the aided response at d_G 700 "
            "and L_A 99: it has 1027 samples, so L_FFT must be at least 1027")
    refused({**rls, "variant": "MFR_DELTA_LS", "d_H": 32, "lambda": 0.1, "d_G": 1000},
            "L_FFT 1024 cannot hold the aided response at d_G 1000 "
            "and L_A 99: it has 1327 samples, so L_FFT must be at least 1327")
    refused(dict(rls, L_FFT=128), "L_FFT 128 cannot hold the aided response at d_G 96 "
            "and L_A 99: it has 423 samples, so L_FFT must be at least 423")
    # the length the message asks for is enough
    filt = tmp_path / "filter.json"
    assert run("design", "--scenario", scene, "--config",
               write_json(tmp_path / "config.json", dict(rls, d_G=700, L_FFT=1027)),
               "--out", filt) == 0
    assert run("eval", "--scenario", scene, "--filter", filt, "--out", tmp_path / "ok") == 0

    # a filter file whose forward path outgrows its grid
    doc = json.loads(filt.read_text())
    doc["config"].update(d_G=1000)
    stale = write_json(tmp_path / "stale.json", doc)
    assert run("eval", "--scenario", scene, "--filter", stale, "--out", tmp_path / "r") == 2
    assert ("L_FFT 1027 cannot hold the aided response at d_G 1000 and L_A 99: "
            "it has 1327 samples, so L_FFT must be at least 1327") in capsys.readouterr().err
    assert not any(tmp_path.glob("r.*"))

    def no_design(*args):
        raise AssertionError("a design ran before the grid was checked")

    monkeypatch.setattr(cli, "design_points", no_design)
    grid = write_json(tmp_path / "grid.json", dict(rls, N=2, d_G=[96, 700]))
    assert run("sweep", "--scenario", scene, "--grid", grid, "--out", tmp_path / "s.csv") == 2
    assert "L_FFT 1024 cannot hold the aided response at d_G 700" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_sweep_reuses_work_across_the_whole_grid(tmp_path, sweep_scene_path, monkeypatch):
    calls = {"_rtf_target": 0, "assemble_atf_system": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(design, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(design, name, counted)
    # beta, G0_db and d_G vary innermost, so no two consecutive points share
    # (N, d_H, G0_db, d_G)
    grid = write_json(tmp_path / "grid.json", {
        "variant": ["LS_ATF", "RLS", "FR_DELTA_LS", "MFR_DELTA_LS"], "N": [1, 2], "d_H": 0,
        "lambda": [1e-3, 0.1], "beta": [0.5, 2.0], "G0_db": [0.0, -6.0], "d_G": [0, 2],
        "L_A": 9,
    })
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--scenario", sweep_scene_path, "--grid", grid, "--out", out) == 0
    assert len(read_csv(out)) == 1 + 4 * 2 * 2 * 2 * 2 * 2
    # one RTF target per forward path and set, shared across N; one LS_ATF
    # system per N and forward path
    paths = 2 * 2  # G0_db x d_G
    assert calls == {"_rtf_target": paths * SWEEP_SYNTH["num_sets"],
                     "assemble_atf_system": 2 * paths}


def test_sweep_shares_work_across_forward_paths(tmp_path, sweep_scene_path, monkeypatch):
    grams, rhs, factors = [], [], []

    def spied_factor(gram, reg_lambda, penalty):
        factors.append(reg_lambda)
        return factor(gram, reg_lambda, penalty)

    def counted(what, values):
        if what.startswith("right-hand side"):
            rhs.append(what)
        elif what.startswith("Gram"):
            grams.append(what)
        return finite(what, values)

    factor, finite = design._factor_normal_matrix, design._finite
    monkeypatch.setattr(design, "_factor_normal_matrix", spied_factor)
    monkeypatch.setattr(design, "_finite", counted)
    stacks, batches = [], []

    def counted_spectra(sets, g, grid, loudspeakers):
        stacks.append((len(sets), loudspeakers))
        return set_spectra(sets, g, grid, loudspeakers)

    def counted_scores(spectra, taps, grid):
        batches.append((len(taps), taps.shape[1], len(spectra)))
        return score(spectra, taps, grid)

    set_spectra, score = cli._set_spectra, cli.score_designs
    monkeypatch.setattr(cli, "_set_spectra", counted_spectra)
    monkeypatch.setattr(design, "_set_spectra", None)  # the sweep's stacks serve every design
    monkeypatch.setattr(cli, "score_designs", counted_scores)
    # G0_db, d_G and beta vary within each N
    lambdas, betas, gains, delays = [1e-3, 0.1], [0.5, 2.0], [0.0, -6.0], [0, 2]
    grid = write_json(tmp_path / "grid.json", {
        "variant": ["LS_ATF", "RLS", "R_DELTA_LS", "FR_DELTA_LS", "MFR_DELTA_LS"],
        "N": [1, 2], "d_H": 0, "lambda": lambdas, "beta": betas, "G0_db": gains,
        "d_G": delays, "L_A": 9,
    })
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--scenario", sweep_scene_path, "--grid", grid, "--out", out) == 0
    assert len(read_csv(out)) == 1 + 5 * 2 * 2 * 2 * 2 * 2
    sets = SWEEP_SYNTH["num_sets"]
    spk_counts = 2  # N
    paths = spk_counts * len(gains) * len(delays)  # (N, forward path) pairs
    # one Gram per (N, set), one right-hand side per set, forward path and N
    assert len(grams) == spk_counts * sets
    assert len(rhs) == paths * sets
    # RLS and R_DELTA_LS share one ridge factor per N and lambda, whatever beta
    # and the forward path are; per path, FR_DELTA_LS and MFR_DELTA_LS factor
    # once per (lambda, beta)
    assert len(factors) == spk_counts * len(lambdas) + paths * 2 * len(lambdas) * len(betas)
    # one spectra stack per forward path, with both loudspeakers' rows, which
    # the weighted designs and the scoring of both N read
    assert stacks == [(sets, 2)] * (len(gains) * len(delays))
    # per N and path, LS_ATF and each distinct solution are scored once on
    # every set, in one batch
    per_path = 1 + len(lambdas) + 2 * len(lambdas) * len(betas)
    assert batches == [(per_path, n, sets) for n in (1, 2) for _ in range(len(gains) * len(delays))]


def test_sweep_smooths_each_leakage_ratio_once_per_forward_path_across_every_n(
        tmp_path, sweep_scene_path, monkeypatch):
    calls = []

    def counted(values, grid, *args):
        calls.append(values.size)
        return smooth(values, grid, *args)

    smooth = design.fractional_octave_smooth
    monkeypatch.setattr(design, "fractional_octave_smooth", counted)
    # the variant grid of the benchmark, at fewer taps and shorter delays
    gains, delays = [0.0, -10.0], [0, 2]
    grid = write_json(tmp_path / "grid.json", {
        "variant": ["LS_ATF", "RLS", "R_DELTA_LS", "FR_DELTA_LS", "MFR_DELTA_LS"],
        "N": [1, 2], "d_H": 0, "lambda": 0.1, "beta": [0.5, 2.0], "G0_db": gains,
        "d_G": delays, "L_A": 9,
    })
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--scenario", sweep_scene_path, "--grid", grid, "--out", out) == 0
    assert len(read_csv(out)) == 1 + 80
    # per forward path, FR_DELTA_LS and MFR_DELTA_LS each smooth the ratio of
    # their training sets once, whatever N and beta are
    assert len(calls) == len(gains) * len(delays) * 2 == 8


def test_variant_grid_solves_without_linalg_warnings(tmp_path):
    spec = write_json(tmp_path / "spec.json", {"num_sets": 3, "num_loudspeakers": 2,
                                               "source_ir_length": 256,
                                               "speaker_ir_length": 200})
    scene = tmp_path / "scene.json"
    assert run("synth", "--config", spec, "--seed", 7, "--out", scene) == 0
    grid = write_json(tmp_path / "grid.json", {
        "variant": ["LS_ATF", "RLS", "R_DELTA_LS", "FR_DELTA_LS", "MFR_DELTA_LS"],
        "N": [1, 2], "d_H": 0, "lambda": 0.1, "beta": [0.5, 2.0], "G0_db": [0.0, -10.0],
        "d_G": [48, 96], "L_A": 200,
    })
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", LinAlgWarning)
        assert run("sweep", "--scenario", scene, "--grid", grid, "--out", out) == 0
    assert len(read_csv(out)) == 1 + 80


def test_sweep_survives_rounding_level_cholesky_failure(tmp_path):
    # On this long scene the single-set FR_DELTA_LS points at N 2, beta 0.5
    # and G0_db 0 (rows 56 and 57) have normal equations singular at rounding
    # level, and Cholesky fails on them; the LDLᵀ retry solves them.
    spec = write_json(tmp_path / "spec.json", {"num_sets": 3, "num_loudspeakers": 2,
                                               "source_ir_length": 256,
                                               "speaker_ir_length": 200})
    scene = tmp_path / "scene.json"
    assert run("synth", "--config", spec, "--seed", 200000023, "--out", scene) == 0
    grid = write_json(tmp_path / "grid.json", {
        "variant": ["LS_ATF", "RLS", "R_DELTA_LS", "FR_DELTA_LS", "MFR_DELTA_LS"],
        "N": [1, 2], "d_H": 0, "lambda": 0.1, "beta": [0.5, 2.0], "G0_db": [0.0, -10.0],
        "d_G": [48, 96], "L_A": 200,
    })
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--scenario", scene, "--grid", grid, "--out", out) == 0
    rows = read_csv(out)[1:]
    assert len(rows) == 80
    assert all(math.isfinite(float(r[9])) for r in rows)


def test_ldlt_retry_serves_every_delay(tmp_path, monkeypatch):
    # rows 56 and 57 of the test above, each at two delays: each forward
    # path's normal matrix fails Cholesky once, and the rebuilt matrix serves
    # both d_H values, one column at a time
    factored = []

    def spied_factor(*args):
        result = factor(*args)
        factored.append(result[1])  # True for a Cholesky factor
        return result

    factor = design._factor_normal_matrix
    monkeypatch.setattr(design, "_factor_normal_matrix", spied_factor)
    spec = SynthSpec(num_sets=3, num_loudspeakers=2, source_ir_length=256,
                     speaker_ir_length=200)
    grid = {"variant": ["FR_DELTA_LS"], "N": [2], "d_H": [0, 4], "lambda": [0.1],
            "beta": [0.5], "G0_db": [0.0], "d_G": [48, 96], "L_A": 200}
    scene = synth_scenario(spec, 200000023)
    save_scenario(scene, tmp_path / "scene.json")
    with pytest.warns(LinAlgWarning):
        assert run("sweep", "--scenario", tmp_path / "scene.json", "--grid",
                   write_json(tmp_path / "grid.json", grid), "--out", tmp_path / "s.csv") == 0
    assert factored == [False, False]
    with pytest.warns(LinAlgWarning):
        expected = reference_sweep_csv(scene, grid, "resubstitution")
    assert (tmp_path / "s.csv").read_bytes() == expected

    # held out in turn, set 1 trains the first fold and set 0 the other two:
    # all six matrices fail Cholesky, and each still serves both delays
    factored.clear()
    with pytest.warns(LinAlgWarning):
        assert run("sweep", "--scenario", tmp_path / "scene.json", "--grid", tmp_path / "grid.json",
                   "--out", tmp_path / "loo.csv", "--mode", "leave-one-out") == 0
    assert factored == [False] * 6
    with pytest.warns(LinAlgWarning):
        expected = reference_sweep_csv(scene, grid, "leave-one-out")
    assert (tmp_path / "loo.csv").read_bytes() == expected


def test_sweep_operating_point_study_under_a_minute(tmp_path):
    spec = write_json(tmp_path / "spec.json", {"num_sets": 5, "num_loudspeakers": 2})
    scene = tmp_path / "scene.json"
    assert run("synth", "--config", spec, "--seed", 0, "--out", scene) == 0
    grid = write_json(tmp_path / "grid.json", README_STUDY)
    out = tmp_path / "study.csv"
    start = time.perf_counter()
    assert run("sweep", "--scenario", scene, "--grid", grid, "--out", out,
               "--mode", "leave-one-out") == 0
    assert time.perf_counter() - start < 60.0
    rows = read_csv(out)[1:]
    assert len(rows) == 4 * 6 * 5
    # a grid without L_A designs at the default 99 taps
    assert all(r[2] == "99" for r in rows)
    # the delayed, regularized operating points must not be degenerate
    scores = [float(r[9]) for r in rows]
    assert all(math.isfinite(s) for s in scores)


def reference_sweep_csv(scene, grid, mode):
    """The sweep CSV row by row from the public design and evaluation calls."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(SWEEP_HEADER)
    keys = ("variant", "N", "d_H", "lambda", "beta", "G0_db", "d_G")
    for variant, n, d_h, lam, beta, gain_db, d_g in itertools.product(*(grid[k] for k in keys)):
        sub = select_loudspeakers(scene, n)
        config = DesignConfig(variant=variant, filter_length=grid["L_A"], acausal_delay=d_h,
                              reg_lambda=lam, reg_beta=beta)
        g = forward_path_ir(gain_db, d_g)
        if mode == "resubstitution":
            folds = [(-1, sub, sub)]
        else:
            folds = [
                (k, Scenario(sub.sets[:k] + sub.sets[k + 1:], sub.sample_rate_hz),
                 Scenario((sub.sets[k],), sub.sample_rate_hz))
                for k in range(sub.num_sets)
            ]
        for fold, train, held_out in folds:
            filt = design_filter(train, g, config)
            score = evaluate(held_out, g, filt, config).mean_delta_h_aud_db
            writer.writerow([variant, n, grid["L_A"], d_h, repr(lam), repr(beta),
                             repr(gain_db), d_g, fold, repr(float(score))])
    return out.getvalue().encode("ascii")


def few(values):
    return st.lists(st.sampled_from(values), min_size=1, max_size=2, unique=True)


@st.composite
def sweep_cases(draw):
    spec = SynthSpec(num_sets=draw(st.integers(2, 4)), num_loudspeakers=2,
                     source_ir_length=12, speaker_ir_length=8, reinsertion_level_db=-20.0)
    variants = draw(st.lists(st.sampled_from(
        ["LS_ATF", "RLS", "R_DELTA_LS", "FR_DELTA_LS", "MFR_DELTA_LS"]),
        min_size=1, max_size=3, unique=True))
    delay_free = {"LS_ATF", "RLS"} & set(variants)
    grid = {
        "variant": variants,
        "N": draw(few([1, 2])),
        "d_H": [0] if delay_free else draw(few([0, 1, 5])),
        "lambda": draw(few([1e-3, 0.05, 2.0])),
        "beta": draw(few([0.5, 1.0, 3.0])),
        "G0_db": draw(few([0.0, -6.0, 10.0])),
        "d_G": draw(few([0, 2, 5])),
        "L_A": draw(st.integers(2, 16)),
    }
    mode = draw(st.sampled_from(["resubstitution", "leave-one-out"]))
    return spec, draw(st.integers(0, 50)), grid, mode


@settings(max_examples=40)
@given(sweep_cases())
# two N and two d_H, whose designs share Grams, RTF targets, ratios and penalties
@example((
    SynthSpec(num_sets=3, num_loudspeakers=2, source_ir_length=12, speaker_ir_length=8,
              reinsertion_level_db=-20.0),
    0,
    {"variant": ["FR_DELTA_LS", "MFR_DELTA_LS"], "N": [1, 2], "d_H": [0, 1],
     "lambda": [0.05], "beta": [0.5, 3.0], "G0_db": [0.0, -6.0], "d_G": [2], "L_A": 6},
    "leave-one-out",
))
# 0.0 and -0.0 share a forward path, and the ridge variants share factors across paths
@example((
    SynthSpec(num_sets=3, num_loudspeakers=2, source_ir_length=12, speaker_ir_length=8,
              reinsertion_level_db=-20.0),
    0,
    {"variant": ["LS_ATF", "RLS", "R_DELTA_LS"], "N": [1, 2], "d_H": [0], "lambda": [0.05],
     "beta": [1.0], "G0_db": [0.0, -0.0], "d_G": [2, 5], "L_A": 6},
    "leave-one-out",
))
def test_sweep_rows_match_per_row_designs(case):
    spec, seed, grid, mode = case
    scene = synth_scenario(spec, seed)
    try:
        expected = reference_sweep_csv(scene, grid, mode)
    except NumericsError:
        expected = None  # some point is singular; the sweep must fail on it too
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_scenario(scene, tmp / "scene.json")
        write_json(tmp / "grid.json", grid)
        code = run("sweep", "--scenario", tmp / "scene.json", "--grid", tmp / "grid.json",
                   "--out", tmp / "sweep.csv", "--mode", mode)
        if expected is None:
            assert code == 3
        else:
            assert code == 0
            assert (tmp / "sweep.csv").read_bytes() == expected


# ---------------------------------------------------------------------------
# inputs too large to allocate


TOO_LARGE = 10**17  # past any 57-bit address space, so numpy refuses at once

README_DESIGN = {"variant": "MFR_DELTA_LS", "L_A": 99, "d_H": 32, "lambda": 0.1, "beta": 1.0,
                 "G0_db": 0.0, "d_G": 96}


# each command refuses by the byte budget before it allocates anything, in
# a bounded line that names every field that sets the size
SYNTH_SIZE_FIELDS = ("num_sets", "source_ir_length", "num_loudspeakers", "speaker_ir_length")


@pytest.mark.parametrize("command, doc, fields", [
    ("design", {**README_DESIGN, "d_G": TOO_LARGE}, ("config.d_G",)),
    ("design", {**README_DESIGN, "L_A": TOO_LARGE}, ("config.L_A",)),
    ("design", {**README_DESIGN, "variant": "R_DELTA_LS", "d_H": TOO_LARGE}, ("config.d_H",)),
    # small enough to allocate, but an RTF fit of 10^8 taps would run for days
    ("design", {**README_DESIGN, "variant": "R_DELTA_LS", "d_H": 10**8}, ("config.d_H",)),
    ("design", {**README_DESIGN, "L_FFT": TOO_LARGE}, ("config.L_FFT",)),
    ("sweep", {**README_STUDY, "d_G": [96, TOO_LARGE]}, ("grid.d_G[1]",)),
    ("sweep", {**README_STUDY, "d_H": [0, 10**8]}, ("grid.d_H[1]",)),
    ("synth", {"source_ir_length": TOO_LARGE}, SYNTH_SIZE_FIELDS),
    # a size of 300 digits
    ("synth", {"source_ir_length": 1e308, "leakage_attenuation_db": math.inf}, SYNTH_SIZE_FIELDS),
], ids=["design-d_G", "design-L_A", "design-d_H", "design-d_H-fit", "design-L_FFT", "sweep-d_G",
        "sweep-d_H-fit", "synth-length", "synth-overflow"])
def test_input_too_large_to_allocate_exits_2(tmp_path, capsys, command, doc, fields):
    config = write_json(tmp_path / "config.json", doc)
    out = tmp_path / "out"
    if command == "synth":
        argv = ["synth", "--config", config, "--out", out]
    else:
        scene = tmp_path / "scene.json"
        assert run("synth", "--config", write_json(tmp_path / "spec.json", {}),
                   "--out", scene) == 0
        flag = "--config" if command == "design" else "--grid"
        argv = [command, "--scenario", scene, flag, config, "--out", out]
    assert run(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: input too large: ")
    assert len(err[0]) <= 200
    assert all(field in err[0] for field in fields)
    assert not out.exists()


@pytest.mark.parametrize("field", ["num_sets", "num_loudspeakers"])
def test_synth_refuses_a_scene_over_the_byte_budget_at_once(tmp_path, field):
    # a fresh interpreter, so that a synth that loops over the count is cut off
    config = write_json(tmp_path / "config.json", {field: TOO_LARGE})
    out = tmp_path / "scene.json"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "eqdesign.cli", "synth", "--config", config,
                           "--out", str(out)], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: input too large: ")
    assert "num_sets" in err[0] and "num_loudspeakers" in err[0]
    assert not out.exists()
