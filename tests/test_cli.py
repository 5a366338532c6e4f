"""End-to-end runs of the command line: synth, design, eval, sweep."""

import csv
import io
import itertools
import json
import math
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgWarning

from eqdesign import (
    DesignConfig,
    NumericsError,
    Scenario,
    SynthSpec,
    design_filter,
    evaluate,
    forward_path_ir,
    save_scenario,
    select_loudspeakers,
    synth_scenario,
)
from eqdesign import cli, design
from eqdesign.cli import EVAL_HEADER, SWEEP_HEADER, main


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


# ---------------------------------------------------------------------------
# design


def test_design_produces_filter_file(tmp_path, small_scene_path):
    config = write_json(tmp_path / "config.json", SMALL_CONFIG)
    out = tmp_path / "filter.json"
    assert run("design", "--scenario", small_scene_path, "--config", config,
               "--out", out) == 0
    doc = json.loads(out.read_text())
    assert doc["num_loudspeakers"] == 1
    assert doc["filter_length"] == 9
    assert doc["d_H"] == 4
    assert len(doc["coefficients"]) == 1 and len(doc["coefficients"][0]) == 9
    assert doc["config"]["G0_db"] == 0.0 and doc["config"]["d_G"] == 0
    assert len(doc["scenario_fingerprint"]) == 64


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
    config = write_json(tmp_path / "config.json", {**SMALL_CONFIG, "G0_db": -1e9})
    assert run("design", "--scenario", small_scene_path, "--config", config,
               "--out", tmp_path / "f.json") == 3
    assert "numerical failure" in capsys.readouterr().err


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
        "num_loudspeakers": 1, "filter_length": 9, "d_H": 0,
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
        "num_loudspeakers": 2, "filter_length": 4, "d_H": 0,
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
    ("d_H", -1, "error: filter.d_H: -1 does not match filter.config.d_H 4\n"),
    ("d_H", 5, "error: filter.d_H: 5 does not match filter.config.d_H 4\n"),
    ("config", [], "error: filter.config: expected an object\n"),
], ids=["negative-d_H", "other-d_H", "config-not-object"])
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


# the first point is valid; the bad one opens a later bucket
@pytest.mark.parametrize("change, message", [
    ({"d_H": [0, 4]}, "does not take an acausal delay"),
    ({"N": [2, 3]}, "requested 3 loudspeakers"),
], ids=["RLS-with-d_H", "too-many-loudspeakers"])
def test_sweep_checks_every_point_before_any_design(tmp_path, sweep_scene_path, monkeypatch,
                                                    capsys, change, message):
    def no_design(*args):
        raise AssertionError("a design ran before the grid was checked")

    monkeypatch.setattr(cli, "design_coefficients", no_design)
    grid = write_json(tmp_path / "grid.json", {
        "variant": "RLS", "N": 2, "d_H": 0, "lambda": 1e-8,
        "beta": 1.0, "G0_db": 0.0, "d_G": 0, "L_A": 9, **change,
    })
    assert run("sweep", "--scenario", sweep_scene_path, "--grid", grid,
               "--out", tmp_path / "s.csv") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_sweep_reuses_work_across_the_whole_grid(tmp_path, sweep_scene_path, monkeypatch):
    calls = {"reduce_to_rtf": 0, "assemble_atf_system": 0}
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
    buckets = 2 * 2 * 2  # N x G0_db x d_G
    assert calls == {"reduce_to_rtf": buckets * SWEEP_SYNTH["num_sets"],
                     "assemble_atf_system": buckets}


def test_sweep_shares_work_across_forward_paths(tmp_path, sweep_scene_path, monkeypatch):
    grams, rhs, solves = [], [], []

    def spied_solve(pairs, reg_lambda, penalty=None):
        solves.append(reg_lambda)
        for gram, part in pairs:
            if not any(gram is seen for seen in grams):
                grams.append(gram)
            if not any(part is seen for seen in rhs):
                rhs.append(part)
        return solve(pairs, reg_lambda, penalty)

    solve = design.solve_normal_equations
    monkeypatch.setattr(design, "solve_normal_equations", spied_solve)
    counts = {"scorers": 0, "scored": 0}

    class CountedScorer(cli.SetScorer):
        def __init__(self, *args):
            counts["scorers"] += 1
            super().__init__(*args)

        def __call__(self, coefficients):
            counts["scored"] += 1
            return super().__call__(coefficients)

    monkeypatch.setattr(cli, "SetScorer", CountedScorer)
    # G0_db, d_G and beta vary within each (N, d_H) bucket
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
    buckets = 2  # N x d_H
    paths = buckets * len(gains) * len(delays)
    # one Gram per (N, d_H, set), one right-hand side per set and forward path
    assert len(grams) == buckets * sets
    assert len(rhs) == paths * sets
    # per path: RLS and R_DELTA_LS share one ridge solve per lambda, whatever
    # beta is; FR_DELTA_LS and MFR_DELTA_LS solve once per (lambda, beta)
    assert len(solves) == paths * (len(lambdas) + 2 * len(lambdas) * len(betas))
    # per path, LS_ATF and each distinct solution are scored once on every set
    designs = paths * (1 + len(lambdas) + 2 * len(lambdas) * len(betas))
    assert counts == {"scorers": paths * sets, "scored": designs * sets}


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


def test_sweep_operating_point_study_under_a_minute(tmp_path):
    spec = write_json(tmp_path / "spec.json", {"num_sets": 5, "num_loudspeakers": 2})
    scene = tmp_path / "scene.json"
    assert run("synth", "--config", spec, "--seed", 0, "--out", scene) == 0
    grid = write_json(tmp_path / "grid.json", {
        "variant": "MFR_DELTA_LS", "N": 2, "d_H": [0, 1, 32, 64],
        "lambda": [1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0],
        "beta": 1.0, "G0_db": 0.0, "d_G": 96,
    })
    out = tmp_path / "study.csv"
    start = time.perf_counter()
    assert run("sweep", "--scenario", scene, "--grid", grid, "--out", out,
               "--mode", "leave-one-out") == 0
    assert time.perf_counter() - start < 60.0
    rows = read_csv(out)[1:]
    assert len(rows) == 4 * 6 * 5
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
        g = forward_path_ir(gain_db, d_g, sub.sample_rate_hz)
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
