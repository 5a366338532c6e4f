"""Command-line front end: synth, design, eval, sweep.

Exit codes: 0 on success, 2 for config or schema problems, 3 when the
numerics give up (rank-deficient or singular design systems). Diagnostics
go to stderr; all output files are deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from dataclasses import dataclass

import numpy as np

from .scenario import (
    Scenario,
    SynthSpec,
    ValidationError,
    _number,
    forward_path_ir,
    load_scenario,
    save_scenario,
    select_loudspeakers,
    synth_scenario,
)
from .design import (
    VARIANTS,
    WEIGHTED_VARIANTS,
    DesignConfig,
    EqualizerFilter,
    NumericsError,
    assemble_atf_system,
    design_filter,
    leakage_penalty,
    normal_equations,
    reduce_to_rtf,
    solve_ls_atf,
    solve_normal_equations,
)
from .evaluation import evaluate, set_distances

__all__ = ["SweepGrid", "cmd_synth", "cmd_design", "cmd_eval", "cmd_sweep", "main"]

SWEEP_HEADER = ["variant", "N", "L_A", "d_H", "lambda", "beta", "G0_db", "d_G", "fold", "delta_h_aud_db"]
EVAL_HEADER = ["freq_hz", "mag_db_aid", "mag_db_des", "mag_db_occ", "V", "W"]

_CONFIG_FIELDS = ("variant", "L_A", "d_H", "lambda", "beta", "G0_db", "d_G")
_GRID_FIELDS = ("variant", "N", "d_H", "lambda", "beta", "G0_db", "d_G")


# ---------------------------------------------------------------------------
# strict JSON readers


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


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}: expected an integer")
    return value


def _as_variant(value, path: str) -> str:
    if value not in VARIANTS:
        raise ValidationError(f"{path}: expected one of {VARIANTS}, got {value!r}")
    return value


def _synth_spec_from_dict(data: dict) -> SynthSpec:
    known = {
        "num_sets",
        "num_loudspeakers",
        "source_ir_length",
        "speaker_ir_length",
        "sample_rate_hz",
        "phase_family",
        "leakage_attenuation_db",
        "reinsertion_level_db",
        "correlation",
        "spectral_range_db",
    }
    for key in data:
        if key not in known:
            raise ValidationError(f"synth config: unknown field '{key}'")
    try:
        return SynthSpec(**data)
    except TypeError as exc:
        raise ValidationError(f"synth config: {exc}") from exc


def _design_inputs_from_dict(data: dict) -> tuple[DesignConfig, float, int]:
    for key in _CONFIG_FIELDS:
        if key not in data:
            raise ValidationError(f"config: missing field '{key}'")
    for key in data:
        if key not in _CONFIG_FIELDS and key != "L_FFT":
            raise ValidationError(f"config: unknown field '{key}'")
    fft_size = None
    if "L_FFT" in data:
        fft_size = _as_int(data["L_FFT"], "config.L_FFT")
    try:
        config = DesignConfig(
            variant=_as_variant(data["variant"], "config.variant"),
            filter_length=_as_int(data["L_A"], "config.L_A"),
            acausal_delay=_as_int(data["d_H"], "config.d_H"),
            reg_lambda=_number(data["lambda"], "config.lambda"),
            reg_beta=_number(data["beta"], "config.beta"),
            fft_size=fft_size,
        )
    except ValueError as exc:
        raise ValidationError(f"config: {exc}") from exc
    gain_db = _number(data["G0_db"], "config.G0_db")
    path_delay = _as_int(data["d_G"], "config.d_G")
    if path_delay < 0:
        raise ValidationError("config.d_G: must be nonnegative")
    return config, gain_db, path_delay


def _value_list(data: dict, key: str, coerce, path: str) -> tuple:
    raw = data[key]
    if not isinstance(raw, list):
        raw = [raw]
    if len(raw) == 0:
        raise ValidationError(f"{path}: empty value list")
    return tuple(coerce(item, f"{path}[{i}]") for i, item in enumerate(raw))


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian grid of design settings for cmd_sweep.

    Every field except filter_length and fft_size is a tuple of values; rows
    come out in the product order variant, N, d_H, lambda, beta, G0_db, d_G
    (fold varies fastest in leave-one-out mode).
    """

    variants: tuple[str, ...]
    speaker_counts: tuple[int, ...]
    acausal_delays: tuple[int, ...]
    lambdas: tuple[float, ...]
    betas: tuple[float, ...]
    gains_db: tuple[float, ...]
    path_delays: tuple[int, ...]
    filter_length: int = 99
    fft_size: int | None = None

    @staticmethod
    def from_dict(data: dict) -> "SweepGrid":
        for key in _GRID_FIELDS:
            if key not in data:
                raise ValidationError(f"grid: missing field '{key}'")
        for key in data:
            if key not in _GRID_FIELDS and key not in ("L_A", "L_FFT"):
                raise ValidationError(f"grid: unknown field '{key}'")
        filter_length = 99
        if "L_A" in data:
            filter_length = _as_int(data["L_A"], "grid.L_A")
        fft_size = None
        if "L_FFT" in data:
            fft_size = _as_int(data["L_FFT"], "grid.L_FFT")
        return SweepGrid(
            variants=_value_list(data, "variant", _as_variant, "grid.variant"),
            speaker_counts=_value_list(data, "N", _as_int, "grid.N"),
            acausal_delays=_value_list(data, "d_H", _as_int, "grid.d_H"),
            lambdas=_value_list(data, "lambda", _number, "grid.lambda"),
            betas=_value_list(data, "beta", _number, "grid.beta"),
            gains_db=_value_list(data, "G0_db", _number, "grid.G0_db"),
            path_delays=_value_list(data, "d_G", _as_int, "grid.d_G"),
            filter_length=filter_length,
            fft_size=fft_size,
        )

    def points(self):
        return itertools.product(
            self.variants,
            self.speaker_counts,
            self.acausal_delays,
            self.lambdas,
            self.betas,
            self.gains_db,
            self.path_delays,
        )


# ---------------------------------------------------------------------------
# filter file round-trip


def _write_filter(filt: EqualizerFilter, path) -> None:
    with open(path, "w", encoding="ascii") as f:
        json.dump(filt.to_dict(), f, indent=1)
        f.write("\n")


def _filter_from_dict(data: dict) -> EqualizerFilter:
    required = (
        "num_loudspeakers",
        "filter_length",
        "d_H",
        "coefficients",
        "config",
        "scenario_fingerprint",
    )
    for key in required:
        if key not in data:
            raise ValidationError(f"filter: missing field '{key}'")
    for key in data:
        if key not in required:
            raise ValidationError(f"filter: unknown field '{key}'")
    n = _as_int(data["num_loudspeakers"], "filter.num_loudspeakers")
    taps = _as_int(data["filter_length"], "filter.filter_length")
    shift = _as_int(data["d_H"], "filter.d_H")
    coef = data["coefficients"]
    if (
        not isinstance(coef, list)
        or len(coef) != n
        or any(not isinstance(row, list) or len(row) != taps for row in coef)
    ):
        raise ValidationError(
            f"filter.coefficients: expected {n} rows of {taps} numbers"
        )
    if not isinstance(data["config"], dict):
        raise ValidationError("filter.config: expected an object")
    if not isinstance(data["scenario_fingerprint"], str):
        raise ValidationError("filter.scenario_fingerprint: expected a string")
    try:
        return EqualizerFilter(
            np.asarray(coef, dtype=float),
            shift,
            dict(data["config"]),
            data["scenario_fingerprint"],
        )
    except ValueError as exc:
        raise ValidationError(f"filter: {exc}") from exc


def _load_filter(path) -> EqualizerFilter:
    return _filter_from_dict(_load_json(path, "filter"))


def _design_inputs_from_filter(filt: EqualizerFilter) -> tuple[DesignConfig, float, int]:
    echo = dict(filt.config)
    for key in ("G0_db", "d_G"):
        if key not in echo:
            raise ValidationError(f"filter.config: missing field '{key}'")
    extra = {k: echo[k] for k in ("L_FFT",) if k in echo}
    data = {k: echo[k] for k in _CONFIG_FIELDS if k in echo}
    data.update(extra)
    for key in _CONFIG_FIELDS:
        if key not in data:
            raise ValidationError(f"filter.config: missing field '{key}'")
    return _design_inputs_from_dict(data)


# ---------------------------------------------------------------------------
# commands


def cmd_synth(config_path, seed: int, out_path) -> None:
    spec = _synth_spec_from_dict(_load_json(config_path, "synth config"))
    save_scenario(synth_scenario(spec, seed), out_path)


def cmd_design(scenario_path, config_path, out_path) -> None:
    scenario = load_scenario(scenario_path)
    config, gain_db, path_delay = _design_inputs_from_dict(_load_json(config_path, "config"))
    g = forward_path_ir(gain_db, path_delay, scenario.sample_rate_hz)
    filt = design_filter(scenario, g, config)
    echo = dict(filt.config)
    echo["G0_db"] = gain_db
    echo["d_G"] = path_delay
    filt = EqualizerFilter(filt.coefficients, filt.acausal_delay, echo, filt.scenario_fingerprint)
    _write_filter(filt, out_path)


def cmd_eval(scenario_path, filter_path, out_prefix) -> None:
    scenario = load_scenario(scenario_path)
    filt = _load_filter(filter_path)
    if filt.num_loudspeakers != scenario.num_loudspeakers:
        raise ValidationError(
            f"filter drives {filt.num_loudspeakers} loudspeakers, "
            f"scenario has {scenario.num_loudspeakers}"
        )
    config, gain_db, path_delay = _design_inputs_from_filter(filt)
    g = forward_path_ir(gain_db, path_delay, scenario.sample_rate_hz)
    report = evaluate(scenario, g, filt, config)

    with open(f"{out_prefix}.csv", "w", encoding="ascii", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(EVAL_HEADER)
        for row in zip(
            report.frequencies_hz,
            report.mag_db_aid,
            report.mag_db_des,
            report.mag_db_occ,
            report.leakage_ratio,
            report.weight_trace,
        ):
            writer.writerow([repr(float(x)) for x in row])
    summary = {
        "delta_h_aud_db": [float(x) for x in report.delta_h_aud_db],
        "mean_delta_h_aud_db": report.mean_delta_h_aud_db,
        "scenario_fingerprint": filt.scenario_fingerprint,
    }
    with open(f"{out_prefix}.json", "w", encoding="ascii") as f:
        json.dump(summary, f, indent=1)
        f.write("\n")


def _sweep_filter(scene: Scenario, train: tuple, g, config: DesignConfig, memo: dict) -> EqualizerFilter:
    """design_filter on the sets of `scene` indexed by `train`, less the echo and
    fingerprint, reusing the per-set normal equations and penalties in memo."""
    if config.variant == "LS_ATF":
        return solve_ls_atf(assemble_atf_system(scene.sets[train[0]], g, config.filter_length))
    if config.variant != "MFR_DELTA_LS":
        train = train[:1]
    pairs = []
    for i in train:
        if i not in memo:
            system = reduce_to_rtf(scene.sets[i], g, config.filter_length, config.acausal_delay)
            memo[i] = normal_equations(system)
        pairs.append(memo[i])
    penalty = None
    if config.variant in WEIGHTED_VARIANTS:
        key = (train, config.reg_beta)
        if key not in memo:
            memo[key] = leakage_penalty([scene.sets[i] for i in train], g, config)
        penalty = memo[key]
    coef = solve_normal_equations(pairs, config.reg_lambda, penalty)
    return EqualizerFilter(
        coef.reshape(scene.num_loudspeakers, config.filter_length), config.acausal_delay
    )


def _sweep_point(scenario: Scenario, grid: SweepGrid, mode: str, point, memo: dict) -> list[list]:
    variant, n_spk, shift, lam, beta, gain_db, path_delay = point
    scene = select_loudspeakers(scenario, n_spk)
    config = DesignConfig(
        variant=variant,
        filter_length=grid.filter_length,
        acausal_delay=shift,
        reg_lambda=lam,
        reg_beta=beta,
        fft_size=grid.fft_size,
    )
    g = forward_path_ir(gain_db, path_delay, scene.sample_rate_hz)
    stem = [variant, n_spk, grid.filter_length, shift, lam, beta, gain_db, path_delay]
    everything = tuple(range(scene.num_sets))
    if mode == "resubstitution":
        folds = [(-1, everything, scene)]
    else:
        folds = [
            (
                fold,
                everything[:fold] + everything[fold + 1 :],
                Scenario((scene.sets[fold],), scene.sample_rate_hz),
            )
            for fold in everything
        ]
    rows = []
    for fold, train, held_out in folds:
        filt = _sweep_filter(scene, train, g, config, memo)
        score = float(np.mean(set_distances(held_out, g, filt, config)))
        rows.append(stem + [fold, score])
    return rows


def cmd_sweep(scenario_path, grid_path, out_path, mode: str = "resubstitution") -> None:
    if mode not in ("resubstitution", "leave-one-out"):
        raise ValidationError(f"mode: expected resubstitution or leave-one-out, got {mode!r}")
    scenario = load_scenario(scenario_path)
    grid = SweepGrid.from_dict(_load_json(grid_path, "grid"))
    if mode == "leave-one-out" and scenario.num_sets < 2:
        raise ValidationError("leave-one-out needs a scenario with at least two sets")

    # A set's normal equations depend on (N, d_H, G0_db, d_G) and a penalty on
    # (N, G0_db, d_G) plus its training sets and beta; lambda and the variant
    # only choose among them. memo holds the pieces of one such group at a time.
    rows = []
    memo = {}
    group = None
    for point in grid.points():
        _, n_spk, shift, _, _, gain_db, path_delay = point
        if (n_spk, shift, gain_db, path_delay) != group:
            group = (n_spk, shift, gain_db, path_delay)
            memo.clear()
        rows.extend(_sweep_point(scenario, grid, mode, point, memo))

    with open(out_path, "w", encoding="ascii", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(SWEEP_HEADER)
        for row in rows:
            writer.writerow([x if isinstance(x, (str, int)) else repr(float(x)) for x in row])


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqdesign",
        description="Design and evaluate acoustic-transparency equalizers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="draw a synthetic scenario")
    p.add_argument("--config", required=True, help="synth spec JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="scenario JSON to write")

    p = sub.add_parser("design", help="design an equalizer for a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--config", required=True, help="design config JSON")
    p.add_argument("--out", required=True, help="filter JSON to write")

    p = sub.add_parser("eval", help="score a filter against a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--filter", required=True, help="filter JSON from the design step")
    p.add_argument("--out", required=True, help="output prefix (.csv and .json)")

    p = sub.add_parser("sweep", help="grid of designs, one CSV row per point")
    p.add_argument("--scenario", required=True)
    p.add_argument("--grid", required=True, help="grid JSON")
    p.add_argument("--out", required=True, help="CSV to write")
    p.add_argument(
        "--mode",
        choices=("resubstitution", "leave-one-out"),
        default="resubstitution",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            cmd_synth(args.config, args.seed, args.out)
        elif args.command == "design":
            cmd_design(args.scenario, args.config, args.out)
        elif args.command == "eval":
            cmd_eval(args.scenario, args.filter, args.out)
        else:
            cmd_sweep(args.scenario, args.grid, args.out, args.mode)
    # LinAlgError subclasses ValueError, so the numerics clause must come first
    except (NumericsError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
