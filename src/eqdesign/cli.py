"""Command-line front end: synth, design, eval, sweep.

Exit codes: 0 on success, 2 for config or schema problems or an input too
large to allocate, 3 when the numerics give up (rank-deficient or singular
design systems). Diagnostics go to stderr; all output files are
deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from dataclasses import fields

import numpy as np

from .scenario import (
    SynthSpec,
    ValidationError,
    _as_int,
    _load_json,
    _number,
    _number_list,
    _require_fields,
    _write_json,
    forward_path_ir,
    load_scenario,
    save_scenario,
    scenario_fingerprint,
    select_loudspeakers,
    synth_scenario,
)
from .design import (
    VARIANTS,
    DesignConfig,
    EqualizerFilter,
    NumericsError,
    _check_grid_holds,
    design_coefficients,
    design_filter,
)
from .evaluation import SetScorer, evaluate, mean_distances

__all__ = ["cmd_synth", "cmd_design", "cmd_eval", "cmd_sweep", "main"]

SWEEP_HEADER = ["variant", "N", "L_A", "d_H", "lambda", "beta", "G0_db", "d_G", "fold", "delta_h_aud_db"]
EVAL_HEADER = ["freq_hz", "mag_db_aid", "mag_db_des", "mag_db_occ", "V", "W"]

_CONFIG_FIELDS = ("variant", "L_A", "d_H", "lambda", "beta", "G0_db", "d_G")
_GRID_FIELDS = ("variant", "N", "d_H", "lambda", "beta", "G0_db", "d_G")


# ---------------------------------------------------------------------------
# strict JSON readers


def _as_variant(value, path: str) -> str:
    if value not in VARIANTS:
        raise ValidationError(f"{path}: expected one of {VARIANTS}, got {value!r}")
    return value


def _as_path_delay(value, path: str) -> int:
    """A forward-path delay d_G: an integer number of samples, at least 0."""
    delay = _as_int(value, path)
    if delay < 0:
        raise ValidationError(f"{path}: must be nonnegative")
    return delay


def _synth_spec_from_dict(data: dict) -> SynthSpec:
    _require_fields(data, (), "synth config", tuple(f.name for f in fields(SynthSpec)))
    return SynthSpec(**data)


def _design_inputs_from_dict(data: dict, path: str) -> tuple[DesignConfig, float, int]:
    """DesignConfig, G0_db and d_G of the config object at `path` ("config" in a
    design config file, "filter.config" in a filter file)."""
    _require_fields(data, _CONFIG_FIELDS, path, ("L_FFT",))
    settings = dict(
        variant=_as_variant(data["variant"], f"{path}.variant"),
        filter_length=_as_int(data["L_A"], f"{path}.L_A"),
        acausal_delay=_as_int(data["d_H"], f"{path}.d_H"),
        reg_lambda=_number(data["lambda"], f"{path}.lambda"),
        reg_beta=_number(data["beta"], f"{path}.beta"),
        fft_size=_as_int(data["L_FFT"], f"{path}.L_FFT") if "L_FFT" in data else None,
    )
    try:
        config = DesignConfig(**settings)
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    gain_db = _number(data["G0_db"], f"{path}.G0_db")
    return config, gain_db, _as_path_delay(data["d_G"], f"{path}.d_G")


def _value_list(data: dict, key: str, coerce, path: str) -> tuple:
    raw = data[key]
    if not isinstance(raw, list):
        raw = [raw]
    if len(raw) == 0:
        raise ValidationError(f"{path}: empty value list")
    return tuple(coerce(item, f"{path}[{i}]") for i, item in enumerate(raw))


def _grid_points(data: dict) -> tuple[list[tuple], list[DesignConfig]]:
    """The points of a sweep grid file in row order, and the DesignConfig of each.

    variant, N, d_H, lambda, beta, G0_db and d_G each hold a value or a list
    of values. A point is one value of each, as a tuple in that order, and
    the points are their Cartesian product with d_G varying fastest (fold
    varies faster still in leave-one-out mode). L_A and L_FFT are optional
    scalars that every point shares.
    """
    _require_fields(data, _GRID_FIELDS, "grid", ("L_A", "L_FFT"))
    shared = {
        name: _as_int(data[key], f"grid.{key}")
        for key, name in (("L_A", "filter_length"), ("L_FFT", "fft_size"))
        if key in data
    }
    coercers = (_as_variant, _as_int, _as_int, _number, _number, _number, _as_path_delay)
    points = list(itertools.product(*(
        _value_list(data, key, coerce, f"grid.{key}")
        for key, coerce in zip(_GRID_FIELDS, coercers)
    )))
    try:
        configs = [
            DesignConfig(variant=variant, acausal_delay=shift, reg_lambda=lam, reg_beta=beta, **shared)
            for variant, _, shift, lam, beta, _, _ in points
        ]
    except ValueError as exc:
        raise ValidationError(f"grid: {exc}") from exc
    return points, configs


# ---------------------------------------------------------------------------
# filter file: the one writer and the one reader of its layout


def _filter_doc(filt: EqualizerFilter, scenario, config: DesignConfig, gain_db: float, path_delay: int) -> dict:
    """The filter file of filt, designed on scenario under config and the forward path (G0_db, d_G)."""
    return {
        "num_loudspeakers": filt.num_loudspeakers,
        "filter_length": filt.filter_length,
        "d_H": config.acausal_delay,
        "coefficients": filt.coefficients.tolist(),
        "config": {
            "variant": config.variant, "L_A": config.filter_length, "d_H": config.acausal_delay,
            "lambda": config.reg_lambda, "beta": config.reg_beta,
            "L_FFT": config.grid(scenario.sets).fft_size, "G0_db": gain_db, "d_G": path_delay,
        },
        "scenario_fingerprint": scenario_fingerprint(scenario),
    }


def _filter_from_dict(data: dict) -> tuple[EqualizerFilter, DesignConfig, float, int, str]:
    """The filter of a filter file, with the DesignConfig, G0_db and d_G of its
    config and the fingerprint of the scene it was designed on."""
    required = (
        "num_loudspeakers",
        "filter_length",
        "d_H",
        "coefficients",
        "config",
        "scenario_fingerprint",
    )
    _require_fields(data, required, "filter")
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
    config, gain_db, path_delay = _design_inputs_from_dict(data["config"], "filter.config")
    if shift != config.acausal_delay:
        raise ValidationError(
            f"filter.d_H: {shift} does not match filter.config.d_H {config.acausal_delay}"
        )
    if taps != config.filter_length:
        raise ValidationError(
            f"filter.filter_length: {taps} does not match filter.config.L_A {config.filter_length}"
        )
    if not isinstance(data["scenario_fingerprint"], str):
        raise ValidationError("filter.scenario_fingerprint: expected a string")
    rows = [_number_list(row, f"filter.coefficients[{i}]") for i, row in enumerate(coef)]
    try:
        filt = EqualizerFilter(np.array(rows))
    except ValueError as exc:
        raise ValidationError(f"filter: {exc}") from exc
    return filt, config, gain_db, path_delay, data["scenario_fingerprint"]


# ---------------------------------------------------------------------------
# commands


def _write_csv(path, header: list, rows) -> None:
    """Write the header and rows of strs, ints and floats as csv.writer does.

    A float's str is its repr, so every float round-trips. No field holds a
    comma, quote or line break, so none needs quoting.
    """
    lines = (",".join(map(str, row)) for row in itertools.chain([header], rows))
    with open(path, "w", encoding="ascii", newline="") as f:
        f.write("\r\n".join(lines) + "\r\n")


def cmd_synth(config_path, seed: int, out_path) -> None:
    spec = _synth_spec_from_dict(_load_json(config_path, "synth config"))
    save_scenario(synth_scenario(spec, seed), out_path)


def cmd_design(scenario_path, config_path, out_path) -> None:
    scenario = load_scenario(scenario_path)
    data = _load_json(config_path, "config")
    config, gain_db, path_delay = _design_inputs_from_dict(data, "config")
    g = forward_path_ir(gain_db, path_delay, scenario.sample_rate_hz)
    filt = design_filter(scenario, g, config)
    _write_json(_filter_doc(filt, scenario, config, gain_db, path_delay), out_path)


def cmd_eval(scenario_path, filter_path, out_prefix) -> None:
    scenario = load_scenario(scenario_path)
    filt, config, gain_db, path_delay, fingerprint = _filter_from_dict(_load_json(filter_path, "filter"))
    g = forward_path_ir(gain_db, path_delay, scenario.sample_rate_hz)
    report = evaluate(scenario, g, filt, config)
    for i, distance in enumerate(report.delta_h_aud_db):
        if distance == np.inf:  # which JSON cannot hold
            raise NumericsError(
                f"aided response of set {i} rounds to 0 in the band, so its distance is infinite"
            )

    columns = np.column_stack([
        report.frequencies_hz,
        report.mag_db_aid,
        report.mag_db_des,
        report.mag_db_occ,
        report.leakage_ratio,
        report.weight_trace,
    ])
    _write_csv(f"{out_prefix}.csv", EVAL_HEADER, columns.tolist())
    summary = {
        "delta_h_aud_db": [float(x) for x in report.delta_h_aud_db],
        "mean_delta_h_aud_db": report.mean_delta_h_aud_db,
        "scenario_fingerprint": fingerprint,
    }
    _write_json(summary, f"{out_prefix}.json")


def cmd_sweep(scenario_path, grid_path, out_path, mode: str = "resubstitution") -> None:
    if mode not in ("resubstitution", "leave-one-out"):
        raise ValidationError(f"mode: expected resubstitution or leave-one-out, got {mode!r}")
    scenario = load_scenario(scenario_path)
    # Every point's settings, loudspeaker count and forward path, and the grid
    # that every point shares, are checked before any design runs, so a bad
    # point exits 2 wherever it sits.
    points, configs = _grid_points(_load_json(grid_path, "grid"))
    if mode == "leave-one-out" and scenario.num_sets < 2:
        raise ValidationError("leave-one-out needs a scenario with at least two sets")
    rate = scenario.sample_rate_hz
    paths = {path: forward_path_ir(*path, rate) for path in dict.fromkeys(p[5:] for p in points)}
    try:
        scenes = {n: select_loudspeakers(scenario, n).sets for n in dict.fromkeys(p[1] for p in points)}
    except ValidationError as exc:
        raise ValidationError(f"grid.N: {exc}") from exc
    # every point shares L_A and L_FFT, so the longest forward path decides
    grid = configs[0].grid(scenario.sets)
    longest = max(paths.values(), key=len)
    _check_grid_holds(grid, scenario.sets, longest, configs[0].filter_length)
    everything = tuple(range(scenario.num_sets))
    if mode == "resubstitution":
        folds = [(-1, everything, everything)]
    else:
        folds = [(k, everything[:k] + everything[k + 1 :], (k,)) for k in everything]
    # One cache serves the whole sweep: each piece is keyed by all it depends
    # on. A run is the points that differ only in d_H; on each fold they
    # design back to back, sharing the one factor the cache keeps. Runs come
    # in grid order of first point, LS_ATF runs first: their dense lstsq is
    # the largest transient, and no Gram is held yet then.
    runs = {}
    for index, point in enumerate(points):
        runs.setdefault(point[:2] + point[3:], []).append(index)

    # Every point designs first. Equal taps score alike, so each (N, forward
    # path, fold) keeps its distinct taps, and scores them afterwards in one
    # batch per held-out set.
    cache, batches, keys = {}, {}, {}
    for indices in sorted(runs.values(), key=lambda run: points[run[0]][0] != "LS_ATF"):
        n_spk, path = points[indices[0]][1], points[indices[0]][5:]
        for f, (_, train, _) in enumerate(folds):
            batch = batches.setdefault((n_spk, path, f), {})
            for index in indices:
                coef = design_coefficients(scenes[n_spk], train, paths[path], configs[index], cache)
                keys[index, f] = (n_spk, path, f, coef.tobytes())
                batch.setdefault(keys[index, f][-1], coef)
    scores = {}
    for (n_spk, path, f), batch in batches.items():
        scorers = [SetScorer(scenes[n_spk][i], paths[path], grid) for i in folds[f][2]]
        means = mean_distances(scorers, np.array(list(batch.values())))
        scores.update(zip(((n_spk, path, f, taps) for taps in batch), means.tolist()))

    # the point's own values: G0_db 0.0 and -0.0 share a path, not a row
    rows = (
        [*point[:2], configs[index].filter_length, *point[2:], fold, scores[keys[index, f]]]
        for index, point in enumerate(points)
        for f, (fold, _, _) in enumerate(folds)
    )
    _write_csv(out_path, SWEEP_HEADER, rows)


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
    except (MemoryError, OverflowError) as exc:
        print(f"error: input too large: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
