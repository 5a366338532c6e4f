"""eqdesign benchmark: two workloads driven through the CLI, checked apart.

    python3 perfbench/run.py --workload loo-study --seed 0 --seconds 30 --trace 0

Run from anywhere; the package is imported from the `src` directory next to
this one. Each workload repeats whole rounds of `eqdesign.cli.main(argv)`
calls on files it generates from the seed, until --seconds have passed. The
last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones (timed with
tracing off); with --trace 1 the same rounds run once untraced and once
traced, and the metrics are per-layer figures per round. The line before it
holds the details: the run environment, sample counts, quartiles and what
the checks saw. See README.md in this directory.
"""

import os

# One thread in every BLAS the process may load, set before NumPy loads:
# results are per caller, and threaded BLAS on these small matrices ran
# 2-3x slower and far less steadily. EQDESIGN_THREADS is left unset, so
# sweeps run on one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("EQDESIGN_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from checker import Findings  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

VARIANTS = ["LS_ATF", "RLS", "R_DELTA_LS", "FR_DELTA_LS", "MFR_DELTA_LS"]

# the README default scene and operating point
DEFAULT_SCENE = {"num_sets": 5, "num_loudspeakers": 2}
DEFAULT_DESIGN = {"variant": "MFR_DELTA_LS", "L_A": 99, "d_H": 32, "lambda": 0.1,
                  "beta": 1.0, "G0_db": 0.0, "d_G": 96}
# every variant on the full scene; d_H 0 because LS_ATF and RLS reject slack
COMPARE_GRID = {"variant": VARIANTS, "N": 2, "d_H": 0, "lambda": 0.1, "beta": 1.0,
                "G0_db": 0.0, "d_G": 96}
# the 120-point leave-one-out study of tests/test_cli.py
LOO_GRID = {"variant": "MFR_DELTA_LS", "N": 2, "d_H": [0, 1, 32, 64],
            "lambda": [1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0], "beta": 1.0, "G0_db": 0.0,
            "d_G": 96}
LONG_SCENE = {"num_sets": 3, "num_loudspeakers": 2, "source_ir_length": 256,
              "speaker_ir_length": 200}
LONG_DESIGN = dict(DEFAULT_DESIGN, L_A=200)
VARIANT_GRID = {"variant": VARIANTS, "N": [1, 2], "d_H": 0, "lambda": 0.1, "beta": [0.5, 2.0],
                "G0_db": [0.0, -10.0], "d_G": [48, 96], "L_A": 200}
# a small scene that runs every code path once before timing starts
WARMUP_SCENE = {"num_sets": 2, "num_loudspeakers": 2, "source_ir_length": 32,
                "speaker_ir_length": 24}
WARMUP_DESIGN = dict(DEFAULT_DESIGN, L_A=16, d_H=4, d_G=8)
WARMUP_GRID = dict(COMPARE_GRID, d_G=8, L_A=16)


@dataclass(frozen=True)
class Sweep:
    tag: str
    grid: dict
    mode: str
    # rows re-derived by the dense reference on the first round
    sample: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    scene: dict
    design: dict
    # a round: this many fit cycles (synth -> design -> eval, each on a new
    # scene), then the sweeps on the round's last scene
    fits: int
    sweeps: tuple

    def scene_seed(self, seed: int, round_no: int, k: int) -> int:
        return seed * 10**6 + round_no * self.fits + k


LOO = Sweep("loo", LOO_GRID, "leave-one-out", tuple(range(0, 120, 17)))
WORKLOADS = {
    w.name: w
    for w in (
        Workload("loo-study", DEFAULT_SCENE, DEFAULT_DESIGN, 24,
                 (Sweep("compare", COMPARE_GRID, "resubstitution", (0, 1, 2, 3, 4)), LOO)),
        Workload("variant-grid", LONG_SCENE, LONG_DESIGN, 8,
                 (Sweep("grid", VARIANT_GRID, "resubstitution", tuple(range(0, 80, 7))),)),
    )
}
WARMUP = Workload("warmup", WARMUP_SCENE, WARMUP_DESIGN, 1,
                  (Sweep("compare", WARMUP_GRID, "resubstitution", ()),))

SETUP_REPEATS = 5

# per-layer metrics as (span, figure), reported per round with the unit in UNITS
LAYER_METRICS = [
    ("design.reduce_to_rtf", "s"), ("design.reduce_to_rtf", "calls"),
    ("design.reduce_to_rtf", "distinct_per_call"),
    ("design.solve_robust", "self_s"),
    ("design.solve_regularized", "self_s"),
    ("design.assemble_atf_system", "s"),
    ("design.solve_ls_atf", "s"),
    ("design.frequency_weights", "s"), ("design.frequency_weights", "calls"),
    ("design.design_filter", "calls"), ("design.design_filter", "self_s"),
    ("signals.fractional_octave_smooth", "s"), ("signals.fractional_octave_smooth", "calls"),
    ("signals.convolution_matrix", "s"), ("signals.convolution_matrix", "calls"),
    ("signals.magnitude_response", "s"), ("signals.magnitude_response", "calls"),
    ("evaluation.evaluate", "self_s"), ("evaluation.evaluate", "calls"),
    ("evaluation.auditory_spectral_distance", "s"),
    ("scenario.synth_scenario", "s"),
    ("scenario.save_scenario", "s"),
    ("scenario.load_scenario", "s"),
    ("scenario.scenario_fingerprint", "s"), ("scenario.scenario_fingerprint", "calls"),
    ("cli.cmd_synth", "self_s"), ("cli.cmd_design", "self_s"),
    ("cli.cmd_eval", "self_s"), ("cli.cmd_sweep", "self_s"),
]
UNITS = {"s": "s", "self_s": "s", "calls": "count", "distinct_per_call": "ratio"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc) + "\n")


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure_setup() -> list[float]:
    """Seconds for fresh interpreters to import eqdesign.cli; the first,
    which may compile bytecode, is not kept."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import eqdesign.cli"], env=env,
                              cwd=ROOT, capture_output=True, text=True)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            fail(f"importing eqdesign.cli failed:\n{proc.stderr}")
        if i:
            times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# rounds


class Session:
    """Runs CLI commands, timing each, and remembers what to check."""

    def __init__(self, cli, inputs: Path, tracer: Tracer | None = None):
        self.cli = cli
        self.inputs = inputs
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {"synth": [], "design": [], "eval": []}
        self.sweep_rows = 0
        self.sweep_seconds = 0.0
        self.attempted = 0
        self.failed = 0
        # what to check: ("fit", scene, filter, report, check design?) and
        # ("sweep", scene, csv, Sweep, round number) of every command that succeeded
        self.outputs: list[tuple] = []

    def command(self, kind: str, argv: list) -> bool:
        argv = [str(a) for a in argv]
        start = time.perf_counter()
        try:
            if self.tracer is None:
                code = self.cli.main(argv)
            else:
                code = self.tracer.call(self.cli.main, argv)
        except Exception:  # a crash is a failed operation; keep running the rest
            traceback.print_exc()
            code = -1
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if code != 0:
            self.failed += 1
            print(f"perfbench: eqdesign {' '.join(argv)} exited {code}", file=sys.stderr)
            return False
        if kind == "sweep":
            self.sweep_seconds += elapsed
        else:
            self.samples[kind].append(elapsed)
        return True

    def round(self, wl: Workload, seed: int, round_no: int, out: Path) -> float:
        """One round of the workload in directory `out`; returns its wall time."""
        out.mkdir()
        start = time.perf_counter()
        for k in range(wl.fits):
            scene = out / f"scene{k}.json"
            self.fit_cycle(wl, wl.scene_seed(seed, round_no, k), scene, out / f"filter{k}.json",
                           out / f"report{k}", round_no == 0 and k == 0)
        for sweep in wl.sweeps:
            self.sweep(wl, sweep, scene, out / f"{sweep.tag}.csv", round_no)
        wall = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.end_round()
        return wall

    def fit_cycle(self, wl: Workload, scene_seed: int, scene: Path, filt: Path, report: Path,
                  check_design: bool) -> None:
        if (self.command("synth", ["synth", "--config", self.inputs / f"{wl.name}.synth.json",
                                   "--seed", scene_seed, "--out", scene])
                and self.command("design", ["design", "--scenario", scene, "--config",
                                            self.inputs / f"{wl.name}.design.json", "--out", filt])
                and self.command("eval", ["eval", "--scenario", scene, "--filter", filt,
                                          "--out", report])):
            self.outputs.append(("fit", scene, filt, report.with_suffix(".json"), check_design))

    def sweep(self, wl: Workload, sweep: Sweep, scene: Path, csv_path: Path,
              round_no: int) -> None:
        if self.command("sweep", ["sweep", "--scenario", scene, "--grid",
                                  self.inputs / f"{wl.name}.{sweep.tag}.json",
                                  "--out", csv_path, "--mode", sweep.mode]):
            with open(csv_path, encoding="ascii") as f:
                self.sweep_rows += sum(1 for _ in f) - 1
            self.outputs.append(("sweep", scene, csv_path, sweep, round_no))


def write_inputs(inputs: Path) -> None:
    for wl in (*WORKLOADS.values(), WARMUP):
        write_json(inputs / f"{wl.name}.synth.json", wl.scene)
        write_json(inputs / f"{wl.name}.design.json", wl.design)
        for sweep in wl.sweeps:
            write_json(inputs / f"{wl.name}.{sweep.tag}.json", sweep.grid)


def check(session: Session, wl: Workload, findings: Findings) -> None:
    """Check every output against the independent recomputation. The first
    design of a run is compared with the reference design, and the first
    round's sweeps are re-derived on their sample of rows."""
    for kind, scene, *rest in session.outputs:
        try:
            if kind == "fit":
                filt, report, check_design = rest
                findings.check_report(scene, wl.design, filt, report)
                if check_design:
                    findings.check_design(scene, wl.design, filt)
            else:
                csv_path, sweep, round_no = rest
                findings.check_sweep(scene, sweep.grid, csv_path, sweep.mode,
                                     sweep.sample if round_no == 0 else ())
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            findings.problems.append(f"{scene}: {kind} output unreadable: {exc!r}")


# ---------------------------------------------------------------------------
# metrics


def quartiles(xs: list[float]) -> dict:
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    out = {"n": len(xs), "median": q[1], "q1": q[0], "q3": q[2]}
    if len(xs) >= 100:
        out["p90"] = statistics.quantiles(xs, n=10)[8]
    return out


def end_to_end(session: Session, setup: list[float], rss_mb: float) -> dict:
    if not all(session.samples.values()) or not session.sweep_rows:
        fail("no successful command of some kind to time")
    ms = {k: 1e3 * min(v) for k, v in session.samples.items()}
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "synth_ms": {"value": ms["synth"], "unit": "ms"},
        "design_ms": {"value": ms["design"], "unit": "ms"},
        "eval_ms": {"value": ms["eval"], "unit": "ms"},
        "sweep_rows_per_s": {"value": session.sweep_rows / session.sweep_seconds,
                             "unit": "rows/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def per_layer(tracer: Tracer, rounds: int, untraced: float, traced: float) -> tuple[dict, dict]:
    layers = tracer.layers()
    per_round = {
        name: {k: v / rounds for k, v in row.items()} for name, row in sorted(layers.items())
    }
    metrics = {}
    for span, figure in LAYER_METRICS:
        row = layers.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0, "distinct": 0})
        if figure == "distinct_per_call":
            value = row["distinct"] / row["calls"] if row["calls"] else 0.0
        else:
            value = row[figure] / rounds
        metrics[f"{span}.{figure}"] = {"value": value, "unit": UNITS[figure]}
    metrics["design.linalg_warnings"] = {"value": tracer.linalg_warnings / rounds,
                                         "unit": "count"}
    metrics["trace.overhead_s"] = {"value": (traced - untraced) / rounds, "unit": "s"}
    metrics["trace.overhead_share"] = {"value": traced / untraced - 1.0, "unit": "ratio"}
    return metrics, per_round


# ---------------------------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]

    if not (SRC / "eqdesign" / "cli.py").is_file():
        fail(f"no eqdesign package under {SRC}")
    setup = [] if args.trace else measure_setup()
    sys.path.insert(0, str(SRC))
    from eqdesign import cli, design, evaluation, scenario, signals

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        inputs = work / "inputs"
        inputs.mkdir()
        write_inputs(inputs)
        Session(cli, inputs).round(WARMUP, args.seed, 0, work / "warmup")

        session = Session(cli, inputs)
        walls = []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < args.seconds:
            walls.append(session.round(wl, args.seed, len(walls), work / f"r{len(walls):03d}"))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        sessions = [session]

        detail = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "rounds": len(walls), "environment": environment()}
        if args.trace:
            tracer = Tracer({"signals": signals, "scenario": scenario, "design": design,
                             "evaluation": evaluation, "cli": cli})
            traced = Session(cli, inputs, tracer)
            tracer.install()
            try:
                traced_walls = [traced.round(wl, args.seed, r, work / f"t{r:03d}")
                                for r in range(len(walls))]
            finally:
                tracer.uninstall()
            sessions.append(traced)
            metrics, layers = per_layer(tracer, len(walls), sum(walls), sum(traced_walls))
            detail["untraced_round_s"] = walls
            detail["traced_round_s"] = traced_walls
            detail["layers_per_round"] = layers
        else:
            metrics = end_to_end(session, setup, rss_mb)
            detail["setup_s"] = quartiles(setup)
            detail["command_s"] = {k: quartiles(v) for k, v in session.samples.items()}
            detail["sweep"] = {"rows": session.sweep_rows, "seconds": session.sweep_seconds}

        findings = Findings()
        for s in sessions:
            check(s, wl, findings)
        detail["checks"] = findings.summary()
        for problem in findings.problems[:20]:
            print(f"perfbench: check failed: {problem}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps(detail))
    print(json.dumps({
        "correct": not findings.problems,
        "attempted": sum(s.attempted for s in sessions),
        "failed": sum(s.failed for s in sessions),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
