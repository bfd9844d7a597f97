"""Benchmark of the pacgibbs command line, end to end and per layer.

    python3 perfbench/run.py --workload hmm-semi|gmm-bench|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  The run writes the workload's synthetic
input files for ``--seed``, then repeats cycles of ``pacgibbs`` commands,
each in a fresh interpreter, for ``--seconds`` seconds, timing every
command from outside and checking its outputs.

``--trace 0`` reports the end-to-end metrics (medians over the run);
``--trace 1`` alternates plain and traced cycles and reports the
per-layer metrics of layers.py plus the tracing overhead.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit, the environment and any failed check.  Scratch
files go to ``.perfbench_work/`` and are removed at the end, apart from
the model hashes kept there for the determinism check across runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers
from workloads import (
    WORKLOADS,
    Workload,
    accuracy_floor,
    check_predictions,
    check_results,
    check_telemetry,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".perfbench_work"
HARD_LIMIT_S = 170.0  # a run must end within 180 s
MIN_CYCLES = 2
SETUP_PROBES_PER_CYCLE = 2
PREDICTS_PER_CYCLE = 2

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "train_s": "s",
    "predict_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pacgibbs").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError) as exc:  # show_config differs across numpy versions
        blas = f"unknown ({exc.__class__.__name__})"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "pacgibbs_workers_unset": "PACGIBBS_WORKERS" not in os.environ,
    }


@dataclass
class Outcome:
    rc: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


def run_child(argv: list[str], cwd: Path, env: dict, timeout: float) -> Outcome:
    """Run child.py with ``argv``; wall time and peak RSS are measured from here."""
    out_path, err_path = cwd / "child.out", cwd / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), *argv],
            cwd=cwd, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return Outcome(
        proc.returncode,
        wall,
        usage.ru_maxrss / 1024.0,  # KiB on Linux
        out_path.read_text(errors="replace"),
        err_path.read_text(errors="replace"),
    )


class Run:
    """One workload at one seed: inputs, commands, checks and samples."""

    def __init__(self, workload: Workload, seed: int, started: float):
        self.w, self.seed, self.started = workload, seed, started
        self.dir = WORK_ROOT / f"{workload.name}-{seed}-{os.getpid()}"
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
        self.hashes: dict[str, str] = {}
        self.quality: dict[str, float] = {}  # last accuracy and bound seen, for the record
        env = {k: v for k, v in os.environ.items() if k != "PACGIBBS_WORKERS"}
        env.update(
            PYTHONPATH=str(ROOT / "src"),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.env = env

    # -- bookkeeping ---------------------------------------------------------

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        return not problems

    def command(self, label: str, argv: list[str]) -> Outcome | None:
        """Run one child; a nonzero exit counts as a failed operation.

        Callers time every command that exits with 0 and record the
        checks of its outputs as the operation's outcome.
        """
        timeout = max(1.0, HARD_LIMIT_S - self.elapsed())
        res = run_child(argv, self.dir, self.env, timeout)
        if res.rc != 0:
            self.record(label, [f"exit code {res.rc}: {res.stderr.strip()[-400:]}"])
            return None
        return res

    def check(self, label: str, checks) -> bool:
        """Record one operation whose outputs ``checks()`` inspects."""
        try:
            problems = checks()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        return self.record(label, problems)

    def same_as_before(self, artifact: str, digest: str) -> list[str]:
        known = self.hashes.setdefault(artifact, digest)
        if known != digest:
            return [f"{artifact} sha256 {digest[:12]} differs from {known[:12]} at the same seed"]
        return []

    # -- inputs ----------------------------------------------------------------

    def prepare(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "in").mkdir(parents=True)
        data = self.w.make(self.seed)
        self.train_rows = len(data["train"])
        self.test_labels = list(data["test_labels"])
        self.accuracy_floor = accuracy_floor(data["oracle"], data["chance"], len(self.test_labels))
        self.units_floor = None
        if self.w.benchmark:
            # A unit scores the test half of its split less the unlabeled
            # pool (a quarter of it, the default data.unlabeled_fraction).
            scored = self.w.units * (self.train_rows // 2) * 3 // 4
            self.units_floor = accuracy_floor(data["units_oracle"], data["chance"], scored)
        # Same sources, inputs and settings must give the same outputs; the
        # hashes of earlier runs are kept under this key.
        key = hashlib.sha256(source_digest().encode())
        for part in ("train", "test"):
            text = "\n".join(data[part]) + "\n"
            (self.dir / "in" / f"{part}.csv").write_text(text)
            key.update(text.encode())
        key.update(repr((self.w.common, self.w.train, self.w.benchmark)).encode())
        self.state_path = WORK_ROOT / "determinism" / f"{self.w.name}-{key.hexdigest()[:24]}.json"
        other = self.w.make(self.seed + 1)
        problems = []
        if other["train"] == data["train"]:
            problems.append(f"seeds {self.seed} and {self.seed + 1} give the same input")
        self.record("generate", problems)
        if self.state_path.exists():
            self.hashes.update(json.loads(self.state_path.read_text()))
        print(
            f"# {self.w.name} seed {self.seed}: oracle accuracy {data['oracle']:.4f}, "
            f"floor {self.accuracy_floor:.4f}"
            + (f", unit floor {self.units_floor:.4f}" if self.w.benchmark else "")
        )

    def save_hashes(self) -> None:
        self.state_path.parent.mkdir(parents=True, exist_ok=True)
        self.state_path.write_text(json.dumps(self.hashes, sort_keys=True))

    # -- commands --------------------------------------------------------------

    def cli_argv(self, command: str, out: str, trace: str | None) -> list[str]:
        w = self.w
        argv = ["traced", trace] if trace else ["cli"]
        argv.append(command)
        if command == "predict":
            argv += ["--model", f"{out}/model.bin"]
        data = "in/test.csv" if command == "predict" else "in/train.csv"
        settings = [f"data.path={data}", f"run.output_dir={out}", *w.common]
        settings += w.benchmark if command == "benchmark" else w.train if command == "train" else ()
        for s in settings:
            argv += ["--set", s]
        return argv

    def setup_probe(self) -> None:
        res = self.command("setup", ["setup", self.w.kind, "in/train.csv"])
        if res is not None:
            rows = res.stdout.strip()
            ok = rows == str(self.train_rows)
            self.record("setup", [] if ok else [f"loaded {rows} rows of {self.train_rows}"])
            self.samples["setup_s"].append(res.wall_s)
            self.samples["peak_rss_mb"].append(res.rss_mb)

    def train(self, out: str, trace: str | None = None) -> Outcome | None:
        res = self.command("train", self.cli_argv("train", out, trace))
        if res is None:
            return None

        def checks():
            problems, self.quality["bound"] = check_telemetry(str(self.dir / out / "telemetry.csv"))
            digest = sha256_file(self.dir / out / "model.bin")
            return problems + self.same_as_before("model.bin", digest)

        self.check("train", checks)
        return res

    def benchmark(self, trace: str | None = None) -> tuple[Outcome | None, list[float]]:
        """Runs `benchmark`; each unit also counts as one operation."""
        res = self.command("benchmark", self.cli_argv("benchmark", "bench", trace))
        good: list[dict] = []

        def checks():
            path = self.dir / "bench" / "results.csv"
            problems, rows = check_results(str(path), self.w.units, self.units_floor)
            good.extend(rows)
            self.quality["unit_accuracy"] = statistics.fmean(float(r["accuracy"]) for r in rows)
            self.quality["unit_bound_raw_max"] = max(float(r["bound_raw"]) for r in rows)
            # results.csv apart from its timing column must repeat exactly
            lines = path.read_text().splitlines()
            keep = [i for i, col in enumerate(lines[0].split(",")) if col != "wall_seconds"]
            stable = "\n".join(",".join(l.split(",")[i] for i in keep) for l in lines)
            return problems + self.same_as_before(
                "results.csv", hashlib.sha256(stable.encode()).hexdigest()
            )

        if res is not None:
            self.check("benchmark", checks)
        self.attempted += self.w.units
        self.failed += self.w.units - len(good)
        return res, [float(r["wall_seconds"]) for r in good]

    def predict(self, out: str, trace: str | None = None) -> Outcome | None:
        res = self.command("predict", self.cli_argv("predict", out, trace))
        if res is None:
            return None

        def checks():
            problems, self.quality["accuracy"] = check_predictions(
                str(self.dir / out / "predictions.csv"), self.test_labels, self.accuracy_floor
            )
            return problems

        self.check("predict", checks)
        return res

    def main_command(self, trace: str | None = None):
        """The timed training command: `benchmark` if the workload has one."""
        if self.w.benchmark:
            return self.benchmark(trace)
        return self.train("model", trace), []

    # -- cycles ----------------------------------------------------------------

    def keep_going(self, cycles: int, min_cycles: int, seconds: float, cycle_s: float) -> bool:
        """Start another cycle if it ends nearer to ``seconds`` than stopping now."""
        if self.elapsed() + 1.5 * cycle_s > HARD_LIMIT_S:
            return False
        measured = self.elapsed() - self.measure_start
        return cycles < min_cycles or measured + cycle_s / 2 < seconds

    def measure(self, seconds: float) -> None:
        if self.w.benchmark:  # the model that `predict` loads
            res = self.train("model")
            if res is not None:
                self.samples["peak_rss_mb"].append(res.rss_mb)
        self.measure_start = self.elapsed()
        cycles, cycle_s = 0, 0.0
        while self.keep_going(cycles, MIN_CYCLES, seconds, cycle_s):
            t0 = self.elapsed()
            for _ in range(SETUP_PROBES_PER_CYCLE):
                self.setup_probe()
            res, _ = self.main_command()
            if res is not None:
                self.samples["train_s"].append(res.wall_s)
                self.samples["peak_rss_mb"].append(res.rss_mb)
            for _ in range(PREDICTS_PER_CYCLE):
                res = self.predict("model")
                if res is not None:
                    self.samples["predict_per_s"].append(len(self.test_labels) / res.wall_s)
                    self.samples["peak_rss_mb"].append(res.rss_mb)
            cycles += 1
            cycle_s = self.elapsed() - t0
        self.cycles = cycles

    def measure_traced(self, seconds: float) -> dict:
        """Alternate plain and traced cycles; per-layer metrics of the traced ones."""
        self.measure_start = self.elapsed()
        plain, traced, per_cycle = [], [], []
        cycle_s = 0.0
        expected = layers.expected_spans(self.w.kind, bool(self.w.benchmark))
        while self.keep_going(len(per_cycle), 1, seconds, cycle_s):
            t0 = self.elapsed()
            res, _ = self.main_command()
            if res is not None:
                plain.append(res.wall_s)
            n = len(per_cycle)
            files = [f"trace-{n}-{step}.json" for step in ("train", "main", "predict")]
            if self.w.benchmark:
                self.train("model", files[0])
            res, unit_walls = self.main_command(files[1])
            main_wall = res.wall_s if res is not None else None
            if main_wall is not None:
                traced.append(main_wall)
            self.predict("model", files[2])
            traces = [
                json.loads((self.dir / f).read_text()) for f in files if (self.dir / f).exists()
            ]
            merged = layers.merge(traces)
            missing = sorted(n for n in expected if not merged["spans"].get(n, {}).get("calls"))
            missing += [c for c in layers.COUNTERS if not merged["counts"].get(c)]
            self.record("trace", [f"wrapper never fired: {m}" for m in missing])
            per_cycle.append(
                layers.metrics(merged, unit_walls, main_wall if self.w.benchmark else None)
            )
            cycle_s = self.elapsed() - t0
        self.cycles = len(per_cycle)

        out = {}
        for name, unit, _ in layers.METRICS:
            values = [m[name] for m in per_cycle if name in m]
            if unit in ("count", "B", "%"):
                if len(set(values)) > 1:
                    self.record("trace", [f"{name} differs between identical cycles: {values}"])
                out[name] = values[0] if values else 0
            elif values:
                out[name] = statistics.median(values)
        if plain and traced:
            overhead = statistics.median(traced) - statistics.median(plain)
            out["trace.overhead_s"] = overhead
            out["trace.overhead_share"] = overhead / statistics.median(plain)
        return out

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def describe(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q = statistics.quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q[0]:.4g}..{q[2]:.4g}"


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed, time.perf_counter())
    try:
        run.prepare()
        if trace:
            values = run.measure_traced(seconds)
            metrics = {
                name: {"value": values.get(name, 0.0), "unit": unit}
                for name, unit, _ in layers.METRICS
            }
            for name, m in metrics.items():
                print(f"{workload.name:<10} {name:<26} {m['value']:>14.6g} {m['unit']}")
        else:
            run.measure(seconds)
            metrics = {}
            for name, unit in END_TO_END.items():
                values = run.samples[name]
                if name == "peak_rss_mb":
                    value = max(values, default=0.0)
                else:
                    value = statistics.median(values) if values else 0.0
                metrics[name] = {"value": value, "unit": unit}
                print(f"{workload.name:<10} {name:<14} {value:>12.6g} {unit:<5} ({describe(values)})")
        run.save_hashes()
    finally:
        run.cleanup()
    error_rate = run.failed / max(run.attempted, 1)
    print(
        f"{workload.name:<10} {'error_rate':<14} {error_rate:>12.6g} fraction "
        f"({run.failed} failed of {run.attempted} operations, {run.cycles} cycles)"
    )
    print(f"# {workload.name} quality (last seen, not gated): " + json.dumps(run.quality))
    for p in run.problems:
        print(f"# FAILED {workload.name}: {p}")
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pacgibbs" / "cli.py").is_file():
        print(f"error: no pacgibbs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment()
    print("# environment " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
