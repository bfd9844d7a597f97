"""sha256 of every output that a change meant to keep outputs byte-identical must keep.

    python3 tools/byte_identity.py TREE OUT.json
    python3 tools/byte_identity.py --compare A.json B.json

The first form runs the ``pacgibbs`` commands of the recipe below with
the sources of TREE (a checkout with ``src/pacgibbs``), one command at a
time, each in a fresh interpreter with one BLAS thread, and writes a
``{name: sha256}`` JSON of their outputs.  The second lists the names
whose hashes differ between two such files (or that only one has) and
exits 1 if there are any.  Each run works in a new temporary directory
and removes it at the end.  The inputs come from this checkout's
``perfbench/gen.py`` and ``perfbench/workloads.py``, so every tree sees
the same files.

The recipe, for perfbench's seed-101 and seed-102 inputs of both
workloads, with each workload's own settings (167 outputs):

- in semi and supervised mode: ``model.bin``, ``telemetry.csv``, stdout
  and stderr of ``train``; ``predictions.csv``, its ``label`` column on
  its own, and stdout of ``predict``; stdout of ``bound-report``;
- hmm-semi also at ``hmm.states=10`` and ``hmm.states=16`` (semi
  ``train`` and ``predict``);
- semi ``train`` and ``predict`` at ``tilt.n_draws=40`` and
  ``predict.n=40``: 25 inputs per stack of ``sampler.BLOCK_ROWS`` rows,
  so training passes and ``predict`` span several stacks;
- hmm-semi semi ``train``, ``predict`` and ``bound-report`` on copies of
  the inputs where row ``i`` keeps all but its last ``i mod 7`` letters,
  so every pass and ``predict`` runs seven length groups;
- on seed 101 only, semi ``train`` and ``predict`` at the default
  ``trainer.restarts`` (10), so the prior-mean fit descends from ten
  starts;
- ``benchmark`` with ``data.n_partitions=2`` and
  ``benchmark.learning_curve_sizes=6,10``: stdout, ``learning_curve.csv``,
  ``results.csv`` without its ``wall_seconds`` column, and its
  ``accuracy`` column on its own;
- stdout of ``selftest``.

Each workload and seed runs in its own subdirectory of the work
directory, and every output path is relative to it, so stdout that names
a path compares equal across trees.  The label and accuracy columns have
hashes of their own so that ``--compare`` shows whether predicted labels
held when a change moves scores in their last digits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

SEEDS = (101, 102)
CLI = "import sys; from pacgibbs.cli import main; sys.exit(main(sys.argv[1:]))"
BENCHMARK = ("data.n_partitions=2", "benchmark.learning_curve_sizes=6,10")
BLOCKS = ("tilt.n_draws=40", "predict.n=40")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def mixed_lengths(lines: list[str]) -> list[str]:
    """``label,LETTERS`` rows with row ``i`` cut by its last ``i mod 7`` letters."""
    cut = []
    for i, line in enumerate(lines):
        label, letters = line.split(",", 1)
        cut.append(f"{label},{letters[: len(letters) - i % 7]}")
    return cut


class Recipe:
    def __init__(self, tree: Path, work: Path):
        self.work = self.cwd = work
        self.env = dict(
            os.environ,
            PYTHONPATH=str(tree.resolve() / "src"),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.env.pop("PACGIBBS_WORKERS", None)
        self.hashes: dict[str, str] = {}

    def run(self, name: str, command: str, *settings: str, model: str | None = None):
        """Run one command in ``self.cwd``; keep the sha256 of its stdout as
        ``name.stdout`` (and of its stderr as ``name.stderr`` for train)."""
        argv = [sys.executable, "-c", CLI, command]
        if model:
            argv += ["--model", model]
        for setting in settings:
            argv += ["--set", setting]
        proc = subprocess.run(argv, cwd=self.cwd, env=self.env, capture_output=True)
        if proc.returncode != 0:
            raise SystemExit(
                f"{name}: {command} exited {proc.returncode}\n{proc.stderr.decode(errors='replace')}"
            )
        self.hashes[f"{name}.stdout"] = sha256(proc.stdout)
        if command == "train":
            self.hashes[f"{name}.stderr"] = sha256(proc.stderr)

    def keep(self, name: str, path: str):
        self.hashes[name] = sha256((self.cwd / path).read_bytes())

    def keep_columns(self, name: str, path: str, keep) -> None:
        """Keep the sha256 of the columns of a CSV file whose header names pass ``keep``."""
        rows = [line.split(",") for line in (self.cwd / path).read_text().splitlines()]
        cols = [i for i, col in enumerate(rows[0]) if keep(col)]
        self.hashes[name] = sha256("\n".join(",".join(r[i] for i in cols) for r in rows).encode())

    def train_and_predict(
        self, prefix: str, out: str, common: tuple, train: tuple, report: bool, inputs: str = "in"
    ):
        name = f"{prefix}/{out}"
        settings = (f"data.path={inputs}/train.csv", f"run.output_dir={out}", *common, *train)
        self.run(f"{name}/train", "train", *settings)
        for artefact in ("model.bin", "telemetry.csv"):
            self.keep(f"{name}/{artefact}", f"{out}/{artefact}")
        model = f"{out}/model.bin"
        settings = (f"data.path={inputs}/test.csv", f"run.output_dir={out}", *common)
        self.run(f"{name}/predict", "predict", *settings, model=model)
        self.keep(f"{name}/predictions.csv", f"{out}/predictions.csv")
        self.keep_columns(f"{name}/predictions.csv-label", f"{out}/predictions.csv", "label".__eq__)
        if report:
            settings = (f"data.path={inputs}/train.csv", *common)
            self.run(f"{name}/bound-report", "bound-report", *settings, model=model)

    def benchmark(self, prefix: str, common: tuple, settings: tuple):
        settings = ("data.path=in/train.csv", "run.output_dir=bench", *common, *settings)
        self.run(f"{prefix}/benchmark", "benchmark", *settings, *BENCHMARK)
        self.keep(f"{prefix}/learning_curve.csv", "bench/learning_curve.csv")
        results = "bench/results.csv"
        self.keep_columns(f"{prefix}/results.csv-wall", results, "wall_seconds".__ne__)
        self.keep_columns(f"{prefix}/results.csv-accuracy", results, "accuracy".__eq__)

    def write_inputs(self, inputs: str, rows: dict):
        (self.cwd / inputs).mkdir(parents=True)
        for part, lines in rows.items():
            (self.cwd / inputs / f"{part}.csv").write_text("\n".join(lines) + "\n")

    def workload(self, seed: int, w):
        prefix = f"seed{seed}/{w.name}"
        self.cwd = self.work / prefix
        data = w.make(seed)
        self.write_inputs("in", {part: data[part] for part in ("train", "test")})
        for mode, extra in (("semi", ()), ("sup", ("run.mode=supervised",))):
            self.train_and_predict(prefix, mode, (*w.common, *extra), w.train, True)
        if w.kind == "sequence":
            for states in (10, 16):
                common = (*w.common, f"hmm.states={states}")
                self.train_and_predict(prefix, f"semi{states}", common, w.train, False)
            mixed = {part: mixed_lengths(data[part]) for part in ("train", "test")}
            self.write_inputs("in-mixed", mixed)
            self.train_and_predict(prefix, "mixed", w.common, w.train, True, inputs="in-mixed")
        self.train_and_predict(prefix, "blocks", (*w.common, *BLOCKS), w.train, False)
        if seed == SEEDS[0]:
            train = tuple(s for s in w.train if not s.startswith("trainer.restarts="))
            self.train_and_predict(prefix, "restarts", w.common, train, False)
        self.benchmark(prefix, w.common, w.benchmark or w.train)

    def all(self) -> dict[str, str]:
        for seed in SEEDS:
            for w in WORKLOADS.values():
                print(f"# seed {seed} {w.name}", file=sys.stderr, flush=True)
                self.workload(seed, w)
        self.cwd = self.work
        self.run("selftest", "selftest")
        return dict(sorted(self.hashes.items()))


def compare(a: Path, b: Path) -> int:
    left, right = json.loads(a.read_text()), json.loads(b.read_text())
    differ = sorted(n for n in left.keys() | right.keys() if left.get(n) != right.get(n))
    for name in differ:
        print(name)
    same = len(left.keys() & right.keys()) - len([n for n in differ if n in left and n in right])
    print(f"# {same} identical, {len(differ)} differ", file=sys.stderr)
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("paths", nargs=2, type=Path, metavar="PATH")
    parser.add_argument("--compare", action="store_true", help="compare two hash files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.paths)

    tree, out = args.paths
    if not (tree / "src" / "pacgibbs" / "cli.py").is_file():
        print(f"error: no pacgibbs sources under {tree / 'src'}", file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix="byte-identity-"))
    try:
        hashes = Recipe(tree, work).all()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out.write_text(json.dumps(hashes, indent=1) + "\n")
    print(f"# {len(hashes)} outputs hashed into {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
