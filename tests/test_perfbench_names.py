"""The package names that perfbench traces still exist and are still reached.

perfbench wraps functions where their callers look them up, so renaming
or bypassing one fails a benchmark run.  This test runs a short traced
``train`` and ``predict`` through ``perfbench/child.py`` in fresh
interpreters and checks that every span of a vector workload fired.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", BENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_vectors(path: Path, rng: np.random.Generator, per_class: int):
    rows = []
    for label, centre in (("a", -1.0), ("b", 1.0)):
        for x in rng.normal(centre, 1.0, size=(per_class, 2)):
            rows.append(f"{x[0]:.6f},{x[1]:.6f},{label}")
    path.write_text("\n".join(rows) + "\n")


def run_traced(tmp_path: Path, trace: str, command: list[str], *settings: str) -> dict:
    """Run ``pacgibbs`` ``command`` with the tracer installed; returns the trace."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1")
    argv = [sys.executable, str(BENCH / "child.py"), "traced", trace, *command]
    for s in ("gmm.components=2", "run.output_dir=out", *settings):
        argv += ["--set", s]
    res = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr[-2000:]
    return json.loads((tmp_path / trace).read_text())


def test_every_traced_span_fires_on_vector_train_and_predict(tmp_path):
    layers = load_layers()
    rng = np.random.default_rng(0)
    write_vectors(tmp_path / "train.csv", rng, 15)
    write_vectors(tmp_path / "test.csv", rng, 5)
    train = run_traced(
        tmp_path, "train.json", ["train"],
        "data.path=train.csv", "trainer.restarts=1", "trainer.max_outer_iters=2",
    )
    predict = run_traced(
        tmp_path, "predict.json", ["predict", "--model", "out/model.bin"], "data.path=test.csv"
    )
    merged = layers.merge([train, predict])
    missing = sorted(
        name
        for name in layers.expected_spans("vector", False)
        if not merged["spans"].get(name, {}).get("calls")
    )
    missing += [c for c in layers.COUNTERS if not merged["counts"].get(c)]
    assert missing == []
