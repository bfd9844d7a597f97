"""The benchmark's workloads: inputs, CLI settings and output checks.

Each workload is a closed loop of ``pacgibbs`` commands, one at a time.
Sizes and the reasons for each workload are in NOTES.md.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import gen


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # data kind of the input files: "vector" or "sequence"
    make: Callable[[int], dict]  # seed -> rows and oracles, see gen.py
    common: tuple[str, ...]  # KEY=VALUE settings of every command
    train: tuple[str, ...]  # extra settings of `train`
    # Settings of `benchmark`; when given, `benchmark` is the timed training
    # command and `train` only makes the model that `predict` loads.
    benchmark: tuple[str, ...] | None = None
    units: int = 0  # rows `benchmark` must write to results.csv


def accuracy_floor(oracle: float, chance: float, n: int) -> float:
    """Least accuracy on ``n`` held-out rows that a working model reaches.

    Half of the oracle's edge over chance, less two standard errors of an
    accuracy near chance, so that a test set of finite size does not fail
    a working model.
    """
    return chance + 0.5 * (oracle - chance) - 2.0 * math.sqrt(chance * (1.0 - chance) / n)


HMM_SEMI = Workload(
    name="hmm-semi",
    kind="sequence",
    make=lambda seed: gen.hmm_semi(
        seed, n_labeled=24, n_unlabeled=12, n_test=200, length=30, n_states=3, concentration=0.3
    ),
    common=(
        "run.backend=hmm",
        "run.mode=semi",
        f"data.alphabet={gen.ALPHABET}",
        "hmm.symbols=0",
        "hmm.states=5",
    ),
    train=("trainer.restarts=1", "trainer.max_outer_iters=6"),
)

GMM_BENCH = Workload(
    name="gmm-bench",
    kind="vector",
    make=lambda seed: gen.gmm_bench(
        seed, per_class=30, n_test=150, n_classes=3, dim=6, centre_scale=0.8
    ),
    common=("gmm.components=2", "run.mode=semi", "run.positive_label=c0"),
    train=("trainer.restarts=1", "trainer.max_outer_iters=4"),
    benchmark=("data.n_partitions=2", "trainer.restarts=1", "trainer.max_outer_iters=4"),
    units=6,
)

WORKLOADS = {w.name: w for w in (HMM_SEMI, GMM_BENCH)}


# --- output checks ------------------------------------------------------------
# Each returns a list of problems; an empty list means the output is correct.


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_telemetry(path: str) -> tuple[list[str], float]:
    """Also returns the final (clamped) bound."""
    rows = _read_csv(path)
    if not rows:
        return [f"{path}: no rows"], math.nan
    problems = []
    for row in rows:
        r_s, bound = float(row["R_S"]), float(row["bound"])
        if not (math.isfinite(r_s) and math.isfinite(bound) and r_s <= bound <= 1.0):
            problems.append(f"telemetry iteration {row['iteration']}: R_S={r_s} bound={bound}")
    return problems, float(rows[-1]["bound"])


def check_predictions(path: str, labels, floor: float) -> tuple[list[str], float]:
    rows = _read_csv(path)
    if len(rows) != len(labels):
        return [f"{path}: {len(rows)} rows for {len(labels)} inputs"], 0.0
    problems = []
    correct = 0
    for i, (row, truth) in enumerate(zip(rows, labels)):
        label = int(row["label"])
        if int(row["index"]) != i or label not in (-1, 1) or not math.isfinite(float(row["score"])):
            problems.append(f"{path} row {i}: {row}")
        correct += label == truth
    accuracy = correct / len(rows)
    if accuracy < floor:
        problems.append(f"held-out accuracy {accuracy:.4f} below floor {floor:.4f}")
    return problems, accuracy


def check_results(path: str, units: int, floor: float) -> tuple[list[str], list[dict]]:
    """Checks results.csv; also returns its rows whose unit passed."""
    rows = _read_csv(path)
    problems = []
    if len(rows) != units or len({(r["task"], r["partition"]) for r in rows}) != units:
        problems.append(f"{path}: {len(rows)} rows for {units} units")
    good = []
    for row in rows:
        acc, raw = float(row["accuracy"]), float(row["bound_raw"])
        if math.isfinite(raw) and 0.0 <= acc <= 1.0 and float(row["wall_seconds"]) > 0:
            good.append(row)
        else:
            problems.append(f"unit {row['task']}/{row['partition']}: {row}")
    if rows:
        accuracy = sum(float(r["accuracy"]) for r in rows) / len(rows)
        if accuracy < floor:
            problems.append(f"mean unit accuracy {accuracy:.4f} below floor {floor:.4f}")
    return problems, good
