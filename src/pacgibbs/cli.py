"""Command-line entry point.

Commands::

    pacgibbs train        --config cfg [--set k=v ...]
    pacgibbs predict      --config cfg --model file
    pacgibbs benchmark    --config cfg
    pacgibbs bound-report --config cfg --model file
    pacgibbs selftest
    pacgibbs print-config [--config cfg]

Every command is deterministic given (config, seed).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import selftest as selftest_mod
from .config import RunConfig, load_config
from .data import (
    Dataset,
    aggregate,
    binary_labels,
    load_sequences,
    load_vectors,
    make_splits,
    materialize_sequence_split,
    materialize_vector_split,
    one_vs_rest_tasks,
    standardize,
)
from .errors import ConfigError, DataFormatError, PacgibbsError
from .gmm import GmmBackend
from .hmm import HmmBackend
from .modelio import load_model, save_model
from .predictor import evaluate, predict
from .sampler import TiltConfig
from .trainer import TrainConfig, derive_rng, evaluate_bounds, multi_restart_train

TELEMETRY_COLUMNS = ("iteration", "J", "R_S", "e_S", "d_S", "bound", "acceptance_rate", "C")
RESULT_COLUMNS = (
    "task",
    "partition",
    "mode",
    "n_labeled",
    "accuracy",
    "bound_raw",
    "bound_clamped",
    "wall_seconds",
)


def _train_config(cfg: RunConfig, seed: int | None = None) -> TrainConfig:
    return TrainConfig(
        gamma_u=cfg["trainer.gamma_u"],
        gamma_c=cfg["trainer.gamma_c"],
        max_outer_iters=cfg["trainer.max_outer_iters"],
        restarts=cfg["trainer.restarts"],
        init_range=cfg["trainer.init_range"],
        u0_fraction=cfg["trainer.u0_fraction"],
        delta=cfg["trainer.delta"],
        C_init=cfg["trainer.c_init"],
        c_update=cfg["trainer.c_update"],
        convergence_tol=cfg["trainer.convergence_tol"],
        seed=cfg["trainer.seed"] if seed is None else seed,
    )


def _tilt_config(cfg: RunConfig, m_l: int, m_u: int) -> TiltConfig:
    n = cfg["tilt.n_draws"]
    return TiltConfig(
        C=cfg["trainer.c_init"],
        m=m_l + m_u,
        m_l=max(m_l, 1),
        m_u=max(m_u, 1),
        weight_scale=cfg["tilt.weight_scale"],
        n_draws=n,
        max_attempts=cfg["tilt.max_attempts_factor"] * n,
    )


def _load_dataset(cfg: RunConfig, kind: str | None = None, alphabet: str | None = None) -> Dataset:
    """The config's data file, read as ``kind`` (default: ``run.backend``)."""
    if (kind or cfg["run.backend"]) == "gmm":
        return load_vectors(
            cfg["data.path"],
            delimiter=cfg["data.delimiter"],
            label_column=cfg["data.label_column"],
            has_header=cfg["data.header"],
        )
    return load_sequences(
        cfg["data.path"],
        delimiter=cfg["data.delimiter"],
        alphabet=alphabet or (cfg["data.alphabet"] or None),
    )


def _n_symbols(cfg: RunConfig, ds: Dataset) -> int:
    configured = cfg["hmm.symbols"]
    if configured == 0:
        return ds.n_symbols
    if configured < ds.n_symbols:
        raise ConfigError(
            f"hmm.symbols={configured} smaller than the data alphabet ({ds.n_symbols})"
        )
    return configured


def _build_backends(cfg: RunConfig, ds: Dataset, xs, ys, seed: int):
    pos = [x for x, y in zip(xs, ys) if y == 1]
    neg = [x for x, y in zip(xs, ys) if y == -1]
    if not pos or not neg:
        raise ConfigError("training data must contain both classes")
    if cfg["run.backend"] == "gmm":
        k = cfg["gmm.components"]
        bp = GmmBackend.from_data(np.stack(pos), k, derive_rng(seed, 100))
        bm = GmmBackend.from_data(np.stack(neg), k, derive_rng(seed, 101))
    else:
        m_states = cfg["hmm.states"]
        n_sym = _n_symbols(cfg, ds)
        bp = HmmBackend.from_data(pos, m_states, n_sym, derive_rng(seed, 100))
        bm = HmmBackend.from_data(neg, m_states, n_sym, derive_rng(seed, 101))
    return bp, bm


def _format_float(v: float) -> str:
    return repr(float(v))


def _write_csv(path: str, columns, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(c) if isinstance(c, (str, int)) else _format_float(c) for c in row) + "\n")


def _write_telemetry(path: str, history):
    rows = [
        (
            i,
            r.J,
            r.R_S,
            r.e_S,
            r.d_S,
            r.bound,
            r.acceptance_rate,
            r.C,
        )
        for i, r in enumerate(history)
    ]
    _write_csv(path, TELEMETRY_COLUMNS, rows)


def _resolve_positive(cfg: RunConfig, ds: Dataset) -> int:
    wanted = cfg["run.positive_label"]
    if wanted:
        if wanted not in ds.class_names:
            raise ConfigError(f"run.positive_label {wanted!r} not among classes {ds.class_names}")
        return ds.class_names.index(wanted)
    if len(ds.class_names) != 2:
        raise ConfigError(
            "train/predict need a 2-class file (or run.positive_label); "
            "use the benchmark command for multi-class data"
        )
    return 1  # second class name in sorted order is the positive side


def _example_sets(cfg: RunConfig, ds: Dataset, xs):
    """Whole-file (S_l, S_u): the labeled rows of ``xs`` as (x, +/-1) pairs
    and, in semi mode, the unlabeled rows."""
    labeled_idx = np.flatnonzero(ds.labels >= 0)
    ys = binary_labels(ds, labeled_idx, _resolve_positive(cfg, ds))
    S_l = [(xs[i], int(y)) for i, y in zip(labeled_idx, ys)]
    S_u = [xs[i] for i in np.flatnonzero(ds.labels < 0)] if cfg["run.mode"] == "semi" else []
    return S_l, S_u


def _training_sets(cfg: RunConfig, ds: Dataset):
    """Whole-file training sets for cmd_train, standardized when vectors."""
    if ds.kind != "vector":
        return (*_example_sets(cfg, ds, ds.sequences), None, None)
    labeled_idx = np.flatnonzero(ds.labels >= 0)
    train_rows = labeled_idx
    if cfg["run.mode"] == "semi":
        train_rows = np.concatenate([labeled_idx, np.flatnonzero(ds.labels < 0)])
    feat_mean, feat_std, xs = standardize(ds.vectors, train_rows)
    return (*_example_sets(cfg, ds, xs), feat_mean, feat_std)


def cmd_train(cfg: RunConfig) -> int:
    cfg.validate()
    ds = _load_dataset(cfg)
    S_l, S_u, feat_mean, feat_std = _training_sets(cfg, ds)
    xs, ys = [x for x, _ in S_l], [y for _, y in S_l]
    bp, bm = _build_backends(cfg, ds, xs, ys, cfg["trainer.seed"])
    tcfg = _train_config(cfg)
    tilt = _tilt_config(cfg, len(S_l), len(S_u))
    task = multi_restart_train(S_l, S_u, bp, bm, tcfg, tilt)
    task.predict_normalized = cfg["predict.normalized"]

    out_dir = cfg["run.output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    model_path = os.path.join(out_dir, "model.bin")
    save_model(
        model_path,
        task,
        backend_kind=cfg["run.backend"],
        feat_mean=feat_mean,
        feat_std=feat_std,
        alphabet=ds.alphabet,
    )
    _write_telemetry(os.path.join(out_dir, "telemetry.csv"), task.history)

    final = task.history[-1]
    train_acc = evaluate(S_l, task, cfg["predict.n"], derive_rng(cfg["trainer.seed"], 900))
    marker = " (heuristic: C adapted on training data)" if task.flags.get("bound_is_heuristic") else ""
    print(f"model written to {model_path}")
    print(f"final J(u) = {final.J:.6f}, C = {task.C:.4f}")
    print(f"bound = {final.bound:.4f} (raw {final.bound_raw:.4f}){marker}")
    print(f"training accuracy (majority vote) = {train_acc:.4f}")
    return 0


def _restore_inputs(cfg: RunConfig, model):
    """Load the data named in the config through a trained model's transforms."""
    ds = _load_dataset(cfg, model.backend_kind, model.alphabet)
    if ds.kind == "sequence":
        return ds, ds.sequences
    trained_dim = model.task.backend_plus.params.dim
    if ds.dim != trained_dim:
        raise DataFormatError(
            f"{cfg['data.path']} has {ds.dim} feature columns; "
            f"the model was trained on {trained_dim}"
        )
    if model.feat_mean is None:
        return ds, list(ds.vectors)
    return ds, list((ds.vectors - model.feat_mean) / model.feat_std)


def cmd_predict(cfg: RunConfig, model_path: str) -> int:
    cfg.validate()
    model = load_model(model_path)
    ds, xs = _restore_inputs(cfg, model)
    rng = derive_rng(cfg["trainer.seed"], 901)
    n = cfg["predict.n"]
    rows = []
    correct = scored = 0
    positive = _resolve_positive(cfg, ds) if ds.class_names else -1
    for i, x in enumerate(xs):
        p = predict(x, model.task, n, rng)
        rows.append((i, p.score, p.label))
        if ds.labels[i] >= 0:
            scored += 1
            correct += p.label == (1 if ds.labels[i] == positive else -1)
    out_dir = cfg["run.output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "predictions.csv")
    _write_csv(out_path, ("index", "score", "label"), rows)
    print(f"predictions written to {out_path}")
    if scored:
        print(f"accuracy on {scored} labeled rows: {correct / scored:.4f}")
    return 0


def cmd_bound_report(cfg: RunConfig, model_path: str) -> int:
    cfg.validate()
    model = load_model(model_path)
    ds, xs = _restore_inputs(cfg, model)
    S_l, S_u = _example_sets(cfg, ds, xs)
    if not S_l:
        raise ConfigError("bound-report needs labeled data")
    tilt = _tilt_config(cfg, len(S_l), len(S_u))
    delta = cfg["trainer.delta"]
    report = evaluate_bounds(S_l, S_u, model.task, tilt, delta, cfg["trainer.seed"])
    print(f"examples: {len(S_l)} labeled, {len(S_u)} unlabeled")
    print(f"R_S  = {report['R_S']:.6f}")
    print(f"e_S  = {report['e_S']:.6f}")
    print(f"d_S  = {report['d_S']:.6f}")
    print(f"KL(weights) = {report['kl_w']:.6f}")
    print(f"KL(hidden)/m = {report['kl_hidden']:.6f}")
    print(f"delta = {delta}, C = {model.task.C:.4f}")
    for name in ("supervised", "semisupervised"):
        raw = report[f"bound_{name}_raw"]
        print(f"bound {name}: raw = {raw:.6f}, clamped = {min(raw, 1.0):.6f}")
    return 0


def _benchmark_unit(
    cfg: RunConfig, ds: Dataset, task_def, split, partition: int, size: int | None = None
):
    """Train on one split and score its test half; returns a results.csv row.

    With ``size`` the labeled half is first subsampled, stratified, to at
    most that many examples: one learning-curve point, whose unit seed
    also depends on the size.
    """
    start = time.perf_counter()
    if ds.kind == "vector":
        X_l, y_l, X_u, X_test, y_test = materialize_vector_split(ds, split)
        xs_l, xs_u, xs_test = list(X_l), list(X_u), list(X_test)
    else:
        xs_l, y_l, xs_u, xs_test, y_test = materialize_sequence_split(ds, split)
    mode = cfg["run.mode"]
    S_l = list(zip(xs_l, [int(y) for y in y_l]))
    spawn_key = (task_def.positive_class, partition)
    if size is not None:
        sub_rng = derive_rng(cfg["data.split_seed"], *spawn_key, size)
        S_l = _subsample_stratified(S_l, min(size, len(S_l)), sub_rng)
        spawn_key += (size,)
    S_u = xs_u if mode == "semi" else []
    seed_seq = np.random.SeedSequence(entropy=cfg["trainer.seed"], spawn_key=spawn_key)
    unit_seed = int(seed_seq.generate_state(1)[0])
    bp, bm = _build_backends(cfg, ds, [x for x, _ in S_l], [y for _, y in S_l], unit_seed)
    tcfg = _train_config(cfg, seed=unit_seed)
    tilt = _tilt_config(cfg, len(S_l), len(S_u))
    trained = multi_restart_train(S_l, S_u, bp, bm, tcfg, tilt)
    trained.predict_normalized = cfg["predict.normalized"]
    test_pairs = list(zip(xs_test, [int(y) for y in y_test]))
    acc = evaluate(test_pairs, trained, cfg["predict.n"], derive_rng(unit_seed, 902))
    final = trained.history[-1]
    wall = time.perf_counter() - start
    return (
        task_def.name,
        partition,
        mode,
        len(S_l),
        acc,
        final.bound_raw,
        final.bound,
        wall,
    )


def _subsample_stratified(S_l, size: int, rng: np.random.Generator):
    ys = np.array([y for _, y in S_l])
    pos = np.flatnonzero(ys == 1)
    neg = np.flatnonzero(ys == -1)
    n_pos = max(1, round(size * pos.size / ys.size))
    n_pos = min(n_pos, size - 1) if size > 1 else 1
    n_neg = max(1, size - n_pos)
    chosen = np.concatenate(
        [rng.permutation(pos)[:n_pos], rng.permutation(neg)[:n_neg]]
    )
    return [S_l[i] for i in np.sort(chosen)]


def cmd_benchmark(cfg: RunConfig) -> int:
    cfg.validate()
    ds = _load_dataset(cfg)
    tasks = one_vs_rest_tasks(ds)
    unlabeled_fraction = cfg["data.unlabeled_fraction"] if cfg["run.mode"] == "semi" else 0.0
    n_partitions = cfg["data.n_partitions"]
    task_splits = [
        (t, make_splits(ds, t, n_partitions, unlabeled_fraction, cfg["data.split_seed"]))
        for t in tasks
    ]
    rows = [
        _benchmark_unit(cfg, ds, task_def, split, p)
        for task_def, splits in task_splits
        for p, split in enumerate(splits)
    ]
    rows.sort(key=lambda r: (r[0], r[1]))

    out_dir = cfg["run.output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "results.csv"), RESULT_COLUMNS, rows)

    per_task_means = []
    print(f"{'task':<24} {'accuracy %':>12} {'std':>8}")
    for task_def in tasks:
        accs = [r[4] for r in rows if r[0] == task_def.name]
        mean, std = aggregate(accs)
        per_task_means.append(mean)
        print(f"{task_def.name:<24} {mean:>12.2f} {std:>8.2f}")
    print(f"{'macro-average':<24} {float(np.mean(per_task_means)):>12.2f}")

    sizes = cfg.learning_curve_sizes()
    if sizes:
        lc_rows = []
        for task_def, splits in task_splits:
            for size in sizes:
                units = [
                    _benchmark_unit(cfg, ds, task_def, split, p, size)
                    for p, split in enumerate(splits)
                ]
                mean, std = aggregate(unit[4] for unit in units)
                # Every split of a task has the same labeled counts, so all
                # its units train on the same (possibly capped) size.
                lc_rows.append((task_def.name, units[0][3], cfg["run.mode"], mean, std))
        _write_csv(
            os.path.join(out_dir, "learning_curve.csv"),
            ("task", "n_labeled", "mode", "accuracy_mean", "accuracy_std"),
            lc_rows,
        )
        print(f"learning-curve rows written: {len(lc_rows)}")
    return 0


def cmd_selftest() -> int:
    results = selftest_mod.run_all()
    print(selftest_mod.format_report(results))
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="pacgibbs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "predict", "benchmark", "bound-report", "print-config", "selftest"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="path to key=value config file")
        p.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE", help="override a config key"
        )
        if name in ("predict", "bound-report"):
            p.add_argument("--model", required=True, help="trained model file")

    args = parser.parse_args(argv)
    try:
        if args.command == "selftest":
            return cmd_selftest()
        cfg = load_config(args.config, args.set)
        if args.command == "print-config":
            print(cfg.dump())
            return 0
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "predict":
            return cmd_predict(cfg, args.model)
        if args.command == "bound-report":
            return cmd_bound_report(cfg, args.model)
        if args.command == "benchmark":
            return cmd_benchmark(cfg)
    except PacgibbsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
