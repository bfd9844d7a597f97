"""Dataset ingestion, one-vs-rest task construction, and split protocol.

Vector files are delimited text, one example per row, label in a
designated column (default: last); an empty label cell or ``?`` marks an
unlabeled example.  Sequence files are ``label<delimiter>LETTERS`` rows
over an alphabet of at most 22 letters, minimum length 2.

The benchmark protocol stratifies each binary task 50/50 into train and
test halves per class, optionally peels a fraction of the test half off
as an unlabeled pool (those examples are then excluded from test
scoring), and repeats over seeded partitions.  Feature standardization
is computed from training indices only, so test statistics never leak
into preprocessing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, InvalidArgumentError

UNLABELED_TOKENS = ("", "?")
UNLABELED = -1


@dataclass
class Dataset:
    """Either fixed-dimension vectors or variable-length token sequences.

    ``labels[i]`` indexes ``class_names``; -1 marks an unlabeled example.
    """

    kind: str  # "vector" | "sequence"
    labels: np.ndarray
    class_names: list[str]
    vectors: np.ndarray | None = None
    sequences: list[np.ndarray] | None = None
    alphabet: str | None = None

    def __len__(self) -> int:
        return self.labels.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def n_symbols(self) -> int:
        return len(self.alphabet)


@dataclass
class BinaryTask:
    """One one-vs-rest problem: one class against the union of the rest."""

    positive_class: int
    name: str


@dataclass
class TaskSplit:
    """Index sets of one seeded partition of a binary task.

    ``train_u`` is carved out of the test half; ``test`` excludes it.
    """

    train_l: np.ndarray
    train_u: np.ndarray
    test: np.ndarray
    positive_class: int


def _split_line(line: str, delimiter: str) -> list[str]:
    return [cell.strip() for cell in line.rstrip("\n").split(delimiter)]


def _class_labels(raw_labels: list[str]) -> tuple[list[str], np.ndarray]:
    """Sorted class names and each row's index into them (-1 if unlabeled)."""
    class_names = sorted({l for l in raw_labels if l not in UNLABELED_TOKENS})
    index = {name: i for i, name in enumerate(class_names)}
    labels = np.array(
        [UNLABELED if l in UNLABELED_TOKENS else index[l] for l in raw_labels], dtype=int
    )
    return class_names, labels


def load_vectors(
    path: str,
    delimiter: str = ",",
    label_column: int = -1,
    has_header: bool = False,
) -> Dataset:
    """Parse a delimited vector file; errors carry the offending line number."""
    rows: list[np.ndarray] = []
    raw_labels: list[str] = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if has_header and lineno == 1:
                continue
            if not line.strip():
                continue
            cells = _split_line(line, delimiter)
            if width is None:
                width = len(cells)
                if width < 2:
                    raise DataFormatError("need at least one feature and a label", lineno)
            elif len(cells) != width:
                raise DataFormatError(
                    f"expected {width} cells, found {len(cells)}", lineno
                )
            col = label_column if label_column >= 0 else width + label_column
            label = cells[col]
            feats = cells[:col] + cells[col + 1 :]
            try:
                values = np.array([float(c) for c in feats])
            except ValueError as exc:
                raise DataFormatError(f"non-numeric feature cell ({exc})", lineno) from None
            if not np.all(np.isfinite(values)):
                raise DataFormatError("non-finite feature cell (nan or inf)", lineno)
            rows.append(values)
            raw_labels.append(label)
    if not rows:
        raise DataFormatError(f"no data rows in {path}")
    class_names, labels = _class_labels(raw_labels)
    return Dataset(kind="vector", labels=labels, class_names=class_names, vectors=np.stack(rows))


def load_sequences(
    path: str,
    delimiter: str = ",",
    alphabet: str | None = None,
) -> Dataset:
    """Parse ``label,LETTERS`` rows into integer token sequences."""
    raw: list[tuple[int, str, str]] = []  # (line number, label, letters)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            cells = _split_line(line, delimiter)
            if len(cells) != 2:
                raise DataFormatError("expected exactly 'label,sequence'", lineno)
            label, letters = cells
            if len(letters) < 2:
                raise DataFormatError("sequence length must be at least 2", lineno)
            raw.append((lineno, label, letters))
    if not raw:
        raise DataFormatError(f"no data rows in {path}")

    letters_seen = sorted({ch for _, _, s in raw for ch in s})
    if alphabet is None:
        alphabet = "".join(letters_seen)
    if len(alphabet) > 22:
        raise DataFormatError(f"alphabet has {len(alphabet)} letters, limit is 22")
    token = {ch: i for i, ch in enumerate(alphabet)}
    sequences = []
    for lineno, _, s in raw:
        try:
            sequences.append(np.array([token[ch] for ch in s], dtype=int))
        except KeyError as exc:
            raise DataFormatError(
                f"letter {exc.args[0]!r} outside alphabet {alphabet!r}", lineno
            ) from None
    class_names, labels = _class_labels([l for _, l, _ in raw])
    return Dataset(
        kind="sequence",
        labels=labels,
        class_names=class_names,
        sequences=sequences,
        alphabet=alphabet,
    )


def one_vs_rest_tasks(ds: Dataset) -> list[BinaryTask]:
    """One binary task per class: that class against all others."""
    if len(ds.class_names) < 2:
        raise InvalidArgumentError("benchmark mode needs at least 2 classes")
    return [
        BinaryTask(positive_class=i, name=f"{name}-vs-rest")
        for i, name in enumerate(ds.class_names)
    ]


def make_splits(
    ds: Dataset,
    task: BinaryTask,
    n_partitions: int,
    unlabeled_fraction: float = 0.25,
    seed: int = 0,
) -> list[TaskSplit]:
    """Seeded stratified 50/50 partitions with an optional unlabeled pool.

    Positives and negatives are halved independently; the unlabeled pool
    is drawn stratified from the test half and removed from scoring.
    """
    if n_partitions < 1:
        raise InvalidArgumentError("n_partitions must be at least 1")
    if not 0.0 <= unlabeled_fraction < 1.0:
        raise InvalidArgumentError("unlabeled_fraction must lie in [0, 1)")
    labeled_idx = np.flatnonzero(ds.labels >= 0)
    pos = labeled_idx[ds.labels[labeled_idx] == task.positive_class]
    neg = labeled_idx[ds.labels[labeled_idx] != task.positive_class]
    if pos.size < 2 or neg.size < 2:
        raise InvalidArgumentError(
            f"task {task.name}: need at least 2 examples per side "
            f"(got {pos.size} positive, {neg.size} negative)"
        )
    splits = []
    for p in range(n_partitions):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(p,)))
        train_parts, test_parts, pool_parts = [], [], []
        for group in (pos, neg):
            perm = rng.permutation(group)
            n_train = (perm.size + 1) // 2
            train_parts.append(perm[:n_train])
            test_half = perm[n_train:]
            n_pool = int(round(unlabeled_fraction * test_half.size))
            pool_parts.append(test_half[:n_pool])
            test_parts.append(test_half[n_pool:])
        splits.append(
            TaskSplit(
                train_l=np.sort(np.concatenate(train_parts)),
                train_u=np.sort(np.concatenate(pool_parts)),
                test=np.sort(np.concatenate(test_parts)),
                positive_class=task.positive_class,
            )
        )
    return splits


def binary_labels(ds: Dataset, indices: np.ndarray, positive_class: int) -> np.ndarray:
    """Map class indices to {-1, +1} for one binary task."""
    return np.where(ds.labels[indices] == positive_class, 1, -1)


def standardize(vectors: np.ndarray, train_rows: np.ndarray):
    """(mean, std, standardized vectors), the statistics from ``train_rows`` only.

    A constant column keeps std 1, so it maps to zero instead of NaN.
    """
    train = vectors[train_rows]
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return mean, std, (vectors - mean) / std


def materialize_vector_split(ds: Dataset, split: TaskSplit):
    """Standardized arrays for one split: (X_l, y_l, X_u, X_test, y_test).

    The standardization statistics come from train_l plus train_u only.
    """
    train_rows = np.concatenate([split.train_l, split.train_u]).astype(int)
    _, _, X = standardize(ds.vectors, train_rows)
    return (
        X[split.train_l],
        binary_labels(ds, split.train_l, split.positive_class),
        X[split.train_u],
        X[split.test],
        binary_labels(ds, split.test, split.positive_class),
    )


def materialize_sequence_split(ds: Dataset, split: TaskSplit):
    """Sequence lists for one split: (xs_l, y_l, xs_u, xs_test, y_test)."""
    pick = lambda idx: [ds.sequences[i] for i in idx]
    return (
        pick(split.train_l),
        binary_labels(ds, split.train_l, split.positive_class),
        pick(split.train_u),
        pick(split.test),
        binary_labels(ds, split.test, split.positive_class),
    )


def aggregate(accuracies) -> tuple[float, float]:
    """Mean and sample standard deviation of accuracies, in percent."""
    acc = np.asarray(list(accuracies), dtype=float)
    if acc.size == 0:
        raise InvalidArgumentError("cannot aggregate an empty result list")
    mean = 100.0 * acc.mean()
    std = 100.0 * acc.std(ddof=1) if acc.size > 1 else 0.0
    return float(mean), float(std)
