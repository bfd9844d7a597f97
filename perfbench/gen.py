"""Synthetic inputs for the benchmark workloads, with their oracles.

Every generator is a pure function of ``(seed, size)``: it returns the
rows to write and the accuracy of the Bayes (vectors) or likelihood-ratio
(sequences) classifier that knows the true generating distributions.
The oracles are computed here with plain numpy, independently of the
package under test.
"""

from __future__ import annotations

import numpy as np

ALPHABET = "ACDEFGHIKLMNPQRSTVWY"
UNLABELED_TOKEN = "?"


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    top = a.max(axis=axis, keepdims=True)
    return np.squeeze(top, axis=axis) + np.log(np.exp(a - top).sum(axis=axis))


def _isotropic_log_density(X: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """log N(x; c, I) for every row of X and every centre: shape (n, k)."""
    d = X.shape[1]
    sq = ((X[:, None, :] - centres[None, :, :]) ** 2).sum(axis=2)
    return -0.5 * sq - 0.5 * d * np.log(2.0 * np.pi)


# --- vectors -----------------------------------------------------------------


class MixtureClasses:
    """Classes that are each an equal-weight mixture of unit-variance Gaussians."""

    def __init__(self, centres: np.ndarray):
        self.centres = centres  # (n_classes, clusters_per_class, dim)

    def draw(self, rng: np.random.Generator, per_class: int):
        n_classes, n_clusters, dim = self.centres.shape
        X, y = [], []
        for c in range(n_classes):
            k = rng.integers(n_clusters, size=per_class)
            X.append(self.centres[c, k] + rng.standard_normal((per_class, dim)))
            y.append(np.full(per_class, c))
        X, y = np.concatenate(X), np.concatenate(y)
        order = rng.permutation(y.size)
        return X[order], y[order]

    def class_log_density(self, X: np.ndarray) -> np.ndarray:
        n_classes, n_clusters, _ = self.centres.shape
        return np.stack(
            [
                _logsumexp(_isotropic_log_density(X, self.centres[c]), axis=1) - np.log(n_clusters)
                for c in range(n_classes)
            ],
            axis=1,
        )


def _binary_oracle(log_dens: np.ndarray, y: np.ndarray, positive: int) -> float:
    """Bayes accuracy of 'positive' against the rest, equal class sizes."""
    n_classes = log_dens.shape[1]
    rest = np.delete(np.arange(n_classes), positive)
    log_rest = _logsumexp(log_dens[:, rest], axis=1) - np.log(rest.size)
    # log prior odds of positive against the pooled rest
    prior = np.log(1.0 / n_classes) - np.log(rest.size / n_classes)
    pred = log_dens[:, positive] - log_rest + prior > 0
    return float(np.mean(pred == (y == positive)))


def _vector_rows(X: np.ndarray, labels) -> list[str]:
    return [",".join(f"{v:.6f}" for v in x) + f",{lab}" for x, lab in zip(X, labels)]


def gmm_bench(seed: int, per_class: int, n_test: int, n_classes: int, dim: int, centre_scale: float):
    """``n_classes`` classes, one unit Gaussian each, centres N(0, scale^2).

    'train' feeds the one-vs-rest ``benchmark`` command; 'test' holds
    ``n_test`` fresh rows per class, scored as class c0 against the rest.
    """
    rng = _rng(seed, 3)
    gen = MixtureClasses(centre_scale * rng.standard_normal((n_classes, 1, dim)))
    X, y = gen.draw(rng, per_class)
    X_te, y_te = gen.draw(rng, n_test // n_classes)
    names = np.array([f"c{i}" for i in range(n_classes)])
    log_dens = gen.class_log_density(X)
    return {
        "train": _vector_rows(X, names[y]),
        "test": _vector_rows(X_te, names[y_te]),
        "test_labels": np.where(y_te == 0, 1, -1),
        "oracle": _binary_oracle(gen.class_log_density(X_te), y_te, positive=0),
        "chance": 1.0 - 1.0 / n_classes,  # always answering 'rest'
        "units_oracle": float(np.mean([_binary_oracle(log_dens, y, c) for c in range(n_classes)])),
    }


# --- sequences -----------------------------------------------------------------


class Hmm:
    def __init__(self, initial, transition, emission):
        self.initial, self.transition, self.emission = initial, transition, emission

    @classmethod
    def random(cls, rng, n_states: int, n_symbols: int, stickiness: float, concentration: float):
        transition = rng.dirichlet(np.ones(n_states), size=n_states)
        transition = stickiness * np.eye(n_states) + (1.0 - stickiness) * transition
        emission = rng.dirichlet(np.full(n_symbols, concentration), size=n_states)
        return cls(np.full(n_states, 1.0 / n_states), transition, emission)

    def draw(self, rng, length: int) -> np.ndarray:
        n_states, n_symbols = self.emission.shape
        x = np.empty(length, dtype=int)
        q = rng.choice(n_states, p=self.initial)
        for t in range(length):
            if t:
                q = rng.choice(n_states, p=self.transition[q])
            x[t] = rng.choice(n_symbols, p=self.emission[q])
        return x

    def log_likelihood(self, x: np.ndarray) -> float:
        log_t, log_e = np.log(self.transition), np.log(self.emission)
        alpha = np.log(self.initial) + log_e[:, x[0]]
        for t in range(1, x.size):
            alpha = _logsumexp(alpha[:, None] + log_t, axis=0) + log_e[:, x[t]]
        return float(_logsumexp(alpha, axis=0))


def hmm_semi(
    seed: int,
    n_labeled: int,
    n_unlabeled: int,
    n_test: int,
    length: int,
    n_states: int,
    concentration: float,
):
    """Two HMM classes that differ in emissions and transitions.

    Each class draws its own emission rows from Dirichlet(concentration);
    the positive class also has sticky transitions.  The smaller the
    concentration, the sparser the rows and the further apart the classes.
    NOTES.md records how often training falls far short of the oracle at
    concentration 1.
    """
    rng = _rng(seed, 2)
    pos = Hmm.random(rng, n_states, len(ALPHABET), 0.8, concentration)
    neg = Hmm.random(rng, n_states, len(ALPHABET), 0.0, concentration)

    def draw(count):
        y = rng.permutation(np.arange(count) % 2)
        return [(pos if c else neg).draw(rng, length) for c in y], y

    xs_l, y_l = draw(n_labeled)
    xs_u, _ = draw(n_unlabeled)
    xs_te, y_te = draw(n_test)
    word = lambda x: "".join(ALPHABET[i] for i in x)
    names = np.array(["neg", "pos"])
    lr = np.array([pos.log_likelihood(x) - neg.log_likelihood(x) for x in xs_te])
    return {
        "train": [f"{names[c]},{word(x)}" for x, c in zip(xs_l, y_l)]
        + [f"{UNLABELED_TOKEN},{word(x)}" for x in xs_u],
        "test": [f"{names[c]},{word(x)}" for x, c in zip(xs_te, y_te)],
        "test_labels": np.where(y_te == 1, 1, -1),
        "oracle": float(np.mean((lr > 0) == (y_te == 1))),
        "chance": 0.5,
    }
