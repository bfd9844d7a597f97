"""Gibbs-rejection sampling of hidden configurations from tilted posteriors.

For a training example the target distribution over hidden pairs is the
model posterior reweighted by ``exp(-C * E_w[loss])``, which suppresses
hidden configurations that lead to misclassification.  Because the tilt
factor never exceeds 1, proposing from the exact model posteriors
``P(h+|x) P(h-|x)`` and accepting with probability equal to the tilt is a
valid rejection sampler, and the acceptance rate is an unbiased estimate
of the tilt's normalizing constant.

Proposals are made in chunks of stacked draws.  Each attempt uses one
row of uniforms: the positive model's draw, then the negative model's,
then the accept test.  :func:`chunks` proposes and tilts every chunk,
and :func:`rounds` draws them: stacks of at most ``BLOCK_ROWS`` rows
over many examples, each from its own generator, every later round
over the examples still short of draws with ``k`` their largest
shortfall.  :func:`rejection_sample` then takes an example's drawn
attempts in order and stops at the ``n_draws``-th accept or at the
budget, wherever the rounds end.

Called alone, :func:`rejection_sample` runs :func:`rounds` over its one
input, whose every ``k`` is then its own shortfall: it draws only
attempts that are certain to run, so it consumes exactly the random
numbers, in the same order, as a loop making one attempt at a time, and
leaves the generator in the same state.  In a sampling pass an example
short by less than a round's largest shortfall draws attempts it never
takes.  That keeps every draw, because each example's generator is
private to the pass and thrown away after it, and an attempt's draws
depend only on its own row of uniforms.  Its tilt exponent comes from
one matrix-vector product over the whole stack, so it can differ from
that of the attempt proposed alone in the last bits, which moves an
accept decision only for a uniform that close to its threshold.

Tilt weights: every labeled example is weighted by its expected
misclassification and every unlabeled one by its expected disagreement,
each with weight 1.  The literal per-example weights grow like m^2/m_l,
which drives acceptance probabilities to zero for any realistic
training-set size, so they are not offered.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .features import GenerativeBackend, assemble
from .numerics import phi_tail


@dataclass
class TiltConfig:
    """Sampler settings: trade-off constant and draw budget.

    ``max_attempts`` defaults to 200 proposals per requested draw.
    """

    C: float
    n_draws: int = 5
    max_attempts: int | None = None

    def __post_init__(self):
        if not 0 <= self.C < np.inf:
            raise InvalidArgumentError(f"C must be nonnegative and finite, got {self.C}")
        if self.n_draws < 1:
            raise InvalidArgumentError("n_draws must be at least 1")
        if self.max_attempts is None:
            self.max_attempts = 200 * self.n_draws
        if self.max_attempts < self.n_draws:
            raise InvalidArgumentError("max_attempts must be at least n_draws")


@dataclass
class HiddenSampleSet:
    """Kept draws for one example, stacked in draw order.

    Row ``i`` of ``h_plus`` and ``h_minus`` is the hidden pair of draw
    ``i``, row ``i`` of ``phi_bar`` its unit-norm feature and
    ``exponents[i]`` its log acceptance probability.  ``acceptance_rate``
    is accepted/attempted, the normalizing-constant estimate.
    ``degraded`` marks the fallback path (attempts exhausted,
    best-exponent proposals kept instead of true posterior draws).
    """

    h_plus: np.ndarray
    h_minus: np.ndarray
    phi_bar: np.ndarray
    exponents: np.ndarray
    acceptance_rate: float
    degraded: bool = False
    attempts: int = 0


BLOCK_ROWS = 1024  # stacked proposal rows (votes, or first-chunk attempts) per stack


def blocks(count: int, n: int) -> list[slice]:
    """Consecutive slices of ``count`` inputs, each at most ``BLOCK_ROWS`` rows
    of ``n`` per input (and at least one input)."""
    step = max(1, BLOCK_ROWS // max(n, 1))
    return [slice(i, i + step) for i in range(0, count, step)]


def width_groups(
    xs, backend_plus: GenerativeBackend, backend_minus: GenerativeBackend
) -> tuple[list[int], list[list[int]]]:
    """Uniforms per draw of each input in ``xs``, and the groups of inputs that share them.

    A group is the ascending list of indices of one width (for sequences:
    of one length); groups come in order of first appearance.  Only the
    inputs of one group may be stacked in a :func:`propose` or
    :func:`chunks` call.
    """
    widths = [backend_plus.uniforms_per_draw(x) + backend_minus.uniforms_per_draw(x) for x in xs]
    groups: dict[int, list[int]] = {}
    for i, width in enumerate(widths):
        groups.setdefault(width, []).append(i)
    return widths, list(groups.values())


def propose(
    xs,
    backend_plus: GenerativeBackend,
    backend_minus: GenerativeBackend,
    posts: tuple,
    uniforms: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k untilted proposals for each of the B inputs ``xs``, one per row of ``uniforms``.

    ``uniforms`` is (B*k, U_plus + U_minus), so the inputs must share
    their uniforms per draw (for sequences: their length).  ``posts``
    holds both models' posteriors of ``xs``.  Input ``i`` draws with rows
    ``i*k`` to ``(i+1)*k - 1``; each row's first U_plus uniforms draw the
    positive model's hidden configuration, the rest the negative model's.
    Returns the stacked ``(h_plus, h_minus, phi_bar)`` in the same row
    order, ``phi_bar`` being the unit-normalized features.
    """
    post_plus, post_minus = posts
    n_plus = backend_plus.uniforms_per_draw(xs[0])
    h_plus = backend_plus.sample_hidden(post_plus, uniforms[:, :n_plus])
    h_minus = backend_minus.sample_hidden(post_minus, uniforms[:, n_plus:])
    _, phi_bar = assemble(
        backend_plus.feature_block(xs, h_plus, post_plus),
        backend_minus.feature_block(xs, h_minus, post_minus),
    )
    return h_plus, h_minus, phi_bar


def tilt_exponents(
    phi_bar: np.ndarray, ys: np.ndarray, u: np.ndarray, cfg: TiltConfig
) -> np.ndarray:
    """Log acceptance probabilities of k proposals (rows of ``phi_bar``); all <= 0.

    ``ys`` holds the k row labels, 0 for unlabeled rows.  Labeled rows are
    weighted by the expected misclassification, unlabeled ones by the
    expected disagreement (halved, matching the 1/(2 m_u) weight in the
    tilt definition).  Either weight is computed only if it has rows.
    """
    exponents = np.zeros(phi_bar.shape[0])
    if cfg.C == 0.0:
        return exponents
    a = phi_bar @ u
    labeled = ys != 0
    if labeled.any():
        exponents[labeled] = -cfg.C * phi_tail(ys[labeled] * a[labeled])
    if not labeled.all():
        a = a[~labeled]
        exponents[~labeled] = -cfg.C * (phi_tail(a) * phi_tail(-a))
    return exponents


def chunks(
    xs,
    ys,
    backend_plus: GenerativeBackend,
    backend_minus: GenerativeBackend,
    u: np.ndarray,
    cfg: TiltConfig,
    rngs,
    posts: tuple,
    k: int,
) -> list[tuple]:
    """A chunk of ``k`` proposed and tilted attempts of each input in ``xs``, as one stack.

    Input ``i`` (label ``ys[i]``, None if unlabeled) draws its ``(k,
    U_plus + U_minus + 1)`` uniforms from ``rngs[i]``, the accept test's
    last in each row, so the inputs must share their uniforms per draw.
    ``posts`` holds both models' posteriors of ``xs``.  Returns one
    ``(accepts, (h_plus, h_minus, phi_bar, exponents))`` per input,
    ``accepts`` being each attempt's accept test.
    """
    width = backend_plus.uniforms_per_draw(xs[0]) + backend_minus.uniforms_per_draw(xs[0])
    uniforms = np.concatenate([rng.random((k, width + 1)) for rng in rngs])
    h_plus, h_minus, phi_bar = propose(xs, backend_plus, backend_minus, posts, uniforms[:, :-1])
    labels = np.repeat([0 if y is None else y for y in ys], k)
    exponents = tilt_exponents(phi_bar, labels, u, cfg)
    accepts = np.log(uniforms[:, -1]) < exponents
    rows = [slice(i * k, (i + 1) * k) for i in range(len(xs))]
    return [(accepts[r], (h_plus[r], h_minus[r], phi_bar[r], exponents[r])) for r in rows]


def rounds(xs, ys, backend_plus, backend_minus, u, cfg: TiltConfig, rngs, posts) -> list[list]:
    """Draw, as stacks, every attempt that :func:`rejection_sample` of each input in ``xs`` needs.

    The arguments are those of :func:`chunks`.  The first round is every
    input's first chunk of ``cfg.n_draws`` attempts; each later round is
    one :func:`chunks` call over the inputs still short of draws, with
    ``k`` their largest shortfall, capped by the remaining budget.
    Returns each input's chunks in order (``rejection_sample``'s ``drawn``).
    """
    drawn = [[] for _ in xs]
    short = np.full(len(xs), cfg.n_draws)
    active = list(range(len(xs)))
    attempts = 0
    while active and attempts < cfg.max_attempts:
        k = min(int(short[active].max()), cfg.max_attempts - attempts)
        stack = posts if len(active) == len(xs) else (posts[0][active], posts[1][active])
        new = chunks(
            [xs[j] for j in active], [ys[j] for j in active], backend_plus, backend_minus, u,
            cfg, [rngs[j] for j in active], stack, k,
        )
        for j, chunk in zip(active, new):
            drawn[j].append(chunk)
            short[j] -= np.count_nonzero(chunk[0])
        attempts += k
        active = [j for j in active if short[j] > 0]
    return drawn


def rejection_sample(
    x,
    y: int | None,
    backend_plus: GenerativeBackend,
    backend_minus: GenerativeBackend,
    u: np.ndarray,
    cfg: TiltConfig,
    rng: np.random.Generator,
    drawn=(),
) -> HiddenSampleSet:
    """Draw ``cfg.n_draws`` hidden pairs from the tilted posterior of ``x``.

    Proposals come from the exact untilted posteriors of both models; a
    pair is accepted with probability ``exp(tilt exponent)``.  If the
    attempt budget runs out first, the n_draws proposals with the largest
    exponents seen are kept and the result is flagged degraded.
    ``drawn`` holds the chunks that :func:`rounds` drew for ``x`` from
    ``rng``; when it is empty they are drawn here, by :func:`rounds` over
    ``x`` alone.  Attempts are taken in order up to the ``n_draws``-th
    accept or the budget.
    """
    if not drawn:
        posts = (backend_plus.approx_posterior([x]), backend_minus.approx_posterior([x]))
        drawn = rounds([x], [y], backend_plus, backend_minus, u, cfg, [rng], posts)[0]
    if len(drawn) == 1:
        ((flags, (h_plus, h_minus, phi_bar, exponents)),) = drawn
    else:
        flags, draws = zip(*drawn)  # per chunk: accept flags, (h_plus, h_minus, phi_bar, exponents)
        h_plus, h_minus, phi_bar, exponents = (np.concatenate(arrays) for arrays in zip(*draws))
        flags = np.concatenate(flags)
    accepted = np.flatnonzero(flags)[: cfg.n_draws]  # attempt indices
    degraded = len(accepted) < cfg.n_draws
    attempts = len(flags) if degraded else int(accepted[-1]) + 1
    keep = accepted
    if degraded:
        accepted = accepted.tolist()
        # Fallback: keep the n_draws proposals with the largest exponents
        # seen.  The rejected ones pass through a min-heap in attempt order;
        # ties keep accepted draws first, then the heap's list order.
        best: list[tuple[float, int]] = []  # min-heap of (exponent, attempt index)
        for i in np.flatnonzero(~flags).tolist():
            entry = (float(exponents[i]), i)
            if len(best) < cfg.n_draws:
                heapq.heappush(best, entry)
            else:
                heapq.heappushpop(best, entry)
        keep = sorted(accepted + [i for _, i in best], key=lambda i: -exponents[i])[: cfg.n_draws]
    return HiddenSampleSet(
        h_plus[keep],
        h_minus[keep],
        phi_bar[keep],
        exponents[keep],
        acceptance_rate=len(accepted) / attempts,
        degraded=degraded,
        attempts=attempts,
    )
