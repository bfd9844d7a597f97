"""Stacked posteriors and draws against the per-input loops they replaced, bit for bit.

The backends compute the posteriors of many inputs at once; the sampler
and the predictor draw a chunk of hidden pairs from one block of
uniforms, and the predictor handles many inputs in one stack.  They must
return the same bits as the loops in ``reference_draws`` and leave the
generator in the same state.
"""

import dataclasses

import numpy as np
import pytest
from scipy.special import logsumexp

import reference_draws as ref
from pacgibbs import sampler
from pacgibbs.cli import _format_float, main
from pacgibbs.gmm import GmmBackend, GmmParams, _logsumexp
from pacgibbs.hmm import HmmBackend, HmmParams, forward_backward, sample_paths
from pacgibbs.modelio import save_model
from pacgibbs.predictor import evaluate, predict, vote_scores
from pacgibbs.sampler import HiddenSampleSet, TiltConfig, rejection_sample
from pacgibbs.trainer import TrainedTask, _sample_sets, derive_rng

HMM_STATES = (2, 5, 7, 8, 10, 16)


def random_gmm(K, d, rng):
    w = rng.random(K) + 0.1
    params = GmmParams(
        weights=w / w.sum(),
        means=2.0 * rng.normal(size=(K, d)),
        variances=rng.uniform(0.3, 2.0, size=(K, d)),
    )
    return GmmBackend(params, variance_floor=np.full(d, 1e-8))


def random_hmm_params(M, n_symbols, rng):
    def rows(shape):
        p = rng.random(shape) + 0.05
        return p / p.sum(axis=-1, keepdims=True)

    return HmmParams(initial=rows(M), transition=rows((M, M)), emission=rows((M, n_symbols)))


def bits(value) -> bytes:
    arr = np.asarray(value)
    return arr.dtype.str.encode() + repr(arr.shape).encode() + arr.tobytes()


def assert_same_fields(new, old, names):
    for name in names:
        value, expected = getattr(new, name), getattr(old, name)
        assert type(value) is type(expected), name
        assert bits(value) == bits(expected), name


def sample_both(seed, x, y, bp, bm, u, cfg):
    """The package's set, after checking it and the stream against the loop's."""
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    new = rejection_sample(x, y, bp, bm, u, cfg, rng_new)
    old = ref.rejection_sample(x, y, bp, bm, u, cfg, rng_old)
    assert_same_fields(new, old, [f.name for f in dataclasses.fields(HiddenSampleSet)])
    assert rng_new.random() == rng_old.random()
    return new


def sampler_cases(make_pair, n_cases, seed):
    """(x, y, backends, u, cfg) covering C = 0, both labels, no label,
    n_draws 1-8 and budgets small enough to degrade."""
    rng = np.random.default_rng(seed)
    for i in range(n_cases):
        x, bp, bm = make_pair(i, rng)
        n_draws = int(rng.integers(1, 9))
        C = (0.0, 0.7, 4.0, 60.0)[i % 4]
        budget = (None, n_draws, int(rng.integers(n_draws, 4 * n_draws + 1)))[i % 3]
        # Three draws that once set TiltConfig's unused set sizes; the cases stay the same.
        rng.integers(2, 30), rng.integers(1, 10), rng.integers(1, 10)
        cfg = TiltConfig(C=C, n_draws=n_draws, max_attempts=budget)
        u = rng.normal(size=bp.block_dim() + bm.block_dim() + 1) * rng.choice([0.5, 3.0])
        yield x, (1, -1, None, -1, None)[i % 5], bp, bm, u, cfg


def gmm_pair(i, rng):
    K, d = 1 + i % 4, int(rng.integers(1, 4))
    return rng.normal(size=d) * 2.0, random_gmm(K, d, rng), random_gmm(K, d, rng)


def hmm_pair(i, rng):
    M = HMM_STATES[i % len(HMM_STATES)]
    n_symbols = int(rng.integers(2, 7))
    L = (1, 2, 3, 7, 20)[i % 5]
    bp = HmmBackend(random_hmm_params(M, n_symbols, rng))
    bm = HmmBackend(random_hmm_params(M, n_symbols, rng))
    return rng.integers(0, n_symbols, size=L), bp, bm


class TestSamplerMatchesLoop:
    @pytest.mark.parametrize(
        "make_pair,n_cases,seed", [(gmm_pair, 120, 71), (hmm_pair, 120, 72)], ids=["gmm", "hmm"]
    )
    def test_bit_identical_sets_and_stream(self, make_pair, n_cases, seed):
        degraded = 0
        for i, case in enumerate(sampler_cases(make_pair, n_cases, seed)):
            degraded += sample_both(i, *case).degraded
        assert 0 < degraded < n_cases

    @pytest.mark.parametrize("make_pair,seed", [(gmm_pair, 77), (hmm_pair, 78)], ids=["gmm", "hmm"])
    def test_saturated_tilt_ties_keep_order(self, make_pair, seed):
        """Margins far past the tail make phi_tail exactly 1, so most proposals
        share the exponent -C and none is accepted.  The fallback must then
        keep the loop's tie order: accepted rows, then the heap's list."""
        rng = np.random.default_rng(seed)
        distinct_ties = 0
        for i in range(60):
            x, bp, bm = make_pair(i, rng)
            n_draws = int(rng.integers(2, 9))
            budget = int(rng.integers(n_draws, 4 * n_draws + 1))
            cfg = TiltConfig(C=60.0, n_draws=n_draws, max_attempts=budget)
            u = rng.normal(size=bp.block_dim() + bm.block_dim() + 1) * 300.0
            new = sample_both(i, x, (1, -1)[i % 2], bp, bm, u, cfg)
            tied = new.phi_bar[new.exponents == -cfg.C]
            distinct_ties += len(np.unique(tied, axis=0)) > 1
        assert distinct_ties > 10


class TestPredictorMatchesLoop:
    @pytest.mark.parametrize("make_pair", [gmm_pair, hmm_pair], ids=["gmm", "hmm"])
    def test_bit_identical_votes_and_stream(self, make_pair):
        rng = np.random.default_rng(73)
        for i in range(60):
            x, bp, bm = make_pair(i, rng)
            u = rng.normal(size=bp.block_dim() + bm.block_dim() + 1)
            n = 1 + i % 8
            rng_new, rng_old = np.random.default_rng(i), np.random.default_rng(i)
            (new,) = vote_scores([x], bp, bm, u, n, rng_new).tolist()
            old = ref.vote_scores(x, bp, bm, u, n, rng_old)
            assert [v.hex() for v in new] == [v.hex() for v in old]
            assert rng_new.random() == rng_old.random()


class _Stream:
    """A generator stand-in that hands out fixed uniforms in order."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return float(next(self._values))


def boundary_uniforms(params, posterior, k, rng):
    """Uniforms that put each step's ``total * u`` on, or one ulp beside,
    a step of its running total, following the per-path loop.  A total
    that is off by one ulp moves some of these draws to another state."""
    alphas = posterior.alphas
    L, M = alphas.shape
    uniforms = np.empty((k, L))
    for i in range(k):
        q_next = 0
        for j, t in enumerate(range(L - 1, -1, -1)):
            p = alphas[t] if t == L - 1 else alphas[t] * params.transition[:, q_next]
            cdf, total = np.cumsum(p), p.sum()
            u = cdf[rng.integers(M)] / total
            u = min((np.nextafter(u, 0.0), u, np.nextafter(u, 1.0))[rng.integers(3)], 1.0 - 2**-53)
            uniforms[i, j] = u
            q_next = min(int(np.searchsorted(cdf, total * u)), M - 1)
    return uniforms


def assert_paths_match_loop(params, xs, posts, uniforms):
    """One stacked call on every sequence's block of uniforms against the loop."""
    paths = sample_paths(params, posts, np.concatenate(uniforms))
    rows = (row for block in uniforms for row in block)
    for i, (q, row) in enumerate(zip(paths, rows)):
        x, post = xs[i // len(uniforms[0])], posts[i // len(uniforms[0])]
        assert bits(q) == bits(ref.sample_path(x, params, post, _Stream(row)))


class TestPathsMatchLoop:
    # 9, 17 and 33 states leave a remainder after numpy's eight-wide pairwise
    # blocks; 130 is above its 128-element block, so the sum recurses.
    @pytest.mark.parametrize("M", HMM_STATES + (9, 17, 33, 130))
    def test_random_and_boundary_uniforms(self, M):
        rng = np.random.default_rng(74 + M)
        for L in (1, 2, 5, 30):
            params = random_hmm_params(M, 4, rng)
            for count in (1, 3):  # one sequence, and a stack of three
                xs = [rng.integers(0, 4, size=L) for _ in range(count)]
                posts = forward_backward(xs, params)
                uniforms = [rng.random((8, L)) for _ in xs]
                assert_paths_match_loop(params, xs, posts, uniforms)
                uniforms = [boundary_uniforms(params, post, 40, rng) for post in posts]
                assert_paths_match_loop(params, xs, posts, uniforms)

    @pytest.mark.parametrize("M", (10, 130))
    def test_thousand_row_stack(self, M):
        rng = np.random.default_rng(77 + M)
        L = 12
        params = random_hmm_params(M, 4, rng)
        x = rng.integers(0, 4, size=L)
        posts = forward_backward([x], params)
        for uniforms in (rng.random((1200, L)), boundary_uniforms(params, posts[0], 1200, rng)):
            assert_paths_match_loop(params, [x], posts, [uniforms])


class TestForwardBackwardXi:
    def test_broadcast_equals_per_step_loop(self):
        rng = np.random.default_rng(75)
        for i in range(300):
            M, L = int(rng.integers(1, 12)), (1, 2, 3, int(rng.integers(4, 60)))[i % 4]
            params = random_hmm_params(M, 5, rng)
            x = rng.integers(0, 5, size=L)
            xi = forward_backward([x], params)[0].xi
            assert xi.shape == (L - 1, M, M)
            assert bits(xi) == bits(ref.xi_loop(x, params))


class TestLogSumExp:
    def test_matches_scipy_bit_for_bit(self):
        rng = np.random.default_rng(76)
        for n in range(1, 13):
            v = rng.normal(size=(400, n)) * rng.choice([0.1, 5.0, 300.0], size=(400, 1))
            for row in v[::3]:  # ties at the maximum, and repeated values below it
                row[rng.integers(n, size=n // 2 + 1)] = row.max()
                row[rng.integers(n, size=n // 3)] = row.min()
            got = _logsumexp(v)
            assert [x.hex() for x in got.tolist()] == [float(logsumexp(r)).hex() for r in v]

    def test_non_finite_rows_take_the_fallback_row_by_row(self):
        inf, nan = np.inf, np.nan
        v = np.array(
            [
                [-inf, -inf, -inf],
                [-inf, 0.5, -inf],
                [inf, 1.0, -inf],
                [inf, inf, 2.0],
                [nan, 1.0, 2.0],
                [3.0, 3.0, -inf],
                [-2.0, 4.0, 4.0],
            ]
        )
        with np.errstate(all="ignore"):
            got = _logsumexp(v)
            expected = [ref.logsumexp_row(row) for row in v]
        assert bits(got) == bits(np.array(expected))


def random_task(make_pair, rng):
    _, bp, bm = make_pair(int(rng.integers(100)), rng)
    dim = bp.block_dim() + bm.block_dim() + 1
    return TrainedTask(
        u0=np.zeros(dim),
        u=rng.normal(size=dim),
        C=1.0,
        backend_plus=bp,
        backend_minus=bm,
        history=[],
    )


def gmm_inputs(task, count, rng):
    return list(rng.normal(size=(count, task.backend_plus.params.dim)) * 2.0)


def hmm_inputs(task, count, rng, lengths=(1, 2, 3, 7, 20)):
    n_symbols = task.backend_plus.params.n_symbols
    return [rng.integers(0, n_symbols, size=int(L)) for L in rng.choice(lengths, size=count)]


def reference_predictions(xs, task, n, rng):
    """(votes, score, label) of each input, predicted one at a time by the per-draw loop."""
    out = []
    for x in xs:
        votes = ref.vote_scores(x, task.backend_plus, task.backend_minus, task.u, n, rng)
        score = float(np.mean(votes))
        out.append((votes, score, 1 if score >= 0 else -1))
    return out


def assert_predictions_match(new, old):
    assert len(new) == len(old)
    for p, (votes, score, label) in zip(new, old):
        assert [v.hex() for v in p.votes] == [v.hex() for v in votes]
        assert p.score.hex() == score.hex()
        assert p.label == label


CASES = [(gmm_pair, gmm_inputs), (hmm_pair, hmm_inputs)]


class TestFilePredictionMatchesLoop:
    # 12 votes take numpy's eight-wide pairwise sum for the mean.
    @pytest.mark.parametrize("n", [1, 5, 12])
    @pytest.mark.parametrize("make_pair,make_inputs", CASES, ids=["gmm", "hmm"])
    def test_one_stack_equals_inputs_one_at_a_time(self, make_pair, make_inputs, n):
        rng = np.random.default_rng(81 + n)
        for trial in range(6):
            task = random_task(make_pair, rng)
            xs = make_inputs(task, 30, rng)
            rng_new, rng_old = np.random.default_rng(trial), np.random.default_rng(trial)
            new = predict(xs, task, n, rng_new)
            assert_predictions_match(new, reference_predictions(xs, task, n, rng_old))
            assert rng_new.random() == rng_old.random()

    def test_mixed_lengths_include_length_one(self):
        rng = np.random.default_rng(85)
        task = random_task(hmm_pair, rng)
        xs = hmm_inputs(task, 25, rng, lengths=(1, 4))
        assert {len(x) for x in xs} == {1, 4}
        new = predict(xs, task, 3, np.random.default_rng(0))
        assert_predictions_match(new, reference_predictions(xs, task, 3, np.random.default_rng(0)))

    @pytest.mark.parametrize("make_pair,make_inputs", CASES, ids=["gmm", "hmm"])
    def test_evaluate_crosses_block_boundaries(self, make_pair, make_inputs, monkeypatch):
        monkeypatch.setattr(sampler, "BLOCK_ROWS", 7)
        rng = np.random.default_rng(86)
        task = random_task(make_pair, rng)
        xs = make_inputs(task, 11, rng)
        dataset = list(zip(xs, rng.choice([-1, 1], size=len(xs)).tolist()))
        assert len(sampler.blocks(len(xs), 3)) == 6
        rng_new, rng_old = np.random.default_rng(1), np.random.default_rng(1)
        old = reference_predictions(xs, task, 3, rng_old)
        expected = sum(label == y for (_, _, label), (_, y) in zip(old, dataset)) / len(xs)
        assert evaluate(dataset, task, 3, rng_new) == expected
        assert rng_new.random() == rng_old.random()

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("kind", ["gmm", "hmm"])
    def test_predict_command_crosses_block_boundaries(self, kind, n, tmp_path, monkeypatch):
        """The predict command's rows equal the per-input loop's on a file
        of more rows than one block holds, with the stream running on
        across the blocks."""
        monkeypatch.setattr(sampler, "BLOCK_ROWS", 5)
        rng = np.random.default_rng(87 + n)
        labels = rng.choice(["a", "b"], size=13).tolist()
        if kind == "gmm":
            task = random_task(gmm_pair, rng)
            xs = gmm_inputs(task, 13, rng)
            lines = [",".join(repr(float(v)) for v in x) + f",{y}" for x, y in zip(xs, labels)]
            save_model(str(tmp_path / "m.bin"), task, "gmm")
        else:
            task = random_task(hmm_pair, rng)
            alphabet = "ABCDEFG"[: task.backend_plus.params.n_symbols]
            xs = hmm_inputs(task, 13, rng, lengths=(2, 3, 9))
            lines = [f"{y}," + "".join(alphabet[t] for t in x) for x, y in zip(xs, labels)]
            save_model(str(tmp_path / "m.bin"), task, "hmm", alphabet=alphabet)
        assert len(sampler.blocks(len(xs), n)) > 2
        (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
        settings = [f"data.path={tmp_path / 'data.csv'}", f"run.output_dir={tmp_path / 'out'}",
                    f"predict.n={n}", "trainer.seed=17", f"run.backend={kind}"]
        argv = ["predict", "--model", str(tmp_path / "m.bin")]
        for setting in settings:
            argv += ["--set", setting]
        assert main(argv) == 0
        old = reference_predictions(xs, task, n, derive_rng(17, 901))
        expected = ["index,score,label"] + [
            f"{i},{_format_float(score)},{label}" for i, (_, score, label) in enumerate(old)
        ]
        assert (tmp_path / "out" / "predictions.csv").read_text().splitlines() == expected


POSTERIOR_FIELDS = ("alphas", "gamma", "xi", "transition_post", "log_likelihood")


class TestStackedPosteriorsMatchLoop:
    @pytest.mark.parametrize("M", (1, 2, 5, 8, 9, 17, 33))
    def test_hmm_mixed_lengths(self, M):
        rng = np.random.default_rng(88 + M)
        for prob_floor in (1e-8, 0.0):
            params = random_hmm_params(M, 6, rng)
            lengths = rng.choice([1, 2, 3, 7, 30, 61], size=40)
            xs = [rng.integers(0, 6, size=int(L)) for L in lengths]
            backend = HmmBackend(params, prob_floor)
            for idx in sampler.width_groups(xs, backend, backend)[1]:
                posts = backend.approx_posterior([xs[i] for i in idx])
                assert posts.log_likelihood.shape == (len(idx),)
                for i, post in zip(idx, posts):
                    old = ref.forward_backward(xs[i], params, prob_floor)
                    assert_same_fields(post, old, POSTERIOR_FIELDS)

    def test_hmm_unused_state_keeps_uniform_row(self):
        """A state with no visit mass keeps its uniform posterior transition
        row, in a stack as alone."""
        params = HmmParams(
            initial=np.array([1.0, 0.0, 0.0]),
            transition=np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]),
            emission=np.full((3, 2), 0.5),
        )
        for xs in ([np.array([0, 1, 1]), np.array([1, 0, 0])], [np.array([0])]):
            for x, post in zip(xs, forward_backward(xs, params, prob_floor=0.0)):
                assert_same_fields(post, ref.forward_backward(x, params, 0.0), POSTERIOR_FIELDS)
                assert post.transition_post[2].tolist() == [1 / 3] * 3

    @pytest.mark.parametrize("K,d", [(1, 1), (3, 2), (4, 9), (6, 20)])
    def test_gmm_ties_and_non_finite_rows(self, K, d):
        rng = np.random.default_rng(89 + K * d)
        backend = random_gmm(K, d, rng)
        p = backend.params
        if K > 1:  # two identical components: every row has tied log terms
            p.means[1], p.variances[1] = p.means[0], p.variances[0]
            p.weights[:2] = p.weights[:2].mean()
        X = rng.normal(size=(60, d)) * 2.0
        X[::7] = p.means[0]  # a tie at the maximum
        X[3::11] = 1e200  # every log term -inf: the logsumexp fallback
        X[5::13, 0] = 1e170  # far from every component
        with np.errstate(all="ignore"):
            got = backend.approx_posterior(list(X))
            expected = [ref.responsibilities(x, p, backend.posterior_floor) for x in X]
        assert got.shape == (60, K)
        for row, old in zip(got, expected):
            assert bits(row) == bits(old)
        if K > 1:
            assert np.isnan(got[3]).all()


def pass_examples(make_pair, make_inputs, m_l, m_u, rng):
    task = random_task(make_pair, rng)
    xs = make_inputs(task, m_l + m_u, rng)
    labels = rng.choice([-1, 1], size=m_l).tolist()
    return list(zip(xs[:m_l], labels)), xs[m_l:], task


def assert_pass_matches_loop(S_l, S_u, bp, bm, u, cfg, seed=5, key=(1, 0)):
    """One sampling pass against each example sampled alone by the per-draw loop."""
    sets_l, sets_u = _sample_sets(S_l, S_u, bp, bm, u, cfg, seed, *key)
    assert (len(sets_l), len(sets_u)) == (len(S_l), len(S_u))
    examples = S_l + [(x, None) for x in S_u]
    for i, ((x, y), new) in enumerate(zip(examples, sets_l + sets_u)):
        old = ref.rejection_sample(x, y, bp, bm, u, cfg, derive_rng(seed, *key, i))
        assert_same_fields(new, old, [f.name for f in dataclasses.fields(HiddenSampleSet)])
    return sets_l + sets_u


class TestSamplingPassMatchesLoop:
    @pytest.mark.parametrize("m_u", [0, 6])
    @pytest.mark.parametrize("make_pair,make_inputs", CASES, ids=["gmm", "hmm"])
    def test_pass_equals_examples_one_at_a_time(self, make_pair, make_inputs, m_u):
        """Every example's first chunk proposed and tilted in one stack, each
        example's sampler continuing from its own: the same sets as each
        example alone, with some examples falling back to the degraded path."""
        rng = np.random.default_rng(90 + m_u)
        degraded = total = 0
        for trial in range(4):
            S_l, S_u, task = pass_examples(make_pair, make_inputs, 14, m_u, rng)
            cfg = TiltConfig(
                C=(4.0, 60.0)[trial % 2], n_draws=3, max_attempts=int(rng.integers(3, 10))
            )
            sets = assert_pass_matches_loop(
                S_l, S_u, task.backend_plus, task.backend_minus, task.u * 3.0, cfg, key=(1, trial)
            )
            degraded += sum(s.degraded for s in sets)
            total += len(sets)
        assert 0 < degraded < total

    @pytest.mark.parametrize("make_pair,make_inputs", CASES, ids=["gmm", "hmm"])
    def test_untilted_pass_accepts_every_first_chunk(self, make_pair, make_inputs):
        """C = 0, as in the prior-mean fit: every example keeps its first chunk."""
        rng = np.random.default_rng(93)
        S_l, S_u, task = pass_examples(make_pair, make_inputs, 9, 5, rng)
        cfg = TiltConfig(C=0.0, n_draws=4)
        sets = assert_pass_matches_loop(S_l, S_u, task.backend_plus, task.backend_minus, task.u, cfg)
        assert all(s.attempts == 4 and s.acceptance_rate == 1.0 for s in sets)

    @pytest.mark.parametrize("make_pair,make_inputs", CASES, ids=["gmm", "hmm"])
    def test_budget_of_one_chunk(self, make_pair, make_inputs):
        """max_attempts == n_draws: the first chunk is the whole budget, and
        degraded sets are made from it alone."""
        rng = np.random.default_rng(94)
        degraded = total = 0
        for trial in range(3):
            S_l, S_u, task = pass_examples(make_pair, make_inputs, 10, 4, rng)
            cfg = TiltConfig(C=(0.7, 4.0, 60.0)[trial], n_draws=4, max_attempts=4)
            sets = assert_pass_matches_loop(
                S_l, S_u, task.backend_plus, task.backend_minus, task.u * 3.0, cfg, key=(2, trial)
            )
            assert all(s.attempts == 4 for s in sets)
            degraded += sum(s.degraded for s in sets)
            total += len(sets)
        assert 0 < degraded < total

    def test_length_groups_mix_labels_and_unlabeled(self):
        """Sequences of lengths 1, 2 and 5, each length shared by +1, -1 and
        unlabeled examples, across more stacks than one block holds."""
        rng = np.random.default_rng(95)
        task = random_task(hmm_pair, rng)
        xs = hmm_inputs(task, 36, rng, lengths=(1, 2, 5))
        S_l = list(zip(xs[:24], [1, -1] * 12))
        S_u = xs[24:]
        for L in (1, 2, 5):
            mixed = [y for x, y in S_l if len(x) == L] + [None for x in S_u if len(x) == L]
            assert {1, -1, None} <= set(mixed), L
        cfg = TiltConfig(C=4.0, n_draws=3, max_attempts=9)
        for block_rows in (sampler.BLOCK_ROWS, 7):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sampler, "BLOCK_ROWS", block_rows)
                assert_pass_matches_loop(
                    S_l, S_u, task.backend_plus, task.backend_minus, task.u * 3.0, cfg
                )

    @pytest.mark.parametrize("make_pair,make_inputs", CASES, ids=["gmm", "hmm"])
    def test_untilted_pass_proposes_once_per_stack(self, make_pair, make_inputs, monkeypatch):
        """In a C = 0 pass every example accepts its first chunk, so the only
        proposals are one stacked call per width group and block."""
        monkeypatch.setattr(sampler, "BLOCK_ROWS", 8)
        rng = np.random.default_rng(96)
        S_l, S_u, task = pass_examples(make_pair, make_inputs, 15, 7, rng)
        bp, bm = task.backend_plus, task.backend_minus
        calls = []
        propose = sampler.propose
        monkeypatch.setattr(
            sampler, "propose", lambda xs, *args: calls.append(len(xs)) or propose(xs, *args)
        )
        _sample_sets(S_l, S_u, bp, bm, task.u, TiltConfig(C=0.0, n_draws=3), 5, 0)
        xs = [x for x, _ in S_l] + S_u
        widths = [bp.uniforms_per_draw(x) + bm.uniforms_per_draw(x) for x in xs]
        groups = [widths.count(w) for w in dict.fromkeys(widths)]
        assert len(calls) == sum(len(sampler.blocks(size, 3)) for size in groups)
        assert len(calls) < len(xs) and sum(calls) == len(xs)
        assert max(calls) <= sampler.BLOCK_ROWS // 3

    @pytest.mark.parametrize("make_pair,make_inputs", CASES, ids=["gmm", "hmm"])
    def test_budget_not_a_multiple_of_the_round(self, make_pair, make_inputs, monkeypatch):
        """n_draws = 4 with budgets of 6, 9 and 11 attempts: the last round is
        cut to the budget left, and examples short by less than a round's k
        draw attempts they never take."""
        rng = np.random.default_rng(98)
        rows = []
        chunks = sampler.chunks
        monkeypatch.setattr(
            sampler, "chunks", lambda xs, *a: rows.append(len(xs) * a[-1]) or chunks(xs, *a)
        )
        for trial, budget in enumerate((6, 9, 11)):
            S_l, S_u, task = pass_examples(make_pair, make_inputs, 12, 5, rng)
            cfg = TiltConfig(C=8.0, n_draws=4, max_attempts=budget)
            rows.clear()
            sets = assert_pass_matches_loop(
                S_l, S_u, task.backend_plus, task.backend_minus, task.u * 3.0, cfg, key=(3, trial)
            )
            assert any(s.attempts == budget for s in sets)
            assert sum(rows) > sum(s.attempts for s in sets)

    @pytest.mark.parametrize("make_pair,make_inputs", CASES, ids=["gmm", "hmm"])
    def test_later_rounds_stack_every_short_example(self, make_pair, make_inputs, monkeypatch):
        """In a tilted pass every round proposes once per block, for exactly
        the examples of the block still short of draws."""
        rng = np.random.default_rng(99)
        S_l, S_u, task = pass_examples(make_pair, make_inputs, 14, 6, rng)
        bp, bm = task.backend_plus, task.backend_minus
        calls = []  # (inputs, attempts per input) of each proposal
        propose = sampler.propose
        monkeypatch.setattr(
            sampler,
            "propose",
            lambda xs, *a: calls.append((len(xs), len(a[-1]) // len(xs))) or propose(xs, *a),
        )
        cfg = TiltConfig(C=6.0, n_draws=3, max_attempts=12)
        sets = assert_pass_matches_loop(S_l, S_u, bp, bm, task.u * 3.0, cfg)
        xs = [x for x, _ in S_l] + S_u
        p, later = 0, []
        for group in sampler.width_groups(xs, bp, bm)[1]:
            drawn = 0  # attempts drawn per short example so far
            while (short := sum(sets[i].attempts > drawn for i in group)) and drawn < 12:
                assert calls[p][0] == short
                later += [short] if drawn else []
                drawn += calls[p][1]
                p += 1
        assert p == len(calls)
        assert max(later) >= 2


class TestWidthGroups:
    def test_groups_partition_inputs_by_length_in_first_appearance_order(self):
        rng = np.random.default_rng(97)
        task = random_task(hmm_pair, rng)
        bp, bm = task.backend_plus, task.backend_minus
        xs = hmm_inputs(task, 30, rng, lengths=(1, 2, 5, 9))
        widths, groups = sampler.width_groups(xs, bp, bm)
        assert widths == [bp.uniforms_per_draw(x) + bm.uniforms_per_draw(x) for x in xs]
        assert sorted(i for idx in groups for i in idx) == list(range(len(xs)))
        for idx in groups:
            assert idx == sorted(idx)
            assert len({len(xs[i]) for i in idx}) == 1
        assert [idx[0] for idx in groups] == sorted(idx[0] for idx in groups)
        assert len(groups) == len({len(x) for x in xs})


def per_draw(pairs):
    """The (x, h, 1.0) triples, one per draw, of (x, draws) pairs."""
    return [(x, h, 1.0) for x, draws in pairs for h in draws]


class TestStackedMStepsMatchPerDraw:
    @pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
    def test_gmm_components_with_and_without_draws(self, K):
        rng = np.random.default_rng(110 + K)
        emptied = 0
        for trial in range(20):
            d = int(rng.integers(1, 5))
            prev = random_gmm(K, d, rng).params
            drawn = rng.permutation(K)[: int(rng.integers(1, K + 1))]
            pairs = []
            for _ in range(int(rng.integers(1, 12))):
                z = np.zeros((int(rng.integers(1, 7)), K))
                z[np.arange(len(z)), rng.choice(drawn, size=len(z))] = 1.0
                pairs.append((rng.normal(size=d) * 3.0, z))
            floor = np.full(d, (1e-8, 0.5)[trial % 2])
            backend = GmmBackend(prev, variance_floor=floor)
            backend.update_parameters(pairs)
            old = ref.m_step_gmm(per_draw(pairs), prev, floor)
            assert_same_fields(backend.params, old, ("weights", "means", "variances"))
            empty = np.flatnonzero(sum(z.sum(axis=0) for _, z in pairs) == 0)
            assert bits(backend.params.means[empty]) == bits(prev.means[empty])
            emptied += empty.size > 0
        assert emptied > 0 or K == 1

    @pytest.mark.parametrize("M", [1, 2, 5, 8, 9, 16])
    def test_hmm_mixed_lengths_and_unvisited_states(self, M):
        rng = np.random.default_rng(120 + M)
        unvisited = 0
        for trial in range(20):
            n_symbols = int(rng.integers(1, 8))
            prev = random_hmm_params(M, n_symbols, rng)
            # Paths and tokens from subsets leave states and symbols unvisited.
            states = rng.permutation(M)[: int(rng.integers(1, M + 1))]
            symbols = rng.permutation(n_symbols)[: int(rng.integers(1, n_symbols + 1))]
            pairs = []
            for L in rng.choice([1, 2, 3, 7, 15], size=int(rng.integers(1, 10))):
                x = rng.choice(symbols, size=int(L))
                pairs.append((x, rng.choice(states, size=(int(rng.integers(1, 7)), int(L)))))
            prob_floor = (1e-8, 0.0)[trial % 2]
            backend = HmmBackend(prev, prob_floor)
            backend.update_parameters(pairs)
            old = ref.m_step_hmm(per_draw(pairs), prev, prob_floor)
            assert_same_fields(backend.params, old, ("initial", "transition", "emission"))
            unvisited += len(states) < M or len(symbols) < n_symbols
        assert unvisited > 0


class TestTiltExponents:
    @pytest.mark.parametrize("C", [0.0, 0.7, 60.0])
    def test_mixed_labels_equal_per_row_exponents(self, C):
        rng = np.random.default_rng(130)
        k, D = 40, 9
        phi = rng.normal(size=(k, D))
        phi_bar = phi / np.linalg.norm(phi, axis=1, keepdims=True)
        labels = rng.choice([1, -1, 0], size=k)
        u = rng.normal(size=D) * 4.0
        cfg = TiltConfig(C=C)
        got = sampler.tilt_exponents(phi_bar, labels, u, cfg)
        expected = [
            ref.tilt_exponent(ref.Feature(row, row), None if y == 0 else int(y), u, cfg)
            for row, y in zip(phi_bar, labels)
        ]
        assert [v.hex() for v in got.tolist()] == [float(v).hex() for v in expected]
        assert {1, -1, 0} <= set(labels.tolist())
