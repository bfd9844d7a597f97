"""Spans and counters around the package's layer boundaries, installed from outside.

The package imports most names with ``from ... import``, so each wrapper
is bound where the caller looks the name up (``pacgibbs.trainer.grad_u``,
not ``pacgibbs.bounds.grad_u``), and backend methods are patched on the
backend classes.  A name that no longer exists raises AttributeError at
install time, so a rename fails the run instead of reading as zero.

A span records calls, total time and self time (its duration minus the
time covered by spans it caused).  Everything stays in memory and is
written as JSON when the traced command ends.  The package is run
single-threaded, so one stack of open spans suffices.
"""

from __future__ import annotations

import functools
import json
import os
import time


class Tracer:
    def __init__(self):
        self.spans: dict[str, dict] = {}
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self._open: list[float] = []  # child time accumulated by each open span

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def span(self, name: str, fn, after=None, keep_samples: bool = False):
        """Wrap ``fn`` in a span; ``after(result, args)`` runs on success."""
        stats = self.spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0})
        samples = self.samples.setdefault(name, []) if keep_samples else None
        open_spans = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stats["errors"] += 1
                raise
            finally:
                duration = time.perf_counter() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
                stats["calls"] += 1
                stats["total_s"] += duration
                stats["self_s"] += duration - children
                if samples is not None:
                    samples.append(duration)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """Wrap ``fn`` so that it only counts its calls (no span, little cost)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, "samples": self.samples}, fh)


def install(tracer: Tracer) -> None:
    """Patch every traced name; raises AttributeError if one is missing."""
    from pacgibbs import bounds, cli, predictor, sampler, trainer
    from pacgibbs.gmm import GmmBackend
    from pacgibbs.hmm import HmmBackend

    def patch(owner, attr, name, **kw):
        setattr(owner, attr, tracer.span(name, getattr(owner, attr), **kw))

    def count_patch(owner, attr, name):
        setattr(owner, attr, tracer.counter(name, getattr(owner, attr)))

    def after_rows(_result, args):
        # surrogate_objective / grad_u(labeled, unlabeled, u, u0, C, m, m_l, m_u, n)
        tracer.add("bounds.rows", args[8] * (len(args[0]) + len(args[1])))

    def after_train(task, _args):
        tracer.add("trainer.outer_iters", len(task.history))

    def after_sample(s, _args):
        tracer.add("sampler.proposals", s.attempts)
        tracer.add("sampler.accepted", round(s.acceptance_rate * s.attempts))
        tracer.add("sampler.degraded", int(s.degraded))

    def after_save(_result, args):
        tracer.add("modelio.bytes", os.path.getsize(args[0]))

    def after_load(ds, _args):
        tracer.add("data.rows", len(ds))

    patch(cli, "multi_restart_train", "trainer.multi_restart_train")
    patch(trainer, "train", "trainer.train", after=after_train)
    patch(trainer, "init_u0", "trainer.init_u0")
    patch(trainer, "surrogate_objective", "bounds.surrogate_objective", after=after_rows)
    patch(trainer, "grad_u", "bounds.grad_u", after=after_rows)
    patch(trainer, "empirical_risks", "bounds.empirical_risks")
    patch(trainer, "rejection_sample", "sampler.rejection_sample", after=after_sample)
    patch(sampler, "assemble", "features.assemble")
    patch(predictor, "assemble", "features.assemble")
    patch(cli, "predict", "predictor.predict", keep_samples=True)
    patch(predictor, "predict", "predictor.predict", keep_samples=True)
    patch(cli, "save_model", "modelio.save_model", after=after_save)
    patch(cli, "load_model", "modelio.load_model")
    patch(cli, "load_vectors", "data.load_vectors", after=after_load)
    patch(cli, "load_sequences", "data.load_sequences", after=after_load)
    patch(cli, "make_splits", "data.make_splits")
    patch(cli, "materialize_vector_split", "data.materialize_vector_split")
    patch(cli, "materialize_sequence_split", "data.materialize_sequence_split")
    patch(cli, "_benchmark_unit", "cli.benchmark_unit")
    for cls, layer in ((GmmBackend, "gmm"), (HmmBackend, "hmm")):
        for method in ("approx_posterior", "sample_hidden", "feature_block", "update_parameters"):
            patch(cls, method, f"{layer}.{method}")
    count_patch(bounds, "phi_tail", "numerics.phi_tail")
    count_patch(bounds, "gauss_pdf", "numerics.gauss_pdf")
    count_patch(sampler, "phi_tail", "numerics.phi_tail")
