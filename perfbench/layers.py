"""Per-layer metrics, derived from the spans and counts of one traced cycle.

Metric names are ``<module>.<metric>`` after the ``src/pacgibbs`` module
they measure.  A layer a workload never reaches reads 0.
"""

from __future__ import annotations

import statistics

# (name, unit, better)
METRICS = [
    ("trainer.u0_fit_s", "s", "lower"),
    ("trainer.restart_s", "s", "lower"),
    ("trainer.self_s", "s", "lower"),
    ("trainer.outer_iters", "count", "lower"),
    ("trainer.restarts_aborted", "count", "lower"),
    ("bounds.J_calls", "count", "lower"),
    ("bounds.J_s", "s", "lower"),
    ("bounds.grad_calls", "count", "lower"),
    ("bounds.grad_s", "s", "lower"),
    ("bounds.risks_s", "s", "lower"),
    ("bounds.rows_per_s", "1/s", "higher"),
    ("sampler.calls", "count", "lower"),
    ("sampler.s", "s", "lower"),
    ("sampler.proposals", "count", "lower"),
    ("sampler.accept_ratio", "fraction", "higher"),
    ("sampler.degraded_share", "fraction", "lower"),
    ("sampler.us_per_proposal", "us", "lower"),
    ("hmm.fb_calls", "count", "lower"),
    ("hmm.fb_s", "s", "lower"),
    ("hmm.paths", "count", "lower"),
    ("hmm.path_s", "s", "lower"),
    ("hmm.block_s", "s", "lower"),
    ("hmm.mstep_s", "s", "lower"),
    ("gmm.posterior_calls", "count", "lower"),
    ("gmm.posterior_s", "s", "lower"),
    ("gmm.draw_s", "s", "lower"),
    ("gmm.block_s", "s", "lower"),
    ("gmm.mstep_s", "s", "lower"),
    ("features.assemble_calls", "count", "lower"),
    ("features.assemble_s", "s", "lower"),
    ("numerics.phi_tail_calls", "count", "lower"),
    ("numerics.gauss_pdf_calls", "count", "lower"),
    ("predictor.examples", "count", "higher"),
    ("predictor.s", "s", "lower"),
    ("predictor.p50_ms", "ms", "lower"),
    ("predictor.tail_ms", "ms", "lower"),
    ("predictor.tail_pct", "%", "higher"),
    ("modelio.save_s", "s", "lower"),
    ("modelio.load_s", "s", "lower"),
    ("modelio.bytes", "B", "lower"),
    ("data.load_s", "s", "lower"),
    ("data.rows", "count", "higher"),
    ("data.split_s", "s", "lower"),
    ("cli.units", "count", "higher"),
    ("cli.unit_p50_s", "s", "lower"),
    ("cli.unit_max_s", "s", "lower"),
    ("cli.unit_overlap", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "fraction", "lower"),
    ("trace.wrappers_fired", "count", "higher"),
]

# Span names every workload must reach, and those only some reach.
ALWAYS = {
    "trainer.multi_restart_train", "trainer.train", "trainer.init_u0",
    "bounds.surrogate_objective", "bounds.grad_u", "bounds.empirical_risks",
    "sampler.rejection_sample", "features.assemble", "predictor.predict",
    "modelio.save_model", "modelio.load_model",
}
BY_KIND = {
    "vector": {"data.load_vectors", "gmm.approx_posterior", "gmm.sample_hidden",
               "gmm.feature_block", "gmm.update_parameters"},
    "sequence": {"data.load_sequences", "hmm.approx_posterior", "hmm.sample_hidden",
                 "hmm.feature_block", "hmm.update_parameters"},
}
BENCHMARK_ONLY = {"data.make_splits", "data.materialize_vector_split", "cli.benchmark_unit"}
COUNTERS = ("numerics.phi_tail", "numerics.gauss_pdf")


def expected_spans(kind: str, runs_benchmark: bool) -> set[str]:
    return ALWAYS | BY_KIND[kind] | (BENCHMARK_ONLY if runs_benchmark else set())


def merge(traces: list[dict]) -> dict:
    """Sum the traces of several commands."""
    out = {"spans": {}, "counts": {}, "samples": {}}
    for t in traces:
        for name, s in t["spans"].items():
            acc = out["spans"].setdefault(name, dict.fromkeys(s, 0))
            for k, v in s.items():
                acc[k] += v
        for name, v in t["counts"].items():
            out["counts"][name] = out["counts"].get(name, 0) + v
        for name, v in t["samples"].items():
            out["samples"].setdefault(name, []).extend(v)
    return out


def tail_percentile(n: int) -> float:
    """Highest of these percentiles that leaves at least 10 samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10:
            return pct
    return 50.0


def metrics(trace: dict, unit_walls: list[float], benchmark_wall: float | None) -> dict:
    spans, counts = trace["spans"], trace["counts"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(*names):
        return sum(spans.get(n, {}).get("total_s", 0.0) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    trainer = ("trainer.multi_restart_train", "trainer.train", "trainer.init_u0")
    proposals = counts.get("sampler.proposals", 0)
    j_s, grad_s = total("bounds.surrogate_objective"), total("bounds.grad_u")
    latencies = sorted(trace["samples"].get("predictor.predict", []))
    pct = tail_percentile(len(latencies))

    def percentile(p):
        if not latencies:
            return 0.0
        return 1e3 * latencies[min(len(latencies) - 1, int(p / 100.0 * len(latencies)))]

    return {
        "trainer.u0_fit_s": total("trainer.init_u0"),
        "trainer.restart_s": ratio(total("trainer.train"), calls("trainer.train")),
        "trainer.self_s": sum(spans.get(n, {}).get("self_s", 0.0) for n in trainer),
        "trainer.outer_iters": counts.get("trainer.outer_iters", 0),
        "trainer.restarts_aborted": spans.get("trainer.train", {}).get("errors", 0),
        "bounds.J_calls": calls("bounds.surrogate_objective"),
        "bounds.J_s": j_s,
        "bounds.grad_calls": calls("bounds.grad_u"),
        "bounds.grad_s": grad_s,
        "bounds.risks_s": total("bounds.empirical_risks"),
        "bounds.rows_per_s": ratio(counts.get("bounds.rows", 0), j_s + grad_s),
        "sampler.calls": calls("sampler.rejection_sample"),
        "sampler.s": total("sampler.rejection_sample"),
        "sampler.proposals": proposals,
        "sampler.accept_ratio": ratio(counts.get("sampler.accepted", 0), proposals),
        "sampler.degraded_share": ratio(
            counts.get("sampler.degraded", 0), calls("sampler.rejection_sample")
        ),
        "sampler.us_per_proposal": 1e6 * ratio(total("sampler.rejection_sample"), proposals),
        "features.assemble_calls": calls("features.assemble"),
        "features.assemble_s": total("features.assemble"),
        "numerics.phi_tail_calls": counts.get("numerics.phi_tail", 0),
        "numerics.gauss_pdf_calls": counts.get("numerics.gauss_pdf", 0),
        "predictor.examples": len(latencies),
        "predictor.s": sum(latencies),
        "predictor.p50_ms": percentile(50.0),
        "predictor.tail_ms": percentile(pct),
        "predictor.tail_pct": pct,
        "modelio.save_s": total("modelio.save_model"),
        "modelio.load_s": total("modelio.load_model"),
        "modelio.bytes": counts.get("modelio.bytes", 0),
        "data.load_s": total("data.load_vectors", "data.load_sequences"),
        "data.rows": counts.get("data.rows", 0),
        "data.split_s": total(
            "data.make_splits", "data.materialize_vector_split", "data.materialize_sequence_split"
        ),
        "cli.units": calls("cli.benchmark_unit"),
        "cli.unit_p50_s": statistics.median(unit_walls) if unit_walls else 0.0,
        "cli.unit_max_s": max(unit_walls, default=0.0),
        "cli.unit_overlap": ratio(sum(unit_walls), benchmark_wall or 0.0),
        "hmm.fb_calls": calls("hmm.approx_posterior"),
        "hmm.fb_s": total("hmm.approx_posterior"),
        "hmm.paths": calls("hmm.sample_hidden"),
        "hmm.path_s": total("hmm.sample_hidden"),
        "hmm.block_s": total("hmm.feature_block"),
        "hmm.mstep_s": total("hmm.update_parameters"),
        "gmm.posterior_calls": calls("gmm.approx_posterior"),
        "gmm.posterior_s": total("gmm.approx_posterior"),
        "gmm.draw_s": total("gmm.sample_hidden"),
        "gmm.block_s": total("gmm.feature_block"),
        "gmm.mstep_s": total("gmm.update_parameters"),
        "trace.wrappers_fired": sum(1 for s in spans.values() if s["calls"])
        + sum(1 for c in COUNTERS if counts.get(c)),
    }
