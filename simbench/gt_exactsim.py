"""gt-exactsim: the paper's query through the in-process answer loop.

One client, closed loop: each request is one ExactSim single-source query
on a distinct seeded source, taken through ``parse_wire_line`` ->
``QueryPlanner.answer`` -> ``outcome_to_wire`` -> ``json.dumps`` (the path
of ``answer`` without ``--workers``).  Every answer's full vector is checked
against the power method: an error above ε is a wrong answer.

Phase 2 is >= 97% of a query here, so a change to the walk-pair sampling
shows on this workload while the serving layers sit idle.  Per-source cost
ranges 320-911 ms on GQ, so a run keeps going until it has answered
MIN_REQUESTS sources, after WARMUP queries that fill the engine-lifetime
visit-distribution cache.
"""

from __future__ import annotations

import json
import time
from statistics import median

import numpy as np

from common import (EPSILON, TraceError, environment, exactsim_layers,
                    fixed_tail, ground_truth, instrument_layers,
                    latency_metrics, load_graph, max_abs_error, median_ms,
                    method_configs, overhead_share, peak_rss_mb,
                    result_error, root_unattributed)
from tracer import SpanIndex, Tracer

#: Per-layer metrics a traced run must measure.
LAYERS = ("ppr.hop_ppr_ms", "diagonal.estimate_ms", "diagonal.exploit_ms",
          "randomwalk.pair_meet_ms", "randomwalk.pair_meet_calls",
          "randomwalk.group_sum_ms", "randomwalk.group_sum_calls",
          "core.back_substitute_ms", "core.walk_pairs",
          "core.samples_capped_share", "kernels.spmm_ms", "kernels.spmm_calls",
          "frontend.parse_ms", "planner.answer_ms", "planner.serialize_ms",
          "planner.cache_hit_share", "trace.exactsim_phase_share",
          "trace.unattributed_share", "trace.overhead_share")
#: The three phase spans must cover at least this share of a traced
#: ExactSim answer, or the phase metrics no longer describe the query.
MIN_PHASE_SHARE = 0.95
MIN_REQUESTS = 40
TAIL = fixed_tail(MIN_REQUESTS)
WARMUP = 16
SETUPS = 5
#: Setup answers this fixed source, so setup time does not depend on the
#: seed's sources (whose cost varies almost 3x).
SETUP_SOURCE = 0


def _line(source: int) -> str:
    return json.dumps({"type": "single_source", "source": int(source)})


def _new_planner(graph):
    from repro.graph.context import GraphContext
    from repro.service.planner import QueryPlanner

    # A private context, so no transition matrix survives from an earlier
    # set-up: each one pays the whole cold start.
    return QueryPlanner(graph, context=GraphContext(graph),
                        default_method="exactsim",
                        method_configs=method_configs())


def answer_line(planner, line: str, num_nodes: int, tracer: Tracer):
    """One request through the in-process answer loop."""
    from repro.service import frontend, planner as planner_module

    with tracer.span("request"):
        kind, query = frontend.parse_wire_line(line, num_nodes)
        if kind != "query":
            return query, None, None
        outcome = planner.answer([query])[0]
        with tracer.span("planner.serialize"):
            text = json.dumps(planner_module.outcome_to_wire(
                outcome, graph_version=planner.graph_version))
    return query, outcome, text


def run(bench) -> dict:
    graph = load_graph()
    num_nodes = graph.num_nodes
    bench.note("environment", environment(bench.root, bench.seed, 0, graph))
    truth = ground_truth(graph)
    tracer = Tracer()
    if bench.trace:
        instrument_layers(tracer)

    rng = np.random.default_rng(bench.seed)
    sources = [int(s) for s in rng.permutation(np.arange(1, num_nodes))]

    setup_seconds = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        planner = _new_planner(graph)
        _query, outcome, _text = answer_line(planner, _line(SETUP_SOURCE),
                                             num_nodes, tracer)
        setup_seconds.append(time.perf_counter() - start)
        if outcome is None or not outcome.ok:
            raise RuntimeError("set-up query failed")

    for source in sources[:WARMUP]:
        answer_line(planner, _line(source), num_nodes, tracer)

    latencies, traced, untraced, errors = [], [], [], []
    walk_pairs, capped = [], []
    failed = 0
    position = WARMUP
    began = time.perf_counter()
    while len(latencies) < MIN_REQUESTS \
            or time.perf_counter() - began < bench.seconds:
        source = sources[position]
        position += 1
        request = len(latencies)
        tracer.enabled = bench.trace and request % 2 == 0
        tracer.request = request
        start = time.perf_counter()
        query, outcome, text = answer_line(planner, _line(source), num_nodes,
                                           tracer)
        elapsed = time.perf_counter() - start
        tracer.enabled = False
        latencies.append(elapsed)
        (traced if request % 2 == 0 else untraced).append(elapsed)
        if outcome is None or not outcome.ok:
            failed += 1
            continue
        payload = json.loads(text)
        error = result_error(query, outcome.result, truth)
        errors.append(error)
        if payload.get("source") != source or "error" in payload \
                or error > EPSILON:
            failed += 1
        if request % 2 == 0:
            walk_pairs.append(outcome.result.stats["samples_realised"])
            capped.append(outcome.result.stats["samples_capped"])
    wall = time.perf_counter() - began

    attempted = len(latencies)
    bench.note("requests", {"attempted": attempted, "failed": failed,
                            "tail_percentile": TAIL / 10.0,
                            "worst_answer_error": max(errors, default=None),
                            "setup_samples_s": setup_seconds})
    metrics = {}
    if bench.trace:
        spans = SpanIndex(tracer.spans)
        metrics.update(exactsim_layers(spans))
        if metrics["trace.exactsim_phase_share"] < MIN_PHASE_SHARE:
            raise TraceError(
                f"the ExactSim phase spans cover only "
                f"{metrics['trace.exactsim_phase_share']:.3f} of a query "
                f"(at least {MIN_PHASE_SHARE} expected)")
        stats = planner.stats()
        metrics.update({
            "core.walk_pairs": median(walk_pairs),
            "core.samples_capped_share": sum(capped) / len(capped),
            "frontend.parse_ms": median_ms(spans, "frontend.parse"),
            "planner.serialize_ms": median_ms(spans, "planner.serialize"),
            "planner.cache_hit_share": stats["cache_routes"]
            / max(stats["queries"], 1.0),
            "trace.unattributed_share": root_unattributed(spans, "request"),
            "trace.overhead_share": overhead_share(traced, untraced),
        })
    else:
        metrics.update(latency_metrics(latencies, TAIL))
        metrics.update({
            "setup_s": median(setup_seconds),
            "throughput_qps": attempted / wall,
            "success_rate": 1.0 - failed / attempted,
            "max_abs_error": max_abs_error(errors),
            "memory_mb": peak_rss_mb(),
        })
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
