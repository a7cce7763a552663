"""update-mix: queries answered while the graph changes (the ``answer --wal`` path).

An in-process planner holds mc, sling, prsim and linearization indices
built in-process, with a write-ahead log attached.  The closed loop
alternates QUERIES_PER_ROUND queries (Zipf sources, round-robin over
method x kind) with one edge batch, applied as the serving loop applies an
update line: ``parse_wire_line`` -> ``apply_updates`` (WAL append + fsync,
then the new CSR version) -> ``complete_repairs`` (verify-or-rebuild repair
of every index, swap, checkpoint, WAL compaction).

Writes beside reads, after Berkholz et al., *FO+MOD queries under updates*:
repair and the WAL dominate, and the four builds set ``setup_s``.  Every
answer must name a graph version that was applied, and is checked against
the power method on that version.  ``throughput_qps`` counts queries over
the whole loop, update time included, so it moves with update latency.
Each round (its queries and its update) is one measuring window of
``common.QuietWindows``: latency and throughput come from the least-stolen
rounds that cover ``--seconds``, while every answer of every round is
checked.
"""

from __future__ import annotations

import json
import time
from statistics import median

import numpy as np

from common import (TOLERANCE, UPDATE_METHODS, QuietWindows, TraceError,
                    baseline_query_layers, environment, fixed_tail,
                    ground_truth, instrument_layers, latency_metrics,
                    load_graph, max_abs_error, median_ms, method_configs,
                    mixed_query_lines, overhead_share, peak_rss_mb,
                    result_error, root_unattributed)
from gt_exactsim import answer_line
from tracer import REQUEST, SpanIndex, Tracer, ms

#: Per-layer metrics a traced run must measure.
LAYERS = (*(f"baselines.{layer}.{method}" for layer in
            ("query_ms", "repair_ms", "build_s") for method in UPDATE_METHODS),
          "baselines.repair_kept_share", "kernels.spmm_ms",
          "kernels.spmm_calls", "frontend.parse_ms", "planner.answer_ms",
          "planner.serialize_ms", "planner.cache_hit_share",
          "graph.apply_updates_ms", "graph.wal_append_ms",
          "graph.update_latency_s", "trace.unattributed_share",
          "trace.overhead_share")
QUERIES_PER_ROUND = 100
#: A run reports at least MIN_ROUNDS rounds, and reads its peak RSS right
#: after the MIN_ROUNDS-th: the program's memory grows with every applied
#: batch, so a later reading would grow with how long the run measured.
MIN_ROUNDS = 4
MIN_QUERIES = MIN_ROUNDS * QUERIES_PER_ROUND
TAIL = fixed_tail(MIN_QUERIES)
SETUPS = 3
INSERTS = 5
DELETES = 5


def _new_planner(graph, wal_path, tracer: Tracer):
    from repro.graph.context import GraphContext
    from repro.graph.updates import UpdateLog
    from repro.service.planner import QueryPlanner

    for stale in wal_path.parent.glob(wal_path.name + "*"):
        stale.unlink()
    planner = QueryPlanner(graph, context=GraphContext(graph),
                           default_method=UPDATE_METHODS[0],
                           method_configs=method_configs(),
                           wal=UpdateLog(wal_path))
    for method in UPDATE_METHODS:
        with tracer.span("setup"):
            planner.instance(method).ensure_prepared()
    return planner


def _update_line(rng: np.random.Generator, graph) -> str:
    """INSERTS new edges and DELETES existing ones of the current graph."""
    edges = np.array(list(graph.edges()), dtype=np.int64)
    deletes = edges[rng.choice(len(edges), size=DELETES, replace=False)]
    inserts = []
    while len(inserts) < INSERTS:
        source, target = (int(node) for node in
                          rng.integers(graph.num_nodes, size=2))
        if source != target and not graph.has_edge(source, target) \
                and [source, target] not in inserts:
            inserts.append([source, target])
    return json.dumps({"type": "update", "insert": inserts,
                       "delete": deletes.tolist()})


def _apply_update(planner, line: str, num_nodes: int, tracer: Tracer):
    from repro.service import frontend

    with tracer.span("update"):
        kind, batch = frontend.parse_wire_line(line, num_nodes)
        if kind != "update":
            return None
        ack = planner.apply_updates(batch)
        planner.complete_repairs()
    return ack


def run(bench) -> dict:
    graph = load_graph()
    num_nodes = graph.num_nodes
    bench.note("environment", environment(bench.root, bench.seed, 0, graph))
    tracer = Tracer()
    if bench.trace:
        instrument_layers(tracer)
    wal_path = bench.work / "updates.wal"

    setup_seconds = []
    for setup in range(SETUPS):
        tracer.enabled = bench.trace
        tracer.request = f"setup-{setup}"
        start = time.perf_counter()
        planner = None                 # let the previous planner go first
        planner = _new_planner(graph, wal_path, tracer)
        setup_seconds.append(time.perf_counter() - start)
        tracer.enabled = False

    query_rng = np.random.default_rng([bench.seed, 1])
    update_rng = np.random.default_rng([bench.seed, 2])
    versions = {planner.graph_version: planner.graph}
    answers = []              # (query, result, version answered on)
    latencies, traced, untraced, update_seconds = [], [], [], []
    rounds = []               # (first, end) latency index of each round
    failed = 0
    windows = QuietWindows(bench.seconds, MIN_ROUNDS)
    windows.mark()
    while not windows.stopped:
        first = len(latencies)
        for line in mixed_query_lines(query_rng, num_nodes,
                                      QUERIES_PER_ROUND, UPDATE_METHODS):
            request = len(latencies)
            tracer.enabled = bench.trace and request % 2 == 0
            tracer.request = request
            start = time.perf_counter()
            query, outcome, text = answer_line(planner, line, num_nodes,
                                               tracer)
            elapsed = time.perf_counter() - start
            tracer.enabled = False
            latencies.append(elapsed)
            (traced if request % 2 == 0 else untraced).append(elapsed)
            if outcome is None or not outcome.ok:
                failed += 1
                continue
            version = json.loads(text).get("graph_version")
            if version != planner.graph_version or version not in versions:
                failed += 1
                continue
            answers.append((query, outcome.result, version))
        line = _update_line(update_rng, planner.graph)
        expected = planner.graph_version + 1
        tracer.enabled = bench.trace
        tracer.request = f"update-{expected}"
        start = time.perf_counter()
        ack = _apply_update(planner, line, num_nodes, tracer)
        update_seconds.append(time.perf_counter() - start)
        tracer.enabled = False
        if ack is None or ack["graph_version"] != expected \
                or planner.graph_version != expected:
            failed += 1
        versions[planner.graph_version] = planner.graph
        rounds.append((first, len(latencies)))
        if len(rounds) == MIN_ROUNDS:
            memory = peak_rss_mb()
        windows.mark()

    truths = {version: ground_truth(versioned)
              for version, versioned in versions.items()}
    errors = []
    for query, result, version in answers:
        error = result_error(query, result, truths[version])
        errors.append(error)
        if error > TOLERANCE[query.method]:
            failed += 1
    attempted = len(latencies) + len(update_seconds)
    bench.note("requests", {"queries": len(latencies),
                            "updates": len(update_seconds), "failed": failed,
                            "tail_percentile": TAIL / 10.0,
                            "worst_answer_error": max(errors, default=None),
                            "update_latency_s": update_seconds,
                            "setup_samples_s": setup_seconds})
    bench.note("windows", windows.report())

    metrics = {}
    if bench.trace:
        spans = SpanIndex(tracer.spans)
        stats = planner.stats()
        # kernels.spmm on this workload: per set-up, where the builds use it.
        spmm = {f"setup-{setup}": [] for setup in range(SETUPS)}
        for index in spans.named("kernels.spmm"):
            spmm.get(spans.spans[index][REQUEST], []).append(
                spans.duration(index))
        if not all(spmm.values()):
            raise TraceError("a set-up recorded no kernels.spmm span")
        if not tracer.counts["repairs_attempted"]:
            raise TraceError("no index repair was recorded")
        planner_self = [spans.duration(i) - spans.children_covered(i)
                        for i in spans.named("planner.answer")]
        metrics.update(baseline_query_layers(spans, UPDATE_METHODS))
        for method in UPDATE_METHODS:
            builds = [spans.duration(i)
                      for i in spans.named(f"baselines.build.{method}")
                      if str(spans.spans[i][REQUEST]).startswith("setup")]
            metrics[f"baselines.build_s.{method}"] = median(builds)
            metrics[f"baselines.repair_ms.{method}"] = median_ms(
                spans, f"baselines.repair.{method}")
        metrics.update({
            "kernels.spmm_ms": ms(median([sum(v) for v in spmm.values()])),
            "kernels.spmm_calls": median([len(v) for v in spmm.values()]),
            "frontend.parse_ms": median_ms(spans, "frontend.parse"),
            "planner.answer_ms": ms(median(planner_self)),
            "planner.serialize_ms": median_ms(spans, "planner.serialize"),
            "planner.cache_hit_share": stats["cache_routes"]
            / max(stats["queries"], 1.0),
            "graph.apply_updates_ms": median_ms(spans, "graph.apply_updates"),
            "graph.wal_append_ms": median_ms(spans, "graph.wal_append"),
            "graph.update_latency_s": median_ms(spans, "update") / 1e3,
            "baselines.repair_kept_share": tracer.counts["repairs_kept"]
            / tracer.counts["repairs_attempted"],
            "trace.unattributed_share": root_unattributed(spans, "request",
                                                          "update"),
            "trace.overhead_share": overhead_share(traced, untraced),
        })
    else:
        walls, _steals = windows.windows()
        chosen = windows.chosen()
        reported = [latencies[index] for window in chosen
                    for index in range(*rounds[window])]
        metrics.update(latency_metrics(reported, TAIL))
        metrics.update({
            "setup_s": median(setup_seconds),
            "throughput_qps": len(reported) / sum(walls[window]
                                                  for window in chosen),
            "success_rate": 1.0 - failed / attempted,
            "max_abs_error": max_abs_error(errors),
            "memory_mb": memory,
        })
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}

