"""Shared pieces of the three workloads: configuration, inputs, checks, layers.

Every workload answers on the GQ stand-in graph at ε = 1e-3 and checks its
answers against the power method (the all-pairs fixed point, ~0.7 s on GQ).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from benchstats import (quiet_enough, quietest_windows, tail_permille,
                        unattributed_share)
from tracer import SpanIndex, Tracer, ms

DATASET = "GQ"
EPSILON = 1e-3
DECAY = 0.6
#: Seed of the methods' own random streams.  Fixed, so that a run's inputs
#: (sources, targets, edge batches) are the only thing ``--seed`` changes.
METHOD_SEED = 7
#: Seed of the fixed popularity ranking behind Zipf-distributed sources.
POPULARITY_SEED = 2020
#: ExactSim's walk-pair cap, the ``ExactSimConfig`` and ``query
#: --max-samples`` default.  ``answer`` has no such flag and leaves it
#: ``None``, which on GQ at ε = 1e-3 asks for R = 1.58e10 pairs and does
#: not finish one query in 30 s; the benchmark pins the documented default.
EXACTSIM_MAX_SAMPLES = 500_000

#: A measuring window in which the hypervisor stole at most this share of
#: the vCPUs' time is quiet (one clock tick is 0.4% of a serve-mix window,
#: ~1.2 s on 2 vCPUs, and 0.14% of an update-mix round, ~3.5 s).
QUIET_STEAL = 0.005
#: Measuring stops after this many times ``--seconds`` at the latest.
MEASURE_CAP = 2.0

#: Index-based methods answering serve-mix and update-mix traffic.
SERVE_METHODS = ("mc", "sling", "linearization")
UPDATE_METHODS = ("mc", "sling", "prsim", "linearization")
KINDS = ("single_source", "single_pair", "top_k")
TOP_K = 10

#: An answer further than this from the power method is wrong.  ExactSim
#: must meet its ε; the sampling baselines get the slack the repository's
#: conformance tests allow them (``tests/test_service.py``).
TOLERANCE = {"exactsim": EPSILON, "mc": 0.25, "sling": 0.1,
             "linearization": 0.1, "prsim": 0.1}

#: Keys of a wire answer that legitimately differ between two computations
#: of the same answer (timing and the route that produced it).
VOLATILE_KEYS = ("query_seconds", "route", "batched")


def method_configs() -> Dict[str, Dict[str, Any]]:
    """Per-method configs as ``answer --seed METHOD_SEED`` builds them,
    plus ExactSim's pinned walk-pair cap."""
    from repro.algorithms import registry

    configs: Dict[str, Dict[str, Any]] = {}
    for name in registry.available():
        keys = registry.get_spec(name).config_keys
        config: Dict[str, Any] = {}
        if "decay" in keys:
            config["decay"] = DECAY
        if "seed" in keys:
            config["seed"] = METHOD_SEED
        if "epsilon" in keys:
            config["epsilon"] = EPSILON
        if "max_total_samples" in keys:
            config["max_total_samples"] = EXACTSIM_MAX_SAMPLES
        configs[name] = config
    return configs


def cli_method_flags() -> List[str]:
    """The generic ``answer``/``index build`` flags matching method_configs."""
    return ["--dataset", DATASET, "--epsilon", repr(EPSILON),
            "--decay", repr(DECAY), "--seed", str(METHOD_SEED)]


def load_graph():
    from repro.graph.datasets import load_dataset

    return load_dataset(DATASET)


def ground_truth(graph) -> np.ndarray:
    from repro.baselines.power_method import simrank_matrix

    return simrank_matrix(graph, decay=DECAY)


# --------------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------------- #
def zipf_sources(rng: np.random.Generator, num_nodes: int, count: int,
                 exponent: float = 1.0) -> np.ndarray:
    """``count`` sources drawn Zipf over a fixed popularity ranking.

    Which nodes are popular is part of the workload, not of the run: were
    it seeded, each seed would serve a different hot set (with different
    cache-miss costs and different worst-case answers), and the spread of
    its figures would measure the hot set rather than the program.  The
    run's seed draws the request sequence.
    """
    ranking = np.random.default_rng(POPULARITY_SEED).permutation(num_nodes)
    weights = 1.0 / np.arange(1, num_nodes + 1) ** exponent
    return ranking[rng.choice(num_nodes, size=count, p=weights / weights.sum())]


def mixed_query_lines(rng: np.random.Generator, num_nodes: int, count: int,
                      methods: Sequence[str]) -> List[str]:
    """Wire lines round-robin over (method x kind) with Zipf sources."""
    sources = zipf_sources(rng, num_nodes, count)
    targets = rng.integers(num_nodes, size=count)
    combos = [(method, kind) for method in methods for kind in KINDS]
    lines = []
    for position in range(count):
        method, kind = combos[position % len(combos)]
        payload: Dict[str, Any] = {"type": kind, "source": int(sources[position]),
                                   "method": method}
        if kind == "single_pair":
            payload["target"] = int(targets[position])
        elif kind == "top_k":
            payload["k"] = TOP_K
        lines.append(json.dumps(payload))
    return lines


# --------------------------------------------------------------------------- #
# checks
# --------------------------------------------------------------------------- #
def wire_error(request: Dict[str, Any], payload: Dict[str, Any],
               truth: np.ndarray) -> float:
    """Largest |answer - power method| over the scores a wire answer shows."""
    source = request["source"]
    kind = request["type"]
    if kind == "single_pair":
        return abs(float(payload["score"]) - truth[source, request["target"]])
    if kind == "top_k":
        nodes, scores = payload["nodes"], payload["scores"]
    else:
        nodes, scores = payload["top_nodes"], payload["top_scores"]
    if not nodes:
        return 0.0
    return float(np.max(np.abs(np.asarray(scores, dtype=float)
                               - truth[source, np.asarray(nodes)])))


def result_error(query, result, truth: np.ndarray) -> float:
    """Like :func:`wire_error` but on the in-process result (full vectors)."""
    if query.kind == "single_source":
        return float(np.max(np.abs(result.scores - truth[query.source])))
    if query.kind == "single_pair":
        return abs(float(result.score) - truth[query.source, query.target])
    nodes = np.asarray(result.nodes)
    if nodes.size == 0:
        return 0.0
    return float(np.max(np.abs(np.asarray(result.scores)
                               - truth[query.source, nodes])))


def max_abs_error(errors: Sequence[float]) -> float:
    """The paper's MaxError: each answer's largest |error|, averaged.

    This is how the repository's experiment harness reports ``max_error``.
    The worst single answer is the correctness gate's business (every one
    must be within its tolerance); a maximum over a run's answers would
    grow with how many answers the run fits in, and swing with the one
    hardest source a seed happens to draw.
    """
    return float(np.mean(errors)) if len(errors) else float("inf")


def strip_volatile(payload: Dict[str, Any]) -> Dict[str, Any]:
    return {key: value for key, value in payload.items()
            if key not in VOLATILE_KEYS}


# --------------------------------------------------------------------------- #
# measurement helpers
# --------------------------------------------------------------------------- #
def latency_metrics(latencies_s: Sequence[float], tail: int) -> Dict[str, float]:
    return {"latency_p50_ms": ms(float(np.percentile(latencies_s, 50))),
            "latency_tail_ms": ms(float(np.percentile(latencies_s,
                                                      tail / 10.0)))}


def fixed_tail(min_requests: int) -> int:
    permille = tail_permille(min_requests)
    assert permille is not None and permille > 500
    return permille


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pss_mb(pid: int) -> float:
    """Proportional set size of ``pid`` (shared pages split by sharers)."""
    with open(f"/proc/{pid}/smaps_rollup") as handle:
        for line in handle:
            if line.startswith("Pss:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no Pss line for pid {pid}")


def child_pids(pid: int) -> List[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as handle:
            return [int(token) for token in handle.read().split()]
    except OSError:
        return []


def steal_ticks() -> int:
    """The machine's total steal time so far, in clock ticks: time the
    hypervisor gave the vCPUs to someone else."""
    with open("/proc/stat") as handle:
        return int(handle.readline().split()[8])


def steal_share(ticks: int, seconds: float) -> float:
    """``ticks`` of steal over ``seconds`` of wall time, as a share of the
    time of all vCPUs."""
    return ticks / (os.sysconf("SC_CLK_TCK") * (os.cpu_count() or 1)
                    * seconds)


class QuietWindows:
    """Measuring in windows, each with the share of the vCPUs' time the
    hypervisor stole during it.

    A stolen burst lands on whatever is running, so on a shared host the
    figures follow the host.  The workload calls :meth:`mark` at every
    window boundary; measuring goes on until the windows with a steal share
    of at most QUIET_STEAL cover ``seconds`` (and number ``min_windows``),
    or until MEASURE_CAP x ``seconds`` have passed.  The run then reports
    the least-stolen windows that cover ``seconds``
    (:func:`benchstats.quietest_windows`).  A window is chosen by its steal
    share alone, never by what it measured.
    """

    def __init__(self, seconds: float, min_windows: int):
        self.seconds = seconds
        self.min_windows = min_windows
        self.bounds: List[Tuple[float, int]] = []    # (time, steal ticks)
        self.stopped = False

    def mark(self) -> None:
        """Close the current window (the first call opens the first one)
        and set ``stopped`` once measuring is done."""
        self.bounds.append((time.perf_counter(), steal_ticks()))
        walls, steals = self.windows()
        if quiet_enough(walls, steals, self.seconds, self.min_windows,
                        QUIET_STEAL) \
                or (sum(walls) >= MEASURE_CAP * self.seconds
                    and len(walls) >= self.min_windows):
            self.stopped = True

    def windows(self) -> Tuple[List[float], List[float]]:
        """(wall seconds, host steal share) of every completed window."""
        walls, steals = [], []
        for (start, ticks), (end, later) in zip(self.bounds, self.bounds[1:]):
            walls.append(end - start)
            steals.append(steal_share(later - ticks, end - start))
        return walls, steals

    def chosen(self) -> List[int]:
        """Indices of the windows the run reports."""
        walls, steals = self.windows()
        return quietest_windows(walls, steals, self.seconds, self.min_windows)

    def report(self) -> Dict[str, Any]:
        walls, steals = self.windows()
        chosen = self.chosen()
        return {"measured": len(walls), "reported": len(chosen),
                "measured_s": sum(walls),
                "reported_s": sum(walls[index] for index in chosen),
                "steal_share": [round(steal, 4) for steal in steals]}


def environment(root: Path, seed: int, workers: int, graph) -> Dict[str, Any]:
    """The header every report starts with."""
    import numpy
    import scipy

    from repro.kernels import parallel

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (not a git checkout)"
    return {"nproc": os.cpu_count(),
            "kernel_threads": parallel.get_num_threads(),
            "workers": workers,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_sha": sha, "dataset": DATASET,
            "nodes": int(graph.num_nodes), "edges": int(graph.num_edges),
            "epsilon": EPSILON, "seed": seed}


# --------------------------------------------------------------------------- #
# layers
# --------------------------------------------------------------------------- #
class TraceError(RuntimeError):
    """A traced run could not measure a layer its workload must reach.

    Raised rather than read as 0: the per-layer metrics are mostly "lower is
    better", so a wrapper that stopped firing would look like a speed-up.
    """


def _query_label(args, _kwargs) -> str:
    return f"baselines.query.{args[0].name}"


def _build_label(args, kwargs) -> Optional[str]:
    algorithm = args[0]
    if algorithm.prepared and not kwargs.get("force", False):
        return None
    return f"baselines.build.{algorithm.name}"


def instrument_layers(tracer: Tracer) -> None:
    """Wrap the entry point of every layer the per-layer metrics read.

    ExactSim's three phases have no public entry point of their own (the
    planner reaches them through ``single_source_batch``), so they are
    wrapped at the ``ExactSim`` methods that implement each phase.
    """
    import repro.baselines  # noqa: F401  (registers every subclass)
    from repro.baselines.base import SimRankAlgorithm
    from repro.core.exactsim import ExactSim
    from repro.graph.context import GraphContext
    from repro.graph.updates import UpdateLog
    from repro.kernels import parallel
    from repro.randomwalk import aggregate
    from repro.service import frontend
    from repro.service.planner import QueryPlanner

    tracer.instrument_function(parallel, "parallel_spmm", "kernels.spmm")
    tracer.instrument_function(aggregate, "pair_meet_counts",
                               "randomwalk.pair_meet")
    tracer.instrument_function(aggregate, "group_sum", "randomwalk.group_sum")
    tracer.instrument_function(frontend, "parse_wire_line", "frontend.parse")
    tracer.instrument_method(ExactSim, "_hop_ppr_batch", "ppr.hop_ppr")
    tracer.instrument_method(ExactSim, "_estimate_diagonal_batch",
                             "diagonal.estimate")
    tracer.instrument_method(ExactSim, "_back_substitute_batch",
                             "core.back_substitute")
    tracer.instrument_method(QueryPlanner, "answer", "planner.answer")
    tracer.instrument_method(GraphContext, "apply_updates",
                             "graph.apply_updates")
    tracer.instrument_method(UpdateLog, "append", "graph.wal_append")

    def count_strategy(args, report) -> None:
        tracer.counts["repairs_attempted"] += 1
        if report.get("strategy") == "repair":
            tracer.counts["repairs_kept"] += 1

    tracer.instrument_method(SimRankAlgorithm, "repair",
                             lambda args, _k: f"baselines.repair.{args[0].name}",
                             on_result=count_strategy)
    tracer.instrument_method(SimRankAlgorithm, "preprocess", _build_label)
    tracer.instrument_method(SimRankAlgorithm, "load_index",
                             "baselines.index_load")
    pending = [SimRankAlgorithm]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if issubclass(cls, ExactSim):
            continue          # its query time is the three phases above
        for attr in ("single_source", "single_source_batch", "single_pair",
                     "top_k"):
            if attr in cls.__dict__:
                tracer.instrument_method(cls, attr, _query_label)


def median_ms(spans: SpanIndex, name: str) -> float:
    """Median duration (ms) of the outermost spans called ``name``."""
    durations = [spans.duration(index) for index in spans.named(name)]
    if not durations:
        raise TraceError(f"no {name!r} span was recorded")
    return ms(median(durations))


def exactsim_layers(spans: SpanIndex) -> Dict[str, float]:
    """Phase metrics of the traced ExactSim planner answers."""
    answers = spans.named("planner.answer")
    phases = ("ppr.hop_ppr", "diagonal.estimate", "core.back_substitute")
    phase1, phase2, phase3, exploit, meet, group, group_calls = \
        [], [], [], [], [], [], []
    meet_calls, spmm, spmm_calls, planner_self = [], [], [], []
    covered = wall = 0.0
    for answer in answers:
        found = {name: spans.descendants(answer, name) for name in phases}
        if not all(found.values()):
            continue
        wall += spans.duration(answer)
        covered += spans.covered(answer, phases)
        planner_self.append(spans.duration(answer)
                            - spans.covered(answer, phases))
        phase1.append(sum(spans.duration(i) for i in found["ppr.hop_ppr"]))
        phase3.append(sum(spans.duration(i)
                          for i in found["core.back_substitute"]))
        estimate = found["diagonal.estimate"]
        phase2.append(sum(spans.duration(i) for i in estimate))
        meets = [m for e in estimate
                 for m in spans.descendants(e, "randomwalk.pair_meet")]
        exploit.append(sum(spans.duration(e)
                           - spans.covered(e, ["randomwalk.pair_meet"])
                           for e in estimate))
        meet.append(sum(spans.duration(i) for i in meets))
        meet_calls.append(len(meets))
        groups = spans.descendants(answer, "randomwalk.group_sum")
        group.append(sum(spans.duration(i) for i in groups))
        group_calls.append(len(groups))
        spmms = spans.descendants(answer, "kernels.spmm")
        spmm.append(sum(spans.duration(i) for i in spmms))
        spmm_calls.append(len(spmms))
    if not wall:
        raise TraceError("no planner.answer span holds all three ExactSim "
                         "phase spans")
    for name, calls in (("randomwalk.pair_meet", meet_calls),
                        ("randomwalk.group_sum", group_calls),
                        ("kernels.spmm", spmm_calls)):
        if not any(calls):
            raise TraceError(f"no {name!r} span inside an ExactSim answer")
    return {"ppr.hop_ppr_ms": ms(median(phase1)),
            "diagonal.estimate_ms": ms(median(phase2)),
            "diagonal.exploit_ms": ms(median(exploit)),
            "randomwalk.pair_meet_ms": ms(median(meet)),
            "randomwalk.pair_meet_calls": median(meet_calls),
            "randomwalk.group_sum_ms": ms(median(group)),
            "randomwalk.group_sum_calls": median(group_calls),
            "core.back_substitute_ms": ms(median(phase3)),
            "kernels.spmm_ms": ms(median(spmm)),
            "kernels.spmm_calls": median(spmm_calls),
            "planner.answer_ms": ms(median(planner_self)),
            "trace.exactsim_phase_share": covered / wall}


def baseline_query_layers(spans: SpanIndex, methods: Iterable[str]
                          ) -> Dict[str, float]:
    return {f"baselines.query_ms.{method}":
            median_ms(spans, f"baselines.query.{method}")
            for method in methods}


def root_unattributed(spans: SpanIndex, *roots: str) -> float:
    """Share of the root spans' time that no child span covers."""
    return unattributed_share([
        (spans.interval(index),
         [spans.interval(child) for child in spans.children[index]])
        for root in roots for index in spans.named(root)])


def overhead_share(traced_s: Sequence[float],
                   untraced_s: Sequence[float]) -> float:
    return float(np.median(traced_s) / np.median(untraced_s)) - 1.0


def emit_result(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, float], units: Dict[str, str]) -> None:
    """Print the one-line JSON result (the last line of stdout)."""
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units}}), flush=True)
