"""serve-mix: index-method traffic over TCP to ``answer --workers 1 --listen``.

The server starts over ``index build --uncompressed`` indices of mc, sling
and linearization.  Requests have Zipf sources and go round-robin over
(method x single_source/single_pair/top_k).  One client process keeps
IN_FLIGHT requests in flight on each of CONNECTIONS connections (closed loop):
parse, admission, worker IPC, planner and serialization do most of the
work, and ExactSim's phases do none.

Why these choices, as measured on a 2-vCPU machine:

* ``--workers 1``: at 2 workers the client, the supervisor and both
  workers share 2 vCPUs, and the same seed moved between 264 and 339 qps.
* no PRSim: one PRSim query costs ~28 ms on GQ against <= 2 ms for the
  others, so it would take ~90% of the worker's CPU.
* a closed loop: open-loop medians at low load moved 35-40% with vCPU
  wake-ups.
* one request in flight per connection: with four, requests queued behind
  slow batches and the p99 moved between 20 and 35 ms across ten seeds
  (inter-quartile spread 28%); with one it measures service time, 16%.
* a fixed popularity ranking (see ``common.zipf_sources``).
* no CPU pinning: in interleaved 10-s chunks, this set-up, one connection
  with everything pinned to one vCPU, and two connections pinned to one
  vCPU all followed the host's speed alike (their chunk throughputs
  correlated 0.6-0.8 over time), and pinning would confine the server's two
  kernel threads to one vCPU.

The figures follow the host: runs in which the hypervisor took 7-15% of the
vCPUs' time (``host_steal_share`` in the report) served about half the
requests per second of runs with under 1%, at twice the p99.  Each stolen
burst lands on the requests in flight, so the p99 moves most: emulated
steal of 10% in 4-15 ms bursts raised it 1.5-2.6x and the p50 1.1-1.2x.
So the run measures in windows of WINDOW_REQUESTS answers and reports
latency and throughput over the least-stolen windows that cover
``--seconds`` (``common.QuietWindows``); every answer of every window is
still checked.

Set-up runs from launch until each method has answered once; the run
launches SETUPS servers and reports the median (~0.7 s of each is the
interpreter importing the program).  Checks: every answer is compared with
the power method, a seeded sample is replayed in-process over the same
index files and must match, and every server must exit 0 after its SIGTERM
drain with its ``--stats`` record.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

import numpy as np

from benchstats import unattributed_share
from common import (SERVE_METHODS, TOLERANCE, QuietWindows, TraceError,
                    baseline_query_layers, child_pids, cli_method_flags,
                    environment, fixed_tail, ground_truth, latency_metrics,
                    load_graph, max_abs_error, median_ms, method_configs,
                    mixed_query_lines, overhead_share, pss_mb,
                    strip_volatile, wire_error)
from tracer import NAME, REQUEST, START, SpanIndex, Tracer, ms

HERE = Path(__file__).resolve().parent
#: Per-layer metrics a traced run must measure.
LAYERS = ("frontend.parse_ms", "workers.roundtrip_ms", "workers.ipc_ms",
          "workers.batch_size", "planner.answer_ms", "planner.serialize_ms",
          "planner.cache_hit_share", "baselines.index_load_ms",
          *(f"baselines.query_ms.{method}" for method in SERVE_METHODS),
          "workers.pss_mb", "shm.segment_mb", "trace.unattributed_share",
          "trace.overhead_share")
CONNECTIONS = 2
IN_FLIGHT = 1
MIN_REQUESTS = 1000
TAIL = fixed_tail(MIN_REQUESTS)
#: Answers per measuring window; the report covers whole windows.
WINDOW_REQUESTS = 1000
MIN_WINDOWS = -(-MIN_REQUESTS // WINDOW_REQUESTS)
WARMUP_REQUESTS = 1500
SETUPS = 5
REPLAY_SAMPLE = 60
SETUP_SOURCE = 0
TIMEOUT_S = 60.0
STATS_PREFIX = "# serving stats: "


class Server:
    """One ``answer --workers 1 --listen 127.0.0.1:0`` process."""

    def __init__(self, bench, index_dir: Path, tag: str,
                 trace_dir: Optional[Path] = None):
        program = ([str(HERE / "traced_server.py"), str(trace_dir)]
                   if trace_dir is not None else ["-m", "repro.cli"])
        argv = [sys.executable, *program, "answer", *cli_method_flags(),
                "--workers", "1", "--listen", "127.0.0.1:0",
                "--index-dir", str(index_dir), "--stats"]
        env = dict(os.environ, PYTHONPATH=str(bench.root / "src"))
        self.stderr_path = bench.work / f"server-{tag}.err"
        self._stderr = open(self.stderr_path, "w")
        self.process = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                        stderr=self._stderr, env=env,
                                        cwd=bench.root)
        ready = selectors.DefaultSelector()
        ready.register(self.process.stdout, selectors.EVENT_READ)
        if not ready.select(timeout=TIMEOUT_S):
            self.kill()
            raise RuntimeError("server did not announce its port")
        ready.close()
        announce = json.loads(self.process.stdout.readline())
        self.port = int(announce["port"])

    def connect(self) -> "Connection":
        return Connection(socket.create_connection(("127.0.0.1", self.port),
                                                   timeout=TIMEOUT_S))

    def pids(self) -> List[int]:
        return [self.process.pid, *child_pids(self.process.pid)]

    def stop(self) -> Tuple[int, Optional[dict], Tuple[int, int]]:
        """SIGTERM drain; returns (exit code, --stats record, tracebacks).

        The tracebacks are counted as :func:`drain_tracebacks` counts them.
        """
        self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            code = -1
        self.process.stdout.close()
        self._stderr.close()
        stderr = self.stderr_path.read_text()
        record = None
        for line in stderr.splitlines():
            if line.startswith(STATS_PREFIX):
                record = json.loads(line[len(STATS_PREFIX):])
        return code, record, drain_tracebacks(stderr)

    def kill(self) -> None:
        """SIGKILL the server and the worker it forked, and wait for both."""
        children = child_pids(self.process.pid)
        self.process.kill()
        self.process.wait()
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                continue
            deadline = time.monotonic() + TIMEOUT_S
            while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
                time.sleep(0.01)
        self.process.stdout.close()
        self._stderr.close()


def drain_tracebacks(stderr: str) -> Tuple[int, int]:
    """(known drain defects, other tracebacks) in a server's stderr.

    The known defect: an idle connection open at SIGTERM makes the server
    print a traceback through ``repro/service/frontend.py`` ending in
    asyncio's ``CancelledError``, though it still exits 0 with its stats
    record.  Any other traceback, or one cut short, is not excused.
    """
    known = other = 0
    block: List[str] = []
    for line in stderr.splitlines():
        if block:
            block.append(line)
            if line and not line[0].isspace():      # the exception line
                if line.strip() == "asyncio.exceptions.CancelledError" \
                        and any("repro/service/frontend.py" in frame
                                for frame in block):
                    known += 1
                else:
                    other += 1
                block = []
        elif line.startswith("Traceback (most recent call last):"):
            block = [line]
    return known, other + bool(block)


class Servers:
    """Every server one run launches; any still running at exit is killed."""

    def __init__(self, bench, index_dir: Path):
        self.bench = bench
        self.index_dir = index_dir
        self.started: List[Server] = []

    def launch(self, tag: str, trace_dir: Optional[Path] = None) -> Server:
        server = Server(self.bench, self.index_dir, tag, trace_dir)
        self.started.append(server)
        return server

    def __enter__(self) -> "Servers":
        return self

    def __exit__(self, *_exc) -> None:
        for server in self.started:
            if server.process.poll() is None:
                server.kill()


class Connection:
    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buffer = b""
        self.inflight: deque = deque()

    def send(self, index: int, line: bytes) -> None:
        self.inflight.append((index, time.perf_counter()))
        self.sock.sendall(line)

    def close(self) -> None:
        self.sock.close()


class Traffic:
    """The seeded request stream, generated in chunks as the run needs it."""

    CHUNK = 4096

    def __init__(self, seed: int, num_nodes: int):
        self.rng = np.random.default_rng([seed, 3])
        self.num_nodes = num_nodes
        self.lines: List[str] = []
        self.encoded: List[bytes] = []

    def __getitem__(self, index: int) -> bytes:
        while index >= len(self.encoded):
            chunk = mixed_query_lines(self.rng, self.num_nodes, self.CHUNK,
                                      SERVE_METHODS)
            self.lines.extend(chunk)
            self.encoded.extend((line + "\n").encode() for line in chunk)
        return self.encoded[index]


class ForAtLeast:
    """Pacing: keep sending until ``seconds`` have passed and ``requests``
    were sent."""

    def __init__(self, seconds: float, requests: int):
        self.seconds = seconds
        self.requests = requests
        self.began: Optional[float] = None

    def more(self, sent: int, _answered: int) -> bool:
        if self.began is None:
            self.began = time.perf_counter()
        return sent < self.requests \
            or time.perf_counter() - self.began < self.seconds


class Windowed:
    """Pacing: a window closes every WINDOW_REQUESTS answers, and sending
    stops when ``windows`` says measuring is done."""

    def __init__(self, windows: QuietWindows):
        self.windows = windows

    def more(self, _sent: int, answered: int) -> bool:
        if not self.windows.stopped \
                and answered == WINDOW_REQUESTS * len(self.windows.bounds):
            self.windows.mark()
        return not self.windows.stopped


def drive(connections: List[Connection], traffic: Traffic, first: int,
          pace):
    """Closed loop: IN_FLIGHT requests in flight per connection.

    Sends while ``pace.more(sent, answered)`` says so, then waits for every
    answer.  Returns one ``(index, sent, answered, raw answer)`` record per
    request, in the order answered.
    """
    selector = selectors.DefaultSelector()
    for connection in connections:
        selector.register(connection.sock, selectors.EVENT_READ, connection)
    records = []
    following = first

    def send_next(connection: Connection) -> None:
        nonlocal following
        if pace.more(following - first, len(records)):
            connection.send(following, traffic[following])
            following += 1

    for connection in connections:
        for _ in range(IN_FLIGHT):
            send_next(connection)
    while any(connection.inflight for connection in connections):
        events = selector.select(timeout=TIMEOUT_S)
        if not events:
            raise RuntimeError("server stopped answering")
        for key, _mask in events:
            connection = key.data
            chunk = connection.sock.recv(1 << 20)
            if not chunk:
                raise RuntimeError("server closed a connection")
            connection.buffer += chunk
            while b"\n" in connection.buffer:
                line, _, connection.buffer = connection.buffer.partition(b"\n")
                answered = time.perf_counter()
                index, sent = connection.inflight.popleft()
                records.append((index, sent, answered, line))
                send_next(connection)
    selector.close()
    return records


def _setup_lines() -> List[bytes]:
    return [(json.dumps({"type": "single_source", "source": SETUP_SOURCE,
                         "method": method}) + "\n").encode()
            for method in SERVE_METHODS]


def _first_answers(server: Server) -> bool:
    """Ask each method once; True when every answer came back clean."""
    connection = server.connect()
    try:
        for line in _setup_lines():
            connection.sock.sendall(line)
        with connection.sock.makefile("rb") as stream:
            answers = [json.loads(stream.readline()) for _ in SERVE_METHODS]
    finally:
        connection.close()
    return all("error" not in answer for answer in answers)


def build_indices(bench) -> Path:
    """``index build --uncompressed`` for each served method."""
    from repro import cli

    index_dir = bench.work / "indices"
    index_dir.mkdir()
    for method in SERVE_METHODS:
        code = cli.main(["index", "build", *cli_method_flags(),
                         "--method", method, "--index-dir", str(index_dir),
                         "--uncompressed"])
        if code != 0:
            raise RuntimeError(f"index build failed for {method}")
    return index_dir


class Checks:
    """Success accounting shared by the measured and traced runs."""

    def __init__(self):
        self.failed = 0
        self.notes: Dict[str, int] = {"drain_tracebacks": 0,
                                      "other_tracebacks": 0,
                                      "shutdown_failures": 0}

    def shutdown(self, result: Tuple[int, Optional[dict], Tuple[int, int]]
                 ) -> Optional[dict]:
        code, record, (known, other) = result
        # The known drain defect is reported, not counted as a failure: the
        # exit code and the stats record are still right.  Any other
        # traceback is a failure.
        self.notes["drain_tracebacks"] += known
        self.notes["other_tracebacks"] += other
        self.failed += other
        if code != 0 or record is None:
            self.failed += 1
            self.notes["shutdown_failures"] += 1
        return record


def replay(index_dir: Path, graph, sample) -> int:
    """Recompute sampled answers in-process; returns the mismatch count.

    A pair or top-k answer may come from the native route or be derived
    from a cached single-source vector, and the two legitimately differ in
    the last digits for SLING's top-k; a cache hit does not say which route
    first computed it, so an answer must equal one of the two.
    """
    from repro.graph.context import GraphContext
    from repro.service.planner import QueryPlanner, outcome_to_wire
    from repro.service.queries import SingleSourceQuery, query_from_dict

    def planner(cache_entries: int) -> QueryPlanner:
        return QueryPlanner(graph, context=GraphContext(graph),
                            method_configs=method_configs(),
                            index_dir=index_dir, index_mmap=True,
                            cache_entries=cache_entries)

    native, derived = planner(0), planner(1024)
    mismatches = 0
    for request, payload in sample:
        query = query_from_dict(request)
        candidates = []
        for chosen in (native, derived):
            if chosen is derived and query.kind != "single_source":
                chosen.answer([SingleSourceQuery(source=query.source,
                                                 method=query.method)])
            wire = outcome_to_wire(chosen.answer([query])[0], graph_version=0)
            candidates.append(strip_volatile(json.loads(json.dumps(wire))))
        if strip_volatile(payload) not in candidates:
            mismatches += 1
    return mismatches


def score(records, traffic: Traffic, truth: np.ndarray, checks: Checks
          ) -> Tuple[List[float], List[Tuple[dict, dict]], List[float]]:
    """Parse and check every answer; returns latencies, pairs, errors."""
    latencies, pairs, errors = [], [], []
    for index, sent, answered, line in records:
        latencies.append(answered - sent)
        request = json.loads(traffic.lines[index])
        payload = json.loads(line)
        pairs.append((request, payload))
        if "error" in payload or payload.get("source") != request["source"]:
            checks.failed += 1
            continue
        error = wire_error(request, payload, truth)
        errors.append(error)
        if error > TOLERANCE[request["method"]]:
            checks.failed += 1
    return latencies, pairs, errors


def serve_phase(server: Server, traffic: Traffic, first: int, pace):
    """Warm the server up, measure as ``pace`` says, then stop it.

    Returns ``(records, next request index, PSS per pid, stop result)``.
    """
    connections = [server.connect() for _ in range(CONNECTIONS)]
    try:
        warm = drive(connections, traffic, first,
                     ForAtLeast(0.0, WARMUP_REQUESTS))
        start = first + len(warm)
        records = drive(connections, traffic, start, pace)
        memory = {pid: pss_mb(pid) for pid in server.pids()}
        # Stop with the (now idle) connections still open, as a client
        # that keeps its connection would.
        stopped = server.stop()
    finally:
        for connection in connections:
            connection.close()
    return records, start + len(records), memory, stopped


def run(bench) -> dict:
    graph = load_graph()
    bench.note("environment", environment(bench.root, bench.seed, 1, graph))
    truth = ground_truth(graph)
    index_dir = build_indices(bench)
    traffic = Traffic(bench.seed, graph.num_nodes)
    checks = Checks()

    with Servers(bench, index_dir) as servers:
        if bench.trace:
            return _traced(bench, servers, traffic, truth, checks)
        setup_seconds = []
        for attempt in range(SETUPS):
            start = time.perf_counter()
            server = servers.launch(f"setup-{attempt}")
            if not _first_answers(server):
                checks.failed += 1
            setup_seconds.append(time.perf_counter() - start)
            if attempt < SETUPS - 1:
                checks.shutdown(server.stop())
        windows = QuietWindows(bench.seconds, MIN_WINDOWS)
        records, _next, memory, stopped = serve_phase(server, traffic, 0,
                                                      Windowed(windows))
    checks.shutdown(stopped)
    _latencies, pairs, errors = score(records, traffic, truth, checks)
    walls, _steals = windows.windows()
    chosen = windows.chosen()
    latencies = [answered - sent for window in chosen
                 for _index, sent, answered, _line in
                 records[window * WINDOW_REQUESTS:
                         (window + 1) * WINDOW_REQUESTS]]
    rng = np.random.default_rng([bench.seed, 4])
    sample = [pairs[i] for i in rng.choice(len(pairs), size=REPLAY_SAMPLE,
                                           replace=False)]
    mismatches = replay(index_dir, graph, sample)
    checks.failed += mismatches
    attempted = len(records)
    bench.note("requests", {"attempted": attempted, "failed": checks.failed,
                            "replay_mismatches": mismatches,
                            "tail_percentile": TAIL / 10.0,
                            "worst_answer_error": max(errors, default=None),
                            "setup_samples_s": setup_seconds,
                            "pss_mb": memory, **checks.notes})
    bench.note("windows", windows.report())
    metrics = latency_metrics(latencies, TAIL)
    metrics.update({
        "setup_s": median(setup_seconds),
        "throughput_qps": len(latencies) / sum(walls[window]
                                               for window in chosen),
        "success_rate": 1.0 - checks.failed / attempted,
        "max_abs_error": max_abs_error(errors),
        "memory_mb": sum(memory.values()),
    })
    return {"correct": checks.failed == 0, "attempted": attempted,
            "failed": checks.failed, "metrics": metrics}


def _traced(bench, servers: "Servers", traffic, truth, checks) -> dict:
    """Untraced then traced server, half the run each."""
    half = bench.seconds / 2.0
    records_a, following, _memory, stopped = serve_phase(
        servers.launch("untraced"), traffic, 0, ForAtLeast(half, MIN_REQUESTS))
    checks.shutdown(stopped)
    trace_dir = bench.work / "trace"
    trace_dir.mkdir()
    records_b, _next, memory, stopped = serve_phase(
        servers.launch("traced", trace_dir), traffic, following,
        ForAtLeast(half, MIN_REQUESTS))
    record = checks.shutdown(stopped)
    if record is None:
        raise TraceError("the traced server printed no --stats record")
    untraced_s, _pairs, _errors = score(records_a, traffic, truth, checks)
    traced_s, _pairs, _errors = score(records_b, traffic, truth, checks)
    attempted = len(records_a) + len(records_b)

    _pid, supervisor = _load(trace_dir, "supervisor")
    worker_pid, worker = _load(trace_dir, "worker")
    metrics = _serve_layers(SpanIndex(supervisor.spans),
                            SpanIndex(worker.spans), supervisor.counts)
    pool = record["workers"]
    totals = pool["worker_planner_totals"]
    metrics.update({
        "planner.cache_hit_share": totals["cache_routes"] / totals["queries"],
        "workers.pss_mb": memory[worker_pid],
        "shm.segment_mb": pool["shared_segment_bytes"] / 2.0 ** 20,
        "trace.overhead_share": overhead_share(traced_s, untraced_s),
    })
    bench.note("requests", {"attempted": attempted, "failed": checks.failed,
                            **checks.notes})
    return {"correct": checks.failed == 0, "attempted": attempted,
            "failed": checks.failed, "metrics": metrics}


def _load(trace_dir: Path, role: str) -> Tuple[int, Tracer]:
    files = sorted(trace_dir.glob(f"{role}-*.json"))
    if len(files) != 1:
        raise RuntimeError(f"expected one {role} trace, found {len(files)}")
    return int(files[0].stem.split("-")[1]), Tracer.load(files[0])


def _serve_layers(supervisor: SpanIndex, worker: SpanIndex, counts
                  ) -> Dict[str, float]:
    def points(spans: SpanIndex, name: str) -> Dict[int, float]:
        return {span[REQUEST]: span[START] for span in spans.spans
                if span[NAME] == name}

    dispatched = points(supervisor, "workers.dispatch")
    returned = points(supervisor, "workers.result")
    received = points(worker, "workers.recv")
    per_batch: Dict[int, List[int]] = {}
    for index, span in enumerate(worker.spans):
        if worker.parent[index] < 0 \
                and span[NAME] in ("planner.answer", "planner.serialize"):
            per_batch.setdefault(span[REQUEST], []).append(index)
    if not per_batch:
        raise TraceError("the worker recorded no planner span")
    ipc, serialize, answer_self, roots = [], [], [], []
    for batch, spans in per_batch.items():
        if batch not in dispatched or batch not in returned \
                or batch not in received:
            continue
        # A batch's round trip, as the supervisor sees it, is the root; the
        # worker's planner and serialization spans are its children.
        root = (dispatched[batch], returned[batch])
        intervals = [worker.interval(index) for index in spans]
        roots.append((root, intervals))
        busy_end = max(end for _start, end in intervals)
        ipc.append((root[1] - root[0]) - (busy_end - received[batch]))
        serialize.append(sum(worker.duration(index) for index in spans
                             if worker.spans[index][NAME] == "planner.serialize"))
        answer_self.extend(worker.duration(index)
                           - worker.children_covered(index)
                           for index in spans
                           if worker.spans[index][NAME] == "planner.answer")
    if not roots:
        raise TraceError("no batch was matched across supervisor and worker")
    if not any(serialize):
        raise TraceError("the worker recorded no planner.serialize span")
    metrics = {
        "frontend.parse_ms": median_ms(supervisor, "frontend.parse"),
        "workers.roundtrip_ms": median_ms(supervisor, "workers.roundtrip"),
        "workers.ipc_ms": ms(median(ipc)),
        "workers.batch_size": counts["batched_queries"] / counts["batches"],
        "planner.answer_ms": ms(median(answer_self)),
        "planner.serialize_ms": ms(median(serialize)),
        "baselines.index_load_ms": median_ms(worker, "baselines.index_load"),
        "trace.unattributed_share": unattributed_share(roots),
    }
    metrics.update(baseline_query_layers(worker, SERVE_METHODS))
    return metrics
