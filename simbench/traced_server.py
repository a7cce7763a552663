"""``python -m repro.cli`` with the serve-mix layer spans installed.

    PYTHONPATH=src python3 simbench/traced_server.py TRACE_DIR answer ...

Used only by traced serve-mix runs.  The supervisor and its forked worker
record spans in memory; each writes ``TRACE_DIR/<role>-<pid>.json`` when it
stops.  Batch ids tie the two sides together: the supervisor notes when it
dispatches a batch and when the result frame arrives, the worker when the
batch frame arrives and when its result frame is encoded.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import instrument_layers  # noqa: E402
from tracer import Tracer  # noqa: E402


def install(tracer: Tracer, trace_dir: Path) -> None:
    from repro.service import planner, workers

    instrument_layers(tracer)
    tracer.instrument_function(planner, "outcome_to_wire", "planner.serialize")
    encode_frame, recv_frame = workers.encode_frame, workers.recv_frame
    read_frame, run_worker = workers.read_frame, workers.run_worker
    submit = workers.WorkerPool.submit

    def traced_encode_frame(payload):
        op = payload.get("op")
        if op == "batch":
            tracer.counts["batches"] += 1
            tracer.counts["batched_queries"] += len(payload["queries"])
            now = time.perf_counter()
            tracer.add_span("workers.dispatch", now, now, payload["id"])
        elif op == "result":
            tracer.request = payload.get("id")
            with tracer.span("planner.serialize"):
                return encode_frame(payload)
        return encode_frame(payload)

    def traced_recv_frame(sock):
        message = recv_frame(sock)
        if message is not None and message.get("op") == "batch":
            now = time.perf_counter()
            tracer.request = message.get("id")
            tracer.add_span("workers.recv", now, now, tracer.request)
        return message

    async def traced_read_frame(reader):
        message = await read_frame(reader)
        if message is not None and message.get("op") == "result":
            now = time.perf_counter()
            tracer.add_span("workers.result", now, now, message.get("id"))
        return message

    def traced_submit(self, query, **options):
        start = time.perf_counter()
        future = submit(self, query, **options)
        future.add_done_callback(lambda _future: tracer.add_span(
            "workers.roundtrip", start, time.perf_counter()))
        return future

    def traced_run_worker(sock, planner_factory, *args):
        tracer.reset()
        try:
            run_worker(sock, planner_factory, *args)
        finally:
            tracer.dump(trace_dir / f"worker-{os.getpid()}.json")

    workers.encode_frame = traced_encode_frame
    workers.recv_frame = traced_recv_frame
    workers.read_frame = traced_read_frame
    workers.run_worker = traced_run_worker
    workers.WorkerPool.submit = traced_submit


def main() -> int:
    trace_dir = Path(sys.argv[1])
    from repro import cli

    tracer = Tracer()
    install(tracer, trace_dir)
    tracer.enabled = True
    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.dump(trace_dir / f"supervisor-{os.getpid()}.json")


if __name__ == "__main__":
    sys.exit(main())
