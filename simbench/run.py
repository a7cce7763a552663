"""Run one benchmark workload and print its metrics.

    python3 simbench/run.py --workload gt-exactsim --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
Report lines start with ``#``; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of ``BENCHMARK.json``,
with ``--trace 1`` its per-layer metrics (measured in a separate traced
run).  Each workload lists in ``LAYERS`` the per-layer metrics its traffic
reaches; a traced run that cannot measure one of them fails, and only the
layers outside that list read 0.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gt-exactsim", "serve-mix", "update-mix")


class Bench:
    """What a workload gets: its arguments, a scratch directory, a printer."""

    def __init__(self, args: argparse.Namespace, spec: Dict[str, Any]):
        self.root = ROOT
        self.seed = int(args.seed)
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        key = "per_layer" if self.trace else "end_to_end"
        self.units = {metric["name"]: metric["unit"] for metric in spec[key]}
        self.work = ROOT / ".simbench" / f"{args.workload}-{self.seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def note(self, key: str, value: Any) -> None:
        print(f"# {key}: {json.dumps(value)}", flush=True)

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program under {ROOT / 'src'}; run from the root "
              f"of a full checkout", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print("error: BENCHMARK.json not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from common import TraceError, emit_result, steal_share, steal_ticks

    bench = Bench(args, spec)
    stolen = steal_ticks()
    began = time.monotonic()
    try:
        if args.workload == "gt-exactsim":
            import gt_exactsim as workload
        elif args.workload == "serve-mix":
            import serve_mix as workload
        else:
            import update_mix as workload
        outcome = workload.run(bench)
    except TraceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        bench.cleanup()
    # Time the hypervisor gave the vCPUs to someone else during the run: on
    # a shared host this, not the program, explains most slow runs.
    bench.note("host_steal_share", steal_share(steal_ticks() - stolen,
                                               time.monotonic() - began))

    metrics = outcome["metrics"]
    expected = workload.LAYERS if bench.trace else tuple(bench.units)
    missing = [name for name in expected if name not in metrics]
    if missing:
        print(f"error: workload did not measure {missing}", file=sys.stderr)
        return 1
    for name in bench.units:
        metrics.setdefault(name, 0.0)     # a layer this workload never reaches
    emit_result(outcome["correct"], outcome["attempted"], outcome["failed"],
                metrics, bench.units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
