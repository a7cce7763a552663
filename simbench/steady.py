"""Steadiness check: one workload over several seeds, spread beside bound.

    python3 simbench/steady.py --workload serve-mix --seeds 1-10

Runs ``run.py --trace 0`` once per seed for ``run_seconds``, one run at a
time, and prints for each end-to-end metric the median of its values and
their inter-quartile distance as a share of that median
(``statistics.quantiles(values, n=4)``) next to the metric's bound from
``BENCHMARK.json``.  A spread above its bound, or above a third of it, is
marked.  Exits 1 if a run fails or reports an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List

from benchstats import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> List[int]:
    """``"1-5"`` -> [1, 2, 3, 4, 5]; ``"3,7,9"`` -> [3, 7, 9]."""
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: Dict[str, List[float]] = {name: [] for name in bounds}
    ok = True
    for seed in parse_seeds(args.seeds):
        command = [sys.executable, str(HERE / "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        started = time.perf_counter()
        completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                                   text=True)
        elapsed = time.perf_counter() - started
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"seed {seed}: exit {completed.returncode}\n"
                  f"{completed.stderr[-2000:]}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        steal = next((line.split(": ", 1)[1] for line in lines
                      if line.startswith("# host_steal_share: ")), "?")
        print(f"seed {seed}: {elapsed:.1f}s steal={steal[:6]} "
              f"correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{name}={entry['value']:.6g}"
                         for name, entry in result["metrics"].items()),
              flush=True)
        for name, entry in result["metrics"].items():
            values[name].append(entry["value"])

    print(f"\n{'metric':40s} {'median':>14s} {'spread':>9s} {'bound':>7s}")
    for name, series in values.items():
        if not series:
            continue
        share = spread(series)
        bound = bounds[name]
        flag = ("  <-- above bound" if share > bound
                else "  <-- above bound/3" if share > bound / 3.0 else "")
        print(f"{name:40s} {median(series):14.6g} {share:9.4f} {bound:7.3f}"
              f"{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
