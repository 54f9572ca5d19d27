"""Run the benchmark on several seeds and summarise each metric.

Run from the repository root::

    python3 perfbench/spread.py --workloads tao_write traverse \\
        --seeds 101-110 --seconds 30 [--json out.json]

For every workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the distance between the quartiles as a share of the median.
It exits 1 if any run fails its output check.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Dict, List

RUN = pathlib.Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> List[int]:
    """``"101-110"`` or ``"1,5,9"``."""
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def summarise(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--json", help="also write the summary here")
    args = parser.parse_args()
    summary: Dict[str, Dict[str, dict]] = {}
    ok = True
    for workload in args.workloads:
        values: Dict[str, List[float]] = {}
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds)
            ok = ok and result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(m["value"], 4)
                                   for k, m in result["metrics"].items()},
                  flush=True)
        summary[workload] = {
            name: summarise(vals) for name, vals in values.items()
            if len(vals) >= 2
        }
        for name, stats in summary[workload].items():
            print(f"{workload:<18}{name:<22}median {stats['median']:>11.4f}"
                  f"  spread {stats['spread']:.4f}", flush=True)
    if args.json:
        with open(args.json, "w") as out:
            json.dump(summary, out, indent=1, sort_keys=True)
            out.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
