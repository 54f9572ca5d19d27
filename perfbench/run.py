"""End-to-end benchmark of the Weaver reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload tao_write --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` measures the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every answer matched the reference model.  ``--record FILE`` also writes
the full recording (metrics, sample counts, provenance) as JSON.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the recording here")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources under {SRC}\n")
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import measure
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    with measure.socket_dir():
        record = measure.run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    print(measure.report(record))
    if args.record:
        with open(args.record, "w") as out:
            json.dump(record, out, indent=1, sort_keys=True)
            out.write("\n")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
