"""Fig 13-style shard scaling over the real multiprocess transport.

Two experiments:

* ``scaling`` — the same seeded graph + query batch at 1/2/4 shard
  worker processes, every run's results checked against the
  deterministic simulated twin, recorded into ``BENCH_transport.json``
  at the repo root with its ``cpu_count``;
* the shard-resident wire budget — a multi-shard BFS batch whose answers
  must match the direct deployment, with the client paying one request
  per query beyond readiness and the peers O(shards) coordination
  frames per round.

Parity and the count bounds are asserted unconditionally — they do not
depend on core count.  The scaling bar is asserted only on hosts with
at least ``MIN_MEANINGFUL_CORES`` CPU cores (worker processes can only
overlap on real parallel hardware); smaller hosts skip with a message
naming the requirement, and :func:`record_bench` refuses to let their
numbers overwrite a recording from a qualifying host.
"""

import os
import pathlib

import pytest

from repro.bench.transport_bench import (
    MIN_MEANINGFUL_CORES,
    record_bench,
    resident_batch,
    scaling_experiment,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_transport.json"

SHARD_COUNTS = (1, 2, 4)
SCALING_BAR = 1.8


def test_transport_shard_scaling(show):
    cores = os.cpu_count() or 1
    result = scaling_experiment(shard_counts=SHARD_COUNTS)
    recorded = record_bench(BENCH_PATH, "scaling", result)
    show(
        "Process transport: traversal throughput vs worker count",
        headers=["workers", "queries/s", "pipelined", "bytes sent"],
        rows=[
            [
                p["shards"],
                round(p["throughput_qps"], 1),
                p["transport"]["requests_pipelined"],
                p["transport"]["bytes_sent"],
            ]
            for p in result["points"]
        ],
        lines=[
            f"cpu_count: {result['cpu_count']}",
            f"scaling 1→{SHARD_COUNTS[-1]}: {result['scaling']:.2f}x",
            f"results_equal vs simulated twin: {result['results_equal']}",
            f"recorded: {recorded}",
        ],
    )
    assert result["results_equal"], (
        "process-transport results diverged from the simulated twin"
    )
    for point in result["points"]:
        assert point["transport"]["batched_messages"] > 0
    multi = [p for p in result["points"] if p["shards"] > 1]
    assert all(p["transport"]["requests_pipelined"] > 0 for p in multi)
    if cores < MIN_MEANINGFUL_CORES:
        pytest.skip(
            f"shard-scaling bar needs >= {MIN_MEANINGFUL_CORES} CPU "
            f"cores (host has {cores}); twin parity verified, "
            f"throughput bar skipped"
        )
    assert recorded, "qualifying host's scaling run must be archived"
    assert result["scaling"] > SCALING_BAR, (
        f"throughput scaled only {result['scaling']:.2f}x from "
        f"{SHARD_COUNTS[0]} to {SHARD_COUNTS[-1]} workers "
        f"(need > {SCALING_BAR}x on a {cores}-core host)"
    )


def test_resident_wire_budget(show):
    result = resident_batch()
    show(
        "Node programs at the shards "
        f"({result['num_vertices']}v/{result['num_edges']}e/"
        f"{result['num_shards']} workers)",
        headers=["queries/s", "client reqs", "readiness reqs",
                 "msgs/round"],
        rows=[[
            round(result["throughput_qps"], 1),
            int(result["client_requests"]),
            int(result["readiness_requests"]),
            round(result["wire_messages_per_round"], 1),
        ]],
        lines=[
            f"cpu_count: {result['cpu_count']}",
            f"results_equal vs direct: {result['results_equal']}",
        ],
    )
    assert result["results_equal"], (
        "shard-resident execution diverged from the direct deployment"
    )
    # The client talks to one coordinator per query on top of the
    # readiness fan-out; per-round peer coordination is bounded by the
    # shard count, not the frontier size.
    assert result["client_requests"] == (
        result["readiness_requests"] + result["num_queries"]
    )
    assert result["forwards_sent"] > 0
    assert result["wire_messages_per_round"] <= 2 * result["num_shards"]
