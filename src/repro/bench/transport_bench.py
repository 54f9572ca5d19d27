"""Fig 13-style shard scaling over the real multiprocess transport.

One seeded random graph is loaded into a
:class:`~repro.cluster.process.ProcessWeaver` at several worker counts
and the same batch of traversal queries is timed at each; the identical
graph and queries also run on the deterministic
:class:`~repro.sim.deployment.SimulatedWeaver` twin, whose results the
process runs must match exactly (``results_equal``) — the simulator is
the correctness referee, the processes are the performance claim.

Node programs run at the shard workers (see
:mod:`~repro.cluster.process`): each worker executes its slice of every
round and forwards frontiers to its peers.  Adding workers therefore
adds throughput **only on multi-core hardware** — the recorded
``cpu_count`` tells the consumer whether the scaling number means
anything on the host that produced it.

``benchmarks/test_transport_scaling.py`` records the results as
``BENCH_transport.json`` at the repo root (one section per experiment,
each carrying the ``cpu_count`` it was measured on; see
:func:`record_bench` for the provenance rules).

:func:`resident_batch` counts what one BFS batch costs on the wire the
client sees — one ``program_start`` per query on top of the readiness
fan-out — and the peer coordination per round, checked against the
direct deployment's answers.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import time
from typing import Dict, List, Tuple

from ..cluster.process import ProcessWeaver
from ..db.config import WeaverConfig
from ..db.database import Weaver
from ..db.operations import CreateEdge, CreateVertex
from ..programs.library import Bfs, CollectReachable, params
from ..sim.deployment import SimulatedWeaver

#: Scaling/speedup bars only mean something with real parallel hardware.
MIN_MEANINGFUL_CORES = 4

QueryResults = List[Tuple[str, ...]]


def graph_spec(
    num_vertices: int = 400, avg_degree: int = 4, seed: int = 29
) -> Tuple[List[str], List[Tuple[str, str]]]:
    """A seeded connected random graph: spanning tree + extra edges."""
    rng = random.Random(seed)
    handles = [f"n{i}" for i in range(num_vertices)]
    edges: List[Tuple[str, str]] = []
    seen = set()
    for i in range(1, num_vertices):
        parent = handles[rng.randrange(i)]
        edges.append((parent, handles[i]))
        seen.add((parent, handles[i]))
    extra = num_vertices * avg_degree - len(edges)
    while extra > 0:
        src, dst = rng.sample(handles, 2)
        if (src, dst) in seen:
            continue
        seen.add((src, dst))
        edges.append((src, dst))
        extra -= 1
    return handles, edges


def query_roots(
    handles: List[str], num_queries: int = 40, seed: int = 31
) -> List[str]:
    """Zipf-flavoured root choice: hot heads, long tail."""
    rng = random.Random(seed)
    return [
        handles[min(int(rng.paretovariate(1.2)) - 1, len(handles) - 1)]
        for _ in range(num_queries)
    ]


def run_process(
    num_shards: int,
    handles: List[str],
    edges: List[Tuple[str, str]],
    roots: List[str],
    num_gatekeepers: int = 2,
    ops_per_tx: int = 100,
) -> Dict:
    """Load the graph and time the query batch at one worker count."""
    config = WeaverConfig(
        num_shards=num_shards, num_gatekeepers=num_gatekeepers
    )
    with ProcessWeaver(config) as db:
        load_graph(db, handles, edges, ops_per_tx)
        # Warm-up query: pays the readiness storm and worker page-in so
        # the timed batch measures steady-state resolution throughput.
        db.run_program(CollectReachable(), roots[0])
        results: QueryResults = []
        started = time.perf_counter()
        for root in roots:
            outcome = db.run_program(CollectReachable(), root)
            results.append(tuple(sorted(outcome.results)))
        elapsed = time.perf_counter() - started
        snap = db.metrics.snapshot()
        return {
            "shards": num_shards,
            "elapsed_seconds": elapsed,
            "throughput_qps": len(roots) / elapsed if elapsed > 0 else 0.0,
            "results": results,
            "transport": {
                "bytes_sent": snap.get("transport.bytes_sent", 0),
                "bytes_received": snap.get("transport.bytes_received", 0),
                "requests": snap.get("transport.requests", 0),
                "requests_pipelined": snap.get(
                    "transport.requests_pipelined", 0
                ),
                "batches_sent": snap.get("transport.batches_sent", 0),
                "batched_messages": snap.get(
                    "transport.batched_messages", 0
                ),
            },
        }


def run_simulated(
    num_shards: int,
    handles: List[str],
    edges: List[Tuple[str, str]],
    roots: List[str],
    num_gatekeepers: int = 2,
    ops_per_tx: int = 100,
) -> QueryResults:
    """The deterministic twin: same graph, same queries, simulated time."""
    config = WeaverConfig(
        num_shards=num_shards, num_gatekeepers=num_gatekeepers
    )
    sim = SimulatedWeaver(config)

    def submit(ops, new):
        sim.submit_transaction(ops, new_vertices=new)
        sim.run(0.01)

    for base in range(0, len(handles), ops_per_tx):
        chunk = handles[base:base + ops_per_tx]
        submit([CreateVertex(h) for h in chunk], tuple(chunk))
    for base in range(0, len(edges), ops_per_tx):
        chunk = edges[base:base + ops_per_tx]
        submit(
            [
                CreateEdge(f"b{base}_{i}", src, dst)
                for i, (src, dst) in enumerate(chunk)
            ],
            (),
        )
    results: List[Tuple[str, ...]] = []

    def capture(outcome) -> None:
        results.append(tuple(sorted(outcome.results)))

    for root in roots:
        sim.submit_program(CollectReachable(), root, callback=capture)
        sim.run_until_quiet(max_extra=2.0)
    return results


def scaling_experiment(
    shard_counts: Tuple[int, ...] = (1, 2, 4),
    num_vertices: int = 400,
    avg_degree: int = 4,
    num_queries: int = 40,
    seed: int = 29,
) -> Dict:
    """The full experiment: per-worker-count throughput + twin parity."""
    handles, edges = graph_spec(num_vertices, avg_degree, seed)
    roots = query_roots(handles, num_queries, seed + 2)
    reference = run_simulated(max(shard_counts), handles, edges, roots)
    points = []
    for count in shard_counts:
        point = run_process(count, handles, edges, roots)
        point["results_equal"] = point.pop("results") == reference
        points.append(point)
    first, last = points[0], points[-1]
    return {
        "cpu_count": os.cpu_count(),
        "num_vertices": num_vertices,
        "num_edges": len(edges),
        "num_queries": num_queries,
        "shard_counts": list(shard_counts),
        "points": points,
        "scaling": (
            last["throughput_qps"] / first["throughput_qps"]
            if first["throughput_qps"] > 0
            else 0.0
        ),
        "results_equal": all(p["results_equal"] for p in points),
    }


def load_graph(db, handles, edges, ops_per_tx: int = 100) -> None:
    """Bulk-load ``graph_spec`` output through ordinary transactions."""
    tx = db.begin_transaction()
    pending = 0
    for handle in handles:
        tx.create_vertex(handle)
        pending += 1
        if pending >= ops_per_tx:
            tx.commit()
            tx = db.begin_transaction()
            pending = 0
    for src, dst in edges:
        tx.create_edge(src, dst)
        pending += 1
        if pending >= ops_per_tx:
            tx.commit()
            tx = db.begin_transaction()
            pending = 0
    if pending:
        tx.commit()
    else:
        tx.abort()
    db.drain()


def _bfs_batch(db, roots) -> QueryResults:
    return [
        tuple(sorted(db.run_program(Bfs(), root, params(depth=0)).results))
        for root in roots
    ]


def resident_batch(
    num_vertices: int = 800,
    avg_degree: int = 12,
    num_shards: int = 4,
    num_queries: int = 12,
    seed: int = 37,
) -> Dict:
    """A multi-shard BFS batch on the process deployment, counted.

    Hash-partitioned so every query crosses shards.  Client requests
    are read off the client transport; ``readiness_requests`` is the
    ``advance_to`` fan-out (one per shard per probe, two probes when a
    NOP storm runs).  Peer coordination (forwards + round reports) is
    normalised per worker round slice.  ``results_equal`` compares the
    answers with the direct deployment on the same graph.
    """
    handles, edges = graph_spec(num_vertices, avg_degree, seed)
    roots = query_roots(handles, num_queries, seed + 2)
    config = WeaverConfig(
        num_shards=num_shards, num_gatekeepers=2, partitioner="hash"
    )
    direct = Weaver(config)
    load_graph(direct, handles, edges)
    reference = _bfs_batch(direct, roots)
    with ProcessWeaver(config) as db:
        load_graph(db, handles, edges)
        # Warm-up pays the readiness storm / first-connect costs.
        db.run_program(Bfs(), roots[0], params(depth=0))
        stats = db.executor.stats

        def probes() -> int:
            return stats.readiness_fastpath_hits + 2 * stats.readiness_storms

        # Snapshots fan out stats requests: take them outside the count.
        before = db.metrics.snapshot()
        requests, probes_before = db.transport.stats.requests, probes()
        started = time.perf_counter()
        results = _bfs_batch(db, roots)
        elapsed = time.perf_counter() - started
        client_requests = db.transport.stats.requests - requests
        readiness = (probes() - probes_before) * num_shards
        after = db.metrics.snapshot()

    def delta(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    rounds = delta("program.batch_rounds")
    coordination = (
        delta("program.resident.forwards_sent")
        + delta("program.resident.round_reports")
    )
    return {
        "cpu_count": os.cpu_count(),
        "num_vertices": num_vertices,
        "num_edges": len(edges),
        "num_shards": num_shards,
        "num_queries": num_queries,
        "elapsed_seconds": elapsed,
        "throughput_qps": len(roots) / elapsed if elapsed > 0 else 0.0,
        "client_requests": client_requests,
        "readiness_requests": readiness,
        "rounds": rounds,
        "forwards_sent": delta("program.resident.forwards_sent"),
        "wire_messages_per_round": coordination / rounds if rounds else 0.0,
        "results_equal": results == reference,
    }


def record_bench(path, section: str, result: Dict) -> bool:
    """Merge ``result`` under ``section`` in the bench JSON at ``path``.

    Provenance rule: a recording measured on a host with at least
    :data:`MIN_MEANINGFUL_CORES` cores is never overwritten by one from
    a smaller host — scaling and speedup numbers from a 1-core box would
    silently replace the only meaningful archive.  Returns whether the
    section was written.  Legacy flat files (the pre-section layout) are
    adopted as the ``scaling`` section.
    """
    path = pathlib.Path(path)
    data: Dict = {}
    if path.exists():
        data = json.loads(path.read_text())
        if "points" in data:  # legacy flat layout
            data = {"scaling": data}
    existing = data.get(section)
    new_cores = result.get("cpu_count") or 1
    if existing is not None:
        old_cores = existing.get("cpu_count") or 1
        if old_cores >= MIN_MEANINGFUL_CORES > new_cores:
            return False
    data[section] = result
    path.write_text(json.dumps(data, indent=2) + "\n")
    return True
