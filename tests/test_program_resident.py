"""Differential tests: shard-resident execution vs direct ``Weaver``.

The resident engine promises the exact observable behavior of the
batched executor the in-process deployments run — same results, same
read set, same per-vertex states, same halt reason, hop-for-hop
identical visit counts — while running every round at the shards and
forwarding frontiers peer-to-peer.  Each comparison loads one seeded
graph into a :class:`ProcessWeaver` and a direct :class:`Weaver` with
the same configuration, takes the same checkpoint sequence on both, and
runs the same program on each.  (Some test names still say "image
pull", the earlier reference path; they are kept so test ids stay
stable.)

Covered axes: every library program, configured ones included × seeded
multi-shard graphs × historical ``at=`` reads × the shard-side program
cache × a SIGKILL/recover epoch boundary.  ``TestResidentSmoke``
doubles as the CI transport-smoke entry (2 workers, BFS + cached
re-run, trace-chain assertion).
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.process import ProcessWeaver
from repro.db import Weaver, WeaverConfig
from repro.errors import ProgramError
from repro.programs.analytics import (
    ComponentSize,
    DegreeHistogram,
    KHopNeighborhood,
    LabelPropagation,
    PushPageRank,
    TriangleCount,
    WeightedShortestPath,
)
from repro.programs.library import (
    Bfs,
    BlockRender,
    ClusteringCoefficient,
    CollectReachable,
    CountEdges,
    GetEdges,
    GetNode,
    PathDiscovery,
    Reachability,
    ShortestPath,
    params,
)


class ConfiguredBfs(Bfs):
    """A module-level user subclass whose constructor state changes
    the traversal: only edges carrying ``prop`` are followed."""

    name = "configured_bfs"

    def __init__(self, prop):
        self.prop = prop

    def run(self, node, params, ctx):
        if node.prog_state.visited:
            return ()
        node.prog_state.visited = True
        ctx.emit(node.handle)
        return [
            (edge.nbr, params) for edge in node.neighbors
            if edge.check(self.prop)
        ]


def build_graph(db, num_vertices, avg_degree, seed):
    """Seeded random graph, loaded through ordinary transactions.

    Every edge carries a ``cost`` weight, and about half also carry a
    ``hot`` flag, both drawn from their own stream so the topology for
    a seed does not depend on them.
    """
    rng = random.Random(seed)
    weights = random.Random(seed + 1)
    handles = [f"v{i}" for i in range(num_vertices)]
    tx = db.begin_transaction()
    for handle in handles:
        tx.create_vertex(handle)
    tx.commit()
    tx = db.begin_transaction()
    for src in handles:
        for _ in range(avg_degree):
            dst = handles[rng.randrange(num_vertices)]
            if dst != src:
                edge = tx.create_edge(src, dst)
                tx.set_edge_property(
                    src, edge, "cost", weights.randint(1, 9)
                )
                if weights.random() < 0.5:
                    tx.set_edge_property(src, edge, "hot", True)
    tx.commit()
    db.drain()
    return handles


class Twin:
    """One seeded graph in a process deployment and a direct one."""

    def __init__(self, config):
        self.process = ProcessWeaver(config)
        self.direct = Weaver(config)
        self.handles = []

    def load(self, num_vertices, avg_degree, seed):
        for db in (self.process, self.direct):
            self.handles = build_graph(db, num_vertices, avg_degree, seed)

    def checkpoint(self):
        return (self.process.checkpoint(), self.direct.checkpoint())

    def apply(self, writes):
        """Run ``writes(tx)`` as one committed transaction on both."""
        for db in (self.process, self.direct):
            tx = db.begin_transaction()
            writes(tx)
            tx.commit()
            db.drain()

    def run(self, make_program, start, point=None, **kwargs):
        process_at, direct_at = point if point is not None else (None, None)
        resident = self.process.run_program(
            make_program(), list(start), at=process_at, **kwargs
        )
        direct = self.direct.run_program(
            make_program(), list(start), at=direct_at, **kwargs
        )
        return resident, direct

    def close(self):
        self.process.close()


def _assert_equivalent(resident, direct):
    assert resident.results == direct.results
    assert resident.read_set == direct.read_set
    assert resident.states == direct.states
    assert resident.halted == direct.halted
    # Both paths apply the same same-round hop dedup, so the raw counts
    # match exactly, not just the distinct-visited sets.
    assert resident.vertices_visited == direct.vertices_visited
    assert resident.hops == direct.hops


def _config(**overrides):
    fields = dict(num_shards=3, num_gatekeepers=2, partitioner="hash")
    fields.update(overrides)
    return WeaverConfig(**fields)


@pytest.fixture(scope="module", params=[3, 21, 99])
def graph(request):
    twin = Twin(_config(enable_program_cache=True))
    try:
        twin.load(60, 4, seed=request.param)
        yield twin, twin.checkpoint()
    finally:
        twin.close()


CASES = [
    ("bfs", Bfs, lambda h: [(h[0], params(depth=0))]),
    (
        "bfs_depth_limited",
        Bfs,
        lambda h: [(h[0], params(depth=0, max_depth=3))],
    ),
    ("collect", CollectReachable, lambda h: [(h[0], params())]),
    (
        "reachable_hit",
        Reachability,
        lambda h: [(h[0], params(target=h[-1]))],
    ),
    (
        "reachable_miss",
        Reachability,
        lambda h: [(h[0], params(target="no-such-vertex"))],
    ),
    (
        "shortest_path",
        ShortestPath,
        lambda h: [(h[0], params(target=h[len(h) // 2], dist=0))],
    ),
    (
        "path_discovery",
        PathDiscovery,
        lambda h: [(h[0], params(target=h[-1]))],
    ),
    ("clustering", ClusteringCoefficient, lambda h: [(h[0], params())]),
    ("get_node", GetNode, lambda h: [(h[0], None)]),
    (
        "multi_start",
        Bfs,
        lambda h: [(h[0], params(depth=0)), (h[-1], params(depth=0))],
    ),
    ("get_edges", GetEdges, lambda h: [(h[0], params(edge_prop="hot"))]),
    ("count_edges", CountEdges, lambda h: [(h[0], params())]),
    ("block_render", BlockRender, lambda h: [(h[0], params())]),
    ("k_hop", KHopNeighborhood, lambda h: [(h[0], params(k=2))]),
    ("label_propagation", LabelPropagation, lambda h: [(h[0], None)]),
    ("component_size", ComponentSize, lambda h: [(h[0], None)]),
    ("triangle_count", TriangleCount, lambda h: [(h[0], None)]),
    ("degree_histogram", DegreeHistogram, lambda h: [(h[0], params(k=2))]),
    (
        "weighted_shortest_path",
        lambda: WeightedShortestPath("cost"),
        lambda h: [(h[0], params(target=h[-1]))],
    ),
    (
        "push_pagerank",
        lambda: PushPageRank(damping=0.5),
        lambda h: [(h[0], params(mass=1.0))],
    ),
    ("configured_bfs", lambda: ConfiguredBfs("hot"), lambda h: [(h[0], None)]),
]


@pytest.mark.parametrize(
    "prog, make_start",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_library_programs_match_image_pull(graph, prog, make_start):
    twin, point = graph
    resident, direct = twin.run(prog, make_start(twin.handles), point)
    _assert_equivalent(resident, direct)


def test_resident_path_actually_ran_at_the_shards(graph):
    """The parity above is only meaningful if the process runs really
    executed at the shards, not in a client-side executor."""
    twin, (point, _) = graph
    db = twin.process
    before = db.executor.stats.batch_rounds
    coordinated = db.metrics.snapshot()["program.resident.programs_coordinated"]
    result = db.run_program(
        Bfs(), twin.handles[0], params(depth=0), at=point
    )
    assert result.rounds > 0
    assert db.executor.stats.batch_rounds == before  # no client rounds
    snap = db.metrics.snapshot()
    assert snap["program.resident.programs_coordinated"] == coordinated + 1
    assert snap["program.resident.rounds_executed"] > 0
    # Cross-shard traversal on a 3-shard hash partition must forward.
    assert snap["program.resident.forwards_sent"] > 0


def test_configured_program_runs_resident(graph):
    """Constructor state ships with the program: the configured
    subclass follows only ``hot`` edges at the shards, exactly as it
    does on the direct deployment, and differs from stock BFS."""
    twin, point = graph
    db = twin.process
    before = db.executor.stats.batch_rounds
    coordinated = db.metrics.snapshot()["program.resident.programs_coordinated"]
    start = [(twin.handles[0], None)]
    resident, direct = twin.run(lambda: ConfiguredBfs("hot"), start, point)
    _assert_equivalent(resident, direct)
    assert db.executor.stats.batch_rounds == before
    snap = db.metrics.snapshot()
    assert snap["program.resident.programs_coordinated"] == coordinated + 1
    stock, _ = twin.run(Bfs, start, point)
    assert set(resident.results) <= set(stock.results)


class TestUnshippablePrograms:
    """A program the workers cannot rebuild fails loudly as a
    ProgramError; nothing falls back to another path."""

    def test_function_local_class_is_rejected(self, graph):
        class LocalBfs(Bfs):
            pass

        twin, _ = graph
        with pytest.raises(ProgramError, match="unknown program"):
            twin.process.run_program(
                LocalBfs(), twin.handles[0], params(depth=0)
            )
        # The deployment keeps serving afterwards.
        result = twin.process.run_program(
            Bfs(), twin.handles[0], params(depth=0)
        )
        assert result.results

    def test_unencodable_state_is_rejected(self, graph):
        twin, _ = graph
        program = Bfs()
        program.hook = object()
        with pytest.raises(ProgramError, match="cannot encode"):
            twin.process.run_program(
                program, twin.handles[0], params(depth=0)
            )


class TestHistoricalReads:
    """Resident ≡ direct at every snapshot — and the snapshots are
    really distinct cuts of the graph."""

    def test_both_paths_agree_at_both_checkpoints(self):
        twin = Twin(_config())
        try:
            edges = {}

            def first(tx):
                for h in "abcdefg":
                    tx.create_vertex(h)
                for src, dst in [
                    ("a", "b"), ("a", "c"), ("b", "d"),
                    ("c", "e"), ("d", "f"), ("e", "g"),
                ]:
                    edges[(src, dst)] = tx.create_edge(src, dst)

            twin.apply(first)
            point1 = twin.checkpoint()

            def second(tx):
                tx.delete_edge("b", edges[("b", "d")])
                tx.create_vertex("h")
                tx.create_edge("a", "h")

            twin.apply(second)
            point2 = twin.checkpoint()

            start = [("a", params(depth=0))]
            old_resident, old_direct = twin.run(Bfs, start, point1)
            _assert_equivalent(old_resident, old_direct)
            new_resident, new_direct = twin.run(Bfs, start, point2)
            _assert_equivalent(new_resident, new_direct)

            # The mutation separated the two cuts.
            assert "d" in old_resident.results
            assert "h" not in old_resident.results
            assert "h" in new_resident.results
            assert "d" not in new_resident.results
        finally:
            twin.close()


class TestResidentProgramCache:
    """Section 4.6 shard-side: memoized results revalidate against
    change counters on every fragment before being served."""

    def _db(self):
        config = WeaverConfig(
            num_shards=2,
            num_gatekeepers=2,
            partitioner="hash",
            enable_program_cache=True,
        )
        db = ProcessWeaver(config)
        tx = db.begin_transaction()
        for h in "abc":
            tx.create_vertex(h)
        tx.create_edge("a", "b")
        tx.create_edge("b", "c")
        tx.commit()
        db.drain()
        return db

    def test_cache_hit_matches_and_is_traced(self):
        with self._db() as db:
            prm = params(depth=0)
            first = db.run_program(Bfs(), "a", prm, use_cache=True)
            runs_before = db.programs_run
            hit = db.run_program(Bfs(), "a", prm, use_cache=True)
            assert hit.results == first.results
            assert hit.read_set == first.read_set
            assert db.programs_run == runs_before + 1
            completes = db.tracer.spans(kind="program.complete")
            assert completes[-1].attr("cache_hit") is True
            assert completes[-2].attr("cache_hit") is None
            snap = db.metrics.snapshot()
            assert snap["program.resident.cache_hits"] >= 1

    def test_write_to_read_set_invalidates(self):
        with self._db() as db:
            prm = params(depth=0)
            db.run_program(Bfs(), "a", prm, use_cache=True)
            # Mutate a vertex the program read: its shard's change
            # counter moves, so revalidation must refuse the entry.
            tx = db.begin_transaction()
            tx.create_vertex("d")
            tx.create_edge("b", "d")
            tx.commit()
            db.drain()
            fresh = db.run_program(Bfs(), "a", prm, use_cache=True)
            assert "d" in fresh.results
            completes = db.tracer.spans(kind="program.complete")
            assert completes[-1].attr("cache_hit") is None

    def test_historical_entries_keyed_by_snapshot(self):
        with self._db() as db:
            point1 = db.checkpoint()
            tx = db.begin_transaction()
            tx.create_vertex("d")
            tx.create_edge("a", "d")
            tx.commit()
            db.drain()
            prm = params(depth=0)
            current = db.run_program(Bfs(), "a", prm, use_cache=True)
            assert "d" in current.results
            historical = db.run_program(
                Bfs(), "a", prm, at=point1, use_cache=True
            )
            assert set(historical.results) == {"a", "b", "c"}
            # Each snapshot serves its own entry; neither cross-serves.
            assert db.run_program(
                Bfs(), "a", prm, at=point1, use_cache=True
            ).results == historical.results
            assert db.run_program(
                Bfs(), "a", prm, use_cache=True
            ).results == current.results


class TestKillRecoverParity:
    """The differential holds across a SIGKILL/recover epoch boundary:
    the replacement worker rejoins the peer mesh and the resident path
    still matches direct ``Weaver`` on the recovered partition."""

    def test_resident_matches_images_after_recovery(self):
        twin = Twin(_config())
        try:
            twin.load(30, 3, seed=7)
            db = twin.process
            start = [(twin.handles[0], params(depth=0))]
            point = twin.checkpoint()
            before, direct = twin.run(Bfs, start, point)
            _assert_equivalent(before, direct)

            db.kill_shard_worker(0)
            db.recover_shard(0)
            assert db.recoveries == 1

            after_point = twin.checkpoint()
            coordinated = db.metrics.snapshot()[
                "program.resident.programs_coordinated"
            ]
            after, direct = twin.run(Bfs, start, after_point)
            _assert_equivalent(after, direct)
            _assert_equivalent(*twin.run(
                lambda: ConfiguredBfs("hot"),
                [(twin.handles[0], None)], after_point,
            ))
            _assert_equivalent(*twin.run(
                lambda: WeightedShortestPath("cost"),
                [(twin.handles[0], params(target=twin.handles[-1]))],
                after_point,
            ))
            # The graph is static, so the recovered partition must
            # reproduce the pre-kill answer bit for bit.
            assert after.results == before.results
            assert after.read_set == before.read_set
            assert db.metrics.snapshot()[
                "program.resident.programs_coordinated"
            ] == coordinated + 3
        finally:
            twin.close()


class TestResidentSmoke:
    """CI transport-smoke entry: 2 workers, BFS + cached re-run, and
    the trace chain crosses the process boundary intact."""

    def test_bfs_cached_rerun_and_trace_chain(self):
        config = WeaverConfig(
            num_shards=2,
            num_gatekeepers=2,
            partitioner="hash",
            enable_program_cache=True,
        )
        with ProcessWeaver(config) as db:
            tx = db.begin_transaction()
            handles = [tx.create_vertex(f"s{i}") for i in range(12)]
            for i in range(1, 12):
                tx.create_edge(handles[(i - 1) // 2], handles[i])
            tx.commit()
            db.drain()

            prm = params(depth=0)
            result = db.run_program(Bfs(), "s0", prm, use_cache=True)
            assert sorted(result.results) == sorted(
                f"s{i}" for i in range(12)
            )

            # The whole pipeline rode one trace id: submit and stamp at
            # the client, rounds at the workers, completion back home.
            tid = db.tracer.spans(kind="program.submit")[-1].trace_id
            chain = db.tracer.spans(trace_id=tid)
            kinds = [span.kind for span in chain]
            assert kinds[0] == "program.submit"
            assert "program.stamp" in kinds
            assert kinds[-1] == "program.complete"
            rounds = [s for s in chain if s.kind == "program.round"]
            assert rounds, "no worker round spans crossed the wire"
            assert all(
                span.node in ("shard0", "shard1") for span in rounds
            )

            # Cached re-run: served from the shard-side cache.
            hit = db.run_program(Bfs(), "s0", prm, use_cache=True)
            assert hit.results == result.results
            last = db.tracer.spans(kind="program.complete")[-1]
            assert last.attr("cache_hit") is True
