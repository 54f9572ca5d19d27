"""ProcessWeaver end to end: the real-transport deployment must behave
exactly like the in-process one.

Three claims, in rising order of ambition: (1) the same operations
produce the same program results as the direct :class:`Weaver`; (2) a
transaction's trace chain — client submit through cross-process shard
apply — has the same shape in both deployments, i.e. trace ids survive
the wire (the spans literally cross an OS process boundary and come
back); (3) a Zipf-contended workload survives a SIGKILLed shard worker
mid-run with a recovery, zero strict-serializability violations, and a
clean history digest.
"""

import os
import random
import time

import pytest

from repro.cluster.process import ProcessWeaver
from repro.db import Weaver, WeaverConfig
from repro.obs import assemble_chain
from repro.verify.history import History, HistoryChecker, decided_order
from repro.verify.online import OnlineChecker
from repro.programs.library import (
    CollectReachable,
    CountEdges,
    GetNode,
    Reachability,
    params,
)
from repro.workloads.contention import ZipfSampler


def load_tree(db, n=24, fanout=3):
    """A seeded tree plus properties, identical across deployments."""
    tx = db.begin_transaction()
    handles = [tx.create_vertex(f"p{i}") for i in range(n)]
    for i in range(1, n):
        tx.create_edge(handles[(i - 1) // fanout], handles[i])
    for i, handle in enumerate(handles):
        tx.set_property(handle, "depth", i % 5)
    tx.commit()
    db.drain()
    return handles


@pytest.fixture(scope="module")
def pair():
    config = WeaverConfig(num_shards=2, num_gatekeepers=2)
    direct = Weaver(WeaverConfig(num_shards=2, num_gatekeepers=2))
    with ProcessWeaver(config) as process:
        load_tree(direct)
        load_tree(process)
        yield direct, process


class TestParityWithDirectWeaver:
    def test_reachable_sets_match(self, pair):
        direct, process = pair
        for root in ("p0", "p3", "p23"):
            want = sorted(direct.run_program(CollectReachable(), root).results)
            got = sorted(process.run_program(CollectReachable(), root).results)
            assert got == want

    def test_reachability_verdicts_match(self, pair):
        direct, process = pair
        for src, dst in (("p0", "p23"), ("p23", "p0"), ("p5", "p17")):
            # An empty result set means unreachable (Fig 11 semantics).
            want = direct.run_program(
                Reachability(), src, params(target=dst)
            ).results
            got = process.run_program(
                Reachability(), src, params(target=dst)
            ).results
            assert got == want

    def test_vertex_reads_match(self, pair):
        direct, process = pair
        for handle in ("p0", "p7", "p19"):
            want = direct.run_program(GetNode(), handle).value
            got = process.run_program(GetNode(), handle).value
            assert got == want

    def test_edge_counts_match(self, pair):
        direct, process = pair
        for handle in ("p0", "p1", "p23"):
            want = direct.run_program(CountEdges(), handle).value
            got = process.run_program(CountEdges(), handle).value
            assert got == want


class TestTempDirCleanup:
    """close() removes the deployment's socket directory, also after a
    worker was replaced (its peer socket was re-bound)."""

    def test_close_removes_temp_dir(self):
        db = ProcessWeaver(WeaverConfig(num_shards=2))
        tmpdir = db._tmpdir
        assert os.path.isdir(tmpdir)
        db.close()
        assert not os.path.exists(tmpdir)

    def test_close_removes_temp_dir_after_recovery(self):
        db = ProcessWeaver(WeaverConfig(num_shards=2))
        tmpdir = db._tmpdir
        load_tree(db, n=6)
        db.kill_shard_worker(1)
        db.recover_shard(1)
        db.close()
        assert not os.path.exists(tmpdir)


class TestTraceChainParity:
    """Satellite: trace ids cross the process boundary and the replayed
    worker spans reassemble into the same chain the direct deployment
    produces natively."""

    @staticmethod
    def chain_shape(db):
        """(kind, node) sequence for one two-shard transaction's trace."""
        setup = db.begin_transaction()
        handles = [setup.create_vertex() for _ in range(8)]
        setup.commit()
        a = handles[0]
        b = next(
            h for h in handles if db._shard_of(h) != db._shard_of(a)
        )
        tx = db.begin_transaction()
        tx.set_property(a, "k", 1)
        tx.set_property(b, "k", 1)
        tx.commit()
        db.drain()
        spans = assemble_chain(db.tracer, tx.trace_id)
        return [
            (span.kind, span.node)
            for span in spans
            if span.kind != "oracle.decide"
        ]

    def test_two_shard_transaction_chains_match(self):
        config = WeaverConfig(num_shards=2, num_gatekeepers=1)
        direct_chain = self.chain_shape(
            Weaver(WeaverConfig(num_shards=2, num_gatekeepers=1))
        )
        with ProcessWeaver(config) as process:
            process_chain = self.chain_shape(process)
        # Same spans, same nodes: the worker-side shard.enqueue and
        # shard.apply spans crossed the wire under the original trace id.
        assert sorted(process_chain) == sorted(direct_chain)
        kinds = [kind for kind, _node in process_chain]
        assert kinds[:3] == ["client.submit", "gatekeeper.stamp",
                             "store.commit"]
        assert kinds.count("shard.enqueue") == 2
        assert kinds.count("shard.apply") == 2
        for kind, node in process_chain:
            if kind in ("shard.enqueue", "shard.apply"):
                assert node in ("shard0", "shard1")


class TestChaosKillAndRecover:
    """Satellite: the acceptance run from the issue — Zipf workload,
    SIGKILL one worker mid-run, recover, and the referee finds a clean,
    digestible history."""

    def test_zipf_workload_survives_worker_kill(self):
        config = WeaverConfig(num_shards=2, num_gatekeepers=2)
        history = History()
        tags = iter(range(10**6))
        vertices = [f"v{i}" for i in range(10)]
        sampler = ZipfSampler(len(vertices), 0.8, seed=17)

        with ProcessWeaver(config) as db:
            history.attach(db.tracer)

            def write(targets):
                tag = next(tags)
                submitted_at = time.perf_counter()
                tx = db.begin_transaction()
                for target in targets:
                    tx.set_property(target, "w", tag)
                ts = tx.commit()
                db.tracer.emit(
                    tx.trace_id, "txn.commit", node="client",
                    at=time.perf_counter(),
                    tag=tag, ts=ts,
                    writes=tuple((t, tag) for t in targets),
                    submitted_at=submitted_at,
                )

            def read(target):
                query_id = next(tags)
                submitted_at = time.perf_counter()
                result = db.run_program(GetNode(), target)
                observed = result.value["properties"].get("w")
                db.tracer.emit(
                    db.tracer.next_trace_id(), "program.read",
                    node="client", query_id=query_id,
                    at=time.perf_counter(),
                    ts=result.timestamp,
                    reads=((target, observed),),
                    submitted_at=submitted_at,
                )

            # Setup: every vertex exists and carries an initial tag.
            for vertex in vertices:
                tag = next(tags)
                submitted_at = time.perf_counter()
                tx = db.begin_transaction()
                tx.create_vertex(vertex)
                tx.set_property(vertex, "w", tag)
                ts = tx.commit()
                db.tracer.emit(
                    tx.trace_id, "txn.commit", node="client",
                    at=time.perf_counter(),
                    tag=tag, ts=ts, writes=((vertex, tag),),
                    submitted_at=submitted_at,
                )
            db.drain()

            def mix(rounds):
                for i in range(rounds):
                    first = vertices[sampler.sample()]
                    second = vertices[sampler.sample()]
                    write([first] if first == second else [first, second])
                    if i % 3 == 2:
                        read(vertices[sampler.sample()])

            mix(15)
            db.kill_shard_worker(0)
            db.recover_shard(0)
            mix(15)
            db.drain()
            read(vertices[0])
            read(vertices[1])

            assert db.recoveries == 1
            checker = HistoryChecker(history, decided_order(db.oracle))
            violations = checker.check()

        assert violations == [], "\n".join(str(v) for v in violations)
        assert len(history.commits) >= 30
        assert len(history.reads) >= 7
        assert set(history.applies)  # worker apply spans crossed the wire
        digest = history.digest()
        assert len(digest) == 64
        assert digest == history.digest()  # stable over re-rendering


class TestShuffledSpanDelivery:
    """Satellite: span arrival order is a transport artifact, not a
    semantic one.  Worker spans ride reply frames and can interleave
    arbitrarily with client-side spans, so the history must reconstruct
    the same record multiset — same digest, same verdict — from any
    permutation of a real cross-process run's span stream."""

    def test_replayed_shuffled_spans_reproduce_history(self):
        config = WeaverConfig(num_shards=2, num_gatekeepers=2)
        history = History()
        recorded = []
        tags = iter(range(10**6))
        vertices = [f"s{i}" for i in range(6)]
        sampler = ZipfSampler(len(vertices), 0.8, seed=23)

        with ProcessWeaver(config) as db:
            db.tracer.add_sink(recorded.append)
            history.attach(db.tracer)

            def write(targets):
                tag = next(tags)
                submitted_at = time.perf_counter()
                tx = db.begin_transaction()
                for target in targets:
                    tx.set_property(target, "w", tag)
                ts = tx.commit()
                db.tracer.emit(
                    tx.trace_id, "txn.commit", node="client",
                    at=time.perf_counter(),
                    tag=tag, ts=ts,
                    writes=tuple((t, tag) for t in targets),
                    submitted_at=submitted_at,
                )

            def read(target):
                query_id = next(tags)
                submitted_at = time.perf_counter()
                result = db.run_program(GetNode(), target)
                observed = result.value["properties"].get("w")
                db.tracer.emit(
                    db.tracer.next_trace_id(), "program.read",
                    node="client", query_id=query_id,
                    at=time.perf_counter(),
                    ts=result.timestamp,
                    reads=((target, observed),),
                    submitted_at=submitted_at,
                )

            for vertex in vertices:
                tag = next(tags)
                submitted_at = time.perf_counter()
                tx = db.begin_transaction()
                tx.create_vertex(vertex)
                tx.set_property(vertex, "w", tag)
                ts = tx.commit()
                db.tracer.emit(
                    tx.trace_id, "txn.commit", node="client",
                    at=time.perf_counter(),
                    tag=tag, ts=ts, writes=((vertex, tag),),
                    submitted_at=submitted_at,
                )
            db.drain()

            for i in range(8):
                first = vertices[sampler.sample()]
                second = vertices[sampler.sample()]
                write([first] if first == second else [first, second])
                if i % 3 == 2:
                    read(vertices[sampler.sample()])
            # A kill/recover mid-run puts applies from two shard epochs
            # in the stream — the hard case for order reconstruction.
            db.kill_shard_worker(1)
            db.recover_shard(1)
            for _ in range(4):
                write([vertices[sampler.sample()]])
            db.drain()
            read(vertices[0])

            compare = decided_order(db.oracle)
            base_digest = history.digest()
            assert HistoryChecker(history, compare).check() == []
            assert any(s.kind == "shard.apply" for s in recorded)

            rng = random.Random(7)
            for _ in range(3):
                shuffled = list(recorded)
                rng.shuffle(shuffled)
                replayed = History()
                online = OnlineChecker(compare)
                for span in shuffled:
                    replayed.consume(span)
                    online.consume(span)
                assert replayed.digest() == base_digest
                assert online.digest() == base_digest
                assert HistoryChecker(replayed, compare).check() == []
                assert online.finalize() == []
