"""The real multiprocess Weaver deployment.

:class:`ProcessWeaver` is the concurrent counterpart of the in-process
:class:`~repro.db.database.Weaver` and the deterministic
:class:`~repro.sim.deployment.SimulatedWeaver` — same parts from the
same :func:`~repro.cluster.builder.build_cluster`, but every shard
server and the timeline oracle run as separate OS processes speaking
length-prefixed :mod:`~repro.cluster.wire` frames over UNIX sockets
(:class:`~repro.cluster.transport.ProcessTransport`).

Node programs run *at the data*: the client submits one
:class:`~repro.cluster.messages.ProgramStart` — carrying the program's
:func:`~repro.programs.framework.program_spec`, so configured programs
keep their configuration — to the start vertex's owning shard.  Each
worker runs its slice of every scatter-gather round against its local
snapshot, and next frontiers travel worker-to-worker as
``FrontierForward`` frames: O(shards) wire messages per round, not
O(frontier).  The coordinating worker detects round quiescence and
replies with only the aggregated result and read set (section 4's
shard-to-shard propagation), identical to what the batched executor of
the in-process deployments returns.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import shutil
import socket
import tempfile
from types import SimpleNamespace
from typing import Any, Dict, Hashable, List, Optional, Tuple

from ..core.gatekeeper import Gatekeeper, sync_announce_all
from ..core.vclock import VectorTimestamp
from ..db.config import WeaverConfig
from ..db.operations import graph_state_from_store
from ..db.transactions import Transaction
from ..errors import ClusterError, NoSuchVertex, ProgramError
from ..obs.collect import scalar_fields
from ..programs.framework import NodeProgram, ProgramResult, program_spec
from ..programs.state import WatermarkRegistry
from .builder import build_cluster
from .messages import ProgramStart, QueuedTransaction
from .transport import ProcessTransport, TransportError
from .wire import WireError
from .worker import OracleProxy, oracle_worker_main, shard_worker_main

import dataclasses

StartSpec = Any


# -- the deployment -------------------------------------------------------


class ProcessWeaver:
    """A Weaver deployment whose shards and oracle are OS processes."""

    def __init__(self, config: Optional[WeaverConfig] = None):
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX hosts
            raise ClusterError(
                "process deployment requires the fork start method"
            ) from exc
        self.transport = ProcessTransport()
        self._tmpdir = tempfile.mkdtemp(prefix="weaver-")
        self._oracle_path = os.path.join(self._tmpdir, "oracle.sock")
        # Bind + listen before forking: connects succeed via the backlog
        # no matter when the oracle process reaches accept().
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(self._oracle_path)
        listener.listen(16)
        self._oracle_proc = self._mp.Process(
            target=oracle_worker_main, args=(listener,), daemon=True
        )
        self._oracle_proc.start()
        listener.close()
        self.oracle = OracleProxy(self._oracle_path)

        parts = build_cluster(
            config,
            oracle=self.oracle,
            with_shards=False,
            transport_stats=self.transport.stats,
            extra=self._process_metrics,
        )
        self.parts = parts
        self.config = parts.config
        cfg = self.config
        self.store = parts.store
        self.mapping = parts.mapping
        self.gatekeepers: List[Gatekeeper] = parts.gatekeepers
        self.manager = parts.manager
        self.executor = parts.executor
        self.metrics = parts.metrics
        self.tracer = parts.tracer
        self.transport._registry = self.metrics
        self.transport.register("client", self._on_worker_events)
        self.watermarks = WatermarkRegistry(cmp=lambda a, b: a.compare(b))

        self._procs: Dict[int, Any] = {}
        #: Worker↔worker listening-socket paths, one per shard index.
        #: Bound before the owning worker forks, so peer connects land
        #: in the backlog no matter when the worker reaches accept().
        self._peer_paths: Dict[int, str] = {
            index: os.path.join(self._tmpdir, f"peer{index}.sock")
            for index in range(cfg.num_shards)
        }
        #: Last absorbed worker-side metrics (dotted names) and program
        #: counter sums — kept so `repro stats` after close() still
        #: reports worker work (deployment-neutral program.* metrics).
        self._worker_metrics: Dict[str, float] = {}
        self._worker_prog_sum: Dict[str, float] = {}
        for index in range(cfg.num_shards):
            self._spawn_worker(index)

        self._handle_counter = itertools.count()
        self._query_counter = itertools.count(1)
        self._next_gk = itertools.count()
        self._send_rank = itertools.count()
        self._commits = 0
        self._commits_since_drain = 0
        self._channel_seqno: Dict[Tuple[int, int], int] = {}
        self._placement: Dict[str, int] = {}
        self._epoch = 0
        self.recoveries = 0
        self.programs_run = 0
        self._closed = False

    # -- workers --------------------------------------------------------

    @staticmethod
    def shard_name(index: int) -> str:
        return f"shard{index}"

    def _spawn_worker(
        self,
        index: int,
        epoch: int = 0,
        image: Optional[tuple] = None,
        recovery_ts: Optional[VectorTimestamp] = None,
        store_path: Optional[str] = None,
        placement: Optional[Dict[str, int]] = None,
    ) -> None:
        parent_sock, child_sock = socket.socketpair(
            socket.AF_UNIX, socket.SOCK_STREAM
        )
        # Rebind this worker's peer listener fresh: a replacement must
        # not accept frontier frames queued for its dead predecessor.
        peer_path = self._peer_paths[index]
        try:
            os.unlink(peer_path)
        except OSError:
            pass
        peer_listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        peer_listener.bind(peer_path)
        peer_listener.listen(16)
        proc = self._mp.Process(
            target=shard_worker_main,
            args=(
                child_sock,
                index,
                self.config.num_gatekeepers,
                self.config.use_ordering_cache,
                self._oracle_path,
                epoch,
                image,
                recovery_ts,
                store_path,
            ),
            kwargs=dict(
                peer_listener=peer_listener,
                peer_paths=dict(self._peer_paths),
                placement=placement,
                enable_program_cache=self.config.enable_program_cache,
                program_cache_capacity=self.config.program_cache_capacity,
            ),
            daemon=True,
        )
        proc.start()
        child_sock.close()
        peer_listener.close()
        self._procs[index] = proc
        self.transport.add_channel(self.shard_name(index), parent_sock)

    def _on_worker_events(self, src: str, kind: str, events) -> None:
        """Replay worker-side spans (ridden on reply frames) into the
        client tracer under their original trace ids — `repro trace`
        chains then assemble identically to the in-process deployments."""
        for trace_id, span_kind, node, attrs in events:
            self.tracer.emit(trace_id, span_kind, node=node, **attrs)

    def _live_shards(self) -> List[int]:
        names = set(self.transport.channels())
        return [
            i for i in range(self.config.num_shards)
            if self.shard_name(i) in names
        ]

    def _request_all_shards(self, kind: str, payload: Any) -> List[Any]:
        calls = [
            (self.shard_name(i), kind, payload) for i in self._live_shards()
        ]
        return self.transport.request_all("client", calls)

    # -- identifiers ----------------------------------------------------

    def new_handle(self, prefix: str = "v") -> str:
        return f"{prefix}{next(self._handle_counter)}"

    def _pick_gatekeeper(self) -> int:
        return next(self._next_gk) % len(self.gatekeepers)

    # -- transactions ---------------------------------------------------

    def begin_transaction(
        self, gatekeeper: Optional[int] = None
    ) -> Transaction:
        index = (
            gatekeeper if gatekeeper is not None else self._pick_gatekeeper()
        )
        if not 0 <= index < len(self.gatekeepers):
            raise ClusterError(f"no gatekeeper {index}")
        tx = Transaction(self, index)
        tx.trace_id = self.tracer.next_trace_id()
        self.tracer.emit(
            tx.trace_id, "client.submit", node="client", gk=index
        )
        return tx

    def _commit_transaction(self, tx: Transaction) -> VectorTimestamp:
        gk = self.gatekeepers[tx.gatekeeper_index]
        delta: Dict[str, int] = {}
        for vertex in tx.created_vertices:
            shard = self.mapping.assign(vertex, tx=tx.store_tx)
            self._placement[vertex] = shard
            delta[vertex] = shard
        if delta:
            # One-way placement gossip: every worker partitions next
            # frontiers locally, so each must know who owns new
            # vertices.  FIFO per channel — the delta is flushed before
            # any later request (e.g. advance_to) on the same socket.
            for shard_index in self._live_shards():
                self.transport.send(
                    "client", self.shard_name(shard_index),
                    "placement", delta,
                )
        ts = gk.commit_prepared(
            tx.store_tx, tx.touched_vertices, trace_id=tx.trace_id
        )
        per_shard: Dict[int, List] = {}
        for op in tx.operations:
            (owner,) = op.touched()
            shard = self._shard_of(owner)
            if shard is None:
                raise NoSuchVertex(owner)
            per_shard.setdefault(shard, []).append(op)
        for shard_index, ops_list in per_shard.items():
            self._enqueue(
                gk.index,
                shard_index,
                QueuedTransaction(ts, tuple(ops_list), trace_id=tx.trace_id),
            )
        self._commits += 1
        if self._commits % self.config.announce_every == 0:
            sync_announce_all(self.gatekeepers)
        self._commits_since_drain += 1
        if self._commits_since_drain >= self.config.drain_every:
            self.drain()
        return ts

    def _shard_of(self, vertex: str) -> Optional[int]:
        shard = self._placement.get(vertex)
        if shard is None:
            shard = self.mapping.lookup(vertex)
            if shard is not None:
                self._placement[vertex] = shard
        return shard

    def _enqueue(
        self, gk_index: int, shard_index: int, qtx: QueuedTransaction
    ) -> None:
        """Stamp the channel seqno and buffer the enqueue on the worker's
        socket; the transport flushes it (batched with its channel-mates)
        before the next request on that channel, preserving FIFO."""
        channel = (gk_index, shard_index)
        seqno = self._channel_seqno.get(channel, 0)
        self._channel_seqno[channel] = seqno + 1
        stamped = dataclasses.replace(
            qtx, seqno=seqno, tiebreak=next(self._send_rank)
        )
        self.transport.send(
            self.gatekeepers[gk_index].name,
            self.shard_name(shard_index),
            "enqueue",
            (gk_index, stamped),
        )

    # -- queue pumping --------------------------------------------------

    def _send_nops(self) -> None:
        """One NOP from every gatekeeper to every shard, vector-clock
        chained exactly like the direct deployment's (the announce
        rounds run client-side; only the enqueues cross the wire)."""
        sync_announce_all(self.gatekeepers)
        previous: Optional[VectorTimestamp] = None
        live = self._live_shards()
        for gk in self.gatekeepers:
            if previous is not None:
                gk.receive_announce(previous.clocks)
            nop_ts = gk.make_nop()
            previous = nop_ts
            for shard_index in live:
                self._enqueue(gk.index, shard_index, QueuedTransaction(nop_ts))
        sync_announce_all(self.gatekeepers)

    def drain(self) -> int:
        """Heartbeat every queue, then apply everything applicable on
        every worker (one pipelined fan-out)."""
        self._send_nops()
        self._commits_since_drain = 0
        return sum(self._request_all_shards("drain", None))

    # -- node programs --------------------------------------------------

    def _make_shards_ready(self, ts: VectorTimestamp) -> None:
        stats = self.executor.stats
        if all(self._request_all_shards("advance_to", ts)):
            stats.readiness_fastpath_hits += 1
            return
        stats.readiness_storms += 1
        self._send_nops()
        ready = self._request_all_shards("advance_to", ts)
        if not all(ready):
            bad = [
                self.shard_name(i)
                for i, ok in zip(self._live_shards(), ready)
                if not ok
            ]
            raise ClusterError(
                f"{bad} not ready for {ts} despite heartbeats"
            )

    def run_program(
        self,
        program: NodeProgram,
        start: StartSpec,
        params: Any = None,
        at: Optional[VectorTimestamp] = None,
        use_cache: bool = False,
        cache_key: Optional[Hashable] = None,
    ) -> ProgramResult:
        """Execute a node program on a consistent snapshot.

        Execution is shipped to the shard workers (one
        ``program_start`` request; frontiers travel peer-to-peer).
        With ``use_cache`` (requires ``enable_program_cache``), the
        coordinating worker may serve a memoized result after
        revalidating every fragment's change counters.
        """
        frontier = (
            [(start, params)] if isinstance(start, str) else list(start)
        )
        query_id = next(self._query_counter)
        trace_id = self.tracer.next_trace_id()
        self.tracer.emit(
            trace_id, "program.submit", node="client",
            query_id=query_id, program=program.name,
        )
        gk = self.gatekeepers[self._pick_gatekeeper()]
        ts = at if at is not None else gk.issue_timestamp()
        self.tracer.emit(
            trace_id, "program.stamp", node=gk.name,
            ts=ts, query_id=query_id,
        )
        self._make_shards_ready(ts)
        cache_tail: Optional[Hashable] = None
        if use_cache and self.config.enable_program_cache:
            cache_tail = cache_key if cache_key is not None else repr(params)
            # Historical queries read a different cut of the graph: the
            # snapshot identity is part of the key (section 4.6).
            if at is not None:
                cache_tail = (cache_tail, at.id)
        return self._run_resident(
            program, frontier, ts, query_id, trace_id, cache_tail
        )

    def _run_resident(
        self,
        program: NodeProgram,
        frontier: List[Tuple[str, Any]],
        ts: VectorTimestamp,
        query_id: int,
        trace_id: int,
        cache_tail: Optional[Hashable],
    ) -> ProgramResult:
        """Ship the program to the data: one ``program_start`` request
        to the start vertex's owner, which coordinates the rounds and
        replies with the aggregated result."""
        live = self._live_shards()
        if not live:
            raise ClusterError("no live shard workers")
        # Initial frontier entry i carries order key (i,): children
        # append their hop index, so sorting a round's entries by key
        # reproduces the batched executor's append order exactly.
        keyed = tuple(
            ((i,), handle, entry_params)
            for i, (handle, entry_params) in enumerate(frontier)
        )
        coordinator = self._shard_of(frontier[0][0]) if frontier else None
        if coordinator is None or coordinator not in live:
            coordinator = live[0]
        ps = ProgramStart(
            ts, query_id, program_spec(program), keyed, trace_id=trace_id,
            cache_tail=cache_tail, max_visits=self.executor._max_visits,
        )
        self.watermarks.start(query_id, ts)
        try:
            payload = self.transport.request(
                "client", self.shard_name(coordinator), "program_start", ps
            )
        except (TransportError, WireError) as exc:
            raise ProgramError(str(exc)) from exc
        finally:
            self.watermarks.finish(query_id)
        if payload.get("error"):
            raise ProgramError(payload["error"])
        self.programs_run += 1
        if payload.get("cache_hit"):
            self.tracer.emit(
                trace_id, "program.complete", node="client",
                query_id=query_id, cache_hit=True,
            )
        else:
            self.tracer.emit(
                trace_id, "program.complete", node="client",
                query_id=query_id,
            )
        ctx = SimpleNamespace(
            query_id=payload["query_id"],
            ts=payload["ts"],
            results=list(payload["results"]),
            states=dict(payload["states"]),
            vertices_visited=payload["vertices_visited"],
            hops=payload["hops"],
            halted=payload["halted"],
            read_set=set(payload["read_set"]),
            rounds=payload["rounds"],
        )
        return ProgramResult(ctx)

    def checkpoint(self) -> VectorTimestamp:
        sync_announce_all(self.gatekeepers)
        ts = self.gatekeepers[self._pick_gatekeeper()].issue_timestamp()
        sync_announce_all(self.gatekeepers)
        return ts

    # -- garbage collection ---------------------------------------------

    def collect_garbage(self) -> Dict[str, int]:
        sync_announce_all(self.gatekeepers)
        fallback = self.gatekeepers[0].current_watermark()
        watermark = self.watermarks.watermark(fallback)
        if watermark is None:
            return {"graph": 0, "oracle": 0}
        self.drain()
        # After the drain every worker span below the watermark has been
        # replayed locally; announcing the watermark now lets an attached
        # online checker settle those events against decisions that the
        # collect_below calls are about to discard.
        self.tracer.emit(None, "gc.watermark", node="gc", ts=watermark)
        graph_reclaimed = sum(
            self._request_all_shards("collect_below", watermark)
        )
        oracle_reclaimed = self.oracle.collect_below(watermark)
        if getattr(self.store, "background_compaction_active", False):
            # The opportunistic compactor owns store reclamation; the
            # GC tick must not double-compact under it.
            store_reclaimed = 0
        else:
            store_reclaimed = self.store.collect_below(
                self.store.safe_compact_version()
            )
        return {
            "graph": graph_reclaimed,
            "oracle": oracle_reclaimed,
            "store": store_reclaimed,
        }

    # -- failure handling -----------------------------------------------

    def kill_shard_worker(self, index: int) -> None:
        """SIGKILL one shard worker mid-flight (chaos testing)."""
        proc = self._procs.get(index)
        if proc is None or not proc.is_alive():
            raise ClusterError(f"no live worker for shard {index}")
        proc.kill()
        proc.join(timeout=10)

    def recover_shard(self, index: int) -> None:
        """Replace a dead worker: epoch barrier on the survivors, then a
        fresh process reloading the partition from the backing store.

        Buffered messages to the dead worker are discarded with its
        channel — their effects are already durable in the store the
        replacement reloads from.
        """
        name = self.shard_name(index)
        self.transport.remove_channel(name)
        proc = self._procs.pop(index, None)
        if proc is not None:
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=10)
        # Epoch barrier: gatekeepers restart their clocks in the new
        # epoch; survivors flush queued work and re-baseline seqnos.
        # (The manager has no local shard servers here — the workers ARE
        # the shards, reached by RPC below.)
        self._epoch = self.manager.advance_epoch()
        self.transport.flush()
        self._request_all_shards("advance_epoch", self._epoch)
        self._channel_seqno.clear()
        recovery_ts = self.gatekeepers[0].issue_timestamp()
        if (
            self.config.store_backend == "sqlite"
            and self.config.store_path != ":memory:"
        ):
            # Real crash recovery: the replacement worker reopens the
            # WAL-backed database itself and carves out its partition —
            # nothing graph-shaped crosses the fork.  Checkpoint first
            # so the worker's read-only open sees every commit even if
            # the WAL file is sidestepped by its snapshot read.
            self.store._conn.execute("PRAGMA wal_checkpoint(PASSIVE)")
            self._spawn_worker(
                index,
                epoch=self._epoch,
                recovery_ts=recovery_ts,
                store_path=self.config.store_path,
            )
        else:
            placement = {v: s for v, s in self.mapping.items()}
            vertices, edges = graph_state_from_store(self.store.snapshot())
            image = (
                {
                    h: props for h, props in vertices.items()
                    if placement.get(h) == index
                },
                {
                    key: record for key, record in edges.items()
                    if placement.get(key[0]) == index
                },
            )
            self._spawn_worker(
                index, epoch=self._epoch, image=image,
                recovery_ts=recovery_ts, placement=placement,
            )
        self.recoveries += 1

    # -- statistics ------------------------------------------------------

    def _absorb_worker_stats(self, replies: List[dict]) -> None:
        """Fold the workers' extended stats snapshots into the cached
        dotted-metric aggregate (wholesale: worker counters are
        cumulative since worker start)."""
        metrics: Dict[str, float] = {}
        prog_sum: Dict[str, float] = {}
        stragglers = 0
        cache_hits = cache_misses = cache_entries = 0
        pc_hits = pc_misses = pc_invalidations = pc_entries = 0
        for snap in replies:
            for key, value in snap["shard"].items():
                out_key = f"shard.{key}"
                metrics[out_key] = metrics.get(out_key, 0) + value
            for key, value in snap["ordering"].items():
                out_key = f"ordering.{key}"
                metrics[out_key] = metrics.get(out_key, 0) + value
            stragglers += snap["stragglers_dropped"]
            hits, misses, entries = snap["cache"]
            cache_hits += hits
            cache_misses += misses
            cache_entries += entries
            for key, value in snap.get("program", {}).items():
                prog_sum[key] = prog_sum.get(key, 0) + value
            for key, value in snap.get("resident", {}).items():
                out_key = f"program.resident.{key}"
                metrics[out_key] = metrics.get(out_key, 0) + value
            for key, value in snap.get("peer_transport", {}).items():
                out_key = f"transport.worker.{key}"
                metrics[out_key] = metrics.get(out_key, 0) + value
            ph, pm, pi, pl = snap.get("prog_cache", (0, 0, 0, 0))
            pc_hits += ph
            pc_misses += pm
            pc_invalidations += pi
            pc_entries += pl
        metrics["ordering.cache_hits"] = cache_hits
        metrics["ordering.cache_misses"] = cache_misses
        metrics["ordering.cache_entries"] = cache_entries
        metrics["process.stragglers_dropped"] = stragglers
        if self.config.enable_program_cache:
            metrics["program.cache.hits"] = pc_hits
            metrics["program.cache.misses"] = pc_misses
            metrics["program.cache.invalidations"] = pc_invalidations
            metrics["program.cache.entries"] = pc_entries
        self._worker_metrics = metrics
        self._worker_prog_sum = prog_sum

    def _process_metrics(self) -> Dict[str, float]:
        """Aggregate worker-side counters over RPC, under the same
        dotted names the in-process deployments export.

        Registered *last* with the metrics registry, so the merged
        ``program.*`` values emitted here (client executor + worker
        residents) override the client-only collector — program metrics
        stay deployment-neutral.  After ``close()`` the last absorbed
        worker aggregate is served from cache, so a final ``repro
        stats`` still sees worker-side work.
        """
        out: Dict[str, float] = {
            "process.workers": len(self._live_shards()),
            "process.recoveries": self.recoveries,
        }
        if not self._closed:
            try:
                self._absorb_worker_stats(
                    self._request_all_shards("stats", None)
                )
            except TransportError:
                pass
        out.update(self._worker_metrics)
        if self._worker_prog_sum:
            for key, value in scalar_fields(self.executor.stats).items():
                out[f"program.{key}"] = (
                    value + self._worker_prog_sum.get(key, 0)
                )
        return out

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Shut every worker down cleanly; kill whatever will not die."""
        if self._closed:
            return
        try:
            self.transport.flush()
            # Final stats absorb before the workers go away: merged
            # program.* metrics survive into post-close snapshots.
            self._absorb_worker_stats(
                self._request_all_shards("stats", None)
            )
        except TransportError:
            pass
        self._closed = True
        for index in list(self._procs):
            name = self.shard_name(index)
            try:
                self.transport.request("client", name, "shutdown", None)
            except TransportError:
                pass
        self.transport.close()
        for proc in self._procs.values():
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=10)
        self._procs.clear()
        self.oracle.shutdown()
        self.oracle.close()
        self._oracle_proc.join(timeout=10)
        if self._oracle_proc.is_alive():
            self._oracle_proc.kill()
            self._oracle_proc.join(timeout=10)
        # The oracle and peer listening sockets live in the temp dir.
        shutil.rmtree(self._tmpdir, ignore_errors=True)
        if hasattr(self.store, "close"):
            self.store.close()

    def __enter__(self) -> "ProcessWeaver":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
