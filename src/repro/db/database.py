"""The Weaver database: gatekeepers + shards + oracle + backing store.

This is the top-level assembly (Fig 4).  It owns:

* a bank of **gatekeepers** that stamp and commit transactions,
* **shard servers** holding in-memory multi-version graph partitions,
* the **timeline oracle** (optionally chain-replicated),
* the transactional **backing store** and the vertex→shard mapping,
* the **cluster manager** for failure handling,
* the node-program **executor**, the GC **watermark registry**, and the
  optional program **cache**.

Direct mode (this class) executes the full protocol synchronously —
announce rounds every ``announce_every`` commits play the role of the τ
timer, and NOP heartbeats are issued eagerly when a node program needs
every queue non-empty.  The benchmark harness wraps the same servers in
the discrete-event simulator to charge latencies and service times.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple, Union

from ..cluster.builder import build_cluster
from ..cluster.messages import QueuedTransaction
from ..cluster.shard import ShardServer
from ..core.gatekeeper import Gatekeeper, sync_announce_all
from ..core.vclock import VectorTimestamp
from ..errors import ClusterError, NoSuchVertex
from ..programs.caching import ChangeTracker, ProgramCache
from ..programs.framework import NodeProgram, ProgramResult, program_spec
from ..programs.routing import ShardSnapshotResolver
from ..programs.state import WatermarkRegistry
from ..store.kvstore import TransactionalStore
from ..store.mapping import ShardMapping
from .config import WeaverConfig
from .transactions import Transaction

StartSpec = Union[str, Iterable[Tuple[str, Any]]]


class Weaver:
    """A complete Weaver deployment in one process."""

    def __init__(self, config: Optional[WeaverConfig] = None):
        # One deployment-neutral assembly (cluster/builder.py) shared
        # with the simulated and multiprocess deployments; the parts
        # lists are the live ones (recovery replaces elements in place,
        # and the registered collectors follow).
        parts = build_cluster(config)
        self.parts = parts
        self.config = parts.config
        cfg = self.config
        self.store: TransactionalStore = parts.store
        self.mapping = parts.mapping
        self.oracle = parts.oracle
        self.gatekeepers: List[Gatekeeper] = parts.gatekeepers
        self.shards: List[ShardServer] = parts.shards
        self.manager = parts.manager
        self.executor = parts.executor
        self.watermarks = WatermarkRegistry(
            cmp=lambda a, b: a.compare(b)
        )
        self.changes = ChangeTracker()
        self.program_cache: Optional[ProgramCache] = (
            ProgramCache(self.changes, cfg.program_cache_capacity)
            if cfg.enable_program_cache
            else None
        )
        # Observability: one registry + tracer per deployment.  Direct
        # mode has no time axis, so spans default to their emission
        # sequence number as the timestamp (still a total order).
        self.metrics = parts.metrics
        self.tracer = parts.tracer
        self._handle_counter = itertools.count()
        self._query_counter = itertools.count(1)
        self._next_gk = itertools.count()
        # Sender-assigned tiebreak ranks: one global send order across
        # all channels, which extends backing-store commit order because
        # forwarding happens synchronously at commit.
        self._send_rank = itertools.count()
        self._commits = 0
        self._commits_since_drain = 0
        self._channel_seqno: Dict[Tuple[int, int], int] = {}
        self._placement: Dict[str, int] = {}
        self._paging_enabled = False
        self._replicas: list = []
        self.programs_run = 0

    # -- identifiers ------------------------------------------------------

    def new_handle(self, prefix: str = "v") -> str:
        return f"{prefix}{next(self._handle_counter)}"

    def _pick_gatekeeper(self) -> int:
        return next(self._next_gk) % len(self.gatekeepers)

    # -- transactions (section 4.2) ----------------------------------------

    def begin_transaction(
        self, gatekeeper: Optional[int] = None
    ) -> Transaction:
        """Open a read-write transaction routed through one gatekeeper."""
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

    # Transaction.commit() lands here.
    def _commit_transaction(self, tx: Transaction) -> VectorTimestamp:
        gk = self.gatekeepers[tx.gatekeeper_index]
        self._place_new_vertices(tx)
        ts = gk.commit_prepared(
            tx.store_tx, tx.touched_vertices, trace_id=tx.trace_id
        )
        self._forward_to_shards(gk.index, ts, tx)
        self.changes.bump_all(tx.touched_vertices)
        self._commits += 1
        if self._commits % self.config.announce_every == 0:
            sync_announce_all(self.gatekeepers)
        self._commits_since_drain += 1
        if self._commits_since_drain >= self.config.drain_every:
            self.drain()
        return ts

    def _place_new_vertices(self, tx: Transaction) -> None:
        """Install shard assignments for created vertices, atomically with
        the transaction itself (they share the store transaction)."""
        for vertex in tx.created_vertices:
            self._placement[vertex] = self.mapping.assign(
                vertex, tx=tx.store_tx
            )

    def _shard_of(self, vertex: str) -> Optional[int]:
        shard = self._placement.get(vertex)
        if shard is None:
            shard = self.mapping.lookup(vertex)
            if shard is not None:
                self._placement[vertex] = shard
        return shard

    def _forward_to_shards(
        self, gk_index: int, ts: VectorTimestamp, tx: Transaction
    ) -> None:
        """Group the committed operations by owning shard and enqueue
        (FIFO sequence numbers per gatekeeper-shard channel)."""
        per_shard: Dict[int, List] = {}
        for op in tx.operations:
            (owner,) = op.touched()
            shard = self._shard_of(owner)
            if shard is None:
                raise NoSuchVertex(owner)
            per_shard.setdefault(shard, []).append(op)
        for shard_index, ops_list in per_shard.items():
            self._enqueue(
                gk_index,
                shard_index,
                QueuedTransaction(
                    ts, tuple(ops_list), trace_id=tx.trace_id
                ),
            )

    def _enqueue(
        self, gk_index: int, shard_index: int, qtx: QueuedTransaction
    ) -> None:
        channel = (gk_index, shard_index)
        seqno = self._channel_seqno.get(channel, 0)
        self._channel_seqno[channel] = seqno + 1
        stamped = dataclasses.replace(
            qtx, seqno=seqno, tiebreak=next(self._send_rank)
        )
        self.shards[shard_index].enqueue(gk_index, stamped)

    # -- queue pumping -----------------------------------------------------

    def _send_nops(self) -> None:
        """One NOP from every gatekeeper to every shard (section 4.2's
        heartbeat, issued eagerly instead of on a 10 µs timer).

        A single announce round runs first; after it, each NOP is folded
        directly into the next gatekeeper's clock before that one ticks,
        so the NOPs form a vector-clock chain instead of a mutually-
        concurrent set — heartbeats then order proactively and never
        burden the oracle, as in the real system where announces
        (τ ~ tens of µs) interleave the NOP timers.  Chaining costs G-1
        point-to-point folds instead of the seed's G full announce
        rounds (O(G²) messages each).
        """
        sync_announce_all(self.gatekeepers)
        previous: Optional[VectorTimestamp] = None
        for gk in self.gatekeepers:
            if previous is not None:
                gk.receive_announce(previous.clocks)
            nop_ts = gk.make_nop()
            previous = nop_ts
            for shard in self.shards:
                self._enqueue(gk.index, shard.index, QueuedTransaction(nop_ts))
        # Announce the final NOP too, so every later stamp dominates it.
        sync_announce_all(self.gatekeepers)

    def drain(self) -> int:
        """Announce, heartbeat, and apply everything applicable."""
        self._send_nops()
        self._commits_since_drain = 0
        return sum(shard.apply_available() for shard in self.shards)

    # -- node programs (section 4.1) ---------------------------------------

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

        ``start`` is a vertex handle or an iterable of (handle, params)
        pairs.  ``at`` runs a historical query at an earlier timestamp.
        With ``use_cache`` (requires ``enable_program_cache``), a valid
        memoized result for (program, start, cache_key) is returned
        without touching the graph.
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
        cache_entry_key = None
        if use_cache and self.program_cache is not None:
            first = frontier[0][0] if frontier else ""
            key_tail = cache_key if cache_key is not None else repr(params)
            # Historical queries read a different cut of the graph; a
            # current-time result must never serve an ``at=`` query (or
            # vice versa), so the snapshot identity is part of the key.
            if at is not None:
                key_tail = (key_tail, at.id)
            # Keyed on the program's class *and* configuration:
            # WeightedShortestPath("w") must not serve ("x").
            cache_entry_key = ProgramCache.key(
                repr(program_spec(program)), first, key_tail
            )
            cached = self.program_cache.get(cache_entry_key)
            if cached is not None:
                # A hit is still a client-observed run: count it and
                # close the trace so `repro stats`/`repro trace` agree
                # with what clients saw.
                self.programs_run += 1
                self.tracer.emit(
                    trace_id, "program.complete", node="client",
                    query_id=query_id, cache_hit=True,
                )
                return cached
        gk = self.gatekeepers[self._pick_gatekeeper()]
        ts = at if at is not None else gk.issue_timestamp()
        self.tracer.emit(
            trace_id, "program.stamp", node=gk.name,
            ts=ts, query_id=query_id,
        )
        self._make_shards_ready(ts)
        self.watermarks.start(query_id, ts)
        try:
            result = self.executor.execute(
                program, frontier, self._resolver(ts), ts, query_id
            )
        finally:
            self.watermarks.finish(query_id)
        self.programs_run += 1
        self.tracer.emit(
            trace_id, "program.complete", node="client", query_id=query_id
        )
        if cache_entry_key is not None:
            self.program_cache.put(cache_entry_key, result, result.read_set)
        return result

    # -- dynamic repartitioning (section 4.6) ------------------------------

    def migrate_vertex(self, handle: str, to_shard: int) -> bool:
        """Move one vertex (with its full version history) to a shard.

        The paper's dynamic colocation: a vertex is moved next to the
        majority of its neighbours to cut traversal communication.
        Pending queued work is applied first, the record travels with
        all its versions (historical queries keep working), and the
        durable vertex→shard mapping is updated atomically.  Returns
        False when the vertex already lives there.
        """
        if not 0 <= to_shard < len(self.shards):
            raise ClusterError(f"no shard {to_shard}")
        from_shard = self._shard_of(handle)
        if from_shard is None:
            raise NoSuchVertex(handle)
        if from_shard == to_shard:
            return False
        self.drain()
        # A paged-out vertex must be resident before its record can move.
        self.shards[from_shard].ensure_paged(handle)
        vertex, archived = self.shards[from_shard].graph.release_vertex(
            handle
        )
        self.shards[to_shard].graph.adopt_vertex(vertex, archived)
        self.mapping.assign(handle, shard=to_shard)
        self._placement[handle] = to_shard
        return True

    def rebalance(self, max_moves: int = 64, min_gain: int = 1) -> int:
        """Greedy locality pass: move vertices toward their neighbours.

        For every vertex, count neighbours (both directions) per shard
        and migrate it to the plurality shard when that improves its
        colocated-neighbour count by at least ``min_gain``.  Returns the
        number of migrations performed.  This is the online counterpart
        of the offline LDG partitioner (ablation A2) and the mechanism
        sketch of section 4.6.
        """
        from .operations import graph_state_from_store

        _, edges = graph_state_from_store(self.store.snapshot())
        neighbors: Dict[str, List[str]] = {}
        for (src, _), record in edges.items():
            neighbors.setdefault(src, []).append(record["dst"])
            neighbors.setdefault(record["dst"], []).append(src)
        moves = 0
        for handle, nbrs in neighbors.items():
            if moves >= max_moves:
                break
            here = self._shard_of(handle)
            if here is None:
                continue
            counts: Dict[int, int] = {}
            for nbr in nbrs:
                shard = self._shard_of(nbr)
                if shard is not None:
                    counts[shard] = counts.get(shard, 0) + 1
            if not counts:
                continue
            best = max(counts, key=lambda s: counts[s])
            if best != here and (
                counts[best] - counts.get(here, 0) >= min_gain
            ):
                if self.migrate_vertex(handle, best):
                    moves += 1
        return moves

    def edge_cut(self) -> Tuple[int, int]:
        """(cut, total) over committed edges — the locality metric the
        partitioning machinery optimizes."""
        from .operations import graph_state_from_store

        _, edges = graph_state_from_store(self.store.snapshot())
        cut = 0
        for (src, _), record in edges.items():
            a = self._shard_of(src)
            b = self._shard_of(record["dst"])
            if a is not None and b is not None and a != b:
                cut += 1
        return cut, len(edges)

    # -- read replicas (section 6.4) --------------------------------------

    def add_read_replica(self, shard_index: int):
        """Attach an eventually-consistent read replica to one shard.

        Replica reads bypass the ordering machinery entirely (weaker
        consistency, per section 6.4); call :meth:`refresh_replicas` to
        advance them to the current committed state.
        """
        from ..cluster.replica import ReadReplica

        if not 0 <= shard_index < len(self.shards):
            raise ClusterError(f"no shard {shard_index}")
        replica = ReadReplica(self.shards[shard_index])
        self._replicas.append(replica)
        replica.refresh(self.checkpoint())
        self.drain()
        return replica

    def refresh_replicas(self) -> None:
        """Advance every replica to a fresh consistent snapshot."""
        if not self._replicas:
            return
        point = self.checkpoint()
        self.drain()
        for replica in self._replicas:
            replica.refresh(point)

    # -- demand paging (section 6.1) -------------------------------------

    def enable_demand_paging(self) -> None:
        """Let shards evict vertices and reload them from the backing
        store on access — how the paper's CoinGraph deployment fit 900 GB
        of blockchain into 704 GB of cluster memory."""
        self._paging_enabled = True
        for shard in self.shards:
            shard.set_pager(self._load_vertex_image)

    def _load_vertex_image(self, handle: str):
        from .operations import vertex_key

        record = self.store.get(vertex_key(handle))
        if record is None:
            return None
        prefix = f"e:{handle}:"
        edges = {
            key[len(prefix):]: self.store.get(key)
            for key in self.store.keys(prefix)
        }
        return {"properties": dict(record), "edges": edges}

    def evict_vertex(self, handle: str) -> int:
        """Page one vertex out of shard memory.

        Queued work is applied first so no in-flight operation targets
        the evicted record; the next access pages it back in.
        """
        shard_index = self._shard_of(handle)
        if shard_index is None:
            raise NoSuchVertex(handle)
        self.drain()
        return self.shards[shard_index].evict(handle)

    def paging_stats(self) -> Dict[str, int]:
        return {
            "pages_in": sum(s.stats.pages_in for s in self.shards),
            "pages_out": sum(s.stats.pages_out for s in self.shards),
        }

    def checkpoint(self) -> VectorTimestamp:
        """A timestamp usable for stable historical queries.

        The returned stamp dominates every committed write, and the
        announce round after issuing it guarantees every *later* stamp
        dominates it — so a query ``at=checkpoint`` always sees exactly
        the writes committed before the call, no matter when it runs
        (section 3.1's multi-version historical reads).
        """
        sync_announce_all(self.gatekeepers)
        ts = self.gatekeepers[self._pick_gatekeeper()].issue_timestamp()
        sync_announce_all(self.gatekeepers)
        return ts

    def _make_shards_ready(self, ts: VectorTimestamp) -> None:
        """Block (logically) until every shard may execute at ``ts``.

        Fast path first: when every shard can already execute at ``ts``
        (all queues non-empty with heads ordered after ``ts``, typically
        because a recent drain or program left fresh heartbeats behind),
        skip the announce/NOP storm entirely.  Otherwise announce so
        later heartbeats dominate ``ts``, heartbeat so every queue is
        non-empty, then apply all work ordered before ``ts``.
        """
        if all(shard.advance_to(ts) for shard in self.shards):
            self.executor.stats.readiness_fastpath_hits += 1
            return
        self.executor.stats.readiness_storms += 1
        self._send_nops()
        for shard in self.shards:
            if not shard.advance_to(ts):
                raise ClusterError(
                    f"{shard.name} not ready for {ts} despite heartbeats"
                )

    def _resolver(self, ts: VectorTimestamp) -> ShardSnapshotResolver:
        return ShardSnapshotResolver(
            ts,
            self._shard_of,
            self.shards,
            stats=self.executor.stats,
            page_in=True,
        )

    # -- garbage collection (section 4.5) -----------------------------------

    def collect_garbage(self) -> Dict[str, int]:
        """Reclaim multi-version state below the GC watermark.

        The watermark is the oldest in-flight node program, or — when the
        system is idle — a fresh clock snapshot that dominates every
        issued timestamp (everything old is reclaimable).
        """
        sync_announce_all(self.gatekeepers)
        fallback = self.gatekeepers[0].current_watermark()
        watermark = self.watermarks.watermark(fallback)
        if watermark is None:
            return {"graph": 0, "oracle": 0}
        self.drain()
        graph_reclaimed = sum(
            shard.collect_below(watermark) for shard in self.shards
        )
        oracle_reclaimed = self.oracle.collect_below(watermark)
        # Shard-local decision caches hold entries keyed on collected
        # events; evict the ones the watermark dominates so the caches
        # stay bounded within an epoch too.
        cache_evicted = sum(
            shard.ordering.cache.evict_below(watermark)
            for shard in self.shards
            if shard.ordering.cache is not None
        )
        # Store compaction uses the store's own commit counter, not the
        # vector watermark: every version below the oldest open store
        # snapshot is superseded for all future readers.  When the
        # opportunistic background compactor owns reclamation, the GC
        # tick must not double-compact under it.
        if getattr(self.store, "background_compaction_active", False):
            store_reclaimed = 0
        else:
            store_reclaimed = self.store.collect_below(
                self.store.safe_compact_version()
            )
        return {
            "graph": graph_reclaimed,
            "oracle": oracle_reclaimed,
            "ordering_cache": cache_evicted,
            "store": store_reclaimed,
        }

    # -- failure handling (section 4.3) -----------------------------------

    def fail_shard(self, index: int) -> ShardServer:
        """Crash and recover one shard server.

        In-flight (committed but unapplied) work on surviving shards is
        applied first — the epoch barrier; the replacement reloads its
        partition from the backing store.
        """
        self.drain()
        replacement = self.manager.recover_shard(index)
        replacement.tracer = self.tracer
        self.shards[index] = replacement
        if self._paging_enabled:
            replacement.set_pager(self._load_vertex_image)
        self._reset_channels()
        return replacement

    def fail_gatekeeper(self, index: int) -> Gatekeeper:
        """Crash and recover one gatekeeper (epoch bump, clocks restart)."""
        self.drain()
        replacement = self.manager.recover_gatekeeper(index)
        replacement.tracer = self.tracer
        self.gatekeepers[index] = replacement
        self._reset_channels()
        return replacement

    def _reset_channels(self) -> None:
        # The epoch barrier cleared every shard queue and its expected
        # sequence numbers; restart the sender side to match.
        self._channel_seqno.clear()

    # -- statistics -----------------------------------------------------

    def ordering_stats(self) -> Dict[str, int]:
        """Aggregate proactive/cached/reactive comparison counts across
        shards — the Fig 9 'reactively ordered' percentages."""
        totals = {"proactive": 0, "cached": 0, "reactive": 0}
        for shard in self.shards:
            stats = shard.ordering.stats
            totals["proactive"] += stats.proactive
            totals["cached"] += stats.cached
            totals["reactive"] += stats.reactive
        return totals

    def fastpath_stats(self) -> Dict[str, int]:
        """Counters for work the ordering fast paths avoided entirely.

        Kept separate from :meth:`ordering_stats` so the reactive-fraction
        arithmetic the figures report stays on resolved comparisons only.
        """
        totals = {
            "snapshot_memo_hits": 0,
            "heap_compares_saved": 0,
            "cache_hits": 0,
        }
        for shard in self.shards:
            stats = shard.ordering.stats
            totals["snapshot_memo_hits"] += stats.snapshot_memo_hits
            totals["heap_compares_saved"] += stats.heap_compares_saved
            if shard.ordering.cache is not None:
                totals["cache_hits"] += shard.ordering.cache.hits
        oracle_stats = self.oracle_head().stats
        totals["oracle_bfs_expansions"] = oracle_stats.bfs_expansions
        totals["oracle_bfs_pruned"] = oracle_stats.bfs_pruned
        totals["oracle_reach_cache_hits"] = oracle_stats.reach_cache_hits
        return totals

    def oracle_head(self):
        """The oracle state machine holding authoritative stats."""
        return getattr(self.oracle, "head", self.oracle)
