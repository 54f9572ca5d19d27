"""Worker processes for the real (multiprocess) deployment.

Two worker mains live here, each speaking length-prefixed
:mod:`~repro.cluster.wire` frames:

* :func:`shard_worker_main` — one OS process per shard: owns a real
  :class:`~repro.cluster.shard.ShardServer` (the same event loop the
  simulator drives), enqueues gatekeeper-forwarded transactions,
  advances to program timestamps, and runs **node programs at the
  data** (:class:`_ResidentEngine`): each worker executes its slice of
  every scatter-gather round against its local snapshot and forwards
  next frontiers to its peers; only the aggregated result returns to
  the client.
* :func:`oracle_worker_main` — the timeline oracle as its own process
  behind a UNIX listening socket; every shard worker (and the client,
  for the referee and GC) connects and speaks the small RPC surface of
  :class:`OracleProxy`.

Shard-side trace spans (``shard.enqueue`` / ``shard.apply``) are
buffered by a :class:`BufferTracer` and piggybacked on the next reply
frame; the client re-emits them into its own tracer under the original
``trace_id``, which is how ``repro trace`` chains and the
strict-serializability referee see one coherent story across process
boundaries.
"""

from __future__ import annotations

import select
import selectors
import socket
import time
from collections import OrderedDict, deque
from typing import Any, Dict, List, Optional, Tuple

from ..core.oracle import TimelineOracle
from ..core.vclock import Ordering, VectorTimestamp
from ..db.operations import touched_vertices
from ..errors import ProgramError, WeaverError
from ..obs.metrics import MetricsRegistry
from ..programs.caching import ChangeTracker, ProgramCache
from ..programs.framework import (
    ProgramStats, dedup_round, load_program, run_entry,
)
from ..programs.routing import ShardSnapshotResolver
from ..programs.state import ProgramContext
from . import wire
from .messages import FrontierForward, ProgramStart
from .shard import ShardServer
from .transport import ProcessTransport, TransportError


class BufferTracer:
    """Tracer shim for worker processes: buffers spans as plain tuples
    ``(trace_id, kind, node, attrs)`` until a reply frame drains them."""

    def __init__(self) -> None:
        self.events: List[Tuple[Optional[int], str, str, dict]] = []

    def emit(self, trace_id, kind: str, node: str = "", **attrs) -> None:
        self.events.append((trace_id, kind, node, attrs))

    def drain(self) -> List[Tuple[Optional[int], str, str, dict]]:
        events, self.events = self.events, []
        return events


class OracleProxy:
    """Client-side stub of the oracle process.

    Implements the ordering surface shards use
    (:meth:`order`), the referee/GC surface the client uses
    (:meth:`established_order`, :meth:`collect_below`), and the stats
    attributes the metrics collector reads — each as one RPC.
    """

    def __init__(self, path: str):
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.connect(path)
        self._sock.settimeout(60.0)
        self._next_id = 0
        # Builder wiring assigns a tracer; decisions are traced in the
        # oracle process, so the client-side attribute is inert.
        self.tracer = None

    def _call(self, kind: str, payload: Any) -> Any:
        rid = self._next_id
        self._next_id += 1
        wire.write_frame(self._sock, wire.encode(
            {"k": "r", "id": rid, "kind": kind, "p": payload}
        ))
        envelope = wire.decode(wire.read_frame(self._sock))
        if envelope.get("k") == "e":
            raise WeaverError(f"oracle worker failed: {envelope.get('e')}")
        return envelope.get("p")

    # -- ordering surface (what RefinableOrdering calls) ----------------

    def order(self, a: VectorTimestamp, b: VectorTimestamp,
              prefer: Ordering = Ordering.BEFORE) -> Ordering:
        return self._call("order", (a, b, prefer))

    def query_order(self, a, b) -> Optional[Ordering]:
        return self._call("query", (a, b))

    def established_order(self, a, b) -> Optional[Ordering]:
        return self._call("established", (a, b))

    def create_event(self, ts: VectorTimestamp) -> None:
        self._call("create", ts)

    def collect_below(self, watermark: VectorTimestamp) -> int:
        return self._call("collect", watermark)

    # -- stats surface (what the metrics collector reads) ---------------

    @property
    def head(self) -> "OracleProxy":
        return self

    def _snapshot(self) -> dict:
        return self._call("stats", None)

    @property
    def stats(self):
        snap = self._snapshot()
        view = _AttrView(snap["stats"])
        return view

    @property
    def num_events(self) -> int:
        return self._snapshot()["num_events"]

    @property
    def reach_cache_size(self) -> int:
        return self._snapshot()["reach_cache_size"]

    def shutdown(self) -> None:
        try:
            self._call("shutdown", None)
        except (WeaverError, OSError):
            pass

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class _AttrView:
    """A dict exposed as plain attributes, so
    :func:`repro.obs.collect.scalar_fields` reads it like a real
    ``OracleStats`` (``messages`` included as a plain field)."""

    def __init__(self, fields: dict):
        for key, value in fields.items():
            setattr(self, key, value)


# -- the shard worker ----------------------------------------------------


class _ShardWorker:
    """The request loop around one ShardServer."""

    def __init__(
        self,
        index: int,
        num_gatekeepers: int,
        oracle,
        use_ordering_cache: bool,
        epoch: int = 0,
        image: Optional[tuple] = None,
        recovery_ts: Optional[VectorTimestamp] = None,
        store_path: Optional[str] = None,
    ):
        self.shard = ShardServer(
            index, num_gatekeepers, oracle, use_ordering_cache
        )
        self.tracer = BufferTracer()
        self.shard.tracer = self.tracer
        self.stragglers_dropped = 0
        #: Full vertex→shard placement recovered from a durable store,
        #: handed to the resident engine when the client could not ship
        #: one across the fork (sqlite crash recovery).
        self.recovered_placement: Optional[Dict[str, int]] = None
        if epoch > 0:
            self.shard.advance_epoch(epoch)
        if store_path is not None and recovery_ts is not None:
            image = self._image_from_store(store_path)
        if image is not None and recovery_ts is not None:
            self._load_image(image, recovery_ts)

    def _image_from_store(self, store_path: str) -> tuple:
        """Reopen the durable database and carve out this shard's
        partition — real crash recovery: the WAL-backed file on disk,
        not a dict snapshot pickled across the fork, is the image."""
        from ..db.operations import graph_state_from_store
        from ..store.durable import DurableStore
        from ..store.mapping import placement_from_store

        with DurableStore(store_path, read_only=True) as store:
            placement = placement_from_store(store)
            vertices, edges = graph_state_from_store(store.snapshot())
        self.recovered_placement = dict(placement)
        index = self.shard.index
        return (
            {
                h: props for h, props in vertices.items()
                if placement.get(h) == index
            },
            {
                key: record for key, record in edges.items()
                if placement.get(key[0]) == index
            },
        )

    def _load_image(self, image: tuple, ts: VectorTimestamp) -> None:
        """Install a recovery image (``graph_state_from_store`` shape,
        pre-filtered to this shard) stamped at the recovery timestamp —
        the process-mode mirror of ``ClusterManager._load_partition``."""
        vertices, edges = image
        graph = self.shard.graph
        for handle, props in vertices.items():
            graph.create_vertex(handle, ts)
            for key, value in props.items():
                graph.set_vertex_property(handle, key, value, ts)
        for (src, handle), record in edges.items():
            graph.create_edge(handle, src, record["dst"], ts)
            for key, value in record.get("props", {}).items():
                graph.set_edge_property(src, handle, key, value, ts)

    # -- message handling ----------------------------------------------

    def handle_send(self, kind: str, payload: Any) -> None:
        if kind == "enqueue":
            gk_index, qtx = payload
            if qtx.ts.epoch < self.shard.epoch:
                # Pre-recovery straggler: its effects are already in the
                # reloaded state (defensive — the FIFO socket makes this
                # unreachable in the current client).
                self.stragglers_dropped += 1
                return
            self.shard.enqueue(gk_index, qtx)
        else:
            raise WeaverError(f"unknown one-way message {kind!r}")

    def handle_request(self, kind: str, payload: Any) -> Any:
        shard = self.shard
        if kind == "advance_to":
            return shard.advance_to(payload)
        if kind == "drain":
            return shard.apply_available()
        if kind == "advance_epoch":
            shard.advance_epoch(payload)
            return True
        if kind == "collect_below":
            reclaimed = shard.collect_below(payload)
            cache = shard.ordering.cache
            if cache is not None:
                cache.evict_below(payload)
            return reclaimed
        if kind == "stats":
            return self._stats()
        if kind == "ping":
            return True
        if kind == "shutdown":
            # A request (not a one-way send) so the client can await the
            # acknowledgement before reaping the process.
            return True
        raise WeaverError(f"unknown request {kind!r}")

    def _stats(self) -> dict:
        shard = self.shard
        out = {
            "shard": {
                key: value
                for key, value in vars(shard.stats).items()
                if isinstance(value, (int, float))
            },
            "ordering": {
                key: value
                for key, value in vars(shard.ordering.stats).items()
                if isinstance(value, (int, float))
            },
            "queue_depths": shard.queue_depths(),
            "epoch": shard.epoch,
            "stragglers_dropped": self.stragglers_dropped,
        }
        cache = shard.ordering.cache
        out["cache"] = (
            (cache.hits, cache.misses, len(cache))
            if cache is not None else (0, 0, 0)
        )
        return out


# -- shard-resident program execution (section 4) ------------------------


class ResidentStats:
    """Counters for the shard-resident execution path, exported under
    ``program.resident.*`` (summed across workers by the client)."""

    def __init__(self) -> None:
        self.programs_coordinated = 0  # ProgramStart handled here
        self.programs_participated = 0  # queries this worker executed in
        self.rounds_executed = 0       # local round slices run
        self.entries_processed = 0     # frontier entries run locally
        self.forwards_sent = 0         # FrontierForward frames sent
        self.forwards_received = 0     # FrontierForward frames received
        self.hops_forwarded = 0        # hops inside sent frames
        self.hops_received = 0         # hops inside received frames
        self.round_reports = 0         # round reports processed (coord)
        self.stale_drops = 0           # frames for finished queries
        self.cache_hits = 0            # fully validated cache hits
        self.cache_invalidations = 0   # remote-counter refutations
        self.counter_checks = 0        # peer change-counter validations
        self.peer_reconnects = 0       # worker channels rebuilt

    def reset(self) -> None:
        self.__init__()


class _CoopSocket:
    """Peer-channel socket adapter that keeps pumping inbound traffic.

    Worker↔worker channels can form send cycles (A forwarding a big
    frontier to B while B forwards to A): a plain blocking ``sendall``
    on both sides deadlocks once the kernel buffers fill.  This wrapper
    keeps the underlying socket non-blocking and, whenever a send or a
    reply-read would block, drains *inbound* peer bytes into the
    engine's frame buffers (buffering only — no message is executed
    re-entrantly), so every participant keeps consuming and the cycle
    always makes progress.
    """

    def __init__(self, sock, engine: "_ResidentEngine"):
        self._sock = sock
        self._engine = engine
        self._timeout = 60.0
        sock.setblocking(False)

    def settimeout(self, timeout) -> None:
        self._timeout = timeout or 60.0

    def fileno(self) -> int:
        return self._sock.fileno()

    def sendall(self, data) -> None:
        view = memoryview(data)
        deadline = time.monotonic() + self._timeout
        while view:
            try:
                sent = self._sock.send(view)
                view = view[sent:]
            except (BlockingIOError, InterruptedError):
                self._engine._coop_wait(self._sock, True, deadline)

    def recv(self, n: int) -> bytes:
        deadline = time.monotonic() + self._timeout
        while True:
            try:
                return self._sock.recv(n)
            except (BlockingIOError, InterruptedError):
                self._engine._coop_wait(self._sock, False, deadline)

    def close(self) -> None:
        self._sock.close()


class _ResidentQuery:
    """One in-flight program's state on one participating worker."""

    __slots__ = (
        "qid", "program", "ctx", "resolver", "trace_id", "coordinator",
        "buf", "received", "go", "executed", "entries", "tagged",
    )

    def __init__(self, qid: int):
        self.qid = qid
        self.program = None
        self.ctx: Optional[ProgramContext] = None
        self.resolver = None
        self.trace_id: Optional[int] = None
        self.coordinator: Optional[int] = None
        self.buf: Dict[int, list] = {}       # round -> keyed hop triples
        self.received: Dict[int, int] = {}   # round -> hops from peers
        self.go: Dict[int, dict] = {}        # round -> round_go payload
        self.executed: set = set()
        # Per-entry log: (round, key, handle, visible, n_hops) — the
        # evidence halt filtering replays (see _fragment).
        self.entries: List[tuple] = []
        # Emitted results tagged (round, key, seq, value) for global
        # deterministic ordering at the coordinator.
        self.tagged: List[tuple] = []


class _Coordination:
    """Coordinator-side bookkeeping for one program."""

    __slots__ = (
        "qid", "conn", "rid", "ps", "reports", "participants",
        "processed_total", "involved", "rounds_issued", "cache_key",
        "last_activity", "done",
    )

    def __init__(self, qid: int, conn, rid: int, ps: ProgramStart):
        self.qid = qid
        self.conn = conn
        self.rid = rid
        self.ps = ps
        self.reports: Dict[int, Dict[int, dict]] = {}
        self.participants: Dict[int, set] = {}
        self.processed_total = 0
        self.involved: set = set()
        self.rounds_issued = 0
        self.cache_key = None
        self.last_activity = time.monotonic()
        self.done = False


class _ResidentEngine:
    """The shard worker's event loop with shard-resident programs.

    Extends the request/reply protocol of the legacy blocking loop with
    worker↔worker traffic: the client submits one ``program_start`` to
    the start vertex's owner (the *coordinator*), each worker executes
    its slice of every scatter-gather round against its local snapshot,
    next frontiers travel peer-to-peer as :class:`FrontierForward`
    frames (one per (src, dst, round) — O(shards) wire messages per
    round), and the coordinator detects round quiescence, aggregates
    the per-worker fragments, and replies with only the result.
    """

    FINISHED_MEMORY = 4096

    def __init__(
        self,
        worker: _ShardWorker,
        client_sock,
        index: int,
        peer_listener=None,
        peer_paths: Optional[Dict[int, str]] = None,
        placement: Optional[Dict[str, int]] = None,
        enable_program_cache: bool = False,
        program_cache_capacity: int = 4096,
    ):
        self.worker = worker
        self.client = client_sock
        self.index = index
        self.listener = peer_listener
        self.peer_paths = dict(peer_paths or {})
        self.placement: Dict[str, int] = dict(placement or {})
        self.prog_stats = ProgramStats()
        self.resident = ResidentStats()
        self.registry = MetricsRegistry()
        self.transport = ProcessTransport(registry=self.registry)
        self.tracker = ChangeTracker()
        self.cache = (
            ProgramCache(self.tracker, program_cache_capacity)
            if enable_program_cache else None
        )
        self.queries: Dict[int, _ResidentQuery] = {}
        self.coordinated: Dict[int, _Coordination] = {}
        self.finished: "OrderedDict[int, bool]" = OrderedDict()
        self.pending: deque = deque()
        self.buffers: Dict[Any, wire.FrameBuffer] = {}
        self.sel = selectors.DefaultSelector()
        self.running = True
        # Change counters feed the shard-side program cache (section
        # 4.6): every applied transaction bumps the vertices it touched.
        previous = worker.shard.on_apply

        def _on_apply(shard_index, qtx, _previous=previous):
            if _previous is not None:
                _previous(shard_index, qtx)
            self.tracker.bump_all(touched_vertices(qtx.operations))

        worker.shard.on_apply = _on_apply

    # -- event loop -----------------------------------------------------

    def run(self) -> None:
        self.client.setblocking(True)
        self.sel.register(self.client, selectors.EVENT_READ)
        self.buffers[self.client] = wire.FrameBuffer()
        if self.listener is not None:
            self.listener.setblocking(True)
            self.sel.register(self.listener, selectors.EVENT_READ)
        while self.running:
            while self.pending and self.running:
                conn, envelope = self.pending.popleft()
                self._dispatch(conn, envelope)
            if not self.running:
                break
            events = self.sel.select(timeout=1.0)
            if not events:
                self._check_stalled()
                continue
            for key, _mask in events:
                conn = key.fileobj
                if conn is self.listener:
                    peer, _ = self.listener.accept()
                    peer.setblocking(True)
                    self.sel.register(peer, selectors.EVENT_READ)
                    self.buffers[peer] = wire.FrameBuffer()
                    continue
                self._pump(conn)

    def _pump(self, conn) -> None:
        try:
            chunk = conn.recv(65536)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            chunk = b""
        if not chunk:
            if conn is self.client:
                self.running = False
                return
            try:
                self.sel.unregister(conn)
            except (KeyError, ValueError):
                pass
            self.buffers.pop(conn, None)
            try:
                conn.close()
            except OSError:
                pass
            return
        buffer = self.buffers.get(conn)
        if buffer is None:
            return
        for frame in buffer.feed(chunk):
            self.pending.append((conn, wire.decode(frame)))

    def _coop_wait(self, sock, writable: bool, deadline: float) -> None:
        """Wait for ``sock`` while pumping inbound connections (buffer
        only — nothing dispatches until the main loop resumes)."""
        while True:
            timeout = min(1.0, deadline - time.monotonic())
            if timeout <= 0:
                raise socket.timeout("peer channel stalled")
            reads = list(self.buffers)
            if not writable:
                reads.append(sock)
            r, w, _ = select.select(
                reads, [sock] if writable else [], [], timeout
            )
            for conn in r:
                if conn is sock and not writable:
                    return
                self._pump(conn)
            if writable and w:
                return

    def _check_stalled(self) -> None:
        """Probe reporters a coordinated query is still waiting on; a
        dead peer turns a silent stall into a prompt client error."""
        now = time.monotonic()
        for coord in list(self.coordinated.values()):
            if coord.done or now - coord.last_activity < 5.0:
                continue
            awaited = coord.participants.get(coord.rounds_issued - 1, set())
            reported = set(coord.reports.get(coord.rounds_issued - 1, {}))
            for dst in sorted(awaited - reported - {self.index}):
                try:
                    self._peer_request(dst, "ping", None)
                except (TransportError, OSError, socket.timeout):
                    self._finish_error(
                        coord, f"worker shard{dst} died mid-program"
                    )
                    break
            coord.last_activity = now

    # -- dispatch -------------------------------------------------------

    def _dispatch(self, conn, envelope: dict) -> None:
        kind = envelope.get("k")
        if kind == "b":
            for msg_kind, payload in envelope["m"]:
                self._handle_send(msg_kind, payload)
            return
        if kind != "r":
            return
        rid = envelope["id"]
        req = envelope["kind"]
        if req == "program_start":
            try:
                self._handle_program_start(conn, rid, envelope.get("p"))
            except Exception as exc:  # noqa: BLE001 - report, keep serving
                self._reply(conn, rid, error=repr(exc))
            return
        try:
            result = self._handle_request(req, envelope.get("p"))
        except Exception as exc:  # noqa: BLE001 - report, keep serving
            self._reply(conn, rid, error=repr(exc))
        else:
            self._reply(conn, rid, result=result)
        if req == "shutdown":
            self.running = False

    def _reply(self, conn, rid: int, result=None, error=None) -> None:
        if error is not None:
            reply = {"k": "e", "id": rid, "e": error}
        else:
            reply = {"k": "p", "id": rid, "p": result}
        if conn is self.client:
            # Trace events only ride client replies: the peer transport
            # has no client handler, so events on peer frames would be
            # silently dropped (peers return theirs inside payloads).
            reply["ev"] = self.worker.tracer.drain()
        try:
            wire.write_frame(conn, wire.encode(reply))
        except OSError:
            if conn is self.client:
                self.running = False

    def _handle_send(self, kind: str, payload) -> None:
        if kind == "placement":
            self.placement.update(payload)
        elif kind == "forward":
            self._on_forward(payload)
        elif kind == "round_go":
            self._on_round_go(payload)
        elif kind == "round_report":
            self._on_round_report(payload)
        else:
            self.worker.handle_send(kind, payload)

    def _handle_request(self, kind: str, payload):
        if kind == "counters":
            self.resident.counter_checks += 1
            return {"unchanged": self.tracker.unchanged(payload["observed"])}
        if kind == "collect_result":
            return self._fragment(
                payload["q"], payload["halt_round"], payload["halt_key"]
            )
        if kind == "stats":
            return self._extended_stats()
        if kind == "advance_epoch":
            self._clear_resident_state()
            return self.worker.handle_request(kind, payload)
        return self.worker.handle_request(kind, payload)

    def _clear_resident_state(self) -> None:
        """Epoch barrier: drop in-flight programs and cached evidence —
        counters recorded against the dead epoch must not validate."""
        self.queries.clear()
        self.coordinated.clear()
        self.finished.clear()
        self.tracker.reset()
        if self.cache is not None:
            self.cache.clear()

    def _extended_stats(self) -> dict:
        out = self.worker._stats()
        out["program"] = {
            key: value
            for key, value in vars(self.prog_stats).items()
            if isinstance(value, (int, float))
        }
        out["resident"] = {
            key: value
            for key, value in vars(self.resident).items()
            if isinstance(value, (int, float))
        }
        out["peer_transport"] = {
            key: value
            for key, value in vars(self.transport.stats).items()
            if isinstance(value, (int, float))
        }
        cache = self.cache
        out["prog_cache"] = (
            (cache.hits, cache.misses, cache.invalidations, len(cache))
            if cache is not None else (0, 0, 0, 0)
        )
        return out

    # -- peer channels --------------------------------------------------

    def _peer_channel(self, dst: int) -> str:
        name = f"peer{dst}"
        channel = self.transport._channels.get(name)
        if channel is None or channel.dead:
            if channel is not None:
                self.transport.remove_channel(name)
                self.resident.peer_reconnects += 1
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(self.peer_paths[dst])
            self.transport.add_channel(name, _CoopSocket(sock, self))
        return name

    def _peer_send(self, dst: int, kind: str, payload) -> None:
        # Flush inside the retry loop: buffering cannot fail, so a stale
        # channel to a SIGKILLed-and-replaced peer only surfaces at the
        # write.  Flushing here turns that into a reconnect-and-resend
        # instead of a silently dropped frame (the coordinator would
        # wait forever on the lost round report).
        src = self.worker.shard.name
        for attempt in (0, 1):
            name = self._peer_channel(dst)
            try:
                self.transport.send(src, name, kind, payload)
                self.transport.flush(name)
                return
            except TransportError:
                self.transport.remove_channel(name)
                self.resident.peer_reconnects += 1
                if attempt:
                    raise

    def _peer_request(self, dst: int, kind: str, payload):
        src = self.worker.shard.name
        for attempt in (0, 1):
            name = self._peer_channel(dst)
            try:
                return self.transport.request(src, name, kind, payload)
            except TransportError:
                self.transport.remove_channel(name)
                self.resident.peer_reconnects += 1
                if attempt:
                    raise

    def _local(self, kind: str, payload) -> None:
        """Self-delivery: enqueue for the main loop instead of calling
        inline, so deep traversals never recurse through rounds."""
        self.pending.append((None, {"k": "b", "m": [(kind, payload)]}))

    def _deliver(self, dst: int, kind: str, payload) -> None:
        if dst == self.index:
            self._local(kind, payload)
        else:
            self._peer_send(dst, kind, payload)

    # -- participant side -----------------------------------------------

    def _ensure_query(self, qid: int) -> Optional[_ResidentQuery]:
        if qid in self.finished:
            self.resident.stale_drops += 1
            return None
        query = self.queries.get(qid)
        if query is None:
            query = _ResidentQuery(qid)
            self.queries[qid] = query
        return query

    def _mark_finished(self, qid: int) -> None:
        self.finished[qid] = True
        while len(self.finished) > self.FINISHED_MEMORY:
            self.finished.popitem(last=False)

    def _on_forward(self, forward: FrontierForward) -> None:
        query = self._ensure_query(forward.query_id)
        if query is None:
            return
        self.resident.forwards_received += 1
        self.resident.hops_received += len(forward.hops)
        query.buf.setdefault(forward.round, []).extend(forward.hops)
        query.received[forward.round] = (
            query.received.get(forward.round, 0) + len(forward.hops)
        )
        self._maybe_execute(query, forward.round)

    def _on_round_go(self, payload: dict) -> None:
        query = self._ensure_query(payload["q"])
        if query is None:
            return
        if query.program is None:
            try:
                query.program = load_program(payload["program"])
            except ProgramError as exc:
                self._send_report(payload["coordinator"], {
                    "q": payload["q"], "round": payload["round"],
                    "worker": self.index, "sent": {}, "halt": None,
                    "processed": 0, "error": str(exc),
                })
                return
            query.ctx = ProgramContext(payload["q"], payload["ts"])
            query.resolver = ShardSnapshotResolver(
                payload["ts"], lambda handle: 0, [self.worker.shard],
                stats=self.prog_stats,
            )
            query.trace_id = payload.get("trace_id")
            query.coordinator = payload["coordinator"]
            self.resident.programs_participated += 1
        query.go[payload["round"]] = payload
        self._maybe_execute(query, payload["round"])

    def _maybe_execute(self, query: _ResidentQuery, round_no: int) -> None:
        if round_no in query.executed:
            return
        go = query.go.get(round_no)
        if go is None or query.program is None:
            return
        if query.received.get(round_no, 0) < go["expect"]:
            return
        self._execute_round(query, round_no)

    def _execute_round(self, query: _ResidentQuery, round_no: int) -> None:
        query.executed.add(round_no)
        # Same-length order keys make the per-worker sort reproduce the
        # batched executor's append order within the round slice.
        frontier = sorted(query.buf.pop(round_no, []), key=lambda e: e[0])
        program, ctx = query.program, query.ctx
        if program.dedup_hops:
            frontier = dedup_round(
                frontier, self.prog_stats,
                hop_of=lambda entry: (entry[1], entry[2]),
            )
        self.resident.rounds_executed += 1
        self.prog_stats.batch_rounds += 1
        if query.trace_id is not None:
            self.worker.tracer.emit(
                query.trace_id, "program.round",
                node=self.worker.shard.name, query_id=query.qid,
                round=round_no, frontier=len(frontier), shard=self.index,
            )
        next_by_dst: Dict[int, list] = {}
        processed = 0
        halt_key = None
        error = None
        try:
            views = query.resolver.resolve_many(
                [handle for _key, handle, _params in frontier]
            )
        except Exception as exc:  # noqa: BLE001 - reported upstream
            views = {}
            frontier = []
            error = str(exc)
        for key, handle, params in frontier:
            processed += 1
            self.resident.entries_processed += 1
            node = views.get(handle)
            result_base = len(ctx.results)
            try:
                hops = run_entry(program, handle, params, node, ctx)
            except Exception as exc:  # noqa: BLE001 - reported upstream
                error = str(exc)
                break
            for seq in range(len(ctx.results) - result_base):
                query.tagged.append(
                    (round_no, key, seq, ctx.results[result_base + seq])
                )
            query.entries.append(
                (round_no, key, handle, node is not None, len(hops))
            )
            if node is None:
                # Mirrors the batched executor exactly: a missing vertex
                # skips the mid-round halt check (``continue``).
                continue
            for i, (next_handle, next_params) in enumerate(hops):
                dst = self.placement.get(next_handle, self.index)
                next_by_dst.setdefault(dst, []).append(
                    (key + (i,), next_handle, next_params)
                )
            if ctx.halted:
                halt_key = key
                break
        sent: Dict[int, int] = {}
        if error is None and halt_key is None:
            try:
                for dst, hops_list in next_by_dst.items():
                    sent[dst] = len(hops_list)
                    if dst == self.index:
                        query.buf.setdefault(round_no + 1, []).extend(
                            hops_list
                        )
                    else:
                        self._peer_send(dst, "forward", FrontierForward(
                            query.qid, round_no + 1, tuple(hops_list)
                        ))
                        self.resident.forwards_sent += 1
                        self.resident.hops_forwarded += len(hops_list)
            except (TransportError, OSError, socket.timeout) as exc:
                sent = {}
                error = f"frontier forward failed: {exc}"
        try:
            self._send_report(query.coordinator, {
                "q": query.qid, "round": round_no, "worker": self.index,
                "sent": sent, "halt": halt_key, "processed": processed,
                "error": error,
            })
            self.transport.flush()
        except (TransportError, OSError, socket.timeout):
            # Coordinator unreachable: nothing to report to.  The client
            # will surface the failure through its own channel.
            pass

    def _send_report(self, coordinator: int, report: dict) -> None:
        self._deliver(coordinator, "round_report", report)
        if coordinator != self.index:
            self.transport.flush()

    def _fragment(
        self, qid: int, halt_round: Optional[int], halt_key
    ) -> dict:
        """This worker's filtered share of a finished program.

        Halt filtering is by (round, key): every entry of rounds before
        the halt round counts, plus halt-round entries at or before the
        globally-minimal halt key — order keys are only comparable
        within one round (they share a length there), so a bare key
        comparison across rounds would be wrong.
        """
        query = self.queries.pop(qid, None)
        self._mark_finished(qid)
        empty = {
            "results": [], "read": [], "states": {}, "visited": 0,
            "hops": 0, "counters": {}, "events": [],
        }
        if query is None or query.ctx is None:
            return empty

        def keep(round_no: int, key) -> bool:
            if halt_round is None:
                return True
            if round_no < halt_round:
                return True
            return round_no == halt_round and key <= halt_key

        read: set = set()
        visited = 0
        hops_total = 0
        for round_no, key, handle, visible, n_hops in query.entries:
            if not keep(round_no, key):
                continue
            read.add(handle)
            if visible:
                visited += 1
            hops_total += n_hops
        return {
            "results": [t for t in query.tagged if keep(t[0], t[1])],
            "read": sorted(read),
            "states": {
                h: s for h, s in query.ctx.states.items() if h in read
            },
            "visited": visited,
            "hops": hops_total,
            "counters": self.tracker.snapshot(read),
            "events": self.worker.tracer.drain(),
        }

    # -- coordinator side -----------------------------------------------

    def _handle_program_start(
        self, conn, rid: int, ps: ProgramStart
    ) -> None:
        self.resident.programs_coordinated += 1
        cache_key = None
        if (
            self.cache is not None
            and ps.cache_tail is not None
            and ps.frontier
        ):
            cache_key = ProgramCache.key(
                repr(ps.program), ps.frontier[0][1], ps.cache_tail
            )
            cached = self.cache.get(cache_key)
            if cached is not None:
                payload, remote_fragments = cached
                if self._remote_fragments_valid(cache_key, remote_fragments):
                    self.resident.cache_hits += 1
                    hit = dict(payload)
                    hit["cache_hit"] = True
                    self._reply(conn, rid, result=hit)
                    return
        coord = _Coordination(ps.query_id, conn, rid, ps)
        coord.cache_key = cache_key
        self.coordinated[ps.query_id] = coord
        if not ps.frontier:
            self._finish(coord, None, None)
            return
        by_dst: Dict[int, list] = {}
        for key, handle, params in ps.frontier:
            dst = self.placement.get(handle, self.index)
            by_dst.setdefault(dst, []).append((key, handle, params))
        query = self._ensure_query(ps.query_id)
        for dst, hops_list in by_dst.items():
            if dst == self.index:
                query.buf.setdefault(0, []).extend(hops_list)
            else:
                self._peer_send(dst, "forward", FrontierForward(
                    ps.query_id, 0, tuple(hops_list)
                ))
                self.resident.forwards_sent += 1
                self.resident.hops_forwarded += len(hops_list)
        coord.involved.update(by_dst)
        self._issue_round(coord, 0, {
            dst: (0 if dst == self.index else len(hops_list))
            for dst, hops_list in by_dst.items()
        })

    def _remote_fragments_valid(
        self, cache_key, remote_fragments: Dict[int, dict]
    ) -> bool:
        """Validate a cached result's remote read-set fragments against
        the owning workers' live change counters."""
        for dst, observed in remote_fragments.items():
            if not observed:
                continue
            self.resident.counter_checks += 1
            try:
                reply = self._peer_request(
                    dst, "counters", {"observed": observed}
                )
            except (TransportError, OSError, socket.timeout):
                reply = None
            if reply is None or not reply.get("unchanged"):
                self.cache.invalidate(cache_key)
                self.resident.cache_invalidations += 1
                return False
        return True

    def _issue_round(
        self, coord: _Coordination, round_no: int,
        expect: Dict[int, int],
    ) -> None:
        """Tell every round participant how many peer hops to await;
        participants with only self-retained work get expect 0."""
        coord.participants[round_no] = set(expect)
        coord.rounds_issued = round_no + 1
        coord.last_activity = time.monotonic()
        for dst in sorted(expect):
            self._deliver(dst, "round_go", {
                "q": coord.qid, "round": round_no, "expect": expect[dst],
                "program": coord.ps.program, "ts": coord.ps.ts,
                "trace_id": coord.ps.trace_id, "coordinator": self.index,
            })
        self.transport.flush()

    def _on_round_report(self, report: dict) -> None:
        coord = self.coordinated.get(report["q"])
        if coord is None or coord.done:
            return
        self.resident.round_reports += 1
        coord.last_activity = time.monotonic()
        round_no = report["round"]
        coord.reports.setdefault(round_no, {})[report["worker"]] = report
        participants = coord.participants.get(round_no)
        reports = coord.reports.get(round_no, {})
        if participants is None or not participants <= set(reports):
            return
        # Round quiescence: every participant reported.
        for peer_report in reports.values():
            coord.involved.update(
                dst for dst, n in peer_report["sent"].items() if n > 0
            )
        errors = [r["error"] for r in reports.values() if r["error"]]
        if errors:
            self._finish_error(coord, errors[0])
            return
        coord.processed_total += sum(
            r["processed"] for r in reports.values()
        )
        halts = [
            r["halt"] for r in reports.values() if r["halt"] is not None
        ]
        if halts:
            self._finish(coord, round_no, min(halts))
            return
        totals: Dict[int, int] = {}
        for peer_report in reports.values():
            for dst, n in peer_report["sent"].items():
                if n > 0:
                    totals[dst] = totals.get(dst, 0) + n
        more = bool(totals)
        max_visits = coord.ps.max_visits
        if coord.processed_total > max_visits or (
            coord.processed_total >= max_visits and more
        ):
            self._finish_error(
                coord, f"visit budget exhausted ({max_visits})"
            )
            return
        if not more:
            self._finish(coord, None, None)
            return
        self._issue_round(coord, round_no + 1, {
            dst: sum(
                r["sent"].get(dst, 0)
                for worker_index, r in reports.items()
                if worker_index != dst
            )
            for dst in totals
        })

    def _collect_fragments(
        self, coord: _Coordination, halt_round, halt_key
    ) -> List[Tuple[int, dict]]:
        fragments = [
            (self.index, self._fragment(coord.qid, halt_round, halt_key))
        ]
        request = {
            "q": coord.qid, "halt_round": halt_round, "halt_key": halt_key,
        }
        for dst in sorted(coord.involved - {self.index}):
            fragments.append(
                (dst, self._peer_request(dst, "collect_result", request))
            )
        return fragments

    def _finish(
        self, coord: _Coordination, halt_round, halt_key
    ) -> None:
        coord.done = True
        self.coordinated.pop(coord.qid, None)
        try:
            fragments = self._collect_fragments(coord, halt_round, halt_key)
        except (TransportError, OSError, socket.timeout) as exc:
            self._mark_finished(coord.qid)
            self._reply(
                coord.conn, coord.rid,
                result={"error": f"worker died during gather: {exc}"},
            )
            return
        tagged: List[tuple] = []
        read: set = set()
        states: Dict[str, Any] = {}
        visited = 0
        hops_total = 0
        counters: Dict[int, dict] = {}
        for worker_index, fragment in fragments:
            tagged.extend(tuple(t) for t in fragment["results"])
            read.update(fragment["read"])
            states.update(fragment["states"])
            visited += fragment["visited"]
            hops_total += fragment["hops"]
            counters[worker_index] = fragment["counters"]
            for event in fragment.get("events", ()):
                self.worker.tracer.events.append(tuple(event))
        tagged.sort(key=lambda t: (t[0], t[1], t[2]))
        payload = {
            "query_id": coord.qid,
            "ts": coord.ps.ts,
            "results": [t[3] for t in tagged],
            "states": states,
            "vertices_visited": visited,
            "hops": hops_total,
            "halted": halt_key is not None,
            "read_set": sorted(read),
            "rounds": coord.rounds_issued,
        }
        self.prog_stats.executions += 1
        if coord.cache_key is not None:
            remote_fragments = {
                w: c for w, c in counters.items() if w != self.index
            }
            self.cache.put(
                coord.cache_key, (payload, remote_fragments),
                counters.get(self.index, {}),
            )
        self._reply(coord.conn, coord.rid, result=payload)

    def _finish_error(self, coord: _Coordination, message: str) -> None:
        coord.done = True
        self.coordinated.pop(coord.qid, None)
        try:
            self._collect_fragments(coord, -1, None)  # cleanup only
        except (TransportError, OSError, socket.timeout):
            pass
        self._mark_finished(coord.qid)
        self._reply(coord.conn, coord.rid, result={"error": message})


def shard_worker_main(
    sock,
    index: int,
    num_gatekeepers: int,
    use_ordering_cache: bool = True,
    oracle_path: Optional[str] = None,
    epoch: int = 0,
    image: Optional[tuple] = None,
    recovery_ts: Optional[VectorTimestamp] = None,
    store_path: Optional[str] = None,
    peer_listener=None,
    peer_paths: Optional[Dict[int, str]] = None,
    placement: Optional[Dict[str, int]] = None,
    enable_program_cache: bool = False,
    program_cache_capacity: int = 4096,
) -> None:
    """Entry point of one shard worker process."""
    oracle = (
        OracleProxy(oracle_path) if oracle_path else TimelineOracle()
    )
    worker = _ShardWorker(
        index, num_gatekeepers, oracle, use_ordering_cache,
        epoch=epoch, image=image, recovery_ts=recovery_ts,
        store_path=store_path,
    )
    if placement is None:
        placement = worker.recovered_placement
    engine = _ResidentEngine(
        worker, sock, index,
        peer_listener=peer_listener, peer_paths=peer_paths,
        placement=placement, enable_program_cache=enable_program_cache,
        program_cache_capacity=program_cache_capacity,
    )
    try:
        engine.run()
    finally:
        try:
            engine.transport.close()
        except Exception:  # noqa: BLE001 - shutdown best-effort
            pass
        if peer_listener is not None:
            try:
                peer_listener.close()
            except OSError:
                pass
        try:
            sock.close()
        except OSError:
            pass
        if isinstance(oracle, OracleProxy):
            oracle.close()


# -- the oracle worker ---------------------------------------------------


def oracle_worker_main(listen_sock) -> None:
    """Entry point of the timeline-oracle process.

    A selector loop over one UNIX listening socket: every shard worker
    and the client hold their own connection.  Requests are tiny and
    the oracle is single-threaded by design — it is the serialization
    point whose request count Fig 14 measures.
    """
    oracle = TimelineOracle()
    sel = selectors.DefaultSelector()
    listen_sock.setblocking(True)
    sel.register(listen_sock, selectors.EVENT_READ, None)
    running = True

    def handle(payload_kind: str, payload: Any) -> Any:
        nonlocal running
        if payload_kind == "order":
            a, b, prefer = payload
            return oracle.order(a, b, prefer)
        if payload_kind == "query":
            return oracle.query_order(*payload)
        if payload_kind == "established":
            return oracle.established_order(*payload)
        if payload_kind == "create":
            oracle.create_event(payload)
            return None
        if payload_kind == "collect":
            return oracle.collect_below(payload)
        if payload_kind == "stats":
            fields = {
                key: value
                for key, value in vars(oracle.stats).items()
                if isinstance(value, (int, float))
            }
            fields["messages"] = oracle.stats.messages
            return {
                "stats": fields,
                "num_events": oracle.num_events,
                "reach_cache_size": oracle.reach_cache_size,
            }
        if payload_kind == "shutdown":
            running = False
            return True
        raise WeaverError(f"unknown oracle request {payload_kind!r}")

    buffers: Dict[Any, wire.FrameBuffer] = {}
    while running:
        for key, _mask in sel.select(timeout=1.0):
            conn = key.fileobj
            if conn is listen_sock:
                client, _ = listen_sock.accept()
                sel.register(client, selectors.EVENT_READ, None)
                buffers[client] = wire.FrameBuffer()
                continue
            try:
                chunk = conn.recv(65536)
            except OSError:
                chunk = b""
            if not chunk:
                sel.unregister(conn)
                buffers.pop(conn, None)
                conn.close()
                continue
            for frame in buffers[conn].feed(chunk):
                envelope = wire.decode(frame)
                rid = envelope.get("id")
                try:
                    result = handle(envelope["kind"], envelope.get("p"))
                    reply = {"k": "p", "id": rid, "p": result}
                except Exception as exc:
                    reply = {"k": "e", "id": rid, "e": repr(exc)}
                try:
                    wire.write_frame(conn, wire.encode(reply))
                except OSError:
                    pass
    for conn in list(buffers):
        conn.close()
    listen_sock.close()
