"""Typed messages exchanged between Weaver servers.

Only the payloads that cross server boundaries live here; transport (the
simulated network or direct calls) is supplied by the database layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from ..core.vclock import VectorTimestamp
from ..db.operations import Operation


@dataclass(frozen=True)
class QueuedTransaction:
    """A transaction (or NOP) as it sits in a shard's gatekeeper queue.

    ``operations`` is empty for NOPs — the heartbeat transactions that
    keep every queue non-empty under light load (section 4.2).  ``seqno``
    is the FIFO sequence number on the (gatekeeper, shard) channel.

    ``tiebreak`` is an optional sender-assigned rank used as the oracle
    preference for concurrent pairs (section 3.4's "arrival order").  It
    is assigned in send order — which extends backing-store commit order,
    because gatekeepers forward synchronously at commit — so the
    preference stays commit-order-faithful even when network faults
    deliver channels at different speeds.  When absent, receivers fall
    back to local arrival order (equivalent on uniform channels).

    ``trace_id`` is the client-assigned observability id (``repro.obs``)
    carried along so shard-side spans attribute to the right trace; it
    is None for NOPs and for callers that do not trace.
    """

    ts: VectorTimestamp
    operations: Tuple[Operation, ...] = ()
    seqno: Optional[int] = None
    tiebreak: Optional[int] = None
    trace_id: Optional[int] = None

    @property
    def is_nop(self) -> bool:
        return not self.operations

    @property
    def queue_key(self) -> Tuple[int, int]:
        """Sort key within one gatekeeper's queue.

        A single gatekeeper's timestamps are totally ordered by (epoch,
        own counter), so per-queue priority needs no oracle.
        """
        return (self.ts.epoch, self.ts.local_clock)


@dataclass(frozen=True)
class AnnounceMessage:
    """A gatekeeper's periodic vector-clock broadcast (section 3.3)."""

    src: int
    vector: Tuple[int, ...]


@dataclass(frozen=True)
class ProgramStart:
    """Ship a node program to the start vertex's owning shard (section 4).

    The shard-resident execution path: the client submits one of these
    to the coordinator worker (the start vertex's owner) and receives
    only the aggregated result — program logic runs at the shards, and
    frontiers travel worker-to-worker as :class:`FrontierForward`
    frames.

    ``frontier`` is the keyed initial frontier: ``(order_key, handle,
    params)`` triples, where ``order_key`` is the tuple that totally
    orders entries exactly like the batched executor's append order
    (children extend their parent's key with the hop index).
    ``program`` is the :func:`~repro.programs.framework.program_spec`
    of the program — class path plus instance state — which every
    participating worker rebuilds with ``load_program``.
    ``cache_tail`` is the client-computed program-cache key tail
    (section 4.6); None disables caching for this run.
    """

    ts: VectorTimestamp
    query_id: int
    program: Tuple[str, str, Tuple[Tuple[str, Any], ...]]
    frontier: Tuple[Tuple[Any, str, Any], ...]
    trace_id: Optional[int] = None
    cache_tail: Optional[Any] = None
    max_visits: int = 10_000_000


@dataclass(frozen=True)
class FrontierForward:
    """One worker's next-round hops for another worker (section 4.1).

    The peer-to-peer frontier frame of shard-resident execution:
    ``hops`` carries the ``(order_key, handle, params)`` triples owned
    by the destination shard for ``round``.  Per (src, dst, round) there
    is exactly one of these — per-round wire traffic is O(shards), not
    O(frontier).
    """

    query_id: int
    round: int
    hops: Tuple[Tuple[Any, str, Any], ...]


@dataclass(frozen=True)
class Heartbeat:
    """Server liveness report to the cluster manager (section 3.2)."""

    server: str
    epoch: int
    sent_at: float
