"""The node-program execution engine (sections 2.3, 4.1).

A node program is a vertex-level computation in the scatter-gather style:
it receives a read-only :class:`~repro.graph.mvgraph.VertexView` (bound to
the program's snapshot timestamp) plus parameters from the previous hop,
reads the vertex's edges and attributes, may mutate its per-query
``prog_state``, emit results, and returns the list of (vertex, params)
pairs to visit next.  A vertex may be visited any number of times; the
application directs all propagation.

The executor is routing-agnostic: it pulls vertices through a resolver
supplied by the database layer, which is where shard routing and the
wait-for-preceding-transactions logic live.  This keeps the engine
testable against a bare in-memory graph.  Two resolver shapes are
supported:

* a plain callable ``resolve(handle) -> Optional[VertexView]`` drives the
  seed per-vertex loop (bare-graph tests, reference comparisons);
* an object additionally exposing ``resolve_many(handles) -> dict``
  (e.g. :class:`~repro.programs.routing.ShardSnapshotResolver`) switches
  the executor to **round-based scatter-gather**: the frontier is
  processed one BFS round at a time and each round's next-hops resolve as
  one batch, which is what lets the routing layer group them by owning
  shard and reuse one snapshot (and its comparison memo) per shard for
  the whole traversal — the paper's shard-to-shard batch propagation.

Both paths visit vertices in the same order and produce identical
results: a round is exactly the contiguous run of same-depth entries the
sequential deque would pop.
"""

from __future__ import annotations

import importlib
from collections import deque
from types import SimpleNamespace
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from ..core.vclock import VectorTimestamp
from ..errors import ProgramError
from ..graph.mvgraph import VertexView
from .state import ProgramContext

NextHops = Iterable[Tuple[str, Any]]
Resolver = Callable[[str], Optional[VertexView]]
#: ``(module, qualname, state)``: a node program as plain data.
ProgramSpec = Tuple[str, str, Tuple[Tuple[str, Any], ...]]


class NodeProgram:
    """Base class for node programs.

    Subclasses override :meth:`run` and usually :meth:`init_state`.  The
    paper's BFS example (Fig 3) maps directly::

        class Bfs(NodeProgram):
            def init_state(self):
                return SimpleNamespace(visited=False)

            def run(self, node, params, ctx):
                nxt = []
                if not node.prog_state.visited:
                    for edge in node.neighbors:
                        if edge.check(params.edge_prop):
                            nxt.append((edge.nbr, params))
                    node.prog_state.visited = True
                return nxt
    """

    #: Stable name used for caching and reporting.
    name = "node_program"

    #: Declares that revisiting a vertex with *identical params* in the
    #: same round is a no-op (visited-bit traversals), so the executor may
    #: drop same-round duplicate hops before resolving them.  Off by
    #: default: the framework promises "a vertex may be visited any
    #: number of times", and programs that emit per visit rely on it.
    dedup_hops = False

    def init_state(self) -> Any:
        """A fresh per-vertex ``prog_state`` (default: None)."""
        return None

    def run(
        self, node: VertexView, params: Any, ctx: ProgramContext
    ) -> NextHops:
        raise NotImplementedError

    def on_missing(self, handle: str, params: Any, ctx: ProgramContext) -> None:
        """Hook invoked when a next-hop vertex is invisible at the
        snapshot (deleted concurrently, or a dangling edge); default is
        to skip it silently, which is what traversals want."""


def program_spec(program: NodeProgram) -> ProgramSpec:
    """``program`` as plain data: its class's import path plus its
    instance attributes, so a shard worker can rebuild it with the same
    configuration (see :func:`load_program`)."""
    cls = type(program)
    return (
        cls.__module__,
        cls.__qualname__,
        tuple(sorted(vars(program).items())),
    )


_PROGRAM_CLASSES: Dict[Tuple[str, str], type] = {}


def load_program(spec: ProgramSpec) -> NodeProgram:
    """Rebuild the program :func:`program_spec` described.

    The class is imported by path (memoized per process) and the
    instance is created without calling ``__init__``: the shipped state
    *is* the configured instance.  A class the importer cannot reach —
    say, one defined inside a function — raises :class:`ProgramError`.
    """
    module, qualname, state = spec
    cls = _PROGRAM_CLASSES.get((module, qualname))
    if cls is None:
        try:
            obj: Any = importlib.import_module(module)
            for part in qualname.split("."):
                obj = getattr(obj, part)
        except (ImportError, AttributeError) as exc:
            raise ProgramError(
                f"unknown program {module}.{qualname}"
            ) from exc
        if not (isinstance(obj, type) and issubclass(obj, NodeProgram)):
            raise ProgramError(f"{module}.{qualname} is not a node program")
        cls = _PROGRAM_CLASSES[(module, qualname)] = obj
    program = cls.__new__(cls)
    program.__dict__.update(state)
    return program


class ProgramStats:
    """Counters for the scatter-gather execution pipeline.

    Absorbed into the metrics registry under ``program.*`` (see
    ``repro.obs.collect``).  The headline pair is ``snapshots_created``
    vs ``snapshot_reuse_hits``: per query the batched path constructs
    O(shards) snapshot views where the seed path constructed O(vertices
    visited), and every resolution served by an already-built view counts
    as one reuse hit.
    """

    def __init__(self) -> None:
        self.executions = 0            # programs driven to completion
        self.sequential_executions = 0  # via the per-vertex compat shim
        self.batch_rounds = 0          # scatter-gather rounds processed
        self.shard_batches = 0         # (shard, round) batch resolutions
        self.vertices_resolved = 0     # resolutions through the batch path
        self.snapshots_created = 0     # snapshot views built
        self.snapshot_reuse_hits = 0   # resolutions on a reused view
        self.dedup_hits = 0            # same-round duplicate hops dropped
        self.round_messages_saved = 0  # per-vertex msgs a batch replaced
        self.readiness_fastpath_hits = 0  # storms skipped: already ready
        self.readiness_storms = 0      # announce+NOP storms performed

    def reset(self) -> None:
        self.__init__()


class ProgramResult:
    """Outcome of one node-program execution."""

    def __init__(self, ctx: ProgramContext):
        self.query_id = ctx.query_id
        self.timestamp = ctx.ts
        self.results = ctx.results
        self.states = ctx.states
        self.vertices_visited = ctx.vertices_visited
        self.hops = ctx.hops
        self.halted = ctx.halted
        self.read_set = ctx.read_set
        self.rounds = ctx.rounds

    @property
    def value(self) -> Any:
        """The single emitted value, for programs that emit exactly one."""
        if len(self.results) != 1:
            raise ProgramError(
                f"expected exactly one result, got {len(self.results)}"
            )
        return self.results[0]


def _params_key(params: Any) -> Optional[Hashable]:
    """A value-equality key for hop params, or None when they defy
    hashing.

    Params are compared by *content*, not identity: BFS-style programs
    mint a fresh namespace per parent, and the whole point of same-round
    dedup is collapsing hops to one vertex from different parents at the
    same depth.
    """
    if isinstance(params, SimpleNamespace):
        # Attribute names are unique, so the sort never compares values.
        items = tuple(sorted(vars(params).items()))
        try:
            hash(items)
        except TypeError:
            return None
        return (True, items)
    try:
        hash(params)
    except TypeError:
        return None
    return (False, params)


def _hop_key(handle: str, params: Any) -> Optional[Hashable]:
    """A value-equality key for one hop, or None when params defy
    hashing (kept for direct use in tests; the executor's dedup pass
    memoizes the params part by object identity)."""
    pkey = _params_key(params)
    if pkey is None:
        return None
    return (handle, pkey)


def run_entry(
    program: NodeProgram,
    handle: str,
    params: Any,
    node: Optional[VertexView],
    ctx: ProgramContext,
) -> List[Tuple[str, Any]]:
    """Process one frontier entry — the per-entry semantics shared by
    every execution path (sequential, round-batched, shard-resident).

    Adds ``handle`` to the read set, dispatches invisible vertices to
    ``on_missing``, binds per-vertex state, runs the program, and
    returns the validated next-hop list (empty for missing vertices).
    """
    ctx.read_set.add(handle)
    if node is None:
        program.on_missing(handle, params, ctx)
        return []
    node.prog_state = ctx.state_for(handle, program.init_state)
    ctx.vertices_visited += 1
    hops = program.run(node, params, ctx)
    if hops is None:
        return []
    out: List[Tuple[str, Any]] = []
    for hop in hops:
        if (
            not isinstance(hop, tuple)
            or len(hop) != 2
            or not isinstance(hop[0], str)
        ):
            raise ProgramError(
                f"{program.name} returned a bad next-hop: {hop!r}"
            )
        out.append(hop)
    return out


def dedup_round(
    entries: List[Any],
    stats: Optional[ProgramStats] = None,
    hop_of: Optional[Callable[[Any], Tuple[str, Any]]] = None,
) -> List[Any]:
    """Drop same-round repeats of one (vertex, params) hop.

    ``entries`` are (handle, params) pairs by default; ``hop_of``
    extracts the pair from richer records (the shard-resident engine
    dedups keyed ``(order_key, handle, params)`` triples).  First
    occurrence wins; hops whose params resist value-hashing pass
    through untouched.  ``stats.dedup_hits`` counts the drops.
    """
    seen: set = set()
    kept: List[Any] = []
    # Params content keys memoized by object identity: one program run
    # emits many hops sharing one params object, and the ids stay
    # unique for the pass because ``entries`` keeps every object alive.
    # Distinct contents are interned to small ints so the seen-set
    # hashes (handle, int) pairs, not nested tuples.
    param_key_ids: Dict[int, Optional[int]] = {}
    interned: Dict[Hashable, int] = {}
    missing = param_key_ids.get
    dropped = 0
    for entry in entries:
        handle, params = entry if hop_of is None else hop_of(entry)
        pid = id(params)
        kid = missing(pid, -1)
        if kid == -1:
            pkey = _params_key(params)
            if pkey is None:
                kid = None
            else:
                kid = interned.setdefault(pkey, len(interned))
            param_key_ids[pid] = kid
        if kid is None:
            kept.append(entry)
            continue
        key = (handle, kid)
        if key in seen:
            dropped += 1
        else:
            seen.add(key)
            kept.append(entry)
    if stats is not None:
        stats.dedup_hits += dropped
    return kept


class ProgramExecutor:
    """Breadth-first driver of a node program across the graph."""

    def __init__(self, max_visits: int = 10_000_000):
        self._max_visits = max_visits
        self.stats = ProgramStats()

    def execute(
        self,
        program: NodeProgram,
        start: Iterable[Tuple[str, Any]],
        resolve: Resolver,
        ts: VectorTimestamp,
        query_id: int = 0,
    ) -> ProgramResult:
        """Run ``program`` from the ``start`` frontier to completion.

        ``resolve(handle)`` returns the vertex view at the program's
        snapshot, or None when the vertex is invisible there; a resolver
        exposing ``resolve_many`` gets the frontier one round at a time.
        Propagation ends when the frontier drains, the program halts, or
        the visit budget (a runaway guard) is exhausted.
        """
        ctx = ProgramContext(query_id, ts)
        resolve_many = getattr(resolve, "resolve_many", None)
        if resolve_many is None:
            result = self._execute_sequential(program, start, resolve, ctx)
        else:
            result = self._execute_rounds(program, start, resolve_many, ctx)
        self.stats.executions += 1
        return result

    # -- round-based scatter-gather (sections 2.3, 4.1) -------------------

    def _execute_rounds(
        self,
        program: NodeProgram,
        start: Iterable[Tuple[str, Any]],
        resolve_many,
        ctx: ProgramContext,
    ) -> ProgramResult:
        frontier: List[Tuple[str, Any]] = list(start)
        visits = 0
        max_visits = self._max_visits
        dedup = program.dedup_hops
        while frontier and not ctx.halted:
            if dedup:
                frontier = self._dedup_round(frontier)
            ctx.rounds += 1
            self.stats.batch_rounds += 1
            views = resolve_many([handle for handle, _ in frontier])
            views_get = views.get
            next_frontier: List[Tuple[str, Any]] = []
            round_hops = 0
            for handle, params in frontier:
                if visits >= max_visits:
                    raise ProgramError(
                        f"visit budget exhausted ({max_visits})"
                    )
                visits += 1
                node = views_get(handle)
                hops = run_entry(program, handle, params, node, ctx)
                if node is None:
                    # Missing vertices do not observe a mid-round halt:
                    # the sequential twin's ``continue`` skips its halt
                    # check too, and equivalence is exact.
                    continue
                round_hops += len(hops)
                next_frontier.extend(hops)
                if ctx.halted:
                    break
            ctx.hops += round_hops
            frontier = next_frontier
        return ProgramResult(ctx)

    def _dedup_round(
        self, frontier: List[Tuple[str, Any]]
    ) -> List[Tuple[str, Any]]:
        """Drop same-round repeats of one (vertex, params) hop.

        Only for programs declaring ``dedup_hops``; hops whose params
        resist value-hashing pass through untouched.
        """
        return dedup_round(frontier, self.stats)

    # -- the seed per-vertex loop (compatibility shim) --------------------

    def _execute_sequential(
        self,
        program: NodeProgram,
        start: Iterable[Tuple[str, Any]],
        resolve: Resolver,
        ctx: ProgramContext,
    ) -> ProgramResult:
        self.stats.sequential_executions += 1
        frontier = deque(start)
        visits = 0
        while frontier and not ctx.halted:
            handle, params = frontier.popleft()
            if visits >= self._max_visits:
                raise ProgramError(
                    f"visit budget exhausted ({self._max_visits})"
                )
            visits += 1
            node = resolve(handle)
            hops = run_entry(program, handle, params, node, ctx)
            ctx.hops += len(hops)
            frontier.extend(hops)
        return ProgramResult(ctx)
