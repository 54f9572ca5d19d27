"""The benchmark's workloads: seeded inputs, deployments, timed loops and
output checks against plain-Python reference models.

Every workload is one closed loop: a single client with one request in
flight and no think time, driving a deployment of 2 gatekeepers and
2 shards through the public client API (``WeaverClient``).

* ``tao_write`` — the Table 1 TAO mix at 75% reads (Fig 9b) on a
  power-law social graph, process deployment, ``announce_every=40``.
* ``traverse`` — depth-3 BFS from uniform roots on a connected random
  graph, process deployment.
* ``tao_write_direct`` — ``tao_write``'s traffic on the in-process
  ``Weaver``.

Inputs depend on the seed only.  Each answer is recorded during the
timed window and checked after it: TAO answers against an adjacency
dict that replays the same operation stream, BFS answers against a
depth-bounded BFS over the generated edge list.
"""

from __future__ import annotations

import dataclasses
import random
import time
from collections import Counter, deque
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.bench.transport_bench import graph_spec
from repro.cluster.process import ProcessWeaver
from repro.db.client import WeaverClient
from repro.db.config import WeaverConfig
from repro.db.database import Weaver
from repro.programs import library
from repro.workloads import graphs
from repro.workloads.tao import TaoWorkload

#: Operations per bulk-load transaction.
LOAD_BATCH = 500
#: BFS depth of the ``traverse`` workload (Fig 11's multi-hop reads).
TRAVERSE_DEPTH = 3


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    deployment: str          # "process" or "direct"
    traffic: str             # "tao" or "traverse"
    announce_every: int
    read_fraction: float = 1.0
    degree: int = 7


#: Why each workload exists is in BENCHMARK.json and perfbench/README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("tao_write", "process", "tao", announce_every=40,
                 read_fraction=0.75),
        Workload("traverse", "process", "traverse", announce_every=1,
                 degree=6),
        Workload("tao_write_direct", "direct", "tao", announce_every=40,
                 read_fraction=0.75),
    )
}


# -- inputs ------------------------------------------------------------------


@dataclasses.dataclass
class Inputs:
    vertices: List[str]
    edges: List[Tuple[str, str, str]]    # (src, dst, handle)
    seed: int


def make_inputs(workload: Workload, seed: int, num_vertices: int) -> Inputs:
    """The seeded graph a workload loads; loaded edges get explicit
    handles so the reference models never depend on the program."""
    if workload.traffic == "tao":
        pairs = graphs.social_graph(num_vertices, workload.degree, seed=seed)
        vertices = graphs.vertices_of(pairs)
    else:
        vertices, pairs = graph_spec(num_vertices, workload.degree, seed=seed)
    edges = [(src, dst, f"g{i}") for i, (src, dst) in enumerate(pairs)]
    return Inputs(vertices, edges, seed)


def config_for(workload: Workload) -> WeaverConfig:
    return WeaverConfig(
        num_gatekeepers=2, num_shards=2,
        announce_every=workload.announce_every,
    )


# -- deployments ---------------------------------------------------------------


def deploy(workload: Workload, inputs: Inputs):
    """Start a deployment, bulk-load the graph, drain the deferred apply
    and run one warm-up read.  Returns (db, client)."""
    config = config_for(workload)
    db = ProcessWeaver(config) if workload.deployment == "process" \
        else Weaver(config)
    try:
        client = WeaverClient(db)
        vertices = inputs.vertices
        for i in range(0, len(vertices), LOAD_BATCH):
            with client.transaction() as tx:
                for handle in vertices[i:i + LOAD_BATCH]:
                    tx.create_vertex(handle)
        edges = inputs.edges
        for i in range(0, len(edges), LOAD_BATCH):
            with client.transaction() as tx:
                for src, dst, handle in edges[i:i + LOAD_BATCH]:
                    tx.create_edge(src, dst, handle)
        db.drain()
        client.get_node(vertices[0])
    except BaseException:
        close(db)
        raise
    return db, client


def close(db) -> None:
    if hasattr(db, "close"):
        db.close()


# -- operation streams -----------------------------------------------------------


class Failure:
    """A recorded operation that raised instead of answering."""

    def __init__(self, error: BaseException):
        self.error = repr(error)

    def __repr__(self) -> str:
        return f"Failure({self.error})"


class Sample(NamedTuple):
    """One recorded op.  A tuple of tuples and scalars, so the cyclic
    garbage collector untracks it and the recording adds no collection
    work to the program's timed window."""

    op: Tuple
    result: Any
    started: float
    seconds: float
    is_read: bool


class ProgramTally:
    """Per-query program counters summed over the node programs run."""

    def __init__(self) -> None:
        self.queries = self.entries = self.rounds = self.hops = 0

    def run(self, client: WeaverClient, program, start: str,
            params: Any = None):
        result = client.run_program(program, start, params)
        self.queries += 1
        self.entries += result.vertices_visited
        self.rounds += result.rounds
        self.hops += result.hops
        return result


class TaoStream:
    """The TAO operation stream and how each op runs on the client."""

    def __init__(self, workload: Workload, inputs: Inputs):
        pool = [(src, handle) for src, _dst, handle in inputs.edges]
        self._tao = TaoWorkload(
            inputs.vertices, pool,
            read_fraction=workload.read_fraction, seed=inputs.seed,
        )
        self.tally = ProgramTally()
        self._get_edges = library.GetEdges()
        self._count_edges = library.CountEdges()
        self._get_node = library.GetNode()
        self._params = library.params(edge_prop=None)

    def next_op(self) -> Tuple:
        return self._tao.next_op()

    @staticmethod
    def is_read(op: Tuple) -> bool:
        return op[0] in ("get_edges", "count_edges", "get_node")

    def execute(self, client: WeaverClient, op: Tuple) -> Any:
        kind = op[0]
        if kind == "get_edges":
            return tuple(
                (edge["handle"], edge["nbr"],
                 tuple(sorted(edge["properties"].items())))
                for edge in self.tally.run(client, self._get_edges, op[1],
                                           self._params).value
            )
        if kind == "count_edges":
            return self.tally.run(client, self._count_edges, op[1],
                                  self._params).value
        if kind == "get_node":
            node = self.tally.run(client, self._get_node, op[1]).value
            return (node["handle"], tuple(sorted(node["properties"].items())),
                    node["out_degree"])
        if kind == "create_edge":
            _, src, dst, handle = op
            created = client.transact(
                lambda tx: tx.create_edge(src, dst, handle)
            )
            self._tao.note_created(src, created)
            return created
        _, src, handle = op
        client.transact(lambda tx: tx.delete_edge(src, handle))
        return None


class TraverseStream:
    """Depth-bounded BFS queries from uniformly chosen roots."""

    def __init__(self, workload: Workload, inputs: Inputs):
        self._vertices = inputs.vertices
        self._rng = random.Random(inputs.seed)
        self.tally = ProgramTally()
        self._bfs = library.Bfs()

    def next_op(self) -> Tuple:
        root = self._vertices[self._rng.randrange(len(self._vertices))]
        return ("bfs", root)

    @staticmethod
    def is_read(op: Tuple) -> bool:
        return True

    def execute(self, client: WeaverClient, op: Tuple) -> Any:
        params = library.params(depth=0, max_depth=TRAVERSE_DEPTH)
        return tuple(self.tally.run(client, self._bfs, op[1], params).results)


def make_stream(workload: Workload, inputs: Inputs):
    if workload.traffic == "tao":
        return TaoStream(workload, inputs)
    return TraverseStream(workload, inputs)


def run_window(client: WeaverClient, stream, seconds: float,
               log: List[Sample],
               on_op: Optional[Callable[[float], None]] = None,
               ) -> Tuple[float, float]:
    """Closed loop for ``seconds``: next op as soon as the last returns.

    Appends one :class:`Sample` per op to ``log``; stops early at the
    first failed op.  ``on_op(now)`` runs after each op, outside its
    latency.  Returns (window start, window end).
    """
    clock = time.perf_counter
    begin = clock()
    end = begin + seconds
    now = begin
    while now < end:
        op = stream.next_op()
        started = clock()
        try:
            result = stream.execute(client, op)
        except Exception as exc:  # recorded, counted and reported
            result = Failure(exc)
        now = clock()
        log.append(Sample(op, result, started, now - started,
                          stream.is_read(op)))
        if isinstance(result, Failure):
            break
        if on_op is not None:
            on_op(now)
    return begin, now


# -- output checks -------------------------------------------------------------


def check_tao(inputs: Inputs, log: List[Sample]) -> List[Tuple[int, str]]:
    """Replay the recorded op stream on an adjacency dict; return
    (op index, message) per answer that differs from the model."""
    adjacency: Dict[str, Dict[str, str]] = {v: {} for v in inputs.vertices}
    for src, dst, handle in inputs.edges:
        adjacency[src][handle] = dst
    errors = []
    for index, sample in enumerate(log):
        op, got = sample.op, sample.result
        kind = op[0]
        if isinstance(got, Failure):
            errors.append((index, f"{op!r} failed: {got.error}"))
            continue
        if kind == "get_edges":
            want = sorted(
                (handle, dst, ()) for handle, dst in adjacency[op[1]].items()
            )
            ok = sorted(got) == want
        elif kind == "count_edges":
            want = len(adjacency[op[1]])
            ok = got == want
        elif kind == "get_node":
            want = (op[1], (), len(adjacency[op[1]]))
            ok = got == want
        elif kind == "create_edge":
            _, src, dst, handle = op
            want = handle
            ok = got == want
            adjacency[src][handle] = dst
        else:
            _, src, handle = op
            want = None
            ok = got is None and handle in adjacency[src]
            adjacency[src].pop(handle, None)
        if not ok:
            errors.append((index, f"{op!r}: got {got!r}, want {want!r}"))
    return errors


def reference_bfs(adjacency: Dict[str, List[str]], root: str,
                  depth: int) -> List[str]:
    seen = {root: 0}
    queue = deque([root])
    while queue:
        vertex = queue.popleft()
        if seen[vertex] == depth:
            continue
        for nbr in adjacency.get(vertex, ()):
            if nbr not in seen:
                seen[nbr] = seen[vertex] + 1
                queue.append(nbr)
    return sorted(seen)


def check_traverse(inputs: Inputs,
                   log: List[Sample]) -> List[Tuple[int, str]]:
    adjacency: Dict[str, List[str]] = {}
    for src, dst, _handle in inputs.edges:
        adjacency.setdefault(src, []).append(dst)
    memo: Dict[str, List[str]] = {}
    errors = []
    for index, sample in enumerate(log):
        got = sample.result
        if isinstance(got, Failure):
            errors.append((index, f"{sample.op!r} failed: {got.error}"))
            continue
        root = sample.op[1]
        if root not in memo:
            memo[root] = reference_bfs(adjacency, root, TRAVERSE_DEPTH)
        want = memo[root]
        if len(got) != len(set(got)) or sorted(got) != want:
            errors.append((
                index, f"bfs({root}): {len(got)} visited, want {len(want)}"
            ))
    return errors


def check(workload: Workload, inputs: Inputs,
          log: List[Sample]) -> List[Tuple[int, str]]:
    if workload.traffic == "tao":
        return check_tao(inputs, log)
    return check_traverse(inputs, log)


def placement(db) -> Dict[int, int]:
    """Vertices per shard as actually placed."""
    return dict(sorted(Counter(shard for _, shard in db.mapping.items())
                       .items()))
