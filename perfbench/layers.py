"""Per-layer timing for the traced run, from outside the program.

:class:`LayerTimer` wraps the public entry points of each layer (class
attributes and module functions) with a span that records calls,
inclusive seconds and self seconds — the span's duration minus the part
its child spans cover.  Wrappers are installed only for the traced
window and removed after it; the end-to-end runs never see them.

Layers are named by the module they live in, plus ``runtime.gc`` for
the client's garbage collector.  Worker-side layers of the
process deployment (shard apply/advance inside the worker processes)
cannot be timed from the client; they read zero there and are timed on
the direct deployment.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Dict, List, Tuple

from repro.cluster import process as process_module
from repro.cluster.process import ProcessWeaver
from repro.cluster.shard import ShardServer
from repro.cluster.transport import ProcessTransport
from repro.core import gatekeeper as gatekeeper_module
from repro.core.gatekeeper import Gatekeeper
from repro.db import database as database_module
from repro.db.client import WeaverClient
from repro.db.database import Weaver
from repro.programs.framework import ProgramExecutor
from repro.store.kvstore import StoreTransaction

#: (layer, owner, attribute): every owner attribute is wrapped with the
#: layer's span.  Owners are classes or modules.
ENTRY_POINTS: Tuple[Tuple[str, object, str], ...] = (
    ("db.program", WeaverClient, "run_program"),
    ("db.transact", WeaverClient, "transact"),
    ("db.readiness", Weaver, "_make_shards_ready"),
    ("db.readiness", ProcessWeaver, "_make_shards_ready"),
    ("gatekeeper.stamp", Gatekeeper, "issue_timestamp"),
    ("gatekeeper.commit", Gatekeeper, "commit_prepared"),
    ("gatekeeper.announce", gatekeeper_module, "sync_announce_all"),
    ("gatekeeper.announce", database_module, "sync_announce_all"),
    ("gatekeeper.announce", process_module, "sync_announce_all"),
    ("gatekeeper.nop", Gatekeeper, "make_nop"),
    ("store.commit", StoreTransaction, "commit"),
    ("transport.wait", ProcessTransport, "request"),
    ("transport.wait", ProcessTransport, "request_all"),
    ("transport.wait", ProcessTransport, "collect"),
    ("shard.apply", ShardServer, "apply_available"),
    ("shard.advance", ShardServer, "advance_to"),
    ("programs.execute", ProgramExecutor, "execute"),
    ("programs.execute", ProcessWeaver, "_run_resident"),
)

#: The client process's cyclic garbage collector, timed through
#: ``gc.callbacks``: a collection is a child span of whatever span it
#: interrupts.
GC_LAYER = "runtime.gc"

#: Layer names in report order.
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys([e[0] for e in ENTRY_POINTS] + [GC_LAYER])
)

_MISSING = object()


class LayerTimer:
    """Spans around layer entry points; a context manager that installs
    the wrappers on enter and restores the originals on exit."""

    def __init__(self, entry_points=ENTRY_POINTS,
                 clock: Callable[[], float] = time.perf_counter):
        self._entry_points = entry_points
        self._clock = clock
        self._saved: List[Tuple[object, str, object]] = []
        #: Open spans, innermost last:
        #: [layer, seconds covered by children, start time].
        self._stack: List[list] = []
        self._active: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.seconds: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.self_seconds: Dict[str, float] = {
            layer: 0.0 for layer in LAYERS
        }

    def _open(self, layer: str) -> list:
        frame = [layer, 0.0, self._clock()]
        self._stack.append(frame)
        self._active[layer] += 1
        return frame

    def _close(self, frame: list) -> None:
        layer = frame[0]
        elapsed = self._clock() - frame[2]
        self._stack.pop()
        self._active[layer] -= 1
        self.calls[layer] += 1
        self.self_seconds[layer] += elapsed - frame[1]
        # Inclusive time counts once when a layer re-enters itself
        # further down the stack.
        if not self._active[layer]:
            self.seconds[layer] += elapsed
        if self._stack:
            self._stack[-1][1] += elapsed

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        stack = self._stack

        def span(*args, **kwargs):
            # A layer calling itself (request -> collect) is one span.
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = self._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)

        span.__wrapped__ = fn
        return span

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._open(GC_LAYER)
        elif self._stack and self._stack[-1][0] == GC_LAYER:
            self._close(self._stack[-1])

    def __enter__(self) -> "LayerTimer":
        for layer, owner, name in self._entry_points:
            original = vars(owner).get(name, _MISSING)
            if original is _MISSING:
                raise AttributeError(f"{owner!r} has no {name!r}")
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(layer, original))
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> bool:
        gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        return False

    def rows(self, wall: float) -> List[Tuple[str, int, float, float, float]]:
        """(layer, calls, seconds, self seconds, share of wall) per layer,
        then the ``unattributed`` row: wall time no span covers."""
        out = [
            (layer, self.calls[layer], self.seconds[layer],
             self.self_seconds[layer], self.seconds[layer] / wall)
            for layer in LAYERS
        ]
        covered = sum(self.self_seconds.values())
        out.append(("unattributed", 0, wall - covered, wall - covered,
                    (wall - covered) / wall))
        return out
