"""The wire codec: round-trips, framing, and schema pinning.

Every dataclass in ``cluster/messages.py`` (and every operation payload
a ``QueuedTransaction`` can carry) must survive an encode/decode round
trip bit-exactly, and the schema digest is pinned so adding a field to
any wire class without bumping ``WIRE_VERSION`` fails this suite loudly
instead of silently shifting fields in old frames.
"""

import socket
from types import SimpleNamespace

import pytest

from repro.cluster import wire
from repro.cluster.messages import (
    AnnounceMessage,
    FrontierForward,
    Heartbeat,
    ProgramStart,
    QueuedTransaction,
)
from repro.core.vclock import Ordering, VectorTimestamp
from repro.db import operations as ops

# The golden schema digest: (WIRE_VERSION, class, field...) hashed.  A
# change here means old frames no longer decode the same way — bump
# wire.WIRE_VERSION, update WIRE_SCHEMA, and re-pin this value.
GOLDEN_SCHEMA_DIGEST = (
    "604fe0d2cafa7d28c8dcb9fbff105a59bf5fd93933de498a2864bd9d90aaaef6"
)

TS = VectorTimestamp(epoch=2, clocks=(3, 1, 4), issuer=1)
TS2 = VectorTimestamp(epoch=0, clocks=(7, 0, 0), issuer=0)

ALL_OPERATIONS = [
    ops.CreateVertex("v1"),
    ops.DeleteVertex("v2"),
    ops.CreateEdge("e1", "v1", "v2"),
    ops.DeleteEdge("v1", "e1"),
    ops.SetVertexProperty("v1", "color", "red"),
    ops.DeleteVertexProperty("v1", "color"),
    ops.SetEdgeProperty("v1", "e1", "weight", 3),
    ops.DeleteEdgeProperty("v1", "e1", "weight"),
]

ALL_MESSAGES = [
    QueuedTransaction(TS, tuple(ALL_OPERATIONS), seqno=7, tiebreak=42,
                      trace_id=99),
    QueuedTransaction(TS2),  # a NOP: defaults everywhere
    AnnounceMessage(1, (3, 1, 4)),
    ProgramStart(TS, 7,
                 ("repro.programs.analytics", "WeightedShortestPath",
                  (("weight_prop", "cost"),)),
                 (((0,), "v1", SimpleNamespace(depth=0)),
                  ((1,), "v2", None)),
                 trace_id=3, cache_tail=("repr", 9), max_visits=100),
    # defaults everywhere
    ProgramStart(TS2, 8, ("repro.programs.library", "Reachability", ()), ()),
    FrontierForward(7, 2, (((0, 1, 0), "v2", None),)),
    Heartbeat("shard0", 3, 1.25),
]

SCALARS = [
    None, True, False, 0, -1, 2**62, 2**80, -(2**90), 1.5, "", "héllo",
    b"\x00\xff", [], [1, [2, "x"]], (1, (2,)), {"a": 1, 2: "b"},
    {1, 2, 3}, frozenset({"a", "b"}), SimpleNamespace(x=1, y=(2, 3)),
    TS, TS2, Ordering.BEFORE, Ordering.AFTER, Ordering.CONCURRENT,
    Ordering.EQUAL,
]


def _scalar_id(value):
    """repr, except set members are sorted: a set's iteration order
    follows string hash randomization, and test ids must not."""
    if type(value) in (set, frozenset):
        body = ", ".join(sorted(repr(item) for item in value))
        return f"{{{body}}}" if type(value) is set else f"frozenset({{{body}}})"
    return repr(value)


@pytest.mark.parametrize("value", SCALARS, ids=_scalar_id)
def test_scalar_round_trip(value):
    decoded = wire.decode(wire.encode(value))
    assert decoded == value
    assert type(decoded) is type(value)


@pytest.mark.parametrize(
    "message", ALL_MESSAGES, ids=lambda m: type(m).__name__
)
def test_message_round_trip(message):
    assert wire.decode(wire.encode(message)) == message


@pytest.mark.parametrize(
    "operation", ALL_OPERATIONS, ids=lambda o: type(o).__name__
)
def test_operation_round_trip(operation):
    assert wire.decode(wire.encode(operation)) == operation


def test_every_registered_class_is_exercised():
    """The round-trip lists above must cover the full wire schema, so a
    newly registered class without a test here fails loudly."""
    covered = {type(m).__name__ for m in ALL_MESSAGES}
    covered |= {type(o).__name__ for o in ALL_OPERATIONS}
    assert covered == set(wire.WIRE_SCHEMA)


def test_nested_timestamp_identity():
    decoded = wire.decode(wire.encode(QueuedTransaction(TS)))
    assert decoded.ts == TS
    assert decoded.ts.id == TS.id
    assert hash(decoded.ts) == hash(TS)


def test_unordered_containers_encode_deterministically():
    a = wire.encode({"s": {3, 1, 2}, "z": frozenset({"b", "a"})})
    b = wire.encode({"s": {2, 3, 1}, "z": frozenset({"a", "b"})})
    assert a == b


def test_unencodable_value_fails_loudly():
    with pytest.raises(wire.WireError):
        wire.encode(object())
    with pytest.raises(wire.WireError):
        wire.encode(lambda: None)  # no closures across the wire


def test_version_mismatch_rejected():
    payload = wire.encode("hello")
    stale = bytes([wire.WIRE_VERSION + 1]) + payload[1:]
    with pytest.raises(wire.WireError, match="version mismatch"):
        wire.decode(stale)


def test_trailing_bytes_rejected():
    with pytest.raises(wire.WireError, match="trailing"):
        wire.decode(wire.encode(1) + b"x")


def test_schema_digest_pinned():
    assert wire.schema_digest() == GOLDEN_SCHEMA_DIGEST, (
        "wire schema changed: if this is intentional, bump WIRE_VERSION "
        "in src/repro/cluster/wire.py, update WIRE_SCHEMA, and re-pin "
        "GOLDEN_SCHEMA_DIGEST here"
    )


def test_schema_drift_detected(monkeypatch):
    """A field added to a wire class without updating the pin is an
    import-time error, not a silent field shift."""
    monkeypatch.setitem(
        wire.WIRE_SCHEMA, "Heartbeat", ("server", "epoch")
    )
    with pytest.raises(wire.WireError, match="drift"):
        wire.verify_schema()


def test_schema_pin_for_unknown_class_detected(monkeypatch):
    monkeypatch.setitem(wire.WIRE_SCHEMA, "Bogus", ("x",))
    with pytest.raises(wire.WireError, match="unknown class"):
        wire.verify_schema()


def test_unknown_class_on_decode_rejected():
    # Hand-craft an M frame naming an unregistered class.
    payload = bytes([wire.WIRE_VERSION]) + b"M" + bytes([5]) + b"Bogus"
    with pytest.raises(wire.WireError, match="unknown wire class"):
        wire.decode(payload)


# -- framing -------------------------------------------------------------


def test_frame_round_trip_over_socketpair():
    a, b = socket.socketpair()
    try:
        payload = wire.encode(ALL_MESSAGES[0])
        sent = wire.write_frame(a, payload)
        assert sent == len(payload) + 4
        assert wire.decode(wire.read_frame(b)) == ALL_MESSAGES[0]
    finally:
        a.close()
        b.close()


def test_read_frame_raises_on_close():
    a, b = socket.socketpair()
    a.close()
    try:
        with pytest.raises(wire.WireError, match="closed"):
            wire.read_frame(b)
    finally:
        b.close()


def test_frame_buffer_reassembles_partial_and_coalesced_frames():
    frames_in = [wire.encode(m) for m in ALL_MESSAGES[:3]]
    stream = b"".join(
        wire._U32.pack(len(f)) + f for f in frames_in
    )
    buffer = wire.FrameBuffer()
    out = []
    # Drip-feed one byte at a time: every frame must still come out whole.
    for i in range(len(stream)):
        out.extend(buffer.feed(stream[i:i + 1]))
    assert [wire.decode(f) for f in out] == ALL_MESSAGES[:3]
