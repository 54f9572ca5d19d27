"""The versioned binary wire codec for cross-process messages.

Everything that crosses a process boundary in the real deployment —
queued transactions, program requests, timestamps, operation payloads,
trace events — is encoded here as a length-prefixed, tagged binary frame.
No pickle: the codec supports exactly the value shapes Weaver's message
contract uses (scalars, containers, ``SimpleNamespace`` params,
``VectorTimestamp``, ``Ordering``, and the registered message/operation
dataclasses), so a malformed or unknown payload fails loudly instead of
executing arbitrary bytes.

The codec is **versioned and schema-checked**: every registered dataclass
is encoded as its class name plus its field values *in declared field
order*.  The expected field tuple for each class is pinned in
``WIRE_SCHEMA`` below; at import time :func:`verify_schema` compares the
pin against the live ``dataclasses.fields``.  Adding, removing, or
reordering a field without bumping :data:`WIRE_VERSION` (and updating the
pin plus the golden digest in ``tests/test_wire.py``) is an import-time
error — old frames would otherwise decode into silently shifted fields.

Frame format::

    u32 length | u8 version | tagged value

Tagged values (1-byte tag, big-endian fixed-width scalars)::

    N none | T true | F false | i int64 | n bigint(decimal str)
    f float64 | s str | b bytes | l list | t tuple | e set
    z frozenset | d dict | p SimpleNamespace | V VectorTimestamp
    O Ordering | M registered dataclass
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from types import SimpleNamespace
from typing import Any, Dict, List, Tuple, Type

from ..core.vclock import Ordering, VectorTimestamp
from ..db import operations as ops
from ..errors import WeaverError
from . import messages

#: Bump whenever a registered class's field tuple changes, whenever a
#: class is added or removed, or whenever a tag's encoding changes.
WIRE_VERSION = 3

_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1

#: The pinned wire schema: class name -> field names in wire order.
#: This is the contract with already-encoded frames; ``verify_schema``
#: fails the import when the live dataclasses drift from it.
WIRE_SCHEMA: Dict[str, Tuple[str, ...]] = {
    # cluster/messages.py — every cross-server payload type.
    "QueuedTransaction": ("ts", "operations", "seqno", "tiebreak",
                          "trace_id"),
    "AnnounceMessage": ("src", "vector"),
    "ProgramStart": ("ts", "query_id", "program", "frontier", "trace_id",
                     "cache_tail", "max_visits"),
    "FrontierForward": ("query_id", "round", "hops"),
    "Heartbeat": ("server", "epoch", "sent_at"),
    # db/operations.py — the payloads of a QueuedTransaction.
    "CreateVertex": ("handle",),
    "DeleteVertex": ("handle",),
    "CreateEdge": ("handle", "src", "dst"),
    "DeleteEdge": ("src", "handle"),
    "SetVertexProperty": ("handle", "key", "value"),
    "DeleteVertexProperty": ("handle", "key"),
    "SetEdgeProperty": ("src", "handle", "key", "value"),
    "DeleteEdgeProperty": ("src", "handle", "key"),
}

#: class name -> class, for decoding.
_CLASSES: Dict[str, Type] = {
    cls.__name__: cls
    for cls in (
        messages.QueuedTransaction,
        messages.AnnounceMessage,
        messages.ProgramStart,
        messages.FrontierForward,
        messages.Heartbeat,
        ops.CreateVertex,
        ops.DeleteVertex,
        ops.CreateEdge,
        ops.DeleteEdge,
        ops.SetVertexProperty,
        ops.DeleteVertexProperty,
        ops.SetEdgeProperty,
        ops.DeleteEdgeProperty,
    )
}

_ORDERINGS = (
    Ordering.BEFORE, Ordering.AFTER, Ordering.CONCURRENT, Ordering.EQUAL
)
_ORDERING_INDEX = {o: i for i, o in enumerate(_ORDERINGS)}


class WireError(WeaverError):
    """Encoding, decoding, or schema failure on the wire."""


def verify_schema() -> None:
    """Compare the pinned schema against the live dataclasses.

    Raises :class:`WireError` when a registered class gained, lost, or
    reordered fields without a codec-version bump — the failure mode
    where old frames decode into the wrong fields.
    """
    for name, pinned in WIRE_SCHEMA.items():
        cls = _CLASSES.get(name)
        if cls is None:
            raise WireError(f"wire schema pins unknown class {name!r}")
        live = tuple(f.name for f in dataclasses.fields(cls))
        if live != pinned:
            raise WireError(
                f"wire schema drift on {name}: fields {live!r} != pinned "
                f"{pinned!r} — bump WIRE_VERSION and update WIRE_SCHEMA "
                "plus the golden digest in tests/test_wire.py"
            )
    extra = set(_CLASSES) - set(WIRE_SCHEMA)
    if extra:
        raise WireError(f"classes without a schema pin: {sorted(extra)}")


def schema_digest() -> str:
    """A stable digest of (version, class, field...) — the golden value
    tests pin so schema drift fails loudly."""
    h = hashlib.sha256()
    h.update(f"wire-version={WIRE_VERSION}\n".encode())
    for name in sorted(WIRE_SCHEMA):
        fields = ",".join(WIRE_SCHEMA[name])
        h.update(f"{name}({fields})\n".encode())
    return h.hexdigest()


# -- encoding ------------------------------------------------------------


def _encode_value(value: Any, out: List[bytes]) -> None:
    if value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif type(value) is int:
        if _I64_MIN <= value <= _I64_MAX:
            out.append(b"i")
            out.append(_I64.pack(value))
        else:
            raw = str(value).encode()
            out.append(b"n")
            out.append(_U32.pack(len(raw)))
            out.append(raw)
    elif type(value) is float:
        out.append(b"f")
        out.append(_F64.pack(value))
    elif type(value) is str:
        raw = value.encode()
        out.append(b"s")
        out.append(_U32.pack(len(raw)))
        out.append(raw)
    elif type(value) is bytes:
        out.append(b"b")
        out.append(_U32.pack(len(value)))
        out.append(value)
    elif type(value) is VectorTimestamp:
        out.append(b"V")
        out.append(_I64.pack(value.epoch))
        out.append(_U32.pack(value.issuer))
        out.append(_U32.pack(len(value.clocks)))
        for clock in value.clocks:
            out.append(_I64.pack(clock))
    elif type(value) is Ordering or isinstance(value, Ordering):
        out.append(b"O")
        out.append(bytes([_ORDERING_INDEX[value]]))
    elif type(value) in (list, tuple, set, frozenset):
        tag = {list: b"l", tuple: b"t", set: b"e", frozenset: b"z"}[
            type(value)
        ]
        items = value
        if tag in (b"e", b"z"):
            # Deterministic frames: unordered containers are serialized
            # in sorted-encoding order.
            items = sorted(items, key=_sort_key)
        out.append(tag)
        out.append(_U32.pack(len(value)))
        for item in items:
            _encode_value(item, out)
    elif type(value) is dict:
        out.append(b"d")
        out.append(_U32.pack(len(value)))
        for key, item in value.items():
            _encode_value(key, out)
            _encode_value(item, out)
    elif type(value) is SimpleNamespace:
        attrs = vars(value)
        out.append(b"p")
        out.append(_U32.pack(len(attrs)))
        for key in sorted(attrs):
            _encode_value(key, out)
            _encode_value(attrs[key], out)
    else:
        name = type(value).__name__
        pinned = WIRE_SCHEMA.get(name)
        if pinned is None or type(value) is not _CLASSES.get(name):
            raise WireError(
                f"cannot encode {type(value).__qualname__!r} on the wire"
            )
        raw = name.encode()
        out.append(b"M")
        out.append(bytes([len(raw)]))
        out.append(raw)
        for field in pinned:
            _encode_value(getattr(value, field), out)


def _sort_key(value: Any) -> bytes:
    out: List[bytes] = []
    _encode_value(value, out)
    return b"".join(out)


def encode(value: Any) -> bytes:
    """One versioned payload (no length prefix)."""
    out: List[bytes] = [bytes([WIRE_VERSION])]
    _encode_value(value, out)
    return b"".join(out)


# -- decoding ------------------------------------------------------------


def _decode_value(view: memoryview, pos: int) -> Tuple[Any, int]:
    tag = view[pos:pos + 1].tobytes()
    pos += 1
    if tag == b"N":
        return None, pos
    if tag == b"T":
        return True, pos
    if tag == b"F":
        return False, pos
    if tag == b"i":
        return _I64.unpack_from(view, pos)[0], pos + 8
    if tag == b"n":
        (length,) = _U32.unpack_from(view, pos)
        pos += 4
        return int(view[pos:pos + length].tobytes()), pos + length
    if tag == b"f":
        return _F64.unpack_from(view, pos)[0], pos + 8
    if tag in (b"s", b"b"):
        (length,) = _U32.unpack_from(view, pos)
        pos += 4
        raw = view[pos:pos + length].tobytes()
        return (raw.decode() if tag == b"s" else raw), pos + length
    if tag == b"V":
        (epoch,) = _I64.unpack_from(view, pos)
        pos += 8
        (issuer,) = _U32.unpack_from(view, pos)
        pos += 4
        (count,) = _U32.unpack_from(view, pos)
        pos += 4
        clocks = []
        for _ in range(count):
            clocks.append(_I64.unpack_from(view, pos)[0])
            pos += 8
        return VectorTimestamp(epoch, tuple(clocks), issuer), pos
    if tag == b"O":
        return _ORDERINGS[view[pos]], pos + 1
    if tag in (b"l", b"t", b"e", b"z"):
        (count,) = _U32.unpack_from(view, pos)
        pos += 4
        items = []
        for _ in range(count):
            item, pos = _decode_value(view, pos)
            items.append(item)
        build = {b"l": list, b"t": tuple, b"e": set, b"z": frozenset}[tag]
        return build(items), pos
    if tag == b"d":
        (count,) = _U32.unpack_from(view, pos)
        pos += 4
        mapping = {}
        for _ in range(count):
            key, pos = _decode_value(view, pos)
            value, pos = _decode_value(view, pos)
            mapping[key] = value
        return mapping, pos
    if tag == b"p":
        (count,) = _U32.unpack_from(view, pos)
        pos += 4
        attrs = {}
        for _ in range(count):
            key, pos = _decode_value(view, pos)
            value, pos = _decode_value(view, pos)
            attrs[key] = value
        return SimpleNamespace(**attrs), pos
    if tag == b"M":
        name_len = view[pos]
        pos += 1
        name = view[pos:pos + name_len].tobytes().decode()
        pos += name_len
        cls = _CLASSES.get(name)
        pinned = WIRE_SCHEMA.get(name)
        if cls is None or pinned is None:
            raise WireError(f"unknown wire class {name!r}")
        values = []
        for _ in pinned:
            value, pos = _decode_value(view, pos)
            values.append(value)
        return cls(*values), pos
    raise WireError(f"unknown wire tag {tag!r} at offset {pos - 1}")


def decode(data: bytes) -> Any:
    """Decode one payload produced by :func:`encode`."""
    if not data:
        raise WireError("empty wire payload")
    if data[0] != WIRE_VERSION:
        raise WireError(
            f"wire version mismatch: got {data[0]}, "
            f"expected {WIRE_VERSION}"
        )
    view = memoryview(data)
    value, pos = _decode_value(view, 1)
    if pos != len(data):
        raise WireError(
            f"trailing bytes on the wire: {len(data) - pos} after payload"
        )
    return value


# -- framing -------------------------------------------------------------


def write_frame(sock, payload: bytes) -> int:
    """Write one length-prefixed frame; returns bytes on the wire."""
    frame = _U32.pack(len(payload)) + payload
    sock.sendall(frame)
    return len(frame)


def _recv_exact(sock, length: int) -> bytes:
    chunks = []
    remaining = length
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise WireError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock) -> bytes:
    """Read one length-prefixed frame (blocking).  Raises
    :class:`WireError` when the peer closed the connection."""
    header = _recv_exact(sock, 4)
    (length,) = _U32.unpack(header)
    return _recv_exact(sock, length)


class FrameBuffer:
    """Incremental frame reassembly for non-blocking sockets.

    Feed raw received bytes in; complete frames come out.  Used by the
    oracle worker's selector loop, where one ``recv`` may carry part of
    a frame or several frames.
    """

    def __init__(self) -> None:
        self._data = bytearray()

    def feed(self, chunk: bytes) -> List[bytes]:
        self._data.extend(chunk)
        frames = []
        while len(self._data) >= 4:
            (length,) = _U32.unpack_from(self._data, 0)
            if len(self._data) < 4 + length:
                break
            frames.append(bytes(self._data[4:4 + length]))
            del self._data[:4 + length]
        return frames


# Fail at import when the live dataclasses drift from the pinned schema.
verify_schema()
