"""The serving tier's framed wire protocol, shared by the pool and the network.

Every message on a serving connection — pool parent ⇄ pool worker over a
socket pair, router ⇄ endpoint and client ⇄ router over TCP — is one
*frame*: a fixed 5-byte header (4-byte big-endian body length + 1-byte
frame type) followed by a body encoded by :mod:`repro.core.codec`.
Length-prefixing makes framing trivial over the blocking sockets every
side of both tiers uses, and the :class:`~repro.serve.dispatch.Dispatcher`'s
work and reply tuples travel as they are.

Frame catalog (full spec with per-type body schemas in
``docs/networking.md``):

==============  ====  =======================================================
frame           type  body / purpose
==============  ====  =======================================================
``HELLO``       0x01  ``{"version", "role"}`` — first frame on every TCP
                      connection, sent by the dialing side
``WELCOME``     0x02  ``{"version", "endpoint", "stats"}`` — the accepting
                      side's half of version negotiation
``ERROR``       0x03  ``{"code", "message"}`` — structured rejection (e.g.
                      version mismatch); the connection closes after it
``REQUEST``     0x04  a work message: ``("serve", ...)`` /
                      ``("resume", ...)`` on parent→member hops, a list of
                      :class:`~repro.serve.request.Request` on client→router
``RESPONSE``    0x05  the terminal reply to a ``REQUEST``
``CHECKPOINT``  0x06  ``(covered, payload)`` — one streamed slice-boundary
                      checkpoint, sent while a ``REQUEST`` is in flight
``HEARTBEAT``   0x07  load report: ``{"endpoint", "queue_depth"}``;
                      request and reply share the type
``STATS``       0x08  full stats snapshot request/reply
``FETCH``       0x09  artifact-store read: body is a store key
``PUBLISH``     0x0a  artifact-store write / ``FETCH`` reply:
                      ``(store_key, payload_or_None)``
``BYE``         0x0b  orderly close
==============  ====  =======================================================

A pool worker's socket pair is born inside one build, so it skips
``HELLO``/``WELCOME`` and starts at the first ``REQUEST``.  Version
negotiation on TCP: the dialer's ``HELLO`` carries :data:`WIRE_VERSION`;
an accepter that cannot speak it answers ``ERROR {"code": "version"}`` and
closes, so incompatible peers fail fast with a structured reason instead of
a mid-stream decoding error.  Oversized frames (> :data:`MAX_FRAME_BYTES`)
are a protocol error on both send and receive — a corrupt length prefix
must not look like a 4 GiB allocation.

Two exception families: :class:`ProtocolError` means the peer spoke the
protocol wrong (bad magic, bad version, oversized frame) — not retryable;
:class:`ConnectionDropped` means the peer went away (EOF, reset, or an
injected ``net.drop`` fault) — exactly the event the dispatcher's breaker
quarantine and checkpoint-migration recovery consume, on either tier.
"""

from __future__ import annotations

import socket
import struct
from typing import Any, Dict, Optional, Tuple

from repro.core.codec import CodecError, decode, encode
from repro.core.errors import ReproError

__all__ = [
    "WIRE_VERSION",
    "MAX_FRAME_BYTES",
    "HELLO",
    "WELCOME",
    "ERROR",
    "REQUEST",
    "RESPONSE",
    "CHECKPOINT",
    "HEARTBEAT",
    "STATS",
    "FETCH",
    "PUBLISH",
    "BYE",
    "FRAME_NAMES",
    "WireError",
    "ProtocolError",
    "ConnectionDropped",
    "encode_frame",
    "decode_header",
    "send_frame",
    "recv_frame",
    "expect_frame",
    "hello_rejection",
    "unexpected_frame",
    "FrameConnection",
]

#: The protocol version this build speaks.  Bump on any incompatible frame
#: or body-schema change; negotiation happens in HELLO/WELCOME.
WIRE_VERSION = 2

#: Ceiling on one frame's body size.  Large enough for any realistic batch
#: (bodies are compiled units, checkpoints, and request lists), small enough
#: that a corrupted length prefix cannot demand a multi-GiB allocation.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">IB")

HELLO = 0x01
WELCOME = 0x02
ERROR = 0x03
REQUEST = 0x04
RESPONSE = 0x05
CHECKPOINT = 0x06
HEARTBEAT = 0x07
STATS = 0x08
FETCH = 0x09
PUBLISH = 0x0A
BYE = 0x0B

#: Human-readable names for logs, errors, and the docs.
FRAME_NAMES = {
    HELLO: "HELLO",
    WELCOME: "WELCOME",
    ERROR: "ERROR",
    REQUEST: "REQUEST",
    RESPONSE: "RESPONSE",
    CHECKPOINT: "CHECKPOINT",
    HEARTBEAT: "HEARTBEAT",
    STATS: "STATS",
    FETCH: "FETCH",
    PUBLISH: "PUBLISH",
    BYE: "BYE",
}


class WireError(ReproError):
    """Base for everything that can go wrong on a serving connection."""


class ProtocolError(WireError):
    """The peer violated the framing/negotiation rules; not retryable."""


class ConnectionDropped(WireError):
    """The peer went away mid-conversation (EOF, reset, injected drop)."""


# -- encoding ------------------------------------------------------------------


def encode_frame(frame_type: int, body: Any) -> bytes:
    """One wire frame: 5-byte header + encoded body."""
    if frame_type not in FRAME_NAMES:
        raise ProtocolError(f"unknown frame type 0x{frame_type:02x}")
    payload = encode(body)
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"{FRAME_NAMES[frame_type]} body is {len(payload)} bytes "
            f"(limit {MAX_FRAME_BYTES})"
        )
    return _HEADER.pack(len(payload), frame_type) + payload


def decode_header(header: bytes) -> Tuple[int, int]:
    """``(body_length, frame_type)`` from a 5-byte header, bounds-checked."""
    length, frame_type = _HEADER.unpack(header)
    if frame_type not in FRAME_NAMES:
        raise ProtocolError(f"unknown frame type 0x{frame_type:02x}")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"{FRAME_NAMES[frame_type]} frame claims {length} bytes "
            f"(limit {MAX_FRAME_BYTES})"
        )
    return length, frame_type


def _decode_body(frame_type: int, payload: bytes) -> Any:
    try:
        return decode(payload)
    except CodecError as error:
        raise ProtocolError(f"undecodable {FRAME_NAMES[frame_type]} body: {error}") from error


# -- the blocking-socket codec ------------------------------------------------


def send_frame(sock: socket.socket, frame_type: int, body: Any) -> None:
    """Write one frame; raises :class:`ConnectionDropped` if the peer is gone."""
    try:
        sock.sendall(encode_frame(frame_type, body))
    except (BrokenPipeError, ConnectionResetError, OSError) as error:
        raise ConnectionDropped(f"peer gone while sending: {error}") from error


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except (ConnectionResetError, OSError) as error:
            raise ConnectionDropped(f"peer gone while receiving: {error}") from error
        if not chunk:
            raise ConnectionDropped(
                f"peer closed with {remaining} of {count} bytes unread"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Tuple[int, Any]:
    """Read one frame as ``(frame_type, body)``; blocks until complete."""
    length, frame_type = decode_header(_recv_exact(sock, _HEADER.size))
    payload = _recv_exact(sock, length) if length else b""
    return frame_type, _decode_body(frame_type, payload)


def hello_rejection(frame_type: int, body: Any, speaker: str) -> Optional[Dict[str, str]]:
    """The ``ERROR`` body refusing a peer's opening frame, or ``None`` to
    welcome it: the first frame must be ``HELLO`` offering
    :data:`WIRE_VERSION`.  ``speaker`` names this side in a version refusal."""
    if frame_type != HELLO:
        return {"code": "protocol", "message": "first frame must be HELLO"}
    version = body.get("version") if isinstance(body, dict) else None
    if version != WIRE_VERSION:
        return {
            "code": "version",
            "message": f"{speaker} speaks wire version {WIRE_VERSION}, peer offered {version!r}",
        }
    return None


def expect_frame(frame: Tuple[int, Any], expected: int) -> Any:
    """The body of ``frame`` if it has type ``expected``; the peer's
    structured ``ERROR`` or any other frame raises :class:`ProtocolError`."""
    frame_type, body = frame
    if frame_type == ERROR:
        raise ProtocolError(f"{body.get('code')}: {body.get('message')}")
    if frame_type != expected:
        raise ProtocolError(
            f"expected {FRAME_NAMES[expected]}, got {FRAME_NAMES.get(frame_type, frame_type)}"
        )
    return body


def unexpected_frame(frame_type: int) -> Dict[str, str]:
    """The ``ERROR`` body for a frame this side does not accept here."""
    return {"code": "protocol", "message": f"unexpected {FRAME_NAMES.get(frame_type, frame_type)}"}


# -- one end of a conversation -------------------------------------------------


class FrameConnection:
    """One end of a framed conversation over a blocking socket.

    Both tiers talk through it: the pool parent holds one per worker socket
    pair, the router one per endpoint, and the member loop
    (:func:`~repro.serve.dispatch.serve_member`) serves one in every pool
    worker and network endpoint.  A work exchange is one ``REQUEST`` frame,
    zero or more ``CHECKPOINT`` frames with body ``(covered, payload)``,
    then one ``RESPONSE`` carrying the reply tuple.

    A read that outlasts the socket's timeout raises
    :class:`ConnectionDropped` like any other lost peer and sets
    :attr:`timed_out`, so the owner can tell a deadline from a drop.
    """

    __slots__ = ("sock", "timed_out")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.timed_out = False

    def send(self, frame_type: int, body: Any) -> None:
        send_frame(self.sock, frame_type, body)

    def read(self) -> Tuple[int, Any]:
        """One ``(frame_type, body)``; records a timed-out read."""
        try:
            return recv_frame(self.sock)
        except ConnectionDropped as error:
            self.timed_out = isinstance(error.__cause__, socket.timeout)
            raise

    def close(self, farewell: bool = False) -> None:
        """Close the socket, saying ``BYE`` first when ``farewell`` is set;
        a peer that is already gone is not an error."""
        if farewell:
            try:
                send_frame(self.sock, BYE, None)
            except ConnectionDropped:
                pass
        self.sock.close()
