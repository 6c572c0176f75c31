"""The one byte codec for everything that leaves a process.

Wire frame bodies, streamed and stored checkpoints and shared-store
artifacts all become bytes here and nowhere else, so the serialization
format is a one-module decision.  The format is ``pickle``: every value that
crosses is a serving-layer object (requests, responses, compiled units,
checkpoints) that pickles as it stands.  A single :func:`encode` call
preserves the object graph's internal sharing, so a checkpoint's snapshot
still restores each compiled root once after the trip.

Both directions fail with :class:`CodecError`, never with a raw ``pickle``,
``EOFError`` or ``AttributeError``: callers choose their own structured
error (a wire ``ProtocolError``, a ``CheckpointCorrupt``) or fallback.
"""

from __future__ import annotations

import pickle
from typing import Any

from repro.core.errors import ReproError

__all__ = ["CodecError", "encode", "decode"]


class CodecError(ReproError):
    """A value would not encode, or bytes would not decode.

    The message is the underlying error's type name and text.
    """


def encode(value: Any) -> bytes:
    """``value`` as bytes; raises :class:`CodecError` if it cannot be encoded."""
    try:
        return pickle.dumps(value)
    except Exception as error:  # pickling raises many unrelated types
        raise CodecError(f"{type(error).__name__}: {error}") from error


def decode(payload: bytes) -> Any:
    """The value ``payload`` encodes; raises :class:`CodecError` on any bad input."""
    try:
        return pickle.loads(payload)
    except Exception as error:  # truncated, tampered or foreign bytes
        raise CodecError(f"{type(error).__name__}: {error}") from error
