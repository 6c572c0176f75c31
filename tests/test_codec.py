"""The one byte codec (:mod:`repro.core.codec`).

What is pinned here:

* **one module** — no module under ``src/repro`` but the codec imports
  ``pickle`` or calls into it, so the format is a one-module decision;
* **structured failure** — bytes that will not decode and values that will
  not encode raise :class:`~repro.core.codec.CodecError`, and each caller
  turns it into its own structured error (``ProtocolError`` on the wire,
  ``CheckpointCorrupt`` in the checkpoint store);
* **sharing** — a round trip keeps a subtree reachable twice as one object,
  so an encoded checkpoint's snapshot still compiles each root once.
"""

import ast
import os
import threading
from pathlib import Path

import pytest

from repro.core.codec import CodecError, decode, encode
from repro.core.errors import ReproError
from repro.serve import Checkpoint, CheckpointCorrupt, CheckpointStore, Request
from repro.serve.wire import REQUEST, ProtocolError, _decode_body

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"
CODEC = PACKAGE / "core" / "codec.py"
PICKLE_MODULES = {"pickle", "_pickle", "cPickle"}


def _pickle_uses(path):
    """``(line, text)`` for every import of, or attribute use on, a pickle module."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [(node.module or "").split(".")[0]]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [node.value.id]
        else:
            continue
        if PICKLE_MODULES.intersection(names):
            uses.append((node.lineno, ast.unparse(node)))
    return uses


def test_only_the_codec_module_touches_pickle():
    offenders = {
        str(path.relative_to(PACKAGE)): uses
        for path in sorted(PACKAGE.rglob("*.py"))
        if path != CODEC
        for uses in [_pickle_uses(path)]
        if uses
    }
    assert offenders == {}
    assert _pickle_uses(CODEC), "the scan must see the codec's own pickle calls"


def test_round_trip_keeps_shared_subtrees_shared():
    shared = [1, [2, 3]]
    copy = decode(encode({"left": shared, "right": shared}))
    assert copy == {"left": shared, "right": shared}
    assert copy["left"] is copy["right"]
    assert copy["left"] is not shared


@pytest.mark.parametrize(
    "payload",
    [b"", b"not a pickle at all", encode({"cut": list(range(50))})[:20]],
    ids=["empty", "junk", "truncated"],
)
def test_undecodable_bytes_raise_a_codec_error(payload):
    with pytest.raises(CodecError) as caught:
        decode(payload)
    assert isinstance(caught.value, ReproError)
    assert caught.value.__cause__ is not None
    assert type(caught.value.__cause__).__name__ in str(caught.value)


def test_unencodable_values_raise_a_codec_error():
    with pytest.raises(CodecError):
        encode(threading.Lock())
    with pytest.raises(CodecError):
        encode(lambda: None)


def test_wire_reports_an_undecodable_body_as_a_protocol_error():
    with pytest.raises(ProtocolError, match="undecodable REQUEST body") as caught:
        _decode_body(REQUEST, b"not a pickle at all")
    assert isinstance(caught.value.__cause__, CodecError)


def test_checkpoint_store_wraps_a_codec_error_in_checkpoint_corrupt(tmp_path):
    store = CheckpointStore(str(tmp_path))
    path = store.save(
        Checkpoint(
            request=Request(language="RefLL", source="1", request_id="torn"),
            system="refs",
            backend="substitution",
            snapshot={"version": 1},
        )
    )
    with open(path, "rb") as handle:
        payload = handle.read()
    with open(path, "wb") as handle:
        handle.write(payload[: len(payload) // 2])
    with pytest.raises(CheckpointCorrupt) as caught:
        store.load(path)
    assert isinstance(caught.value.__cause__, CodecError)
    assert caught.value.reason == str(caught.value.__cause__)
    assert os.path.exists(path)  # reporting never deletes
