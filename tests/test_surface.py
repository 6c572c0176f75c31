"""The serving tier's operator surface, pinned.

Every serving option and stats field has to earn its place, so adding one
must be a deliberate diff to this file:

* **knobs** — the parameter lists of ``WorkerPool``, ``NetRouter``,
  ``Scheduler`` and ``make_default_scheduler`` (and of the front ends'
  ``run_batch``), read from the source's AST;
* **stats keys** — the sections and keys of ``stats()`` on a pool and on a
  router, which are one shape (the router adds only its socket
  ``timeouts`` counter), and of the flat ``cache_stats()`` view of it.
"""

import ast
from pathlib import Path

from repro.serve import NetRouter, NetWorker, WorkerPool

SERVE = Path(__file__).resolve().parent.parent / "src" / "repro" / "serve"

#: ``(module, class or None, function)`` → its parameters, ``self`` excluded.
KNOBS = {
    ("pool.py", "WorkerPool", "__init__"): (
        "workers",
        "slice_steps",
        "scheduler_factory",
        "breaker_policy",
        "max_batch",
        "fault_plan",
        "clock",
        "sleeper",
        "top_k",
        "balance_load",
    ),
    ("pool.py", "WorkerPool", "run_batch"): ("requests",),
    ("net.py", "NetRouter", "__init__"): ("slice_steps", "host", "port", "dispatch"),
    ("net.py", "NetRouter", "run_batch"): ("requests",),
    ("scheduler.py", "Scheduler", "__init__"): ("systems", "driver"),
    ("scheduler.py", None, "make_default_scheduler"): ("slice_steps", "driver"),
}

SECTIONS = {"members", "ring", "store", "counters", "admission"}
MEMBER_KEYS = {"breaker", "address", "connected", "queue_depth", "inflight", "dispatches", "served"}
BREAKER_KEYS = {"state", "failures", "successes", "window_failures", "transitions"}
RING_KEYS = {"virtual_nodes", "members"}
STORE_KEYS = {"entries", "hits", "cross_worker_hits", "misses", "publishes", "unpicklable"}
COUNTER_KEYS = {
    "crashes",
    "served_locally",
    "migrations",
    "retries",
    "redispatches",
    "reroutes",
    "diverted",
}
ADMISSION_KEYS = {"max_batch", "shed"}


def _parameters(module, owner, name):
    """The parameter names of a module-level function or a class's method."""
    tree = ast.parse((SERVE / module).read_text(encoding="utf-8"), filename=module)
    scope = tree.body
    if owner is not None:
        (cls,) = [node for node in scope if isinstance(node, ast.ClassDef) and node.name == owner]
        scope = cls.body
    (function,) = [node for node in scope if isinstance(node, ast.FunctionDef) and node.name == name]
    args = function.args
    names = [arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs]
    names += [f"*{arg.arg}" for arg in (args.vararg,) if arg is not None]
    names += [f"**{arg.arg}" for arg in (args.kwarg,) if arg is not None]
    return tuple(name for name in names if name != "self")


def test_serving_entry_points_take_the_pinned_parameters():
    assert {where: _parameters(*where) for where in KNOBS} == KNOBS


def _keys(snapshot):
    """Every section's key set, plus each member's and each breaker's."""
    shape = {section: set(value) for section, value in snapshot.items()}
    shape["member"] = {frozenset(info) for info in snapshot["members"].values()}
    shape["breaker"] = {frozenset(info["breaker"]) for info in snapshot["members"].values()}
    return shape


def test_stats_sections_and_keys_are_pinned():
    pool = WorkerPool(workers=2, slice_steps=64)  # workers spawn on a first batch: none here
    try:
        local, local_flat = _keys(pool.stats()), set(pool.cache_stats())
    finally:
        pool.close()
    worker = NetWorker(endpoint_id=0, slice_steps=64)
    worker.start()
    router = NetRouter(slice_steps=64)
    try:
        router.add_worker(worker.address)
        net, net_flat = _keys(router.stats()), set(router.cache_stats())
    finally:
        router.stop()
        worker.stop()

    expected = {
        "members": {0, 1},
        "ring": RING_KEYS,
        "store": STORE_KEYS,
        "counters": COUNTER_KEYS,
        "admission": ADMISSION_KEYS,
        "member": {frozenset(MEMBER_KEYS)},
        "breaker": {frozenset(BREAKER_KEYS)},
    }
    assert set(local) - {"member", "breaker"} == SECTIONS
    assert local == expected
    assert net == {**expected, "members": {0}, "counters": COUNTER_KEYS | {"timeouts"}}
    assert local_flat == STORE_KEYS | COUNTER_KEYS | {"shed"}
    assert net_flat == local_flat | {"timeouts"}
