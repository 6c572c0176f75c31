"""One check for a :class:`~repro.serve.request.Request`, where it enters.

What is pinned here:

* **every field has a rule** — each ``dataclasses.fields(Request)`` entry
  has wrong values below, so a new field without a rule fails this file;
* **a bad field fails alone** — a request with one field at a wrong type or
  out of range ends in ``"RequestError: <field> …"`` on its own response,
  in-process (batched or not), on a 2-worker ``WorkerPool`` and through a
  ``NetRouter`` with one ``NetWorker``, and the rest of its batch equals the
  sequential baseline; on the fleets it is answered by the dispatcher and
  never placed on a member (``shard is None``);
* **the probes** that once leaked a raw ``TypeError`` string, raised out of
  ``serve``/``run_batch``, or were accepted silently;
* **a foreign checkpoint** whose request is malformed fails alone in
  ``Scheduler.resume``;
* **the placement previews** ``WorkerPool.shard_of`` and
  ``NetRouter.endpoint_for`` raise ``RequestError`` for a malformed request.
"""

from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import RequestError
from repro.serve import (
    NetClient,
    NetRouter,
    NetWorker,
    Request,
    WorkerPool,
    check_request,
    make_default_scheduler,
)
from repro.util.workloads import nested_ml_affi_boundary, nested_refll_boundary

SLICE_STEPS = 16

GOOD = [
    Request(language="RefLL", source=nested_refll_boundary(3), request_id="refs"),
    Request(language="MiniML", system="affine", source=nested_ml_affi_boundary(3), request_id="affine"),
    Request(language="Affi", source="(if (boundary bool 7) 1 2)", request_id="affi"),
]
BASE = Request(language="RefLL", source="1", request_id="bad")

#: Wrong values for every ``Request`` field: wrong types, ``bool`` where an
#: ``int`` belongs, and out-of-range numbers.
WRONG = {
    "language": (5, None, b"RefLL"),
    "source": (5, None, ["1"]),
    "backend": (5, ["cek-compiled"]),
    "fuel": ("x", -1, True, 1.5, None),
    "system": ([1], 5),
    "request_id": (5, ["x"]),
    "affinity": (5, b"key"),
    "deadline_seconds": ("x", 0, -1.0, float("inf"), float("nan"), True),
    "retry_budget": ("x", -1, False, None),
    "analyze_only": ("yes", 1, None),
    "cost_hint": ("x", 1.5, True),
    "priority": ([1], "urgent", 5, None),
}
CASES = [(field.name, value) for field in fields(Request) for value in WRONG.get(field.name, ())]

#: Requests that once ended in a raw ``TypeError`` string, raised out of
#: ``serve`` or ``run_batch``, or were accepted silently.
PROBES = [
    ("fuel", "x"),
    ("priority", [1]),
    ("system", [1]),
    ("deadline_seconds", "x"),
    ("analyze_only", "yes"),
    ("language", 5),
]


def _observable(response):
    result = response.result
    return (
        response.error,
        None if result is None else str(result.value),
        None if result is None else str(result.failure),
        None if result is None else result.steps,
    )


BASELINE = [_observable(r) for r in make_default_scheduler(SLICE_STEPS).serve_sequential(GOOD)]


@pytest.fixture(scope="module")
def tiers():
    scheduler = make_default_scheduler(SLICE_STEPS)
    worker = NetWorker(endpoint_id=0, slice_steps=SLICE_STEPS)
    worker.start()
    router = NetRouter(slice_steps=SLICE_STEPS)
    router.start()
    router.add_worker(worker.address)
    client = NetClient(*router.address)
    pool = WorkerPool(workers=2, slice_steps=SLICE_STEPS)
    try:
        yield {
            "serve": scheduler.serve,
            "serve-batched": lambda batch: scheduler.serve(batch, batched=True),
            "pool": pool.run_batch,
            "router": client.run_batch,
            "shard_of": pool.shard_of,
            "endpoint_for": router.endpoint_for,
        }
    finally:
        pool.close()
        client.close()
        router.stop()
        worker.stop()


def _check_batch(serve, tier, name, value, position):
    batch = list(GOOD)
    batch.insert(position, replace(BASE, **{name: value}))
    responses = serve(batch)
    refused = responses.pop(position)
    assert refused.error is not None and refused.error.startswith(f"RequestError: {name} "), (
        name,
        value,
        refused.error,
    )
    assert refused.result is None
    if tier in ("pool", "router"):
        assert refused.shard is None  # answered by the dispatcher, never placed
    assert [_observable(r) for r in responses] == BASELINE


def test_every_request_field_has_wrong_values():
    assert [field.name for field in fields(Request)] == list(WRONG)
    for name, value in CASES:
        with pytest.raises(RequestError, match=f"^{name} "):
            check_request(replace(BASE, **{name: value}))
    assert check_request(BASE) is BASE


@pytest.mark.parametrize("tier", ["serve", "serve-batched", "pool", "router"])
@settings(max_examples=12, deadline=None)
@given(case=st.sampled_from(CASES), position=st.integers(0, len(GOOD)))
def test_a_wrong_field_fails_alone(tiers, tier, case, position):
    name, value = case
    _check_batch(tiers[tier], tier, name, value, position)


@pytest.mark.parametrize("tier", ["serve", "serve-batched", "pool", "router"])
@pytest.mark.parametrize("name, value", PROBES, ids=[name for name, _value in PROBES])
def test_probe_fails_alone(tiers, tier, name, value):
    _check_batch(tiers[tier], tier, name, value, 1)


#: Requests the placement previews once answered with a raw ``TypeError``,
#: or (``affinity=3``) with the int itself as the ring key.
PREVIEW_PROBES = [("system", [1]), ("language", 5), ("source", None), ("affinity", 3)]


@pytest.mark.parametrize("preview", ["shard_of", "endpoint_for"])
@pytest.mark.parametrize("name, value", PREVIEW_PROBES, ids=[name for name, _value in PREVIEW_PROBES])
def test_placement_preview_refuses_a_wrong_field(tiers, preview, name, value):
    with pytest.raises(RequestError, match=f"^{name} "):
        tiers[preview](replace(BASE, **{name: value}))
    assert isinstance(tiers[preview](BASE), int)


def test_a_foreign_checkpoint_with_a_wrong_field_fails_alone():
    scheduler = make_default_scheduler(SLICE_STEPS)
    deep = Request(language="RefLL", source=nested_refll_boundary(6), request_id="deep")
    (preempted,) = scheduler.serve([deep], max_slices=1)
    good = preempted.checkpoint
    foreign = replace(good, request=replace(good.request, priority=[1]))
    bad, resumed = scheduler.resume([foreign, good])
    assert bad.error.startswith("RequestError: priority ")
    assert resumed.error is None and resumed.ok
    assert resumed.result.steps == scheduler.serve([deep])[0].result.steps
