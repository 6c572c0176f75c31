"""A localhost cluster: one router, two worker processes, one mid-run kill.

This example stands up the whole network serving tier on one machine:

1. two :class:`~repro.serve.net.NetWorker` endpoints, each its own spawned
   OS *process* listening on a loopback TCP port (ports picked by the OS and
   reported back over a pipe);
2. a :class:`~repro.serve.net.NetRouter` that registers both, places a
   mixed batch over its consistent-hash ring, and serves it — gated
   identical to its own in-process sequential baseline;
3. a chaos round: one worker carries an injected ``net.drop`` fault that
   severs its connection at a slice boundary mid-batch, *after* streaming
   that boundary's checkpoint frame.  The router sees the drop, records it
   on the endpoint's circuit breaker, and finishes the dead endpoint's
   requests on the survivor by **checkpoint migration** — same results as
   the undisturbed baseline, ``migrated_from`` naming the casualty.

Run with:  PYTHONPATH=src python examples/cluster.py
"""

import multiprocessing

from repro.serve import (
    DispatchPolicy,
    Fault,
    FaultPlan,
    HashRing,
    NetRouter,
    NetWorker,
    Request,
    make_default_scheduler,
)
from repro.util.workloads import nested_ml_affi_boundary, nested_refll_boundary

#: Small slices so the deep requests stream several checkpoints — the
#: injected drop lands mid-run, not after the work is already done.
SLICE_STEPS = 16


def make_requests():
    return [
        Request(language="RefLL", source=nested_refll_boundary(6), request_id="refs-deep"),
        Request(language="RefLL", source=nested_refll_boundary(3), request_id="refs-shallow"),
        Request(
            language="MiniML",
            system="affine",
            source=nested_ml_affi_boundary(5),
            request_id="affine-deep",
        ),
        Request(language="Affi", source="(if (boundary bool 7) 1 2)", request_id="affi-small"),
    ]


def worker_main(endpoint_id: int, port_pipe, fault_plan) -> None:
    """A worker process: bind an OS-picked port, report it, serve forever."""
    worker = NetWorker(endpoint_id=endpoint_id, slice_steps=SLICE_STEPS, fault_plan=fault_plan)
    worker._listen()
    port_pipe.send(worker.address)
    port_pipe.close()
    worker._accept_loop()


def spawn_worker(context, endpoint_id: int, fault_plan=None):
    """Start one worker process; returns ``(process, (host, port))``."""
    parent_end, child_end = context.Pipe()
    process = context.Process(
        target=worker_main, args=(endpoint_id, child_end, fault_plan), daemon=True
    )
    process.start()
    child_end.close()
    address = parent_end.recv()
    parent_end.close()
    return process, address


def check_differential(tag, baseline, served) -> None:
    for expected, actual in zip(baseline, served):
        same = (
            (expected.error is None) == (actual.error is None)
            and str(expected.result) == str(actual.result)
        )
        assert same, f"{tag}: {actual.request.request_id} diverged from the baseline"
    print(f"  {tag}: all {len(served)} responses match the sequential baseline")


def main() -> None:
    context = multiprocessing.get_context("spawn")
    requests = make_requests()

    print("== phase 1: two worker processes, one router, one mixed batch ==")
    # The victim is wherever the ring places refs-deep — the same sha256
    # math the router uses, computable before any process exists.  Its
    # fault plan stays dormant through phase 1 (it only matches refs-deep)
    # and severs the connection at that request's second slice boundary.
    scheduler = make_default_scheduler(slice_steps=SLICE_STEPS)
    victim = HashRing(range(2)).node_for(scheduler.placement_key(requests[0]))
    plan = FaultPlan(
        [Fault(site="net.drop", request_id="refs-deep", at_slice=2, times=1, shard=victim)]
    )
    processes = []
    workers = []
    for endpoint_id in range(2):
        process, address = spawn_worker(
            context, endpoint_id, plan if endpoint_id == victim else None
        )
        processes.append(process)
        workers.append(address)
        print(f"  worker {endpoint_id} (pid {process.pid}) listening on {address[0]}:{address[1]}")
    print(f"  worker {victim} carries the scheduled net.drop fault")

    # Pure ring placement (no load balancing) keeps refs-deep on the victim.
    router = NetRouter(
        slice_steps=SLICE_STEPS, dispatch=DispatchPolicy(top_k=1, balance_load=False)
    )
    router.start()
    try:
        for address in workers:
            router.add_worker(address)
        baseline = router.run_sequential(requests)

        # Phase 1 serves a batch that never touches refs-deep, proving the
        # fleet healthy before the chaos round.
        calm = [request for request in requests if request.request_id != "refs-deep"]
        served = router.run_batch(calm)
        check_differential("calm batch", [
            response
            for request, response in zip(requests, baseline)
            if request.request_id != "refs-deep"
        ], served)
        for response in served:
            print(
                f"    {response.request.request_id}: endpoint {response.shard} "
                f"=> {response.result}"
            )

        print()
        print("== phase 2: kill one worker mid-run, watch the batch migrate ==")
        served = router.run_batch(requests)
        check_differential("chaos batch", baseline, served)
        migrated = [r for r in served if r.migrated_from is not None]
        assert migrated, "the injected drop should have forced a migration"
        for response in migrated:
            print(
                f"    {response.request.request_id}: endpoint {response.migrated_from} "
                f"dropped mid-run -> finished on endpoint {response.shard} from its "
                f"streamed checkpoint (attempt {response.attempts})"
            )
        counters = router.stats()["counters"]
        print(
            f"  router counters: {counters['crashes']} crash(es), "
            f"{counters['migrations']} migration(s), "
            f"{counters['redispatches']} redispatch(es)"
        )
        assert counters["crashes"] >= 1 and counters["migrations"] >= 1
    finally:
        router.stop()
        for process in processes:
            process.terminate()
            process.join(timeout=10)
    print()
    print("cluster example OK: placed, served, dropped, migrated — results identical")


if __name__ == "__main__":
    main()
