"""Durable checkpoints: pause a run, kill the process, resume the bytes.

A first process serves a batch under a preemption ceiling, persists the
stopped requests' machine-state snapshots through a
:class:`~repro.serve.checkpoint.CheckpointStore`, and then dies without any
cleanup (``os._exit``) — nothing survives it but the ``.ckpt`` files.  A
*second* process (this one), with brand-new systems and empty compilation
caches, loads those files, rebuilds the paused machines (recompiling the
machine-level artifacts deterministically), drives them to completion, and
checks the results are identical — value, failure, and total step count —
to runs that were never interrupted at all.

Run with:  PYTHONPATH=src python examples/checkpoint.py
"""

import multiprocessing
import os
import tempfile

from repro.serve import CheckpointStore, Request, make_default_scheduler
from repro.util.workloads import nested_ml_l3_boundary, nested_refll_boundary

#: Small slices and a low ceiling so the deep requests are stopped mid-run.
SLICE_STEPS = 8
MAX_SLICES = 2


def make_requests():
    return [
        Request(language="RefLL", source=nested_refll_boundary(8), request_id="refs-deep"),
        Request(
            language="MiniML",
            system="l3",
            source=nested_ml_l3_boundary(4),
            backend="substitution",
            request_id="l3-oracle",
        ),
    ]


def run_and_die(directory: str) -> None:
    """Phase 1 (child process): preempt mid-run, persist, die uncleanly."""
    scheduler = make_default_scheduler(slice_steps=SLICE_STEPS)
    store = CheckpointStore(directory)
    responses = scheduler.serve(make_requests(), max_slices=MAX_SLICES)
    for response in responses:
        if not response.preempted:
            continue
        path = store.save(response.checkpoint)
        print(
            f"  [pid {os.getpid()}] {response.request.request_id}: preempted after "
            f"{response.checkpoint.slices} slices -> {os.path.basename(path)} "
            f"({os.path.getsize(path)} bytes)"
        )
    # Die the hard way: no atexit hooks, no teardown.  The paused machines
    # now exist only as plain data on disk.
    os._exit(0)


def main() -> None:
    with tempfile.TemporaryDirectory() as directory:
        print("== phase 1: serve under a preemption ceiling, persist, crash ==")
        context = multiprocessing.get_context("spawn")
        worker = context.Process(target=run_and_die, args=(directory,))
        worker.start()
        worker.join()
        print(f"  first process is gone (exit code {worker.exitcode}); its memory with it")

        print()
        print("== phase 2: a fresh process resumes from the bytes alone ==")
        scheduler = make_default_scheduler(slice_steps=SLICE_STEPS)  # brand-new systems
        checkpoints = CheckpointStore(directory).load_all()
        assert checkpoints, "phase 1 preempted nothing - raise the workload depth"
        resumed = scheduler.resume(checkpoints)
        for checkpoint, response in zip(checkpoints, resumed):
            print(
                f"  [pid {os.getpid()}] {response.request.request_id}: resumed after "
                f"{checkpoint.slices} earlier slices => {response.result}"
            )

        print()
        print("== differential: identical to never having stopped ==")
        baseline = scheduler.serve_sequential([checkpoint.request for checkpoint in checkpoints])
        for base, response in zip(baseline, resumed):
            assert response.error is None, response.error
            assert str(response.result) == str(base.result)
            assert response.result.steps == base.result.steps
            print(
                f"  {response.request.request_id}: uninterrupted == resumed "
                f"({response.result.steps} steps)"
            )


if __name__ == "__main__":
    main()
