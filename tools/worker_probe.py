#!/usr/bin/env python
"""Per-batch CPU and cycle-collector cost inside ``pool-mix``'s pool workers.

Usage (Linux: it reads ``/proc/<pid>/stat``)::

    python tools/worker_probe.py --seed 1 --batches 400
    PYTHONPATH=/path/to/other/checkout/src python tools/worker_probe.py --seed 1

``perfbench`` traces only its own process, so it cannot say where a pool
worker spends its time.  This probe serves ``pool-mix``'s batch stream (the
same seeded batches, pool shape and warm-up) through a ``WorkerPool``
whose workers record every collection with ``gc.callbacks``.  After the
warm-up it reports, per worker, the CPU time (``utime + stime``) per batch
and the collections (per generation), their total and longest pause over
the timed batches.  Each worker reads its GC record back through a probe
backend, so the pool under test is otherwise the stock one.

The ``repro`` package comes from ``PYTHONPATH`` when set, else from this
checkout's ``src``; pointing it at another checkout measures that one.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.environ.get("PYTHONPATH"):
    sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import gen  # noqa: E402  (perfbench's seeded program stream)

from repro.core.interop import RunResult  # noqa: E402
from repro.core.language import Engine  # noqa: E402
from repro.serve import Request, WorkerPool, make_default_scheduler  # noqa: E402

#: ``pool-mix``'s pool shape and warm-up (``perfbench/workloads.py``).
WORKERS = 2
SLICE_STEPS = 512
WARMUP = 2 * gen.RECENT_WINDOW

#: This worker's collections since its last report: counts per generation,
#: total and longest pause.
_RECORD: dict = {}
_started = [0.0]


def _reset() -> None:
    _RECORD.update(collections=[0, 0, 0], pause_s=0.0, max_pause_s=0.0)


def _on_gc(phase: str, info: dict) -> None:
    if phase == "start":
        _started[0] = time.perf_counter()
        return
    pause = time.perf_counter() - _started[0]
    _RECORD["collections"][info["generation"]] += 1
    _RECORD["pause_s"] += pause
    _RECORD["max_pause_s"] = max(_RECORD["max_pause_s"], pause)


class _Report:
    """An execution whose one slice returns this worker's GC record and
    starts a new one."""

    def step_n(self, limit):
        report = json.dumps({"pid": os.getpid(), **_RECORD})
        _reset()
        return RunResult(value=report)


def _never_restores(snapshot):
    raise RuntimeError("the probe backend never pauses")


def probed_factory(slice_steps: int):
    """The stock scheduler, with the GC recorder and a 'gc-report' backend."""
    _reset()
    gc.callbacks.append(_on_gc)
    scheduler = make_default_scheduler(slice_steps=slice_steps)
    scheduler.systems["refs"].target.engines["gc-report"] = Engine(
        start=lambda unit, fuel: _Report(), restore=_never_restores
    )
    return scheduler


def cpu_seconds(pid: int) -> float:
    """``utime + stime`` of process ``pid``, in seconds."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def gc_reports(pool: WorkerPool) -> dict:
    """Each worker's GC record since the last call, by pid.  A worker's
    later reports in one call cover only the probes themselves."""
    reports: dict = {}
    for attempt in itertools.count():
        probe = Request(language="RefLL", source="0", backend="gc-report", affinity=f"gc-{attempt}")
        record = json.loads(pool.run_batch([probe])[0].result.value)
        reports.setdefault(record.pop("pid"), record)
        if len(reports) == WORKERS:
            return reports


def serve(pool: WorkerPool, batches, first_call: int) -> None:
    for call, batch in enumerate(batches, first_call):
        requests = [
            Request(language=p.language, system=p.system, source=p.source, fuel=gen.FUEL, request_id=f"{call}.{i}")
            for i, p in enumerate(batch)
        ]
        for response in pool.run_batch(requests):
            if response.error is not None:
                raise RuntimeError(f"request {response.request.request_id} failed: {response.error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--batches", type=int, default=400)
    args = parser.parse_args(argv)
    stream = gen.batch_stream(args.seed)
    with WorkerPool(
        workers=WORKERS, slice_steps=SLICE_STEPS, top_k=2, balance_load=True, scheduler_factory=probed_factory
    ) as pool:
        serve(pool, itertools.islice(stream, WARMUP), -WARMUP)
        pids = sorted(gc_reports(pool))
        cpu_before = [cpu_seconds(pid) for pid in pids]
        serve(pool, itertools.islice(stream, args.batches), 0)
        cpu_after = [cpu_seconds(pid) for pid in pids]
        reports = gc_reports(pool)
    print(f"seed {args.seed}: {args.batches} batches after {WARMUP} warm-up batches")
    for number, pid in enumerate(pids):
        cpu = cpu_after[number] - cpu_before[number]
        report = reports[pid]
        counts = report["collections"]
        print(
            f"worker {number}: cpu {1e3 * cpu / args.batches:.2f} ms/batch, "
            f"collections gen0/1/2 {counts[0]}/{counts[1]}/{counts[2]}, "
            f"gc {1e3 * report['pause_s']:.1f} ms ({report['pause_s'] / cpu if cpu else 0.0:.1%} of its cpu), "
            f"longest pause {1e3 * report['max_pause_s']:.1f} ms"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
