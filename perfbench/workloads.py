"""The four benchmark workloads: how each is set up, called, checked and traced.

Every workload is a closed loop with one client: the next call is issued
only after the previous one returned.  A *call* is one request in
``cold-mix`` and one batch in the other three.  The inputs of every call
come from :mod:`gen`, fixed by the seed; the program under test receives
only those generated requests.

``setup`` covers everything before the first timed call -- constructing the
scheduler, pool or router, spawning worker processes and warming caches --
and ``teardown`` stops every process ``setup`` started and waits for it.
"""

from __future__ import annotations

import itertools
import multiprocessing
from typing import Any, Callable, Dict, List, Optional, Sequence

import gen
from spans import Tracer

from repro.lcvm import cek as lcvm_cek
from repro.serve import NetRouter, NetWorker, Request, Response, WorkerPool, make_default_scheduler
from repro.serve import wire
from repro.stacklang import cek as stacklang_cek

SLICE_STEPS = 512
WORKERS = 2

#: ``cold-mix`` fills the caches with this many programs per system before
#: timing: every frontend LRU holds 256 entries and each machine code memo
#: 512.  The StackLang memo is fed by refs alone, the LCVM memo by affine
#: and l3 together; each quota has some margin past capacity.
COLD_FILL = {"refs": 512 + 48, "affine": 256 + 24, "l3": 256 + 24}

#: Warm-up batches before the first timed batch of ``pool-mix`` / ``net-mix``:
#: enough to compile and publish the hot set and fill the recent window.
BATCH_WARMUP = 2 * gen.RECENT_WINDOW

#: Warm-up batches before the first timed ``warm-loop`` batch.
WARM_WARMUP = 10


def request_for(program: gen.Program, call: int, position: int) -> Request:
    return Request(
        language=program.language,
        system=program.system,
        source=program.source,
        fuel=gen.FUEL,
        request_id=f"{call}.{position}",
    )


def integer_of(value: Any) -> Optional[int]:
    """The Python integer an LCVM ``Int`` or StackLang ``Num`` value holds."""
    for attribute in ("value", "number"):
        number = getattr(value, attribute, None)
        if isinstance(number, int) and not isinstance(number, bool):
            return number
    return None


def is_correct(program: gen.Program, response: Response) -> bool:
    """The response ran to a value equal to the generator's reference."""
    result = response.result
    if response.error is not None or result is None or getattr(result, "failure", None) is not None:
        return False
    return integer_of(result.value) == program.expected


def frontend_counters(systems: Dict[str, Any]) -> Dict[str, int]:
    """Pipeline LRU counters summed over every frontend, and how many of
    the frontends in use are at capacity."""
    totals = {"hits": 0, "misses": 0, "evictions": 0, "full": 0, "used": 0}
    frontends = [frontend for system in systems.values() for frontend in (system.language_a, system.language_b)]
    for frontend in frontends:
        stats = frontend.cache_stats()
        for key in ("hits", "misses", "evictions"):
            totals[key] += stats[key]
        if stats["hits"] or stats["misses"]:
            totals["used"] += 1
            totals["full"] += stats["entries"] >= stats["capacity"]
    return totals


def memo_counters() -> Dict[str, int]:
    """Hits, misses and fullness of both machines' compiled-code memos."""
    totals = {"hits": 0, "misses": 0, "full": 0}
    for stats in (lcvm_cek.compiled_cache_stats(), stacklang_cek.compiled_cache_stats()):
        totals["hits"] += stats["hits"]
        totals["misses"] += stats["misses"]
        totals["full"] += stats["entries"] >= stats["capacity"]
    return totals


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Workload:
    """One named workload.  Subclasses fill in the serving object and calls."""

    name = ""
    #: Calls per second the reference machine completes; with ``--seconds``
    #: it fixes the number of timed calls, so the length of a run is a
    #: request count, not a duration.
    rate = 1.0
    #: Set-up is repeated this many times per run; ``setup_s`` is the median.
    #: The first set-up of a run is the slowest (lazy imports, the first
    #: process spawn), and five keep it away from the median.
    setup_repeats = 5
    #: Whether set-up runs mostly in spawned worker processes, whose speed
    #: the probes in this process, taken between warm-up calls, do not track.
    setup_in_workers = False

    def calls(self, count: int) -> List[List[gen.Program]]:
        """The ``count`` timed calls, each a list of programs."""
        raise NotImplementedError

    def setup(self, between: Callable[[], None]) -> Any:
        """Build and warm the serving object; ``between`` runs between warm-up calls."""
        raise NotImplementedError

    def call(self, server: Any, requests: List[Request]) -> List[Response]:
        raise NotImplementedError

    def teardown(self, server: Any) -> None:
        pass

    # -- tracing ------------------------------------------------------------

    def install(self, tracer: Tracer, server: Any) -> None:
        raise NotImplementedError

    def snapshot(self, server: Any) -> Dict[str, Any]:
        """Counters read before and after the traced phase."""
        raise NotImplementedError

    def layers(self, tracer: Tracer, before, after, calls, responses) -> Dict[str, float]:
        """Per-layer metrics from the spans of the traced ``calls`` (which
        returned ``responses``) and the counters around the whole run."""
        raise NotImplementedError


# -- in-process workloads --------------------------------------------------------


class _InProcess(Workload):
    """Shared set-up and per-layer metrics of the in-process ``Scheduler`` runs."""

    def call(self, server, requests):
        return server.serve(requests)

    def install(self, tracer, server):
        tracer.trace_frontends(server.systems)
        tracer.trace_machines(server.systems)
        tracer.patch(server, "serve", "scheduler.serve")

    def snapshot(self, server):
        return {"frontend": frontend_counters(server.systems), "memo": memo_counters()}

    def layers(self, tracer, before, after, calls, responses):
        requests = len(responses)
        frontend = {key: after["frontend"][key] - before["frontend"][key] for key in ("hits", "misses", "evictions")}
        memo = {key: after["memo"][key] - before["memo"][key] for key in ("hits", "misses")}
        # Collections land in whichever span allocated last; shares are of
        # request time net of them, and gc.* reports them on their own.
        serving = sum(span.seconds for span in tracer.named("scheduler.serve"))
        serving -= sum(span.seconds for span in tracer.named("gc.") if tracer.within(span, "scheduler.serve"))
        phases = {phase: tracer.self_seconds(f"frontend.{phase}") for phase in ("parse", "typecheck", "compile", "analyze")}
        steps = tracer.named("machine.step")
        step_seconds = tracer.self_seconds("machine.step")
        metrics = {f"frontend.{phase}_ms": 1000 * seconds / requests for phase, seconds in phases.items()}
        metrics["frontend.cache_hit_ratio"] = _ratio(frontend["hits"], frontend["hits"] + frontend["misses"])
        metrics["frontend.evictions_per_req"] = _ratio(frontend["evictions"], frontend["hits"] + frontend["misses"])
        metrics["frontend.share"] = _ratio(sum(phases.values()), serving)
        metrics["machine.start_ms"] = 1000 * tracer.self_seconds("machine.start") / requests
        metrics["machine.memo_hit_ratio"] = _ratio(memo["hits"], memo["hits"] + memo["misses"])
        metrics["machine.step_ms"] = 1000 * step_seconds / requests
        metrics["machine.step_share"] = _ratio(step_seconds, serving)
        metrics["machine.steps_per_req"] = sum(span.counted("steps") for span in steps) / requests
        for system in gen.SYSTEMS:
            mine = [span for span in steps if span.counted(system)]
            metrics[f"machine.us_per_step.{system}"] = 1e6 * _ratio(
                sum(span.self_seconds for span in mine), sum(span.counted("steps") for span in mine)
            )
        metrics["scheduler.self_ms"] = 1000 * tracer.self_seconds("scheduler.serve") / requests
        metrics["driver.slices_per_req"] = sum(response.slices for response in responses) / requests
        return metrics


class ColdMix(_InProcess):
    """One never-seen program per call, after every cache is at capacity."""

    name = "cold-mix"
    rate = 190.0
    #: Filling every cache takes about 4 s, so fewer repeats keep a run short.
    setup_repeats = 3

    def __init__(self, seed):
        self._stream = gen.cold_stream(seed)
        # The fill takes the stream's programs until every system's quota
        # is met and drops the rest, so the timed calls keep the round-robin.
        self.fill: List[gen.Program] = []
        wanted = dict(COLD_FILL)
        while any(wanted.values()):
            program = next(self._stream)
            if wanted[program.system]:
                wanted[program.system] -= 1
                self.fill.append(program)

    def calls(self, count):
        return [[program] for program in itertools.islice(self._stream, count)]

    def setup(self, between):
        scheduler = make_default_scheduler(slice_steps=SLICE_STEPS)
        for index, program in enumerate(self.fill):
            between()
            response = scheduler.serve([request_for(program, -1, index)])[0]
            if not is_correct(program, response):
                raise RuntimeError(f"cold-mix warm-up program {index} failed: {response.error or response.result}")
        return scheduler


class WarmLoop(_InProcess):
    """Interleaved batches of cache-resident programs that iterate a crossing."""

    name = "warm-loop"
    rate = 14.0

    def __init__(self, seed):
        self.programs = gen.warm_programs(seed)
        self._batches = gen.warm_batches(seed, self.programs)
        self.warmup = list(itertools.islice(self._batches, WARM_WARMUP))

    def calls(self, count):
        return list(itertools.islice(self._batches, count))

    def setup(self, between):
        scheduler = make_default_scheduler(slice_steps=SLICE_STEPS)
        for call, batch in enumerate(self.warmup):
            between()
            requests = [request_for(program, -1 - call, index) for index, program in enumerate(batch)]
            for program, response in zip(batch, scheduler.serve(requests)):
                if not is_correct(program, response):
                    raise RuntimeError(f"warm-loop warm-up failed: {response.error or response.result}")
        return scheduler


# -- multi-process workloads -------------------------------------------------


class _Batches(Workload):
    """Shared input stream of ``pool-mix`` and ``net-mix``."""

    rate = 40.0
    setup_in_workers = True

    def __init__(self, seed):
        self._batches = gen.batch_stream(seed)
        self.warmup = list(itertools.islice(self._batches, BATCH_WARMUP))

    def calls(self, count):
        return list(itertools.islice(self._batches, count))

    def _warm(self, server, between):
        for call, batch in enumerate(self.warmup):
            between()
            requests = [request_for(program, -1 - call, index) for index, program in enumerate(batch)]
            for program, response in zip(batch, self.call(server, requests)):
                if not is_correct(program, response):
                    raise RuntimeError(f"{self.name} warm-up failed: {response.error or response.result}")

    @staticmethod
    def _imbalance(responses: Sequence[Response]) -> float:
        """Busiest shard's request count over the mean count (1.0 is even)."""
        counts: Dict[int, int] = {}
        for response in responses:
            counts[response.shard] = counts.get(response.shard, 0) + 1
        loads = [counts.get(shard, 0) for shard in range(WORKERS)]
        return max(loads) * len(loads) / sum(loads)

    @staticmethod
    def _coalesced_share(responses: Sequence[Response]) -> float:
        return _ratio(sum(response.coalesced > 1 for response in responses), len(responses))


class PoolMix(_Batches):
    """Mixed batches of eight through ``WorkerPool.run_batch`` on 2 workers."""

    name = "pool-mix"

    def setup(self, between):
        # Load-aware placement over the top two ring candidates, the network
        # router's default, so a repeated program can land on the worker
        # that did not compile it and import it from the shared store.
        pool = WorkerPool(workers=WORKERS, slice_steps=SLICE_STEPS, top_k=2, balance_load=True)
        try:
            self._warm(pool, between)
        except BaseException:
            pool.close()
            raise
        return pool

    def call(self, server, requests):
        return server.run_batch(requests)

    def teardown(self, server):
        server.close()

    def install(self, tracer, server):
        tracer.patch(server, "run_batch", "pool.run_batch")

    def snapshot(self, server):
        return dict(server.cache_stats())

    def layers(self, tracer, before, after, calls, responses):
        delta = {key: after[key] - before[key] for key in after}
        return {
            "pool.coalesced_share": self._coalesced_share(responses),
            "pool.store_hit_ratio": _ratio(delta["hits"], delta["hits"] + delta["misses"]),
            "pool.shard_imbalance": self._imbalance(responses),
            "pool.retries": float(delta["retries"] + delta["migrations"]),
        }


def _net_worker_main(endpoint_id: int, slice_steps: int, ready, stop) -> None:
    """A spawned endpoint process: serve on loopback until ``stop`` is set."""
    worker = NetWorker(endpoint_id=endpoint_id, slice_steps=slice_steps)
    worker.start()
    ready.send(worker.address)
    ready.close()
    stop.wait()
    worker.stop()


class _Fleet:
    """A router in this process fronting spawned endpoint processes."""

    def __init__(self) -> None:
        context = multiprocessing.get_context("spawn")
        self.stop = context.Event()
        self.processes = []
        self.router: Optional[NetRouter] = None
        try:
            addresses = []
            for endpoint_id in range(WORKERS):
                parent_end, child_end = context.Pipe(duplex=False)
                process = context.Process(
                    target=_net_worker_main,
                    args=(endpoint_id, SLICE_STEPS, child_end, self.stop),
                    daemon=True,
                )
                process.start()
                child_end.close()
                self.processes.append(process)
                if not parent_end.poll(60):
                    raise RuntimeError(f"endpoint {endpoint_id} did not start")
                addresses.append(parent_end.recv())
                parent_end.close()
            self.router = NetRouter(slice_steps=SLICE_STEPS)
            self.router.start()
            for address in addresses:
                self.router.add_worker(address)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self.router is not None:
            self.router.stop()
            self.router = None
        if self.stop is None:
            return
        self.stop.set()
        for process in self.processes:
            process.join(timeout=10)
            if process.is_alive():
                process.terminate()
                process.join(timeout=10)
        self.processes = []
        # Dropping the event frees its semaphores now, while the resource
        # tracker that unlinks them still runs.
        self.stop = None


class NetMix(_Batches):
    """The ``pool-mix`` stream through a ``NetRouter`` to 2 spawned endpoints."""

    name = "net-mix"

    def setup(self, between):
        fleet = _Fleet()
        try:
            self._warm(fleet, between)
        except BaseException:
            fleet.close()
            raise
        return fleet

    def call(self, server, requests):
        return server.router.run_batch(requests)

    def teardown(self, server):
        server.close()

    def install(self, tracer, server):
        tracer.patch(server.router, "run_batch", "net.run_batch")
        tracer.trace_wire(wire)

    def snapshot(self, server):
        stats = server.router.stats()
        return {**stats["store"], **stats["counters"]}

    def layers(self, tracer, before, after, calls, responses):
        batches = len(calls)
        frames = tracer.named("wire.")
        delta = {key: after[key] - before[key] for key in after if isinstance(after[key], (int, float))}
        return {
            "net.frames_per_batch": len(frames) / batches,
            "net.frame_kb_per_batch": sum(span.counted("bytes") for span in frames) / 1024 / batches,
            "net.codec_ms_per_batch": 1000 * sum(span.seconds for span in frames) / batches,
            "net.endpoint_imbalance": self._imbalance(responses),
            "net.retries": float(delta["retries"] + delta["migrations"]),
            "net.coalesced_share": self._coalesced_share(responses),
            "net.store_hit_ratio": _ratio(delta["hits"], delta["hits"] + delta["misses"]),
        }


WORKLOADS = {workload.name: workload for workload in (ColdMix, WarmLoop, PoolMix, NetMix)}
