"""The benchmark: one closed-loop workload per run, outputs checked, metrics printed.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-mix --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``cold-mix``, ``warm-loop``, ``pool-mix`` and
``net-mix`` (see :mod:`workloads`).  ``--seed`` fixes every generated input.
``--seconds`` sets the number of timed calls, ``seconds x`` the workload's
nominal call rate, so every run of one seed serves the same requests.

With ``--trace 0`` the run reports the end-to-end metrics: throughput,
per-call latency p50 and p90, set-up time (imports, construction, worker
spawn and cache warm-up; the median of several set-ups) and peak RSS.
Durations are in reference seconds: the wall time of each call or set-up
scaled by the host speed probed around it (see :mod:`speed`); a set-up that
runs in worker processes is scaled by the median speed of the whole run.
The unscaled wall-clock figures are printed on the line before the result.

With ``--trace 1`` alternate blocks of calls run with spans installed
around each layer's public callables (see :mod:`spans`), and the run
reports the per-layer metrics of the traced calls plus the tracing
overhead: how much slower the median traced call is than the median
untraced one.  The spans are written to ``perfbench/out/``.

Every response is checked against the value the generator computed in
Python.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every request was correct.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: The traced run alternates blocks of this many traced and untraced calls:
#: a multiple of every stream's period (3 systems round-robin, 6 hot
#: programs, an 8-batch recent window), so both halves hold the same mix.
TRACE_BLOCK = 24

#: Per-layer metrics of the traced run, with their units.  A layer that a
#: workload does not exercise in the benchmark's own process reads 0.
PER_LAYER = {
    "frontend.parse_ms": "ms",
    "frontend.typecheck_ms": "ms",
    "frontend.compile_ms": "ms",
    "frontend.analyze_ms": "ms",
    "frontend.cache_hit_ratio": "ratio",
    "frontend.evictions_per_req": "count",
    "frontend.share": "ratio",
    "gc.pause_share": "ratio",
    "gc.gen2_count": "count",
    "gc.max_pause_ms": "ms",
    "machine.start_ms": "ms",
    "machine.memo_hit_ratio": "ratio",
    "machine.step_ms": "ms",
    "machine.step_share": "ratio",
    "machine.steps_per_req": "count",
    "machine.us_per_step.refs": "us",
    "machine.us_per_step.affine": "us",
    "machine.us_per_step.l3": "us",
    "scheduler.self_ms": "ms",
    "driver.slices_per_req": "count",
    "pool.coalesced_share": "ratio",
    "pool.store_hit_ratio": "ratio",
    "pool.shard_imbalance": "ratio",
    "pool.retries": "count",
    "net.frames_per_batch": "count",
    "net.frame_kb_per_batch": "kB",
    "net.codec_ms_per_batch": "ms",
    "net.endpoint_imbalance": "ratio",
    "net.retries": "count",
    "net.coalesced_share": "ratio",
    "net.store_hit_ratio": "ratio",
    "trace.overhead": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """The larger peak RSS of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timed_loop(workload, server, calls, speedometer, tracer=None, install=None):
    """Serve ``calls`` one after another, probing host speed between them.

    With a ``tracer``, alternate blocks of :data:`TRACE_BLOCK` calls run
    with ``install()``-ed wrappers and without, so traced and untraced calls
    share the stream's mix and the moments of the run.  Returns each
    call's ``(start, end)`` wall interval, each call's responses, whether it
    was traced, and the number of requests whose value differs from the
    reference.
    """
    from workloads import is_correct, request_for

    intervals, responses, tracing, failed = [], [], [], 0
    for call, programs in enumerate(calls):
        requests = [request_for(program, call, position) for position, program in enumerate(programs)]
        speedometer.maybe_sample()
        traced = tracer is not None and (call // TRACE_BLOCK) % 2 == 1
        tracing.append(traced)
        if traced:
            tracer.call = call
            install()
        began = time.perf_counter()
        try:
            served = workload.call(server, requests)
        finally:
            ended = time.perf_counter()
            if traced:
                tracer.restore()
        intervals.append((began, ended))
        failed += sum(not is_correct(program, response) for program, response in zip(programs, served))
        responses.append(served)
    speedometer.sample()
    return intervals, responses, tracing, failed


def settled(speedometer, samples=5):
    """Probe a few times in a row (before and after each set-up)."""
    for _ in range(samples):
        speedometer.sample()


def gc_layers(tracer, wall_seconds):
    from spans import gc_pauses

    pauses = gc_pauses(tracer.spans)
    return {
        "gc.pause_share": sum(seconds for _generation, seconds in pauses) / wall_seconds,
        "gc.gen2_count": float(sum(generation == 2 for generation, _seconds in pauses)),
        "gc.max_pause_ms": 1000 * max((seconds for _generation, seconds in pauses), default=0.0),
    }


def stop_children() -> None:
    """Stop and reap every process this run started, so none outlives it.

    Workloads join their own workers in ``teardown``; any still alive is
    terminated here.  What is left after that is multiprocessing's resource
    tracker, which the first spawned process starts and which exits only
    once this process has, unreaped; closing its pipe stops it and
    ``_stop`` waits for it.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for process in multiprocessing.active_children():
        process.terminate()
        process.join(timeout=10)
        if process.is_alive():
            process.kill()
            process.join()
    resource_tracker._resource_tracker._stop()


def write_spans(tracer, path):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    index = {id(span): number for number, span in enumerate(tracer.spans)}
    with open(path, "w", encoding="utf-8") as handle:
        for number, span in enumerate(tracer.spans):
            record = {
                "id": number,
                "call": span.call,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": None if span.parent is None else index.get(id(span.parent)),
                "self": span.self_seconds,
            }
            if span.counts:
                record["counts"] = span.counts
            handle.write(json.dumps(record) + "\n")


def main(argv) -> int:
    args = parse_args(argv)
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"nothing to benchmark: {source} holds no repro package", file=sys.stderr)
        return 2
    began = time.perf_counter()
    sys.path.insert(0, source)
    from spans import Tracer
    from speed import REFERENCE_SECONDS, Speedometer
    from workloads import WORKLOADS

    imports = (began, time.perf_counter())
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    # At least one traced and one untraced block, however short the run.
    count = max(2 * TRACE_BLOCK, round(args.seconds * workload.rate))
    calls = workload.calls(count)
    speedometer = Speedometer()

    setups = []
    server = None
    try:
        for repeat in range(workload.setup_repeats):
            settled(speedometer)
            began, probing = time.perf_counter(), speedometer.spent
            server = workload.setup(speedometer.maybe_sample)
            ended = time.perf_counter()
            settled(speedometer)
            seconds = ended - began - (speedometer.spent - probing)
            setups.append(seconds if workload.setup_in_workers else seconds * speedometer.factor(began, ended))
            if repeat < workload.setup_repeats - 1:
                workload.teardown(server)
                server = None
                gc.collect()

        if args.trace:
            tracer = Tracer()

            def install():
                workload.install(tracer, server)
                tracer.trace_gc()

            before = workload.snapshot(server)
            every, per_call, tracing, failed = timed_loop(workload, server, calls, speedometer, tracer, install)
            after = workload.snapshot(server)
            attempted = sum(len(programs) for programs in calls)
            plain = [interval for interval, traced in zip(every, tracing) if not traced]
            intervals = [interval for interval, traced in zip(every, tracing) if traced]
            traced_calls = [programs for programs, traced in zip(calls, tracing) if traced]
            responses = [response for served, traced in zip(per_call, tracing) if traced for response in served]
            metrics = {name: 0.0 for name in PER_LAYER}
            metrics.update(workload.layers(tracer, before, after, traced_calls, responses))
            metrics.update(gc_layers(tracer, sum(end - start for start, end in intervals)))
            factor = speedometer.factor(every[0][0], every[-1][1])
            for name, unit in PER_LAYER.items():
                if unit in ("ms", "us"):
                    metrics[name] *= factor
            # Medians, not totals: a gen-2 collection of half a second lands
            # in one block or the other and would swamp the difference.
            traced_median = statistics.median(speedometer.scale(intervals))
            metrics["trace.overhead"] = traced_median / statistics.median(speedometer.scale(plain)) - 1.0
            write_spans(tracer, os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl"))
            report = {name: {"value": metrics[name], "unit": PER_LAYER[name]} for name in PER_LAYER}
            summary = f"{len(intervals)} of {len(every)} calls traced"
        else:
            intervals, _responses, _tracing, failed = timed_loop(workload, server, calls, speedometer)
            attempted = sum(len(programs) for programs in calls)
            latencies = speedometer.scale(intervals)
            if workload.setup_in_workers:
                # Scaled by the speed of the whole run instead: probes taken
                # around set-ups seconds apart read up to 2x apart, and the
                # set-ups did not follow them.
                setup_seconds = imports[1] - imports[0] + statistics.median(setups)
                setup_seconds *= REFERENCE_SECONDS / speedometer.median_probe()
            else:
                setup_seconds = speedometer.scale([imports])[0] + statistics.median(setups)
            report = {
                "throughput_rps": {"value": attempted / sum(latencies), "unit": "1/s"},
                "latency_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
                "latency_p90_ms": {"value": 1000 * statistics.quantiles(latencies, n=10)[-1], "unit": "ms"},
                "setup_s": {"value": setup_seconds, "unit": "s"},
            }
            wall = [end - start for start, end in intervals]
            summary = (
                f"latency percentiles over {len(intervals)} calls; unscaled wall clock "
                f"{attempted / sum(wall):.2f} requests/s, p50 {1000 * statistics.median(wall):.3f} ms"
            )
    finally:
        try:
            if server is not None:
                workload.teardown(server)
        finally:
            stop_children()
    if not args.trace:
        report["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}

    print(
        f"{args.workload} seed={args.seed}: {attempted} requests, {failed} failed; {summary}; "
        f"speed probe median {1e6 * speedometer.median_probe():.1f} us "
        f"(reference {1e6 * REFERENCE_SECONDS:.1f} us)",
        flush=True,
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": report}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
