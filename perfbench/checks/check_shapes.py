"""Shape self-checks: each workload exercises the layers it claims to.

Not collected by the repository's default test run; run with::

    python3 -m pytest perfbench/checks -o python_files='check_*.py' -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import gen  # noqa: E402
import workloads  # noqa: E402
from run import timed_loop  # noqa: E402
from speed import Speedometer  # noqa: E402

SEED = 3


def test_cold_mix_times_only_misses_after_every_cache_is_full():
    workload = workloads.ColdMix(SEED)
    scheduler = workload.setup(lambda: None)
    before = workloads.frontend_counters(scheduler.systems)
    memo_before = workloads.memo_counters()
    assert before["used"] == 3 and before["full"] == 3, before
    assert memo_before["full"] == 2, memo_before
    calls = workload.calls(60)
    _latencies, _responses, _tracing, failed = timed_loop(workload, scheduler, calls, Speedometer())
    after = workloads.frontend_counters(scheduler.systems)
    memo_after = workloads.memo_counters()
    assert failed == 0
    assert after["hits"] == before["hits"]
    assert after["misses"] - before["misses"] == len(calls)
    assert after["evictions"] - before["evictions"] == len(calls)
    assert memo_after["hits"] == memo_before["hits"]


def test_warm_loop_only_hits_and_does_not_fold():
    workload = workloads.WarmLoop(SEED)
    scheduler = workload.setup(lambda: None)
    before = workloads.frontend_counters(scheduler.systems)
    _latencies, _responses, _tracing, failed = timed_loop(workload, scheduler, workload.calls(4), Speedometer())
    after = workloads.frontend_counters(scheduler.systems)
    assert failed == 0
    assert after["misses"] == before["misses"]
    assert after["hits"] - before["hits"] == 4 * len(workload.programs)

    for program in workload.programs:
        target = scheduler.systems[program.system].target
        optimizing = [name for name in target.backend_names() if "opt" in name]
        steps = {}
        for backend in ["cek-compiled", *optimizing]:
            request = workloads.request_for(program, 0, 0)
            request.backend = backend
            response = scheduler.submit(request)
            assert workloads.is_correct(program, response), (backend, response.error)
            steps[backend] = response.result.steps
        for backend in optimizing:
            assert steps[backend] >= 0.9 * steps["cek-compiled"], (program.system, steps)


def _check_fleet(workload, stats_of):
    server = workload.setup(lambda: None)
    try:
        before = stats_of(server)
        _latencies, per_call, _tracing, failed = timed_loop(workload, server, workload.calls(30), Speedometer())
        after = stats_of(server)
    finally:
        workload.teardown(server)
    responses = [response for served in per_call for response in served]
    assert failed == 0
    assert any(response.coalesced > 1 for response in responses)
    assert after["hits"] > 0
    assert after["retries"] == 0 and after["migrations"] == 0
    assert after["hits"] >= before["hits"]
    # Hot programs run for several slices, so their checkpoints stream.
    hot = [response for response in responses if response.slices > 1]
    assert hot


def test_pool_mix_coalesces_shares_and_never_retries():
    _check_fleet(workloads.PoolMix(SEED), lambda pool: pool.cache_stats())


def test_net_mix_coalesces_shares_and_never_retries():
    workload = workloads.NetMix(SEED)
    _check_fleet(workload, workload.snapshot)


def test_every_stream_mixes_all_three_systems():
    for name, workload_class in workloads.WORKLOADS.items():
        calls = workload_class(SEED).calls(12)
        systems = {program.system for call in calls for program in call}
        assert systems == set(gen.SYSTEMS), name
