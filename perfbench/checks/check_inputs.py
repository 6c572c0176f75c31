"""Seed handling and reference values of the benchmark's input streams.

Not collected by the repository's default test run; run with::

    python3 -m pytest perfbench/checks -o python_files='check_*.py' -q
"""

import itertools
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import gen  # noqa: E402
import workloads  # noqa: E402

CALLS = 120


def _stream(name, seed):
    """Every program a run of ``name`` feeds the program, warm-up included."""
    workload = workloads.WORKLOADS[name](seed)
    warm = [[program] for program in getattr(workload, "fill", [])] + list(getattr(workload, "warmup", []))
    return warm + workload.calls(CALLS)


def _composition(calls):
    return [sorted((program.system, program.kind, program.size) for program in call) for call in calls]


def test_same_seed_gives_a_byte_identical_stream():
    for name in workloads.WORKLOADS:
        assert gen.digest(_stream(name, 7)) == gen.digest(_stream(name, 7)), name


def test_another_seed_keeps_the_composition_and_changes_the_programs():
    for name in workloads.WORKLOADS:
        first, second = _stream(name, 7), _stream(name, 8)
        assert _composition(first) == _composition(second), name
        sources = lambda calls: {program.source for call in calls for program in call}  # noqa: E731
        shared = sources(first) & sources(second)
        assert len(shared) <= len(sources(first)) // 10, name


def test_the_stream_does_not_depend_on_the_process():
    """Generation uses no ``hash()`` of strings, so another interpreter agrees."""
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import gen, itertools; "
        "print(gen.digest([[p] for p in itertools.islice(gen.cold_stream(5), 200)]))"
    )
    digests = {
        subprocess.run(
            [sys.executable, "-c", script, BENCH],
            env={**os.environ, "PYTHONHASHSEED": str(hash_seed)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for hash_seed in (1, 2)
    }
    assert len(digests) == 1


def test_cold_programs_never_repeat_and_stay_shallow():
    programs = list(itertools.islice(gen.cold_stream(3), 3000))
    assert len({program.source for program in programs}) == len(programs)
    assert max(gen.nesting_depth(program.source) for program in programs) <= gen.MAX_DEPTH
    assert [program.system for program in programs[:6]] == list(gen.SYSTEMS) * 2
    assert {program.size for program in programs} == set(range(gen.COLD_NODES[0], gen.COLD_NODES[1] + 1))


def test_reference_values_match_the_default_backend():
    """The Python references agree with the program on a sample of every stream."""
    from repro.serve import make_default_scheduler

    scheduler = make_default_scheduler()
    programs = list(itertools.islice(gen.cold_stream(9), 300))
    programs += gen.warm_programs(9, shallower=3)
    programs += [program for batch in itertools.islice(gen.batch_stream(9), 20) for program in batch]
    requests = [workloads.request_for(program, 0, index) for index, program in enumerate(programs)]
    wrong = [
        (program.source, response.error or str(response.result))
        for program, response in zip(programs, scheduler.serve_sequential(requests))
        if not workloads.is_correct(program, response)
    ]
    assert not wrong, wrong[:3]


def test_a_wrong_value_counts_as_failed():
    from repro.serve import make_default_scheduler

    scheduler = make_default_scheduler()
    program = next(gen.cold_stream(1))
    response = scheduler.submit(workloads.request_for(program, 0, 0))
    assert workloads.is_correct(program, response)
    wrong = gen.Program(program.system, program.source, program.expected + 1, program.kind, program.size)
    assert not workloads.is_correct(wrong, response)


def test_benchmark_json_lists_what_the_run_prints():
    import json

    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {metric["name"]: metric["unit"] for metric in spec["per_layer"]} == run.PER_LAYER
    assert [workload["name"] for workload in spec["workloads"]] == list(workloads.WORKLOADS)
