"""The differential fuzzing subsystem: generator, oracle, shrinker, corpus.

Covers the satellite contract for `src/repro/fuzz/`:

* generation is byte-for-byte deterministic under a fixed seed;
* every generated program typechecks — or, for tagged expected-failure
  cases, fails with exactly the tagged structured error class;
* the greedy shrinker minimizes a planted synthetic mismatch to a strictly
  smaller program that still exhibits the same disagreement;
* corpus persistence round-trips (save → load → re-judge);
* the legacy ``util.workloads`` programs, promoted to corpus entries, still
  produce identical results on every backend (the regression half of the
  promotion);

plus the serving-side QoS mechanics: priority-class → weight mapping,
weighted slice granting in the driver, scheduler-level outcome invariance
under weights, and, on a generated mixed-tenant batch, high-priority p99
latency well below best-effort p99.
"""

import math
import random

import pytest

from repro.fuzz import (
    DIVERGENT_SOURCES,
    DifferentialOracle,
    Disagreement,
    FuzzCase,
    FuzzGenerator,
    Node,
    leaf,
    legacy_corpus_entries,
    load_corpus,
    make_systems,
    same_axis_predicate,
    save_counterexample,
    shrink,
)
from repro.fuzz.generator import TEMPLATES
from repro.serve import (
    PRIORITY_WEIGHTS,
    Request,
    StepSlicedDriver,
    make_default_scheduler,
    priority_weight,
)

SEED = 20260808
SAMPLE = 45  # 15 per system: every kind appears at this size

#: The mixed-tenant QoS batch.  A small slice size keeps every tenant mid-run
#: for many turns, so the weighted driver arbitrates real contention.
QOS_SLICE_STEPS = 32
QOS_CLASSES = ("high", "standard", "best-effort")
#: Generated well-typed programs per class; every class gets the *same*
#: programs, so class latencies differ only by scheduling weight.
QOS_GENERATED_PER_CLASS = 8
QOS_LEGACY_DEPTHS = (12, 24)
#: One long-running tenant per class: the refs Landin's knot at this fuel is
#: ~375 slices of ballast.  It dominates each class's p99, and a weight-8
#: tenant clears it in far fewer scheduler turns than a weight-1 tenant.
QOS_BALLAST_FUEL = 12_000
#: Latency passes; each class's p99 is the median across passes, so a single
#: noisy pass cannot flip the verdict.
QOS_REPEATS = 3
#: High-priority p99 must beat best-effort p99 by this factor.  With the
#: documented weights best-effort p99 is ~1.7x high p99; with equal weights
#: the two sit within 0.5% of each other (the high knot merely starts first),
#: so a bare ``<`` would pass with priorities ignored.
QOS_P99_SEPARATION = 1.25


@pytest.fixture(scope="module")
def systems():
    return make_systems()


@pytest.fixture(scope="module")
def oracle(systems):
    return DifferentialOracle(systems=systems, rng=random.Random(SEED))


def _case_fingerprint(case):
    return (case.system, case.language, case.source, case.kind, case.expected_error, case.fuel)


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


def test_generation_is_deterministic_under_a_fixed_seed():
    first = [_case_fingerprint(case) for case in FuzzGenerator(seed=SEED).generate(SAMPLE)]
    second = [_case_fingerprint(case) for case in FuzzGenerator(seed=SEED).generate(SAMPLE)]
    assert first == second
    different = [_case_fingerprint(case) for case in FuzzGenerator(seed=SEED + 1).generate(SAMPLE)]
    assert first != different


def test_generator_covers_all_systems_and_kinds():
    cases = FuzzGenerator(seed=SEED).take(SAMPLE)
    assert {case.system for case in cases} == {"refs", "affine", "l3"}
    assert {case.kind for case in cases} == {"ok", "divergent", "static-error"}


def test_generated_programs_typecheck_or_fail_with_the_tagged_error(systems):
    for case in FuzzGenerator(seed=SEED).generate(SAMPLE):
        system = systems[case.system]
        if case.kind == "static-error":
            with pytest.raises(Exception) as caught:
                system.compile_source(case.language, case.source)
            assert type(caught.value).__name__ == case.expected_error, case.source
        else:
            system.compile_source(case.language, case.source)  # must not raise


def test_ok_cases_run_clean_and_divergent_cases_exhaust_fuel(systems):
    for case in FuzzGenerator(seed=SEED).take(SAMPLE):
        if case.kind == "static-error":
            continue
        result = systems[case.system].run_source(case.language, case.source, fuel=case.fuel)
        if case.kind == "divergent":
            assert str(result.failure) == "out_of_fuel", case.source
        # "ok" cases may still fail *dynamically* (e.g. an index check) — the
        # oracle only requires every backend to fail identically — but the
        # generator's int-typed templates never diverge:
        else:
            assert str(result.failure) != "out_of_fuel", case.source


def test_generated_trees_respect_the_size_bound():
    generator = FuzzGenerator(seed=SEED, max_nodes=6)
    for case in generator.generate(60):
        if case.tree is not None:
            assert case.tree.size() <= 6
            assert case.tree.render() == case.source


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


def test_oracle_agrees_on_a_generated_sample(oracle):
    for case in FuzzGenerator(seed=SEED).generate(SAMPLE):
        disagreement = oracle.check(case)
        assert disagreement is None, disagreement.summary()


def test_oracle_flags_a_wrongly_tagged_static_error(oracle):
    mistagged = FuzzCase(
        system="refs",
        language="RefLL",
        source="(+ 1 (lam (x int) x))",  # really a TypeCheckError
        kind="static-error",
        expected_error="ScopeError",
    )
    disagreement = oracle.check(mistagged)
    assert disagreement is not None and disagreement.axis == "frontend"
    assert disagreement.details["raised"] == "TypeCheckError"


def test_oracle_flags_a_well_typed_program_tagged_as_failing(oracle):
    mistagged = FuzzCase(
        system="l3",
        language="MiniML",
        source="(+ 1 2)",
        kind="static-error",
        expected_error="TypeCheckError",
    )
    disagreement = oracle.check(mistagged)
    assert disagreement is not None and disagreement.axis == "frontend"
    assert disagreement.details["raised"] is None


def test_oracle_flags_a_converging_program_tagged_divergent(oracle):
    mistagged = FuzzCase(
        system="affine", language="MiniML", source="(+ 1 2)", kind="divergent", fuel=2_000
    )
    disagreement = oracle.check(mistagged)
    assert disagreement is not None and disagreement.axis == "divergence"


# ---------------------------------------------------------------------------
# Shrinker
# ---------------------------------------------------------------------------


def _planted_case():
    """A bulky tree whose 'disagreement' is containing a boundary crossing."""
    cross = TEMPLATES["refs"][0]  # (+ 1 (boundary int (if (boundary bool {0}) false true)))
    add = TEMPLATES["refs"][1]
    churn = TEMPLATES["refs"][3]
    tree = Node(
        template=add,
        children=(
            Node(template=churn, children=(leaf(3),)),
            Node(
                template=add,
                children=(
                    Node(template=cross, children=(Node(template=add, children=(leaf(1), leaf(2))),)),
                    Node(template=churn, children=(leaf(7),)),
                ),
            ),
        ),
    )
    return FuzzCase(
        system="refs", language="RefLL", source=tree.render(), kind="ok", tree=tree
    )


def test_shrinker_minimizes_a_planted_synthetic_mismatch():
    case = _planted_case()

    def planted_mismatch(candidate):
        return "(boundary" in candidate.source

    assert planted_mismatch(case)
    shrunk = shrink(case, planted_mismatch)
    assert planted_mismatch(shrunk)  # same disagreement...
    assert shrunk.tree.size() < case.tree.size()  # ...on a smaller program
    # Greedy fixpoint: the crossing template with a literal hole is the
    # 2-node minimum for this predicate, and no single rewrite goes lower.
    assert shrunk.tree.size() == 2
    assert shrunk.source == shrunk.tree.render()


def test_shrinker_returns_treeless_cases_unchanged():
    case = FuzzCase(system="refs", language="RefLL", source="(+ 1 2)", kind="ok")
    assert shrink(case, lambda candidate: True) is case


def test_shrinker_same_axis_predicate_tracks_the_oracle(oracle):
    predicate = same_axis_predicate(oracle, "frontend")
    mistagged = FuzzCase(
        system="refs", language="RefLL", source="(+ 1 (lam (x int) x))",
        kind="static-error", expected_error="ScopeError",
    )
    agreed = FuzzCase(system="refs", language="RefLL", source="(+ 1 2)", kind="ok")
    assert predicate(mistagged)
    assert not predicate(agreed)


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------


def test_corpus_round_trips_a_persisted_counterexample(tmp_path, oracle):
    case = FuzzCase(
        system="affine",
        language="MiniML",
        source="(+ 1 2)",
        kind="static-error",
        expected_error="TypeCheckError",
        seed=SEED,
        index=3,
    )
    disagreement = Disagreement(case, "frontend", {"raised": None})
    path = save_counterexample(str(tmp_path), disagreement)
    loaded = load_corpus(str(tmp_path))
    assert len(loaded) == 1
    assert _case_fingerprint(loaded[0]) == _case_fingerprint(case)
    assert loaded[0].tree is None  # replay needs no tree
    # Re-judging the loaded case reproduces the same axis of disagreement.
    rejudged = oracle.check(loaded[0])
    assert rejudged is not None and rejudged.axis == "frontend"
    # Content-addressed: saving the same case again is idempotent.
    assert save_counterexample(str(tmp_path), disagreement) == path
    assert len(load_corpus(str(tmp_path))) == 1


def test_load_corpus_of_a_missing_directory_is_empty(tmp_path):
    assert load_corpus(str(tmp_path / "never-created")) == []


def test_legacy_workloads_agree_on_all_backends(oracle):
    """The promotion's regression half: the original hand-written scenario
    suite, now parametrized corpus entries, passes the full four-axis
    differential on every backend."""
    entries = legacy_corpus_entries(depths=(2, 6))
    assert {entry.system for entry in entries} == {"refs", "affine", "l3"}
    for entry in entries:
        disagreement = oracle.check(entry)
        assert disagreement is None, disagreement.summary()


# ---------------------------------------------------------------------------
# QoS: priority classes, weighted driver, outcome invariance
# ---------------------------------------------------------------------------


def test_priority_classes_map_to_documented_weights():
    assert priority_weight("high") == PRIORITY_WEIGHTS["high"] == 8
    assert priority_weight("standard") == PRIORITY_WEIGHTS["standard"] == 2
    assert priority_weight("best-effort") == PRIORITY_WEIGHTS["best-effort"] == 1
    assert priority_weight(5) == 5
    assert Request(language="RefLL", source="1").priority_weight == 2  # default class
    for bad in ("urgent", 0, -1, True):
        with pytest.raises(ValueError):
            priority_weight(bad)


class _CountingExecution:
    """Finishes after ``total`` step_n calls, logging each grant globally."""

    def __init__(self, name, total, log):
        self.name = name
        self.remaining = total
        self.log = log

    def step_n(self, limit):
        self.log.append(self.name)
        self.remaining -= 1
        return "done" if self.remaining <= 0 else None


def test_driver_grants_weighted_consecutive_slices():
    log = []
    heavy = _CountingExecution("heavy", 6, log)
    light = _CountingExecution("light", 2, log)
    driver = StepSlicedDriver(slice_steps=4)
    driven = driver.run_batch([heavy, light], weights=[3, 1])
    # Turn 1: heavy x3, light x1; turn 2: heavy x3 (finishes), light x1 (finishes).
    assert log == ["heavy", "heavy", "heavy", "light", "heavy", "heavy", "heavy", "light"]
    assert [outcome.slices for outcome in driven] == [6, 2]


def test_driver_default_weights_are_round_robin():
    log = []
    a = _CountingExecution("a", 2, log)
    b = _CountingExecution("b", 2, log)
    assert StepSlicedDriver(slice_steps=4).run_batch([a, b])
    assert log == ["a", "b", "a", "b"]


def test_driver_rejects_bad_weights():
    driver = StepSlicedDriver(slice_steps=4)
    with pytest.raises(ValueError):
        driver.run_batch([_CountingExecution("x", 1, [])], weights=[0])
    with pytest.raises(ValueError):
        driver.run_batch([_CountingExecution("x", 1, [])], weights=[1, 2])


def _legacy_requests():
    return [
        Request(
            language=entry.language,
            source=entry.source,
            system=entry.system,
            priority=priority,
            request_id=f"{entry.system}-{priority}",
        )
        for entry in legacy_corpus_entries(depths=(4,))
        for priority in QOS_CLASSES
    ]


def _qos_requests():
    """One request per (program, priority class), classes alternating.

    The programs are the generator's first ``ok`` cases under the pinned
    seed, the legacy corpus at two depths, and one divergent knot.  Classes
    alternate program by program, so no class gets a positional head start
    in the slice loop.
    """
    generator = FuzzGenerator(seed=SEED)
    cases = []
    while len(cases) < QOS_GENERATED_PER_CLASS:
        case = generator.next_case()
        if case.kind == "ok":
            cases.append(case)
    programs = [
        (case.system, case.language, case.source, case.fuel)
        for case in cases + legacy_corpus_entries(depths=QOS_LEGACY_DEPTHS)
    ]
    knot_language, knot_source = DIVERGENT_SOURCES["refs"]
    programs.append(("refs", knot_language, knot_source, QOS_BALLAST_FUEL))
    return [
        Request(
            language=language,
            source=source,
            system=system,
            fuel=fuel,
            priority=priority,
            request_id=f"qos-{priority}-{index}",
        )
        for index, (system, language, source, fuel) in enumerate(programs)
        for priority in QOS_CLASSES
    ]


@pytest.mark.parametrize(
    "make_requests,slice_steps",
    [(_legacy_requests, 16), (_qos_requests, QOS_SLICE_STEPS)],
    ids=["legacy", "qos"],
)
def test_scheduler_outcomes_are_invariant_under_priorities(make_requests, slice_steps):
    scheduler = make_default_scheduler(slice_steps=slice_steps)
    requests = make_requests()
    sequential = scheduler.serve_sequential(requests)
    interleaved = scheduler.serve(requests)
    for seq, inter in zip(sequential, interleaved):
        assert (seq.error, str(seq.result)) == (inter.error, str(inter.result))
        assert inter.steps <= inter.slices * slice_steps  # bounded latency survives weights


def _percentile(values, q):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, math.ceil(q / 100.0 * len(ordered)) - 1))]


def test_high_priority_p99_beats_best_effort_under_contention():
    scheduler = make_default_scheduler(slice_steps=QOS_SLICE_STEPS)
    requests = _qos_requests()
    scheduler.warm_cache(requests)
    passes = [scheduler.serve(requests) for _ in range(QOS_REPEATS)]

    def p99(priority):
        return _percentile(
            [
                _percentile(
                    [r.run_seconds for r in responses if r.request.priority == priority], 99
                )
                for responses in passes
            ],
            50,
        )

    high, best_effort = p99("high"), p99("best-effort")
    assert high * QOS_P99_SEPARATION < best_effort, (
        f"high p99 {high * 1000:.2f}ms vs best-effort p99 {best_effort * 1000:.2f}ms"
    )


def test_scheduler_rejects_an_unknown_priority_class_per_request():
    scheduler = make_default_scheduler(slice_steps=64)
    good = Request(language="RefLL", source="1", request_id="good")
    bad = Request(language="RefLL", source="2", priority="urgent", request_id="bad")
    responses = scheduler.serve([good, bad])
    assert responses[0].ok
    assert responses[1].error is not None and "priority" in responses[1].error
