"""The static-analysis tier: analyses, verification, fast-engine agreement, serving.

Four layers of guarantees:

* **analyses** — crossing-site enumeration matches the workload generators'
  known boundary counts (with types, rules, and depths attached), effect
  summaries report exactly the operations a program can perform, and reports
  are plain data that survive pickling;
* **verification** — the StackLang stack-effect verifier statically rejects
  definite underflow with a structured error (and that rejection surfaces as
  a *frontend* error through the pipeline, like a typecheck failure), while
  never rejecting any known-good corpus program (no false positives);
* **the fast engine** — ``cek-compiled`` agrees with the substitution
  oracle on values and failures (hypothesis-driven over random programs in
  both LCVM systems) *and* on fuel exhaustion (all three systems), and every
  target keeps exactly those two engines;
* **glue pre-resolution + serving** — the compile phase performs zero
  convertibility lookups, every crossing being compiled from the glue its
  typecheck resolved (at the workload depth and at the deep-crossing depth
  the benchmarks time), ``analyze_only``
  requests return the cached report without starting an execution, and
  cost hints weigh the pool's
  load-aware placement deterministically.
"""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import analysis
from repro.analysis import (
    CROSSING_STEP_COST,
    StaticVerificationError,
    enumerate_crossings,
    lcvm_effects,
    verify_program,
)
from repro.core.codec import decode, encode
from repro.core.errors import SourceError
from repro.interop_affine import make_system as make_affine_system
from repro.interop_l3 import make_system as make_l3_system
from repro.interop_refs import make_system as make_refs_system
from repro.lcvm.machine import Status
from repro.lcvm.syntax import App, Assign, BinOp, CallGc, Deref, Int, Lam, NewRef, Var
from repro.serve import Request, Scheduler, StepSlicedDriver, make_default_scheduler
from repro.serve.dispatch import weight
from repro.serve.pool import WorkerPool
from repro.stacklang.syntax import Add, Idx, Push, program
from repro.util.workloads import (
    nested_ml_affi_boundary,
    nested_ml_l3_boundary,
    nested_refll_boundary,
)

_SYSTEMS = {
    "refs": make_refs_system(),
    "affine": make_affine_system(),
    "l3": make_l3_system(),
}

#: Per system: workload generator, host language, crossings per depth unit.
_WORKLOADS = {
    "refs": (nested_refll_boundary, "RefLL", 2),
    "affine": (nested_ml_affi_boundary, "MiniML", 2),
    "l3": (nested_ml_l3_boundary, "MiniML", 1),
}


# ---------------------------------------------------------------------------
# Analyses: crossings, effects, reports
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("system_name", sorted(_WORKLOADS))
@pytest.mark.parametrize("depth", [1, 3, 7])
def test_crossing_enumeration_matches_workload_shape(system_name, depth):
    generator, language, per_depth = _WORKLOADS[system_name]
    system = _SYSTEMS[system_name]
    unit = system.compile_source(language, generator(depth))
    report = unit.analysis
    assert report is not None
    assert report.crossing_count == depth * per_depth
    # Crossings alternate host languages and record the embedded type pair.
    languages = {system.language_a.name, system.language_b.name}
    for site in report.crossings:
        assert site.host_language in languages
        assert site.host_type
        assert site.foreign_type
    # Pre-resolution is on by default, so every site carries its glue rule.
    assert all(site.rule for site in report.crossings)
    # refs/affine truly nest (each level wraps the previous source inside a
    # boundary pair, so depth climbs); l3 chains sibling crossings at depth 0.
    max_depth = max(site.depth for site in report.crossings)
    if system_name == "l3":
        assert max_depth == 0
    else:
        assert max_depth >= depth
    assert report.estimated_steps == report.node_count + CROSSING_STEP_COST * report.crossing_count


def test_pure_program_reports_no_crossings_and_no_effects():
    system = _SYSTEMS["affine"]
    report = system.compile_source("MiniML", "(+ 1 (+ 2 3))").analysis
    assert report.crossing_count == 0
    assert not report.effects.allocates
    assert not report.effects.may_diverge
    assert report.verified


def test_lcvm_effect_summary_flags_each_operation():
    assert not lcvm_effects(BinOp("+", Int(1), Int(2))).allocates
    assert lcvm_effects(NewRef(Int(1))).allocates
    assert lcvm_effects(Deref(NewRef(Int(1)))).reads_refs
    assert lcvm_effects(Assign(NewRef(Int(1)), Int(2))).writes_refs
    assert lcvm_effects(CallGc()).calls_gc
    assert lcvm_effects(App(Lam("x", Var("x")), Int(1))).may_diverge
    assert not lcvm_effects(Int(1)).may_fail


def test_reports_are_plain_picklable_data():
    system = _SYSTEMS["l3"]
    report = system.compile_source("MiniML", nested_ml_l3_boundary(2)).analysis
    clone = pickle.loads(pickle.dumps(report))
    assert clone.to_dict() == report.to_dict()
    payload = report.to_dict()
    assert payload["crossing_count"] == 2
    assert isinstance(payload["effects"], dict)
    assert "ref" in payload["crossings"][0]["host_type"]


def test_enumerate_crossings_nests_depths():
    unit = _SYSTEMS["refs"].compile_source("RefLL", nested_refll_boundary(3))
    sites = enumerate_crossings(
        unit.term, host_language="RefLL", languages=("RefHL", "RefLL")
    )
    assert [site.depth for site in sites] == sorted(site.depth for site in sites)


# ---------------------------------------------------------------------------
# StackLang stack-effect verification
# ---------------------------------------------------------------------------


def test_verifier_rejects_crafted_underflow_with_structured_issue():
    verification = verify_program(program(Add()))
    assert not verification.ok
    (issue,) = verification.errors
    assert issue.kind == "underflow"
    assert issue.needed == 2
    assert issue.available == 0
    assert "underflow" in str(issue)


def test_verifier_accepts_all_compiled_corpus_programs():
    for system_name, (generator, language, _per_depth) in _WORKLOADS.items():
        unit = _SYSTEMS[system_name].compile_source(language, generator(4))
        if system_name == "refs":  # the stacklang-targeting system
            assert verify_program(unit.target_code).ok


def test_underflow_is_a_structured_frontend_error_through_the_pipeline():
    """A compiler emitting an underflowing program is rejected *statically*
    by the analyzer hook — the machine never runs it — and the rejection is
    a SourceError like any parse/typecheck failure."""
    system = make_refs_system()  # fresh: we sabotage its compiler
    frontend = system.frontend("RefLL")
    frontend.compile = lambda term: program(Idx(), Push(Int(0) if False else 0))
    frontend.clear_cache()
    with pytest.raises(StaticVerificationError) as excinfo:
        system.compile_source("RefLL", "1")
    assert isinstance(excinfo.value, SourceError)
    assert excinfo.value.issues
    assert excinfo.value.issues[0].kind == "underflow"


def test_verifier_handles_branches_and_thunks():
    from repro.stacklang.syntax import If0, Lam as StackLam

    # Balanced branches from a known depth verify cleanly.
    ok = verify_program(program(Push(1), If0((Push(2),), (Push(3),))))
    assert ok.ok
    # A thunk body underflowing is caught inside the lambda.
    bad = verify_program(program(Push(1), StackLam(("x",), (Add(),))))
    assert not bad.ok
    assert any("thunk" in issue.location or issue.kind == "underflow" for issue in bad.errors)


# ---------------------------------------------------------------------------
# cek-compiled == substitution oracle (values, failures, fuel exhaustion)
# ---------------------------------------------------------------------------


def _sources(system_name):
    generator, _language, _per_depth = _WORKLOADS[system_name]
    leaves = st.integers(0, 5).map(str)

    def extend(child):
        return st.one_of(
            st.builds("(+ {} {})".format, child, child),
            st.builds(lambda inner, d: generator(d).replace("1", inner, 1), child, st.integers(1, 3)),
        )

    return st.recursive(leaves, extend, max_leaves=5)


#: The LCVM systems, whose generators ``_sources`` draws from.
_LCVM_SYSTEMS = ["affine", "l3"]


@pytest.mark.parametrize("system_name", _LCVM_SYSTEMS)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cek_compiled_matches_substitution_oracle(system_name, data):
    system = _SYSTEMS[system_name]
    _generator, language, _per_depth = _WORKLOADS[system_name]
    source = data.draw(_sources(system_name))
    try:
        unit = system.compile_source(language, source)
    except SourceError:
        return  # frontend rejection is backend-independent by construction
    oracle = system.run_compiled(unit.target_code, fuel=500_000, backend="substitution")
    fast = system.run_compiled(unit.target_code, fuel=500_000, backend="cek-compiled")
    assert fast.value == oracle.value, source
    assert fast.failure == oracle.failure, source


@pytest.mark.parametrize("system_name", [*_LCVM_SYSTEMS, "refs"])
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fuel=st.integers(min_value=1, max_value=40))
def test_cek_compiled_fuel_exhaustion_is_structured(system_name, fuel):
    """Starved of fuel, cek-compiled either finishes with the oracle's exact
    outcome or reports structured fuel exhaustion — never a wrong answer."""
    generator, language, _per_depth = _WORKLOADS[system_name]
    system = _SYSTEMS[system_name]
    unit = system.compile_source(language, generator(6))
    oracle = system.run_compiled(unit.target_code, fuel=500_000, backend="substitution")
    fast = system.run_compiled(unit.target_code, fuel=fuel, backend="cek-compiled")
    if fast.failure == Status.OUT_OF_FUEL.value:
        assert fast.steps <= fuel
    else:
        assert (fast.value, fast.failure) == (oracle.value, oracle.failure)


def test_each_target_keeps_one_reference_and_one_fast_engine():
    for system in _SYSTEMS.values():
        assert system.target.backend_names() == ["substitution", "cek-compiled"]
        assert system.target.default_backend == "cek-compiled"


def test_typecheck_failure_path_is_backend_independent():
    system = _SYSTEMS["affine"]
    with pytest.raises(SourceError):
        system.run_source("MiniML", "(boundary int (ref 1))", backend="cek-compiled")
    with pytest.raises(SourceError):
        system.run_source("MiniML", "(boundary int (ref 1))", backend="substitution")


# ---------------------------------------------------------------------------
# Glue pre-resolution counters
# ---------------------------------------------------------------------------

_FACTORIES = {
    "refs": make_refs_system,
    "affine": make_affine_system,
    "l3": make_l3_system,
}


#: 4 is the workload depth; 40 is the deep crossing that
#: ``benchmarks/bench_boundary_crossing.py`` times its backends at.
@pytest.mark.parametrize("depth", [4, 40])
@pytest.mark.parametrize("system_name", sorted(_FACTORIES))
def test_preresolution_eliminates_compile_phase_lookups(system_name, depth):
    generator, language, per_depth = _WORKLOADS[system_name]
    system = _FACTORIES[system_name]()
    frontend = system.frontend(language)
    term = frontend.parse_expr(generator(depth))
    frontend.typecheck(term)
    system.convertibility.reset_stats()
    frontend.compile(term)
    stats = system.convertibility.stats()
    assert stats["lookups"] == 0  # zero per-crossing lookups
    assert stats["preresolved"] == depth * per_depth


@pytest.mark.parametrize("system_name", sorted(_FACTORIES))
def test_cache_stats_surface_convertibility_counters(system_name):
    system = _FACTORIES[system_name]()
    generator, language, _per_depth = _WORKLOADS[system_name]
    system.compile_source(language, generator(2))
    stats = system.cache_stats()["convertibility"]
    for key in ("entries", "hits", "misses", "lookups", "preresolved"):
        assert key in stats
    assert stats["preresolved"] > 0


# ---------------------------------------------------------------------------
# Serving integration: analyze_only, cost-weighted placement
# ---------------------------------------------------------------------------


def test_analyze_only_returns_report_without_executing():
    scheduler = make_default_scheduler(slice_steps=16)
    response = scheduler.submit(
        Request(language="MiniML", system="affine", source=nested_ml_affi_boundary(3), analyze_only=True)
    )
    assert response.error is None
    assert response.result is None  # nothing ran
    assert response.slices == 0
    assert response.report is not None
    assert response.report["crossing_count"] == 6
    assert response.report["estimated_steps"] > 0
    assert response.report["effects"]["may_diverge"] is False
    assert "analyzed" in str(response)
    # The report is exactly the pipeline-cached unit's analysis.
    unit = scheduler.systems["affine"].compile_source("MiniML", nested_ml_affi_boundary(3))
    assert response.report == unit.analysis.to_dict()


def test_analyze_only_never_coalesces_and_frontend_errors_stay_structured():
    scheduler = make_default_scheduler(slice_steps=16)
    good = Request(language="RefLL", source="(+ 1 1)", analyze_only=True)
    assert scheduler.batch_key(good) is None
    responses = scheduler.serve([good, good], batched=True)
    assert all(response.report is not None for response in responses)
    bad = scheduler.submit(
        Request(language="MiniML", system="affine", source="(boundary int (ref 1))", analyze_only=True)
    )
    assert bad.error is not None and bad.report is None


def test_analysis_rides_the_cross_process_artifact_hooks():
    scheduler = make_default_scheduler(slice_steps=16)
    request = Request(language="RefLL", source=nested_refll_boundary(2))
    store_key = scheduler.pipeline_key(request)
    scheduler.systems["refs"].compile_source("RefLL", request.source)
    unit = scheduler.export_cache_entry(store_key)
    assert unit is not None and unit.analysis is not None
    clone = pickle.loads(pickle.dumps(unit))  # what the pool actually ships
    assert clone.analysis.to_dict() == unit.analysis.to_dict()


def test_analysis_rides_the_artifact_hooks_when_pickled_before_its_first_read():
    """Encoding ships the pending hook and the boundary records, not a
    report: the publisher's stays unbuilt, and the clone's first read builds
    one equal to the publisher's."""
    scheduler = make_default_scheduler(slice_steps=16)
    for system_name, (generator, language, per_depth) in sorted(_WORKLOADS.items()):
        request = Request(language=language, system=system_name, source=generator(2))
        scheduler.systems[system_name].compile_source(language, request.source)
        unit = scheduler.export_cache_entry(scheduler.pipeline_key(request))
        assert unit is not None and unit.analyze is not None  # not analyzed yet
        clone = decode(encode(unit))  # what the pool and the net tier ship
        assert unit.analyze is not None and unit.records is not None  # still unbuilt
        assert clone.analyze is not None and clone.records is not None
        report = clone.analysis.to_dict()
        assert clone.analyze is None and clone.records is None
        assert report == unit.analysis.to_dict()
        assert report["crossing_count"] == 2 * per_depth
        assert all(site["foreign_type"] != "?" and site["rule"] for site in report["crossings"])


@pytest.mark.parametrize("error_type", [ValueError, AttributeError])
def test_a_failing_analyzer_fails_only_its_own_request(error_type):
    def failing_analyzer(unit):
        raise error_type("analyzer bug")

    scheduler = make_default_scheduler(slice_steps=16)
    scheduler.systems["refs"].frontend("RefLL").analyze = failing_analyzer
    bad = Request(language="RefLL", source=nested_refll_boundary(2), analyze_only=True)
    good = Request(language="RefLL", source="(+ 1 2)")
    analyzed, ran = scheduler.serve([bad, good])
    assert analyzed.error == f"{error_type.__name__}: analyzer bug" and analyzed.report is None
    assert ran.error is None and str(ran.result.value) == "3"


_TARGETS = {"refs": "stacklang", "affine": "lcvm", "l3": "lcvm"}


@pytest.mark.parametrize("system_name", sorted(_FACTORIES))
@pytest.mark.parametrize("depth", [1, 3, 6])
def test_lazy_report_equals_the_eager_one(system_name, depth):
    """A report built long after its pipeline, once 300 other programs have
    churned through the system's boundaries, equals one built right away."""
    generator, language, per_depth = _WORKLOADS[system_name]
    system = _FACTORIES[system_name]()
    unit = system.compile_source(language, generator(depth))
    eager = analysis.analyze_unit(
        unit,
        target=_TARGETS[system_name],
        languages=(system.language_a.name, system.language_b.name),
        boundary_types=unit.records.types,
        resolved_rules=unit.records.rules,
    ).to_dict()
    for index in range(300):
        system.compile_source(language, f"(+ {index} {generator(1 + index % 4)})")
    lazy = unit.analysis.to_dict()
    assert lazy == eager
    assert lazy["crossing_count"] == depth * per_depth
    assert all(site["foreign_type"] != "?" and site["rule"] for site in lazy["crossings"])


def test_analysis_runs_only_on_demand():
    scheduler = make_default_scheduler(slice_steps=16)
    system = scheduler.systems["affine"]
    calls = []
    for frontend in (system.language_a, system.language_b):
        frontend.analyze = lambda unit, hook=frontend.analyze: calls.append(unit) or hook(unit)
    sources = [f"(+ {index} {nested_ml_affi_boundary(2)})" for index in range(10)]
    responses = scheduler.serve(
        [Request(language="MiniML", system="affine", source=source) for source in sources]
    )
    assert all(response.result is not None and not response.cache_hit for response in responses)
    assert len(calls) == 0
    request = Request(language="MiniML", system="affine", source=sources[0], analyze_only=True)
    first = scheduler.submit(request)
    assert first.report is not None and first.report["crossing_count"] == 4
    assert len(calls) == 1
    second = scheduler.submit(request)
    assert second.report == first.report
    assert len(calls) == 1


@pytest.mark.parametrize("system_name", sorted(_FACTORIES))
def test_boundary_record_maps_stay_bounded_under_cold_traffic(system_name):
    """Serving many distinct programs through a small LRU leaves no boundary
    records behind: each pipeline takes what its own typecheck wrote."""
    generator, language, per_depth = _WORKLOADS[system_name]
    system = _FACTORIES[system_name]()
    for frontend in (system.language_a, system.language_b):
        frontend.cache_capacity = 8
    boundaries = system.frontend(language).take_records.__self__
    scheduler = Scheduler({system_name: system}, driver=StepSlicedDriver(512))
    tail = generator(1)
    largest = 0
    for start in range(0, 2000, 250):
        responses = scheduler.serve(
            [
                Request(language=language, system=system_name, source=f"(+ {index} {tail})")
                for index in range(start, start + 250)
            ]
        )
        assert all(response.error is None for response in responses)
        maps = [
            boundaries.boundary_types, boundaries.resolved_glue, boundaries.resolved_rules,
            boundaries.boundary_nodes,
        ]
        if system_name == "affine":
            maps += [boundaries.annotations.variable_resolutions, boundaries.annotations.application_modes]
        largest = max([largest] + [len(records) for records in maps])
    assert system.frontend(language).cache_stats()["entries"] <= 8
    assert largest <= per_depth  # at most one program's worth, never growing


def test_cost_hint_weighs_load_aware_placement():
    pool = WorkerPool(workers=2, slice_steps=64, balance_load=True, top_k=2)
    try:
        cheap = Request(language="RefLL", source="(+ 1 1)")
        costly = Request(language="RefLL", source="(+ 1 1)", cost_hint=64 * 64)
        assert weight(cheap, pool.slice_steps) == 1
        assert weight(costly, pool.slice_steps) == 1 + min(8, (64 * 64) // 64)
        assert weight(Request(language="RefLL", source="1", cost_hint=0), pool.slice_steps) == 1
        # Deterministic: same hint, same weight, same placement inputs.
        assert weight(costly, pool.slice_steps) == weight(costly, pool.slice_steps)
    finally:
        pool.close()


def test_estimated_steps_track_actual_cost_ordering():
    """The admission hint's ordering matches reality: a deeper crossing
    workload gets a larger estimate *and* really takes more steps."""
    system = _SYSTEMS["l3"]
    shallow = system.compile_source("MiniML", nested_ml_l3_boundary(2))
    deep = system.compile_source("MiniML", nested_ml_l3_boundary(8))
    assert deep.analysis.estimated_steps > shallow.analysis.estimated_steps
    shallow_run = system.run_compiled(shallow.target_code)
    deep_run = system.run_compiled(deep.target_code)
    assert deep_run.steps > shallow_run.steps
