"""Tests for the generic framework pieces in ``repro.core``."""

from types import SimpleNamespace

import pytest

from repro.core import (
    Boundaries,
    CheckReport,
    Conversion,
    ConvertibilityError,
    ConvertibilityRelation,
    ConvertibilityRule,
    Counterexample,
    NameSupply,
    TypeTag,
    World,
    is_generated_name,
    merge_disjoint,
)
from repro.core.errors import CompileError, ModelError, ReproError
from repro.core.language import Engine, LanguageFrontend, TargetBackend, pipeline_cache_key
from repro.core.worlds import USED, affine_extends, fresh_location, world_flags
from repro.interop_affine import make_system as make_affine_system
from repro.interop_l3 import make_system as make_l3_system
from repro.interop_refs import make_system as make_refs_system


# -- convertibility registry ---------------------------------------------------


def _identity_conversion(type_a, type_b, name="id"):
    return Conversion(type_a, type_b, lambda term: term, lambda term: term, name)


def test_register_pair_and_query():
    relation = ConvertibilityRelation("A", "B")
    relation.register_pair("bool", "int", lambda t: ("a->b", t), lambda t: ("b->a", t))
    conversion = relation.query("bool", "int")
    assert conversion is not None
    assert conversion.apply_a_to_b("x") == ("a->b", "x")
    assert relation.convertible("bool", "int")
    assert not relation.convertible("int", "bool")


def test_require_raises_for_unknown_pair():
    relation = ConvertibilityRelation("A", "B")
    with pytest.raises(ConvertibilityError):
        relation.require("bool", "int")


def test_later_rules_take_precedence():
    relation = ConvertibilityRelation("A", "B")
    relation.register(ConvertibilityRule("first", lambda a, b, r: _identity_conversion(a, b, "first") if a == b == "t" else None))
    relation.register(ConvertibilityRule("second", lambda a, b, r: _identity_conversion(a, b, "second") if a == b == "t" else None))
    assert relation.query("t", "t").rule_name == "second"


def test_schematic_rule_with_recursive_premise():
    relation = ConvertibilityRelation("A", "B")
    relation.register_pair("base_a", "base_b", lambda t: t, lambda t: t, name="base")

    def list_rule(type_a, type_b, rel):
        if isinstance(type_a, tuple) and isinstance(type_b, tuple) and type_a[0] == type_b[0] == "list":
            if rel.convertible(type_a[1], type_b[1]):
                return _identity_conversion(type_a, type_b, "list")
        return None

    relation.register(ConvertibilityRule("list", list_rule))
    assert relation.convertible(("list", "base_a"), ("list", "base_b"))
    assert not relation.convertible(("list", "other"), ("list", "base_b"))


def test_cyclic_rules_terminate():
    relation = ConvertibilityRelation("A", "B")

    def self_referential(type_a, type_b, rel):
        # A rule whose premise is the conclusion itself must not loop forever.
        if rel.convertible(type_a, type_b):
            return _identity_conversion(type_a, type_b)
        return None

    relation.register(ConvertibilityRule("loop", self_referential))
    assert not relation.convertible("x", "y")


def test_cycle_cutoff_does_not_poison_the_memo():
    """Regression: a negative result reached only because a recursive premise
    was cut off (the conclusion was already in progress) must not be cached —
    the same pair can be derivable from a fresh top-level query."""
    relation = ConvertibilityRelation("A", "B")
    # Lowest precedence: a direct rule for P ~ Q.
    relation.register_pair("P", "Q", lambda t: t, lambda t: t, name="base")

    def p_via_rs(type_a, type_b, rel):
        # P ~ Q holds when R ~ S holds (tried before "base" because it is
        # registered later).
        if type_a == "P" and type_b == "Q" and rel.convertible("R", "S"):
            return _identity_conversion(type_a, type_b, "p-via-rs")
        return None

    def rs_via_pq(type_a, type_b, rel):
        # R ~ S holds when P ~ Q holds — mutually recursive with the above.
        if type_a == "R" and type_b == "S" and rel.convertible("P", "Q"):
            return _identity_conversion(type_a, type_b, "rs-via-pq")
        return None

    relation.register(ConvertibilityRule("p-via-rs", p_via_rs))
    relation.register(ConvertibilityRule("rs-via-pq", rs_via_pq))

    # Top-level P ~ Q: the recursive rule asks for R ~ S, whose own premise
    # P ~ Q is cut off (in progress), so R ~ S fails *along this path*; the
    # base rule then proves P ~ Q.
    assert relation.convertible("P", "Q")
    # R ~ S is derivable from a fresh query (its premise P ~ Q now succeeds);
    # before the fix the cutoff-tainted negative was memoized and this failed.
    assert relation.convertible("R", "S")


def test_cycle_cutoff_taint_is_transient():
    relation = ConvertibilityRelation("A", "B")

    def self_referential(type_a, type_b, rel):
        if rel.convertible(type_a, type_b):
            return _identity_conversion(type_a, type_b)
        return None

    relation.register(ConvertibilityRule("loop", self_referential))
    assert not relation.convertible("x", "y")
    # The genuinely-underivable pair is recomputed, not cached, and the taint
    # bookkeeping does not leak across queries.
    assert not relation.convertible("x", "y")
    assert relation._in_progress == set() and relation._tainted == set()
    # Positive results derived without cutoffs are still memoized.
    relation.register_pair("a", "b", lambda t: t, lambda t: t)
    assert relation.convertible("a", "b")
    assert ("a", "b") in relation._memo


# -- boundaries ------------------------------------------------------------------


def test_boundaries_orient_glue_toward_host():
    relation = ConvertibilityRelation("A", "B")
    relation.register_pair("ta", "tb", lambda t: ("to_b", t), lambda t: ("to_a", t), name="ta~tb")
    boundaries = Boundaries(relation)
    host_a, host_b = SimpleNamespace(annotation="ta"), SimpleNamespace(annotation="tb")
    assert boundaries.resolve(host_a, "A", "tb") == "ta"
    assert boundaries.resolve(host_b, "B", "ta") == "tb"
    assert boundaries.compile(host_a, "v") == ("to_a", "v")
    assert boundaries.compile(host_b, "v") == ("to_b", "v")
    assert relation.stats()["preresolved"] == 2
    records = boundaries.take_records()
    assert records.types == {id(host_a): "tb", id(host_b): "ta"}
    assert records.rules == {id(host_a): "ta~tb", id(host_b): "ta~tb"}
    with pytest.raises(ConvertibilityError, match="A boundary at type ta .* B term of type unknown"):
        boundaries.resolve(host_a, "A", "unknown")
    with pytest.raises(CompileError):
        boundaries.compile(host_a, "v")  # a rejected boundary keeps no glue


#: One underivable boundary per (system, host) direction:
#: (factory, host, foreign, source, annotation, foreign type).
_REJECTED_BOUNDARIES = [
    (make_refs_system, "RefHL", "RefLL", "(boundary bool (ref 0))", "bool", "(ref int)"),
    (make_refs_system, "RefLL", "RefHL", "(boundary (ref int) (ref unit))", "(ref int)", "(ref unit)"),
    (make_affine_system, "Affi", "MiniML", "(boundary int (lam (x int) x))", "int", "(int -> int)"),
    (make_affine_system, "MiniML", "Affi", "(boundary (prod int int) true)", "(int * int)", "bool"),
    (make_l3_system, "MiniML", "L3", "(boundary int (new true))", "int", "(∃z. ((cap z bool) ⊗ !(ptr z)))"),
    (make_l3_system, "L3", "MiniML", "(boundary (-o bool bool) 5)", "(bool ⊸ bool)", "int"),
]


@pytest.mark.parametrize(
    "factory, host, foreign, source, annotation, foreign_type",
    _REJECTED_BOUNDARIES,
    ids=["refs-RefHL", "refs-RefLL", "affine-Affi", "affine-MiniML", "l3-MiniML", "l3-L3"],
)
def test_every_boundary_direction_rejects_an_underivable_pair(factory, host, foreign, source, annotation, foreign_type):
    with pytest.raises(ConvertibilityError) as caught:
        factory().compile_source(host, source)
    message = str(caught.value)
    for part in (host, foreign, annotation, foreign_type):
        assert part in message


# -- worlds ---------------------------------------------------------------------


def test_world_later_spends_budget():
    world = World.initial(5)
    assert world.later(2).step_budget == 3
    with pytest.raises(ModelError):
        world.later(9)


def test_world_rejects_negative_budget():
    with pytest.raises(ModelError):
        World(-1)


def test_world_extend_heap_typing_requires_fresh_location():
    world = World.initial(5, {0: TypeTag("A", "bool")})
    with pytest.raises(ModelError):
        world.extend_heap_typing(0, TypeTag("A", "bool"))


def test_world_extension_allows_growth_and_smaller_budget():
    base = World.initial(5, {0: TypeTag("A", "bool")})
    future = base.later().extend_heap_typing(1, TypeTag("B", "int"))
    assert future.extends(base)
    assert not base.extends(future)


def test_affine_extension_marks_used_monotonically():
    base = World.initial(5).with_affine_store({7: frozenset({"f1"})})
    used = base.later().with_affine_store({7: USED})
    assert affine_extends(used, base)
    assert not affine_extends(base, used)


def test_affine_extension_rejects_lost_flags_entry():
    base = World.initial(5).with_affine_store({7: frozenset()})
    missing = base.later().with_affine_store({})
    assert not affine_extends(missing, base)


def test_affine_extension_respects_excluded_flags():
    base = World.initial(5).with_affine_store({7: frozenset({"f1"})})
    future = base.later()
    assert not affine_extends(future, base, excluded_flags=frozenset({"f1"}))


def test_world_flags_collects_phantom_flags():
    world = World.initial(3).with_affine_store({1: frozenset({"a"}), 2: USED, 3: frozenset({"b"})})
    assert world_flags(world) == frozenset({"a", "b"})


def test_merge_disjoint_and_fresh_location():
    merged = merge_disjoint({0: "x"}, {1: "y"})
    assert merged == {0: "x", 1: "y"}
    with pytest.raises(ModelError):
        merge_disjoint({0: "x"}, {0: "y"})
    assert fresh_location({0: "x"}, {5: "y"}) == 6
    assert fresh_location() == 0


# -- backend registry and pipeline cache ------------------------------------------


def _make_frontend(calls):
    def parse(source):
        calls.append(("parse", source))
        return ("term", source)

    def typecheck(term, **kwargs):
        calls.append(("typecheck", term))
        return "ty"

    def compile_term(term):
        calls.append(("compile", term))
        return ("code", term)

    return LanguageFrontend(
        name="Toy", parse_expr=parse, parse_type=parse, typecheck=typecheck, compile=compile_term
    )


def test_pipeline_is_memoized_per_source():
    calls = []
    frontend = _make_frontend(calls)
    first = frontend.pipeline("(x)")
    again = frontend.pipeline("(x)")
    assert first is again
    assert len(calls) == 3  # parse/typecheck/compile ran exactly once
    frontend.pipeline("(y)")
    assert len(calls) == 6
    stats = frontend.cache_stats()
    assert (stats["entries"], stats["hits"], stats["misses"]) == (2, 1, 2)


def test_pipeline_caches_hashable_typecheck_kwargs():
    # Environments freeze to a sorted-tuple surrogate, so kwarg-carrying
    # calls hit the cache when (and only when) the environments are equal.
    calls = []
    frontend = _make_frontend(calls)
    first = frontend.pipeline("(x)", env={"a": "int"})
    again = frontend.pipeline("(x)", env={"a": "int"})
    assert first is again
    assert len(calls) == 3
    frontend.pipeline("(x)", env={"a": "bool"})  # different context recompiles
    assert len(calls) == 6
    frontend.pipeline("(x)")  # no-kwargs call is a distinct key
    stats = frontend.cache_stats()
    assert (stats["entries"], stats["hits"], stats["misses"]) == (3, 1, 3)


def test_pipeline_cache_bypassed_for_unhashable_kwargs():
    # Arguments with no hashable form never hit (or populate) the cache — a
    # wrong hit would return code compiled against a different context.
    calls = []
    frontend = _make_frontend(calls)

    class Opaque:
        __hash__ = None

    frontend.pipeline("(x)", env=Opaque())
    frontend.pipeline("(x)", env=Opaque())
    stats = frontend.cache_stats()
    assert (stats["entries"], stats["hits"], stats["misses"]) == (0, 0, 0)
    assert len(calls) == 6  # both calls ran the full pipeline


def test_pipeline_cache_is_lru_bounded():
    calls = []
    frontend = _make_frontend(calls)
    frontend.cache_capacity = 2
    frontend.pipeline("(a)")
    frontend.pipeline("(b)")
    frontend.pipeline("(a)")  # refresh (a): (b) is now least recent
    frontend.pipeline("(c)")  # evicts (b)
    stats = frontend.cache_stats()
    assert stats["entries"] == 2
    assert stats["evictions"] == 1
    frontend.pipeline("(a)")  # still cached
    assert frontend.cache_stats()["hits"] == 2
    frontend.pipeline("(b)")  # was evicted: recompiles
    assert frontend.cache_stats()["misses"] == 4


def test_pipeline_cache_can_be_disabled_and_cleared():
    calls = []
    frontend = _make_frontend(calls)
    frontend.cache_enabled = False
    assert frontend.pipeline("(x)") is not frontend.pipeline("(x)")
    frontend.cache_enabled = True
    frontend.pipeline("(x)")
    frontend.clear_cache()
    frontend.pipeline("(x)")
    assert frontend.cache_stats()["misses"] == 1  # cleared stats, recompiled


# -- cross-process cache export/import hooks ----------------------------------


def test_pipeline_cache_key_matches_the_frontend_key():
    frontend = _make_frontend([])
    assert frontend.cache_key("(x)") == pipeline_cache_key("Toy", "(x)")
    assert frontend.cache_key("(x)", {"env": {"a": "int"}}) == pipeline_cache_key(
        "Toy", "(x)", {"env": {"a": "int"}}
    )

    class Opaque:
        __hash__ = None

    # Unkeyable kwargs yield None on both sides: such submissions never share.
    assert frontend.cache_key("(x)", {"env": Opaque()}) is None
    assert pipeline_cache_key("Toy", "(x)", {"env": Opaque()}) is None


def test_export_and_import_cache_entries_round_trip():
    calls = []
    producer = _make_frontend(calls)
    consumer = _make_frontend(calls)
    unit = producer.pipeline("(x)")
    key = producer.cache_key("(x)")
    assert producer.export_cache_entry(key) is unit
    assert producer.export_cache_entry(("Toy", "(missing)", ())) is None

    # Importing counts as an import (not a hit or miss) and makes the
    # consumer's next pipeline call a hit without running parse/typecheck.
    assert consumer.import_cache_entry(key, unit)
    calls_before = len(calls)
    assert consumer.pipeline("(x)") is unit
    assert len(calls) == calls_before
    stats = consumer.cache_stats()
    assert (stats["imports"], stats["hits"], stats["misses"]) == (1, 1, 0)

    # Re-importing an already-resident key is a no-op (the resident unit
    # stays, with the machine code it has already built).
    assert not consumer.import_cache_entry(key, producer.pipeline("(x)"))
    assert consumer.cache_stats()["imports"] == 1


def test_imports_respect_capacity_and_eviction_accounting():
    frontend = _make_frontend([])
    frontend.cache_capacity = 2
    donor = _make_frontend([])
    for source in ("(a)", "(b)", "(c)"):
        unit = donor.pipeline(source)
        assert frontend.import_cache_entry(donor.cache_key(source), unit)
    stats = frontend.cache_stats()
    assert (stats["entries"], stats["imports"], stats["evictions"]) == (2, 3, 1)
    # The disabled cache refuses imports outright.
    frontend.cache_enabled = False
    assert not frontend.import_cache_entry(donor.cache_key("(d)"), donor.pipeline("(d)"))


def test_target_backend_registry_dispatch():
    def engine(label):
        return Engine(
            start=lambda unit, fuel: (label, "start", unit, fuel),
            restore=lambda snapshot: (label, "restore", snapshot["state"]),
        )

    backend = TargetBackend(
        name="T",
        engines={"substitution": engine("slow"), "cek": engine("fast")},
        default_backend="cek",
    )
    assert backend.backend_names() == ["substitution", "cek"]
    assert backend.start("u", fuel=7) == ("fast", "start", "u", 7)
    assert backend.start("u", backend="substitution", fuel=7) == ("slow", "start", "u", 7)
    # A bare snapshot routes by its kind's tail; an explicit name wins.
    snapshot = {"kind": "t/substitution", "state": 1}
    assert backend.restore(snapshot) == ("slow", "restore", 1)
    assert backend.restore(snapshot, backend="cek") == ("fast", "restore", 1)
    with pytest.raises(ReproError, match="warp-drive"):
        backend.start("u", backend="warp-drive")
    with pytest.raises(ReproError, match="bigstep"):
        backend.restore({"kind": "t/bigstep", "state": 1})


# -- misc -----------------------------------------------------------------------


def test_name_supply_is_fresh_and_marked():
    supply = NameSupply()
    first, second = supply.fresh("x"), supply.fresh("x")
    assert first != second
    assert is_generated_name(first)
    assert not is_generated_name("user_name")


def test_check_report_accumulates():
    report = CheckReport("demo")
    report.record_success(3)
    assert report.ok
    report.record_failure(Counterexample("bad", source_type="t"))
    assert not report.ok
    assert "FAILED" in report.summary()
    assert "bad" in str(report)
