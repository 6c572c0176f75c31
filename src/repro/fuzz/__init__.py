"""Differential fuzzing for the three interoperability systems.

A seeded generator (:mod:`repro.fuzz.generator`) emits well-typed-by-
construction programs — deep boundary crossings, GC churn, divergent runs,
tagged expected failures — for every case-study system; the oracle
(:mod:`repro.fuzz.oracle`) executes each on every registered backend and
compares observables, fuel accounting under snapshot/restore, and raw
post-``callgc`` heaps; the shrinker (:mod:`repro.fuzz.shrinker`) greedily
minimizes any disagreement; and the corpus (:mod:`repro.fuzz.corpus`)
persists counterexamples and replays them — alongside the promoted legacy
workloads — forever after.  ``tools/fuzz.py`` is the CLI; the same
generator feeds the multi-tenant QoS batch in ``tests/test_fuzz.py``.
"""

from repro.fuzz.corpus import (
    DEFAULT_CORPUS_DIR,
    LEGACY_DEPTHS,
    case_filename,
    legacy_corpus_entries,
    load_corpus,
    save_counterexample,
)
from repro.fuzz.generator import (
    DEFAULT_FUEL,
    DIVERGENT_FUEL,
    DIVERGENT_SOURCES,
    HOST_LANGUAGE,
    MAX_NODES,
    SYSTEM_NAMES,
    FuzzCase,
    FuzzGenerator,
    Node,
    Template,
    leaf,
)
from repro.fuzz.oracle import DifferentialOracle, Disagreement, make_systems
from repro.fuzz.shrinker import same_axis_predicate, shrink

__all__ = [
    "DEFAULT_CORPUS_DIR",
    "DEFAULT_FUEL",
    "DIVERGENT_FUEL",
    "DIVERGENT_SOURCES",
    "HOST_LANGUAGE",
    "LEGACY_DEPTHS",
    "MAX_NODES",
    "SYSTEM_NAMES",
    "DifferentialOracle",
    "Disagreement",
    "FuzzCase",
    "FuzzGenerator",
    "Node",
    "Template",
    "case_filename",
    "leaf",
    "legacy_corpus_entries",
    "load_corpus",
    "make_systems",
    "same_axis_predicate",
    "save_counterexample",
    "shrink",
]
