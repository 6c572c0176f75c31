"""The three reference-sharing strategies discussed in §3 ("Discussion").

The paper points out that passing a mutable reference across the boundary can
be realized three ways, with different soundness requirements and costs:

1. **Direct sharing** (the case study's choice) — the conversion is a no-op;
   both languages alias the very same location.  Sound only when the referent
   interpretations coincide (``V[[τ]] = V[[τ̄]]``); zero per-access overhead.
2. **Copy-and-convert** — allocate a fresh location holding the converted
   contents.  Sound for any convertible referents, but the two languages no
   longer alias the same cell, and the conversion itself costs an allocation.
3. **Read/write proxies** — wrap the location in a pair of closures that
   convert on every access (cf. guarded references / chaperones).  Sound for
   any convertible referents and preserves aliasing, but every read and write
   pays for a call and a conversion.

The glue of each is a row of the refs rule table: Fig. 4's
``ref bool ∼ ref int``, :data:`~repro.interop_refs.conversions.SHARE_COPY` and
:data:`~repro.interop_refs.conversions.SHARE_PROXY`.  This module runs a
foreign language's accesses through each, so that the exact step-count laws
in ``tests/test_cost_laws.py`` can pin the trade-off the paper argues
qualitatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.convertibility import ConvertibilityRule
from repro.interop_refs.conversions import SHARE_COPY, SHARE_PROXY, make_convertibility
from repro.refhl import types as hl
from repro.refll import types as ll
from repro.stacklang.machine import MachineResult, run
from repro.stacklang.macros import drop, dup, swap
from repro.stacklang.syntax import Alloc, Call, Idx, Num, Program, Push, Read, Value, Write, program

#: Index of the reader thunk inside a proxy array.
PROXY_READER = 0
#: Index of the writer thunk inside a proxy array.
PROXY_WRITER = 1


def allocate_reference(initial: Value) -> Program:
    """``ref v`` — allocate a fresh location holding ``initial``."""
    return program(Push(initial), Alloc())


def _sharing_glue(*rows: ConvertibilityRule) -> Program:
    """The RefHL → RefLL glue of ``ref bool ∼ ref int``, with ``rows`` registered."""
    relation = make_convertibility()
    for row in rows:
        relation.register(row)
    return relation.require(hl.RefType(hl.BOOL), ll.RefType(ll.INT)).apply_a_to_b(())


def share_direct() -> Program:
    """Strategy 1: the no-op conversion of Fig. 4 (``ref bool ∼ ref int``)."""
    return _sharing_glue()


def share_copy() -> Program:
    """Strategy 2: read the cell, convert the payload, allocate a fresh cell."""
    return _sharing_glue(SHARE_COPY)


def share_proxy() -> Program:
    """Strategy 3: wrap the location in ``[reader-thunk, writer-thunk]``."""
    return _sharing_glue(SHARE_PROXY)


# ---------------------------------------------------------------------------
# Access sequences (what the foreign language does with the shared reference)
# ---------------------------------------------------------------------------


def repeated_reads_direct(count: int) -> Program:
    """Read a directly-shared location ``count`` times (location stays on the stack)."""
    once = program(dup("_rd"), Read(), drop("_rd"))
    return program(*([once] * max(count - 1, 0)), dup("_rd_last"), Read())


def repeated_reads_proxy(count: int) -> Program:
    """Read through a proxy ``count`` times (proxy stays on the stack)."""
    once = program(dup("_rp"), Push(Num(PROXY_READER)), Idx(), Call(), drop("_rp"))
    last = program(dup("_rp_last"), Push(Num(PROXY_READER)), Idx(), Call())
    return program(*([once] * max(count - 1, 0)), last)


def repeated_writes_direct(count: int, value: Value = Num(3)) -> Program:
    """Write a directly-shared location ``count`` times."""
    once = program(dup("_wd"), Push(value), Write())
    return program(*([once] * count))


def repeated_writes_proxy(count: int, value: Value = Num(3)) -> Program:
    """Write through a proxy ``count`` times."""
    once = program(
        dup("_wp"),
        Push(Num(PROXY_WRITER)),
        Idx(),
        Push(value),
        swap("_wp"),
        Call(),
        drop("_wp"),
    )
    return program(*([once] * count))


@dataclass
class StrategyWorkload:
    """A ready-to-run workload: share a reference one way, then access it."""

    name: str
    full_program: Program

    def run(self, fuel: int = 2_000_000) -> MachineResult:
        return run(self.full_program, fuel=fuel)

    def steps(self, fuel: int = 2_000_000) -> int:
        return self.run(fuel=fuel).steps


def build_read_workloads(count: int, initial: Value = Num(1)) -> Dict[str, StrategyWorkload]:
    """Workloads performing ``count`` foreign reads under each strategy."""
    reference = allocate_reference(initial)
    return {
        "direct": StrategyWorkload(
            "direct", program(reference, share_direct(), repeated_reads_direct(count))
        ),
        "copy": StrategyWorkload(
            "copy", program(reference, share_copy(), repeated_reads_direct(count))
        ),
        "proxy": StrategyWorkload(
            "proxy", program(reference, share_proxy(), repeated_reads_proxy(count))
        ),
    }


def build_write_workloads(count: int, initial: Value = Num(1)) -> Dict[str, StrategyWorkload]:
    """Workloads performing ``count`` foreign writes under each strategy."""
    reference = allocate_reference(initial)
    return {
        "direct": StrategyWorkload(
            "direct", program(reference, share_direct(), repeated_writes_direct(count))
        ),
        "copy": StrategyWorkload(
            "copy", program(reference, share_copy(), repeated_writes_direct(count))
        ),
        "proxy": StrategyWorkload(
            "proxy", program(reference, share_proxy(), repeated_writes_proxy(count))
        ),
    }
