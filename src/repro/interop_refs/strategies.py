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

This module builds StackLang programs realizing each strategy so that the
benchmark harness (``benchmarks/bench_ref_sharing_strategies.py``) can
measure the trade-off the paper argues qualitatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.stacklang.machine import MachineResult, run
from repro.stacklang.macros import drop, dup, swap
from repro.stacklang.syntax import (
    Alloc,
    Arr,
    Call,
    Idx,
    Lam,
    Num,
    Program,
    Push,
    Read,
    Thunk,
    Value,
    Var,
    Write,
    program,
)

#: Index of the reader thunk inside a proxy array.
PROXY_READER = 0
#: Index of the writer thunk inside a proxy array.
PROXY_WRITER = 1


def allocate_reference(initial: Value) -> Program:
    """``ref v`` — allocate a fresh location holding ``initial``."""
    return program(Push(initial), Alloc())


# ---------------------------------------------------------------------------
# Conversion glue for each strategy (applied to a program leaving a location)
# ---------------------------------------------------------------------------


def share_direct() -> Program:
    """Strategy 1: the no-op conversion of Fig. 4 (``ref bool ∼ ref int``)."""
    return ()


def share_copy(payload_conversion: Program = ()) -> Program:
    """Strategy 2: read the cell, convert the payload, allocate a fresh cell."""
    return program(Read(), payload_conversion, Alloc())


def share_proxy(payload_read_conversion: Program = (), payload_write_conversion: Program = ()) -> Program:
    """Strategy 3: wrap the location in ``[reader-thunk, writer-thunk]``.

    The reader thunk pushes the (converted) contents; the writer thunk takes
    the value to store on top of the stack, converts it, stores it, and pushes
    0 (mirroring the compilation of assignment).
    """
    reader = Thunk(program(Push(Var("proxy_loc")), Read(), payload_read_conversion))
    writer = Thunk(
        (
            Lam(
                ("proxy_value",),
                program(
                    Push(Var("proxy_loc")),
                    Push(Var("proxy_value")),
                    payload_write_conversion,
                    Write(),
                    Push(Num(0)),
                ),
            ),
        )
    )
    return (Lam(("proxy_loc",), (Push(Arr((reader, writer))),)),)


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
