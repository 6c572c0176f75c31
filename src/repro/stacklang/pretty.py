"""Pretty printer for StackLang programs and configurations."""

from __future__ import annotations

from repro.stacklang.machine import Config, FailStack
from repro.stacklang.syntax import (
    Add,
    Alloc,
    Arr,
    Call,
    Fail,
    Idx,
    If0,
    Instruction,
    Lam,
    Len,
    Less,
    Loc,
    Num,
    Program,
    Push,
    Read,
    Thunk,
    Value,
    Var,
    Write,
)


def format_value(value: Value) -> str:
    """Render a StackLang value."""
    if isinstance(value, Num):
        return str(value.number)
    if isinstance(value, Loc):
        return f"loc({value.address})"
    if isinstance(value, Thunk):
        return f"thunk{{{format_program(value.program)}}}"
    if isinstance(value, Arr):
        return "[" + ", ".join(format_value(item) for item in value.items) + "]"
    if isinstance(value, Var):
        return value.name
    return repr(value)


def format_instruction(instruction: Instruction) -> str:
    """Render one instruction."""
    if isinstance(instruction, Push):
        return f"push {format_value(instruction.operand)}"
    if isinstance(instruction, Add):
        return "add"
    if isinstance(instruction, Less):
        return "less?"
    if isinstance(instruction, If0):
        return (
            f"if0 ({format_program(instruction.then_program)}) "
            f"({format_program(instruction.else_program)})"
        )
    if isinstance(instruction, Lam):
        return f"lam {', '.join(instruction.binders)}. ({format_program(instruction.body)})"
    if isinstance(instruction, Call):
        return "call"
    if isinstance(instruction, Idx):
        return "idx"
    if isinstance(instruction, Len):
        return "len"
    if isinstance(instruction, Alloc):
        return "alloc"
    if isinstance(instruction, Read):
        return "read"
    if isinstance(instruction, Write):
        return "write"
    if isinstance(instruction, Fail):
        return f"fail {instruction.code}"
    return repr(instruction)


def format_program(program: Program) -> str:
    """Render a program on one line."""
    return ", ".join(format_instruction(instruction) for instruction in program)


def format_config(config: Config) -> str:
    """Render a configuration ⟨H; S; P⟩."""
    heap = "{" + ", ".join(f"{address}: {format_value(value)}" for address, value in sorted(config.heap.items())) + "}"
    if isinstance(config.stack, FailStack):
        stack = f"Fail {config.stack.code}"
    else:
        stack = "[" + ", ".join(format_value(value) for value in config.stack) + "]"
    return f"⟨{heap}; {stack}; {format_program(config.program)}⟩"
