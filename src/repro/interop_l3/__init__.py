"""Case study 3 (§5): memory management & polymorphism (MiniML and L3)."""

from repro.interop_l3.conversions import LANGUAGE_A, LANGUAGE_B, make_convertibility
from repro.interop_l3.soundness import (
    DEFAULT_L3_CORPUS,
    DEFAULT_ML_CORPUS,
    check_convertibility_soundness,
    check_foreign_type_discipline,
    check_ownership_transfer,
    check_type_safety,
)
from repro.interop_l3.system import make_system

__all__ = [
    "LANGUAGE_A",
    "LANGUAGE_B",
    "make_convertibility",
    "DEFAULT_L3_CORPUS",
    "DEFAULT_ML_CORPUS",
    "check_convertibility_soundness",
    "check_foreign_type_discipline",
    "check_ownership_transfer",
    "check_type_safety",
    "make_system",
]
