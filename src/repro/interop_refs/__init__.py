"""Case study 1 (§3): shared-memory interoperability between RefHL and RefLL."""

from repro.interop_refs.conversions import (
    LANGUAGE_A,
    LANGUAGE_B,
    NO_OP,
    make_convertibility,
)
from repro.interop_refs.model import RefsModel, hl_tag, ll_tag
from repro.interop_refs.soundness import (
    DEFAULT_CONVERTIBLE_PAIRS,
    DEFAULT_REFHL_CORPUS,
    DEFAULT_REFLL_CORPUS,
    check_convertibility_soundness,
    check_fundamental_property,
    check_reference_sharing_requires_identical_interpretations,
    check_type_safety,
)
from repro.interop_refs.system import make_system

__all__ = [
    "LANGUAGE_A",
    "LANGUAGE_B",
    "NO_OP",
    "make_convertibility",
    "RefsModel",
    "hl_tag",
    "ll_tag",
    "DEFAULT_CONVERTIBLE_PAIRS",
    "DEFAULT_REFHL_CORPUS",
    "DEFAULT_REFLL_CORPUS",
    "check_convertibility_soundness",
    "check_fundamental_property",
    "check_reference_sharing_requires_identical_interpretations",
    "check_type_safety",
    "make_system",
]
