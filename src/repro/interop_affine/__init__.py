"""Case study 2 (§4): affine (Affi) and unrestricted (MiniML) interoperability."""

from repro.interop_affine.conversions import (
    LANGUAGE_A,
    LANGUAGE_B,
    make_convertibility,
)
from repro.interop_affine.model import AffineModel, affi_tag, ml_tag
from repro.interop_affine.phantom import PhantomConfig, PhantomResult, erase, phantom_run, phantom_step
from repro.interop_affine.soundness import (
    DEFAULT_AFFI_CORPUS,
    DEFAULT_CONVERTIBLE_PAIRS,
    DEFAULT_ML_CORPUS,
    DOUBLE_FORCE_PROGRAM,
    SINGLE_FORCE_PROGRAM,
    check_affine_enforcement,
    check_convertibility_soundness,
    check_phantom_erasure_agreement,
    check_type_safety,
)
from repro.interop_affine.system import make_system

__all__ = [
    "LANGUAGE_A",
    "LANGUAGE_B",
    "make_convertibility",
    "AffineModel",
    "affi_tag",
    "ml_tag",
    "PhantomConfig",
    "PhantomResult",
    "erase",
    "phantom_run",
    "phantom_step",
    "DEFAULT_AFFI_CORPUS",
    "DEFAULT_CONVERTIBLE_PAIRS",
    "DEFAULT_ML_CORPUS",
    "DOUBLE_FORCE_PROGRAM",
    "SINGLE_FORCE_PROGRAM",
    "check_affine_enforcement",
    "check_convertibility_soundness",
    "check_phantom_erasure_agreement",
    "check_type_safety",
    "make_system",
]
