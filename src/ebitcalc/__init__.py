"""Entanglement cost of stabilizer generator sets.

Computes how many ebits (or edits, or entangled modes) a set of
stabilizer-style generators consumes, for binary, two-parity-check,
quaternary, qudit, continuous-variable, and convolutional inputs, and
certifies each count with the symplectic Gram-Schmidt pairing procedure
and brute-force oracles.
"""

import importlib

# Public name -> defining submodule.  Names resolve on first access
# (PEP 562), so ``import ebitcalc`` loads no submodule and a binary
# command never pays for numpy.
_EXPORTS = {
    "errors": (
        "DegreeLimitError",
        "DependentRowsError",
        "EbitcalcError",
        "InternalInvariantError",
        "NonFiniteEntryError",
        "OddRankError",
        "ParseError",
        "ShapeError",
        "SizeLimitError",
        "UnsupportedModulusError",
    ),
    "gf2": ("BinMatrix", "RowReduction", "first_dependent_row", "rank", "row_reduce"),
    "gf4": ("GF4Matrix", "gf4_mul", "gf4_rank"),
    "symplectic": (
        "CodeParameters",
        "QuantumCheckMatrix",
        "SgsopResult",
        "code_parameters",
        "ebit_count",
        "symplectic_gram_schmidt",
        "symplectic_product_table",
    ),
    "classical": (
        "css_construct",
        "css_ebits",
        "css_parameters",
        "gf4_ebits",
        "gf4_parameters",
        "gf4_symplectic_rows",
    ),
    "qudit": ("ModMatrix", "mod_rank", "qudit_ebits"),
    "cv": ("DEFAULT_TOLERANCE", "cv_ebit_count", "numerical_rank"),
    "laurent": (
        "LaurentMatrix",
        "LaurentPoly",
        "MAX_EXPONENT",
        "conv_ebits",
        "css_conv_ebits",
        "gf4_conv_ebits",
        "laurent_rank",
        "shifted_symplectic_matrix",
    ),
    "verify": (
        "DEFAULT_SEED",
        "SweepResult",
        "VerificationReport",
        "gf4_rank_by_span_enumeration",
        "laurent_rank_by_evaluation",
        "random_check_matrix",
        "random_full_rank_matrix",
        "rank_by_span_enumeration",
        "rational_rank",
        "run_random_sweep",
        "verify_code",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
