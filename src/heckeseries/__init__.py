"""Exact Hilbert-series arithmetic for graded algebras built from Hecke
symmetries: partition combinatorics, symmetric functions, truncated series
with recurrence detection and root certificates, exact tensor-power linear
algebra, and cross-validation suites tying the routes together.

The public names below are resolved on first use (PEP 562), so importing
the package loads none of its modules; a command loads only what it runs."""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "partitions": (
        "conjugate",
        "enumerate_partitions",
        "in_hook",
        "kostka",
    ),
    "series": (
        "BirankCertificate",
        "CertificateError",
        "InconclusiveDetection",
        "RationalForm",
        "RootLocationError",
        "TruncSeries",
        "birank_certificate",
        "detect_rational",
        "diamond",
        "exterior_from_symmetric",
        "hankel_minor",
        "predict_hom_series",
        "sturm_all_roots_positive",
        "total_positivity",
    ),
    "symfunc": (
        "SymElement",
        "hall_rep",
        "hom_eval",
        "inner_product",
        "multiply",
        "omega",
        "schur_value",
        "specialize_super",
        "tensor_power_character",
        "to_basis",
    ),
    "rmatrix": (
        "BraidViolation",
        "CapExceeded",
        "HeckeSymmetry",
        "HeckeViolation",
        "build_standard",
        "build_super",
        "dim_e_component",
        "dim_intertwiner",
        "dim_quotient",
        "exterior_dims",
        "load_and_validate",
        "symmetric_dims",
    ),
    "verify": (
        "VerificationReport",
        "suite_character",
        "suite_hilbert",
        "suite_homspace",
        "suite_positivity",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
