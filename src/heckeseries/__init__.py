"""Exact Hilbert-series arithmetic for graded algebras built from Hecke
symmetries: partition combinatorics, symmetric functions, truncated series
with recurrence detection and root certificates, exact tensor-power linear
algebra, and cross-validation suites tying the routes together."""

from .partitions import (
    conjugate,
    dominance_leq,
    enumerate_partitions,
    in_hook,
    kostka,
    lr_coeff,
    partition_pairs,
    standard_tableaux_count,
)
from .series import (
    BirankCertificate,
    CertificateError,
    InconclusiveDetection,
    RationalForm,
    RootLocationError,
    TruncSeries,
    birank_certificate,
    detect_rational,
    diamond,
    exterior_from_symmetric,
    hankel_minor,
    predict_hom_series,
    sturm_all_roots_positive,
    total_positivity,
)
from .symfunc import (
    SymElement,
    hall_rep,
    hom_eval,
    inner_product,
    multiply,
    omega,
    schur_value,
    specialize_super,
    tensor_power_character,
    to_basis,
)
from .rmatrix import (
    BraidViolation,
    CapExceeded,
    HeckeSymmetry,
    HeckeViolation,
    build_standard,
    build_super,
    dim_e_component,
    dim_intertwiner,
    dim_quotient,
    exterior_dims,
    load_and_validate,
    symmetric_dims,
)
from .verify import (
    VerificationReport,
    suite_character,
    suite_hilbert,
    suite_homspace,
    suite_positivity,
)

__version__ = "0.1.0"
