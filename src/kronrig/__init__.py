"""Exact low-rank-plus-sparse certificates for Kronecker products."""

from .cert import (
    Certificate,
    compose_kron,
    compose_product,
    conjugate_cert,
    full_cert,
    monomial_cert,
    split_g_kron,
    subset_expand_combine,
    transpose_cert,
    verify_cert,
)
from .field import (
    FieldMismatchError,
    FieldZeroDivisionError,
    PrimeField,
    QQ,
    RationalField,
    field_from_header,
)
from .fileio import (
    FileFormatError,
    read_cert,
    read_matrix,
    write_cert,
    write_matrix,
    write_report,
)
from .hadamard import (
    is_hadamard,
    normalize_signs,
    paley_type_one,
    paley_type_two,
    walsh,
    walsh_factors,
)
from .matrix import (
    DENSE_CELL_CAP,
    ExactMatrix,
    KRON_ORDER_CAP,
    KroneckerSpec,
    MonomialMatrix,
    SizeCapError,
    random_invertible,
)
from .oracle import (
    OracleCapError,
    OracleResult,
    brute_rc_rigidity,
    brute_rigidity,
)
from .pipeline import (
    bucket_pipeline,
    decompose_kron_product,
    hadamard_family_pipeline,
    predict_parameters,
)
from .scores import WeightScheme

__all__ = [
    "Certificate",
    "DENSE_CELL_CAP",
    "ExactMatrix",
    "FieldMismatchError",
    "FieldZeroDivisionError",
    "FileFormatError",
    "KRON_ORDER_CAP",
    "KroneckerSpec",
    "MonomialMatrix",
    "OracleCapError",
    "OracleResult",
    "PrimeField",
    "QQ",
    "RationalField",
    "SizeCapError",
    "WeightScheme",
    "brute_rc_rigidity",
    "brute_rigidity",
    "bucket_pipeline",
    "compose_kron",
    "compose_product",
    "conjugate_cert",
    "decompose_kron_product",
    "field_from_header",
    "full_cert",
    "hadamard_family_pipeline",
    "is_hadamard",
    "monomial_cert",
    "normalize_signs",
    "paley_type_one",
    "paley_type_two",
    "predict_parameters",
    "random_invertible",
    "read_cert",
    "read_matrix",
    "split_g_kron",
    "subset_expand_combine",
    "transpose_cert",
    "verify_cert",
    "walsh",
    "walsh_factors",
    "write_cert",
    "write_matrix",
    "write_report",
]

__version__ = "0.1.0"
