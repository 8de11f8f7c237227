"""Equigeodesic vectors on geometric flag manifolds.

Decide and certify which tangent directions of F(n; n_1,...,n_s) generate
curves that are geodesic for every invariant metric, reduce them to a
block-unitary canonical form, and classify the closedness of the Killing
fields they generate through eigenvalue commensurability.
"""

from .closure import (
    AllZeroSpectrum,
    Closedness,
    ClosednessVerdict,
    SpectralData,
    commensurability,
    coset_return_probe,
    is_killing_closed,
    matrix_spectral_data,
    spectral_data,
)
from .equigeo import (
    CanonicalForm,
    ConjugationInvariants,
    EquigeodesicVerdict,
    NotEquigeodesic,
    canonicalize,
    conjugation_invariants,
    equigeodesic_certificate,
    is_equigeodesic,
    is_essentially_block_diagonal,
    is_essentially_diagonal,
    is_geodesic_vector,
    random_block_unitary,
    random_equigeodesic,
    random_essentially_diagonal,
)
from .flag import (
    FlagPartition,
    Root,
    TangentVector,
    TRoot,
    basis_unit,
    build_roots,
    t_roots,
    weyl_vector,
)
from .linalg import (
    CMatrix,
    ExactSpectrumUnavailable,
    GaussianRational,
    Mode,
    NotSkewHermitian,
    Scalar,
    commutator,
    killing_inner,
    project_m,
    skew_spectrum,
    unitary_exp,
)
from .metric import (
    InvariantMetric,
    basis_metric,
    hadamard_action,
    metric_inner,
    random_metric,
)

__version__ = "0.1.0"

__all__ = [
    "AllZeroSpectrum",
    "CanonicalForm",
    "Closedness",
    "ClosednessVerdict",
    "CMatrix",
    "ConjugationInvariants",
    "EquigeodesicVerdict",
    "ExactSpectrumUnavailable",
    "FlagPartition",
    "GaussianRational",
    "InvariantMetric",
    "Mode",
    "NotEquigeodesic",
    "NotSkewHermitian",
    "Root",
    "Scalar",
    "SpectralData",
    "TangentVector",
    "TRoot",
    "basis_metric",
    "basis_unit",
    "build_roots",
    "canonicalize",
    "commensurability",
    "commutator",
    "conjugation_invariants",
    "coset_return_probe",
    "equigeodesic_certificate",
    "hadamard_action",
    "is_equigeodesic",
    "is_essentially_block_diagonal",
    "is_essentially_diagonal",
    "is_geodesic_vector",
    "is_killing_closed",
    "killing_inner",
    "matrix_spectral_data",
    "metric_inner",
    "project_m",
    "random_block_unitary",
    "random_equigeodesic",
    "random_essentially_diagonal",
    "random_metric",
    "skew_spectrum",
    "spectral_data",
    "t_roots",
    "unitary_exp",
    "weyl_vector",
]
