"""Equigeodesic vectors on geometric flag manifolds.

Decide and certify which tangent directions of F(n; n_1,...,n_s) generate
curves that are geodesic for every invariant metric, reduce them to a
block-unitary canonical form, and classify the closedness of the Killing
fields they generate through eigenvalue commensurability.

Submodules load on first use (PEP 562): ``import flagdesic`` imports none of
them, and ``from flagdesic import canonicalize`` imports only what
``flagdesic.equigeo`` needs.
"""

import importlib

__version__ = "0.1.0"

#: The public names, by the submodule that defines them.
_EXPORTS = {
    "closure": (
        "AllZeroSpectrum", "Closedness", "ClosednessVerdict", "SpectralData",
        "commensurability", "geodesic_return_distance", "is_killing_closed",
        "matrix_spectral_data", "spectral_data",
    ),
    "equigeo": (
        "CanonicalForm", "ConjugationInvariants", "EquigeodesicVerdict", "canonicalize",
        "conjugation_invariants", "equigeodesic_certificate", "equigeodesic_verdicts",
        "is_equigeodesic", "is_essentially_block_diagonal", "is_essentially_diagonal",
        "is_geodesic_vector",
    ),
    "examples": (
        "random_block_unitary", "random_equigeodesic", "random_essentially_diagonal",
        "random_metric",
    ),
    "flag": ("FlagPartition", "NotEquigeodesic", "TangentVector", "build_roots", "t_roots"),
    "gaussian": ("GaussianRational",),
    "linalg": (
        "CMatrix", "Mode", "NotSkewHermitian", "commutator", "project_m", "skew_spectrum",
    ),
    "metric": ("InvariantMetric", "hadamard_action", "metric_inner"),
    "roots": ("Root", "TRoot", "basis_unit", "weyl_vector"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # so flagdesic.closure and the rest work after a bare import
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
