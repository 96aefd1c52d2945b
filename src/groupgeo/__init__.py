"""Exact noncommutative Riemannian geometry of finite groups.

The package builds, in exact arithmetic over cyclotomic number fields, the
bicovariant differential calculus attached to a finite group and an
ad-stable generating set, then the bimodule connections on it: torsion and
cotorsion conditions, the distinguished torsion-free flat-Ricci connection,
curvature, Ricci contraction, a Dirac operator with its exact spectrum, and
polynomial spectral actions.

Most objects are plain classes holding exact matrices; the command line
entry point (``groupgeo``) serializes every result deterministically.
"""

from .errors import (
    AsymmetricSpectrumError,
    CayleyValidationError,
    GroupGeoError,
    IncompleteSpectrumError,
    InfeasibleSystemError,
    NonCyclicClassError,
    SingularMetricError,
    UnsupportedGroupError,
)
from .groups import ConjClass, FiniteGroup, dihedral

__all__ = [
    "Cyclotomic",
    "cyclo",
    "rat",
    "FiniteGroup",
    "ConjClass",
    "dihedral",
    "GroupGeoError",
    "CayleyValidationError",
    "UnsupportedGroupError",
    "NonCyclicClassError",
    "SingularMetricError",
    "IncompleteSpectrumError",
    "AsymmetricSpectrumError",
    "InfeasibleSystemError",
]

__version__ = "0.1.0"

# the scalar type loads on first use, so a command that refuses its input
# before any arithmetic never compiles it
_SCALARS = ("Cyclotomic", "cyclo", "rat")


def __getattr__(name):
    if name in _SCALARS:
        from . import cyclotomic

        return getattr(cyclotomic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
