"""Exact noncommutative Riemannian geometry of finite groups.

The package builds, in exact arithmetic over cyclotomic number fields, the
bicovariant differential calculus attached to a finite group and an
ad-stable generating set, then the bimodule connections on it: torsion and
cotorsion conditions, the distinguished torsion-free flat-Ricci connection,
curvature, Ricci contraction, a Dirac operator with its exact spectrum, and
polynomial spectral actions.

Most objects are plain classes holding exact matrices; the command line
entry point (``groupgeo``) serializes every result deterministically.
Import each name from its module (groups, errors, cyclotomic, ...).
"""

__version__ = "0.1.0"
