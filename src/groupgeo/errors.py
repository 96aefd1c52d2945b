"""Exception hierarchy shared across the package.

Everything raised on purpose derives from GroupGeoError so callers (and the
command line driver) can separate expected failures from genuine bugs.
"""


class GroupGeoError(Exception):
    """Base class for all errors raised by this package."""


class CayleyValidationError(GroupGeoError):
    """A multiplication table failed one of the group axioms.

    The message names the first violated axiom and the offending entries.
    """


class UnsupportedGroupError(GroupGeoError):
    """The requested construction needs structure this group does not have."""


class NonCyclicClassError(GroupGeoError):
    """The chosen conjugacy class is not 'cyclic': no member t exists whose
    conjugation action cyclically permutes the remaining members while
    a -> a t a^-1 permutes the whole class.  Also raised for classes that are
    too small (fewer than 2 members) or contain the identity."""


class SingularMetricError(GroupGeoError):
    """A metric-dependent normalization hit a parameter value where the
    relevant bilinear form degenerates."""


class IncompleteSpectrumError(GroupGeoError):
    """Certified eigenspaces that do not fill the space: their dimensions
    sum to total, short of the operator dimension.  When spectrum() raises
    it, every start vector has been tried, so the operator is not
    diagonalisable."""

    def __init__(self, total: int, dimension: int):
        super().__init__(
            f"multiplicities sum to {total} but the operator dimension is "
            f"{dimension}; the spectrum misses {dimension - total} dimensions")
        self.total = total
        self.dimension = dimension


class AsymmetricSpectrumError(GroupGeoError):
    """A chirality operator needs a spectrum symmetric about zero; the
    certified spectrum is not."""


class InfeasibleSystemError(GroupGeoError):
    """An exact linear system that was expected to be solvable has no
    solution."""
