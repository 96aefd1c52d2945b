"""Unitary representations with exact cyclotomic entries.

The catalog covers groups with dihedral structure: an index-2 cyclic
subgroup generated by some element of maximal order together with a
reflection.  The detection, groups.dihedral_structure, is structural, not
name-based, so a group loaded from a Cayley-table file (an S3 for
instance) gets the same catalog as the built-in construction.  A group
without that structure has no catalog: irreducibles raises
UnsupportedGroupError for it, and the command line refuses such a group
with the same check before it imports this module.

The spinor of the Dirac operator is the irreducible planar1, of dimension
2: rotation -> diag(z, z^-1) with z = zeta_(subgroup order), and each
reflection on the antidiagonal.  The eigenmode catalogs declare their
candidates in the irreducibles' coordinates.
"""

from __future__ import annotations

from .cyclotomic import ZERO, cyclo, rat
from .groups import FiniteGroup, dihedral_structure
from .linalg import Mat


class Representation:
    """A unitary representation: one exact matrix per group element."""

    __slots__ = ("group", "dim", "matrices", "name")

    def __init__(self, group: FiniteGroup, matrices, name: str = "rep"):
        mats = tuple(matrices)
        if len(mats) != group.order:
            raise ValueError("need one matrix per group element")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "dim", mats[0].nrows)
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "name", name)
        self._check()

    def __setattr__(self, *_):
        raise AttributeError("Representation is immutable")

    def _check(self):
        """rho(e) = 1, rho(a) rho(s) = rho(as) for every a and every s in the
        group's generators, and unitarity.  The h with rho(a) rho(h) = rho(ah)
        for all a contain e and are closed under right multiplication by the
        generators, so |S|.|G| products prove it for the whole group."""
        g = self.group
        if self.matrices[0] != Mat.identity(self.dim):
            raise ValueError(f"{self.name}: identity must map to the unit matrix")
        for s in g.generators:
            for a in range(g.order):
                if self.matrices[a] @ self.matrices[s] != self.matrices[g.mul(a, s)]:
                    raise ValueError(
                        f"{self.name}: not a homomorphism at ({g.label(a)}, {g.label(s)})")
        for a in range(g.order):
            if self.matrices[a].conj_transpose() != self.matrices[g.inv(a)]:
                raise ValueError(f"{self.name}: not unitary at {g.label(a)}")

    def __call__(self, element: int) -> Mat:
        return self.matrices[element]

    def __repr__(self):
        return f"Representation({self.name}, dim {self.dim} over {self.group.name})"


def _spinor_matrices(decomp, k: int) -> list[Mat]:
    """rho_k: rotation^i -> diag(z^(ki), z^(-ki)), reflection shifts to the
    antidiagonal; z = zeta_n (or zeta_2n would be redundant: k indexes the
    2-dimensional irreducible family)."""
    n = len(decomp) // 2
    out = []
    for flip, i in decomp:
        zp = cyclo(n, k * i)
        zm = cyclo(n, -k * i)
        if flip:
            out.append(Mat([[ZERO, zm], [zp, ZERO]]))
        else:
            out.append(Mat([[zp, ZERO], [ZERO, zm]]))
    return out


def _one_dim(decomp, sign_r: int, sign_s: int) -> list[Mat]:
    vals = []
    for flip, i in decomp:
        v = (sign_r ** i) * (sign_s ** flip)
        vals.append(Mat([[rat(v)]]))
    return vals


def irreducibles(group: FiniteGroup) -> list[Representation]:
    """The complete irreducible catalog of a dihedral-structured group.

    For rotation order n even: four 1-dimensional characters and n/2 - 1
    two-dimensional representations; for n odd: two characters and
    (n - 1)/2 two-dimensional ones.  Completeness is the standard dihedral
    classification (Serre, Linear Representations of Finite Groups,
    section 5.3); the test suite certifies sum-of-squares and character
    orthogonality exactly.
    """
    decomp = dihedral_structure(group)
    n = group.order // 2
    out = [Representation(group, _one_dim(decomp, 1, 1), name="trivial"),
           Representation(group, _one_dim(decomp, 1, -1), name="sign")]
    if n % 2 == 0:
        out.append(Representation(group, _one_dim(decomp, -1, 1), name="rot-parity"))
        out.append(Representation(group, _one_dim(decomp, -1, -1), name="rot-parity*sign"))
    top = (n - 1) // 2 if n % 2 else n // 2 - 1
    for k in range(1, top + 1):
        out.append(Representation(group, _spinor_matrices(decomp, k), name=f"planar{k}"))
    return out
