"""Certified spectra: eigenvalues are the rational roots of the minimal
polynomials of unit vectors, each eigenspace the exact kernel of
(op - lambda id), and eigenspaces that do not fill the dimension raise
IncompleteSpectrumError; nothing is approximated.

A left-covariant operator sum_h M_h (x) R(h), in linalg's coefficient
form, is a direct sum of copies of smaller blocks: [G:H] copies of its
block on H = <C> (certify, for the wave), or dim rho copies of each
Peter-Weyl block B_rho = sum_h M_h (x) rho(h) (certify_blocks, for the
Dirac operator; Serre, Linear Representations of Finite Groups, 2.6).
Both count by one rule, _copies_spectrum.  A certified spectrum proves the
operator diagonalisable, so its minimal polynomial is read off it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .cyclotomic import ONE, ZERO, Cyclotomic, dot, rat
from .errors import GroupGeoError, IncompleteSpectrumError
from .linalg import Echelon, Mat, assemble, kernel_basis, quotient

if TYPE_CHECKING:
    from .groups import ConjClass
    from .representations import Representation


class Spectrum:
    """Exact eigenvalues with multiplicities that provably exhaust the
    operator dimension.

    multiplicities maps each value, which must be rational, to its
    multiplicity, in increasing order of value; pairs lists the same.
    """

    __slots__ = ("multiplicities", "dimension")

    def __init__(self, multiplicities: Mapping | Sequence[tuple], dimension: int):
        pairs = sorted(((rat(v), m) for v, m in dict(multiplicities).items()),
                       key=lambda item: item[0].as_fraction())
        total = sum(m for _, m in pairs)
        if total != dimension:
            raise IncompleteSpectrumError(total, dimension)
        object.__setattr__(self, "multiplicities", MappingProxyType(dict(pairs)))
        object.__setattr__(self, "dimension", dimension)

    def __setattr__(self, *_):
        raise AttributeError("Spectrum is immutable")

    @property
    def pairs(self) -> tuple[tuple[Cyclotomic, int], ...]:
        return tuple(self.multiplicities.items())

    def multiplicity(self, value) -> int:
        return self.multiplicities.get(rat(value), 0)

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.multiplicities)

    def __repr__(self):
        body = ", ".join(f"{v!r}: {m}" for v, m in self.pairs)
        return f"Spectrum({{{body}}}, dim={self.dimension})"


def eigenspaces(op: Mat) -> dict[Cyclotomic, list[list[Cyclotomic]]]:
    """Each eigenvalue of an exact operator, in increasing order, with a
    basis of its kernel: the rational roots of the minimal polynomial of
    e_0, then e_1, ... while the eigenspaces do not fill the dimension, each
    eigenspace from one exact reduction, so the kernels decide the
    multiplicities.  An operator that is not diagonalisable raises
    IncompleteSpectrumError, a polynomial that does not split over Q
    GroupGeoError."""
    n = op.nrows
    if n != op.ncols:
        raise ValueError("spectra are defined for square operators")
    ident = Mat.identity(n)
    spaces: dict[Cyclotomic, list[list[Cyclotomic]]] = {}
    filled = 0
    for start in range(n):
        if filled == n:
            break
        for root in _rational_roots(_vector_minimal_polynomial(op, start)):
            v = rat(root)
            if v not in spaces:
                spaces[v] = kernel_basis(op - ident * v)
                filled += len(spaces[v])
    if filled != n:
        raise IncompleteSpectrumError(filled, n)
    return dict(sorted(spaces.items(), key=lambda item: item[0].as_fraction()))


def spectrum(op: Mat) -> Spectrum:
    """The certified spectrum of an exact operator: the dimension of each
    of its eigenspaces."""
    return Spectrum({v: len(basis) for v, basis in eigenspaces(op).items()}, op.nrows)


def _copies_spectrum(blocks: Sequence[tuple[int, Mat]],
                     dimension: int) -> tuple[tuple[dict, ...], Spectrum]:
    """Each block's certified eigenspaces, and the spectrum of the operator
    of that dimension made, up to a change of basis, of the given number
    of copies of each block: lambda has multiplicity sum copies
    nullity(B - lambda).  Dimensions a block misses are missed in each
    copy; IncompleteSpectrumError states the operator's numbers."""
    spaces, counts, missing = [], {}, 0
    for copies, block in blocks:
        try:
            found = eigenspaces(block)
        except IncompleteSpectrumError as exc:
            missing += copies * (exc.dimension - exc.total)
            continue
        spaces.append(found)
        for v, basis in found.items():
            counts[v] = counts.get(v, 0) + copies * len(basis)
    if missing:
        raise IncompleteSpectrumError(dimension - missing, dimension)
    return tuple(spaces), Spectrum(counts, dimension)


def certify(coeffs: Mapping[int, Mat], C: ConjClass) -> Spectrum:
    """The certified spectrum of the spinor operator sum_h coeffs[h] (x) R(h)
    on W tensor (functions on G), read from its block on W tensor
    (functions on H), H = <C>.

    Every h must lie in H.  The operator commutes with left translation and
    keeps each left coset gH to itself, so it is [G:H] copies of the block.
    """
    subgroup = C.generated_subgroup()
    block = assemble(coeffs, C.group, subgroup)
    copies = C.group.order // len(subgroup)
    return _copies_spectrum([(copies, block)], block.nrows * copies)[1]


# ---------------------------------------------------------------------------
# Peter-Weyl blocks


class BlockForm(NamedTuple):
    """A spinor operator sum_h M_h (x) R(h) on W (x) C[G] by its blocks
    B_rho = sum_h M_h (x) rho(h), one per irreducible rho of G, their
    eigenspaces (eigenspaces of each block) and the operator's spectrum.

    The matrix coefficients rho_kl of a complete list of irreducibles are a
    basis of the functions on G (Peter-Weyl), and R(h) rho_kl =
    sum_m rho(h)[m, l] rho_km: for each row k the operator keeps
    W (x) {rho_k1, ..., rho_kd} and acts on its coordinates, component
    index slowest, by B_rho.  So it is the direct sum of dim rho copies
    (rho, k) of each B_rho; a vector of one copy is a mode ((rho's name,
    row k), its dim(W) dim(rho) coordinates).
    """

    irreps: tuple
    blocks: tuple
    eigenspaces: tuple
    spectrum: Spectrum

    def copy_blocks(self) -> list[Mat]:
        """The block of each copy, the copies of each irreducible in turn."""
        return [block for rho, block in zip(self.irreps, self.blocks) for _ in range(rho.dim)]

    def trace(self, blocks: Sequence[Mat]) -> Cyclotomic:
        """The trace on W (x) C[G] of the operator whose blocks, in this
        form's layout, are the given ones: dim rho copies of each."""
        total = ZERO
        for rho, block in zip(self.irreps, blocks):
            total = total + block.trace() * rho.dim
        return total


def irreducible_blocks(coeffs: Mapping[int, Mat], irreps: Sequence[Representation]) -> list[Mat]:
    """B_rho = sum_h coeffs[h] (x) rho(h) for each irreducible rho, the
    coefficient's index slowest: entry (i dim(rho) + k, j dim(rho) + l) is
    sum_h coeffs[h][i, j] rho(h)[k, l], one dot each."""
    hs = list(coeffs)
    shape = coeffs[hs[0]]
    weights = {(i, j): [coeffs[h][i, j] for h in hs]
               for i in range(shape.nrows) for j in range(shape.ncols)}
    out = []
    for rho in irreps:
        d = rho.dim
        images = [rho(h) for h in hs]
        out.append(Mat([[dot(weights[i, j], [m[k, l] for m in images])
                         for j in range(shape.ncols) for l in range(d)]
                        for i in range(shape.nrows) for k in range(d)]))
    return out


def certify_blocks(coeffs: Mapping[int, Mat], irreps: Sequence[Representation]) -> BlockForm:
    """The BlockForm of sum_h coeffs[h] (x) R(h) on W (x) C[G] for the given
    irreducibles of G.  The multiplicities fill the dimension dim(W) |G|
    only if the irreducibles are complete (IncompleteSpectrumError
    otherwise)."""
    blocks = irreducible_blocks(coeffs, irreps)
    first = irreps[0]
    dimension = blocks[0].nrows // first.dim * first.group.order
    spaces, spect = _copies_spectrum(
        [(rho.dim, block) for rho, block in zip(irreps, blocks)], dimension)
    return BlockForm(tuple(irreps), tuple(blocks), spaces, spect)


# ---------------------------------------------------------------------------
# minimal polynomials


def _vector_minimal_polynomial(op: Mat, start: int) -> list[Cyclotomic]:
    """Monic minimal polynomial of the unit vector e_start under op,
    low-to-high coefficients, by Krylov elimination (see Wiedemann, IEEE
    Trans. Inf. Theory 32, 1986): e_start, op e_start, op^2 e_start, ...
    join one linalg.Echelon, each with its power of op as a trailing
    column, and the first whose vector part reduces to zero holds the
    least p with p(op) e_start = 0, made monic by one division.  Its roots
    are eigenvalues of op, and every eigenvalue is a root for some start.
    """
    n = op.nrows
    echelon = Echelon(op.rows)
    power = [ONE if i == start else ZERO for i in range(n)]
    for degree in itertools.count():
        column = echelon.insert(echelon.clear(power + [ZERO] * degree + [ONE]))
        if column >= n:
            return quotient(echelon.pivots[column], n + degree, range(n, n + degree + 1))
        power = op @ power


def poly_from_roots(roots: Sequence) -> list[Cyclotomic]:
    """Monic polynomial with the given roots, low-to-high coefficients."""
    coeffs = [ONE]
    for r in roots:
        s = rat(r)
        coeffs = ([ZERO] + coeffs)
        for i in range(len(coeffs) - 1):
            coeffs[i] = coeffs[i] - s * coeffs[i + 1]
    return coeffs


def _poly_text(coeffs: Sequence[Cyclotomic]) -> str:
    """The polynomial as text; past 128 characters, its degree, start and length."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c:
            coef = repr(c) if c.is_rational() else f"({c!r})"
            power = "x" if k == 1 else f"x^{k}"
            terms.append(coef if k == 0 else power if coef == "1" else f"{coef}*{power}")
    text = " + ".join(terms).replace("+ -", "- ")
    if len(text) <= 128:
        return text
    return f"of degree {len(coeffs) - 1}, {text[:64]}... ({len(text)} characters)"


def _rational_roots(coeffs: list[Cyclotomic]) -> list[Fraction]:
    """The distinct roots of a monic exact polynomial of degree >= 1,
    required rational.

    Raises GroupGeoError, naming the polynomial, when a coefficient is
    irrational or when the polynomial does not split over the rationals:
    the spectrum then has eigenvalues outside Q, which are not certified.
    """
    try:
        fracs = [c.as_fraction() for c in coeffs]
    except ValueError as exc:
        raise GroupGeoError(
            f"minimal polynomial {_poly_text(coeffs)} has non-rational "
            "coefficients; eigenvalues outside Q are not certified") from exc
    # y = den * x turns p into a monic integer polynomial, whose rational
    # roots are integers
    n = len(fracs) - 1
    den = math.lcm(*(c.denominator for c in fracs))
    ints = [int(c * den ** (n - k)) for k, c in enumerate(fracs)]
    roots, distinct = _integer_roots(ints)
    if len(roots) < distinct:
        raise GroupGeoError(
            f"minimal polynomial {_poly_text(coeffs)} does not split into "
            "rational linear factors; eigenvalues outside Q are not certified")
    return [Fraction(r, den) for r in roots]


def _poly_divmod(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of dense rational polynomials (low-to-high coeffs)."""
    num = list(num)
    q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    dlead = den[-1]
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1] / dlead
        if c:
            q[k] = c
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    rem = num[: len(den) - 1] or [Fraction(0)]
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return q, rem


def _primitive(poly: Sequence[Fraction]) -> list[int]:
    den = math.lcm(*(c.denominator for c in poly))
    ints = [int(c * den) for c in poly]
    g = math.gcd(*ints)
    return [c // g for c in ints]


def _value_mod(poly: Sequence[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % m
    return acc


def _integer_roots(ints: list[int]) -> tuple[list[int], int]:
    """The integer roots of a monic integer polynomial p of degree >= 1, and
    the number of its distinct complex roots, by p-adic lifting (Loos,
    SIAM J. Comput. 12, 1983).

    q = p / gcd(p, p'), by Euclid over Q, has p's roots, each simple.  At
    the smallest prime l that divides neither q's leading coefficient nor
    q' at any root of q mod l, each of those roots is lifted by Newton's
    step, which squares the modulus and carries 1/q'(r) by its own Newton
    step, until the modulus exceeds twice Fujiwara's bound on |root|.  A
    symmetric residue is kept only where q vanishes exactly.  The cost
    follows the degree, not the digits.

    The search for l ends: q is squarefree, so its discriminant is not
    zero, and at a prime l that divides neither lc(q) nor disc(q), q mod l
    has no repeated root, so q' vanishes at none of its roots mod l.  The
    search stops at the first such prime, if not before.  Euclid's loop
    ends as the degree falls, and each lift as the modulus squares.
    """
    p = prev = [Fraction(c) for c in ints]
    gcd = [k * c for k, c in enumerate(p)][1:]
    while any(rem := _poly_divmod(prev, gcd)[1]):
        prev, gcd = gcd, [Fraction(c) for c in _primitive(rem)]
    q = _primitive(_poly_divmod(p, gcd)[0])
    dq = [k * c for k, c in enumerate(q)][1:]
    for ell in itertools.count(2):
        starts = [r for r in range(ell) if _value_mod(q, r, ell) == 0]
        if (q[-1] % ell and all(ell % d for d in range(2, math.isqrt(ell) + 1))
                and all(_value_mod(dq, r, ell) for r in starts)):
            break
    # |root| <= 2 max_k |c_{n-k}|^(1/k) <= bound
    bound = 2 ** (1 + max(-(-abs(c).bit_length() // k)
                          for k, c in enumerate(reversed(ints[:-1]), 1)))
    roots = []
    for r in starts:
        mod, inv = ell, pow(_value_mod(dq, r, ell), -1, ell)
        while mod <= 2 * bound:
            mod *= mod
            r = (r - _value_mod(q, r, mod) * inv) % mod
            inv = inv * (2 - _value_mod(dq, r, mod) * inv) % mod
        r -= mod if 2 * r > mod else 0
        if sum(c * r ** k for k, c in enumerate(q)) == 0:
            roots.append(r)
    return sorted(roots), len(q) - 1
