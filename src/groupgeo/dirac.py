"""Spinor geometry: metric, gamma matrices, Dirac and wave operators, spectra.

The frame metric on a class of size n pairs the basis 1-forms through
eta^{ab} = delta_{ab} + mu for a single rational modulus mu; it degenerates
exactly at mu = -1/n.  Gamma matrices act on a chosen carrier representation
W and come with the quadratic-casimir normalisation 1/(1 + 4 mu), which is
singular at mu = -1/4; both degenerate values raise SingularMetricError.

A spinor operator is a group-algebra element sum_h M_h (x) R(h) in the
coefficient form of linalg: constant dim(W) x dim(W) coefficients M_h,
every h in {e}, the class or its products, so inside H = <C>, and the
spinor components as the components of linalg's layout.  dirac_operator
and wave_operator return the coefficients {h: M_h}, which linalg
assembles and compares.

Spectra are certified from the operator alone, never approximated: the
eigenvalues are the rational roots of the minimal polynomials of unit
vectors under the operator, each eigenspace is the exact kernel of
(op - lambda id), and the eigenspaces must fill the full dimension or the
computation refuses to answer (IncompleteSpectrumError).  A Spectrum keeps
the values and their multiplicities, no eigenvectors.  certify assembles
an operator's block on H from its coefficients and certifies the block,
stating the operator on G by its copy count [G:H]; the wave report
certifies its operator that way.  certify_blocks certifies an operator on
a group with known irreducibles from its Peter-Weyl blocks
B_rho = sum_h M_h (x) rho(h), each of size dim(W) dim(rho), at most 4 x 4
for the dihedral spinor (Serre, Linear Representations of Finite Groups,
section 2.6; Diaconis, Group Representations in Probability and
Statistics, ch. 2), and its BlockForm keeps each block's eigenspaces; the
Dirac reports certify their operator that way.  A certified spectrum
proves the operator diagonalisable, so chirality gradings and minimal
polynomials are read off it and its blocks without a second reduction.

The eigenmode catalogs declare a closed-form list of claimed eigenvectors
as a table in block coordinates (BlockForm), and one scorer replays it
against the blocks of the operator a report holds, one block product per
candidate, and its certified spectrum, whose multiplicities it reads.
Candidates that are identically zero are reported as such, surviving
candidates are verified exactly, and any gap between the span of the
verified modes and the true multiplicity is reported together with
explicit completion modes.  Shortfalls are reported, not asserted away.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .cyclotomic import Cyclotomic, dot, rat
from .errors import (
    AsymmetricSpectrumError,
    GroupGeoError,
    IncompleteSpectrumError,
    SingularMetricError,
    UnsupportedGroupError,
)
from .groups import ConjClass, require_invertible_metric
from .linalg import Mat, as_scalar, assemble, inverse, kernel_basis, rref

if TYPE_CHECKING:
    from .connections import Connection
    from .reporting import Geometry
    from .representations import Representation

_ZERO = rat(0)
_ONE = rat(1)


# ---------------------------------------------------------------------------
# metric


def metric(cls: ConjClass, mu) -> tuple[Mat, Mat]:
    """The pairing eta^{ab} = delta_{ab} + mu and its exact inverse, as
    matrices indexed by class position.

    The coframe of the a-th basis 1-form has coefficient row eta[b][a] over
    b, which for this symmetric family is just the a-th row again.  Raises
    SingularMetricError at mu = -1/n where the all-ones perturbation
    cancels the identity on the diagonal sum.
    """
    mu = Fraction(mu)
    n = cls.size
    require_invertible_metric(n, mu)
    eta = Mat([[rat(mu) + (_ONE if i == j else _ZERO) for j in range(n)]
               for i in range(n)])
    # inverse of I + mu J in closed form: I - mu/(1 + n mu) J
    c = Fraction(mu, 1 + n * mu)
    eta_inv = Mat([[rat(-c) + (_ONE if i == j else _ZERO) for j in range(n)]
                   for i in range(n)])
    assert eta @ eta_inv == Mat.identity(n)
    return eta, eta_inv


# ---------------------------------------------------------------------------
# casimir and gamma matrices


def _require_gamma_admissible(cls: ConjClass, mu: Fraction) -> None:
    require_invertible_metric(cls.size, mu)
    if 1 + 4 * mu == 0:
        raise SingularMetricError(
            "casimir normalisation 1/(1 + 4 mu) is singular at mu = -1/4")


def casimir(rep: Representation, C: ConjClass, mu=Fraction(0)) -> Mat:
    """The quadratic casimir of the class in the given representation.

    In the group algebra this is the sum over class members a of
    (a^-1 - e)^2, scaled by 1/(1 + 4 mu).  On any representation whose
    class-sum vanishes the result is a scalar matrix; the trivial
    representation gives zero.
    """
    mu = Fraction(mu)
    _require_gamma_admissible(C, mu)
    group = rep.group
    dim = rep.dim
    total = Mat.zeros(dim, dim)
    ident = Mat.identity(dim)
    for a in C.members:
        ia = group.inv(a)
        square = rep(group.mul(ia, ia))
        total = total + square - rep(ia) * rat(2) + ident
    return total * rat(Fraction(1, 1 + 4 * mu))


def gamma_matrices(rep: Representation, C: ConjClass, mu=Fraction(0)) -> dict[int, Mat]:
    """One gamma matrix per class member, keyed by group element index.

    The casimir convention of the Dirac operator: the translation part
    rho(a^-1) - id shifted by 4 mu/(1 + 4 mu) times the identity.
    """
    mu = Fraction(mu)
    _require_gamma_admissible(C, mu)
    ident = Mat.identity(rep.dim)
    shift = rat(Fraction(4 * mu, 1 + 4 * mu))
    return {a: rep(rep.group.inv(a)) - ident + ident * shift for a in C.members}


# ---------------------------------------------------------------------------
# spinor operators as group-algebra elements


def dirac_operator(rep: Representation, A: Connection, mu=Fraction(0)) -> dict[int, Mat]:
    """The Dirac operator as its group-algebra coefficients {h: M_h}.

    The free part couples each gamma matrix to the corresponding partial
    translation R_a - id; the connection part subtracts, for every pair of
    class members, the gamma-weighted translation generator times the
    coefficient of the connection.  With constant coefficients the
    operator is the group-algebra element with coefficient M_a = gamma_a
    at each class member a and the rest at the identity; assemble writes
    its matrix on G or on H = <C>, C the class of the connection's
    calculus.  Raises ValueError on a representation of another group and
    on a connection whose coefficients vary over the group.
    """
    mu = Fraction(mu)
    group = rep.group
    C = A.calculus.cls
    if C.group != group:
        raise ValueError("the representation and the connection must share one group")
    gammas = gamma_matrices(rep, C, mu)
    ident_w = Mat.identity(rep.dim)
    coeffs = {0: Mat.zeros(rep.dim, rep.dim)}
    for a in C.members:
        coeffs[a] = gammas[a]
        coeffs[0] = coeffs[0] - gammas[a]
    for apos, a in enumerate(C.members):
        tau = rep(group.inv(a)) - ident_w
        for bpos, b in enumerate(C.members):
            value = A.coefficient(apos, bpos).constant_value
            if value is None:
                raise ValueError(
                    "the Dirac operator needs a connection with constant "
                    f"coefficients; A_{group.label(a)} varies over the group "
                    f"in its e_{group.label(b)} coefficient")
            coeffs[0] = coeffs[0] - (gammas[b] @ tau) * value
    return coeffs


def wave_operator(C: ConjClass, mu=Fraction(0)) -> dict[int, Mat]:
    """The scalar wave operator, minus the inverse-metric contraction of the
    second partial translations, as its group-algebra coefficients
    {h: 1 x 1 matrix}.

    Each product (R_a - 1)(R_b - 1) expands to R_ab - R_a - R_b + 1, so the
    operator is supported on H = <C>.  At mu = 0 on an involutive class it
    collapses to twice the class translation sum minus twice the class
    size.
    """
    mu = Fraction(mu)
    eta_inv = metric(C, mu)[1]
    group = C.group
    coeffs: dict[int, Cyclotomic] = {}
    for apos, a in enumerate(C.members):
        for bpos, b in enumerate(C.members):
            w = eta_inv[apos, bpos]
            for h, sign in ((group.mul(a, b), -1), (a, 1), (b, 1), (0, -1)):
                coeffs[h] = coeffs.get(h, _ZERO) + w * sign
    return {h: Mat([[c]]) for h, c in coeffs.items()}


# ---------------------------------------------------------------------------
# certified spectra


class Spectrum:
    """Exact eigenvalues with multiplicities that provably exhaust the
    operator dimension.

    multiplicities maps each value, which must be rational, to its
    multiplicity, in increasing order of value; pairs lists the same.
    """

    __slots__ = ("multiplicities", "dimension")

    def __init__(self, multiplicities: Mapping | Sequence[tuple], dimension: int):
        pairs = sorted(((as_scalar(v), m) for v, m in dict(multiplicities).items()),
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
        return self.multiplicities.get(as_scalar(value), 0)

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.multiplicities)

    def __repr__(self):
        body = ", ".join(f"{v!r}: {m}" for v, m in self.pairs)
        return f"Spectrum({{{body}}}, dim={self.dimension})"


def eigenspaces(op: Mat) -> dict[Cyclotomic, list[list[Cyclotomic]]]:
    """Certify the eigenspaces of an exact operator from the operator alone:
    each eigenvalue, in increasing order, with a basis of its kernel.

    The eigenvalues are the rational roots of the minimal polynomial of the
    unit vector e_0 under op; while the eigenspaces found so far do not
    fill the dimension, e_1, e_2, ... are tried in index order.  Each
    distinct root's eigenspace is the kernel of (op - lambda id), from one
    exact reduction, so the kernels, not the polynomial, decide the
    multiplicities.  If they do not exhaust the dimension after every basis
    vector, the operator is not diagonalisable and IncompleteSpectrumError
    is raised; a vector polynomial that does not split over Q raises
    GroupGeoError.  No eigenvalue is ever reported on numerical evidence.
    """
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


def certify(coeffs: Mapping[int, Mat], C: ConjClass) -> Spectrum:
    """The certified spectrum of the spinor operator sum_h coeffs[h] (x) R(h)
    on W tensor (functions on G), read from its block on W tensor
    (functions on H), H = <C>.

    Every h must lie in H.  The operator commutes with left translation and
    keeps each left coset gH to itself, so it is [G:H] copies of the block
    (each block eigenvector, carried to a coset by left translation, is an
    eigenvector of the operator).  The spectrum counts each of the block's
    multiplicities [G:H] times; an incomplete block spectrum is reported
    with the operator's numbers.
    """
    subgroup = C.generated_subgroup()
    block = assemble(coeffs, C.group, subgroup)
    copies = C.group.order // len(subgroup)
    try:
        block_spect = spectrum(block)
    except IncompleteSpectrumError as exc:
        raise IncompleteSpectrumError(exc.total * copies, exc.dimension * copies) from exc
    return Spectrum({v: m * copies for v, m in block_spect.pairs}, block.nrows * copies)


# ---------------------------------------------------------------------------
# Peter-Weyl blocks


class BlockForm(NamedTuple):
    """A spinor operator sum_h M_h (x) R(h) on W (x) C[G] by its blocks
    B_rho = sum_h M_h (x) rho(h), one per irreducible rho of G, and their
    certified eigenspaces.

    The matrix coefficients rho_kl: g -> rho(g)[k, l] of a complete list of
    irreducibles are a basis of the functions on G (Peter-Weyl), and
    R(h) rho_kl = sum_m rho(h)[m, l] rho_km.  So for each row k the
    functions W (x) {rho_k1, ..., rho_kd} are kept by the operator, which
    acts on their coordinates, component index slowest as in
    irreducible_blocks, by B_rho: the operator is, up to that change of
    basis, the direct sum of the copies, dim rho copies (rho, k) of each
    B_rho.  A vector of one copy is a mode: ((rho's name, row k), its
    dim(W) dim(rho) coordinates).  eigenspaces holds, per block, each of
    its eigenvalues with a kernel basis of B_rho - lambda, as from
    dirac.eigenspaces.
    """

    irreps: tuple
    blocks: tuple
    eigenspaces: tuple

    def copy_blocks(self) -> list[Mat]:
        """The block of each copy, the copies of each irreducible in turn."""
        return [block for rho, block in zip(self.irreps, self.blocks) for _ in range(rho.dim)]

    def spectrum(self) -> Spectrum:
        """The certified spectrum of the operator on W (x) C[G]: the
        multiplicity of lambda is sum_rho dim(rho) nullity(B_rho - lambda).
        The multiplicities fill the dimension dim(W) |G| only if the
        irreducibles are complete (IncompleteSpectrumError otherwise)."""
        counts: dict[Cyclotomic, int] = {}
        for rho, spaces in zip(self.irreps, self.eigenspaces):
            for v, basis in spaces.items():
                counts[v] = counts.get(v, 0) + rho.dim * len(basis)
        return Spectrum(counts, self.dimension())

    def dimension(self) -> int:
        """dim(W) |G|, the dimension of the operator's space."""
        rho = self.irreps[0]
        return self.blocks[0].nrows // rho.dim * rho.group.order

    def trace(self, blocks: Sequence[Mat]) -> Cyclotomic:
        """The trace on W (x) C[G] of the operator whose blocks, in this
        form's layout, are the given ones: dim rho copies of each."""
        total = _ZERO
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


def certify_blocks(coeffs: Mapping[int, Mat],
                   irreps: Sequence[Representation]) -> tuple[BlockForm, Spectrum]:
    """The blocks of sum_h coeffs[h] (x) R(h) on W (x) C[G] for the given
    irreducibles of G with their certified eigenspaces, and the certified
    spectrum of the operator (BlockForm.spectrum).

    An incomplete block spectrum is reported with the operator's numbers.
    """
    blocks = irreducible_blocks(coeffs, irreps)
    spaces, missing = [], 0
    for rho, block in zip(irreps, blocks):
        try:
            spaces.append(eigenspaces(block))
        except IncompleteSpectrumError as exc:
            missing += rho.dim * (exc.dimension - exc.total)
    form = BlockForm(tuple(irreps), tuple(blocks), tuple(spaces))
    if missing:
        raise IncompleteSpectrumError(form.dimension() - missing, form.dimension())
    return form, form.spectrum()


# ---------------------------------------------------------------------------
# minimal polynomials


def _vector_minimal_polynomial(op: Mat, start: int) -> list[Cyclotomic]:
    """Monic minimal polynomial of the unit vector e_start under op,
    low-to-high coefficients.

    Krylov elimination on e_start, op e_start, op^2 e_start, ... (see
    Wiedemann, IEEE Trans. Inf. Theory 32, 1986): each new vector is
    reduced against the pivots found so far while tracking the combination
    of powers that produced it; the first vector that reduces to zero
    gives the least p with p(op) e_start = 0.  Its roots are eigenvalues of
    op, and every eigenvalue is a root for some start.
    """
    n = op.nrows
    power = [_ONE if i == start else _ZERO for i in range(n)]
    pivots: list[tuple[int, list[Cyclotomic], list[Cyclotomic]]] = []
    degree = 0
    while True:
        vec = power
        combo = [_ZERO] * degree + [_ONE]
        for col, pvec, pcombo in pivots:
            f = vec[col]
            if f:
                vec = [x - f * y for x, y in zip(vec, pvec)]
                combo = [x - f * y for x, y in
                         zip(combo, pcombo + [_ZERO] * (len(combo) - len(pcombo)))]
        lead = next((i for i, x in enumerate(vec) if x), None)
        if lead is None:
            return combo
        piv_inv = vec[lead].inverse()
        pivots.append((lead,
                       [x * piv_inv for x in vec],
                       [x * piv_inv for x in combo]))
        power = op @ power
        degree += 1


def poly_from_roots(roots: Sequence) -> list[Cyclotomic]:
    """Monic polynomial with the given roots, low-to-high coefficients."""
    coeffs = [_ONE]
    for r in roots:
        s = as_scalar(r)
        coeffs = ([_ZERO] + coeffs)
        for i in range(len(coeffs) - 1):
            coeffs[i] = coeffs[i] - s * coeffs[i + 1]
    return coeffs


def _poly_text(coeffs: Sequence[Cyclotomic]) -> str:
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c:
            coef = repr(c) if c.is_rational() else f"({c!r})"
            power = "x" if k == 1 else f"x^{k}"
            terms.append(coef if k == 0 else power if coef == "1" else f"{coef}*{power}")
    return " + ".join(terms).replace("+ -", "- ")


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


# ---------------------------------------------------------------------------
# chirality


def require_symmetric(spect: Spectrum) -> None:
    """Raise AsymmetricSpectrumError, naming both multiplicities, unless
    every nonzero eigenvalue has its mirror with the same multiplicity."""
    for v, m in spect.pairs:
        neg = -v
        m_neg = spect.multiplicity(neg)
        if not v.is_zero() and m_neg != m:
            raise AsymmetricSpectrumError(
                f"eigenvalue {v!r} has multiplicity {m} but {neg!r} has "
                f"{m_neg}; no exact grading can pair them")


def chirality(form: BlockForm) -> dict[tuple[int, int], Mat]:
    """A grading of the operator with the given block form: it squares to
    the identity and anticommutes with the operator, given as its blocks
    gamma[a, b] from copy b to copy a, the copies numbered as
    BlockForm.copy_blocks lists them.

    Each copy's eigenvectors are its block's certified kernel bases.  The
    i-th +lambda eigenvector over all copies in order is paired with the
    i-th -lambda one, often of another copy: at mu = 0 on D6 the trivial
    and rot-parity*sign blocks are -3 times the identity and the sign and
    rot-parity blocks +3 times it, so no grading keeps every copy.  The
    grading swaps each pair and fixes the kernel; a vector's coordinates in
    its copy's eigenvectors are read off the rows of the inverse
    eigenvector matrix of its block, one inverse of at most 4 x 4 per
    irreducible.  Minus the identity on the kernel gives another valid
    grading, which is exactly the non-uniqueness on a spectrum with zero
    modes.

    Raises AsymmetricSpectrumError when some multiplicity of +lambda and
    -lambda on W (x) C[G] disagree, since then no pairing exists.
    """
    require_symmetric(form.spectrum())
    # value -> [(copy, eigenvector, its row of the inverse eigenvector matrix)]
    modes: dict[Cyclotomic, list] = {}
    copy = 0
    for rho, spaces in zip(form.irreps, form.eigenspaces):
        values = [v for v, basis in spaces.items() for _ in basis]
        vectors = [vec for basis in spaces.values() for vec in basis]
        duals = inverse(Mat(vectors).transpose()).rows
        for _ in range(rho.dim):
            for v, vec, dual in zip(values, vectors, duals):
                modes.setdefault(v, []).append((copy, vec, dual))
            copy += 1
    # the grading sends each source vector to its image: the term
    # image (x) dual of the source, summed per pair of copies
    terms: dict[tuple[int, int], tuple[list, list]] = {}

    def send(source, image):
        images, duals = terms.setdefault((image[0], source[0]), ([], []))
        images.append(image[1])
        duals.append(source[2])

    for v, plus in modes.items():
        if v.as_fraction() > 0:
            for x, y in zip(plus, modes[-v]):
                send(x, y)
                send(y, x)
        elif v.is_zero():
            for x in plus:
                send(x, x)
    return {key: Mat(images).transpose() @ Mat(duals)
            for key, (images, duals) in terms.items()}


def grading_checks(form: BlockForm, gamma: Mapping[tuple[int, int], Mat]) -> tuple[bool, bool]:
    """Whether a block grading in chirality's layout squares to the
    identity and whether it anticommutes with the operator, block by block:
    (gamma^2)[a, c] is the sum over b of gamma[a, b] gamma[b, c], and
    (gamma op + op gamma)[a, b] is gamma[a, b] B_b + B_a gamma[a, b] for the
    blocks B of the copies."""
    blocks = form.copy_blocks()
    square: dict[tuple[int, int], Mat] = {}
    for (a, b), x in gamma.items():
        for (c, d), y in gamma.items():
            if b == c:
                term = x @ y
                square[a, d] = square[a, d] + term if (a, d) in square else term
    squares = all(
        square.get((a, a)) == Mat.identity(block.nrows) for a, block in enumerate(blocks)
    ) and all(m.is_zero() for (a, c), m in square.items() if a != c)
    anticommutes = all((x @ blocks[b] + blocks[a] @ x).is_zero() for (a, b), x in gamma.items())
    return squares, anticommutes


# ---------------------------------------------------------------------------
# eigenmode catalogs


def _unit(d: int, l: int) -> list[Cyclotomic]:
    """The l-th unit vector of length d, l from 1."""
    return [_ONE if i == l - 1 else _ZERO for i in range(d)]


def _mode(name: str, k: int, *components: Sequence) -> tuple:
    """The mode of copy (name, row k), k from 1, from the coordinates of its
    spinor components in turn; the unit vector of l is the matrix
    coefficient name[k, l]."""
    return (name, k - 1), [as_scalar(v) for comp in components for v in comp]


def _column(m: Mat, l: int) -> list[Cyclotomic]:
    """Column l of m, l from 1: the coordinates of R(h) rho_kl for m = rho(h)."""
    return [row[l - 1] for row in m.rows]


def _twisted(k: int, l: int, component: int, dim_w: int) -> tuple:
    """The twisted coefficient sign2[k, l] in the given spinor component:
    sign2 is rotation -> id, reflection -> diag(-1, 1), the sum of the sign
    and trivial characters, so sign2[k, l] is sign for k = l = 1, trivial
    for k = l = 2 and identically zero off the diagonal."""
    name = ("sign", "trivial")[k - 1]
    value = _ONE if k == l else _ZERO
    return _mode(name, 1, *([value if j == component else _ZERO] for j in range(dim_w)))


def _sign_image(mode: tuple) -> tuple:
    """The sign character chi times a mode of a planar copy.  On the
    dihedral planar irreducibles chi(g) rho(g) = D rho(g) D for
    D = diag(1, -1), rotations being diagonal and reflections
    antidiagonal, so chi rho_kl = (-1)^(k + l) rho_kl."""
    (name, row), vec = mode
    return (name, row), [-v if (row + i) % 2 else v for i, v in enumerate(vec)]


def _spans(vectors: list[list[Cyclotomic]], first: int) -> tuple[int, int]:
    """The dimensions of the spans of vectors[:first] and of all vectors,
    from one reduction of the matrix with the vectors as its columns: the
    pivots among its first columns span their prefix."""
    if not vectors:
        return 0, 0
    pivots = rref(Mat(vectors).transpose())[1]
    return sum(1 for p in pivots if p < first), len(pivots)


def _mode_spans(modes: list[tuple], first: int) -> tuple[int, int]:
    """_spans of modes: the copies are independent summands, so each
    copy's vectors are ranked alone and the dimensions add up."""
    span = combined = 0
    for copy in dict.fromkeys(c for c, _ in modes):
        head = [vec for c, vec in modes[:first] if c == copy]
        tail = [vec for c, vec in modes[first:] if c == copy]
        s, t = _spans(head + tail, len(head))
        span, combined = span + s, combined + t
    return span, combined


def _require_catalog_class(C: ConjClass) -> None:
    if C.group.order != 12 or C.size != 3:
        raise UnsupportedGroupError(
            "the closed-form eigenmode catalog is stated for the 12-element "
            "dihedral group with its 3-member reflection class")


def _assess(irreps: Sequence[Representation], blocks: Sequence[Mat], spect: Spectrum,
            families: Sequence[tuple], completions: Mapping) -> dict:
    """Score a catalog declared in block coordinates against the operator
    with the given irreducible blocks and its certified spectrum spect: a
    status per candidate, and spans and gaps per claimed value.

    families lists (name, claimed value, [(label, mode)]); completions
    maps each claimed value to summarise, in report order, to its
    [(label, mode)].  A mode's eigenvalue is read off one product with its
    copy's block.  Multiplicities are read off the spectrum.
    """
    block_of = {rho.name: block for rho, block in zip(irreps, blocks)}

    def eigenvalue(mode):
        """The exact eigenvalue of a nonzero mode, or None."""
        (name, _), vec = mode
        image = block_of[name] @ vec
        lead = next(i for i, x in enumerate(vec) if x)
        lam = image[lead] / vec[lead]
        return lam if all(x == lam * y for x, y in zip(image, vec)) else None

    verified: dict[Cyclotomic, list] = {}
    scored = []
    for name, claimed, candidates in families:
        claimed = as_scalar(claimed)
        rows = []
        for label, mode in candidates:
            if not any(mode[1]):
                status, lam = "zero_vector", None
            else:
                lam = eigenvalue(mode)
                if lam is None:
                    status = "not_an_eigenmode"
                else:
                    status = "eigenmode" if lam == claimed else "eigenvalue_mismatch"
                    verified.setdefault(lam, []).append(mode)
            rows.append({"label": label, "status": status, "eigenvalue": lam})
        scored.append({"name": name, "claimed_eigenvalue": claimed, "candidates": rows})
    summaries = []
    for value, named in completions.items():
        v = as_scalar(value)
        modes = verified.get(v, [])
        mult = spect.multiplicity(v)
        comp_entries = []
        comp_modes = []
        for label, mode in named:
            lam = eigenvalue(mode)
            ok = lam is not None and lam == v
            comp_entries.append({"label": label, "verified": ok})
            if ok:
                comp_modes.append(mode)
        span, combined = _mode_spans(modes + comp_modes, len(modes))
        claimed_rows = [c for fam in scored if fam["claimed_eigenvalue"] == v
                        for c in fam["candidates"]]
        summaries.append({
            "value": v,
            "claimed_candidates": len(claimed_rows),
            "zero_vectors": sum(c["status"] == "zero_vector" for c in claimed_rows),
            "verified": len(modes),
            "claimed_span": span,
            "multiplicity": mult,
            "gap": mult - span,
            "completions": comp_entries,
            "completed_span": combined,
            "complete": combined == mult,
        })
    return {"families": scored, "eigenvalues": summaries}


def eigenmode_catalog(C: ConjClass, coeffs: Mapping[int, Mat], form: BlockForm) -> dict:
    """Replay the closed-form Dirac eigenvector list against the mu = 0
    Dirac operator of the spinor representation and the distinguished
    connection, given by its coefficients and its certified block form.

    Families: images of the off-diagonal translation blocks (claimed zero
    modes), the two columns of the twisted 2-dimensional representation
    (claimed at +3 and -3), a rotation-translated ansatz at +3, a
    reflection-translated ansatz at -3, and the parity images of the
    rotation ansatz.  Some claimed candidates are identically zero and some
    families only span part of the certified eigenspace; the catalog
    reports those shortfalls and exhibits explicit completion modes from
    the irreducible matrix elements.  Every candidate is declared in block
    coordinates: rho is the spinor representation, which is the planar1
    irreducible, and a right translation R(h) acts on the coordinates of a
    copy of rho by rho(h).
    """
    _require_catalog_class(C)
    reps = {r.name: r for r in form.irreps}
    rho = reps["planar1"]
    zero = [_ZERO] * rho.dim
    # the translation blocks of the free part, as group-algebra elements
    elements = {name: {a: Mat([[w(rho(a))]]) for a in C.members} for name, w in (
        ("lower", lambda m: m[1, 0]), ("upper", lambda m: m[0, 1]), ("diag", lambda m: _ONE))}
    fourier = {name: irreducible_blocks(x, form.irreps) for name, x in elements.items()}
    lower, upper = (fourier[name][form.irreps.index(rho)] for name in ("lower", "upper"))
    t, x = C.members[0], C.members[1]
    omega = rho(t)[1, 0]
    # phi_k = rho[k, 2], and phi_k beside omega R_t phi_k
    rotated = [_mode("planar1", k, _unit(2, 2), [omega * v for v in _column(rho(t), 2)])
               for k in (1, 2)]

    def twisted_column(l):
        return [entry for k in (1, 2) for entry in (
            (f"(sign2[{k},{l}], 0)", _twisted(k, l, 0, 2)),
            (f"(0, sign2[{k},{l}])", _twisted(k, l, 1, 2)))]

    families = [
        ("translation-block images", 0, [
            entry for k in (1, 2) for l in (1, 2) for entry in (
                (f"(lower rho[{k},{l}], 0)", _mode("planar1", k, _column(lower, l), zero)),
                (f"(0, upper rho[{k},{l}])", _mode("planar1", k, zero, _column(upper, l))))]),
        ("twisted first column", 3, twisted_column(1)),
        ("twisted second column", -3, twisted_column(2)),
        ("rotation ansatz", 3, [
            (f"rotation ansatz k={k}", mode) for k, mode in zip((1, 2), rotated)]),
        ("reflection ansatz", -3, [
            (f"reflection ansatz k={k}", _mode("planar1", k, _unit(2, 2), _column(rho(x), 2)))
            for k in (1, 2)]),
        # multiplication by chi on each spinor component
        ("parity images of the rotation ansatz", -3, [
            (f"parity image k={k}", _sign_image(mode)) for k, mode in zip((1, 2), rotated)]),
    ]

    completions = {
        0: [(f"(planar2[{k},2], 0)", _mode("planar2", k, _unit(2, 2), zero)) for k in (1, 2)]
        + [(f"(0, planar2[{k},1])", _mode("planar2", k, zero, _unit(2, 1))) for k in (1, 2)],
        3: [("(rot-parity, 0)", _mode("rot-parity", 1, [_ONE], [_ZERO])),
            ("(0, rot-parity)", _mode("rot-parity", 1, [_ZERO], [_ONE]))]
        + [(f"(planar2[{k},1], -planar2[{k},2])",
            _mode("planar2", k, _unit(2, 1), [-v for v in _unit(2, 2)])) for k in (1, 2)],
        -3: [("(rot-parity*sign, 0)", _mode("rot-parity*sign", 1, [_ONE], [_ZERO])),
             ("(0, rot-parity*sign)", _mode("rot-parity*sign", 1, [_ZERO], [_ONE]))]
        + [(f"(planar2[{k},1], planar2[{k},2])", _mode("planar2", k, _unit(2, 1), _unit(2, 2)))
           for k in (1, 2)],
    }

    out = _assess(form.irreps, form.blocks, form.spectrum(), families, completions)
    out["mu"] = Fraction(0)

    # P = diag(chi) on each spinor component takes M_h (x) R(h) to
    # chi(g) chi(gh) M_h (x) R(h), and chi(g) chi(gh) = chi(h) as chi is a
    # character with chi^2 = 1: P op + op P = 0 exactly when chi(h) = -1
    # wherever M_h != 0, and P^2 = 1 exactly when chi^2 = 1
    chi = [m[0, 0] for m in reps["sign"].matrices]
    out["sign_multiplication_anticommutes"] = (
        all(chi[h] == -_ONE for h, m in coeffs.items() if not m.is_zero())
        and all(c * c == _ONE for c in chi))
    # XY = 0 in the group algebra exactly when every irreducible block of
    # XY, the product of the blocks of X and Y, vanishes
    out["component_identities"] = {
        f"{x}*{y}": all((p @ q).is_zero() for p, q in zip(fourier[x], fourier[y]))
        for x, y in (("lower", "lower"), ("upper", "upper"), ("diag", "lower"),
                     ("lower", "diag"), ("diag", "upper"), ("upper", "diag"))}
    return out


def wave_eigenmode_catalog(geo: Geometry, coeffs: Mapping[int, Mat], spect: Spectrum) -> dict:
    """Replay the closed-form wave eigenfunction list against the mu = 0
    wave operator on the class of geo, given by its coefficients, and its
    certified spectrum spect, in the blocks of the operator for the
    irreducibles of the group.  It reads them from geo after its order-12
    check, so a refused class builds no representation.

    Claimed families: the second twisted column at eigenvalue 0, the first
    twisted column at -12, and the spinor matrix elements together with
    their complex conjugates at -6.  One candidate in each twisted family
    is identically zero, and the conjugated matrix elements coincide with
    the originals up to index reversal, so each claimed family spans only
    part of the certified eigenspace; the completions name the missing
    characters and the second planar family.
    """
    _require_catalog_class(geo.cls)
    irreps = geo.irreps
    reps = {r.name: r for r in irreps}
    rho = reps["planar1"]

    def element(name, k, l):
        return _mode(name, k, _unit(reps[name].dim, l))

    # conj rho = J rho J for the swap J, as conjugates_coincide_reversed
    # states, so conj rho[k, l] is declared as rho[3 - k, 3 - l]
    families = [
        ("twisted second column", 0, [(f"sign2[{k},2]", _twisted(k, 2, 0, 1)) for k in (1, 2)]),
        ("twisted first column", -12, [(f"sign2[{k},1]", _twisted(k, 1, 0, 1)) for k in (1, 2)]),
        ("spinor matrix elements", -6,
         [(f"rho[{k},{l}]", element("planar1", k, l)) for k in (1, 2) for l in (1, 2)]
         + [(f"conj rho[{k},{l}]", element("planar1", 3 - k, 3 - l))
            for k in (1, 2) for l in (1, 2)]),
    ]
    completions = {
        0: [("rot-parity*sign", element("rot-parity*sign", 1, 1))],
        -12: [("rot-parity", element("rot-parity", 1, 1))],
        -6: [(f"planar2[{k},{l}]", element("planar2", k, l)) for k in (1, 2) for l in (1, 2)],
    }
    out = _assess(irreps, irreducible_blocks(coeffs, irreps), spect, families, completions)
    out["mu"] = Fraction(0)
    # the conjugated elements are the originals with both indices reversed
    out["conjugates_coincide_reversed"] = all(
        m[k, l].conj() == m[1 - k, 1 - l] for m in rho.matrices for k in (0, 1) for l in (0, 1))
    return out


# ---------------------------------------------------------------------------
# spectral action


def spectral_action(spect: Spectrum, coeffs: Sequence, lam) -> Cyclotomic:
    """Sum of mult * f(lambda^2 / lam^2) over the certified spectrum, for the
    polynomial f with low-to-high coefficients coeffs.

    The scale lam must be a positive rational.  The result is exact because
    the spectrum is.
    """
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("the scale must be a positive rational")
    cs = [as_scalar(c) for c in coeffs]
    scale = rat(Fraction(1, lam * lam))
    out = rat(0)
    for value, mult in spect.pairs:
        u = value * value * scale
        acc = rat(0)
        for c in reversed(cs):
            acc = acc * u + c
        out = out + acc * rat(mult)
    return out


def exp_taylor_coefficients(degree: int) -> list[Fraction]:
    """Taylor coefficients of exp(-u) through the given degree."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    out = [Fraction(1)]
    fact = 1
    for k in range(1, degree + 1):
        fact *= k
        out.append(Fraction((-1) ** k, fact))
    return out
