"""Spinor geometry: metric, gamma matrices, Dirac and wave operators, spectra.

The frame metric on a class of size n pairs the basis 1-forms through
eta^{ab} = delta_{ab} + mu for a single rational modulus mu; it degenerates
exactly at mu = -1/n.  Gamma matrices act on a chosen carrier representation
W and come with the quadratic-casimir normalisation 1/(1 + 4 mu), which is
singular at mu = -1/4; both degenerate values raise SingularMetricError.

A spinor operator is a group-algebra element sum_h M_h (x) R(h): constant
dim(W) x dim(W) coefficients M_h times right translations, with every h in
{e}, the class or its products, so inside H = <C>.  dirac_operator and
wave_operator return the coefficients {h: M_h}; the reports check the
operator on them (is_hermitian, same_element) and apply it to vectors on
G with them (apply).  assemble alone writes a matrix from them on
W tensor (functions on G), laid out spinor-component-major: entry block
(i, j) of the dim(W) x dim(W) grid is the |G| x |G| operator mapping the
j-th spinor component into the i-th.  The same coefficients assembled on
the elements of H give the block of which the operator is [G:H] copies.

Spectra are certified from the operator alone, never approximated: the
eigenvalues are the rational roots of the minimal polynomials of unit
vectors under the operator, each keeps the exact kernel basis of
(op - lambda id) as its eigenspace, and the multiplicities must add up to
the full dimension or the computation refuses to answer
(IncompleteSpectrumError).  certify assembles a spinor operator's block
on H from its coefficients and certifies the block, stating the operator
on G by its copy count [G:H]; the reports certify every operator that
way.  A certified spectrum proves the operator diagonalisable, so
chirality gradings and minimal polynomials are read off it without a
second reduction.

The eigenmode catalogs replay a closed-form list of claimed eigenvectors
against the coefficients of the operator a report holds, by apply, and
its certified spectrum, whose multiplicities they read.  Candidates that
are identically zero are reported as such, surviving candidates are
verified exactly, and any gap between the span of the verified modes and
the true multiplicity is reported together with explicit completion
modes.  Shortfalls are reported, not asserted away.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import partial
from types import MappingProxyType
from typing import Mapping, Sequence

from .connections import Connection
from .cyclotomic import Cyclotomic, rat
from .errors import (
    AsymmetricSpectrumError,
    GroupGeoError,
    IncompleteSpectrumError,
    SingularMetricError,
    UnsupportedGroupError,
)
from .groups import ConjClass, FiniteGroup
from .linalg import Mat, as_scalar, inverse, kernel_basis, rref
from .representations import Representation, builtin_rep, irreducibles

_ZERO = rat(0)
_ONE = rat(1)


# ---------------------------------------------------------------------------
# metric


class Metric:
    """The exact frame metric of a conjugacy class at modulus mu.

    eta and eta_inv are matrices indexed by class position; the coframe of
    the a-th basis 1-form has coefficient row eta[b][a] over b, which for
    this symmetric family is just the a-th row again.
    """

    __slots__ = ("cls", "mu", "eta", "eta_inv")

    def __init__(self, cls: ConjClass, mu, eta: Mat, eta_inv: Mat):
        object.__setattr__(self, "cls", cls)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "eta_inv", eta_inv)

    def __setattr__(self, *_):
        raise AttributeError("Metric is immutable")

    def __repr__(self):
        return f"Metric(mu={self.mu}, size={self.cls.size})"


def require_invertible_metric(size: int, mu) -> None:
    """Raise SingularMetricError at mu = -1/size, where the frame metric
    delta_{ab} + mu of a class of that size degenerates."""
    if 1 + size * Fraction(mu) == 0:
        raise SingularMetricError(
            f"metric modulus mu = {Fraction(mu)} is singular for a class of size {size}")


def metric(cls: ConjClass, mu) -> Metric:
    """The pairing eta^{ab} = delta_{ab} + mu with its exact inverse.

    Raises SingularMetricError at mu = -1/n where the all-ones perturbation
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
    return Metric(cls, mu, eta, eta_inv)


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


def assemble(coeffs: Mapping[int, Mat], group: FiniteGroup,
             elements: Sequence[int] | None = None) -> Mat:
    """The matrix of the group-algebra element sum_h coeffs[h] (x) R(h) on
    W tensor (functions on elements, by default all of G), written entry by
    entry.

    R(h) is right translation, (R(h) f)(g) = f(gh), so entry ((i, g),
    (j, gh)) is coeffs[h][i, j]; the layout is spinor-component-major.
    elements must be closed under right multiplication by every h, such as
    a subgroup holding every h.
    """
    if elements is None:
        elements = range(group.order)
    pos = {g: p for p, g in enumerate(elements)}
    m = len(elements)
    dim = next(iter(coeffs.values())).nrows
    rows = [[_ZERO] * (dim * m) for _ in range(dim * m)]
    for h, block in coeffs.items():
        for p, g in enumerate(elements):
            q = pos.get(group.mul(g, h))
            if q is None:
                raise ValueError("elements are not closed under right "
                                 f"multiplication by {group.label(h)}")
            for i, coeff_row in enumerate(block.rows):
                row = rows[i * m + p]
                for j, w in enumerate(coeff_row):
                    row[j * m + q] = w
    return Mat(rows)


def apply(coeffs: Mapping[int, Mat], group: FiniteGroup, vec: Sequence) -> list[Cyclotomic]:
    """The image of vec under sum_h coeffs[h] (x) R(h) on W tensor
    (functions on G), in assemble's spinor-component-major layout.

    Entry (i, g) of the image is sum_h sum_j coeffs[h][i, j] vec[(j, gh)]:
    dim(W)^2 products per element and per h, and no matrix on G.
    """
    n = group.order
    vec = [as_scalar(x) for x in vec]
    if len(vec) != next(iter(coeffs.values())).ncols * n:
        raise ValueError(f"a vector of length {len(vec)} does not fit the operator")
    out = [_ZERO] * len(vec)
    for h, block in coeffs.items():
        moved = [group.mul(g, h) for g in range(n)]
        for j in range(block.ncols):
            # the j-th spinor component of R(h) vec, where it is nonzero
            col = [(g, vec[j * n + gh]) for g, gh in enumerate(moved) if vec[j * n + gh]]
            for i in range(block.nrows):
                w = block[i, j]
                if w:
                    for g, x in col:
                        out[i * n + g] += w * x
    return out


def same_element(x: Mapping[int, Mat], y: Mapping[int, Mat]) -> bool:
    """Whether two coefficient dicts are one group-algebra element: distinct
    h fill distinct entries, so every coefficient must agree, an h missing
    from a dict counting as a zero coefficient."""
    return all(x[h] == y[h] if h in x and h in y else (x[h] if h in x else y[h]).is_zero()
               for h in x.keys() | y.keys())


def is_hermitian(coeffs: Mapping[int, Mat], group: FiniteGroup) -> bool:
    """Whether sum_h M_h (x) R(h) equals its conjugate transpose
    sum_h M_h^dagger (x) R(h^-1), that is M_{h^-1} = M_h^dagger for every h."""
    return same_element(coeffs, {group.inv(h): m.conj_transpose() for h, m in coeffs.items()})


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
    eta_inv = metric(C, mu).eta_inv
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
    """Exact eigenvalues with their eigenspace bases, whose dimensions
    provably exhaust the operator dimension.

    The operator is copies copies of one block up to a permutation of the
    basis.  eigenspaces maps each value, which must be rational, to its
    basis vectors on the block, in increasing order of value; pairs,
    multiplicities and dimension state the operator, every copy counted.
    """

    __slots__ = ("eigenspaces", "dimension", "copies")

    def __init__(self, eigenspaces: Mapping | Sequence[tuple], dimension: int,
                 copies: int = 1):
        spaces = sorted(((as_scalar(v), tuple(basis))
                         for v, basis in dict(eigenspaces).items()),
                        key=lambda item: item[0].as_fraction())
        total = sum(len(basis) for _, basis in spaces) * copies
        if total != dimension:
            raise IncompleteSpectrumError(total, dimension)
        object.__setattr__(self, "eigenspaces", MappingProxyType(dict(spaces)))
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "copies", copies)

    def __setattr__(self, *_):
        raise AttributeError("Spectrum is immutable")

    @property
    def pairs(self) -> tuple[tuple[Cyclotomic, int], ...]:
        return tuple((v, len(basis) * self.copies) for v, basis in self.eigenspaces.items())

    def multiplicity(self, value) -> int:
        return len(self.eigenspaces.get(as_scalar(value), ())) * self.copies

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.eigenspaces)

    def __repr__(self):
        body = ", ".join(f"{v!r}: {m}" for v, m in self.pairs)
        return f"Spectrum({{{body}}}, dim={self.dimension})"


def spectrum(op: Mat) -> Spectrum:
    """Certify the spectrum of an exact operator from the operator alone.

    The eigenvalues are the rational roots of the minimal polynomial of the
    unit vector e_0 under op; while the eigenspaces found so far do not fill
    the dimension, e_1, e_2, ... are tried in index order.  Each distinct
    root keeps the exact kernel basis of (op - lambda id) as its eigenspace,
    so the nullities, not the polynomial, decide the multiplicities.  If
    they do not exhaust the dimension after every basis vector, the
    operator is not diagonalisable and IncompleteSpectrumError is raised; a
    vector polynomial that does not split over Q raises GroupGeoError.  No
    eigenvalue is ever reported on numerical evidence.
    """
    n = op.nrows
    if n != op.ncols:
        raise ValueError("spectra are defined for square operators")
    ident = Mat.identity(n)
    spaces: dict[Cyclotomic, list] = {}
    filled = 0
    for start in range(n):
        if filled == n:
            break
        for root in _rational_roots(_vector_minimal_polynomial(op, start)):
            v = rat(root)
            if v not in spaces:
                spaces[v] = kernel_basis(op - ident * v)
                filled += len(spaces[v])
    return Spectrum(spaces, n)


def certify(coeffs: Mapping[int, Mat], C: ConjClass) -> tuple[Mat, Spectrum]:
    """The block on W tensor (functions on H), H = <C>, of the spinor
    operator sum_h coeffs[h] (x) R(h) on W tensor (functions on G), and
    the certified spectrum of that operator.

    Every h must lie in H.  The operator commutes with left translation and
    keeps each left coset gH to itself, so it is [G:H] copies of the block
    (each block eigenvector, carried to a coset by groups.coset_lift, is an
    eigenvector of the operator).  The spectrum keeps the block's
    eigenspaces and counts each [G:H] times; an incomplete block spectrum
    is reported with the operator's numbers.
    """
    subgroup = C.generated_subgroup()
    block = assemble(coeffs, C.group, subgroup)
    copies = C.group.order // len(subgroup)
    try:
        block_spect = spectrum(block)
    except IncompleteSpectrumError as exc:
        raise IncompleteSpectrumError(exc.total * copies, exc.dimension * copies) from exc
    return block, Spectrum(block_spect.eigenspaces, block.nrows * copies, copies)


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


def chirality(spect: Spectrum) -> Mat:
    """A grading that squares to the identity and anticommutes with the
    operator whose certified spectrum is given, or with one block of it
    when the spectrum counts several copies.

    The +lambda and -lambda eigenspaces of the spectrum are paired
    blockwise through their deterministic kernel bases and the grading
    swaps the pair, acting as the identity on the kernel.  Minus the
    identity there gives another valid grading, which is exactly the
    non-uniqueness on a spectrum with zero modes.

    Raises AsymmetricSpectrumError when some multiplicity of +lambda and
    -lambda disagree, since then no pairing exists.
    """
    require_symmetric(spect)
    spaces = spect.eigenspaces
    # the grading sends sources[k] to images[k]: the i-th basis vector of
    # +lambda to the i-th of -lambda and back, kernel vectors to themselves
    sources: list[list[Cyclotomic]] = []
    images: list[list[Cyclotomic]] = []
    mirrors = set()
    for v, plus in spaces.items():
        if v and v not in mirrors:
            mirrors.add(-v)
            minus = spaces[-v]
            sources += plus + minus
            images += minus + plus
    kernel = spaces.get(_ZERO, ())
    sources += kernel
    images += kernel
    return Mat(images).transpose() @ inverse(Mat(sources).transpose())


# ---------------------------------------------------------------------------
# eigenmode catalogs


def _vec_of(*components: Sequence) -> list[Cyclotomic]:
    """One vector from the values of its spinor components in turn."""
    return [as_scalar(v) for comp in components for v in comp]


def _element(rep: Representation, k: int, l: int) -> list[Cyclotomic]:
    """The matrix-element function g -> rep(g)[k, l], indices from 1."""
    return _vec_of(rep.matrix_element(k - 1, l - 1))


def _certified_eigenvalue(coeffs: Mapping[int, Mat], group: FiniteGroup,
                          vec: list[Cyclotomic]):
    """The exact eigenvalue of vec under the operator with coefficients
    coeffs, or None if vec is not an eigenvector.  vec must be nonzero."""
    image = apply(coeffs, group, vec)
    lead = next(i for i, x in enumerate(vec) if x)
    lam = image[lead] / vec[lead]
    return lam if all(x == lam * y for x, y in zip(image, vec)) else None


def _spans(vectors: list[list[Cyclotomic]], first: int) -> tuple[int, int]:
    """The dimensions of the spans of vectors[:first] and of all vectors,
    from one reduction of the matrix with the vectors as its columns: the
    pivots among its first columns span their prefix."""
    if not vectors:
        return 0, 0
    pivots = rref(Mat(vectors).transpose())[1]
    return sum(1 for p in pivots if p < first), len(pivots)


def _catalog_context(C: ConjClass):
    group = C.group
    # refuse before any representation is built
    if group.order != 12 or C.size != 3:
        raise UnsupportedGroupError(
            "the closed-form eigenmode catalog is stated for the 12-element "
            "dihedral group with its 3-member reflection class")
    reps = {r.name: r for r in irreducibles(group)}
    spinor = builtin_rep(group, "spinor")
    twisted = builtin_rep(group, "sign2")
    return group, spinor, twisted, reps


def _assess(coeffs: Mapping[int, Mat], group: FiniteGroup, spect: Spectrum,
            families: list[dict], claimed_values: list, completions: list[tuple]) -> dict:
    """Shared scoring: statuses per candidate, spans and gaps per value.

    Multiplicities are read off the certified spectrum of the operator.
    """
    verified: dict[Cyclotomic, list] = {}
    for fam in families:
        claimed = fam["claimed_eigenvalue"]
        for cand in fam["candidates"]:
            vec = cand.pop("vector")
            if all(x.is_zero() for x in vec):
                cand["status"], cand["eigenvalue"] = "zero_vector", None
                continue
            lam = cand["eigenvalue"] = _certified_eigenvalue(coeffs, group, vec)
            if lam is None:
                cand["status"] = "not_an_eigenmode"
                continue
            cand["status"] = ("eigenmode" if lam == as_scalar(claimed)
                              else "eigenvalue_mismatch")
            verified.setdefault(lam, []).append(vec)
    summaries = []
    for value in claimed_values:
        v = as_scalar(value)
        vecs = verified.get(v, [])
        mult = spect.multiplicity(v)
        comp_entries = []
        comp_vecs = []
        for cval, named in completions:
            if as_scalar(cval) != v:
                continue
            for label, cvec in named:
                lam = _certified_eigenvalue(coeffs, group, cvec)
                ok = lam is not None and lam == v
                comp_entries.append({"label": label, "verified": ok})
                if ok:
                    comp_vecs.append(cvec)
        span, combined = _spans(vecs + comp_vecs, len(vecs))
        summaries.append({
            "value": v,
            "claimed_candidates": sum(
                1 for fam in families if as_scalar(fam["claimed_eigenvalue"]) == v
                for _ in fam["candidates"]),
            "zero_vectors": sum(
                1 for fam in families if as_scalar(fam["claimed_eigenvalue"]) == v
                for c in fam["candidates"] if c["status"] == "zero_vector"),
            "verified": len(vecs),
            "claimed_span": span,
            "multiplicity": mult,
            "gap": mult - span,
            "completions": comp_entries,
            "completed_span": combined,
            "complete": combined == mult,
        })
    return {"families": families, "eigenvalues": summaries}


def eigenmode_catalog(C: ConjClass, coeffs: Mapping[int, Mat], spect: Spectrum) -> dict:
    """Replay the closed-form Dirac eigenvector list against the mu = 0
    Dirac operator of the spinor representation and the distinguished
    connection, given by its coefficients, with its certified spectrum
    spect.

    Families: images of the off-diagonal translation blocks (claimed zero
    modes), the two columns of the twisted 2-dimensional representation
    (claimed at +3 and -3), a rotation-translated ansatz at +3, a
    reflection-translated ansatz at -3, and the parity images of the
    rotation ansatz.  Some claimed candidates are identically zero and some
    families only span part of the certified eigenspace; the catalog
    reports those shortfalls and exhibits explicit completion modes from
    the irreducible matrix elements.
    """
    group, spinor, twisted, reps = _catalog_context(C)
    n = group.order
    zero_fn = [_ZERO] * n
    rho, rho2, sig = (partial(_element, r) for r in (spinor, reps["planar2"], twisted))

    # the translation blocks of the free part, and single translations
    lower = {a: Mat([[spinor(a)[1, 0]]]) for a in C.members}
    upper = {a: Mat([[spinor(a)[0, 1]]]) for a in C.members}
    diag = {a: Mat([[1]]) for a in C.members}
    t, x = C.members[0], C.members[1]
    r_t = {t: Mat([[1]])}
    r_x = {x: Mat([[1]])}
    omega = spinor(t)[1, 0]

    families = []
    fam = {"name": "translation-block images", "claimed_eigenvalue": rat(0),
           "candidates": []}
    for k in (1, 2):
        for l in (1, 2):
            fam["candidates"].append(
                {"label": f"(lower rho[{k},{l}], 0)",
                 "vector": _vec_of(apply(lower, group, rho(k, l)), zero_fn)})
            fam["candidates"].append(
                {"label": f"(0, upper rho[{k},{l}])",
                 "vector": _vec_of(zero_fn, apply(upper, group, rho(k, l)))})
    families.append(fam)

    for l, name, value in ((1, "first", 3), (2, "second", -3)):
        families.append({
            "name": f"twisted {name} column", "claimed_eigenvalue": rat(value),
            "candidates": [c for k in (1, 2) for c in (
                {"label": f"(sign2[{k},{l}], 0)", "vector": _vec_of(sig(k, l), zero_fn)},
                {"label": f"(0, sign2[{k},{l}])", "vector": _vec_of(zero_fn, sig(k, l))})]})

    fam = {"name": "rotation ansatz", "claimed_eigenvalue": rat(3),
           "candidates": []}
    rotated = []
    for k in (1, 2):
        phi = rho(k, 2)
        second = [omega * v for v in apply(r_t, group, phi)]
        vec = _vec_of(phi, second)
        rotated.append(vec)
        fam["candidates"].append({"label": f"rotation ansatz k={k}", "vector": vec})
    families.append(fam)

    fam = {"name": "reflection ansatz", "claimed_eigenvalue": rat(-3),
           "candidates": []}
    for k in (1, 2):
        phi = rho(k, 2)
        fam["candidates"].append(
            {"label": f"reflection ansatz k={k}",
             "vector": _vec_of(phi, apply(r_x, group, phi))})
    families.append(fam)

    chi = _element(reps["sign"], 1, 1)
    fam = {"name": "parity images of the rotation ansatz",
           "claimed_eigenvalue": rat(-3), "candidates": []}
    for k, vec in zip((1, 2), rotated):
        # multiplication by chi on each spinor component
        fam["candidates"].append(
            {"label": f"parity image k={k}",
             "vector": [c * v for c, v in zip(chi * spinor.dim, vec)]})
    families.append(fam)

    phi_char = _element(reps["rot-parity"], 1, 1)
    psi_char = _element(reps["rot-parity*sign"], 1, 1)
    completions = [
        (rat(0), [
            (f"(planar2[{k},2], 0)", _vec_of(rho2(k, 2), zero_fn))
            for k in (1, 2)
        ] + [
            (f"(0, planar2[{k},1])", _vec_of(zero_fn, rho2(k, 1)))
            for k in (1, 2)
        ]),
        (rat(3), [
            ("(rot-parity, 0)", _vec_of(phi_char, zero_fn)),
            ("(0, rot-parity)", _vec_of(zero_fn, phi_char)),
        ] + [
            (f"(planar2[{k},1], -planar2[{k},2])",
             _vec_of(rho2(k, 1), [-v for v in rho2(k, 2)]))
            for k in (1, 2)
        ]),
        (rat(-3), [
            ("(rot-parity*sign, 0)", _vec_of(psi_char, zero_fn)),
            ("(0, rot-parity*sign)", _vec_of(zero_fn, psi_char)),
        ] + [
            (f"(planar2[{k},1], planar2[{k},2])",
             _vec_of(rho2(k, 1), rho2(k, 2)))
            for k in (1, 2)
        ]),
    ]

    out = _assess(coeffs, group, spect, families, [rat(0), rat(3), rat(-3)], completions)
    out["mu"] = Fraction(0)

    # P = diag(chi) on each spinor component takes M_h (x) R(h) to
    # chi(g) chi(gh) M_h (x) R(h), and chi(g) chi(gh) = chi(h) as chi is a
    # character with chi^2 = 1: P op + op P = 0 exactly when chi(h) = -1
    # wherever M_h != 0, and P^2 = 1 exactly when chi^2 = 1
    out["sign_multiplication_anticommutes"] = (
        all(chi[h] == -_ONE for h, m in coeffs.items() if not m.is_zero())
        and all(c * c == _ONE for c in chi))
    # X delta_e is the function g -> x_{g^-1}, so XY = 0 exactly when
    # X Y delta_e = 0
    delta_e = [_ONE] + [_ZERO] * (n - 1)
    blocks = {"lower": lower, "upper": upper, "diag": diag}
    out["component_identities"] = {
        f"{x}*{y}": not any(apply(blocks[x], group, apply(blocks[y], group, delta_e)))
        for x, y in (("lower", "lower"), ("upper", "upper"), ("diag", "lower"),
                     ("lower", "diag"), ("diag", "upper"), ("upper", "diag"))}
    return out


def wave_eigenmode_catalog(C: ConjClass, coeffs: Mapping[int, Mat], spect: Spectrum) -> dict:
    """Replay the closed-form wave eigenfunction list against the mu = 0
    wave operator, given by its coefficients, and its certified spectrum
    spect.

    Claimed families: the second twisted column at eigenvalue 0, the first
    twisted column at -12, and the spinor matrix elements together with
    their complex conjugates at -6.  One candidate in each twisted family
    is identically zero, and the conjugated matrix elements coincide with
    the originals up to index reversal, so each claimed family spans only
    part of the certified eigenspace; the completions name the missing
    characters and the second planar family.
    """
    group, spinor, twisted, reps = _catalog_context(C)
    rho, rho2, sig = (partial(_element, r) for r in (spinor, reps["planar2"], twisted))

    def rho_bar(k, l):
        return [v.conj() for v in rho(k, l)]

    families = [
        {"name": "twisted second column", "claimed_eigenvalue": rat(0),
         "candidates": [
             {"label": f"sign2[{k},2]", "vector": sig(k, 2)} for k in (1, 2)]},
        {"name": "twisted first column", "claimed_eigenvalue": rat(-12),
         "candidates": [
             {"label": f"sign2[{k},1]", "vector": sig(k, 1)} for k in (1, 2)]},
        {"name": "spinor matrix elements", "claimed_eigenvalue": rat(-6),
         "candidates":
             [{"label": f"rho[{k},{l}]", "vector": rho(k, l)}
              for k in (1, 2) for l in (1, 2)]
             + [{"label": f"conj rho[{k},{l}]", "vector": rho_bar(k, l)}
                for k in (1, 2) for l in (1, 2)]},
    ]
    phi_char = _element(reps["rot-parity"], 1, 1)
    psi_char = _element(reps["rot-parity*sign"], 1, 1)
    completions = [
        (rat(0), [("rot-parity*sign", psi_char)]),
        (rat(-12), [("rot-parity", phi_char)]),
        (rat(-6), [(f"planar2[{k},{l}]", rho2(k, l))
                   for k in (1, 2) for l in (1, 2)]),
    ]
    out = _assess(coeffs, group, spect, families, [rat(0), rat(-12), rat(-6)], completions)
    out["mu"] = Fraction(0)
    # the conjugated elements are the originals with both indices reversed
    out["conjugates_coincide_reversed"] = all(
        rho_bar(k, l) == rho(3 - k, 3 - l) for k in (1, 2) for l in (1, 2))
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
