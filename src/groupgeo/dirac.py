"""Spinor geometry: metric, gamma matrices, Dirac and wave operators, spectra.

The frame metric on a class of size n pairs the basis 1-forms through
eta^{ab} = delta_{ab} + mu for a single rational modulus mu; it degenerates
exactly at mu = -1/n.  Gamma matrices act on a chosen carrier representation
W and come with the quadratic-casimir normalisation 1/(1 + 4 mu), which is
singular at mu = -1/4; both degenerate values raise SingularMetricError.

A spinor operator is a plain exact matrix on W tensor (functions on G),
laid out spinor-component-major: entry block (i, j) of the dim(W) x dim(W)
grid is the |G| x |G| operator mapping the j-th spinor component into the
i-th.  Spectra are certified from the operator alone, never approximated:
the eigenvalues are the rational roots of the minimal polynomials of unit
vectors under the operator, each keeps the exact kernel basis of
(op - lambda id) as its eigenspace, and the multiplicities must add up to
the full dimension or the computation refuses to answer
(IncompleteSpectrumError).  A certified spectrum proves the operator
diagonalisable, so chirality gradings and minimal polynomials are read off
it without a second reduction.

The eigenmode catalogs replay a closed-form list of claimed eigenvectors
against the operator a report has built and its certified spectrum, whose
multiplicities they read.  Candidates that are identically zero are
reported as such, surviving candidates are verified exactly, and any gap
between the span of the verified modes and the true multiplicity is
reported together with explicit completion modes.  Shortfalls are reported,
not asserted away.
"""

from __future__ import annotations

import math
from fractions import Fraction
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
from .groups import ConjClass
from .linalg import Mat, as_scalar, inverse, kernel_basis, rank
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

    def coframe_coefficients(self, pos: int) -> list[Cyclotomic]:
        """Coefficients expressing the pos-th coframe field in the frame."""
        return list(self.eta.rows[pos])

    def __repr__(self):
        return f"Metric(mu={self.mu}, size={self.cls.size})"


def metric(cls: ConjClass, mu) -> Metric:
    """The pairing eta^{ab} = delta_{ab} + mu with its exact inverse.

    Raises SingularMetricError at mu = -1/n where the all-ones perturbation
    cancels the identity on the diagonal sum.
    """
    mu = Fraction(mu)
    n = cls.size
    if 1 + n * mu == 0:
        raise SingularMetricError(
            f"metric modulus mu = {mu} is singular for a class of size {n}")
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
    n = cls.size
    if 1 + n * mu == 0:
        raise SingularMetricError(
            f"metric modulus mu = {mu} is singular for a class of size {n}")
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
# spinor operators


def class_translation_sum(C: ConjClass) -> Mat:
    """Sum of the right translation operators over the class members."""
    group = C.group
    total = Mat.zeros(group.order, group.order)
    for a in C.members:
        total = total + group.right_translation(a)
    return total


def translation_block(rep: Representation, C: ConjClass, i: int, j: int) -> Mat:
    """Sum over class members of rho(a)[i, j] times right translation by a.

    These are the blocks of the free part of the Dirac operator written in
    the spinor-component grid.
    """
    group = C.group
    total = Mat.zeros(group.order, group.order)
    for a in C.members:
        w = rep(a)[i, j]
        if w:
            total = total + group.right_translation(a) * w
    return total


def spinor_blocks(op: Mat, dim_w: int) -> list[list[Mat]]:
    """Slice a spinor operator into its dim_w x dim_w grid of group blocks."""
    if op.nrows != op.ncols or op.nrows % dim_w:
        raise ValueError("operator size is not a multiple of the spinor dimension")
    n = op.nrows // dim_w
    return [[op.submatrix(range(i * n, (i + 1) * n), range(j * n, (j + 1) * n))
             for j in range(dim_w)] for i in range(dim_w)]


def dirac_operator(rep: Representation, A: Connection, C: ConjClass,
                   mu=Fraction(0)) -> Mat:
    """The Dirac operator on W tensor functions, as one exact matrix.

    The free part couples each gamma matrix to the corresponding partial
    translation R_a - id; the connection part subtracts, for every pair of
    class members, the gamma-weighted translation generator acting through
    the coefficient function of the connection.  Layout is
    spinor-component-major: kron(spinor factor, function factor).
    """
    mu = Fraction(mu)
    group = rep.group
    cls = A.calculus.cls
    if C.group != group or tuple(C.members) != tuple(cls.members):
        raise ValueError("representation, connection and class must share one group and class")
    gammas = gamma_matrices(rep, C, mu)
    n = group.order
    ident_n = Mat.identity(n)
    op = Mat.zeros(rep.dim * n, rep.dim * n)
    for a in C.members:
        op = op + gammas[a].kron(group.right_translation(a) - ident_n)
    ident_w = Mat.identity(rep.dim)
    for apos, a in enumerate(C.members):
        tau = rep(group.inv(a)) - ident_w
        for bpos, b in enumerate(C.members):
            coeff = A.coefficient(apos, bpos)
            values = [coeff(g) for g in range(n)]
            op = op - (gammas[b] @ tau).kron(Mat.diag(values))
    return op


def wave_operator(C: ConjClass, mu=Fraction(0)) -> Mat:
    """The scalar wave operator: minus the inverse-metric contraction of the
    second partial translations, as a |G| x |G| matrix.

    At mu = 0 on an involutive class this collapses to twice the class
    translation sum minus twice the class size.
    """
    mu = Fraction(mu)
    eta_inv = metric(C, mu).eta_inv
    group = C.group
    n = group.order
    ident = Mat.identity(n)
    partials = [group.right_translation(a) - ident for a in C.members]
    total = Mat.zeros(n, n)
    for apos in range(C.size):
        for bpos in range(C.size):
            w = eta_inv[apos, bpos]
            if w:
                total = total + (partials[apos] @ partials[bpos]) * w
    return -total


# ---------------------------------------------------------------------------
# certified spectra


def _sort_key(value: Cyclotomic):
    z = complex(value)
    return (round(z.real, 9), round(z.imag, 9))


class Spectrum:
    """Exact eigenvalues with their eigenspace bases, whose dimensions
    provably exhaust the operator dimension.

    eigenspaces maps each value to its basis vectors, ordered by real and
    then imaginary part; pairs and multiplicities are read off it.
    """

    __slots__ = ("eigenspaces", "dimension")

    def __init__(self, eigenspaces: Mapping | Sequence[tuple], dimension: int):
        spaces = sorted(((as_scalar(v), tuple(basis))
                         for v, basis in dict(eigenspaces).items()),
                        key=lambda item: _sort_key(item[0]))
        total = sum(len(basis) for _, basis in spaces)
        if total != dimension:
            raise IncompleteSpectrumError(
                f"multiplicities sum to {total} but the operator dimension is "
                f"{dimension}; the spectrum misses {dimension - total} dimensions")
        object.__setattr__(self, "eigenspaces", MappingProxyType(dict(spaces)))
        object.__setattr__(self, "dimension", dimension)

    def __setattr__(self, *_):
        raise AttributeError("Spectrum is immutable")

    @property
    def pairs(self) -> tuple[tuple[Cyclotomic, int], ...]:
        return tuple((v, len(basis)) for v, basis in self.eigenspaces.items())

    def multiplicity(self, value) -> int:
        return len(self.eigenspaces.get(as_scalar(value), ()))

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


def _poly_rem(a: list[int], b: list[int]) -> list[Fraction]:
    # remainder of a by b, low-to-high, with no zero leading coefficient
    rem = [Fraction(c) for c in a]
    while len(rem) >= len(b):
        f = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        for i, c in enumerate(b):
            rem[shift + i] -= f * c
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def _sign_at_half(poly: list[int], m: int) -> int:
    # the sign of poly((2m + 1)/2), read off 2^deg poly((2m + 1)/2)
    acc, scale = 0, 1
    for c in reversed(poly):
        acc = acc * (2 * m + 1) + c * scale
        scale *= 2
    return (acc > 0) - (acc < 0)


def _integer_roots(ints: list[int]) -> tuple[list[int], int]:
    """The integer roots of a monic integer polynomial of degree >= 1, and
    the number of its distinct complex roots.

    The Sturm chain p, p', -rem(p, p'), ... (each member scaled by a
    positive integer) counts the distinct real roots between two points
    exactly, and its last member is gcd(p, p').  Every root lies inside
    Fujiwara's bound, so bisecting integer intervals, with the counts taken
    at half-integers (never roots), leaves one candidate integer per
    interval that holds a root, which is checked exactly.  The cost grows
    with the number of digits of the coefficients, not with their
    divisors.
    """
    chain = [ints, [k * c for k, c in enumerate(ints)][1:]]
    while len(chain[-1]) > 1:
        rem = _poly_rem(chain[-2], chain[-1])
        if not rem:
            break
        den = math.lcm(*(c.denominator for c in rem))
        scaled = [int(c * den) for c in rem]
        g = math.gcd(*scaled)
        chain.append([-c // g for c in scaled])

    def sign_changes(m: int) -> int:
        signs = [s for s in (_sign_at_half(p, m) for p in chain) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    # |root| <= 2 max_k |c_{n-k}|^(1/k), rounded up to a power of two
    bound = 2 ** (1 + max(-(-abs(c).bit_length() // k)
                          for k, c in enumerate(reversed(ints[:-1]), 1)))
    roots = []
    todo = [(-bound - 1, bound)]  # the integers lo < r <= hi
    while todo:
        lo, hi = todo.pop()
        if sign_changes(lo) == sign_changes(hi):
            continue
        if hi - lo > 1:
            mid = (lo + hi) // 2
            todo += [(lo, mid), (mid, hi)]
        elif sum(c * hi ** k for k, c in enumerate(ints)) == 0:
            roots.append(hi)
    return sorted(roots), len(ints) - len(chain[-1])


# ---------------------------------------------------------------------------
# chirality


def chirality(spect: Spectrum, kernel_sign: int = 1) -> Mat:
    """A grading that squares to the identity and anticommutes with the
    operator whose certified spectrum is given.

    The +lambda and -lambda eigenspaces of the spectrum are paired
    blockwise through their deterministic kernel bases and the grading
    swaps the pair, acting as kernel_sign times the identity on the
    kernel.  Both kernel signs give valid gradings, which is exactly the
    non-uniqueness on a spectrum with zero modes.

    Raises AsymmetricSpectrumError when some multiplicity of +lambda and
    -lambda disagree, since then no pairing exists.
    """
    if kernel_sign not in (1, -1):
        raise ValueError("kernel_sign must be +1 or -1")
    spaces = spect.eigenspaces
    # symmetry check first: every nonzero eigenvalue needs its mirror
    for v, m in spect.pairs:
        neg = -v
        m_neg = spect.multiplicity(neg)
        if not v.is_zero() and m_neg != m:
            raise AsymmetricSpectrumError(
                f"eigenvalue {v!r} has multiplicity {m} but {neg!r} has "
                f"{m_neg}; no exact grading can pair them")
    # the grading sends sources[k] to images[k]: the i-th basis vector of
    # +lambda to the i-th of -lambda and back, kernel vectors to their sign
    sources: list[list[Cyclotomic]] = []
    images: list[list[Cyclotomic]] = []
    mirrors = set()
    for v, plus in spaces.items():
        if v and v not in mirrors:
            mirrors.add(-v)
            minus = spaces[-v]
            sources += plus + minus
            images += minus + plus
    for vec in spaces.get(_ZERO, ()):
        sources.append(vec)
        images.append([x * kernel_sign for x in vec])
    return Mat(images).transpose() @ inverse(Mat(sources).transpose())


# ---------------------------------------------------------------------------
# eigenmode catalogs


def _vec_of(values: Sequence) -> list[Cyclotomic]:
    return [as_scalar(v) for v in values]


def _spinor_vec(*components: Sequence) -> list[Cyclotomic]:
    out: list[Cyclotomic] = []
    for comp in components:
        out.extend(as_scalar(v) for v in comp)
    return out


def _certified_eigenvalue(op: Mat, vec: list[Cyclotomic]):
    """The exact eigenvalue of vec under op, or None if vec is not an
    eigenvector.  vec must be nonzero."""
    image = op @ vec
    lead = next(i for i, x in enumerate(vec) if x)
    lam = image[lead] / vec[lead]
    for x, y in zip(image, vec):
        if x != lam * y:
            return None
    return lam


def _span_dim(vectors: list[list[Cyclotomic]]) -> int:
    if not vectors:
        return 0
    return rank(Mat(vectors))


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


def _assess(op: Mat, spect: Spectrum, families: list[dict],
            claimed_values: list, completions: list[tuple]) -> dict:
    """Shared scoring: statuses per candidate, spans and gaps per value.

    Multiplicities are read off the certified spectrum of op.
    """
    verified: dict[Cyclotomic, list] = {}
    for fam in families:
        claimed = fam["claimed_eigenvalue"]
        for cand in fam["candidates"]:
            vec = cand.pop("vector")
            if all(x.is_zero() for x in vec):
                cand["status"] = "zero_vector"
                cand["eigenvalue"] = None
                continue
            lam = _certified_eigenvalue(op, vec)
            if lam is None:
                cand["status"] = "not_an_eigenmode"
                cand["eigenvalue"] = None
                continue
            cand["eigenvalue"] = lam
            cand["status"] = ("eigenmode" if lam == as_scalar(claimed)
                              else "eigenvalue_mismatch")
            verified.setdefault(lam, []).append(vec)
    summaries = []
    for value in claimed_values:
        v = as_scalar(value)
        vecs = verified.get(v, [])
        mult = spect.multiplicity(v)
        span = _span_dim(vecs)
        comp_entries = []
        comp_vecs = []
        for cval, named in completions:
            if as_scalar(cval) != v:
                continue
            for label, cvec in named:
                lam = _certified_eigenvalue(op, cvec)
                ok = lam is not None and lam == v
                comp_entries.append({"label": label, "verified": ok})
                if ok:
                    comp_vecs.append(cvec)
        combined = _span_dim(vecs + comp_vecs)
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


def eigenmode_catalog(C: ConjClass, op: Mat, spect: Spectrum) -> dict:
    """Replay the closed-form Dirac eigenvector list against the mu = 0
    Dirac operator op of the spinor representation and the distinguished
    connection, with its certified spectrum spect.

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

    def rho(k, l):
        return _vec_of(spinor.matrix_element(k - 1, l - 1))

    def rho2(k, l):
        return _vec_of(reps["planar2"].matrix_element(k - 1, l - 1))

    def sig(k, l):
        return _vec_of(twisted.matrix_element(k - 1, l - 1))

    lower = translation_block(spinor, C, 1, 0)
    upper = translation_block(spinor, C, 0, 1)
    diag = class_translation_sum(C)
    t, x = C.members[0], C.members[1]
    r_t = group.right_translation(t)
    r_x = group.right_translation(x)
    omega = spinor(t)[1, 0]

    families = []
    fam = {"name": "translation-block images", "claimed_eigenvalue": rat(0),
           "candidates": []}
    for k in (1, 2):
        for l in (1, 2):
            fam["candidates"].append(
                {"label": f"(lower rho[{k},{l}], 0)",
                 "vector": _spinor_vec(lower @ rho(k, l), zero_fn)})
            fam["candidates"].append(
                {"label": f"(0, upper rho[{k},{l}])",
                 "vector": _spinor_vec(zero_fn, upper @ rho(k, l))})
    families.append(fam)

    fam = {"name": "twisted first column", "claimed_eigenvalue": rat(3),
           "candidates": []}
    for k in (1, 2):
        fam["candidates"].append(
            {"label": f"(sign2[{k},1], 0)", "vector": _spinor_vec(sig(k, 1), zero_fn)})
        fam["candidates"].append(
            {"label": f"(0, sign2[{k},1])", "vector": _spinor_vec(zero_fn, sig(k, 1))})
    families.append(fam)

    fam = {"name": "twisted second column", "claimed_eigenvalue": rat(-3),
           "candidates": []}
    for k in (1, 2):
        fam["candidates"].append(
            {"label": f"(sign2[{k},2], 0)", "vector": _spinor_vec(sig(k, 2), zero_fn)})
        fam["candidates"].append(
            {"label": f"(0, sign2[{k},2])", "vector": _spinor_vec(zero_fn, sig(k, 2))})
    families.append(fam)

    fam = {"name": "rotation ansatz", "claimed_eigenvalue": rat(3),
           "candidates": []}
    rotated = []
    for k in (1, 2):
        phi = rho(k, 2)
        second = [omega * v for v in (r_t @ phi)]
        vec = _spinor_vec(phi, second)
        rotated.append(vec)
        fam["candidates"].append({"label": f"rotation ansatz k={k}", "vector": vec})
    families.append(fam)

    fam = {"name": "reflection ansatz", "claimed_eigenvalue": rat(-3),
           "candidates": []}
    for k in (1, 2):
        phi = rho(k, 2)
        fam["candidates"].append(
            {"label": f"reflection ansatz k={k}",
             "vector": _spinor_vec(phi, r_x @ phi)})
    families.append(fam)

    chi = _vec_of(reps["sign"].matrix_element(0, 0))
    parity_op = Mat.diag(chi)
    fam = {"name": "parity images of the rotation ansatz",
           "claimed_eigenvalue": rat(-3), "candidates": []}
    for k, vec in zip((1, 2), rotated):
        first, second = vec[:n], vec[n:]
        fam["candidates"].append(
            {"label": f"parity image k={k}",
             "vector": _spinor_vec(parity_op @ first, parity_op @ second)})
    families.append(fam)

    phi_char = _vec_of(reps["rot-parity"].matrix_element(0, 0))
    psi_char = _vec_of(reps["rot-parity*sign"].matrix_element(0, 0))
    completions = [
        (rat(0), [
            (f"(planar2[{k},2], 0)", _spinor_vec(rho2(k, 2), zero_fn))
            for k in (1, 2)
        ] + [
            (f"(0, planar2[{k},1])", _spinor_vec(zero_fn, rho2(k, 1)))
            for k in (1, 2)
        ]),
        (rat(3), [
            ("(rot-parity, 0)", _spinor_vec(phi_char, zero_fn)),
            ("(0, rot-parity)", _spinor_vec(zero_fn, phi_char)),
        ] + [
            (f"(planar2[{k},1], -planar2[{k},2])",
             _spinor_vec(rho2(k, 1), [-v for v in rho2(k, 2)]))
            for k in (1, 2)
        ]),
        (rat(-3), [
            ("(rot-parity*sign, 0)", _spinor_vec(psi_char, zero_fn)),
            ("(0, rot-parity*sign)", _spinor_vec(zero_fn, psi_char)),
        ] + [
            (f"(planar2[{k},1], planar2[{k},2])",
             _spinor_vec(rho2(k, 1), rho2(k, 2)))
            for k in (1, 2)
        ]),
    ]

    out = _assess(op, spect, families, [rat(0), rat(3), rat(-3)], completions)
    out["mu"] = Fraction(0)

    parity_full = Mat.identity(spinor.dim).kron(parity_op)
    out["sign_multiplication_anticommutes"] = (
        (op @ parity_full + parity_full @ op).is_zero()
        and parity_full @ parity_full == Mat.identity(spinor.dim * n))
    zero_block = Mat.zeros(n, n)
    out["component_identities"] = {
        "lower*lower": lower @ lower == zero_block,
        "upper*upper": upper @ upper == zero_block,
        "diag*lower": diag @ lower == zero_block,
        "lower*diag": lower @ diag == zero_block,
        "diag*upper": diag @ upper == zero_block,
        "upper*diag": upper @ diag == zero_block,
    }
    return out


def wave_eigenmode_catalog(C: ConjClass, op: Mat, spect: Spectrum) -> dict:
    """Replay the closed-form wave eigenfunction list against the mu = 0
    wave operator op and its certified spectrum spect.

    Claimed families: the second twisted column at eigenvalue 0, the first
    twisted column at -12, and the spinor matrix elements together with
    their complex conjugates at -6.  One candidate in each twisted family
    is identically zero, and the conjugated matrix elements coincide with
    the originals up to index reversal, so each claimed family spans only
    part of the certified eigenspace; the completions name the missing
    characters and the second planar family.
    """
    group, spinor, twisted, reps = _catalog_context(C)

    def rho(k, l):
        return _vec_of(spinor.matrix_element(k - 1, l - 1))

    def rho_bar(k, l):
        return [v.conj() for v in rho(k, l)]

    def rho2(k, l):
        return _vec_of(reps["planar2"].matrix_element(k - 1, l - 1))

    def sig(k, l):
        return _vec_of(twisted.matrix_element(k - 1, l - 1))

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
    phi_char = _vec_of(reps["rot-parity"].matrix_element(0, 0))
    psi_char = _vec_of(reps["rot-parity*sign"].matrix_element(0, 0))
    completions = [
        (rat(0), [("rot-parity*sign", psi_char)]),
        (rat(-12), [("rot-parity", phi_char)]),
        (rat(-6), [(f"planar2[{k},{l}]", rho2(k, l))
                   for k in (1, 2) for l in (1, 2)]),
    ]
    out = _assess(op, spect, families, [rat(0), rat(-12), rat(-6)], completions)
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
