"""Spinor geometry: metric, gamma matrices, Dirac and wave operators, spectra.

The frame metric on a class of size n pairs the basis 1-forms through
eta^{ab} = delta_{ab} + mu for a single rational modulus mu; it degenerates
exactly at mu = -1/n.  Gamma matrices act on a chosen carrier representation
W and come with the quadratic-casimir normalisation 1/(1 + 4 mu), which is
singular at mu = -1/4; both degenerate values raise SingularMetricError.

A spinor operator is a plain exact matrix on W tensor (functions on G),
laid out spinor-component-major: entry block (i, j) of the dim(W) x dim(W)
grid is the |G| x |G| operator mapping the j-th spinor component into the
i-th.  Spectra are certified, never approximated: a candidate eigenvalue
receives the exact nullity of (op - lambda id) as its multiplicity, and the
multiplicities must add up to the full dimension or the computation refuses
to answer (IncompleteSpectrumError).

The eigenmode catalogs replay a closed-form list of claimed eigenvectors
against those certified multiplicities.  Candidates that are identically
zero are reported as such, surviving candidates are verified exactly, and
any gap between the span of the verified modes and the true multiplicity is
reported together with explicit completion modes.  Shortfalls are reported,
not asserted away.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

from .calculus import Calculus, GroupFunction
from .connections import Connection, levi_civita
from .curvature import TensorOneOne
from .cyclotomic import Cyclotomic, rat
from .errors import (
    AsymmetricSpectrumError,
    GroupGeoError,
    IncompleteSpectrumError,
    SingularMetricError,
    UnsupportedGroupError,
)
from .groups import ConjClass, FiniteGroup
from .linalg import Mat, as_scalar, eval_poly, inverse, kernel_basis, rank
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


def metric_tensor(calculus: Calculus, mu) -> TensorOneOne:
    """The metric as a (1,1) tensor: sum of e_a x e_a plus mu theta x theta.

    Its wedge vanishes, which is the compatibility between the pairing and
    the 2-form relations; the test suite certifies that identity.
    """
    mu = Fraction(mu)
    m = calculus.cls.size
    grid = [[calculus.constant(Fraction(mu) + (1 if p == q else 0))
             for q in range(m)] for p in range(m)]
    return TensorOneOne(calculus, grid)


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


def gamma_matrices(rep: Representation, C: ConjClass, mu=Fraction(0),
                   variant: str = "casimir") -> dict[int, Mat]:
    """One gamma matrix per class member, keyed by group element index.

    variant "casimir" (the default, used by the Dirac operator) shifts the
    translation part rho(a^-1) - id by 4 mu/(1 + 4 mu) times the identity;
    variant "metric" contracts the translation parts with the inverse
    metric instead, shifting by 3 mu/(1 + 3 mu) on a 3-member class.  The
    two agree at mu = 0 and differ for generic mu.
    """
    mu = Fraction(mu)
    _require_gamma_admissible(C, mu)
    group = rep.group
    ident = Mat.identity(rep.dim)
    taus = {a: rep(group.inv(a)) - ident for a in C.members}
    if variant == "casimir":
        shift = rat(Fraction(4 * mu, 1 + 4 * mu))
        return {a: taus[a] + ident * shift for a in C.members}
    if variant == "metric":
        eta_inv = metric(C, mu).eta_inv
        out = {}
        for apos, a in enumerate(C.members):
            acc = Mat.zeros(rep.dim, rep.dim)
            for bpos, b in enumerate(C.members):
                acc = acc + taus[b] * eta_inv[apos, bpos]
            out[a] = acc
        return out
    raise ValueError(f"unknown gamma variant {variant!r}")


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


def dirac_candidates(mu=Fraction(0)) -> list[Fraction]:
    """Candidate Dirac eigenvalues for a 3-member involutive class with the
    distinguished connection.

    At mu = 0 the operator splits into translation blocks with eigenvalues
    0 and +-3; away from zero it shifts by 4 mu/(1 + 4 mu) times the
    centered class translation sum, which commutes with the free part, so
    every eigenvalue is a sum from the two commuting spectra.
    """
    mu = Fraction(mu)
    if 1 + 4 * mu == 0:
        raise SingularMetricError(
            "casimir normalisation 1/(1 + 4 mu) is singular at mu = -1/4")
    c = Fraction(4 * mu, 1 + 4 * mu)
    vals = {Fraction(s) + c * (l0 - 3) for s in (0, 3, -3) for l0 in (3, -3, 0)}
    return sorted(vals)


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


def wave_candidates(mu=Fraction(0)) -> list[Fraction]:
    """Candidate wave eigenvalues for the 3-member involutive class.

    The class translation sum has eigenvalues 3, 0, -3 on functions, and
    the mu-dependence enters only through its square, scaled by
    mu/(1 + 3 mu)."""
    mu = Fraction(mu)
    if 1 + 3 * mu == 0:
        raise SingularMetricError(
            "metric modulus mu = -1/3 is singular for a class of size 3")
    m = Fraction(mu, 1 + 3 * mu)
    vals = {Fraction(0), -6 + 9 * m, -12 + 36 * m}
    return sorted(vals)


# ---------------------------------------------------------------------------
# certified spectra


def _sort_key(value: Cyclotomic):
    z = complex(value)
    return (round(z.real, 9), round(z.imag, 9))


class Spectrum:
    """An exact eigenvalue table whose multiplicities provably exhaust the
    operator dimension."""

    __slots__ = ("pairs", "dimension")

    def __init__(self, pairs: Sequence[tuple], dimension: int):
        ps = tuple((as_scalar(v), int(m)) for v, m in pairs)
        total = sum(m for _, m in ps)
        if total != dimension:
            raise IncompleteSpectrumError(
                f"multiplicities sum to {total} but the operator dimension is "
                f"{dimension}; the candidate list misses {dimension - total} dimensions")
        object.__setattr__(self, "pairs", ps)
        object.__setattr__(self, "dimension", dimension)

    def __setattr__(self, *_):
        raise AttributeError("Spectrum is immutable")

    def multiplicity(self, value) -> int:
        v = as_scalar(value)
        for val, m in self.pairs:
            if val == v:
                return m
        return 0

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)

    def __repr__(self):
        body = ", ".join(f"{v!r}: {m}" for v, m in self.pairs)
        return f"Spectrum({{{body}}}, dim={self.dimension})"


def spectrum(op: Mat, candidates: Sequence) -> Spectrum:
    """Certify the spectrum of an exact operator against candidate values.

    Each distinct candidate gets multiplicity = exact nullity of
    (op - lambda id); candidates of nullity zero are dropped.  If the
    multiplicities do not exhaust the dimension the candidate list was
    incomplete and IncompleteSpectrumError is raised: no eigenvalue is
    ever reported on numerical evidence.
    """
    n = op.nrows
    if n != op.ncols:
        raise ValueError("spectra are defined for square operators")
    ident = Mat.identity(n)
    seen: list[Cyclotomic] = []
    pairs = []
    for cand in candidates:
        v = as_scalar(cand)
        if any(v == s for s in seen):
            continue
        seen.append(v)
        mult = n - rank(op - ident * v)
        if mult:
            pairs.append((v, mult))
    pairs.sort(key=lambda p: _sort_key(p[0]))
    return Spectrum(pairs, n)


# ---------------------------------------------------------------------------
# minimal polynomials


def minimal_polynomial(op: Mat) -> list[Cyclotomic]:
    """Monic minimal polynomial of an exact operator, low-to-high coeffs.

    Krylov elimination on the flattened powers id, op, op^2, ...: each new
    power is reduced against the pivots found so far while tracking the
    combination that produced it; the first power that reduces to zero
    yields the least annihilating polynomial.
    """
    n = op.nrows
    if n != op.ncols:
        raise ValueError("minimal polynomials are defined for square operators")
    pivots: list[tuple[int, list[Cyclotomic], list[Cyclotomic]]] = []
    power = Mat.identity(n)
    degree = 0
    while True:
        vec = [x for row in power.rows for x in row]
        combo = [_ZERO] * degree + [_ONE]
        for col, pvec, pcombo in pivots:
            f = vec[col]
            if f:
                vec = [x - f * y for x, y in zip(vec, pvec)]
                combo = [x - f * y for x, y in
                         zip(combo + [_ZERO] * (len(pcombo) - len(combo)),
                             pcombo + [_ZERO] * (len(combo) - len(pcombo)))]
        lead = next((i for i, x in enumerate(vec) if x), None)
        if lead is None:
            return combo
        piv_inv = vec[lead].inverse()
        pivots.append((lead,
                       [x * piv_inv for x in vec],
                       [x * piv_inv for x in combo]))
        power = power @ op
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


def minimal_polynomial_check(op: Mat, candidates: Sequence | None = None) -> bool:
    """Does the product of (op - c id) over the candidates annihilate op?

    With no candidates the Krylov minimal polynomial itself is evaluated,
    which certifies the elimination.  Either way the verdict comes from an
    exact matrix identity, never from eigenvalue estimates.
    """
    if candidates is None:
        coeffs = minimal_polynomial(op)
    else:
        distinct: list[Cyclotomic] = []
        for c in candidates:
            v = as_scalar(c)
            if not any(v == s for s in distinct):
                distinct.append(v)
        coeffs = poly_from_roots(distinct)
    return eval_poly(op, coeffs).is_zero()


def _rational_roots(coeffs: list[Cyclotomic]) -> list[Fraction]:
    """All roots of a monic exact polynomial, required rational.

    Raises GroupGeoError when a coefficient is irrational or when the
    polynomial does not split over the rationals; callers that know better
    candidate sets should pass them explicitly instead.
    """
    try:
        fracs = [c.as_fraction() for c in coeffs]
    except ValueError as exc:
        raise GroupGeoError(
            "minimal polynomial has non-rational coefficients; "
            "pass candidate eigenvalues explicitly") from exc
    roots: list[Fraction] = []
    cur = fracs
    while len(cur) > 1:
        while len(cur) > 1 and cur[0] == 0:
            roots.append(Fraction(0))
            cur = cur[1:]
        if len(cur) == 1:
            break
        den_lcm = math.lcm(*(c.denominator for c in cur))
        ints = [int(c * den_lcm) for c in cur]
        root = _find_rational_root(ints)
        if root is None:
            raise GroupGeoError(
                "minimal polynomial does not split into rational linear factors; "
                "pass candidate eigenvalues explicitly")
        roots.append(root)
        cur = _deflate(cur, root)
    return roots


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _find_rational_root(ints: list[int]) -> Fraction | None:
    # rational root theorem on the integer-scaled polynomial
    if ints[0] == 0:
        return Fraction(0)
    for q in _divisors(ints[-1]):
        for p in _divisors(ints[0]):
            for sign in (1, -1):
                cand = Fraction(sign * p, q)
                acc = Fraction(0)
                for c in reversed(ints):
                    acc = acc * cand + c
                if acc == 0:
                    return cand
    return None


def _deflate(fracs: list[Fraction], root: Fraction) -> list[Fraction]:
    # synthetic division by (x - root), exact
    out = [Fraction(0)] * (len(fracs) - 1)
    carry = Fraction(0)
    for i in range(len(fracs) - 1, 0, -1):
        carry = fracs[i] + carry * root
        out[i - 1] = carry
    if fracs[0] + carry * root != 0:
        raise GroupGeoError("synthetic division left a remainder; root was not exact")
    return out


# ---------------------------------------------------------------------------
# chirality


def chirality(op: Mat, candidates: Sequence | None = None,
              kernel_sign: int = 1) -> Mat:
    """A grading that squares to the identity and anticommutes with op.

    The operator is diagonalised exactly; the +lambda and -lambda
    eigenspaces are paired blockwise through their deterministic kernel
    bases and the grading swaps the pair, acting as kernel_sign times the
    identity on the kernel.  Both kernel signs give valid gradings, which
    is exactly the non-uniqueness on a spectrum with zero modes.

    Raises AsymmetricSpectrumError when some multiplicity of +lambda and
    -lambda disagree, since then no pairing exists.
    """
    if kernel_sign not in (1, -1):
        raise ValueError("kernel_sign must be +1 or -1")
    if candidates is None:
        candidates = _rational_roots(minimal_polynomial(op))
    spect = spectrum(op, candidates)
    n = op.nrows
    ident = Mat.identity(n)
    # symmetry check first: every nonzero eigenvalue needs its mirror
    for v, m in spect.pairs:
        neg = -v
        m_neg = spect.multiplicity(neg)
        if not v.is_zero() and m_neg != m:
            raise AsymmetricSpectrumError(
                f"eigenvalue {v!r} has multiplicity {m} but {neg!r} has "
                f"{m_neg}; no exact grading can pair them")
    columns: list[list[Cyclotomic]] = []
    blocks: list[tuple[int, str]] = []  # (size, kind) in column order
    done: list[Cyclotomic] = []
    for v, m in spect.pairs:
        if v.is_zero() or any(v == d for d in done):
            continue
        done.append(v)
        done.append(-v)
        plus = kernel_basis(op - ident * v)
        minus = kernel_basis(op + ident * v)
        columns.extend(plus)
        columns.extend(minus)
        blocks.append((m, "swap"))
    zero_mult = spect.multiplicity(0)
    if zero_mult:
        columns.extend(kernel_basis(op))
        blocks.append((zero_mult, "kernel"))
    basis = Mat(columns).transpose()
    grading = [[_ZERO] * n for _ in range(n)]
    offset = 0
    for size, kind in blocks:
        if kind == "swap":
            for i in range(size):
                grading[offset + i][offset + size + i] = _ONE
                grading[offset + size + i][offset + i] = _ONE
            offset += 2 * size
        else:
            sign = _ONE if kernel_sign == 1 else -_ONE
            for i in range(size):
                grading[offset + i][offset + i] = sign
            offset += size
    return basis @ Mat(grading) @ inverse(basis)


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
    if group.order != 12 or C.size != 3:
        raise UnsupportedGroupError(
            "the closed-form eigenmode catalog is stated for the 12-element "
            "dihedral group with its 3-member reflection class")
    reps = {r.name: r for r in irreducibles(group)}
    spinor = builtin_rep(group, "spinor")
    twisted = builtin_rep(group, "sign2")
    return group, spinor, twisted, reps


class _ByValue:
    """Accumulate items under exact scalar keys compared by equality, since
    equal cyclotomic values can carry different ambient orders."""

    def __init__(self):
        self.entries: list[tuple[Cyclotomic, list]] = []

    def bucket(self, value) -> list:
        v = as_scalar(value)
        for key, items in self.entries:
            if key == v:
                return items
        items: list = []
        self.entries.append((v, items))
        return items


def _assess(op: Mat, families: list[dict], claimed_values: list,
            completions: list[tuple]) -> dict:
    """Shared scoring: statuses per candidate, spans and gaps per value."""
    n = op.nrows
    ident = Mat.identity(n)
    verified = _ByValue()
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
            verified.bucket(lam).append(vec)
    summaries = []
    for value in claimed_values:
        v = as_scalar(value)
        vecs = list(verified.bucket(v))
        mult = n - rank(op - ident * v)
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


def eigenmode_catalog(rep: Representation, A: Connection, C: ConjClass,
                      mu=Fraction(0)) -> dict:
    """Replay the closed-form Dirac eigenvector list at mu = 0.

    Families: images of the off-diagonal translation blocks (claimed zero
    modes), the two columns of the twisted 2-dimensional representation
    (claimed at +3 and -3), a rotation-translated ansatz at +3, a
    reflection-translated ansatz at -3, and the parity images of the
    rotation ansatz.  Some claimed candidates are identically zero and some
    families only span part of the certified eigenspace; the catalog
    reports those shortfalls and exhibits explicit completion modes from
    the irreducible matrix elements.
    """
    mu = Fraction(mu)
    if mu != 0:
        raise ValueError("the closed-form catalog is stated at mu = 0")
    group, spinor, twisted, reps = _catalog_context(C)
    if rep.matrices != spinor.matrices:
        raise UnsupportedGroupError(
            "the catalog is stated for the 2-dimensional spinor representation")
    if A != levi_civita(A.calculus):
        raise ValueError(
            "the catalog is stated for the distinguished torsion-free connection")
    op = dirac_operator(rep, A, C, mu)
    n = group.order
    zero_fn = [_ZERO] * n

    def rho(k, l):
        return _vec_of(rep.matrix_element(k - 1, l - 1))

    def rho2(k, l):
        return _vec_of(reps["planar2"].matrix_element(k - 1, l - 1))

    def sig(k, l):
        return _vec_of(twisted.matrix_element(k - 1, l - 1))

    lower = translation_block(rep, C, 1, 0)
    upper = translation_block(rep, C, 0, 1)
    diag = class_translation_sum(C)
    t, x = C.members[0], C.members[1]
    r_t = group.right_translation(t)
    r_x = group.right_translation(x)
    omega = rep(t)[1, 0]

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

    out = _assess(op, families, [rat(0), rat(3), rat(-3)], completions)
    out["mu"] = mu

    parity_full = Mat.identity(rep.dim).kron(parity_op)
    out["sign_multiplication_anticommutes"] = (
        (op @ parity_full + parity_full @ op).is_zero()
        and parity_full @ parity_full == Mat.identity(rep.dim * n))
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


def wave_eigenmode_catalog(C: ConjClass, mu=Fraction(0)) -> dict:
    """Replay the closed-form wave eigenfunction list at mu = 0.

    Claimed families: the second twisted column at eigenvalue 0, the first
    twisted column at -12, and the spinor matrix elements together with
    their complex conjugates at -6.  One candidate in each twisted family
    is identically zero, and the conjugated matrix elements coincide with
    the originals up to index reversal, so each claimed family spans only
    part of the certified eigenspace; the completions name the missing
    characters and the second planar family.
    """
    mu = Fraction(mu)
    if mu != 0:
        raise ValueError("the closed-form catalog is stated at mu = 0")
    group, spinor, twisted, reps = _catalog_context(C)
    op = wave_operator(C, mu)

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
    out = _assess(op, families, [rat(0), rat(-12), rat(-6)], completions)
    out["mu"] = mu
    # the conjugated elements are the originals with both indices reversed
    out["conjugates_coincide_reversed"] = all(
        rho_bar(k, l) == rho(3 - k, 3 - l) for k in (1, 2) for l in (1, 2))
    return out


# ---------------------------------------------------------------------------
# spectral action


def spectral_action(spect: Spectrum, f, lam) -> Cyclotomic:
    """Sum of mult * f(lambda^2 / scale^2) over the certified spectrum.

    f is either a callable on exact scalars or a low-to-high polynomial
    coefficient sequence; scale lam must be a positive rational.  The
    result is exact because the spectrum is.
    """
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("the scale must be a positive rational")
    total = sum(m for _, m in spect.pairs)
    if total != spect.dimension:
        raise IncompleteSpectrumError(
            f"spectrum object is inconsistent: multiplicities sum to {total} "
            f"of dimension {spect.dimension}")
    if callable(f):
        evaluate: Callable = f
    else:
        coeffs = [as_scalar(c) for c in f]

        def evaluate(u):
            acc = rat(0)
            power = rat(1)
            for c in coeffs:
                if c:
                    acc = acc + c * power
                power = power * u
            return acc

    scale = rat(Fraction(1, lam * lam))
    out = rat(0)
    for value, mult in spect.pairs:
        u = value * value * scale
        out = out + as_scalar(evaluate(u)) * rat(mult)
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
