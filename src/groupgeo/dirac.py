"""Spinor geometry: metric, gamma matrices, Dirac and wave operators,
chirality and the spectral action.

The frame metric eta^{ab} = delta_{ab} + mu on a class of size n is
singular at mu = -1/n, and the casimir normalisation 1/(1 + 4 mu) of the
gamma matrices at mu = -1/4; the checks of groups refuse both.

A spinor operator is a group-algebra element sum_h M_h (x) R(h) in
linalg's coefficient form: constant dim(W) x dim(W) coefficients M_h,
every h inside H = <C>.  dirac_operator and wave_operator return {h: M_h},
which linalg assembles and spectra certifies; chirality and the spectral
action read the certified spectrum.
"""

from __future__ import annotations

from math import factorial, lcm
from typing import TYPE_CHECKING, Mapping, Sequence

from .cyclotomic import ONE, ZERO, Cyclotomic, rat
from .errors import AsymmetricSpectrumError
from .groups import require_invertible_metric, require_regular_casimir
from .linalg import Mat, inverse

if TYPE_CHECKING:
    from .connections import Connection
    from .groups import ConjClass
    from .representations import Representation
    from .spectra import BlockForm, Spectrum


# ---------------------------------------------------------------------------
# metric


def metric(cls: ConjClass, mu) -> tuple[Mat, Mat]:
    """The pairing eta^{ab} = delta_{ab} + mu and its exact inverse, as
    matrices indexed by class position.

    The coframe of the a-th basis 1-form has coefficient row eta[b][a] over
    b, the a-th row again.  Raises SingularMetricError at mu = -1/n.
    """
    mu = rat(mu)
    n = cls.size
    require_invertible_metric(n, mu)
    eta = Mat.identity(n) + Mat([[mu] * n] * n)
    # inverse of I + mu J in closed form: I - mu/(1 + n mu) J
    eta_inv = Mat.identity(n) - Mat([[mu / (1 + n * mu)] * n] * n)
    assert eta @ eta_inv == Mat.identity(n)
    return eta, eta_inv


# ---------------------------------------------------------------------------
# casimir and gamma matrices


def casimir(rep: Representation, C: ConjClass, mu=ZERO) -> Mat:
    """The quadratic casimir of the class in the given representation.

    In the group algebra this is the sum over class members a of
    (a^-1 - e)^2, scaled by 1/(1 + 4 mu).  On any representation whose
    class-sum vanishes the result is a scalar matrix; the trivial
    representation gives zero.
    """
    require_invertible_metric(C.size, mu)
    require_regular_casimir(mu)
    group = rep.group
    dim = rep.dim
    total = Mat.zeros(dim, dim)
    ident = Mat.identity(dim)
    for a in C.members:
        ia = group.inv(a)
        square = rep(group.mul(ia, ia))
        total = total + square - rep(ia) * rat(2) + ident
    return total * (ONE / (1 + 4 * mu))


def gamma_matrices(rep: Representation, C: ConjClass, mu=ZERO) -> dict[int, Mat]:
    """One gamma matrix per class member, keyed by group element index.

    The casimir convention of the Dirac operator: the translation part
    rho(a^-1) - id shifted by 4 mu/(1 + 4 mu) times the identity.
    """
    require_invertible_metric(C.size, mu)
    require_regular_casimir(mu)
    ident = Mat.identity(rep.dim)
    shift = ONE - ONE / (1 + 4 * mu)
    return {a: rep(rep.group.inv(a)) - ident + ident * shift for a in C.members}


# ---------------------------------------------------------------------------
# spinor operators as group-algebra elements


def dirac_operator(rep: Representation, A: Connection, mu=ZERO) -> dict[int, Mat]:
    """The Dirac operator as its group-algebra coefficients {h: M_h}.

    The free part couples each gamma matrix to the corresponding partial
    translation R_a - id; the connection part subtracts, for every pair of
    class members, the gamma-weighted translation generator times the
    coefficient of the connection.  Those coefficients are constants, so
    the operator is the group-algebra element with coefficient M_a = gamma_a
    at each class member a and the rest at the identity; assemble writes
    its matrix on G or on H = <C>, C the class of the connection's
    calculus.  Raises ValueError on a representation of another group.
    """
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
            coeffs[0] = coeffs[0] - (gammas[b] @ tau) * A.coefficient(apos, bpos)
    return coeffs


def wave_operator(C: ConjClass, mu=ZERO) -> dict[int, Mat]:
    """The scalar wave operator, minus the inverse-metric contraction of the
    second partial translations, as its group-algebra coefficients
    {h: 1 x 1 matrix}.

    Each product (R_a - 1)(R_b - 1) expands to R_ab - R_a - R_b + 1, so the
    operator is supported on H = <C>.  At mu = 0 on an involutive class it
    collapses to twice the class translation sum minus twice the class
    size.
    """
    eta_inv = metric(C, mu)[1]
    group = C.group
    coeffs: dict[int, Cyclotomic] = {}
    for apos, a in enumerate(C.members):
        for bpos, b in enumerate(C.members):
            w = eta_inv[apos, bpos]
            for h, sign in ((group.mul(a, b), -1), (a, 1), (b, 1), (0, -1)):
                coeffs[h] = coeffs.get(h, ZERO) + w * sign
    return {h: Mat([[c]]) for h, c in coeffs.items()}


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

    The i-th +lambda eigenvector of the form's kernel bases, over all
    copies in order, is paired with the i-th -lambda one, often of another
    copy (at mu = 0 on D6 the trivial block is -3 times the identity and
    the sign block +3 times it).  The grading swaps each pair and fixes the
    kernel, reading coordinates off one inverse eigenvector matrix per
    irreducible; minus the identity on the kernel gives another grading.

    Raises AsymmetricSpectrumError when some multiplicity of +lambda and
    -lambda on W (x) C[G] disagree, since then no pairing exists.
    """
    require_symmetric(form.spectrum)
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
        if ZERO < v:
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
# spectral action


def spectral_action(spect: Spectrum, coeffs: Sequence, lam) -> Cyclotomic:
    """Sum of mult * f(lambda^2 / lam^2) over the certified spectrum, for the
    polynomial f with rational low-to-high coefficients coeffs.

    The scale lam must be a positive rational.  The result is exact because
    the spectrum is, and it is reduced once: with the coefficients a_k / b
    over one denominator b and the eigenvalues over one denominator L,
    every u = lambda^2 / lam^2 is p / q for one q = (L lam's numerator)^2,
    so f(u) = (sum_k a_k p^k q^(n-k)) / (b q^n), whose numerator is one
    integer Horner pass in p, and the numerators add up over the spectrum.
    """
    lam, cs = rat(lam), [rat(c) for c in coeffs]
    if not (lam.is_rational() and ZERO < lam and all(c.is_rational() for c in cs)):
        raise ValueError("the scale must be a positive rational, the coefficients rational")
    b = lcm(*(c.den for c in cs))
    L = lcm(*(v.den for v, _ in spect.pairs))
    q = (L * lam.nums[0]) ** 2
    # a_k q^(n-k), k from n down
    terms = [c.nums[0] * (b // c.den) * q ** i for i, c in enumerate(reversed(cs))] or [0]
    num = 0
    for value, mult in spect.pairs:
        p = (value.nums[0] * (L // value.den) * lam.den) ** 2
        acc = 0
        for term in terms:
            acc = acc * p + term
        num += mult * acc
    return rat(num, b * q ** (len(terms) - 1))


def exp_taylor_coefficients(degree: int) -> list[Cyclotomic]:
    """Taylor coefficients of exp(-u) through the given degree."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return [rat((-1) ** k, factorial(k)) for k in range(degree + 1)]
