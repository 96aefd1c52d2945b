"""Metric, gamma matrices, Dirac and wave operators, certified spectra,
eigenmode catalogs, chirality and the spectral action.

Every numeric value here was frozen from an exact computation; nothing is
asserted on floating point evidence.
"""

import copy
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import direct_product_cyclic, relabelled
from groupgeo import (catalogs, connections, dirac, linalg, reporting, representations, spectra,
                      spinor_reports)
from groupgeo.calculus import differential_calculus
from groupgeo.connections import levi_civita
from groupgeo.cyclotomic import cyclo, rat
from groupgeo.catalogs import eigenmode_catalog, wave_eigenmode_catalog
from groupgeo.dirac import (
    casimir,
    chirality,
    dirac_operator,
    exp_taylor_coefficients,
    gamma_matrices,
    grading_checks,
    metric,
    spectral_action,
    wave_operator,
)
from groupgeo.errors import (
    AsymmetricSpectrumError,
    GroupGeoError,
    IncompleteSpectrumError,
    SingularMetricError,
    UnsupportedGroupError,
)
from groupgeo.groups import conjugacy_class, dihedral, dihedral_structure
from groupgeo.linalg import Mat, assemble, is_hermitian, kernel_basis, same_element
from groupgeo.reporting import Geometry
from groupgeo.representations import irreducibles
from groupgeo.spectra import (
    Spectrum,
    certify,
    certify_blocks,
    eigenspaces,
    irreducible_blocks,
    poly_from_roots,
    spectrum,
)
from oracles import (
    apply,
    block_diagonal,
    block_matrix,
    class_translation_sum,
    coframe_coefficients,
    coset_lift,
    dense_chirality,
    dense_dirac_operator,
    dense_wave_operator,
    dirac_candidates,
    function_eigenmode_catalog,
    function_wave_eigenmode_catalog,
    grading_on_group,
    kron,
    left_cosets,
    matrix_element,
    metric_tensor,
    minimal_polynomial,
    minimal_polynomial_check,
    peter_weyl_basis,
    planar1,
    rank,
    right_translation,
    sign2,
    spinor_blocks,
    span_dim,
    sturm_integer_roots,
    translation_block,
    wave_candidates,
)


# -- metric -----------------------------------------------------------------

def test_metric_values_at_mu_one(cls_d6):
    eta, eta_inv = metric(cls_d6, 1)
    assert eta == Mat([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
    quarter = Fraction(1, 4)
    assert eta_inv == Mat([[1 - quarter, -quarter, -quarter],
                           [-quarter, 1 - quarter, -quarter],
                           [-quarter, -quarter, 1 - quarter]])
    assert eta @ eta_inv == Mat.identity(3)


def test_metric_singular(cls_d6):
    with pytest.raises(SingularMetricError, match="mu = -1/3 is singular"):
        metric(cls_d6, Fraction(-1, 3))


def test_metric_is_conjugation_invariant(cls_d6, d6):
    eta = metric(cls_d6, Fraction(2, 7))[0]
    for g in range(12):
        for apos, a in enumerate(cls_d6.members):
            for bpos, b in enumerate(cls_d6.members):
                left = eta[cls_d6.members.index(d6.conj(d6.inv(g), a)), bpos]
                right = eta[apos, cls_d6.members.index(d6.conj(g, b))]
                assert left == right


def test_coframe_coefficients(cls_d6):
    eta = metric(cls_d6, 1)[0]
    assert coframe_coefficients(eta, 0) == [rat(2), rat(1), rat(1)]
    assert coframe_coefficients(eta, 2) == [rat(1), rat(1), rat(2)]


def test_metric_tensor_wedge_vanishes(cal_d6):
    from groupgeo.curvature import wedge_of_tensor
    for mu in (Fraction(1), Fraction(2, 7)):
        assert wedge_of_tensor(metric_tensor(cal_d6, mu)).is_zero()


# -- casimir and gammas -----------------------------------------------------

def test_casimir_scalar_values(rep_d6, cls_d6):
    assert casimir(rep_d6, cls_d6) == Mat.identity(2) * 6
    assert casimir(rep_d6, cls_d6, Fraction(1)) == Mat.identity(2) * Fraction(6, 5)


def test_casimir_on_trivial_rep(d6, cls_d6):
    trivial = irreducibles(d6)[0]
    assert casimir(trivial, cls_d6).is_zero()


def test_casimir_singularities(rep_d6, cls_d6):
    with pytest.raises(SingularMetricError, match="1 \\+ 4 mu"):
        casimir(rep_d6, cls_d6, Fraction(-1, 4))
    with pytest.raises(SingularMetricError, match="-1/3"):
        casimir(rep_d6, cls_d6, Fraction(-1, 3))


def test_gamma_matrices_at_mu_zero(rep_d6, cls_d6, d6):
    gam = gamma_matrices(rep_d6, cls_d6)
    assert set(gam) == {7, 9, 11}
    for a in cls_d6:
        # class members are involutions: rho(a^-1) = rho(a)
        assert gam[a] == rep_d6(a) - Mat.identity(2)
    total = sum(gam.values(), Mat.zeros(2, 2))
    assert total == Mat.identity(2) * -3


def test_gamma_matrices_at_mu_one(rep_d6, cls_d6, d6):
    t = d6.index("sr")
    cas = gamma_matrices(rep_d6, cls_d6, Fraction(1))
    assert cas[t] == rep_d6(t) - Mat.identity(2) * Fraction(1, 5)
    assert sum(cas.values(), Mat.zeros(2, 2)) == Mat.identity(2) * Fraction(-3, 5)


# -- translation structure --------------------------------------------------

def test_class_translation_sum(cls_d6, d6):
    d0 = class_translation_sum(cls_d6)
    expect = Mat.zeros(12, 12)
    for a in cls_d6:
        expect = expect + right_translation(d6, a)
    assert d0 == expect
    assert d0.transpose() == d0


def test_translation_block_exchange(rep_d6, cls_d6, d6):
    # conjugating the off-diagonal blocks by one translation twists them
    # into each other with a sixth-root factor
    d1 = translation_block(rep_d6, cls_d6, 1, 0)
    d2 = translation_block(rep_d6, cls_d6, 0, 1)
    rt = right_translation(d6, d6.index("sr"))
    assert rt @ d1 == (d2 @ rt) * cyclo(6, 2)
    assert rt @ d2 == (d1 @ rt) * cyclo(6, 4)


def test_diagonal_translation_blocks(rep_d6, cls_d6):
    # the spinor has zero diagonal on reflections, so these blocks vanish
    assert translation_block(rep_d6, cls_d6, 0, 0).is_zero()
    assert translation_block(rep_d6, cls_d6, 1, 1).is_zero()


# -- the Dirac operator -----------------------------------------------------

def test_dirac_block_form(dirac0_d6, rep_d6, cls_d6):
    blocks = spinor_blocks(dirac0_d6, 2)
    d0 = class_translation_sum(cls_d6)
    assert blocks[0][0] == -d0
    assert blocks[1][1] == -d0
    assert blocks[0][1] == translation_block(rep_d6, cls_d6, 0, 1)
    assert blocks[1][0] == translation_block(rep_d6, cls_d6, 1, 0)


def test_dirac_free_form_at_mu_zero(dirac0_d6, rep_d6, cls_d6, d6):
    # the connection part exactly cancels the -id of each partial
    # translation, leaving the bare gamma-weighted translations
    gam = gamma_matrices(rep_d6, cls_d6)
    free = Mat.zeros(24, 24)
    for a in cls_d6:
        free = free + kron(gam[a], right_translation(d6, a))
    assert dirac0_d6 == free


def test_dirac_algebraic_identities(dirac0_d6):
    assert dirac0_d6.conj_transpose() == dirac0_d6
    assert dirac0_d6.trace() == rat(0)
    assert (dirac0_d6 @ dirac0_d6).trace() == rat(144)
    cube = dirac0_d6 @ dirac0_d6 @ dirac0_d6
    assert cube == dirac0_d6 * 9


def test_dirac_spectrum_at_mu_zero(spect0):
    assert spect0.pairs == ((rat(-3), 8), (rat(0), 8), (rat(3), 8))
    assert spect0.dimension == 24
    assert spect0.multiplicity(3) == 8
    assert spect0.multiplicity(7) == 0


def test_dirac_minimal_polynomial(dirac0_d6):
    coeffs = minimal_polynomial(dirac0_d6)
    assert coeffs == [rat(0), rat(-9), rat(0), rat(1)]
    assert coeffs == poly_from_roots([0, 3, -3])
    assert minimal_polynomial_check(dirac0_d6)
    assert minimal_polynomial_check(dirac0_d6, [0, 3, -3])
    assert not minimal_polynomial_check(dirac0_d6, [0, 3])


def test_dirac_mu_shift_identity(dirac0_d6, dirac1_d6, cls_d6):
    # the entire mu dependence is a multiple of the centered translation sum
    c = Fraction(4, 5)
    d0 = class_translation_sum(cls_d6)
    shift = kron(Mat.identity(2), d0 - Mat.identity(12) * 3)
    assert dirac1_d6 == dirac0_d6 + shift * c


def test_dirac_spectrum_at_mu_one(certified, dirac1_d6):
    spect = certified(dirac1_d6)
    assert spect.pairs == (
        (rat(Fraction(-27, 5)), 4), (rat(-3), 4), (rat(Fraction(-12, 5)), 8),
        (rat(Fraction(-9, 5)), 4), (rat(Fraction(3, 5)), 4))
    assert dirac1_d6.conj_transpose() == dirac1_d6
    assert dirac1_d6.trace() == rat(Fraction(-288, 5))


def test_dirac_candidate_values():
    assert dirac_candidates() == [-3, 0, 3]
    assert Fraction(-27, 5) in dirac_candidates(Fraction(1))
    with pytest.raises(SingularMetricError):
        dirac_candidates(Fraction(-1, 4))


def test_dirac_operator_validates_inputs(cal_d3, lc_d6):
    rep_d3 = planar1(cal_d3.group)
    with pytest.raises(ValueError, match="share one group"):
        dirac_operator(rep_d3, lc_d6)


# -- Spectrum type ----------------------------------------------------------

def test_spectrum_requires_exhaustion():
    with pytest.raises(IncompleteSpectrumError, match="misses 2 dimensions"):
        Spectrum([(rat(1), 2)], 4)


def test_spectrum_orders_eigenvalues_exactly():
    # 1 and 1 + 10^-12 are one float apart at nine digits; given in reverse
    # order they still come out sorted
    close = rat(1 + Fraction(1, 10 ** 12))
    spect = Spectrum({close: 1, rat(1): 1}, 2)
    assert spect.pairs == ((rat(1), 1), (close, 1))


def test_spectrum_certification_fails_on_short_candidates(dirac0_d6):
    ident = Mat.identity(24)
    short = {v: len(kernel_basis(dirac0_d6 - ident * v)) for v in (0, 3)}
    with pytest.raises(IncompleteSpectrumError, match="misses 8 dimensions"):
        Spectrum(short, 24)


def test_spectrum_of_jordan_block_is_incomplete(monkeypatch):
    starts = []

    def recorded(op, start):
        starts.append(start)
        return vector_minimal_polynomial(op, start)

    vector_minimal_polynomial = spectra._vector_minimal_polynomial
    monkeypatch.setattr(spectra, "_vector_minimal_polynomial", recorded)
    # e_0 is an eigenvector; e_1 only finds the same root again
    with pytest.raises(IncompleteSpectrumError, match="misses 1 dimensions"):
        spectrum(Mat([[2, 1], [0, 2]]))
    assert starts == [0, 1]


def test_spectrum_refuses_eigenvalues_outside_q():
    # x^2 - 2 has no rational root
    with pytest.raises(GroupGeoError, match="x\\^2 - 2 does not split"):
        spectrum(Mat([[0, 2], [1, 0]]))


@pytest.mark.parametrize("roots", [
    [0, 3, -3],
    [Fraction(-164609052, 164609053), Fraction(329218107, 164609053), -3],
    [Fraction(1, 2), Fraction(1, 2), Fraction(-7, 4)],
], ids=["small", "large-denominators", "repeated"])
def test_rational_roots_of_split_polynomials(roots):
    expect = sorted(set(Fraction(r) for r in roots))
    assert spectra._rational_roots(poly_from_roots(roots)) == expect


@pytest.mark.parametrize("coeffs", [[1, 0, 1], [0, -2, 0, 1], [-4, 0, 0, 0, 1]],
                         ids=["complex", "irrational", "quartic"])
def test_rational_roots_refuse_polynomials_that_do_not_split(coeffs):
    with pytest.raises(GroupGeoError, match="does not split"):
        spectra._rational_roots([rat(c) for c in coeffs])


def test_rational_roots_refuse_a_non_rational_coefficient():
    # x^2 + i x: the vector polynomials of an operator with an entry outside
    # Q can have such a coefficient
    with pytest.raises(GroupGeoError) as info:
        spectra._rational_roots([rat(0), cyclo(4), rat(1)])
    assert str(info.value) == (
        "minimal polynomial x^2 + (z4)*x has non-rational coefficients; "
        "eigenvalues outside Q are not certified")


def test_integer_roots_search_primes_up_to_the_first_that_separates_the_roots(monkeypatch):
    # mod every prime below 31 the roots 0 .. 30 collide, so q' vanishes at
    # a root there; mod 31 they are distinct and q = x^31 - x
    ints = [1]
    for r in range(31):
        ints = [a - r * b for a, b in zip([0] + ints, ints + [0])]
    mods = set()
    value_mod = spectra._value_mod

    def recorded(poly, x, m):
        mods.add(m)
        return value_mod(poly, x, m)

    monkeypatch.setattr(spectra, "_value_mod", recorded)
    assert spectra._integer_roots(ints) == (list(range(31)), 31)
    # the search reads every l up to 31, and the lifts only powers of 31
    assert {m for m in mods if m < 31 ** 2} == set(range(2, 32))


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _is_rational_square(q: Fraction) -> bool:
    return q >= 0 and all(math.isqrt(n) ** 2 == n for n in (q.numerator, q.denominator))


_LARGE_ROOTS = st.lists(
    st.tuples(st.builds(Fraction, st.integers(-2 ** 256, 2 ** 256),
                        st.integers(1, 2 ** 64)),
              st.integers(1, 3)),
    min_size=1, max_size=3)
_QUADRATICS = st.lists(
    st.tuples(st.builds(Fraction, st.integers(-99, 99), st.integers(1, 9)),
              st.builds(Fraction, st.integers(-99, 99), st.integers(1, 9)))
    .filter(lambda bc: not _is_rational_square(bc[0] ** 2 - 4 * bc[1])),
    max_size=2)


@settings(max_examples=100, deadline=None)
@given(_LARGE_ROOTS, _QUADRATICS)
def test_rational_roots_of_large_linear_times_irreducible_quadratic_factors(roots, quadratics):
    # linear factors with roots of hundreds of bits, repeated up to three
    # times, times monic quadratics with no rational root
    poly = [Fraction(1)]
    for r, times in roots:
        for _ in range(times):
            poly = _poly_mul(poly, [-r, Fraction(1)])
    for b, c in quadratics:
        poly = _poly_mul(poly, [c, b, Fraction(1)])
    if quadratics:
        with pytest.raises(GroupGeoError, match="does not split"):
            spectra._rational_roots([rat(c) for c in poly])
    else:
        assert spectra._rational_roots([rat(c) for c in poly]) == sorted({r for r, _ in roots})
    # the same integer polynomial _rational_roots hands to _integer_roots
    n = len(poly) - 1
    den = math.lcm(*(c.denominator for c in poly))
    ints = [int(c * den ** (n - k)) for k, c in enumerate(poly)]
    assert spectra._integer_roots(ints) == sturm_integer_roots(ints)


def test_dirac_spectrum_near_a_singular_modulus(cal_d3):
    # at mu = -0.33...3 (400 threes) the minimal polynomial's coefficients
    # run to thousands of digits, and Sturm bisection from Fujiwara's bound
    # (oracles.sturm_integer_roots) needs some 10^5 chain evaluations
    mu = Fraction("-0." + "3" * 400)
    cls = cal_d3.cls
    op = assemble(dirac_operator(planar1(cls.group),
                                 levi_civita(cal_d3), mu), cls.group)
    spect = spectrum(op)
    assert set(spect.multiplicities) <= {rat(c) for c in dirac_candidates(mu)}
    assert [m for _, m in spect.pairs] == [2, 2, 4, 2, 2]


def test_spectrum_at_a_modulus_with_large_denominators(cal_d3):
    # the roots are lifted p-adically, not found by listing divisors of the
    # (here 45-digit) coefficients
    mu = Fraction(123456789, 987654321)
    cls = cal_d3.cls
    op = assemble(dirac_operator(planar1(cls.group),
                                 levi_civita(cal_d3), mu), cls.group)
    _certified_from_the_operator(spectrum(op), minimal_polynomial(op), dirac_candidates(mu))


def test_spectrum_iteration(spect0):
    assert len(spect0) == 3
    assert [m for _, m in spect0] == [8, 8, 8]


# -- the wave operator ------------------------------------------------------

def test_wave_collapses_to_translation_sum(wave0_d6, cls_d6):
    d0 = class_translation_sum(cls_d6)
    assert wave0_d6 == d0 * 2 - Mat.identity(12) * 6


def test_wave_spectrum_at_mu_zero(wave0_d6, wave_spect0):
    assert wave_spect0.pairs == ((rat(-12), 2), (rat(-6), 8), (rat(0), 2))
    assert wave0_d6.conj_transpose() == wave0_d6


def test_wave_spectrum_at_mu_one(certified, d6, cls_d6):
    op = assemble(wave_operator(cls_d6, Fraction(1)), d6)
    spect = certified(op)
    assert spect.pairs == (
        (rat(Fraction(-15, 4)), 8), (rat(-3), 2), (rat(0), 2))


def test_wave_candidate_values(cls_d6):
    assert wave_candidates() == [-12, -6, 0]
    assert wave_candidates(Fraction(1)) == [Fraction(-15, 4), -3, 0]
    with pytest.raises(SingularMetricError):
        wave_candidates(Fraction(-1, 3))


def test_wave_annihilates_constants(wave0_d6):
    ones = [rat(1)] * 12
    assert all(v.is_zero() for v in wave0_d6 @ ones)


def test_wave_on_sign_character(wave0_d6, d6):
    chi = matrix_element(irreducibles(d6)[1], 0, 0)
    out = wave0_d6 @ [v for v in chi]
    assert list(out) == [v * rat(-12) for v in chi]


def test_wave_minimal_polynomial(wave0_d6):
    assert minimal_polynomial(wave0_d6) == poly_from_roots([0, -6, -12])
    assert minimal_polynomial_check(wave0_d6, [0, -6, -12])


# -- minimal polynomials read off the certified spectrum --------------------

MUS = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2, 5)]


@pytest.fixture(scope="module")
def certified():
    """spectrum(op), certified once per operator for the whole module: the
    dense 24x24 D6 Dirac spectra are the slowest certifications here, and
    several tests read the same one."""
    cache = {}

    def of(op):
        if op.rows not in cache:
            cache[op.rows] = spectrum(op)
        return cache[op.rows]

    return of


@pytest.fixture(scope="module")
def krylov_d6(d6, rep_d6, cal_d6, cls_d6):
    """The D6 Dirac and wave operators at mu, each with its Krylov minimal
    polynomial; computed once per mu for every test that uses them."""
    cache = {}

    def at(mu):
        if mu not in cache:
            coeffs = {"dirac": dirac_operator(rep_d6, levi_civita(cal_d6), mu),
                      "wave": wave_operator(cls_d6, mu)}
            ops = {name: assemble(c, d6) for name, c in coeffs.items()}
            cache[mu] = {name: (op, minimal_polynomial(op)) for name, op in ops.items()}
        return cache[mu]

    return at


def _certified_from_the_operator(spect, krylov, candidates):
    # the spectrum is found without candidates; the hand-derived closed
    # forms and the matrix Krylov polynomial only check it
    assert set(spect.multiplicities) <= {rat(c) for c in candidates}
    assert krylov == poly_from_roots(spect.multiplicities)


@pytest.mark.parametrize("mu", MUS, ids=str)
def test_certified_roots_give_krylov_minimal_polynomial_d6(certified, krylov_d6, mu):
    for name, candidates in (("dirac", dirac_candidates), ("wave", wave_candidates)):
        op, krylov = krylov_d6(mu)[name]
        _certified_from_the_operator(certified(op), krylov, candidates(mu))


@pytest.mark.parametrize("cal_name", ["cal_d3", "s3_cal"])
def test_certified_roots_give_krylov_minimal_polynomial_small(request, cal_name):
    cal = request.getfixturevalue(cal_name)
    cls = cal.cls
    rep = planar1(cls.group)
    for mu in MUS:
        op = assemble(dirac_operator(rep, levi_civita(cal), mu), cls.group)
        _certified_from_the_operator(spectrum(op), minimal_polynomial(op), dirac_candidates(mu))


@pytest.mark.parametrize("mu", [Fraction(0), Fraction(1, 2)], ids=str)
def test_reports_reduce_each_eigenvalue_once_and_skip_krylov(
        monkeypatch, krylov_d6, cls_d6, mu):
    expected = {name: krylov for name, (_, krylov) in krylov_d6(mu).items()}
    kernels = []
    ranks = []
    starts = []

    def counted_kernel(matrix):
        kernels.append(matrix.nrows)
        return kernel_basis(matrix)

    def counted_spans(vectors, first):
        ranks.append(len(vectors[0]))
        return spans(vectors, first)

    def recorded(op, start):
        starts.append((op.nrows, start))
        return vector_minimal_polynomial(op, start)

    kernel_basis, spans = spectra.kernel_basis, catalogs._spans
    vector_minimal_polynomial = spectra._vector_minimal_polynomial
    monkeypatch.setattr(spectra, "kernel_basis", counted_kernel)
    monkeypatch.setattr(catalogs, "_spans", counted_spans)
    monkeypatch.setattr(spectra, "_vector_minimal_polynomial", recorded)
    # the matrix Krylov minimal polynomial is a test oracle only
    assert not any(hasattr(module, "minimal_polynomial") for module in (dirac, spectra))
    geo = Geometry(cls_d6, mu)
    report = spinor_reports.dirac_report(geo)
    cert = geo.dirac
    assert report["minimal_polynomial"] == expected["dirac"]
    # one kernel per eigenvalue of each irreducible block, 2 x 2 for the
    # four characters, 4 x 4 for the two planar irreducibles, and none in
    # the grading, which reads the certificate's kernels
    assert kernels == [b.nrows for b, spaces in zip(cert.form.blocks, cert.form.eigenspaces)
                       for _ in spaces]
    assert len(kernels) == 10
    # e_0 reaches every eigenvalue of a character block, e_0 and e_1 those
    # of a planar one
    assert starts == [(2, 0)] * 4 + [(4, 0), (4, 1)] * 2
    # the catalog ranks each summarised value's modes once per copy that
    # holds one: 0 in the two rows of planar1 and of planar2; +3 and -3 in
    # a character, rot-parity or rot-parity*sign and the same four rows
    assert len(ranks) == {Fraction(0): 4 + 6 + 6, Fraction(1, 2): 0}[mu]
    assert max(ranks, default=0) <= 4
    kernels.clear()
    ranks.clear()
    starts.clear()
    report = spinor_reports.wave_report(Geometry(cls_d6, mu))
    assert report["minimal_polynomial"] == expected["wave"]
    assert kernels == [6] * len(report["spectrum"]["pairs"]) == [6] * 3
    assert starts == [(6, 0)]
    # one rank per copy in the wave catalog's summaries: a character and
    # rot-parity*sign at 0, sign and rot-parity at -12, the rows of planar1
    # and planar2 at -6
    assert len(ranks) == {Fraction(0): 2 + 2 + 4, Fraction(1, 2): 0}[mu]
    assert max(ranks, default=0) <= 2


# -- group-algebra assembly and the reduction to H = <C> -------------------

def _assert_block_certifies(op, coeffs, cls, dense):
    """certify's spectrum is the dense spectrum of op, with every
    multiplicity [G:H] times that of the block the coefficients assemble
    on H; each block eigenvector carried to every left coset by coset_lift
    is an eigenvector of op, and the lifted vectors of each value are
    independent."""
    subgroup = cls.generated_subgroup()
    copies = cls.group.order // len(subgroup)
    spect = certify(coeffs, cls)
    block = assemble(coeffs, cls.group, subgroup)
    assert block.nrows * copies == op.nrows
    block_spect = spectrum(block)
    assert spect.dimension == op.nrows
    assert spect.pairs == tuple((v, m * copies) for v, m in block_spect.pairs)
    assert spect.pairs == dense.pairs
    for value in spect.multiplicities:
        basis = kernel_basis(block - Mat.identity(block.nrows) * value)
        lifted = [coset_lift(vec, [coset], cls.group.order)
                  for coset in left_cosets(cls) for vec in basis]
        assert rank(Mat(lifted)) == len(lifted) == spect.multiplicity(value)
        for vec in lifted:
            assert op @ vec == [value * x for x in vec]


def _assert_coefficient_form(coeffs, group, op, vec):
    """apply and is_hermitian on the coefficients agree with the matrix op
    that assemble writes from them."""
    assert apply(coeffs, group, vec) == op @ vec
    assert is_hermitian(coeffs, group) == (op.conj_transpose() == op)


def _test_vector(size):
    return [rat(Fraction(i * i - 7, i + 1)) + cyclo(4) * (i % 3) for i in range(size)]


@pytest.mark.parametrize("mu", MUS, ids=str)
def test_assembled_operators_match_dense_oracles(certified, oracle_cal, mu):
    cls = oracle_cal.cls
    rep = planar1(cls.group)
    lc = levi_civita(oracle_cal)
    coeffs = dirac_operator(rep, lc, mu)
    op = assemble(coeffs, cls.group)
    assert op == dense_dirac_operator(rep, lc, cls, mu)
    _assert_coefficient_form(coeffs, cls.group, op, _test_vector(op.ncols))
    _assert_block_certifies(op, coeffs, cls, certified(op))
    coeffs = wave_operator(cls, mu)
    op = assemble(coeffs, cls.group)
    assert op == dense_wave_operator(cls, mu)
    _assert_coefficient_form(coeffs, cls.group, op, _test_vector(op.ncols))
    _assert_block_certifies(op, coeffs, cls, certified(op))


@pytest.mark.parametrize("mu", MUS, ids=str)
def test_wave_block_on_the_direct_product(cls_d6z2, mu):
    assert cls_d6z2.group.order // len(cls_d6z2.generated_subgroup()) == 4
    coeffs = wave_operator(cls_d6z2, mu)
    op = assemble(coeffs, cls_d6z2.group)
    assert op == dense_wave_operator(cls_d6z2, mu)
    _assert_coefficient_form(coeffs, cls_d6z2.group, op, _test_vector(op.ncols))
    _assert_block_certifies(op, coeffs, cls_d6z2, spectrum(op))


# the moduli of the behaviour ledger at which the metric and the casimir
# normalisation are invertible
LEDGER_MUS = [Fraction(0), Fraction(-1, 2), Fraction(1, 2), Fraction(2, 5)]


@pytest.fixture(scope="module")
def cal_d6_s(d6):
    """The calculus of the other reflection class of D6, the class of s."""
    return differential_calculus(conjugacy_class(d6, "s"))


@pytest.mark.parametrize("mu", LEDGER_MUS, ids=str)
@pytest.mark.parametrize("cal_name", ["cal_d3", "cal_d6", "cal_d6_s", "cal_d6_relabelled",
                                      "s3_cal"])
def test_irreducible_blocks_certify_the_dirac_operator(request, cal_name, mu):
    """The Peter-Weyl basis takes the operator on G to the block diagonal of
    the copies of its irreducible blocks; the block multiplicities are the
    dense H-block certificate's, value for value; the block grading squares
    to the identity and anticommutes with the copies, as the report's
    blockwise checks say, and an asymmetric spectrum is refused with the
    dense grading's text."""
    cal = request.getfixturevalue(cal_name)
    cls = cal.cls
    group = cls.group
    rep = planar1(group)
    coeffs = dirac_operator(rep, levi_civita(cal), mu)
    irreps = irreducibles(group)
    form = certify_blocks(coeffs, irreps)
    spect = form.spectrum
    assert spect.pairs == certify(coeffs, cls).pairs
    assert spect.dimension == rep.dim * group.order
    assert form.irreps == tuple(irreps)
    assert list(form.blocks) == irreducible_blocks(coeffs, irreps)
    assert list(form.eigenspaces) == [eigenspaces(b) for b in form.blocks]
    assert max(b.nrows for b in form.blocks) == 4
    op = assemble(coeffs, group)
    basis = peter_weyl_basis(irreps, rep.dim)
    copies = block_diagonal(form.copy_blocks())
    assert rank(basis) == op.nrows
    assert op @ basis == basis @ copies
    try:
        dense = dense_chirality(op)
    except AsymmetricSpectrumError as exc:
        with pytest.raises(AsymmetricSpectrumError) as info:
            chirality(form)
        assert str(info.value) == str(exc)
        return
    assert mu == 0
    ident = Mat.identity(op.nrows)
    assert dense @ dense == ident and (dense @ op + op @ dense).is_zero()
    gam = chirality(form)
    full = block_matrix(gam, [b.nrows for b in form.copy_blocks()])
    assert full @ full == ident
    assert (full @ copies + copies @ full).is_zero()
    assert grading_checks(form, gam) == (True, True)
    # a block grading that is not an involution, or that commutes with the
    # blocks, fails the report's checks
    doubled = {key: m * 2 for key, m in gam.items()}
    assert grading_checks(form, doubled) == (False, True)
    identity = {(c, c): Mat.identity(b.nrows) for c, b in enumerate(form.copy_blocks())}
    assert grading_checks(form, identity) == (True, False)


_ENTRIES = st.builds(lambda x, y: rat(x) + cyclo(4) * y,
                     st.fractions(-3, 3, max_denominator=4), st.integers(-2, 2))


@pytest.fixture(scope="module")
def coefficient_classes(cls_d6, s3_group, cal_d3, cal_d6_relabelled):
    """D3, D6, relabelled D6 and S3 x Z_m for m <= 4, S3 x Z_1 = S3."""
    return [cal_d3.cls, cls_d6, cal_d6_relabelled.cls] + [
        conjugacy_class(direct_product_cyclic(s3_group, m), "u") for m in (1, 2, 3, 4)]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), dim=st.sampled_from([1, 2]), hermitian=st.booleans())
def test_block_reads_hermiticity_and_trace_of_the_full_operator(
        coefficient_classes, data, dim, hermitian):
    cls = data.draw(st.sampled_from(coefficient_classes))
    group = cls.group
    subgroup = cls.generated_subgroup()
    zero = Mat.zeros(dim, dim)
    # explicit zero coefficients, and always one at a class member, an
    # involution h = h^-1 in each of these classes
    matrices = st.one_of(st.just(zero), st.builds(Mat, st.lists(
        st.lists(_ENTRIES, min_size=dim, max_size=dim), min_size=dim, max_size=dim)))
    coeffs = data.draw(st.dictionaries(st.sampled_from(subgroup), matrices))
    coeffs.setdefault(cls.members[0], data.draw(matrices))
    if hermitian:
        # op + op^dagger: op is hermitian exactly when M_{h^-1} = M_h^dagger
        coeffs = {h: coeffs.get(h, zero) + coeffs.get(group.inv(h), zero).conj_transpose()
                  for h in sorted({*coeffs, *map(group.inv, coeffs)})}
    op = assemble(coeffs, group)
    block = assemble(coeffs, group, subgroup)
    copies = group.order // len(subgroup)
    assert (block.conj_transpose() == block) == (op.conj_transpose() == op)
    if hermitian:
        assert op.conj_transpose() == op
    assert block.trace() * copies == op.trace()
    vec = data.draw(st.lists(_ENTRIES, min_size=op.ncols, max_size=op.ncols))
    _assert_coefficient_form(coeffs, group, op, vec)
    with pytest.raises(ValueError, match="does not fit the operator"):
        apply(coeffs, group, vec[1:])
    # a missing h counts as a zero coefficient, and only as that
    assert same_element(coeffs, {h: m for h, m in coeffs.items() if not m.is_zero()})
    dropped = data.draw(st.sampled_from(sorted(coeffs)))
    assert same_element(coeffs, {h: m for h, m in coeffs.items() if h != dropped}) == (
        coeffs[dropped].is_zero())


def test_assembly_needs_elements_closed_under_the_support(d6, cls_d6):
    with pytest.raises(ValueError, match="not closed under right multiplication"):
        assemble(wave_operator(cls_d6, 0), d6, [0, 7])


def test_incomplete_block_spectrum_states_the_operator_dimension(d6, cls_d6):
    # a Jordan block on W at the identity: the block misses 6 of its 12
    # dimensions, so the operator misses 12 of 24
    jordan = {0: Mat([[0, 1], [0, 0]])}
    with pytest.raises(IncompleteSpectrumError, match="misses 6 dimensions"):
        spectrum(assemble(jordan, d6, cls_d6.generated_subgroup()))
    with pytest.raises(IncompleteSpectrumError) as info:
        certify(jordan, cls_d6)
    assert str(info.value) == (
        "multiplicities sum to 12 but the operator dimension is 24; "
        "the spectrum misses 12 dimensions")
    assert (info.value.total, info.value.dimension) == (12, 24)
    # each irreducible block is the Jordan block (x) the identity, and
    # misses half of itself in each of its copies
    with pytest.raises(IncompleteSpectrumError) as blocks:
        certify_blocks(jordan, irreducibles(d6))
    assert str(blocks.value) == str(info.value)


@pytest.mark.parametrize("mu", MUS[1:], ids=str)
def test_chirality_reason_states_the_operator_multiplicities(krylov_d6, cls_d6, mu):
    op, _ = krylov_d6(mu)["dirac"]
    with pytest.raises(AsymmetricSpectrumError) as info:
        dense_chirality(op)
    assert "multiplicity 4" in str(info.value)
    assert spinor_reports.dirac_report(Geometry(cls_d6, mu))["chirality"] == {
        "available": False, "reason": str(info.value)}


def test_reports_certify_only_the_block(monkeypatch, cls_d6, cls_d6z2):
    sizes = []
    on_g = []
    calls = {"dirac_operator": 0, "levi_civita": 0}

    def certified(op):
        sizes.append(op.nrows)
        return certify(op)

    def assembled(coeffs, group, elements=None):
        op = build(coeffs, group, elements)
        if elements is None or len(elements) == group.order:
            on_g.append(op)
        return op

    def counted(module, name):
        real = getattr(module, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, call)

    certify, build = spectra.eigenspaces, linalg.assemble
    monkeypatch.setattr(spectra, "eigenspaces", certified)
    # linalg.assemble, where each module that assembles holds it
    for module in (spectra, linalg):
        monkeypatch.setattr(module, "assemble", assembled)
    counted(dirac, "dirac_operator")
    counted(connections, "levi_civita")
    report = reporting.full_report(Geometry(cls_d6))
    # one Dirac build and one certification of the eigenspaces of each of
    # its irreducible blocks, 2 x 2 for the four characters and 4 x 4 for the two planar
    # irreducibles, read by the dirac and spectral-action sections, and the
    # 6 x 6 wave block; levi_civita once each for connection, curvature,
    # ricci and dirac
    assert sizes == [2, 2, 2, 2, 4, 4, 6]
    assert calls == {"dirac_operator": 1, "levi_civita": 4}
    assert report["spectral_action"]["spectrum"] == report["dirac"]["spectrum"]
    # the one matrix on G is the wave operator the report prints; the
    # catalogs replay against the coefficients
    assert [op.rows for op in on_g] == [report["wave"]["operator"]]
    on_g.clear()
    assert "eigenmode_catalog" in spinor_reports.dirac_report(Geometry(cls_d6))
    assert on_g == []
    sizes.clear()
    report = spinor_reports.wave_report(Geometry(cls_d6z2, Fraction(1, 2)))
    assert sizes == [6]
    assert report["spectrum"]["dimension"] == 24


@pytest.fixture(scope="module")
def d6_spectrum_tables(cls_d6):
    cache = {}

    def at(mu):
        if mu not in cache:
            cache[mu] = _spectrum_tables(Geometry(cls_d6, mu))
        return cache[mu]

    return at


def _spectrum_tables(geo):
    reports = (("dirac", spinor_reports.dirac_report(geo)), ("wave", spinor_reports.wave_report(geo)))
    return {name: (report["spectrum"]["table"], report["spectrum"]["dimension"])
            for name, report in reports}


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), mu=st.sampled_from(MUS))
def test_spectra_survive_relabelling(d6, d6_spectrum_tables, seed, mu):
    geo = Geometry(conjugacy_class(relabelled(d6, seed), "sr"), mu)
    assert _spectrum_tables(geo) == d6_spectrum_tables(mu)


# -- eigenmode catalogs -----------------------------------------------------

def _statuses(catalog, name):
    fam = [f for f in catalog["families"] if f["name"] == name][0]
    return [c["status"] for c in fam["candidates"]]


def _summary(catalog, value):
    return [s for s in catalog["eigenvalues"] if s["value"] == rat(value)][0]


@pytest.fixture(scope="module")
def wave_spect0(certified, wave0_d6):
    return certified(wave0_d6)


@pytest.fixture(scope="module")
def dirac0_form(d6, dirac0_coeffs_d6):
    """The D6 mu = 0 Dirac operator's irreducible blocks and its spectrum."""
    return certify_blocks(dirac0_coeffs_d6, irreducibles(d6))


@pytest.fixture(scope="module")
def dirac_catalog(cls_d6, dirac0_coeffs_d6, dirac0_form):
    return eigenmode_catalog(cls_d6, dirac0_coeffs_d6, dirac0_form)


@pytest.fixture(scope="module")
def wave_catalog(cls_d6, wave0_coeffs_d6, wave_spect0):
    return wave_eigenmode_catalog(Geometry(cls_d6), wave0_coeffs_d6, wave_spect0)


def _rank_multiplicity(op, value):
    # the nullity the catalogs computed before they read the certified spectrum
    return op.nrows - rank(op - Mat.identity(op.nrows) * value)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(_ENTRIES, min_size=4, max_size=4), max_size=6), st.data())
def test_spans_from_one_reduction_match_ranking_each_set(vectors, data):
    first = data.draw(st.integers(0, len(vectors)))
    if len(vectors) > 2:
        vectors.append([x + y for x, y in zip(vectors[0], vectors[-1])])
    assert catalogs._spans(vectors, first) == (span_dim(vectors[:first]), span_dim(vectors))


def test_matrix_json_renders_like_each_entry_alone(coefficient_classes, monkeypatch):
    """S3 x Z_m, m <= 4: the wave report's bytes are the same when every
    entry is rendered on its own.  Equal values of different orders keep
    their own rendering, and so do z_3 and z_6, whose coordinates agree."""
    mixed = [cyclo(3), cyclo(6), cyclo(6, 2), rat(1, 2), cyclo(3), rat(1, 2).to_order(4)]
    assert reporting.to_json(mixed) == [reporting.to_json(v) for v in mixed]
    reports = [reporting.to_json(spinor_reports.wave_report(Geometry(cls)))
               for cls in coefficient_classes[3:]]
    # the walk without its cache renders every entry on its own
    monkeypatch.setattr(reporting, "_rendered_once", lambda render: render)
    for cls, report in zip(coefficient_classes[3:], reports):
        assert json.dumps(report, sort_keys=True) == json.dumps(
            reporting.to_json(spinor_reports.wave_report(Geometry(cls))), sort_keys=True)


def test_catalog_multiplicities_match_rank_oracle(
        dirac_catalog, wave_catalog, dirac0_d6, wave0_d6):
    for op, catalog in ((dirac0_d6, dirac_catalog), (wave0_d6, wave_catalog)):
        assert len(catalog["eigenvalues"]) == 3
        for s in catalog["eigenvalues"]:
            assert s["multiplicity"] == _rank_multiplicity(op, s["value"])


def test_catalogs_rebuild_no_operator_or_connection(
        monkeypatch, cls_d6, dirac0_coeffs_d6, wave0_coeffs_d6, dirac0_form, wave_spect0,
        dirac_catalog, wave_catalog):
    def rebuilt(*_args, **_kwargs):
        raise AssertionError("a catalog rebuilt what the report already holds")

    irreducibles_of = representations.irreducibles
    built = []
    monkeypatch.setattr(dirac, "dirac_operator", rebuilt)
    monkeypatch.setattr(dirac, "wave_operator", rebuilt)
    monkeypatch.setattr(spectra, "certify_blocks", rebuilt)
    monkeypatch.setattr(spectra, "eigenspaces", rebuilt)
    monkeypatch.setattr(connections, "levi_civita", rebuilt)
    # the Dirac catalog reads the certificate's irreducibles and builds no
    # representation; the wave catalog, whose certificate is dense, reads
    # them from its Geometry, which builds them once
    monkeypatch.setattr(representations, "irreducibles", rebuilt)
    with monkeypatch.context() as patched:
        patched.setattr(representations.Representation, "__init__", rebuilt)
        assert eigenmode_catalog(cls_d6, dirac0_coeffs_d6, dirac0_form) == dirac_catalog
    monkeypatch.setattr(representations, "irreducibles",
                        lambda group: built.append(group) or irreducibles_of(group))
    assert wave_eigenmode_catalog(Geometry(cls_d6), wave0_coeffs_d6, wave_spect0) == wave_catalog
    assert built == [cls_d6.group]


def test_dirac_catalog_family_statuses(dirac_catalog):
    assert _statuses(dirac_catalog, "translation-block images") == [
        "zero_vector", "eigenmode", "eigenmode", "zero_vector",
        "zero_vector", "eigenmode", "eigenmode", "zero_vector"]
    assert _statuses(dirac_catalog, "twisted first column") == [
        "eigenmode", "eigenmode", "zero_vector", "zero_vector"]
    assert _statuses(dirac_catalog, "twisted second column") == [
        "zero_vector", "zero_vector", "eigenmode", "eigenmode"]
    assert _statuses(dirac_catalog, "rotation ansatz") == ["eigenmode"] * 2
    assert _statuses(dirac_catalog, "reflection ansatz") == ["eigenmode"] * 2
    assert _statuses(dirac_catalog, "parity images of the rotation ansatz") == [
        "eigenmode"] * 2


def test_dirac_catalog_no_false_claims(dirac_catalog):
    # every nonzero candidate certifies at its claimed eigenvalue
    for fam in dirac_catalog["families"]:
        for cand in fam["candidates"]:
            assert cand["status"] in ("eigenmode", "zero_vector")


def test_dirac_catalog_zero_summary(dirac_catalog):
    s = _summary(dirac_catalog, 0)
    assert (s["claimed_candidates"], s["zero_vectors"]) == (8, 4)
    assert (s["verified"], s["claimed_span"]) == (4, 4)
    assert (s["multiplicity"], s["gap"]) == (8, 4)
    assert (s["completed_span"], s["complete"]) == (8, True)


def test_dirac_catalog_plus_three_summary(dirac_catalog):
    s = _summary(dirac_catalog, 3)
    assert (s["claimed_candidates"], s["zero_vectors"]) == (6, 2)
    assert (s["verified"], s["claimed_span"]) == (4, 4)
    assert (s["multiplicity"], s["gap"]) == (8, 4)
    assert (s["completed_span"], s["complete"]) == (8, True)
    assert all(c["verified"] for c in s["completions"])


def test_dirac_catalog_minus_three_summary(dirac_catalog):
    s = _summary(dirac_catalog, -3)
    assert (s["claimed_candidates"], s["zero_vectors"]) == (8, 2)
    # the parity images repeat directions already claimed: span stays 4
    assert (s["verified"], s["claimed_span"]) == (6, 4)
    assert (s["multiplicity"], s["gap"]) == (8, 4)
    assert (s["completed_span"], s["complete"]) == (8, True)


def test_dirac_catalog_structural_flags(dirac_catalog):
    assert dirac_catalog["sign_multiplication_anticommutes"] is True
    assert all(dirac_catalog["component_identities"].values())


def test_wave_catalog_family_statuses(wave_catalog):
    assert _statuses(wave_catalog, "twisted second column") == [
        "zero_vector", "eigenmode"]
    assert _statuses(wave_catalog, "twisted first column") == [
        "eigenmode", "zero_vector"]
    assert _statuses(wave_catalog, "spinor matrix elements") == ["eigenmode"] * 8


def test_wave_catalog_summaries(wave_catalog):
    s0 = _summary(wave_catalog, 0)
    assert (s0["claimed_span"], s0["multiplicity"], s0["complete"]) == (1, 2, True)
    s12 = _summary(wave_catalog, -12)
    assert (s12["claimed_span"], s12["multiplicity"], s12["complete"]) == (1, 2, True)
    s6 = _summary(wave_catalog, -6)
    assert (s6["verified"], s6["claimed_span"]) == (8, 4)
    assert (s6["multiplicity"], s6["completed_span"], s6["complete"]) == (8, 8, True)


def test_wave_catalog_conjugate_redundancy(wave_catalog):
    assert wave_catalog["conjugates_coincide_reversed"] is True


def test_catalogs_unavailable_off_the_supported_group(monkeypatch, s3_cls, s3_cal):
    dirac_coeffs = dirac_operator(planar1(s3_cls.group), levi_civita(s3_cal))
    dirac_form = certify_blocks(dirac_coeffs, irreducibles(s3_cls.group))
    wave_coeffs = wave_operator(s3_cls)
    wave_spect = spectrum(assemble(wave_coeffs, s3_cls.group))

    def built(*_args, **_kwargs):
        raise AssertionError("a representation was built before the refusal")

    # the refusal comes before any representation is built
    monkeypatch.setattr(representations.Representation, "__init__", built)
    monkeypatch.setattr(representations, "irreducibles", built)
    with pytest.raises(UnsupportedGroupError):
        eigenmode_catalog(s3_cls, dirac_coeffs, dirac_form)
    with pytest.raises(UnsupportedGroupError):
        wave_eigenmode_catalog(Geometry(s3_cls), wave_coeffs, wave_spect)


def test_reports_state_the_catalogs_at_mu_zero_only(monkeypatch, cal_d3, cls_d6):
    assert "eigenmode_catalog" not in spinor_reports.dirac_report(Geometry(cal_d3.cls))
    assert "eigenmode_catalog" not in spinor_reports.wave_report(Geometry(cal_d3.cls))

    def unreachable(*_args, **_kwargs):
        raise AssertionError("a catalog ran away from mu = 0")

    monkeypatch.setattr(catalogs, "eigenmode_catalog", unreachable)
    monkeypatch.setattr(catalogs, "wave_eigenmode_catalog", unreachable)
    assert "eigenmode_catalog" not in spinor_reports.dirac_report(Geometry(cls_d6, Fraction(1)))
    assert "eigenmode_catalog" not in spinor_reports.wave_report(Geometry(cls_d6, Fraction(1)))


def test_catalog_errors_other_than_unsupported_propagate(monkeypatch, cls_d6):
    def broken(*_args, **_kwargs):
        raise ValueError("a bug inside the catalog")

    monkeypatch.setattr(catalogs, "_assess", broken)
    with pytest.raises(ValueError, match="a bug inside the catalog"):
        spinor_reports.dirac_report(Geometry(cls_d6))
    with pytest.raises(ValueError, match="a bug inside the catalog"):
        spinor_reports.wave_report(Geometry(cls_d6))


@pytest.fixture(scope="module")
def s_class_catalogs(d6):
    """Both catalogs on the other reflection class of D6, the class of s."""
    geo = Geometry(conjugacy_class(d6, "s"))
    wave = wave_operator(geo.cls)
    return (eigenmode_catalog(geo.cls, geo.dirac.coeffs, geo.dirac.form),
            wave_eigenmode_catalog(geo, wave, certify(wave, geo.cls)))


def _summary_row(catalog, value):
    s = _summary(catalog, value)
    return (s["claimed_candidates"], s["zero_vectors"], s["verified"], s["claimed_span"],
            s["multiplicity"], s["gap"], [c["verified"] for c in s["completions"]],
            s["completed_span"], s["complete"])


def test_dirac_catalog_on_the_class_of_s(s_class_catalogs):
    # the reflection ansatz fails there, and so do the +3 and -3 completions
    catalog = s_class_catalogs[0]
    assert _statuses(catalog, "translation-block images") == [
        "zero_vector", "eigenmode", "eigenmode", "zero_vector",
        "zero_vector", "eigenmode", "eigenmode", "zero_vector"]
    assert _statuses(catalog, "twisted first column") == [
        "eigenmode", "eigenmode", "zero_vector", "zero_vector"]
    assert _statuses(catalog, "twisted second column") == [
        "zero_vector", "zero_vector", "eigenmode", "eigenmode"]
    assert _statuses(catalog, "rotation ansatz") == ["eigenmode"] * 2
    assert _statuses(catalog, "reflection ansatz") == ["not_an_eigenmode"] * 2
    assert _statuses(catalog, "parity images of the rotation ansatz") == ["eigenmode"] * 2
    assert [c["eigenvalue"] for fam in catalog["families"] for c in fam["candidates"]
            if c["status"] == "not_an_eigenmode"] == [None, None]
    assert [s["value"] for s in catalog["eigenvalues"]] == [rat(0), rat(3), rat(-3)]
    assert _summary_row(catalog, 0) == (8, 4, 4, 4, 8, 4, [True] * 4, 8, True)
    assert _summary_row(catalog, 3) == (6, 2, 4, 4, 8, 4, [False] * 4, 4, False)
    assert _summary_row(catalog, -3) == (8, 2, 4, 4, 8, 4, [False] * 4, 4, False)
    assert catalog["sign_multiplication_anticommutes"] is True
    assert all(catalog["component_identities"].values())


def test_wave_catalog_on_the_class_of_s(s_class_catalogs):
    catalog = s_class_catalogs[1]
    assert _statuses(catalog, "twisted second column") == ["zero_vector", "eigenmode"]
    assert _statuses(catalog, "twisted first column") == ["eigenmode", "zero_vector"]
    assert _statuses(catalog, "spinor matrix elements") == ["eigenmode"] * 8
    assert [s["value"] for s in catalog["eigenvalues"]] == [rat(0), rat(-12), rat(-6)]
    assert _summary_row(catalog, 0) == (2, 1, 1, 1, 2, 1, [False], 1, False)
    assert _summary_row(catalog, -12) == (2, 1, 1, 1, 2, 1, [False], 1, False)
    assert _summary_row(catalog, -6) == (8, 0, 8, 4, 8, 4, [True] * 4, 8, True)
    assert catalog["conjugates_coincide_reversed"] is True


def test_assess_scores_a_declared_table(dirac0_form):
    """A hand-made table in block coordinates against the D6 mu = 0 Dirac
    operator reaches every status, a true eigenvector claimed at the wrong
    value among them, counts one vector in two copies twice, and leaves its
    inputs as they were."""
    form = dirac0_form
    spect = form.spectrum
    blocks = {rho.name: block for rho, block in zip(form.irreps, form.blocks)}

    def eigenvector(name, value):
        block = blocks[name]
        return kernel_basis(block - Mat.identity(block.nrows) * value)[0]

    plus = (("planar1", 0), eigenvector("planar1", 3))
    plus2 = (("planar1", 1), plus[1])
    minus = (("planar1", 0), eigenvector("planar1", -3))
    sign_plus = (("sign", 0), eigenvector("sign", 3))
    kernel = (("planar2", 0), eigenvector("planar2", 0))
    families = [
        ("true modes", 3, [("plus", plus), ("zero", (("planar1", 0), [rat(0)] * 4))]),
        ("wrong value", 0, [("plus at 0", plus)]),
        ("mixed", -3, [("plus + minus",
                        (("planar1", 0), [x + y for x, y in zip(plus[1], minus[1])]))]),
    ]
    completions = {3: [("plus2", plus2), ("minus", minus), ("sign plus", sign_plus)],
                   0: [("kernel", kernel)]}
    snapshot = copy.deepcopy((families, completions))
    out = catalogs._assess(form.irreps, form.blocks, spect, families, completions)
    assert (families, completions) == snapshot
    assert catalogs._assess(form.irreps, form.blocks, spect, families, completions) == out
    assert [(c["label"], c["status"], c["eigenvalue"])
            for fam in out["families"] for c in fam["candidates"]] == [
        ("plus", "eigenmode", rat(3)), ("zero", "zero_vector", None),
        ("plus at 0", "eigenvalue_mismatch", rat(3)),
        ("plus + minus", "not_an_eigenmode", None)]
    assert [fam["claimed_eigenvalue"] for fam in out["families"]] == [rat(3), rat(0), rat(-3)]
    # the mismatched candidate counts as verified at its true eigenvalue;
    # plus2 is plus in the other copy of planar1, so it adds to the span
    assert out["eigenvalues"] == [
        {"value": rat(3), "claimed_candidates": 2, "zero_vectors": 1, "verified": 2,
         "claimed_span": 1, "multiplicity": 8, "gap": 7,
         "completions": [{"label": "plus2", "verified": True},
                         {"label": "minus", "verified": False},
                         {"label": "sign plus", "verified": True}],
         "completed_span": 3, "complete": False},
        {"value": rat(0), "claimed_candidates": 1, "zero_vectors": 0, "verified": 0,
         "claimed_span": 0, "multiplicity": 8, "gap": 8,
         "completions": [{"label": "kernel", "verified": True}],
         "completed_span": 1, "complete": False},
    ]


@pytest.mark.parametrize("cal_name", ["cal_d6", "cal_d6_s", "cal_d6_relabelled"])
def test_block_catalogs_score_as_the_function_oracles(request, cal_name):
    """Each catalog in block coordinates gives the report its function-level
    oracle gives: every status, eigenvalue, span, gap, completion and flag,
    on both reflection classes of D6 and on a relabelled table."""
    geo = Geometry(request.getfixturevalue(cal_name).cls)
    cls, cert = geo.cls, geo.dirac
    assert eigenmode_catalog(cls, cert.coeffs, cert.form) == (
        function_eigenmode_catalog(cls, cert.coeffs, cert.form.spectrum))
    wave = wave_operator(cls)
    spect = certify(wave, cls)
    assert wave_eigenmode_catalog(geo, wave, spect) == (
        function_wave_eigenmode_catalog(cls, wave, spect))


@pytest.mark.parametrize("group", [dihedral(n) for n in (3, 4, 5, 6, 8)] + [
    relabelled(dihedral(6), 5)], ids=lambda g: g.name)
def test_block_coordinates_of_the_catalog_representations(group):
    """The identities the catalogs declare their candidates by: the spinor
    planar1 is r^i -> diag(z^i, z^-i) for z = zeta_n and
    s r^i -> J diag(z^i, z^-i) with J the swap, and sign2 is
    diag(sign, trivial); on every planar irreducible the sign character
    acts as conjugation by D = diag(1, -1), chi(g) rho(g) = D rho(g) D, and
    complex conjugation as conjugation by J, conj rho(g) = J rho(g) J."""
    reps = {r.name: r for r in irreducibles(group)}
    chi = reps["sign"]
    d = Mat([[1, 0], [0, -1]])
    j = Mat([[0, 1], [1, 0]])
    n = group.order // 2
    for g, (flip, i) in enumerate(dihedral_structure(group)):
        rotation = Mat([[cyclo(n, i), 0], [0, cyclo(n, -i)]])
        assert reps["planar1"](g) == (j @ rotation if flip else rotation)
    twisted = sign2(group)
    for g in range(group.order):
        assert twisted(g) == Mat([[chi(g)[0, 0], 0], [0, 1]])
    planar = [r for r in reps.values() if r.dim == 2]
    assert planar
    for rho in planar:
        for g in range(group.order):
            assert rho(g) * chi(g)[0, 0] == d @ rho(g) @ d
            assert Mat([[x.conj() for x in row] for row in rho(g).rows]) == j @ rho(g) @ j


# -- chirality --------------------------------------------------------------

@pytest.fixture(scope="module")
def grading0_d6(dirac0_form):
    """The grading of the D6 mu = 0 Dirac operator, carried from its blocks
    to G by the Peter-Weyl basis."""
    return grading_on_group(dirac0_form, chirality(dirac0_form))


def test_chirality_properties(dirac0_d6, grading0_d6):
    g = grading0_d6
    assert g @ g == Mat.identity(24)
    assert (g @ dirac0_d6 + dirac0_d6 @ g).is_zero()


def test_chirality_kernel_sign_choices(dirac0_d6, spect0, grading0_d6):
    # the spectrum is {-3, 0, 3}, so I - D^2/9 is exactly the projection
    # onto the kernel, and flipping the grading there gives the other one
    ident = Mat.identity(24)
    assert [v for v, _ in spect0] == [rat(-3), rat(0), rat(3)]
    kernel_projection = ident - dirac0_d6 @ dirac0_d6 * rat(Fraction(1, 9))
    plus = grading0_d6
    minus = plus - kernel_projection * 2
    assert plus != minus
    for g in (plus, minus):
        assert g @ g == ident
        assert (g @ dirac0_d6 + dirac0_d6 @ g).is_zero()


def test_chirality_of_zero_operator():
    form = certify_blocks({0: Mat.zeros(2, 2)}, irreducibles(dihedral(3)))
    assert form.spectrum.pairs == ((rat(0), 12),)
    assert chirality(form) == {
        (c, c): Mat.identity(block.nrows) for c, block in enumerate(form.copy_blocks())}


def test_chirality_rejects_asymmetric_spectrum(d6, rep_d6, lc_d6):
    form = certify_blocks(dirac_operator(rep_d6, lc_d6, mu=Fraction(1)), irreducibles(d6))
    with pytest.raises(AsymmetricSpectrumError, match="-27/5"):
        chirality(form)


def test_chirality_with_explicit_candidates(dirac0_d6, dirac0_form, spect0):
    # eigenspaces taken at the closed-form candidates, not at certified
    # roots, with the bases of the positive values listed in reverse: the
    # form states the dense spectrum, and the grading built from those bases
    # is another grading of the operator, so chirality pairs the
    # eigenvectors the form holds
    form = dirac0_form
    spaces = []
    for block in form.blocks:
        ident = Mat.identity(block.nrows)
        kernels = {rat(v): kernel_basis(block - ident * v) for v in dirac_candidates()}
        spaces.append({v: basis[::-1] if v > rat(0) else basis
                       for v, basis in kernels.items() if basis})
    candidate_form = form._replace(eigenspaces=tuple(spaces))
    counts = {}
    for rho, found in zip(form.irreps, spaces):
        for v, basis in found.items():
            counts[v] = counts.get(v, 0) + rho.dim * len(basis)
    assert Spectrum(counts, 24).pairs == spect0.pairs
    gam = chirality(candidate_form)
    assert gam != chirality(form)
    assert grading_checks(form, gam) == (True, True)
    g = grading_on_group(form, gam)
    assert g @ g == Mat.identity(24)
    assert (g @ dirac0_d6 + dirac0_d6 @ g).is_zero()


# -- spectral action --------------------------------------------------------

@pytest.fixture(scope="module")
def spect0(certified, dirac0_d6):
    return certified(dirac0_d6)


def test_spectral_action_battery(spect0):
    battery = {
        ((1,), 1): 24, ((1,), 3): 24,
        ((0, 1), 1): 144, ((0, 1), 3): 16,
        ((0, 0, 1), 1): 1296, ((0, 0, 1), 3): 16,
    }
    for (coeffs, lam), expect in battery.items():
        assert spectral_action(spect0, list(coeffs), lam) == rat(expect)


def test_spectral_action_exp_taylor(spect0):
    coeffs = exp_taylor_coefficients(4)
    assert coeffs == [1, -1, Fraction(1, 2), Fraction(-1, 6), Fraction(1, 24)]
    assert spectral_action(spect0, coeffs, 1) == rat(2958)
    assert spectral_action(spect0, coeffs, 3) == rat(14)


def test_spectral_action_scale_validation(spect0):
    with pytest.raises(ValueError, match="positive"):
        spectral_action(spect0, [1], 0)
    # an irrational scale is refused before it is compared with zero
    with pytest.raises(ValueError, match="positive"):
        spectral_action(spect0, [1], cyclo(4))
    with pytest.raises(ValueError, match="coefficients rational"):
        spectral_action(spect0, [1, cyclo(3)], 1)
    with pytest.raises(ValueError, match="nonnegative"):
        exp_taylor_coefficients(-1)


# -- the order-6 cross check ------------------------------------------------

def test_s3_dirac_spectrum(s3_group, s3_cls, s3_cal):
    from groupgeo.connections import levi_civita
    rep = planar1(s3_group)
    op = assemble(dirac_operator(rep, levi_civita(s3_cal)), s3_group)
    spect = spectrum(op)
    assert spect.pairs == ((rat(-3), 4), (rat(0), 4), (rat(3), 4))
    assert op.conj_transpose() == op
    assert (op @ op).trace() == rat(72)


def test_s3_wave_spectrum(s3_group, s3_cls):
    op = assemble(wave_operator(s3_cls), s3_group)
    spect = spectrum(op)
    assert spect.pairs == ((rat(-12), 1), (rat(-6), 4), (rat(0), 1))


@pytest.fixture(scope="module")
def s3_wave_spectra(s3_cls):
    cache = {}

    def at(mu):
        if mu not in cache:
            cache[mu] = spinor_reports.wave_report(Geometry(s3_cls, mu))["spectrum"]
        return cache[mu]

    return at


@settings(max_examples=10, deadline=None)
@given(m=st.integers(1, 5),
       mu=st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2, 5),
                           Fraction(-1, 2)]))
def test_s3_times_cyclic_wave_spectrum_is_m_copies(s3_group, s3_wave_spectra, m, mu):
    """On S3 x Z_m the wave spectrum has the values of S3's, each m times as
    often; the dense operator on the whole group agrees."""
    cls = conjugacy_class(direct_product_cyclic(s3_group, m), "u")
    report = spinor_reports.wave_report(Geometry(cls, mu))["spectrum"]
    s3 = s3_wave_spectra(mu)
    assert report["dimension"] == 6 * m
    assert report["table"] == {value: m * mult for value, mult in s3["table"].items()}
    assert spectrum(dense_wave_operator(cls, mu)).pairs == tuple(
        (rat(Fraction(value)), mult) for value, mult in report["table"].items())


def test_s3_chirality_exists(s3_group, s3_cls, s3_cal):
    from groupgeo.connections import levi_civita
    rep = planar1(s3_group)
    coeffs = dirac_operator(rep, levi_civita(s3_cal))
    op = assemble(coeffs, s3_group)
    form = certify_blocks(coeffs, irreducibles(s3_group))
    for g in (dense_chirality(op), grading_on_group(form, chirality(form))):
        assert g @ g == Mat.identity(12)
        assert (g @ op + op @ g).is_zero()
