"""Metric, gamma matrices, Dirac and wave operators, certified spectra,
eigenmode catalogs, chirality and the spectral action.

Every numeric value here was frozen from an exact computation; nothing is
asserted on floating point evidence.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import direct_product_cyclic, relabelled
from groupgeo import connections, dirac, reporting
from groupgeo.calculus import GroupFunction, differential_calculus
from groupgeo.connections import Connection, levi_civita
from groupgeo.cyclotomic import cyclo, rat
from groupgeo.dirac import (
    Spectrum,
    apply,
    assemble,
    casimir,
    chirality,
    dirac_operator,
    eigenmode_catalog,
    exp_taylor_coefficients,
    gamma_matrices,
    is_hermitian,
    metric,
    certify,
    poly_from_roots,
    same_element,
    spectral_action,
    spectrum,
    wave_eigenmode_catalog,
    wave_operator,
)
from groupgeo.errors import (
    AsymmetricSpectrumError,
    GroupGeoError,
    IncompleteSpectrumError,
    SingularMetricError,
    UnsupportedGroupError,
)
from groupgeo.groups import conjugacy_class, coset_lift
from groupgeo.linalg import Mat, kernel_basis
from groupgeo.representations import builtin_rep, irreducibles
from oracles import (
    class_translation_sum,
    coframe_coefficients,
    dense_dirac_operator,
    dense_wave_operator,
    dirac_candidates,
    kron,
    metric_tensor,
    minimal_polynomial,
    minimal_polynomial_check,
    rank,
    right_translation,
    spinor_blocks,
    span_dim,
    sturm_integer_roots,
    translation_block,
    wave_candidates,
)


# -- metric -----------------------------------------------------------------

def test_metric_values_at_mu_one(cls_d6):
    m = metric(cls_d6, 1)
    assert m.eta == Mat([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
    quarter = Fraction(1, 4)
    assert m.eta_inv == Mat([[1 - quarter, -quarter, -quarter],
                             [-quarter, 1 - quarter, -quarter],
                             [-quarter, -quarter, 1 - quarter]])
    assert m.eta @ m.eta_inv == Mat.identity(3)


def test_metric_singular(cls_d6):
    with pytest.raises(SingularMetricError, match="mu = -1/3 is singular"):
        metric(cls_d6, Fraction(-1, 3))


def test_metric_is_conjugation_invariant(cls_d6, d6):
    m = metric(cls_d6, Fraction(2, 7))
    for g in range(12):
        for apos, a in enumerate(cls_d6.members):
            for bpos, b in enumerate(cls_d6.members):
                left = m.eta[cls_d6.position(d6.conj(d6.inv(g), a)), bpos]
                right = m.eta[apos, cls_d6.position(d6.conj(g, b))]
                assert left == right


def test_coframe_coefficients(cls_d6):
    m = metric(cls_d6, 1)
    assert coframe_coefficients(m, 0) == [rat(2), rat(1), rat(1)]
    assert coframe_coefficients(m, 2) == [rat(1), rat(1), rat(2)]


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
    rep_d3 = builtin_rep(cal_d3.group, "spinor")
    with pytest.raises(ValueError, match="share one group"):
        dirac_operator(rep_d3, lc_d6)


# -- Spectrum type ----------------------------------------------------------

def test_spectrum_requires_exhaustion():
    with pytest.raises(IncompleteSpectrumError, match="misses 2 dimensions"):
        Spectrum([(rat(1), [[rat(1), rat(0), rat(0), rat(0)],
                            [rat(0), rat(1), rat(0), rat(0)]])], 4)


def test_spectrum_orders_eigenvalues_exactly():
    # 1 and 1 + 10^-12 are one float apart at nine digits; given in reverse
    # order they still come out sorted
    close = rat(1 + Fraction(1, 10 ** 12))
    spect = Spectrum({close: [[rat(0), rat(1)]], rat(1): [[rat(1), rat(0)]]}, 2)
    assert spect.pairs == ((rat(1), 1), (close, 1))


def test_spectrum_certification_fails_on_short_candidates(dirac0_d6):
    ident = Mat.identity(24)
    short = {v: kernel_basis(dirac0_d6 - ident * v) for v in (0, 3)}
    with pytest.raises(IncompleteSpectrumError, match="misses 8 dimensions"):
        Spectrum(short, 24)


def test_spectrum_of_jordan_block_is_incomplete(monkeypatch):
    starts = []

    def recorded(op, start):
        starts.append(start)
        return vector_minimal_polynomial(op, start)

    vector_minimal_polynomial = dirac._vector_minimal_polynomial
    monkeypatch.setattr(dirac, "_vector_minimal_polynomial", recorded)
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
    assert dirac._rational_roots(poly_from_roots(roots)) == expect


@pytest.mark.parametrize("coeffs", [[1, 0, 1], [0, -2, 0, 1], [-4, 0, 0, 0, 1]],
                         ids=["complex", "irrational", "quartic"])
def test_rational_roots_refuse_polynomials_that_do_not_split(coeffs):
    with pytest.raises(GroupGeoError, match="does not split"):
        dirac._rational_roots([rat(c) for c in coeffs])


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
            dirac._rational_roots([rat(c) for c in poly])
    else:
        assert dirac._rational_roots([rat(c) for c in poly]) == sorted({r for r, _ in roots})
    # the same integer polynomial _rational_roots hands to _integer_roots
    n = len(poly) - 1
    den = math.lcm(*(c.denominator for c in poly))
    ints = [int(c * den ** (n - k)) for k, c in enumerate(poly)]
    assert dirac._integer_roots(ints) == sturm_integer_roots(ints)


def test_dirac_spectrum_near_a_singular_modulus(cal_d3):
    # at mu = -0.33...3 (400 threes) the minimal polynomial's coefficients
    # run to thousands of digits, and Sturm bisection from Fujiwara's bound
    # (oracles.sturm_integer_roots) needs some 10^5 chain evaluations
    mu = Fraction("-0." + "3" * 400)
    cls = cal_d3.cls
    op = assemble(dirac_operator(builtin_rep(cls.group, "spinor"),
                                 levi_civita(cal_d3), mu), cls.group)
    spect = spectrum(op)
    assert set(spect.eigenspaces) <= {rat(c) for c in dirac_candidates(mu)}
    assert [m for _, m in spect.pairs] == [2, 2, 4, 2, 2]


def test_spectrum_at_a_modulus_with_large_denominators(cal_d3):
    # the roots are lifted p-adically, not found by listing divisors of the
    # (here 45-digit) coefficients
    mu = Fraction(123456789, 987654321)
    cls = cal_d3.cls
    op = assemble(dirac_operator(builtin_rep(cls.group, "spinor"),
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
    chi = irreducibles(d6)[1].matrix_element(0, 0)
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
    assert set(spect.eigenspaces) <= {rat(c) for c in candidates}
    assert krylov == poly_from_roots(spect.eigenspaces)


@pytest.mark.parametrize("mu", MUS, ids=str)
def test_certified_roots_give_krylov_minimal_polynomial_d6(certified, krylov_d6, mu):
    for name, candidates in (("dirac", dirac_candidates), ("wave", wave_candidates)):
        op, krylov = krylov_d6(mu)[name]
        _certified_from_the_operator(certified(op), krylov, candidates(mu))


@pytest.mark.parametrize("cal_name", ["cal_d3", "s3_cal"])
def test_certified_roots_give_krylov_minimal_polynomial_small(request, cal_name):
    cal = request.getfixturevalue(cal_name)
    cls = cal.cls
    rep = builtin_rep(cls.group, "spinor")
    for mu in MUS:
        op = assemble(dirac_operator(rep, levi_civita(cal), mu), cls.group)
        _certified_from_the_operator(spectrum(op), minimal_polynomial(op), dirac_candidates(mu))


@pytest.mark.parametrize("mu", [Fraction(0), Fraction(1, 2)], ids=str)
def test_reports_reduce_each_eigenvalue_once_and_skip_krylov(
        monkeypatch, krylov_d6, cal_d6, cls_d6, mu):
    expected = {name: reporting.values_json(krylov)
                for name, (_, krylov) in krylov_d6(mu).items()}
    reductions = []
    starts = []

    def counted(matrix):
        reductions.append(matrix)
        return kernel_basis(matrix)

    def recorded(op, start):
        starts.append(start)
        return vector_minimal_polynomial(op, start)

    kernel_basis = dirac.kernel_basis
    vector_minimal_polynomial = dirac._vector_minimal_polynomial
    monkeypatch.setattr(dirac, "kernel_basis", counted)
    monkeypatch.setattr(dirac, "_vector_minimal_polynomial", recorded)
    # the matrix Krylov minimal polynomial is a test oracle only
    assert not hasattr(dirac, "minimal_polynomial")
    report = reporting.dirac_report(reporting.certify_dirac(cal_d6, mu))
    assert report["minimal_polynomial"] == expected["dirac"]
    assert len(reductions) == len(report["spectrum"]["pairs"])
    assert len(reductions) == {Fraction(0): 3, Fraction(1, 2): 5}[mu]
    # e_0 alone reaches every eigenvalue of the D6 operators
    assert starts == [0]
    reductions.clear()
    starts.clear()
    report = reporting.wave_report(cls_d6, mu)
    assert report["minimal_polynomial"] == expected["wave"]
    assert len(reductions) == len(report["spectrum"]["pairs"]) == 3
    assert starts == [0]


# -- group-algebra assembly and the reduction to H = <C> -------------------

def _assert_block_certifies(op, coeffs, cls, dense):
    """certify assembles the coefficients on H; its spectrum keeps the
    block's eigenspaces and is the dense spectrum of op, with every
    multiplicity [G:H] times the block's; each block eigenvector carried to
    every left coset by coset_lift is an eigenvector of op, and the lifted
    vectors of each value are independent."""
    subgroup = cls.generated_subgroup()
    copies = cls.group.order // len(subgroup)
    block, spect = certify(coeffs, cls)
    assert block == assemble(coeffs, cls.group, subgroup)
    assert block.nrows * copies == op.nrows
    block_spect = spectrum(block)
    assert spect.dimension == op.nrows
    assert dict(spect.eigenspaces) == dict(block_spect.eigenspaces)
    assert spect.pairs == tuple((v, m * copies) for v, m in block_spect.pairs)
    assert spect.pairs == dense.pairs
    for value, basis in spect.eigenspaces.items():
        lifted = [coset_lift(vec, [coset], cls.group.order)
                  for coset in cls.left_cosets() for vec in basis]
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
    rep = builtin_rep(cls.group, "spinor")
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


def test_dirac_operator_refuses_a_varying_connection(rep_d6, cal_d6, d6):
    # a torsion-free chart connection whose first parameter is a delta
    alpha = GroupFunction.delta(d6, 1)
    conn = Connection.from_chart(cal_d6, alpha, cal_d6.constant(-1) - alpha,
                                 cal_d6.constant(0))
    with pytest.raises(ValueError, match="constant coefficients"):
        dirac_operator(rep_d6, conn)


def test_dirac_operator_accepts_equal_values_listed_per_element(
        rep_d6, cal_d6, family_d6):
    # the torsion solve lists |G| values per coefficient of its particular
    # solution; equal values are a constant however they were built
    particular, _ = family_d6
    by_constants = Connection(cal_d6, [
        cal_d6.one_form([cal_d6.constant(particular.coefficient(a, b)(0))
                         for b in range(3)])
        for a in range(3)])
    assert dirac_operator(rep_d6, particular) == dirac_operator(rep_d6, by_constants)


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


@pytest.mark.parametrize("mu", MUS[1:], ids=str)
def test_chirality_reason_states_the_operator_multiplicities(
        certified, krylov_d6, cal_d6, mu):
    op, _ = krylov_d6(mu)["dirac"]
    with pytest.raises(AsymmetricSpectrumError) as info:
        chirality(certified(op))
    assert "multiplicity 4" in str(info.value)
    assert reporting.dirac_report(reporting.certify_dirac(cal_d6, mu))["chirality"] == {
        "available": False, "reason": str(info.value)}


def test_reports_certify_only_the_block(monkeypatch, cal_d6, cls_d6, cls_d6z2):
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

    certify, build = dirac.spectrum, dirac.assemble
    monkeypatch.setattr(dirac, "spectrum", certified)
    monkeypatch.setattr(dirac, "assemble", assembled)
    counted(dirac, "dirac_operator")
    counted(reporting, "levi_civita")
    report = reporting.full_report(cls_d6.group, cls_d6)
    # one Dirac build and one certification of its 12 x 12 block, read by
    # the dirac and spectral-action sections, and the 6 x 6 wave block;
    # levi_civita once each for connection, curvature, ricci and dirac
    assert sizes == [12, 6]
    assert calls == {"dirac_operator": 1, "levi_civita": 4}
    assert report["spectral_action"]["spectrum"] == report["dirac"]["spectrum"]
    # the one matrix on G is the wave operator the report prints; the
    # catalogs replay against the coefficients
    assert [reporting.matrix_json(op) for op in on_g] == [report["wave"]["operator"]]
    on_g.clear()
    assert "eigenmode_catalog" in reporting.dirac_report(reporting.certify_dirac(cal_d6, 0))
    assert on_g == []
    sizes.clear()
    report = reporting.wave_report(cls_d6z2, Fraction(1, 2))
    assert sizes == [6]
    assert report["spectrum"]["dimension"] == 24


@pytest.fixture(scope="module")
def d6_spectrum_tables(cal_d6):
    cache = {}

    def at(mu):
        if mu not in cache:
            cache[mu] = _spectrum_tables(cal_d6, mu)
        return cache[mu]

    return at


def _spectrum_tables(cal, mu):
    reports = (("dirac", reporting.dirac_report(reporting.certify_dirac(cal, mu))),
               ("wave", reporting.wave_report(cal.cls, mu)))
    return {name: (report["spectrum"]["table"], report["spectrum"]["dimension"])
            for name, report in reports}


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), mu=st.sampled_from(MUS))
def test_spectra_survive_relabelling(d6, d6_spectrum_tables, seed, mu):
    cal = differential_calculus(conjugacy_class(relabelled(d6, seed), "sr"))
    assert _spectrum_tables(cal, mu) == d6_spectrum_tables(mu)


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
def dirac_catalog(cls_d6, dirac0_coeffs_d6, spect0):
    return eigenmode_catalog(cls_d6, dirac0_coeffs_d6, spect0)


@pytest.fixture(scope="module")
def wave_catalog(cls_d6, wave0_coeffs_d6, wave_spect0):
    return wave_eigenmode_catalog(cls_d6, wave0_coeffs_d6, wave_spect0)


def _rank_multiplicity(op, value):
    # the nullity the catalogs computed before they read the certified spectrum
    return op.nrows - rank(op - Mat.identity(op.nrows) * value)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(_ENTRIES, min_size=4, max_size=4), max_size=6), st.data())
def test_spans_from_one_reduction_match_ranking_each_set(vectors, data):
    first = data.draw(st.integers(0, len(vectors)))
    if len(vectors) > 2:
        vectors.append([x + y for x, y in zip(vectors[0], vectors[-1])])
    assert dirac._spans(vectors, first) == (span_dim(vectors[:first]), span_dim(vectors))


def test_matrix_json_renders_like_each_entry_alone(coefficient_classes, monkeypatch):
    """S3 x Z_m, m <= 4: the wave report's bytes are the same when every
    entry is rendered on its own.  Equal values of different orders keep
    their own rendering, and so do z_3 and z_6, whose coordinates agree."""
    mixed = [cyclo(3), cyclo(6), cyclo(6, 2), rat(1, 2), cyclo(3), rat(1, 2).to_order(4)]
    assert reporting.values_json(mixed) == [reporting.scalar_json(v) for v in mixed]
    reports = [reporting.wave_report(cls) for cls in coefficient_classes[3:]]
    monkeypatch.setattr(reporting, "values_json",
                        lambda values: [reporting.scalar_json(v) for v in values])
    for cls, report in zip(coefficient_classes[3:], reports):
        assert json.dumps(report, sort_keys=True) == json.dumps(
            reporting.wave_report(cls), sort_keys=True)


def test_catalog_multiplicities_match_rank_oracle(
        dirac_catalog, wave_catalog, dirac0_d6, wave0_d6):
    for op, catalog in ((dirac0_d6, dirac_catalog), (wave0_d6, wave_catalog)):
        assert len(catalog["eigenvalues"]) == 3
        for s in catalog["eigenvalues"]:
            assert s["multiplicity"] == _rank_multiplicity(op, s["value"])


def test_catalogs_rebuild_no_operator_or_connection(
        monkeypatch, cls_d6, dirac0_coeffs_d6, wave0_coeffs_d6, spect0, wave_spect0,
        dirac_catalog, wave_catalog):
    def rebuilt(*_args, **_kwargs):
        raise AssertionError("a catalog rebuilt what the report already holds")

    monkeypatch.setattr(dirac, "dirac_operator", rebuilt)
    monkeypatch.setattr(dirac, "wave_operator", rebuilt)
    monkeypatch.setattr(connections, "levi_civita", rebuilt)
    assert eigenmode_catalog(cls_d6, dirac0_coeffs_d6, spect0) == dirac_catalog
    assert wave_eigenmode_catalog(cls_d6, wave0_coeffs_d6, wave_spect0) == wave_catalog


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
    dirac_coeffs = dirac_operator(builtin_rep(s3_cls.group, "spinor"), levi_civita(s3_cal))
    dirac_spect = spectrum(assemble(dirac_coeffs, s3_cls.group))
    wave_coeffs = wave_operator(s3_cls)
    wave_spect = spectrum(assemble(wave_coeffs, s3_cls.group))

    def built(*_args, **_kwargs):
        raise AssertionError("a representation was built before the refusal")

    # the refusal comes before any representation is built
    monkeypatch.setattr(dirac, "builtin_rep", built)
    monkeypatch.setattr(dirac, "irreducibles", built)
    with pytest.raises(UnsupportedGroupError):
        eigenmode_catalog(s3_cls, dirac_coeffs, dirac_spect)
    with pytest.raises(UnsupportedGroupError):
        wave_eigenmode_catalog(s3_cls, wave_coeffs, wave_spect)


def test_reports_state_the_catalogs_at_mu_zero_only(monkeypatch, cal_d6, cal_d3, cls_d6):
    assert "eigenmode_catalog" not in reporting.dirac_report(reporting.certify_dirac(cal_d3, 0))
    assert "eigenmode_catalog" not in reporting.wave_report(cal_d3.cls)

    def unreachable(*_args, **_kwargs):
        raise AssertionError("a catalog ran away from mu = 0")

    monkeypatch.setattr(dirac, "eigenmode_catalog", unreachable)
    monkeypatch.setattr(dirac, "wave_eigenmode_catalog", unreachable)
    assert "eigenmode_catalog" not in reporting.dirac_report(
        reporting.certify_dirac(cal_d6, Fraction(1)))
    assert "eigenmode_catalog" not in reporting.wave_report(cls_d6, Fraction(1))


def test_catalog_errors_other_than_unsupported_propagate(monkeypatch, cal_d6, cls_d6):
    def broken(*_args, **_kwargs):
        raise ValueError("a bug inside the catalog")

    monkeypatch.setattr(dirac, "_assess", broken)
    with pytest.raises(ValueError, match="a bug inside the catalog"):
        reporting.dirac_report(reporting.certify_dirac(cal_d6, 0))
    with pytest.raises(ValueError, match="a bug inside the catalog"):
        reporting.wave_report(cls_d6)


# -- chirality --------------------------------------------------------------

def test_chirality_properties(dirac0_d6, spect0):
    g = chirality(spect0)
    assert g @ g == Mat.identity(24)
    assert (g @ dirac0_d6 + dirac0_d6 @ g).is_zero()


def test_chirality_kernel_sign_choices(dirac0_d6, spect0):
    # the spectrum is {-3, 0, 3}, so I - D^2/9 is exactly the projection
    # onto the kernel, and flipping the grading there gives the other one
    ident = Mat.identity(24)
    assert [v for v, _ in spect0] == [rat(-3), rat(0), rat(3)]
    kernel_projection = ident - dirac0_d6 @ dirac0_d6 * rat(Fraction(1, 9))
    plus = chirality(spect0)
    minus = plus - kernel_projection * 2
    assert plus != minus
    for g in (plus, minus):
        assert g @ g == ident
        assert (g @ dirac0_d6 + dirac0_d6 @ g).is_zero()


def test_chirality_of_zero_operator():
    z = Mat.zeros(3, 3)
    assert chirality(spectrum(z)) == Mat.identity(3)


def test_chirality_rejects_asymmetric_spectrum(certified, dirac1_d6):
    with pytest.raises(AsymmetricSpectrumError, match="-27/5"):
        chirality(certified(dirac1_d6))


def test_chirality_with_explicit_candidates(dirac0_d6, spect0):
    # a spectrum assembled from the closed-form candidates grades alike
    ident = Mat.identity(24)
    spaces = {v: kernel_basis(dirac0_d6 - ident * v) for v in dirac_candidates()}
    g = chirality(Spectrum(spaces, 24))
    assert g == chirality(spect0)


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
    with pytest.raises(ValueError, match="nonnegative"):
        exp_taylor_coefficients(-1)


# -- the order-6 cross check ------------------------------------------------

def test_s3_dirac_spectrum(s3_group, s3_cls, s3_cal):
    from groupgeo.connections import levi_civita
    rep = builtin_rep(s3_group, "spinor")
    op = assemble(dirac_operator(rep, levi_civita(s3_cal)), s3_group)
    spect = spectrum(op)
    assert spect.pairs == ((rat(-3), 4), (rat(0), 4), (rat(3), 4))
    assert op.conj_transpose() == op
    assert (op @ op).trace() == rat(72)


def test_s3_wave_spectrum(s3_group, s3_cls):
    op = assemble(wave_operator(s3_cls), s3_group)
    spect = spectrum(op)
    assert spect.pairs == ((rat(-12), 1), (rat(-6), 4), (rat(0), 1))


def test_s3_chirality_exists(s3_group, s3_cls, s3_cal):
    from groupgeo.connections import levi_civita
    rep = builtin_rep(s3_group, "spinor")
    op = assemble(dirac_operator(rep, levi_civita(s3_cal)), s3_group)
    g = chirality(spectrum(op))
    assert g @ g == Mat.identity(12)
    assert (g @ op + op @ g).is_zero()
