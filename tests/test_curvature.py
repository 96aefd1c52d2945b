"""Curvature, the two lifts, and Ricci flatness of the distinguished
connection."""

import random
from fractions import Fraction

import pytest

from groupgeo.calculus import GroupFunction, TwoForm
from groupgeo.connections import Connection
from groupgeo.curvature import (
    TensorOneOne,
    covariant_derivative,
    curvature_forms,
    lift,
    relative_curvature,
    ricci,
    ricci_flat_solve,
    ricci_system,
    wedge_of_tensor,
)
from groupgeo.cyclotomic import rat
from groupgeo.groups import ad_table
from oracles import curvature_of, riemann
from groupgeo.linalg import Mat


def _basis_two_form(cal, k):
    return TwoForm(cal, [cal.constant(1 if i == k else 0) for i in range(4)])


def test_covariant_derivative_of_first_basis_form(cal_d6, lc_d6):
    grid = [
        [Fraction(-2, 3), Fraction(1, 3), Fraction(1, 3)],
        [Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3)],
        [Fraction(1, 3), Fraction(-2, 3), Fraction(1, 3)],
    ]
    nabla = covariant_derivative(lc_d6, cal_d6.basis_one_form(0))
    for p in range(3):
        for q in range(3):
            assert nabla.coords[p][q] == cal_d6.constant(grid[p][q])


def test_covariant_derivative_leibniz(cal_d6, lc_d6):
    rng = random.Random(404)
    f = GroupFunction(cal_d6.group, [Fraction(rng.randint(-4, 4)) for _ in range(12)])
    alpha = cal_d6.basis_one_form(1)
    f_alpha = cal_d6.one_form([f * c for c in alpha.coeffs])
    lhs = covariant_derivative(lc_d6, f_alpha)
    df = cal_d6.d_function(f)
    rhs = covariant_derivative(lc_d6, alpha) * f
    extra = TensorOneOne(cal_d6, [
        [df.coeffs[p] if q == 1 else cal_d6.zero_function() for q in range(3)]
        for p in range(3)])
    assert lhs == rhs + extra


def test_component_curvature_is_background(cal_d6, lc_d6):
    forms = curvature_forms(lc_d6)
    for pos in range(3):
        assert forms[pos] == cal_d6.d_basis(pos)
    assert all(g.is_zero() for g in relative_curvature(lc_d6))


def test_riemann_follows_conjugation_pattern(cal_d6, cls_d6, lc_d6):
    ad = ad_table(cls_d6)
    rie = riemann(lc_d6)
    for a in range(3):
        for q in range(3):
            assert rie[a].column(q) == cal_d6.d_basis(ad[a][q])


def test_curvature_of_is_left_linear(cal_d6, lc_d6):
    rng = random.Random(111)
    f = GroupFunction(cal_d6.group, [Fraction(rng.randint(-3, 3)) for _ in range(12)])
    alpha = cal_d6.basis_one_form(2)
    f_alpha = cal_d6.one_form([f * c for c in alpha.coeffs])
    assert curvature_of(lc_d6, f_alpha) == riemann(lc_d6)[2] * f


def test_canonical_lift_is_a_section(cal_d6):
    for k in range(4):
        om = _basis_two_form(cal_d6, k)
        assert wedge_of_tensor(lift(cal_d6, om, "canonical")) == om


def test_canonical_lift_of_first_monomial(cal_d6):
    # the three ordered pairs multiplying to the same rotation share the weight
    t = lift(cal_d6, _basis_two_form(cal_d6, 0), "canonical")
    half = Fraction(1, 2)
    expect = {(1, 0): half, (2, 1): -half, (0, 2): -half}
    for p in range(3):
        for q in range(3):
            assert t.coords[p][q] == cal_d6.constant(expect.get((p, q), 0))


def test_braided_lift_is_not_a_section(cal_d6):
    # id minus braiding on a representative: well defined, wedge-distorting
    images = {0: (1, -1, 0, 0), 1: (1, 2, 0, 0), 2: (0, 0, 1, -1), 3: (0, 0, 1, 2)}
    for k, coords in images.items():
        back = wedge_of_tensor(lift(cal_d6, _basis_two_form(cal_d6, k), "braided"))
        for i in range(4):
            assert back.coeffs[i] == cal_d6.constant(coords[i])
    assert any(images[k] != tuple(1 if i == k else 0 for i in range(4))
               for k in range(4))


def test_unknown_lift_variant(cal_d6):
    with pytest.raises(ValueError, match="unknown lift variant"):
        lift(cal_d6, _basis_two_form(cal_d6, 0), "mystery")


def test_distinguished_connection_is_ricci_flat(ricci_lc_d6):
    assert ricci_lc_d6["canonical"].is_zero()
    assert ricci_lc_d6["braided"].is_zero()


def test_off_distinguished_chart_is_not_ricci_flat(cal_d6):
    conn = Connection.from_chart(
        cal_d6, cal_d6.constant(-1), cal_d6.constant(0), cal_d6.constant(0))
    assert not ricci(conn, "canonical").is_zero()


def test_ricci_flat_solve_unique_with_constraint(ricci_solve_d6, cal_d6):
    for variant in ("canonical", "braided"):
        particular, kernel = ricci_solve_d6[variant]
        assert kernel == []
        for func in particular:
            assert func == cal_d6.constant(Fraction(-1, 3))


def test_ricci_flat_solve_unconstrained_kernel(cal_d6, d6):
    particular, kernel = ricci_flat_solve(cal_d6, "canonical", constrain_sum=False)
    assert len(kernel) == 4
    r2 = d6.index("r2")
    for alpha, beta, gamma in kernel:
        # equal parameter shifts, constant on cosets of the r2 subgroup
        assert alpha == beta == gamma
        assert alpha.translate(r2) == alpha
    # the four directions span all r2-coset-invariant functions
    values = [[k[0](g) for g in range(12)] for k in kernel]
    from groupgeo.linalg import Mat, rank
    assert rank(Mat(values)) == 4


def test_unconstrained_kernel_directions_preserve_flatness(cal_d6, d6):
    from groupgeo.curvature import _chart_unchecked
    particular, kernel = ricci_flat_solve(cal_d6, "canonical", constrain_sum=False)
    alpha, beta, gamma = kernel[0]
    shifted = _chart_unchecked(
        cal_d6, particular[0] + alpha, particular[1] + beta, particular[2] + gamma)
    assert ricci(shifted, "canonical").is_zero()


def test_s3_ricci_flat(s3_cal):
    from groupgeo.connections import levi_civita
    lc = levi_civita(s3_cal)
    assert ricci(lc, "canonical").is_zero()
    assert ricci(lc, "braided").is_zero()


def _jacobian_by_evaluation(cal, variant):
    """The unconstrained Ricci system assembled from one ricci evaluation
    per unknown: the oracle for the left-translation assembly."""
    from groupgeo.curvature import _chart_unchecked
    grp = cal.group
    order = grp.order
    m = cal.n_members
    nunk = 3 * order

    def params_from_vec(vec):
        return tuple(GroupFunction(grp, vec[i * order:(i + 1) * order])
                     for i in range(3))

    def flatten(t):
        return [t.coords[p][q](g) for p in range(m) for q in range(m)
                for g in range(order)]

    def ricci_at(vec):
        return flatten(ricci(_chart_unchecked(cal, *params_from_vec(vec)), variant))

    base = ricci_at([rat(0)] * nunk)
    cols = []
    for u in range(nunk):
        vec = [rat(0)] * nunk
        vec[u] = rat(1)
        cols.append([a - b for a, b in zip(ricci_at(vec), base)])
    rows = [[cols[u][r] for u in range(nunk)] for r in range(len(base))]
    return rows, [-v for v in base]


@pytest.mark.parametrize("variant", ["canonical", "braided"])
def test_ricci_system_matches_evaluation_jacobian(oracle_cal, variant):
    rows, rhs = _jacobian_by_evaluation(oracle_cal, variant)
    assert ricci_system(oracle_cal, variant, constrain_sum=False) == (Mat(rows), rhs)
    order = oracle_cal.group.order
    for g in range(order):
        rows.append([rat(1) if u % order == g else rat(0) for u in range(3 * order)])
        rhs.append(rat(-1))
    assert ricci_system(oracle_cal, variant, constrain_sum=True) == (Mat(rows), rhs)
