"""Curvature, the two lifts, and Ricci flatness of the distinguished
connection."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import alternating4, dicyclic3, direct_product_cyclic, relabelled
from groupgeo import curvature, linalg, reporting
from groupgeo.calculus import GroupFunction, TensorOneOne, TwoForm, differential_calculus
from groupgeo.connections import (Connection, chart_connection, constant_regular_scan,
                                  levi_civita)
from groupgeo.curvature import (
    LIFT_VARIANTS,
    covariant_derivative,
    curvature_forms,
    lift,
    lift_solution,
    relative_curvature,
    ricci,
    ricci_flat_solve,
    ricci_system,
    subgroup_calculus,
    wedge_of_tensor,
)
from groupgeo.cyclotomic import rat
from groupgeo.errors import UnsupportedGroupError
from groupgeo.groups import ad_table, conjugacy_class, dihedral
from oracles import curvature_of, rank, riemann
from groupgeo.linalg import Mat, solve_affine


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
        assert wedge_of_tensor(lift(om, "canonical")) == om


def test_canonical_lift_of_first_monomial(cal_d6):
    # the three ordered pairs multiplying to the same rotation share the weight
    t = lift(_basis_two_form(cal_d6, 0), "canonical")
    half = Fraction(1, 2)
    expect = {(1, 0): half, (2, 1): -half, (0, 2): -half}
    for p in range(3):
        for q in range(3):
            assert t.coords[p][q] == cal_d6.constant(expect.get((p, q), 0))


def test_braided_lift_is_not_a_section(cal_d6):
    # id minus braiding on a representative: well defined, wedge-distorting
    images = {0: (1, -1, 0, 0), 1: (1, 2, 0, 0), 2: (0, 0, 1, -1), 3: (0, 0, 1, 2)}
    for k, coords in images.items():
        back = wedge_of_tensor(lift(_basis_two_form(cal_d6, k), "braided"))
        for i in range(4):
            assert back.coeffs[i] == cal_d6.constant(coords[i])
    assert any(images[k] != tuple(1 if i == k else 0 for i in range(4))
               for k in range(4))


def test_unknown_lift_variant(cal_d6):
    with pytest.raises(ValueError, match="unknown lift variant"):
        lift(_basis_two_form(cal_d6, 0), "mystery")


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


def _unconstrained_ricci_flat_solve(cal, variant):
    """The Ricci-flat solve without the chart constraint, whose |G| rows
    ricci_system appends last."""
    grp = cal.group
    order = grp.order
    matrix, rhs = ricci_system(cal)[variant]
    particular, kernel = solve_affine(Mat(matrix.rows[:-order]), rhs[:-order])

    def params_from_vec(vec):
        return tuple(GroupFunction(grp, vec[i * order:(i + 1) * order])
                     for i in range(3))

    return params_from_vec(particular), [params_from_vec(v) for v in kernel]


def test_ricci_flat_solve_unconstrained_kernel(cal_d6, d6):
    particular, kernel = _unconstrained_ricci_flat_solve(cal_d6, "canonical")
    assert len(kernel) == 4
    r2 = d6.index("r2")
    for alpha, beta, gamma in kernel:
        # equal parameter shifts, constant on cosets of the r2 subgroup
        assert alpha == beta == gamma
        assert alpha.translate(r2) == alpha
    # the four directions span all r2-coset-invariant functions
    values = [[k[0](g) for g in range(12)] for k in kernel]
    assert rank(Mat(values)) == 4


def test_unconstrained_kernel_directions_preserve_flatness(cal_d6, d6):
    particular, kernel = _unconstrained_ricci_flat_solve(cal_d6, "canonical")
    alpha, beta, gamma = kernel[0]
    shifted = chart_connection(
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
        return flatten(ricci(chart_connection(cal, *params_from_vec(vec)), variant))

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
    order = oracle_cal.group.order
    matrix, full_rhs = ricci_system(oracle_cal)[variant]
    # the chart constraint comes last, one row per group element
    assert (Mat(matrix.rows[:-order]), full_rhs[:-order]) == (Mat(rows), rhs)
    for g in range(order):
        rows.append([rat(1) if u % order == g else rat(0) for u in range(3 * order)])
        rhs.append(rat(-1))
    assert (matrix, full_rhs) == (Mat(rows), rhs)


# -- the solve on H = <C> ---------------------------------------------------

def _calculus_of(group, rep="sr"):
    return differential_calculus(conjugacy_class(group, rep))


# each case builds its calculus from the fixture getter
H_BLOCK_CASES = {
    "d3": lambda fixture: fixture("cal_d3"),
    "d6": lambda fixture: fixture("cal_d6"),
    "s3": lambda fixture: fixture("s3_cal"),
    "dic3": lambda fixture: _calculus_of(dicyclic3(), "a0x1"),
    "d6-relabelled-3": lambda fixture: _calculus_of(relabelled(dihedral(6), 3)),
    "d6-relabelled-29": lambda fixture: _calculus_of(relabelled(dihedral(6), 29)),
    "d6xz2": lambda fixture: differential_calculus(fixture("cls_d6z2")),
    "d6xz2-relabelled-8": lambda fixture: _calculus_of(
        relabelled(direct_product_cyclic(dihedral(6), 2), 8)),
}


@pytest.fixture(scope="module", params=list(H_BLOCK_CASES))
def h_block_cal(request):
    return H_BLOCK_CASES[request.param](request.getfixturevalue)


def _flat(params):
    return [x for f in params for x in f.values]


def test_subgroup_calculus_keeps_the_class_order(h_block_cal):
    cls = h_block_cal.cls
    elements = cls.generated_subgroup()
    sub = subgroup_calculus(h_block_cal)
    assert sub.group.names == tuple(cls.group.label(g) for g in elements)
    assert [elements[a] for a in sub.cls.members] == list(cls.members)
    assert sub.quotient_pairs == h_block_cal.quotient_pairs


@pytest.mark.parametrize("variant", LIFT_VARIANTS)
def test_ricci_flat_solve_equals_dense_solve(h_block_cal, variant):
    particular, kernel = ricci_flat_solve(h_block_cal)[variant]
    dense = solve_affine(*ricci_system(h_block_cal)[variant])
    assert (_flat(particular), [_flat(v) for v in kernel]) == dense


def _unconstrained_h_block_solve(cal, variant):
    """The Ricci-flat solve without the chart constraint on H, lifted to G."""
    sub = subgroup_calculus(cal)
    k = sub.group.order
    matrix, rhs = ricci_system(sub)[variant]
    particular, kernel = solve_affine(Mat(matrix.rows[:-k]), rhs[:-k])
    assert kernel
    return lift_solution(cal, particular, kernel)


@pytest.mark.parametrize("variant", LIFT_VARIANTS)
def test_lift_solution_reduces_a_kernel_to_the_dense_basis(h_block_cal, variant):
    # the lifted kernel matches the dense one vector for vector only after
    # the free-column reduction
    particular, kernel = _unconstrained_h_block_solve(h_block_cal, variant)
    dense_particular, dense_kernel = _unconstrained_ricci_flat_solve(h_block_cal, variant)
    assert particular == _flat(dense_particular)
    assert kernel == [_flat(v) for v in dense_kernel]


@pytest.mark.parametrize("build,kernel_dimension", [
    (lambda: dihedral(6), 4),
    (lambda: direct_product_cyclic(dihedral(6), 2), 8),
], ids=["d6", "d6xz2"])
def test_unconstrained_kernel_is_one_copy_per_coset(build, kernel_dimension):
    # the kernel on H has dimension 2
    cal = _calculus_of(build())
    _, kernel = _unconstrained_h_block_solve(cal, "canonical")
    assert len(kernel) == kernel_dimension == 2 * len(cal.cls.left_cosets())


@pytest.mark.parametrize("build,rep", [
    (lambda fixture: fixture("d6"), "sr"),
    (lambda fixture: direct_product_cyclic(fixture("d6"), 2), "sr"),
] + [
    (lambda fixture, m=m: direct_product_cyclic(fixture("s3_group"), m), "u")
    for m in range(1, 5)
], ids=["d6", "d6xz2", "s3xz1", "s3xz2", "s3xz3", "s3xz4"])
def test_ricci_solve_size_does_not_grow_with_the_group(request, monkeypatch, build, rep):
    cal = _calculus_of(build(request.getfixturevalue), rep)
    shapes = []

    def recording_rref(matrix):
        shapes.append((matrix.nrows, matrix.ncols))
        return real_rref(matrix)

    real_rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", recording_rref)
    monkeypatch.setattr(curvature, "rref", recording_rref)
    solves = ricci_flat_solve(cal)
    assert list(solves) == list(LIFT_VARIANTS)
    for particular, kernel in solves.values():
        assert kernel == []
        assert all(f == cal.constant(Fraction(-1, 3)) for f in particular)
    # 10|H| rows by 3|H| unknowns and the right-hand side, |H| = 6
    assert len(cal.cls.generated_subgroup()) == 6
    assert max(rows for rows, _ in shapes) == 60
    assert max(cols for _, cols in shapes) == 19


def test_ricci_flat_solve_rejects_a_non_chart_class_before_building_h(monkeypatch):
    # the 3-cycles of A4: a cyclic class of 4 members, so a calculus exists
    # but no connection chart
    cal = _calculus_of(alternating4(), "1203")
    assert cal.n_members == 4

    def unreachable(_):
        raise AssertionError("H was built for a class that is not a chart class")

    monkeypatch.setattr(curvature, "subgroup_calculus", unreachable)
    with pytest.raises(UnsupportedGroupError) as err:
        ricci_flat_solve(cal)
    assert str(err.value) == (
        "connection chart requires a 3-member class with circulant products")


def test_ricci_report_assembles_the_curvature_once(monkeypatch, cal_d6):
    # the distinguished connection's relative curvature once per lift
    # variant, and the four charts of the system on H once for both
    calls = Counter()

    def counting(name):
        real = getattr(curvature, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    for name in ("relative_curvature", "subgroup_calculus"):
        monkeypatch.setattr(curvature, name, counting(name))
    reporting.ricci_report(cal_d6)
    assert calls == {"relative_curvature": 6, "subgroup_calculus": 1}


# -- relabelling the group elements ------------------------------------------

def _label_free_layers(group) -> dict:
    """What the connection and Ricci layers compute on the class of sr, each
    function read by element name so that renumbering the elements cannot
    change it."""
    cal = differential_calculus(conjugacy_class(group, "sr"))

    def by_name(f):
        return {group.names[g]: f(g) for g in range(group.order)}

    report = reporting.connection_report(cal)
    out = {
        "levi_civita": [by_name(p) for p in levi_civita(cal).parameters],
        "scan": constant_regular_scan(cal),
        "family_dimension": report["torsion_free_family_dimension"],
        "sum_of_components_vanishes": report["sum_of_components_vanishes"],
    }
    for variant, (params, kernel) in ricci_flat_solve(cal).items():
        out[variant] = ([by_name(p) for p in params], len(kernel))
    return out


@pytest.fixture(scope="module")
def natural_layers():
    d6 = dihedral(6)
    return {"d6": _label_free_layers(d6),
            "d6xz2": _label_free_layers(direct_product_cyclic(d6, 2))}


@pytest.mark.parametrize("base,seed", [("d6", 3), ("d6", 29), ("d6xz2", 8)])
def test_connection_and_ricci_layers_survive_relabelling(natural_layers, base, seed):
    group = dihedral(6) if base == "d6" else direct_product_cyclic(dihedral(6), 2)
    natural = natural_layers[base]
    assert natural["scan"] and natural["sum_of_components_vanishes"]
    assert _label_free_layers(relabelled(group, seed)) == natural
