"""Curvature, the two lifts, and Ricci flatness of the distinguished
connection."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import alternating4, dicyclic3, direct_product_cyclic, relabelled
from groupgeo import curvature, geometry_reports, linalg
from groupgeo.calculus import Calculus, TensorOneOne, TwoForm, differential_calculus
from groupgeo.connections import chart_connection, levi_civita
from groupgeo.curvature import (
    LIFT_VARIANTS,
    covariant_derivative,
    curvature_forms,
    lift,
    relative_curvature,
    ricci,
    ricci_flat_solve,
    ricci_system,
    wedge_of_tensor,
)
from groupgeo.cyclotomic import ZERO, rat
from groupgeo.errors import UnsupportedGroupError
from groupgeo.groups import ConjClass, conjugacy_class, dihedral
from oracles import (Field, constant_fields, curvature_of, d_function, delta, dense_system,
                     field_chart, field_covariant_derivative, field_curvature_forms,
                     field_relative_curvature, lifted_ricci, rank, riemann, subgroup_calculus,
                     three_chart_ricci_system, translate)
from groupgeo.linalg import Mat, same_element, solve_affine
from groupgeo.reporting import Geometry


def _basis_two_form(cal, k):
    return TwoForm(cal, [rat(1 if i == k else 0) for i in range(4)])


def test_covariant_derivative_of_first_basis_form(cal_d6, lc_d6):
    grid = [
        [Fraction(-2, 3), Fraction(1, 3), Fraction(1, 3)],
        [Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3)],
        [Fraction(1, 3), Fraction(-2, 3), Fraction(1, 3)],
    ]
    nabla = covariant_derivative(lc_d6, cal_d6.basis_one_form(0))
    for p in range(3):
        for q in range(3):
            assert nabla.coords[p][q] == rat(grid[p][q])


def test_covariant_derivative_leibniz(cal_d6, lc_d6):
    # the oracle's nabla of f e_b against the package's nabla e_b
    rng = random.Random(404)
    group = cal_d6.group
    f = tuple(rat(rng.randint(-4, 4)) for _ in range(12))
    alpha = cal_d6.basis_one_form(1)
    lhs = field_covariant_derivative(constant_fields(group, lc_d6.components),
                                     Field.constant(group, alpha) * f)
    df = d_function(cal_d6, f)
    rhs = Field.constant(group, covariant_derivative(lc_d6, alpha)) * f
    extra = Field(group, [TensorOneOne(cal_d6, [
        [form.coeffs[p] if q == 1 else ZERO for q in range(3)] for p in range(3)])
        for form in df.at])
    assert lhs == rhs + extra


def test_component_curvature_is_background(cal_d6, lc_d6):
    forms = curvature_forms(lc_d6)
    for pos in range(3):
        assert forms[pos] == cal_d6.d_basis(pos)
    assert all(g.is_zero() for g in relative_curvature(lc_d6))


def test_riemann_follows_conjugation_pattern(cal_d6, cls_d6, lc_d6):
    ad = cls_d6.ad
    rie = riemann(lc_d6)
    for a in range(3):
        for q in range(3):
            assert rie[a].column(q) == cal_d6.d_basis(ad[a][q])


def test_curvature_of_is_left_linear(cal_d6, lc_d6):
    rng = random.Random(111)
    group = cal_d6.group
    f = tuple(rat(rng.randint(-3, 3)) for _ in range(12))
    f_alpha = Field.constant(group, cal_d6.basis_one_form(2)) * f
    assert curvature_of(lc_d6, f_alpha) == Field.constant(group, riemann(lc_d6)[2]) * f


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
            assert t.coords[p][q] == rat(expect.get((p, q), 0))


def test_braided_lift_is_not_a_section(cal_d6):
    # id minus braiding on a representative: well defined, wedge-distorting
    images = {0: (1, -1, 0, 0), 1: (1, 2, 0, 0), 2: (0, 0, 1, -1), 3: (0, 0, 1, 2)}
    for k, coords in images.items():
        back = wedge_of_tensor(lift(_basis_two_form(cal_d6, k), "braided"))
        for i in range(4):
            assert back.coeffs[i] == rat(coords[i])
    assert any(images[k] != tuple(1 if i == k else 0 for i in range(4))
               for k in range(4))


def test_unknown_lift_variant(cal_d6):
    with pytest.raises(ValueError, match="unknown lift variant"):
        lift(_basis_two_form(cal_d6, 0), "mystery")


def test_distinguished_connection_is_ricci_flat(ricci_lc_d6):
    assert ricci_lc_d6["canonical"].is_zero()
    assert ricci_lc_d6["braided"].is_zero()


def test_off_distinguished_chart_is_not_ricci_flat(cal_d6):
    conn = chart_connection(cal_d6, rat(-1), rat(0), rat(0))
    assert not ricci(conn)["canonical"].is_zero()


def test_ricci_flat_solve_unique_with_constraint(ricci_solve_d6, cal_d6):
    for variant in ("canonical", "braided"):
        particular, kernel_dimension = ricci_solve_d6[variant]
        assert kernel_dimension == 0
        for value in particular:
            assert value == rat(Fraction(-1, 3))


def _unconstrained(system):
    """A Ricci system without the chart constraint, its last row component."""
    coeffs, rhs = system
    return {h: Mat(m.rows[:-1]) for h, m in coeffs.items()}, rhs[:-1]


def _unconstrained_ricci_flat_solve(cal, variant):
    """The Ricci-flat solve without the chart constraint, dense on G: each
    solution as its three parameter functions."""
    grp = cal.group
    unconstrained = _unconstrained(ricci_system(cal)[variant])
    particular, kernel = solve_affine(*dense_system(*unconstrained, grp))
    return _params_from_vec(particular, grp.order), [_params_from_vec(v, grp.order)
                                                     for v in kernel]


def _params_from_vec(vec, order):
    return tuple(tuple(vec[i * order:(i + 1) * order]) for i in range(3))


def test_ricci_flat_solve_unconstrained_kernel(cal_d6, d6):
    particular, kernel = _unconstrained_ricci_flat_solve(cal_d6, "canonical")
    assert len(kernel) == 4
    r2 = d6.index("r2")
    for alpha, beta, gamma in kernel:
        # equal parameter shifts, constant on cosets of the r2 subgroup
        assert alpha == beta == gamma
        assert translate(d6, alpha, r2) == alpha
    # the four directions span all r2-coset-invariant functions
    assert rank(Mat([k[0] for k in kernel])) == 4


def test_unconstrained_kernel_directions_preserve_flatness(cal_d6, d6):
    particular, kernel = _unconstrained_ricci_flat_solve(cal_d6, "canonical")
    shifted = field_chart(cal_d6, *(tuple(x + y for x, y in zip(p, k))
                                    for p, k in zip(particular, kernel[0])))
    assert lifted_ricci(shifted, "canonical").is_zero()


def test_s3_ricci_flat(s3_cal):
    from groupgeo.connections import levi_civita
    lc = levi_civita(s3_cal)
    tensors = ricci(lc)
    assert list(tensors) == list(LIFT_VARIANTS)
    assert all(t.is_zero() for t in tensors.values())


def _ricci_vector(tensor):
    """A Ricci tensor field in the row order of the dense Ricci system:
    coordinate (p, q) at g sits at (p*m + q)*|G| + g."""
    return [x for k in range(len(tensor.at[0].coeffs)) for x in tensor.coefficient(k)]


def _jacobian_by_evaluation(cal, variant):
    """The unconstrained Ricci system assembled from one evaluation of the
    oracle's Ricci (lifted_ricci) per unknown: the oracle for the
    left-translation assembly."""
    order = cal.group.order
    nunk = 3 * order

    def ricci_at(vec):
        return _ricci_vector(lifted_ricci(field_chart(cal, *_params_from_vec(vec, order)),
                                          variant))

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
    group = oracle_cal.group
    order = group.order
    system = ricci_system(oracle_cal)[variant]
    assert dense_system(*_unconstrained(system), group) == (Mat(rows), rhs)
    # the chart constraint comes last, one row per group element
    for g in range(order):
        rows.append([rat(1) if u % order == g else rat(0) for u in range(3 * order)])
        rhs.append(rat(-1))
    assert dense_system(*system, group) == (Mat(rows), rhs)


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


def _flat(params, order):
    # each constant parameter at every element, as a dense solve lists it
    return [p for p in params for _ in range(order)]


def test_subgroup_calculus_keeps_the_class_order(h_block_cal):
    cls = h_block_cal.cls
    elements = cls.generated_subgroup()
    sub = subgroup_calculus(h_block_cal)
    assert sub.group.names == tuple(cls.group.label(g) for g in elements)
    assert [elements[a] for a in sub.cls.members] == list(cls.members)
    assert sub.quotient_pairs == h_block_cal.quotient_pairs


def test_ricci_system_is_keyed_by_e_and_the_class(h_block_cal):
    # and the system of (H, C), re-keyed by the elements of H in G, is the
    # same group-algebra element
    cls = h_block_cal.cls
    elements = cls.generated_subgroup()
    on_h = ricci_system(subgroup_calculus(h_block_cal))
    for variant, (coeffs, rhs) in ricci_system(h_block_cal).items():
        assert set(coeffs) == {0, *cls.members}
        assert {(m.nrows, m.ncols) for m in coeffs.values()} == {(10, 3)}
        assert len(rhs) == 10
        h_coeffs, h_rhs = on_h[variant]
        assert same_element({elements[h]: m for h, m in h_coeffs.items()}, coeffs)
        assert h_rhs == rhs


def _is_the_three_chart_system(cal):
    three_charts = three_chart_ricci_system(cal)
    systems = ricci_system(cal)
    assert list(systems) == list(three_charts) == list(LIFT_VARIANTS)
    return all(same_element(systems[v][0], three_charts[v][0])
               and systems[v][1] == three_charts[v][1] for v in LIFT_VARIANTS)


def test_class_table_system_is_the_three_chart_system_on_h_blocks(h_block_cal):
    assert _is_the_three_chart_system(h_block_cal)


@pytest.mark.parametrize("m", [2, 4, 6, 10])
def test_class_table_system_is_the_three_chart_system_on_d3_times_cyclic(m):
    # H = <C> has order 3m, and index 2 in D3 x Z_m
    cal = _calculus_of(direct_product_cyclic(dihedral(3), m), "s.z")
    assert len(cal.cls.generated_subgroup()) == 3 * m
    assert _is_the_three_chart_system(cal)


@pytest.mark.parametrize("variant", LIFT_VARIANTS)
def test_ricci_flat_solve_equals_dense_solve(h_block_cal, variant):
    # the dense solution is unique, so it is the constant one
    particular, kernel_dimension = ricci_flat_solve(h_block_cal)[variant]
    dense, kernel = solve_affine(*dense_system(*ricci_system(h_block_cal)[variant],
                                               h_block_cal.group))
    assert kernel == []
    assert (_flat(particular, h_block_cal.group.order), kernel_dimension) == (dense, 0)


@pytest.fixture
def unconstrained_h_block_solve(monkeypatch):
    """ricci_flat_solve on the Ricci system without the chart constraint,
    which has a kernel: the parameters as one vector on G, and the kernel
    dimension on G."""
    real = curvature.ricci_system
    monkeypatch.setattr(curvature, "ricci_system", lambda cal: {
        variant: _unconstrained(system) for variant, system in real(cal).items()})

    def solve(cal, variant):
        params, kernel_dimension = ricci_flat_solve(cal)[variant]
        assert kernel_dimension
        return _flat(params, cal.group.order), kernel_dimension
    return solve


@pytest.mark.parametrize("variant", LIFT_VARIANTS)
def test_lift_solution_reduces_a_kernel_to_the_dense_basis(h_block_cal, variant,
                                                           unconstrained_h_block_solve):
    # with a kernel the dense solve's particular solution follows its free
    # columns; the constant one solves the same system, and the kernel on
    # H, counted once per coset, has the size of the dense kernel basis
    particular, kernel_dimension = unconstrained_h_block_solve(h_block_cal, variant)
    op, b = dense_system(*_unconstrained(ricci_system(h_block_cal)[variant]), h_block_cal.group)
    assert op @ particular == b
    assert kernel_dimension == len(_unconstrained_ricci_flat_solve(h_block_cal, variant)[1])


@pytest.mark.parametrize("build,kernel_dimension", [
    (lambda: dihedral(6), 4),
    (lambda: direct_product_cyclic(dihedral(6), 2), 8),
], ids=["d6", "d6xz2"])
def test_unconstrained_kernel_is_one_copy_per_coset(build, kernel_dimension,
                                                   unconstrained_h_block_solve):
    # the kernel on H has dimension 2, and the constant solution does not
    # depend on how the elements are numbered
    natural = unconstrained_h_block_solve(_calculus_of(build()), "canonical")
    assert natural[1] == kernel_dimension
    for seed in (3, 29, 8):
        assert unconstrained_h_block_solve(
            _calculus_of(relabelled(build(), seed)), "canonical") == natural


@pytest.mark.parametrize("build,rep", [
    (lambda fixture: fixture("d6"), "sr"),
    (lambda fixture: direct_product_cyclic(fixture("d6"), 2), "sr"),
] + [
    (lambda fixture, m=m: direct_product_cyclic(fixture("s3_group"), m), "u")
    for m in range(1, 5)
], ids=["d6", "d6xz2", "s3xz1", "s3xz2", "s3xz3", "s3xz4"])
def test_ricci_solve_size_does_not_grow_with_the_group(request, monkeypatch, build, rep):
    cal = _calculus_of(build(request.getfixturevalue), rep)
    shapes, counted = [], []

    def recording_rref(matrix):
        shapes.append((matrix.nrows, matrix.ncols))
        return real_rref(matrix)

    def recording_nullity(coeffs, group, elements):
        kernel = real_nullity(coeffs, group, elements)
        counted.append((len(elements), {(m.nrows, m.ncols) for m in coeffs.values()}, kernel))
        return kernel

    real_rref, real_nullity = linalg.rref, curvature.nullity
    monkeypatch.setattr(linalg, "rref", recording_rref)
    monkeypatch.setattr(curvature, "nullity", recording_nullity)
    solves = ricci_flat_solve(cal)
    assert list(solves) == list(LIFT_VARIANTS)
    for particular, kernel_dimension in solves.values():
        assert kernel_dimension == 0
        assert all(p == rat(Fraction(-1, 3)) for p in particular)
    # per variant, the exact rref sees 10 rows by 3 unknowns and the
    # right-hand side on constants, and nullity counts the kernel on the
    # |H| = 6 elements of H from 10 x 3 coefficients, and finds it zero
    assert len(cal.cls.generated_subgroup()) == 6
    assert shapes == [(10, 4)] * len(LIFT_VARIANTS)
    assert counted == [(6, {(10, 3)}, 0)] * len(LIFT_VARIANTS)


def test_ricci_flat_solve_rejects_a_non_chart_class_before_building_h(monkeypatch):
    # the 3-cycles of A4: a cyclic class of 4 members, so a calculus exists
    # but no connection chart
    cal = _calculus_of(alternating4(), "1203")
    assert cal.n_members == 4

    def unreachable(*_):
        raise AssertionError("H was built for a class that is not a chart class")

    monkeypatch.setattr(ConjClass, "generated_subgroup", unreachable)
    monkeypatch.setattr(curvature, "solve_invariant", unreachable)
    with pytest.raises(UnsupportedGroupError) as err:
        ricci_flat_solve(cal)
    assert str(err.value) == (
        "connection chart requires a 3-member class with circulant products")


def test_ricci_report_assembles_the_curvature_once(monkeypatch, cls_d6):
    # the distinguished connection's relative curvature once for both lift
    # variants; the Ricci system reads the class tables of the calculus of
    # G, so no chart is evaluated and no calculus of H is built
    calls = Counter()

    def counting(owner, name):
        real = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, counted)

    geo = Geometry(cls_d6)
    geo.calculus
    for owner, name in ((curvature, "relative_curvature"), (curvature, "ricci_system"),
                        (ConjClass, "generated_subgroup"), (Calculus, "__init__")):
        counting(owner, name)
    geometry_reports.ricci_report(geo)
    assert calls == {"relative_curvature": 1, "ricci_system": 1, "generated_subgroup": 1}


# -- the identities the Ricci system rests on ---------------------------------

CHART_CLASS_CASES = {
    "d3": lambda fixture: fixture("cal_d3"),
    "d6": lambda fixture: fixture("cal_d6"),
    "d6xz2": lambda fixture: differential_calculus(fixture("cls_d6z2")),
    "s3xz4": lambda fixture: _calculus_of(direct_product_cyclic(fixture("s3_group"), 4), "u"),
}


@pytest.fixture(scope="module", params=list(CHART_CLASS_CASES))
def chart_cal(request):
    return CHART_CLASS_CASES[request.param](request.getfixturevalue)


_THIRD = Fraction(-1, 3)
# chart parameters as (constant, coefficient of delta_e) each: three
# constant triples and three valued in delta_e beside constants
_CONSTRAINED = [
    ((_THIRD, 0), (_THIRD, 0), (_THIRD, 0)),
    ((-1, 0), (0, 0), (0, 0)),
    ((2, 0), (Fraction(-5, 2), 0), (Fraction(-1, 2), 0)),
    ((-1, 1), (0, -1), (0, 0)),
    ((_THIRD, 2), (_THIRD, -1), (_THIRD, -1)),
    ((0, Fraction(1, 2)), (-1, 0), (0, Fraction(-1, 2))),
]


def _constrained_parameters(cal):
    """The chart parameter functions of _CONSTRAINED, alpha + beta + gamma
    = -1 at every element, each with the package connection of its
    constant ones (None when they vary)."""
    delta_e = delta(cal.group, 0)
    out = []
    for triple in _CONSTRAINED:
        params = tuple(tuple(rat(c) + rat(d) * x for x in delta_e) for c, d in triple)
        assert all(a + b + c == -1 for a, b, c in zip(*params))
        varies = any(d for _, d in triple)
        out.append((params, None if varies else
                    chart_connection(cal, *(rat(c) for c, _ in triple))))
    return out


def test_class_table_system_is_the_three_chart_system_on_chart_classes(chart_cal):
    assert _is_the_three_chart_system(chart_cal)


def test_ricci_is_the_lifted_and_contracted_curvature(chart_cal):
    # off the distinguished connection, with constant parameters and with
    # parameters valued in delta_e: the package's Ricci of a constant member,
    # and the Ricci system applied to any member's parameters, against the
    # oracle's lifted and contracted Ricci
    group = chart_cal.group
    systems = ricci_system(chart_cal)
    for params, conn in _constrained_parameters(chart_cal)[1:]:
        tensors = ricci(conn) if conn is not None else None
        for variant in LIFT_VARIANTS:
            oracle = lifted_ricci(field_chart(chart_cal, *params), variant)
            assert not oracle.is_zero()
            if tensors is not None:
                assert list(tensors) == list(LIFT_VARIANTS)
                assert Field.constant(group, tensors[variant]) == oracle
            op, _ = dense_system(*_unconstrained(systems[variant]), group)
            assert op @ [x for p in params for x in p] == _ricci_vector(oracle)


def test_zero_chart_has_vanishing_relative_curvature(chart_cal):
    # A_a = e_a, so d(A_a) - de_a = 0: the Ricci system needs no zero chart
    forms = relative_curvature(chart_connection(chart_cal, ZERO, ZERO, ZERO))
    assert len(forms) == 3 and all(g.is_zero() for g in forms)


def test_constrained_members_curvature_is_relative_plus_background(chart_cal):
    # the quadratic terms of the component curvature cancel on the chart
    # constraint, constant parameters (the package) or not (the oracle)
    group = chart_cal.group
    for params, conn in _constrained_parameters(chart_cal):
        if conn is not None:
            assert conn.sum_form().is_zero()
            relative = relative_curvature(conn)
            for pos, form in enumerate(curvature_forms(conn)):
                assert form == relative[pos] + chart_cal.d_basis(pos)
        comps = field_chart(chart_cal, *params)
        assert sum(comps[1:], comps[0]).is_zero()
        relative = field_relative_curvature(comps)
        for pos, form in enumerate(field_curvature_forms(comps)):
            assert form == relative[pos] + Field.constant(group, chart_cal.d_basis(pos))


def test_no_product_of_two_chart_class_members_is_a_member(chart_cal):
    # so the term sum_{cd=a} A_c ^ A_d of curvature_forms is always empty
    cls = chart_cal.cls
    assert cls.size == 3
    assert not {cd for row in cls.products for cd in row} & set(cls.members)


# -- relabelling the group elements ------------------------------------------

def _label_free_layers(group) -> dict:
    """What the connection and Ricci layers compute on the class of sr, each
    a constant or a count, so that renumbering the elements cannot change
    it."""
    geo = Geometry(conjugacy_class(group, "sr"))
    cal = geo.calculus
    report = geometry_reports.connection_report(geo)
    out = {
        "levi_civita": levi_civita(cal).parameters,
        "scan": report["constant_regular_scan"],
        "family_dimension": report["torsion_free_family_dimension"],
        "sum_of_components_vanishes": report["sum_of_components_vanishes"],
    }
    for variant, (params, kernel_dimension) in ricci_flat_solve(cal).items():
        out[variant] = (params, kernel_dimension)
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
