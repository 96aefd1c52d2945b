"""Torsion-free connections and the distinguished one, derived by the
regularity scan."""

import contextlib
import gc
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from unittest import mock

import pytest

from conftest import (ORACLE_CALS, affine_group, alternating4, direct_product_cyclic,
                      regular_constants)
from groupgeo import connections, cyclotomic, geometry_reports, reporting
from groupgeo.calculus import GroupFunction, differential_calculus
from groupgeo.connections import (
    Connection,
    chart_connection,
    cotorsion_residual,
    is_regular,
    levi_civita,
    regularity_residual,
    torsion_free_family,
    torsion_residual,
)
from groupgeo.cyclotomic import rat
from groupgeo.errors import (GroupGeoError, InfeasibleSystemError, SingularMetricError,
                             UnsupportedGroupError)
from groupgeo.groups import conjugacy_class, dihedral
from groupgeo.linalg import solve_affine
from groupgeo.reporting import Geometry
from oracles import delta, expanded_functions, torsion_family_members, torsion_system


def _const_chart(cal, a, b, c):
    return chart_connection(cal, cal.constant(a), cal.constant(b), cal.constant(c))


def test_chart_rows_layout(cal_d6):
    # the pattern holds off the constraint alpha + beta + gamma = -1 too
    conn = chart_connection(cal_d6, *(cal_d6.constant(x) for x in (2, 3, 5)))
    # rows (1+alpha, gamma, beta), (gamma, 1+beta, alpha), (beta, alpha, 1+gamma)
    expect = [(3, 5, 3), (5, 4, 2), (3, 2, 6)]
    for i in range(3):
        for j in range(3):
            assert conn.coefficient(i, j) == cal_d6.constant(expect[i][j])


def test_every_chart_member_is_torsion_free(cal_d6):
    rng = random.Random(314)
    for _ in range(6):
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        conn = _const_chart(cal_d6, a, b, -1 - a - b)
        assert all(t.is_zero() for t in torsion_residual(conn))


def test_nonconstant_chart_parameters_allowed(cal_d6, d6):
    # pointwise constraint, not a constants-only one
    alpha = delta(d6, 0) * rat(2)
    beta = GroupFunction.constant(d6, Fraction(1, 2))
    gamma = (alpha + beta + GroupFunction.constant(d6, 1)) * rat(-1)
    conn = chart_connection(cal_d6, alpha, beta, gamma)
    assert all(t.is_zero() for t in torsion_residual(conn))


def test_torsion_free_family_dimension(family_d6, cal_d6):
    particular, directions = family_d6
    assert len(directions) == 2
    assert len(torsion_family_members(cal_d6, directions)) == 24
    assert all(t.is_zero() for t in torsion_residual(particular))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_torsion_family_has_two_directions_on_s3_times_cyclic(s3_group, m):
    geo = Geometry(conjugacy_class(direct_product_cyclic(s3_group, m), "u"))
    cal = geo.calculus
    _, directions = torsion_free_family(cal)
    assert len(directions) == 2
    # every direction holds constants, one value per coefficient
    assert all(f.constant_value is not None
               for direction in directions for comp in direction for f in comp.coeffs)
    report = geometry_reports.connection_report(geo)
    assert report["torsion_free_family_dimension"] == 2 * cal.group.order == 12 * m
    assert report["sum_of_components_vanishes"]


def test_torsion_free_family_members_are_torsion_free(family_d6, cal_d6):
    particular, directions = family_d6
    kernel = torsion_family_members(cal_d6, directions)
    rng = random.Random(2718)
    for _ in range(4):
        comps = list(particular.components)
        for vec in rng.sample(kernel, 5):
            scale = rat(rng.randint(-2, 2))
            comps = [c + v * scale for c, v in zip(comps, vec)]
        member = Connection(cal_d6, comps)
        assert all(t.is_zero() for t in torsion_residual(member))
        # torsion freedom forces the component sum to vanish
        assert member.sum_form().is_zero()


def _dense_vector(components, order):
    # the column order of torsion_system: (c*m + b)*|G| + h
    return [f(h) for comp in components for f in comp.coeffs for h in range(order)]


@pytest.mark.parametrize("name", ORACLE_CALS + ["cal_a4"])
def test_factored_family_matches_dense_torsion_solve(name, request):
    cal = request.getfixturevalue(name)
    conn, directions = torsion_free_family(cal)
    particular, dense_kernel = solve_affine(*torsion_system(cal))
    order = cal.group.order
    assert _dense_vector(conn.components, order) == particular
    # the directions lifted over the cosets (h,) of K = {e}, vector for vector
    members = torsion_family_members(cal, directions)
    assert [_dense_vector(k, order) for k in members] == dense_kernel
    if name == "cal_a4":
        # a 4-member class: three directions, placed at each of 12 elements
        assert len(directions) == 3 and len(dense_kernel) == 36


def test_affine_group_of_order_20_has_no_torsion_free_connection():
    # the class of x -> 2x in AGL(1, 5): five members, 2 generating (Z/5)^x
    cal = differential_calculus(conjugacy_class(affine_group(5), "2x+0"))
    assert cal.n_members == 5
    with pytest.raises(InfeasibleSystemError):
        torsion_free_family(cal)
    with pytest.raises(InfeasibleSystemError):
        solve_affine(*torsion_system(cal))


def test_torsion_free_family_builds_no_function_of_the_group_order(monkeypatch):
    # the family is stated on its factor: every coefficient is a constant,
    # and no function holding |G| values is built
    cal = differential_calculus(conjugacy_class(direct_product_cyclic(dihedral(6), 2), "sr"))
    built = []
    init = GroupFunction.__init__

    def counted(self, group, values):
        built.append(group.order)
        init(self, group, values)

    monkeypatch.setattr(GroupFunction, "__init__", counted)
    _, directions = torsion_free_family(cal)
    assert built == []
    assert len(directions) == 2


def test_levi_civita_components(cal_d6, lc_d6):
    third = Fraction(1, 3)
    for pos in range(3):
        expect = cal_d6.basis_one_form(pos) - cal_d6.theta * third
        assert lc_d6.components[pos] == expect
    assert lc_d6.parameters is not None
    for p in lc_d6.parameters:
        assert p == cal_d6.constant(-third)


def _identity_bucket(conn):
    """sum_{ab=e} A_a ^ A_b, which regularity_residual leaves out."""
    cal = conn.calculus
    total = cal.zero_two_form()
    for i, row in enumerate(cal.cls.products):
        for j, g in enumerate(row):
            if g == 0:
                total = total + cal.wedge(conn.components[i], conn.components[j])
    return total


def test_levi_civita_residuals(cal_d6, lc_d6):
    assert all(t.is_zero() for t in torsion_residual(lc_d6))
    assert all(t.is_zero() for t in cotorsion_residual(lc_d6))
    assert is_regular(lc_d6)
    assert all(w.is_zero() for w in regularity_residual(lc_d6).values())
    assert _identity_bucket(lc_d6).is_zero()


def test_levi_civita_singular_metric(cls_d6):
    with pytest.raises(SingularMetricError, match="-1/3"):
        geometry_reports.connection_report(Geometry(cls_d6, Fraction(-1, 3)))
    # mu = -1/4 is singular for the 4-member class of A4, but the chart
    # check comes first
    a4 = conjugacy_class(alternating4(), "1203")
    with pytest.raises(UnsupportedGroupError, match="connection chart requires"):
        geometry_reports.connection_report(Geometry(a4, Fraction(-1, 4)))


def test_generic_chart_member_is_not_regular(cal_d6):
    conn = _const_chart(cal_d6, -1, 0, 0)
    assert not is_regular(conn)
    res = regularity_residual(conn)
    assert any(not w.is_zero() for w in res.values())
    # residuals are indexed by products of class members: the two off-class
    # rotations; e, from the involutive diagonal, is not a regularity bucket
    labels = {cal_d6.group.label(g) for g in res}
    assert labels == {"r2", "r4"}
    assert not _identity_bucket(conn).is_zero()


def test_constant_regular_scan_unique(scan_d6):
    third = Fraction(-1, 3)
    assert scan_d6 == [(third, third, third)]


def test_scan_hit_is_levi_civita(cal_d6, scan_d6, lc_d6):
    a, b, c = scan_d6[0]
    assert _const_chart(cal_d6, a, b, c) == lc_d6


def test_s3_levi_civita(s3_cal):
    lc = levi_civita(s3_cal)
    third = Fraction(1, 3)
    for pos in range(3):
        assert lc.components[pos] == s3_cal.basis_one_form(pos) - s3_cal.theta * third
    assert all(t.is_zero() for t in torsion_residual(lc))
    assert all(t.is_zero() for t in cotorsion_residual(lc))
    assert is_regular(lc)


def test_s3_scan_matches(s3_cal):
    third = Fraction(-1, 3)
    assert regular_constants(s3_cal) == [(third, third, third)]


def _sympy_scan(cal):
    """The regularity scan derived symbolically: every off-class,
    off-identity product bucket of the chart in constants (a, b, -1-a-b),
    expanded and handed to sympy.solve.  The oracle for the scan that
    levi_civita runs."""
    sympy = pytest.importorskip("sympy")
    cls, grp = cal.cls, cal.group
    a, b = sympy.symbols("a b")
    c = -1 - a - b
    rows = [[1 + a, c, b], [c, 1 + b, a], [b, a, 1 + c]]
    buckets = {}
    for i, ai in enumerate(cls.members):
        for j, aj in enumerate(cls.members):
            g = grp.mul(ai, aj)
            if g in cls or g == 0:
                continue
            vec = buckets.setdefault(g, [sympy.Integer(0)] * cal.quotient_dim)
            for p in range(3):
                for q in range(3):
                    for k in range(cal.quotient_dim):
                        coeff = cal.reduction[(p, q)][k].as_fraction()
                        vec[k] += rows[i][p] * rows[j][q] * sympy.Rational(
                            coeff.numerator, coeff.denominator)
    equations = [sympy.expand(e) for vec in buckets.values() for e in vec]
    out = []
    for sol in sympy.solve(equations, [a, b], dict=True):
        va, vb = Fraction(str(sol[a])), Fraction(str(sol[b]))
        out.append((va, vb, -1 - va - vb))
    return sorted(out)


def test_scan_matches_sympy_oracle(oracle_cal):
    assert regular_constants(oracle_cal) == _sympy_scan(oracle_cal)


def test_dicyclic_scan_matches_sympy_oracle(cal_dic3):
    grp = cal_dic3.group
    # the diagonal bucket c^2 is off the class and not the identity here
    assert all(grp.mul(c, c) not in cal_dic3.cls and grp.mul(c, c) != 0
               for c in cal_dic3.cls.members)
    third = Fraction(-1, 3)
    assert regular_constants(cal_dic3) == _sympy_scan(cal_dic3) == [
        (third, third, third)]


def test_scan_rejects_non_affine_residual(monkeypatch):
    original = connections.regularity_residual

    def with_square(conn):
        out = original(conn)
        alpha = conn.parameters[0](0)
        g = next(iter(out))
        out[g] = out[g] + conn.calculus.d_basis(0) * (alpha * alpha)
        return out

    monkeypatch.setattr(connections, "regularity_residual", with_square)
    # a fresh calculus: levi_civita answers a derived one from its memo
    cal = differential_calculus(conjugacy_class(dihedral(6), "sr"))
    with pytest.raises(GroupGeoError, match="not affine"):
        levi_civita(cal)


@pytest.mark.parametrize("value,error,match", [
    (0, GroupGeoError, "positive-dimensional"),
    (1, InfeasibleSystemError, "no constant chart member is regular"),
], ids=["every-member-regular", "no-member-regular"])
def test_scan_requires_exactly_one_regular_member(monkeypatch, value, error, match):
    # a residual that does not move with the chart constants: zero at every
    # member, or nonzero at every member
    def constant_residual(conn):
        return {1: conn.calculus.d_basis(0) * rat(value)}

    monkeypatch.setattr(connections, "regularity_residual", constant_residual)
    cal = differential_calculus(conjugacy_class(dihedral(6), "sr"))
    with pytest.raises(error, match=match):
        levi_civita(cal)


def test_report_all_derives_the_connection_once(monkeypatch):
    calls = []
    original = connections.regularity_residual

    def counted(conn):
        calls.append(conn)
        return original(conn)

    monkeypatch.setattr(connections, "regularity_residual", counted)
    reporting.full_report(Geometry(conjugacy_class(dihedral(6), "sr")))
    # six scan points and one proof, though four sections read levi_civita
    assert len(calls) == 7


def test_levi_civita_memo_dies_with_its_calculus():
    cal = differential_calculus(conjugacy_class(dihedral(6), "sr"))
    conn = levi_civita(cal)
    assert levi_civita(cal) is conn
    dropped = weakref.ref(cal)
    # the memo lives on the calculus, not in a process-wide cache
    del cal, conn
    gc.collect()
    assert dropped() is None


def test_connection_command_never_imports_sympy():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    script = ("import sys\n"
              "from groupgeo.cli import main\n"
              "code = main(['--group', 'dihedral:3', '--class', 'sr',"
              " '--cmd', 'connection'])\n"
              "assert code == 0, code\n"
              "assert 'sympy' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# -- left-invariant work does not grow with the group ------------------------

@contextlib.contextmanager
def _counting_scalars():
    """Count the Cyclotomic scalars allocated inside the block; each comes
    from cyclotomic._new."""
    count = [0]
    new = cyclotomic._new

    def counted(cls):
        count[0] += 1
        return new(cls)

    with mock.patch.object(cyclotomic, "_new", counted):
        yield count


def _geometry_counts() -> list:
    """Scalars allocated by a first and a second levi_civita call on a fresh
    calculus of D3, D6 and D6 x Z2 (orders 6, 12 and 24).  Each calculus is
    built here, so no shared calculus is derived inside expanded_functions."""
    out = []
    for group in (dihedral(3), dihedral(6), direct_product_cyclic(dihedral(6), 2)):
        cal = differential_calculus(conjugacy_class(group, "sr"))
        with _counting_scalars() as first:
            levi_civita(cal)
        with _counting_scalars() as second:
            levi_civita(cal)
        out.append((first[0], second[0]))
    return out


def test_levi_civita_and_scan_arithmetic_is_independent_of_the_order():
    counts = _geometry_counts()
    # the scan and proof run once per calculus; a second call allocates none
    assert counts[0][0] > 0 and counts[0][1] == 0
    assert counts[0] == counts[1] == counts[2]


def test_the_order_check_sees_the_expanded_path():
    # the same counts with every function held as |G| values grow with |G|,
    # so the check above would fail on that path
    with expanded_functions():
        counts = _geometry_counts()
    assert counts[0] != counts[1] != counts[2]
