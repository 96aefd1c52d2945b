"""The ten acceptance gates, one test each, every assertion exact.

Run with -v for the one-line pass/fail verdict per criterion.  These tests
deliberately repeat a few checks from the per-module suites so that each
criterion is self-contained and readable on its own.
"""

import json
import os
import random
from fractions import Fraction

from groupgeo.calculus import braiding
from groupgeo.cli import main
from groupgeo.connections import levi_civita, torsion_residual
from groupgeo.curvature import (
    covariant_derivative,
    curvature_forms,
    lift,
    relative_curvature,
    wedge_of_tensor,
)
from groupgeo.cyclotomic import rat
from groupgeo.catalogs import wave_eigenmode_catalog
from groupgeo.dirac import chirality, dirac_operator, spectral_action, wave_operator
from groupgeo.linalg import Mat, assemble
from groupgeo.geometry_reports import calculus_report
from groupgeo.reporting import Geometry
from groupgeo.representations import irreducibles
from groupgeo.spectra import certify_blocks, spectrum
from oracles import (Field, class_translation_sum, constant_fields, d_function, dense_vector,
                     grading_on_group, planar1, to_complex, torsion_family_members,
                     torsion_system, translation_block)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def test_criterion_01_two_form_relations_and_braiding_oracle(cal_d6, cls_d6):
    # oracle: walk the braiding permutation on the 9 index pairs by hand
    m = cls_d6.size
    todo = {(i, j) for i in range(m) for j in range(m)}
    cycle_count = 0
    while todo:
        start = min(todo)
        todo.remove(start)
        cur = braiding(cls_d6, *start)
        while cur != start:
            todo.remove(cur)
            cur = braiding(cls_d6, *cur)
        cycle_count += 1
    assert cycle_count == 5
    assert cal_d6.relation_dim == 5
    assert cal_d6.quotient_dim == 4
    # the documented dimension claim of 6 disagrees with the computation;
    # the report carries the discrepancy instead of hiding it
    disc = calculus_report(Geometry(cls_d6))["dimension_discrepancy"]
    assert disc == {"documented_claim": 6, "computed": 4, "agrees": False}


def test_criterion_02_maurer_cartan_and_function_differentials(cal_d6):
    theta = cal_d6.theta
    for pos in range(3):
        e_a = cal_d6.basis_one_form(pos)
        mc = cal_d6.wedge(theta, e_a) + cal_d6.wedge(e_a, theta)
        assert cal_d6.d_basis(pos) == mc
        assert cal_d6.d_one_form(e_a) == mc
    assert cal_d6.wedge(theta, theta).is_zero()
    assert cal_d6.d_one_form(theta).is_zero()
    # functions on the group by the oracle: d f = theta f - f theta
    rng = random.Random(20)
    theta_field = Field.constant(cal_d6.group, theta)
    for _ in range(20):
        f = tuple(rat(Fraction(rng.randint(-9, 9), rng.randint(1, 5))) for _ in range(12))
        commutator = theta_field.right_mul(f) - theta_field * f
        assert d_function(cal_d6, f) == commutator


def test_criterion_03_torsion_free_family_and_distinguished_connection(
        cal_d6, family_d6, scan_d6, lc_d6):
    particular, directions = family_d6
    kernel = torsion_family_members(cal_d6, directions)
    assert (len(directions), len(kernel)) == (2, 24)
    assert all(t.is_zero() for t in torsion_residual(particular))
    assert particular.sum_form().is_zero()
    # a member whose coefficients vary, checked on the dense torsion system
    rng = random.Random(6)
    comps = constant_fields(cal_d6.group, particular.components)
    for vec in rng.sample(kernel, 6):
        scale = rat(rng.randint(-3, 3))
        comps = [c + v * scale for c, v in zip(comps, vec)]
    matrix, rhs = torsion_system(cal_d6)
    assert matrix @ dense_vector(comps) == rhs
    assert sum(comps[1:], comps[0]).is_zero()
    assert scan_d6 == [(Fraction(-1, 3),) * 3]
    from groupgeo.connections import cotorsion_residual, is_regular
    assert all(t.is_zero() for t in cotorsion_residual(lc_d6))
    assert all(t.is_zero() for t in torsion_residual(lc_d6))
    assert is_regular(lc_d6)


def test_criterion_04_curvature_lifts_and_ricci_flatness(
        cal_d6, lc_d6, ricci_lc_d6, ricci_solve_d6):
    forms = curvature_forms(lc_d6)
    for pos in range(3):
        assert forms[pos] == cal_d6.d_basis(pos)
    assert all(g.is_zero() for g in relative_curvature(lc_d6))
    grid = [
        [Fraction(-2, 3), Fraction(1, 3), Fraction(1, 3)],
        [Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3)],
        [Fraction(1, 3), Fraction(-2, 3), Fraction(1, 3)],
    ]
    nabla = covariant_derivative(lc_d6, cal_d6.basis_one_form(0))
    for p in range(3):
        for q in range(3):
            assert nabla.coords[p][q] == rat(grid[p][q])
    from groupgeo.calculus import TwoForm
    for k in range(4):
        om = TwoForm(cal_d6, [rat(1 if i == k else 0) for i in range(4)])
        assert wedge_of_tensor(lift(om, "canonical")) == om
    for variant in ("canonical", "braided"):
        assert ricci_lc_d6[variant].is_zero()
        particular, kernel_dimension = ricci_solve_d6[variant]
        assert kernel_dimension == 0
        assert all(p == rat(Fraction(-1, 3)) for p in particular)


def test_criterion_05_dirac_spectrum_and_block_form(dirac0_d6, rep_d6, cls_d6):
    spect = spectrum(dirac0_d6)
    assert spect.pairs == ((rat(-3), 8), (rat(0), 8), (rat(3), 8))
    assert dirac0_d6 @ dirac0_d6 @ dirac0_d6 == dirac0_d6 * 9
    assert dirac0_d6.trace() == rat(0)
    assert (dirac0_d6 @ dirac0_d6).trace() == rat(144)
    assert dirac0_d6.conj_transpose() == dirac0_d6
    d0 = class_translation_sum(cls_d6)
    d1 = translation_block(rep_d6, cls_d6, 1, 0)
    d2 = translation_block(rep_d6, cls_d6, 0, 1)
    n = 12
    for i in range(24):
        for j in range(24):
            bi, bj = divmod(i, n)[0], divmod(j, n)[0]
            block = (-d0, d2, d1, -d0)[2 * bi + bj]
            assert dirac0_d6[i, j] == block[i % n, j % n]


def test_criterion_06_wave_operator_and_catalog_certification(
        wave0_d6, cls_d6):
    d0 = class_translation_sum(cls_d6)
    assert wave0_d6 == d0 * 2 - Mat.identity(12) * 6
    spect = spectrum(wave0_d6)
    assert spect.pairs == ((rat(-12), 2), (rat(-6), 8), (rat(0), 2))
    catalog = wave_eigenmode_catalog(Geometry(cls_d6), wave_operator(cls_d6), spect)
    nonzero = 0
    for fam in catalog["families"]:
        claimed = fam["claimed_eigenvalue"]
        for cand in fam["candidates"]:
            if cand["status"] == "zero_vector":
                continue
            nonzero += 1
            assert cand["status"] == "eigenmode"
            assert cand["eigenvalue"] == claimed
    assert nonzero == 10


def test_criterion_07_chirality_grading(d6, dirac0_coeffs_d6, dirac0_d6):
    # the grading built on the irreducible blocks, carried to G
    form = certify_blocks(dirac0_coeffs_d6, irreducibles(d6))
    g = grading_on_group(form, chirality(form))
    assert g @ g == Mat.identity(24)
    assert (g @ dirac0_d6 + dirac0_d6 @ g).is_zero()


def test_criterion_08_spectral_action_closed_form(dirac0_d6):
    spect = spectrum(dirac0_d6)
    rng = random.Random(88)
    polys = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
              for _ in range(rng.randint(1, 5))] for _ in range(12)]
    polys += [[1], [0, 1], [0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0, 1]]

    def value(coeffs, u):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * u + Fraction(c)
        return acc

    for coeffs in polys:
        for lam in (1, 3):
            u = Fraction(9, lam * lam)
            expect = 8 * value(coeffs, Fraction(0)) + 16 * value(coeffs, u)
            assert spectral_action(spect, coeffs, lam) == rat(expect)


def test_criterion_09_order_six_cross_check(s3_group, s3_cls, s3_cal, cls_d6):
    assert s3_cls.labels() == ("u", "v", "uvu")
    # same circulant product pattern as the order-12 class
    table = s3_cls.products
    d6_table = cls_d6.products
    for i in range(3):
        for j in range(3):
            same_d6 = [(a, b) for a in range(3) for b in range(3)
                       if d6_table[a][b] == d6_table[i][j]]
            same_s3 = [(a, b) for a in range(3) for b in range(3)
                       if table[a][b] == table[i][j]]
            assert same_d6 == same_s3
    lc = levi_civita(s3_cal)
    third = Fraction(1, 3)
    for pos in range(3):
        assert lc.components[pos] == s3_cal.basis_one_form(pos) - s3_cal.theta * third
    rep = planar1(s3_group)
    op = assemble(dirac_operator(rep, lc), s3_group)
    spect = spectrum(op)
    assert spect.pairs == ((rat(-3), 4), (rat(0), 4), (rat(3), 4))
    # the antecedent construction reports nonzero magnitude 1 for this
    # group; we report the computed magnitude and the agreement flag
    # instead of asserting the reference number
    reference_magnitude = 1
    computed_magnitudes = sorted({abs(to_complex(v).real) for v, _ in spect.pairs
                                  if not v.is_zero()})
    agreement = computed_magnitudes == [float(reference_magnitude)]
    print(f"order-6 check: computed nonzero magnitudes {computed_magnitudes}, "
          f"reference {reference_magnitude}, agreement {agreement}")
    assert computed_magnitudes == [3.0]
    assert agreement is False


def test_criterion_10_byte_identical_golden_report(tmp_path, capsys):
    golden = os.path.join(DATA_DIR, "golden_d6_report.json")
    fresh = tmp_path / "fresh.json"
    code = main(["--group", "dihedral:6", "--class", "sr", "--mu", "0",
                 "--cmd", "report-all", "--out", str(fresh)])
    capsys.readouterr()
    assert code == 0
    with open(golden, "rb") as fh:
        golden_bytes = fh.read()
    assert fresh.read_bytes() == golden_bytes
    # sanity: the golden file itself parses and pins the headline numbers
    report = json.loads(golden_bytes)
    assert report["dirac"]["spectrum"]["table"] == {"-3": 8, "0": 8, "3": 8}
    assert report["ricci"]["levi_civita"]["canonical"]["zero"] is True
