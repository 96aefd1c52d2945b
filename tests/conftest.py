"""Shared fixtures.

Everything expensive (kernel solves, parameter scans, spectra) is computed
once per session and reused across test modules, including the acceptance
suite.  All fixtures return exact objects; nothing here touches floats.
"""

import os
import random
from fractions import Fraction

import pytest

from groupgeo.calculus import differential_calculus
from groupgeo.connections import (
    constant_regular_scan,
    levi_civita,
    torsion_free_family,
)
from groupgeo.curvature import ricci, ricci_flat_solve
from groupgeo.dirac import dirac_operator, wave_operator
from groupgeo.groups import FiniteGroup, conjugacy_class, dihedral
from groupgeo.representations import builtin_rep

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture(scope="session")
def d6():
    return dihedral(6)


@pytest.fixture(scope="session")
def cls_d6(d6):
    return conjugacy_class(d6, "sr")


@pytest.fixture(scope="session")
def cal_d6(cls_d6):
    return differential_calculus(cls_d6)


@pytest.fixture(scope="session")
def lc_d6(cal_d6):
    return levi_civita(cal_d6)


@pytest.fixture(scope="session")
def rep_d6(d6):
    return builtin_rep(d6, "spinor")


@pytest.fixture(scope="session")
def family_d6(cal_d6):
    return torsion_free_family(cal_d6)


@pytest.fixture(scope="session")
def scan_d6(cal_d6):
    return constant_regular_scan(cal_d6)


@pytest.fixture(scope="session")
def ricci_lc_d6(cal_d6, lc_d6):
    return {v: ricci(lc_d6, variant=v) for v in ("canonical", "braided")}


@pytest.fixture(scope="session")
def ricci_solve_d6(cal_d6):
    return {v: ricci_flat_solve(cal_d6, variant=v) for v in ("canonical", "braided")}


@pytest.fixture(scope="session")
def dirac0_d6(rep_d6, lc_d6, cls_d6):
    return dirac_operator(rep_d6, lc_d6, cls_d6)


@pytest.fixture(scope="session")
def dirac1_d6(rep_d6, lc_d6, cls_d6):
    return dirac_operator(rep_d6, lc_d6, cls_d6, mu=Fraction(1))


@pytest.fixture(scope="session")
def wave0_d6(cls_d6):
    return wave_operator(cls_d6)


@pytest.fixture(scope="session")
def s3_path():
    return os.path.join(DATA_DIR, "s3_cayley.json")


@pytest.fixture(scope="session")
def s3_group(s3_path):
    return FiniteGroup.from_json_file(s3_path)


@pytest.fixture(scope="session")
def s3_cls(s3_group):
    return conjugacy_class(s3_group, "u")


@pytest.fixture(scope="session")
def s3_cal(s3_cls):
    return differential_calculus(s3_cls)


def relabelled(group, seed):
    """The same group with its non-identity elements renumbered by a seeded
    shuffle; each name moves with its element."""
    n = group.order
    perm = [0] + random.Random(seed).sample(range(1, n), n - 1)
    names = [None] * n
    for old, new in enumerate(perm):
        names[new] = group.names[old]
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[group.mul(a, b)]
    return FiniteGroup(names, table, name=f"{group.name}-relabelled")


@pytest.fixture(scope="session")
def cal_d3():
    return differential_calculus(conjugacy_class(dihedral(3), "sr"))


@pytest.fixture(scope="session")
def cal_d6_relabelled(d6):
    return differential_calculus(conjugacy_class(relabelled(d6, 12), "sr"))


@pytest.fixture(params=["cal_d3", "cal_d6", "s3_cal", "cal_d6_relabelled"])
def oracle_cal(request):
    """Calculi on which each structured solve is checked against its dense
    oracle: D3, D6, the S3 table and a relabelled D6 table."""
    return request.getfixturevalue(request.param)
