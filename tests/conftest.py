"""Shared fixtures.

Everything expensive (kernel solves, parameter scans, spectra) is computed
once per session and reused across test modules, including the acceptance
suite.  All fixtures return exact objects; nothing here touches floats.
"""

import contextlib
import itertools
import os
import random
import signal
from fractions import Fraction

import pytest

from groupgeo.calculus import differential_calculus
from groupgeo.connections import levi_civita, torsion_free_family
from groupgeo.curvature import ricci, ricci_flat_solve
from groupgeo.dirac import dirac_operator, wave_operator
from groupgeo.groups import FiniteGroup, conjugacy_class, dihedral
from groupgeo.linalg import assemble
from oracles import fraction, planar1

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

# wall seconds after which a test fails instead of stalling the suite; the
# slowest test takes a few seconds
DEADLINE_S = 60


@contextlib.contextmanager
def _bounded(what: str):
    """Fail what runs past DEADLINE_S seconds, from SIGALRM of the
    real-time interval timer, and afterwards restore the previous handler
    and the previous timer, less the time spent here.  A platform without
    setitimer runs it unbounded."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expired(signum, frame):
        pytest.fail(f"{what} ran past its deadline of {DEADLINE_S} s")

    previous = signal.signal(signal.SIGALRM, expired)
    delay, interval = signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        yield
    finally:
        left, _ = signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if delay:
            signal.setitimer(signal.ITIMER_REAL, max(delay - (DEADLINE_S - left), 1e-3),
                             interval)


@pytest.fixture(autouse=True)
def deadline():
    """Fail a test that runs past DEADLINE_S seconds."""
    with _bounded("the test"):
        yield


@pytest.hookimpl(wrapper=True)
def pytest_fixture_setup(fixturedef, request):
    """Bound the setup of every fixture by DEADLINE_S seconds as well: a
    session fixture is set up before the test's deadline is armed."""
    if fixturedef.argname == "deadline":
        return (yield)
    with _bounded(f"the setup of fixture {fixturedef.argname}"):
        return (yield)


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
    return planar1(d6)


@pytest.fixture(scope="session")
def family_d6(cal_d6):
    return torsion_free_family(cal_d6)


def regular_constants(cal):
    """levi_civita's chart parameters (alpha, beta, gamma), as the one-hit
    list the connection report prints under constant_regular_scan."""
    return [tuple(fraction(p) for p in levi_civita(cal).parameters)]


@pytest.fixture(scope="session")
def scan_d6(cal_d6):
    return regular_constants(cal_d6)


@pytest.fixture(scope="session")
def ricci_lc_d6(cal_d6, lc_d6):
    return ricci(lc_d6)


@pytest.fixture(scope="session")
def ricci_solve_d6(cal_d6):
    return ricci_flat_solve(cal_d6)


@pytest.fixture(scope="session")
def dirac0_coeffs_d6(rep_d6, lc_d6):
    return dirac_operator(rep_d6, lc_d6)


@pytest.fixture(scope="session")
def dirac0_d6(d6, dirac0_coeffs_d6):
    return assemble(dirac0_coeffs_d6, d6)


@pytest.fixture(scope="session")
def dirac1_d6(d6, rep_d6, lc_d6):
    return assemble(dirac_operator(rep_d6, lc_d6, mu=Fraction(1)), d6)


@pytest.fixture(scope="session")
def wave0_coeffs_d6(cls_d6):
    return wave_operator(cls_d6)


@pytest.fixture(scope="session")
def wave0_d6(d6, wave0_coeffs_d6):
    return assemble(wave0_coeffs_d6, d6)


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


def direct_product_cyclic(group, m):
    """group x Z_m with z generating Z_m: the elements of group first (same
    names), then their products with z^k for k = 1 .. m-1, named
    f"{name}.z" for k = 1 and f"{name}.z{k}" after ("z", "z2", ... for the
    powers of z itself)."""
    n = group.order

    def name(a, k):
        power = "z" if k == 1 else f"z{k}"
        return a if k == 0 else power if a == "e" else f"{a}.{power}"

    names = [name(a, k) for k in range(m) for a in group.names]
    table = [[((x // n + y // n) % m) * n + group.mul(x % n, y % n)
              for y in range(m * n)] for x in range(m * n)]
    return FiniteGroup(names, table, name=f"{group.name}xZ{m}")


@pytest.fixture(scope="session")
def cls_d6z2(d6):
    """The class of sr in D6 x Z2 (order 24), where H = <C> has index 4."""
    return conjugacy_class(direct_product_cyclic(d6, 2), "sr")


def dicyclic3():
    """The dicyclic group of order 12 from x^2 = a^3, x a x^-1 = a^-1; the
    element a^i x^j is named f"a{i}x{j}" and sits at index 6*j + i."""
    def mul(p, q):
        (j, i), (l, k) = divmod(p, 6), divmod(q, 6)
        # x^j a^k = a^(+-k) x^j, and x^2 = a^3
        rot = i + (-k if j else k) + (3 if j + l == 2 else 0)
        return ((j + l) % 2) * 6 + rot % 6

    names = [f"a{i}x{j}" for j in range(2) for i in range(6)]
    table = [[mul(p, q) for q in range(12)] for p in range(12)]
    return FiniteGroup(names, table, name="dicyclic:3")


def alternating4():
    """The alternating group A4 as even permutations of 0..3 in ascending
    order, each named by its images, e.g. "1203"; composition (a b)(i) =
    a(b(i))."""
    perms = sorted(p for p in itertools.permutations(range(4))
                   if sum(p[j] > p[i] for i in range(4) for j in range(i)) % 2 == 0)
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(a[b[i]] for i in range(4))] for b in perms] for a in perms]
    return FiniteGroup(["".join(map(str, p)) for p in perms], table, name="A4")


def affine_group(p):
    """AGL(1, p) for a prime p: the maps x -> a x + b over Z/p, a != 0, named
    f"{a}x+{b}", the identity first and then (a, b) ascending; composition
    (f g)(x) = f(g(x)).  The class of x -> g x, for g a generator of
    (Z/p)^x, has p members and is cyclic."""
    maps = [(1, 0)] + [(a, b) for a in range(1, p) for b in range(p) if (a, b) != (1, 0)]
    index = {f: i for i, f in enumerate(maps)}
    table = [[index[(a * c % p, (a * d + b) % p)] for c, d in maps] for a, b in maps]
    return FiniteGroup([f"{a}x+{b}" for a, b in maps], table, name=f"affine:{p}")


@pytest.fixture(scope="session", params=["a0x1", "a1x1"])
def cal_dic3(request):
    """Both 3-member classes of the dicyclic group of order 12; the square
    of a member is the central a^3, not the identity."""
    return differential_calculus(conjugacy_class(dicyclic3(), request.param))


@pytest.fixture(scope="session")
def cal_a4():
    """The 4-member class of A4: off the chart, where the torsion solve
    still runs."""
    return differential_calculus(conjugacy_class(alternating4(), "1203"))


ORACLE_CALS = ["cal_d3", "cal_d6", "s3_cal", "cal_d6_relabelled"]


@pytest.fixture(params=ORACLE_CALS)
def oracle_cal(request):
    """Calculi on which each structured solve is checked against its dense
    oracle: D3, D6, the S3 table and a relabelled D6 table."""
    return request.getfixturevalue(request.param)
