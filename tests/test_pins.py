"""Whole-pipeline pins on figures that do not depend on timing: the report
digests the benchmark records in ``perfbench/expected.json`` (read here,
never written), the number of cyclotomic scalars one D6 ``report-all``
allocates, the number of lift tables, Ricci maps and distinguished
connections it asks for, the number of representations each spinor
command builds, and the number of calculi each command builds."""

import hashlib
import json
import os

import pytest

from conftest import direct_product_cyclic
from groupgeo import calculus, connections, curvature, cyclotomic, reporting, representations
from groupgeo.cli import main
from groupgeo.groups import dihedral
from oracles import cayley_dict

EXPECTED = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "expected.json")
with open(EXPECTED, encoding="utf-8") as _fh:
    DIGESTS = json.load(_fh)["sha256"]


@pytest.fixture(scope="module")
def d6z2_table(tmp_path_factory):
    path = tmp_path_factory.mktemp("d6z2") / "d6z2.json"
    path.write_text(json.dumps(cayley_dict(direct_product_cyclic(dihedral(6), 2))))
    return str(path)


def _argv(key: str, d6z2_table: str) -> list[str]:
    """``d6z2:<cmd>`` runs on the natural D6 x Z2 table at mu = 0;
    ``dihedral:<n>:<cmd>@<mu>`` on the built-in dihedral group."""
    if key.startswith("d6z2:"):
        group, cmd, mu = ["--cayley", d6z2_table], key.split(":")[1], "0"
    else:
        _, n, rest = key.split(":")
        cmd, mu = rest.split("@")
        group = ["--group", f"dihedral:{n}"]
    return group + ["--class", "sr", f"--mu={mu}", "--cmd", cmd]


def test_digests_cover_the_spinor_sweep_and_the_d6z2_commands():
    assert len([k for k in DIGESTS if k.startswith("dihedral:")]) == 15
    assert len([k for k in DIGESTS if k.startswith("d6z2:")]) == 5


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_report_matches_the_recorded_digest(key, d6z2_table, tmp_path):
    out = tmp_path / "report.json"
    assert main(_argv(key, d6z2_table) + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[key]


# Scalars one in-process D6 report-all allocates, about a tenth above the
# measured count; every Cyclotomic the package builds comes from
# cyclotomic._new, so counting its calls counts them all.
D6_REPORT_ALL_SCALARS = 10_000


def test_d6_report_all_allocates_a_bounded_number_of_scalars(monkeypatch, tmp_path):
    count = 0
    new = cyclotomic._new

    def counted(cls):
        nonlocal count
        count += 1
        return new(cls)

    monkeypatch.setattr(cyclotomic, "_new", counted)
    argv = ["--group", "dihedral:6", "--class", "sr", "--cmd", "report-all"]
    assert main(argv + ["--out", str(tmp_path / "report.json")]) == 0
    # the hook sees the arithmetic, and the arithmetic stays under the ceiling
    assert 1000 < count <= D6_REPORT_ALL_SCALARS


def test_d6_report_all_builds_each_lift_table_once(monkeypatch, tmp_path):
    """Each lift variant's table is built once per calculus, on G, for the
    curvature and Ricci sections and the Ricci-flat system alike: two
    tables, and so is its Ricci map, for the Ricci tensor and the
    Ricci-flat system: two maps.  levi_civita is asked for by the
    connection, curvature, Ricci and Dirac sections, four calls."""
    tables, maps = [], []
    levi_civita_calls = 0
    lift_table = calculus._lift_table
    ricci_map = curvature.ricci_map
    levi_civita = connections.levi_civita

    def counted_table(cal, variant):
        tables.append((id(cal), variant))
        return lift_table(cal, variant)

    def counted_map(cal, variant):
        maps.append((id(cal), variant))
        return ricci_map(cal, variant)

    def counted_levi_civita(cal):
        nonlocal levi_civita_calls
        levi_civita_calls += 1
        return levi_civita(cal)

    monkeypatch.setattr(calculus, "_lift_table", counted_table)
    monkeypatch.setattr(curvature, "ricci_map", counted_map)
    monkeypatch.setattr(connections, "levi_civita", counted_levi_civita)
    argv = ["--group", "dihedral:6", "--class", "sr", "--cmd", "report-all"]
    assert main(argv + ["--out", str(tmp_path / "report.json")]) == 0
    for built in (tables, maps):
        assert len(built) == len(set(built)) == 2
        assert {variant for _, variant in built} == set(curvature.LIFT_VARIANTS)
    assert levi_civita_calls == 4


@pytest.mark.parametrize("group,cmd,mu,built", [
    ("dihedral:6", "dirac", "0", 6),
    ("dihedral:6", "spectral-action", "0", 6),
    ("dihedral:6", "report-all", "0", 6),
    ("dihedral:3", "dirac", "0", 3),
    ("dihedral:6", "wave", "0", 6),
    ("dihedral:6", "wave", "1", 0),
], ids=str)
def test_representations_built_per_command(monkeypatch, tmp_path, group, cmd, mu, built):
    """The run's Geometry builds the irreducibles once, on first read: the
    Dirac certificate takes the spinor from them and, at mu = 0, the wave
    catalog reads them, so a standalone wave report builds them at mu = 0
    only."""
    count = 0
    init = representations.Representation.__init__

    def counted(*args, **kwargs):
        nonlocal count
        count += 1
        init(*args, **kwargs)

    monkeypatch.setattr(representations.Representation, "__init__", counted)
    argv = ["--group", group, "--class", "sr", f"--mu={mu}", "--cmd", cmd]
    assert main(argv + ["--out", str(tmp_path / "report.json")]) == 0
    assert count == built


CALCULI_BUILT = {"calculus": 1, "connection": 1, "curvature": 1, "ricci": 1, "dirac": 1,
                 "wave": 0, "spectral-action": 1, "report-all": 1}


@pytest.mark.parametrize("mu", ["0", "1"])
@pytest.mark.parametrize("cmd", sorted(CALCULI_BUILT))
def test_calculi_built_per_command(monkeypatch, tmp_path, cmd, mu):
    """Each run builds one Geometry, which builds the calculus of G once for
    every section that reads it, the Ricci-flat system included, and the
    wave report reads the class alone."""
    built = {"Geometry": 0, "Calculus": 0}

    def counted(owner):
        init = owner.__init__

        def call(*args, **kwargs):
            built[owner.__name__] += 1
            init(*args, **kwargs)

        monkeypatch.setattr(owner, "__init__", call)

    counted(reporting.Geometry)
    counted(calculus.Calculus)
    argv = ["--group", "dihedral:6", "--class", "sr", f"--mu={mu}", "--cmd", cmd]
    assert main(argv + ["--out", str(tmp_path / "report.json")]) == 0
    assert built == {"Geometry": 1, "Calculus": CALCULI_BUILT[cmd]}
