"""Command line behaviour: exit codes, determinism, serialization."""

import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import dicyclic3, direct_product_cyclic, relabelled
from groupgeo import cli, connections, reporting
from groupgeo.calculus import differential_calculus
from groupgeo.cli import main, parse_group_spec, render
from groupgeo.errors import UnsupportedGroupError
from groupgeo.groups import conjugacy_class, dihedral
from oracles import cayley_dict, expanded_functions, mpmath_rational_decimal


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_calculus_command_to_stdout(capsys):
    code, out, err = _run(capsys, "--group", "dihedral:6", "--class", "sr",
                          "--cmd", "calculus")
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert report["relation_dimension"] == 5
    assert report["two_form_dimension"] == 4
    assert report["dimension_discrepancy"] == {
        "agrees": False, "computed": 4, "documented_claim": 6}
    assert report["class"]["members"] == ["sr", "sr3", "sr5"]


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = _run(capsys, "--group", "dihedral:6", "--class", "sr",
                        "--cmd", "calculus", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["relation_dimension"] == 5


def test_identical_invocations_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = _run(capsys, "--group", "dihedral:6", "--class", "sr",
                          "--cmd", "connection", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_pretty_output_parses_to_same_object(capsys):
    _, compact, _ = _run(capsys, "--group", "dihedral:6", "--class", "sr",
                         "--cmd", "calculus")
    _, pretty, _ = _run(capsys, "--group", "dihedral:6", "--class", "sr",
                        "--cmd", "calculus", "--pretty")
    assert pretty != compact
    assert "\n  " in pretty
    assert json.loads(pretty) == json.loads(compact)


def test_usage_errors_exit_2(capsys):
    code, _, err = _run(capsys, "--group", "dihedral6", "--class", "sr",
                        "--cmd", "calculus")
    assert code == 2
    assert "name:param" in err
    code, _, err = _run(capsys, "--group", "dihedral:x", "--class", "sr",
                        "--cmd", "calculus")
    assert code == 2
    code, _, err = _run(capsys, "--group", "dihedral:6", "--class", "sr",
                        "--mu", "abc", "--cmd", "calculus")
    assert code == 2
    assert "--mu" in err


def test_missing_required_arguments_exit_2(capsys):
    assert main(["--group", "dihedral:6"]) == 2
    capsys.readouterr()


def test_negative_mu_needs_equals_form(capsys):
    # "--mu -1/3" reads as a flag; the documented spelling is --mu=-1/3
    code, _, _ = _run(capsys, "--group", "dihedral:6", "--class", "sr",
                      "--mu", "-1/3", "--cmd", "connection")
    assert code == 2
    code, _, err = _run(capsys, "--group", "dihedral:6", "--class", "sr",
                        "--mu=-1/3", "--cmd", "connection")
    assert code == 4
    assert "error(precondition)" in err


@pytest.mark.parametrize("mu", ["1e5", "2.5e-3", "inf", "nan", "1/0", " 1/3", "5."])
def test_mu_outside_plain_rational_syntax_exits_2(capsys, mu):
    code, _, err = _run(capsys, "--group", "dihedral:6", "--class", "sr",
                        f"--mu={mu}", "--cmd", "calculus")
    assert code == 2
    assert err.startswith("error(usage): --mu must be a rational")


@pytest.mark.parametrize("mu", ["0", "-2", "+1/3", "0.25", "-.5", "12/8"])
def test_plain_rational_mu_accepted(capsys, mu):
    code, _, err = _run(capsys, "--group", "dihedral:6", "--class", "sr",
                        f"--mu={mu}", "--cmd", "calculus")
    assert (code, err) == (0, "")


def test_mu_exponent_refused_before_expansion(monkeypatch, capsys):
    # Fraction would build a 10^9-digit integer; it must never see the text,
    # and the refusal comes before the group is built
    def unreachable(*_args):
        raise AssertionError("Fraction or the group builder ran")
    monkeypatch.setattr(cli, "Fraction", unreachable)
    monkeypatch.setattr(cli, "dihedral", unreachable)
    code, _, err = _run(capsys, "--group", "dihedral:256", "--class", "sr",
                        "--mu=1e999999999", "--cmd", "calculus")
    assert code == 2
    assert "--mu" in err


def _forbid(monkeypatch, *names):
    def unreachable(*_args, **_kwargs):
        raise AssertionError("called after the input should have been rejected")
    for name in names:
        monkeypatch.setattr(reporting, name, unreachable)


def test_singular_mu_rejected_before_torsion_solve(monkeypatch, capsys):
    _forbid(monkeypatch, "torsion_free_family")
    code, _, err = _run(capsys, "--group", "dihedral:6", "--class", "sr",
                        "--mu=-1/3", "--cmd", "connection")
    assert code == 4
    # the one singular-metric check, with the text the wave command gives
    assert err == ("error(precondition): metric modulus mu = -1/3 is singular "
                   "for a class of size 3\n")


def test_connection_command_proves_each_residual_once(monkeypatch, capsys):
    # levi_civita proves the three residuals; the report states its result
    calls = {}

    def spy(name):
        real = getattr(connections, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)
        return counted

    for name in ("torsion_residual", "cotorsion_residual", "is_regular"):
        monkeypatch.setattr(connections, name, spy(name))
    code, out, _ = _run(capsys, "--group", "dihedral:6", "--class", "sr",
                        "--mu=1/2", "--cmd", "connection")
    assert code == 0
    assert calls == {"torsion_residual": 1, "cotorsion_residual": 1, "is_regular": 1}
    lc = json.loads(out)["levi_civita"]
    assert (lc["torsion_residual_zero"], lc["cotorsion_residual_zero"], lc["regular"]) == (
        True, True, True)


REPORT_BUILDERS = ("calculus_report", "connection_report", "curvature_report",
                   "ricci_report", "dirac_report", "wave_report",
                   "spectral_action_report", "full_report")


def test_out_into_missing_directory_exits_2(tmp_path, monkeypatch, capsys):
    _forbid(monkeypatch, *REPORT_BUILDERS)
    target = tmp_path / "missing" / "r.json"
    code, out, err = _run(capsys, "--group", "dihedral:6", "--class", "sr",
                          "--cmd", "calculus", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error(usage):")
    assert "Traceback" not in err
    assert not target.parent.exists()


def test_out_naming_a_directory_exits_2(tmp_path, monkeypatch, capsys):
    _forbid(monkeypatch, *REPORT_BUILDERS)
    code, out, err = _run(capsys, "--group", "dihedral:6", "--class", "sr",
                          "--cmd", "calculus", "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error(usage):")
    assert "directory" in err


def test_unwritable_out_exits_2(tmp_path, monkeypatch, capsys):
    def refuse(*_args, **_kwargs):
        raise PermissionError(13, "Permission denied")
    monkeypatch.setattr(cli, "open", refuse, raising=False)
    target = tmp_path / "r.json"
    code, out, err = _run(capsys, "--group", "dihedral:6", "--class", "sr",
                          "--cmd", "calculus", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error(usage): cannot write --out")
    assert "Traceback" not in err
    assert not target.exists()


def test_unknown_family_exits_3(capsys):
    code, _, err = _run(capsys, "--group", "cyclic:5", "--class", "a",
                        "--cmd", "calculus")
    assert code == 3
    assert "no builtin group family" in err


def test_unknown_class_label_exits_3(capsys):
    code, _, err = _run(capsys, "--group", "dihedral:6", "--class", "q",
                        "--cmd", "calculus")
    assert code == 3
    assert "no element named" in err


def test_inadmissible_classes_exit_3(capsys):
    for label, fragment in (("r", "not cyclic"), ("e", "identity")):
        code, _, err = _run(capsys, "--group", "dihedral:6", "--class", label,
                            "--cmd", "calculus")
        assert code == 3
        assert fragment in err


def test_inadmissible_class_rejected_for_wave_too(capsys):
    code, _, _ = _run(capsys, "--group", "dihedral:6", "--class", "r",
                      "--cmd", "wave")
    assert code == 3


def test_missing_cayley_file_exits_3(tmp_path, capsys):
    code, _, err = _run(capsys, "--cayley", str(tmp_path / "nope.json"),
                        "--class", "u", "--cmd", "calculus")
    assert code == 3
    assert "cannot read" in err


@pytest.mark.parametrize("content, fragment", [
    pytest.param(json.dumps({"names": ["e", "a"], "table": [[0, 1], [1, 1]]}).encode(),
                 "invertibility", id="latin-square"),
    pytest.param(b'{"names": ["e", "a"], "table": [[0, 1], [1, 0]]}\xff',
                 "cannot read", id="not-utf8"),
    pytest.param(b"[" * 100_000 + b"]" * 100_000, "cannot read", id="deep-nesting"),
    pytest.param(json.dumps({"names": ["e", "a"], "table": 5}).encode(),
                 "must be lists", id="table-not-list"),
    pytest.param(json.dumps({"names": "ea", "table": [[0, 1], [1, 0]]}).encode(),
                 "must be lists", id="names-string"),
    pytest.param(json.dumps({"names": ["e", "a"], "table": [[0, 1], 5]}).encode(),
                 "row must be a list", id="row-not-list"),
    pytest.param(json.dumps({"names": ["e", "a"],
                             "table": [[False, True], [True, False]]}).encode(),
                 "not an element index", id="bool-entries"),
])
def test_invalid_cayley_table_exits_3(tmp_path, capsys, content, fragment):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, _, err = _run(capsys, "--cayley", str(bad), "--class", "a",
                        "--cmd", "calculus")
    assert code == 3
    assert err.startswith("error(validation)")
    assert fragment in err


def test_cayley_group_end_to_end(s3_path, capsys):
    code, out, _ = _run(capsys, "--cayley", s3_path, "--class", "u",
                        "--cmd", "dirac")
    assert code == 0
    report = json.loads(out)
    assert report["spectrum"]["table"] == {"-3": 4, "0": 4, "3": 4}
    assert report["hermitian"] is True
    assert report["trace_of_square"] == {"num": 72, "den": 1, "decimal": "72.0"}


def test_wave_command(capsys):
    code, out, _ = _run(capsys, "--group", "dihedral:6", "--class", "sr",
                        "--cmd", "wave")
    assert code == 0
    report = json.loads(out)
    assert report["spectrum"]["table"] == {"-12": 2, "-6": 8, "0": 2}
    assert report["translation_form"] is True


def test_spectral_action_command(capsys):
    code, out, _ = _run(capsys, "--group", "dihedral:6", "--class", "sr",
                        "--cmd", "spectral-action")
    assert code == 0
    report = json.loads(out)
    values = [e["value"]["num"] for e in report["battery"]]
    assert values == [24, 24, 144, 16, 1296, 16, 2958, 14]


def test_exact_scalar_serialization(capsys):
    code, out, _ = _run(capsys, "--group", "dihedral:6", "--class", "sr",
                        "--cmd", "dirac")
    assert code == 0
    report = json.loads(out)
    entry = report["gamma"]["sr"][1][0]  # rho(sr) lower left is a sixth root
    assert entry["zeta_order"] == 6
    assert entry["coeffs"] == [[0, 1], [1, 1]]
    assert entry["decimal"].startswith("0.5 + 0.8660")
    diag = report["gamma"]["sr"][0][0]
    assert diag == {"num": -1, "den": 1, "decimal": "-1.0"}


def test_incomplete_spectrum_exits_4(tmp_path, capsys):
    # a valid table and class whose members square to a^3, not to e: the
    # wave operator has eigenvalues outside Q, so no spectrum is certified
    path = tmp_path / "dic3.json"
    path.write_text(json.dumps(cayley_dict(dicyclic3())))
    code, out, err = _run(capsys, "--cayley", str(path), "--class", "a0x1",
                          "--cmd", "wave")
    assert code == 4
    assert out == ""
    assert err.startswith("error(precondition): minimal polynomial "
                          "x^5 + 18*x^4 + 108*x^3 + 648*x^2 + 2592*x "
                          "does not split into rational linear factors")


@pytest.mark.parametrize("cmd", ["dirac", "spectral-action"])
def test_singular_casimir_modulus_exits_4(capsys, cmd):
    code, out, err = _run(capsys, "--group", "dihedral:6", "--class", "sr",
                          "--cmd", cmd, "--mu=-1/4")
    assert code == 4
    assert out == ""
    assert err.startswith("error(precondition):")
    assert "1 + 4 mu" in err


def test_singular_metric_modulus_on_wave_exits_4(capsys):
    code, out, err = _run(capsys, "--group", "dihedral:6", "--class", "sr",
                          "--cmd", "wave", "--mu=-1/3")
    assert code == 4
    assert out == ""
    assert err.startswith("error(precondition): metric modulus mu = -1/3 is singular")


@pytest.mark.parametrize("cmd, mu", [("dirac", "-0.24" + "9" * 400),
                                     ("wave", "-0.33" + "3" * 400)], ids=["dirac", "wave"])
def test_eigenvalues_beyond_float_range_are_ordered_exactly(capsys, cmd, mu):
    # near the singular moduli the eigenvalues overflow a float
    code, out, err = _run(capsys, "--group", "dihedral:3", "--class", "sr",
                          "--cmd", cmd, f"--mu={mu}")
    assert (code, err) == (0, "")
    values = [e["value"] for e in json.loads(out)["spectrum"]["pairs"]]
    fractions = [Fraction(v["num"], v["den"]) for v in values]
    assert fractions == sorted(fractions)
    assert max(abs(f) for f in fractions) > 10 ** 400


def test_report_integers_past_the_int_str_digit_limit_render(capsys):
    # near mu = -1/3 the spectral action holds integers of more than 4300
    # digits, Python's default cap for int <-> str; main lifts it for the
    # run and restores it afterwards
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = _run(capsys, "--group", "dihedral:3", "--class", "sr",
                          "--cmd", "spectral-action", "--mu=-0." + "3" * 1200)
    assert (code, err) == (0, "")
    assert max(len(digits) for digits in re.findall(r"\d+", out)) > 4300
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_mu_over_the_length_cap_exits_2_before_parsing(monkeypatch, capsys):
    def unreachable(_text):
        raise AssertionError("parsed a --mu over the cap")
    monkeypatch.setattr(cli, "_parse_mu", unreachable)
    mu = "-0." + "3" * (cli.MAX_MU_LENGTH - 2)
    code, out, err = _run(capsys, "--group", "dihedral:3", "--class", "sr",
                          "--cmd", "calculus", f"--mu={mu}")
    assert code == 2
    assert out == ""
    assert err.startswith("error(usage): --mu has")
    assert str(cli.MAX_MU_LENGTH) in err


def test_dihedral_over_the_cap_exits_2_before_building(monkeypatch, capsys):
    def unreachable(_n):
        raise AssertionError("built a group over the cap")
    monkeypatch.setattr(cli, "dihedral", unreachable)
    code, out, err = _run(capsys, "--group", f"dihedral:{cli.MAX_DIHEDRAL + 1}",
                          "--class", "sr", "--cmd", "calculus")
    assert code == 2
    assert out == ""
    assert err.startswith("error(usage):")
    assert str(cli.MAX_DIHEDRAL) in err
    with pytest.raises(ValueError, match="exceeds the limit"):
        parse_group_spec("dihedral:100000")


def test_parse_group_spec_direct():
    assert parse_group_spec("dihedral:3").order == 6
    with pytest.raises(ValueError, match="positive"):
        parse_group_spec("dihedral:0")
    with pytest.raises(UnsupportedGroupError):
        parse_group_spec("sporadic:1")


def test_render_is_sorted_and_newline_terminated():
    text = render({"b": 1, "a": 2}, pretty=False)
    assert text == '{"a":2,"b":1}\n'
    assert render({"a": [1, 2]}, pretty=True).endswith("\n")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "--cayley" in out


_GEOMETRY_SECTIONS = ("calculus", "connection", "curvature", "ricci")


def _geometry_bytes(group) -> dict:
    cal = differential_calculus(conjugacy_class(group, "sr"))
    return {name: render(getattr(reporting, f"{name}_report")(cal), False)
            for name in _GEOMETRY_SECTIONS}


@pytest.mark.parametrize("build", [
    lambda: dihedral(3),
    lambda: dihedral(6),
    lambda: relabelled(dihedral(6), 41),
    lambda: direct_product_cyclic(dihedral(6), 2),
], ids=["d3", "d6", "d6-relabelled", "d6xz2"])
def test_geometry_sections_match_the_expanded_path(build):
    # the one-value form of constants against every function held as |G|
    # values, section by section
    group = build()
    fast = _geometry_bytes(group)
    with expanded_functions():
        assert differential_calculus(
            conjugacy_class(group, "sr")).theta.coeffs[0].constant_value is None
        slow = _geometry_bytes(group)
    assert fast == slow


def _table_argv(tmp_path, group) -> list:
    path = tmp_path / f"{group.name}.json"
    path.write_text(json.dumps(cayley_dict(group)))
    return ["--cayley", str(path)]


_RENDER_INPUTS = {
    "d3": lambda tmp_path: ["--group", "dihedral:3"],
    "d6": lambda tmp_path: ["--group", "dihedral:6"],
    "d6-relabelled": lambda tmp_path: _table_argv(
        tmp_path, relabelled(dihedral(6), 41)),
    "d6xz2": lambda tmp_path: _table_argv(
        tmp_path, direct_product_cyclic(dihedral(6), 2)),
}
# the commands whose reports hold only rationals on D6 and D6 x Z2; the
# others need a dihedral presentation, which D6 x Z2 lacks
_RATIONAL_COMMANDS = ("calculus", "connection", "curvature", "ricci", "wave")
# report-all is every other command's report side by side
_RENDER_CASES = [
    pytest.param(name, cmd, "0", id=f"{name}-{cmd}")
    for name in ("d3", "d6", "d6-relabelled")
    for cmd in cli.COMMANDS if cmd != "report-all"
] + [
    pytest.param("d6xz2", cmd, "0", id=f"d6xz2-{cmd}") for cmd in _RATIONAL_COMMANDS
] + [
    # past 2**3500 and below 2**-3500 the decimal of mu comes from mpmath
    pytest.param("d3", "connection", "1" + "0" * 1200, id="d3-connection-huge-mu"),
    pytest.param("d3", "connection", "0." + "0" * 1200 + "1",
                 id="d3-connection-tiny-mu"),
]


@pytest.mark.parametrize("name, cmd, mu", _RENDER_CASES)
def test_reports_render_as_with_mpmath_decimals(tmp_path, monkeypatch, capsys,
                                                name, cmd, mu):
    argv = _RENDER_INPUTS[name](tmp_path) + [
        "--class", "sr", "--cmd", cmd, f"--mu={mu}"]
    code, fast, _ = _run(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(reporting, "_rational_decimal", mpmath_rational_decimal)
    assert _run(capsys, *argv) == (0, fast, "")


_IMPORT_PROBE = """
import json, sys
import groupgeo.cli
loaded = {"import": "mpmath" in sys.modules}
for argv in json.loads(sys.argv[1]):
    assert groupgeo.cli.main(argv + ["--out", sys.argv[2]]) == 0, argv
    loaded[" ".join(argv)] = "mpmath" in sys.modules
print(json.dumps(loaded))
"""


def test_rational_commands_never_import_mpmath(tmp_path):
    d6z2 = _table_argv(tmp_path, direct_product_cyclic(dihedral(6), 2))
    runs = [source + ["--class", "sr", "--cmd", cmd]
            for source in (["--group", "dihedral:6"], d6z2)
            for cmd in _RATIONAL_COMMANDS]
    # the Dirac report holds cyclotomic values, whose decimals need mpmath
    runs.append(["--group", "dihedral:6", "--class", "sr", "--cmd", "dirac"])
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(runs),
         str(tmp_path / "report.json")],
        env=env, capture_output=True, text=True)
    assert probe.returncode == 0, probe.stderr
    loaded = json.loads(probe.stdout)
    assert loaded.pop(" ".join(runs.pop())) is True
    assert loaded == dict.fromkeys(["import"] + [" ".join(r) for r in runs], False)


# -- report-all on tables with and without a dihedral presentation -----------

_REPORT_ALL_INPUTS = {
    "d3": (lambda fixture: dihedral(3), "sr"),
    "s3xz3": (lambda fixture: direct_product_cyclic(fixture("s3_group"), 3), "u"),
    "d3xz2": (lambda fixture: direct_product_cyclic(dihedral(3), 2), "sr"),
    "dic3-a0x1": (lambda fixture: dicyclic3(), "a0x1"),
    "dic3-a1x1": (lambda fixture: dicyclic3(), "a1x1"),
    "d6xz2": (lambda fixture: direct_product_cyclic(dihedral(6), 2), "sr"),
}
_SINGULAR_METRIC = ("error(precondition): metric modulus mu = -1/3 is singular "
                    "for a class of size 3\n")
_SINGULAR_CASIMIR = ("error(precondition): casimir normalisation 1/(1 + 4 mu) "
                     "is singular at mu = -1/4\n")


def _no_dihedral(name, order):
    return f"error(validation): group {name} of order {order} has no dihedral presentation\n"


# exit code and stderr per input and mu; a successful report is pinned by
# the sha256 of its bytes
_REPORT_ALL_OUTCOMES = {
    ("d3", "0"): (0, "a24934807d83c7d3224e69be5cc0ed356e2ee4e4dd8b6c63f4ed9fabd0feaf43"),
    ("d3xz2", "0"): (0, "20ec28514fd4529e238db62728d72b0c536298be43a2911a7250141f5b2b773f"),
    ("d3", "-1/4"): (4, _SINGULAR_CASIMIR),
    ("d3xz2", "-1/4"): (4, _SINGULAR_CASIMIR),
    ("s3xz3", "0"): (3, _no_dihedral("s3xZ3", 18)),
    ("s3xz3", "-1/4"): (3, _no_dihedral("s3xZ3", 18)),
    ("d6xz2", "0"): (3, _no_dihedral("dihedral:6xZ2", 24)),
    ("d6xz2", "-1/4"): (3, _no_dihedral("dihedral:6xZ2", 24)),
    **{(f"dic3-{cls}", mu): (3, _no_dihedral("dicyclic:3", 12))
       for cls in ("a0x1", "a1x1") for mu in ("0", "-1/4")},
    # the singular metric stops every input at the connection section
    **{(name, "-1/3"): (4, _SINGULAR_METRIC) for name in _REPORT_ALL_INPUTS},
}


def _report_all(request, tmp_path, capsys, name, mu):
    build, rep = _REPORT_ALL_INPUTS[name]
    argv = _table_argv(tmp_path, build(request.getfixturevalue))
    return _run(capsys, *argv, "--class", rep, "--cmd", "report-all", f"--mu={mu}")


@pytest.mark.parametrize("name, mu", sorted(_REPORT_ALL_OUTCOMES),
                         ids=[f"{n}-mu{m}" for n, m in sorted(_REPORT_ALL_OUTCOMES)])
def test_report_all_outcome_per_input(request, tmp_path, capsys, name, mu):
    code, out, err = _report_all(request, tmp_path, capsys, name, mu)
    expect_code, expect = _REPORT_ALL_OUTCOMES[(name, mu)]
    assert code == expect_code
    if code == 0:
        assert (err, hashlib.sha256(out.encode()).hexdigest()) == ("", expect)
    else:
        assert (out, err) == ("", expect)


@pytest.mark.parametrize("name", ["dic3-a0x1", "d6xz2"])
def test_report_all_rejects_a_table_without_dihedral_presentation_early(
        request, tmp_path, monkeypatch, capsys, name):
    # the Dirac certificate fails before curvature and Ricci are computed
    _forbid(monkeypatch, "curvature_report", "ricci_report")
    code, _, err = _report_all(request, tmp_path, capsys, name, "0")
    assert (code, err) == _REPORT_ALL_OUTCOMES[(name, "0")]
