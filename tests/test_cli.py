"""Command line behaviour: exit codes, determinism, serialization."""

import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import alternating4, dicyclic3, direct_product_cyclic, relabelled
from groupgeo import (cli, connections, enclosures, geometry_reports, groups, reporting,
                      spinor_reports)
from groupgeo.cli import main, parse_group_spec, render
from groupgeo.errors import CayleyValidationError, SingularMetricError, UnsupportedGroupError
from groupgeo.groups import FiniteGroup, conjugacy_class, dihedral
from groupgeo.reporting import Geometry
from oracles import (cayley_dict, expanded_geometry_sections, mpmath_cyclotomic_decimal,
                     mpmath_rational_decimal)


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


# int() reads the digits of every script; the flag takes ASCII digits,
# as dihedral:N does: Arabic-Indic and full-width one half are refused
@pytest.mark.parametrize("mu", ["1e5", "2.5e-3", "inf", "nan", "1/0", " 1/3", "5.",
                                "\u0661/\u0662", "\uff11/\uff12", "0.\u0665"])
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


@pytest.mark.parametrize("text", ["0", "-0", "+3/6", "-7/21", ".5", "-0.50", "12.125",
                                  "-0." + "3" * 1996],
                         ids=lambda text: text if len(text) < 10 else f"{len(text)}-characters")
def test_mu_parses_to_the_rational_fraction_reads(text):
    mu = cli._parse_mu(text)
    assert Fraction(*mu) == Fraction(text)


def test_mu_with_a_zero_denominator_exits_2(capsys):
    assert _run(capsys, "--group", "dihedral:6", "--class", "sr", "--mu=1/0",
                "--cmd", "calculus") == (
        2, "", "error(usage): --mu must be a rational like 1/3, got '1/0'\n")


def test_mu_exponent_refused_before_expansion(monkeypatch, capsys):
    # the exponent stands for a 10^9-digit integer; int() may not see the
    # text, and the refusal comes before the group is built
    def unreachable(*_args):
        raise AssertionError("the text was converted or the group builder ran")
    monkeypatch.setattr(cli, "int", unreachable, raising=False)
    monkeypatch.setattr(cli, "dihedral", unreachable)
    code, _, err = _run(capsys, "--group", "dihedral:256", "--class", "sr",
                        "--mu=1e999999999", "--cmd", "calculus")
    assert code == 2
    assert "--mu" in err


def _forbid(monkeypatch, module, *names):
    def unreachable(*_args, **_kwargs):
        raise AssertionError("called after the input should have been rejected")
    for name in names:
        monkeypatch.setattr(module, name, unreachable)


def test_singular_mu_rejected_before_torsion_solve(monkeypatch, capsys):
    _forbid(monkeypatch, connections, "torsion_free_family")
    # the one singular-metric check, with the text the wave command gives,
    # which quotes mu in lowest terms however it was spelt
    for mu in ("-1/3", "-2/6"):
        code, _, err = _run(capsys, "--group", "dihedral:6", "--class", "sr",
                            f"--mu={mu}", "--cmd", "connection")
        assert code == 4
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


def test_each_command_calls_its_reporting_function_on_one_geometry(monkeypatch, capsys):
    """Each command's report is a function of one Geometry in the module
    that runs its layers; it is read off that module at call time, so a
    patched attribute, as a tracer wrapping the module's functions
    installs, is the one that runs on the run's Geometry."""
    for cmd in cli.COMMANDS:
        params = inspect.signature(cli.report_of(cmd)).parameters
        assert cli.report_of(cmd).__module__ == (
            "groupgeo.reporting" if cmd == "report-all" else
            "groupgeo.spinor_reports" if cmd in ("dirac", "wave", "spectral-action")
            else "groupgeo.geometry_reports")
        assert [p.annotation for p in params.values()] == ["Geometry"]
    # each report has one name, on the module that defines it
    assert not any(hasattr(reporting, name) for module, names in REPORT_BUILDERS
                   if module is not reporting for name in names)
    runs = []

    def patched(geo):
        runs.append(geo)
        return {"patched": True}

    monkeypatch.setattr(geometry_reports, "ricci_report", patched)
    assert cli.report_of("ricci") is patched
    assert _run(capsys, "--group", "dihedral:6", "--class", "sr", "--mu=1/2",
                "--cmd", "ricci") == (0, '{"patched":true}\n', "")
    [geo] = runs
    assert type(geo) is Geometry
    assert (list(geo.cls.labels()), geo.mu) == (["sr", "sr3", "sr5"], Fraction(1, 2))


REPORT_BUILDERS = (
    (geometry_reports, ("calculus_report", "connection_report", "curvature_report",
                        "ricci_report")),
    (spinor_reports, ("dirac_report", "wave_report", "spectral_action_report")),
    (reporting, ("full_report",)),
)


def _forbid_reports(monkeypatch):
    for module, names in REPORT_BUILDERS:
        _forbid(monkeypatch, module, *names)


def test_out_into_missing_directory_exits_2(tmp_path, monkeypatch, capsys):
    _forbid_reports(monkeypatch)
    target = tmp_path / "missing" / "r.json"
    code, out, err = _run(capsys, "--group", "dihedral:6", "--class", "sr",
                          "--cmd", "calculus", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error(usage):")
    assert "Traceback" not in err
    assert not target.parent.exists()


def test_empty_out_exits_2_before_any_report(monkeypatch, capsys):
    _forbid_reports(monkeypatch)
    code, out, err = _run(capsys, "--group", "dihedral:3", "--class", "s",
                          "--cmd", "calculus", "--out", "")
    assert (code, out) == (2, "")
    assert err == "error(usage): --out is an empty path\n"


def test_out_naming_a_directory_exits_2(tmp_path, monkeypatch, capsys):
    _forbid_reports(monkeypatch)
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


@pytest.mark.parametrize("length", [4097, 100_000])
def test_overlong_out_exits_2_before_touching_the_file_system(monkeypatch, capsys, length):
    def unreachable(*_args, **_kwargs):
        raise AssertionError("asked the file system about an --out over the cap")
    _forbid_reports(monkeypatch)
    monkeypatch.setattr(cli.os.path, "isdir", unreachable)
    monkeypatch.setattr(cli, "open", unreachable, raising=False)
    target = "/nonexistent/" + "x" * (length - 20) + "/r.json"
    assert len(target) == length
    code, out, err = _run(capsys, "--group", "dihedral:6", "--class", "sr",
                          "--cmd", "calculus", "--out", target)
    assert code == 2
    assert out == ""
    # the length, not the path
    assert err == (f"error(usage): --out has {length} characters, more than the "
                   f"limit of {cli.MAX_OUT_LENGTH}\n")
    assert len(err) < 200


def test_out_at_the_length_cap_keeps_its_message(capsys):
    target = "/nonexistent/" + "x" * (cli.MAX_OUT_LENGTH - 20) + "/r.json"
    assert len(target) == cli.MAX_OUT_LENGTH
    code, _, err = _run(capsys, "--group", "dihedral:6", "--class", "sr",
                        "--cmd", "calculus", "--out", target)
    assert (code, err) == (2, f"error(usage): --out directory does not exist: {target!r}\n")


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


def test_cayley_file_at_the_byte_limit_loads_and_one_byte_over_is_refused(
        tmp_path, monkeypatch, capsys):
    table = json.dumps(cayley_dict(dihedral(3)))
    monkeypatch.setattr(groups, "MAX_CAYLEY_BYTES", len(table) + 1)
    parsed = []
    loads = json.loads

    def counted(text, **options):
        parsed.append(text)
        return loads(text, **options)

    monkeypatch.setattr(json, "loads", counted)
    # one byte under the limit, at it and one byte over
    for padding, code in ((0, 0), (1, 0), (2, 3)):
        path = tmp_path / f"d3-{padding}.json"
        path.write_text(table + " " * padding)
        got, out, err = _run(capsys, "--cayley", str(path), "--class", "s",
                             "--cmd", "calculus")
        assert got == code, err
        if code:
            assert err == (f"error(validation): Cayley table {path} is longer than "
                           f"the limit of {len(table) + 1} bytes\n")
    # the refused file was never parsed
    assert len(parsed) == 2


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_endless_cayley_file_is_refused_in_bounded_memory(tmp_path):
    # the address-space cap makes an unbounded read fail fast, with a
    # MemoryError and exit 1, instead of taking all the memory it can get
    resource = pytest.importorskip("resource")
    cap = 400 * 2 ** 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    run = subprocess.run(
        [sys.executable, "-m", "groupgeo.cli", "--cayley", "/dev/zero", "--class", "e",
         "--cmd", "calculus", "--out", str(tmp_path / "report.json")],
        env=_source_env(), capture_output=True, text=True, preexec_fn=limit, timeout=120)
    assert (run.returncode, run.stdout) == (3, "")
    assert run.stderr == ("error(validation): Cayley table /dev/zero is longer than the "
                          f"limit of {groups.MAX_CAYLEY_BYTES} bytes\n")


_Z2 = [[0, 1], [1, 0]]


@pytest.mark.parametrize("data, fragment", [
    pytest.param({"names": ["e", None], "table": _Z2}, "'names'[1] must be a string, got NoneType",
                 id="null-name"),
    pytest.param({"names": ["e", 1], "table": _Z2}, "'names'[1] must be a string, got int",
                 id="int-name"),
    pytest.param({"names": [["e"], "a"], "table": _Z2}, "'names'[0] must be a string, got list",
                 id="list-name"),
    pytest.param({"name": ["z2"], "names": ["e", "a"], "table": _Z2},
                 "'name' must be a string, got list", id="list-group-name"),
    pytest.param({"name": {"n": 2}, "names": ["e", "a"], "table": _Z2},
                 "'name' must be a string, got dict", id="object-group-name"),
    pytest.param({"name": 2, "names": ["e", "a"], "table": _Z2},
                 "'name' must be a string, got int", id="int-group-name"),
])
def test_non_string_cayley_names_exit_3(tmp_path, capsys, data, fragment):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = _run(capsys, "--cayley", str(bad), "--class", "a", "--cmd", "calculus")
    assert (code, out) == (3, "")
    assert err.startswith("error(validation)")
    assert fragment in err


@pytest.mark.parametrize("digits, fragment", [
    # over Python's 4300-digit cap: json.loads refuses the literal unconverted
    (100_000, "cannot read Cayley table"),
    # under it: the entry is read and quoted by its start and length
    (4000, "= '1111"),
], ids=["over-the-cap", "under-the-cap"])
def test_a_long_integer_entry_is_refused_at_once_and_quoted(tmp_path, capsys, digits,
                                                            fragment):
    table = json.dumps(cayley_dict(dihedral(3))).replace("[0, 1,", "[" + "1" * digits + ", 1,", 1)
    path = tmp_path / "long-entry.json"
    path.write_text(table)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    start = time.perf_counter()
    code, out, err = _run(capsys, "--cayley", str(path), "--class", "s", "--cmd", "calculus")
    assert time.perf_counter() - start < 2
    assert (code, out) == (3, "")
    assert err.startswith("error(validation)") and fragment in err
    assert len(err) < 300
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


@pytest.mark.parametrize("build, argv", [
    (lambda: dihedral(6), ["--class", "nope", "--cmd", "calculus"]),
    (dicyclic3, ["--class", "a0x1", "--cmd", "dirac"]),
], ids=["unknown-label", "no-dihedral-presentation"])
def test_a_long_group_name_is_quoted_by_its_start_and_length(tmp_path, capsys, build, argv):
    data = cayley_dict(build())
    data["name"] = "n" * 200_000
    path = tmp_path / "long-name.json"
    path.write_text(json.dumps(data))
    code, out, err = _run(capsys, "--cayley", str(path), *argv)
    assert (code, out) == (3, "")
    assert "group 'nnn" in err and "(200000 characters)" in err
    assert len(err) < 300


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
    with pytest.raises(ValueError, match="^dihedral parameter 100000 exceeds the limit of 256$"):
        parse_group_spec("dihedral:100000")


@pytest.mark.parametrize("param", ["", " 6", "6 ", "\u0666", "1_2", "+6", "-3", "6.0", "0x6"])
def test_dihedral_parameter_is_ascii_digits_only(param, capsys):
    code, out, err = _run(capsys, "--group", f"dihedral:{param}", "--class", "sr",
                          "--cmd", "calculus")
    assert (code, out) == (2, "")
    assert err.startswith("error(usage): ")


def test_overlong_dihedral_parameter_is_refused_unconverted(monkeypatch, capsys):
    # the --mu text is read by int() too, and is short
    def short_only(text, *args):
        if len(text) > cli.MAX_DIHEDRAL:
            raise AssertionError("converted an overlong parameter")
        return int(text, *args)
    monkeypatch.setattr(cli, "int", short_only, raising=False)
    digits = "1" * 100_000
    code, out, err = _run(capsys, "--group", f"dihedral:{digits}", "--class", "sr",
                          "--cmd", "calculus")
    assert (code, out) == (2, "")
    assert err == (f"error(usage): dihedral parameter of 100000 digits exceeds the "
                   f"limit of {cli.MAX_DIHEDRAL}\n")
    with pytest.raises(ValueError, match="exceeds the limit"):
        parse_group_spec("dihedral:" + "0" * (cli.MAX_DIHEDRAL + 1))


@pytest.mark.parametrize("spec,code,fragment", [
    ("x" * 100_000 + ":1", 3, "error(validation): no builtin group family named 'xxx"),
    ("dihedral:" + "x" * 100_000, 2, "error(usage): dihedral parameter 'xxx"),
    ("x" * 100_000, 2, "error(usage): group spec 'xxx"),
], ids=["family", "dihedral-parameter", "no-colon"])
def test_overlong_group_spec_is_quoted_by_its_start_and_length(spec, code, fragment, capsys):
    got, out, err = _run(capsys, "--group", spec, "--class", "sr", "--cmd", "calculus")
    assert (got, out) == (code, "")
    # the quoted part, whether name, parameter or spec, is 100,000 characters
    assert err.startswith(fragment)
    assert "(100000 characters)" in err and len(err) < 200


def test_overlong_class_label_is_quoted_by_its_start_and_length(capsys):
    code, out, err = _run(capsys, "--group", "dihedral:6", "--class", "q" * 100_000,
                          "--cmd", "calculus")
    assert (code, out) == (3, "")
    assert err.startswith("error(validation): no element named 'qqq")
    assert "(100000 characters)" in err and len(err) < 200


def test_parse_group_spec_direct():
    assert parse_group_spec("dihedral:3").order == 6
    assert parse_group_spec("dihedral:006").name == "dihedral:6"
    with pytest.raises(ValueError, match="^dihedral parameter must be positive, got 0$"):
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


def _restricted(report, expected):
    """The parts of a report that an expected record of it names."""
    if not isinstance(expected, dict):
        return report
    return {key: _restricted(report[key], value) for key, value in expected.items()}


@pytest.mark.parametrize("build", [
    lambda: dihedral(3),
    lambda: dihedral(6),
    lambda: relabelled(dihedral(6), 41),
    lambda: direct_product_cyclic(dihedral(6), 2),
], ids=["d3", "d6", "d6-relabelled", "d6xz2"])
def test_geometry_sections_match_the_expanded_path(build):
    # the reports of constant coefficients against the oracle's algebra of
    # forms held at every group element, section by section, as rendered
    geo = Geometry(conjugacy_class(build(), "sr"))
    for name, expected in expanded_geometry_sections(geo.calculus).items():
        report = getattr(geometry_reports, f"{name}_report")(geo)
        assert render(_restricted(report, expected), False) == render(expected, False)


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
    # a mu past 2**3500 and one below 2**-3500
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
    monkeypatch.setattr(reporting, "rational_decimal", mpmath_rational_decimal)
    monkeypatch.setattr(enclosures, "cyclotomic_decimal", mpmath_cyclotomic_decimal)
    assert _run(capsys, *argv) == (0, fast, "")


_IMPORT_PROBE = """
import json, sys
# what the interpreter loaded before the package, site's .pth imports among it
baseline = set(sys.modules)
own = sys.stdlib_module_names | {"groupgeo"}
loaded = []
for argv in json.loads(sys.argv[1]):
    # each command starts from a fresh import of the package, as in its own
    # process; a module from outside the standard library stays loaded once
    # any command has imported it
    for name in [m for m in sys.modules if m.split(".")[0] == "groupgeo"]:
        del sys.modules[name]
    import groupgeo.cli
    code = groupgeo.cli.main(argv + ["--out", sys.argv[2]])
    layers = sorted(m[len("groupgeo."):] for m in sys.modules
                    if m.startswith("groupgeo."))
    foreign = sorted(m for m in set(sys.modules) - baseline if m.split(".")[0] not in own)
    # the standard library's rational and decimal types, which no command needs
    numeric = sorted({"fractions", "decimal", "numbers"} & set(sys.modules))
    loaded.append([code, layers, foreign, numeric])
print(json.dumps(loaded))
"""

# the modules every command loads before its input is accepted; the front
# holds the parsed --mu as two integers, and cyclotomic loads only for a
# check or a report that reads it
_FRONT = {"cli", "errors", "groups"}
_REPORT = _FRONT | {"calculus", "cyclotomic", "linalg", "reporting"}
_GEOMETRY = _REPORT | {"geometry_reports"}
_SPINOR = _REPORT | {"connections", "dirac", "representations", "spectra", "spinor_reports"}
# exit code and groupgeo modules per command on D6 at mu = 0; the wave
# report reads the class alone, so it builds no calculus and no connection,
# the eigenmode catalogs load for the D6 reflection class only, and the
# enclosures only for the reports that print an irrational scalar, the
# gamma matrices of the Dirac report
_D6_LOADS = {
    "calculus": (0, _GEOMETRY - {"linalg"}),
    "connection": (0, _GEOMETRY | {"connections"}),
    "curvature": (0, _GEOMETRY | {"connections", "curvature"}),
    "ricci": (0, _GEOMETRY | {"connections", "curvature"}),
    "dirac": (0, _SPINOR | {"catalogs", "enclosures"}),
    "wave": (0, _SPINOR - {"calculus", "connections"} | {"catalogs"}),
    "spectral-action": (0, _SPINOR),
    "report-all": (0, _SPINOR | _GEOMETRY | {"catalogs", "curvature", "enclosures"}),
}
# off order 12 the reports state no catalog, so they load no catalog and
# the wave report builds no representation; on D6 x Z2 the spinor commands
# and report-all stop at the missing dihedral presentation, which the front
# checks, report-all after the metric, which reads mu
_D3_LOADS = {**_D6_LOADS,
             "dirac": (0, _SPINOR | {"enclosures"}),
             "wave": (0, _SPINOR - {"calculus", "connections", "representations"}),
             "report-all": (0, _SPINOR | _GEOMETRY | {"curvature", "enclosures"})}
_D6Z2_LOADS = {
    **_D3_LOADS,
    "dirac": (3, _FRONT),
    "spectral-action": (3, _FRONT),
    "report-all": (3, _FRONT | {"cyclotomic"}),
}

_NAMES = ["e", "a", "b", "c", "d"]
# tables that break one axiom each; the validator names the first broken one
_CORRUPT_TABLES = {
    "identity-row": [[0, 2, 1], [1, 2, 0], [2, 0, 1]],
    "identity-column": [[0, 1, 2], [2, 1, 0], [1, 2, 0]],
    "row-not-permutation": [[0, 1, 2], [1, 1, 0], [2, 0, 1]],
    "column-not-permutation": [[0, 1, 2], [1, 2, 0], [2, 1, 0]],
    "out-of-range": [[0, 1], [1, 2]],
    "true-entry": [[0, 1], [1, True]],
    "not-square": [[0, 1], [1]],
    # a Latin square with identity, a loop of order 5; the only group of
    # that order is cyclic and has no involution, and here a * a = e
    "not-associative": [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                        [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
}


def _source_env() -> dict:
    """This environment with the package source first on PYTHONPATH, for a
    fresh interpreter."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _corrupt_tables(tmp_path) -> list:
    """The Cayley argv of each corrupted table of _CORRUPT_TABLES."""
    out = []
    for name, table in _CORRUPT_TABLES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"names": _NAMES[:len(table)], "table": table}))
        out.append(["--cayley", str(path)])
    return out


def test_each_command_loads_only_its_layers_and_never_mpmath(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text('{"names": ["e", "a"], "table": [[0, 1], [1, 1]]}')
    # the loads at mu = 0 and at mu = 1, where no report states a catalog,
    # as off order 12
    sources = ((["--group", "dihedral:3"], _D3_LOADS, _D3_LOADS),
               (["--group", "dihedral:6"], _D6_LOADS, _D3_LOADS),
               (_table_argv(tmp_path, direct_product_cyclic(dihedral(6), 2)),
                _D6Z2_LOADS, _D6Z2_LOADS))
    runs = [(source + ["--class", "sr", f"--mu={mu}", "--cmd", cmd], code, layers)
            for source, *per_mu in sources for mu, loads in zip("01", per_mu)
            for cmd, (code, layers) in loads.items()]
    # usage errors, table rejects and inputs that fail a precondition of
    # the command stop in the front
    runs += [(argv + ["--cmd", "ricci"], code, _FRONT) for argv, code in (
        (["--group", "dihedral:6", "--class", "sr", "--mu=1e5"], 2),
        (["--group", "dihedral:6", "--class", "sr", "--mu=\u0661/\u0662"], 2),
        (["--group", "dihedral:6", "--class", "sr", "--mu=\uff11/\uff12"], 2),
        (["--cayley", str(broken), "--class", "sr"], 3),
        (["--group", "dihedral:6", "--class", "q"], 3))]
    runs += [(argv + ["--class", "a", "--cmd", "calculus"], 3, _FRONT)
             for argv in _corrupt_tables(tmp_path)]
    runs += [(["--group", "dihedral:6", "--class", "sr", "--mu=-1/3", "--cmd", cmd],
              4, _FRONT | {"cyclotomic"}) for cmd in ("connection", "wave")]
    # the casimir normalisation, singular at mu = -1/4, is checked in the front
    runs += [([*source, "--class", "sr", "--mu=-1/4", "--cmd", cmd], 4, _FRONT | {"cyclotomic"})
             for source in (["--group", "dihedral:3"], ["--group", "dihedral:6"])
             for cmd in ("dirac", "spectral-action", "report-all")]
    runs += [(_table_argv(tmp_path, alternating4()) + [
        "--class", "1203", "--cmd", "connection"], 3, _FRONT)]
    # an endless table is refused after MAX_CAYLEY_BYTES + 1 bytes
    if os.path.exists("/dev/zero"):
        runs += [(["--cayley", "/dev/zero", "--class", "e", "--cmd", "calculus"], 3, _FRONT)]
    # a 1101-digit mu, past 2**3600, in the spinor layers and the connection
    runs += [(["--group", "dihedral:3", "--class", "sr", "--mu=1" + "0" * 1100, "--cmd", cmd],
              code, layers) for cmd, (code, layers) in _D3_LOADS.items()
             if cmd in ("connection", "wave", "dirac")]
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps([r[0] for r in runs]),
         str(tmp_path / "report.json")],
        env=_source_env(), capture_output=True, text=True)
    assert probe.returncode == 0, probe.stderr
    # no command imports a module from outside the standard library, mpmath
    # among them: every decimal is computed in integers; and none loads
    # fractions, decimal or numbers, refusals included: every rational is
    # an order-1 Cyclotomic
    assert dict(zip((" ".join(r[0]) for r in runs), json.loads(probe.stdout))) == {
        " ".join(argv): [code, sorted(layers), [], []] for argv, code, layers in runs}


def test_spectra_and_catalogs_load_without_the_spinor_layer():
    probe = subprocess.run([sys.executable, "-c", (
        "import sys, groupgeo.catalogs\n"
        "print(sorted(m for m in sys.modules if m.startswith('groupgeo.')))")],
        env=_source_env(), capture_output=True, text=True)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == repr(sorted(f"groupgeo.{m}" for m in (
        "catalogs", "cyclotomic", "errors", "groups", "linalg", "spectra")))


def test_package_root_loads_no_submodule():
    probe = subprocess.run([sys.executable, "-c", (
        "import json, sys, groupgeo\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.startswith('groupgeo.')),\n"
        "                  sorted(vars(groupgeo))]))")],
        env=_source_env(), capture_output=True, text=True)
    assert probe.returncode == 0, probe.stderr
    loaded, names = json.loads(probe.stdout)
    assert loaded == []
    # beside what the import system sets on every package, the version is
    # the root's one name: every other is imported from the module that
    # defines it
    assert set(names) - {"__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
                         "__name__", "__package__", "__path__", "__spec__"} == {"__version__"}


# -- the front refuses with the error of the layer ---------------------------

def test_groups_docstring_states_the_precondition_order():
    names = {"chart": "chart", "metric": "metric", "dihedral": "dihedral presentation",
             "casimir": "casimir"}
    table = {}
    for line in groups.__doc__.split("after the calculus\ncheck:")[1].splitlines():
        if "  " in line.strip():
            cmds, checks = re.split(r"\s{2,}", line.strip())
            for cmd in cmds.split(", "):
                table[cmd] = checks
    assert table == {cmd: ", ".join(names[c] for c in checks) or "none"
                     for cmd, checks in cli.PRECONDITIONS.items()}


def _library_error(build, exc_type) -> str:
    """The stderr cli gives for the error the library raises, checked to
    be of the expected type."""
    with pytest.raises(exc_type) as err:
        build()
    kind = "precondition" if err.type is SingularMetricError else "validation"
    return f"error({kind}): {err.value}\n"


def _d6z2():
    return direct_product_cyclic(dihedral(6), 2)


@pytest.mark.parametrize("build, label, cmd, mu, code, exc_type, fragment", [
    # no dihedral presentation and a singular metric: the spinor layer
    # refuses the group first
    (_d6z2, "sr", "dirac", "-1/3", 3, UnsupportedGroupError, "no dihedral presentation"),
    (_d6z2, "sr", "spectral-action", "-1/3", 3, UnsupportedGroupError,
     "no dihedral presentation"),
    # report-all reaches the connection section first
    (_d6z2, "sr", "report-all", "-1/3", 4, SingularMetricError, "metric modulus"),
    # a 4-member class at mu = -1/4: no chart, and a singular metric
    (alternating4, "1203", "connection", "-1/4", 3, UnsupportedGroupError, "chart"),
    (alternating4, "1203", "curvature", "-1/4", 3, UnsupportedGroupError, "chart"),
    (alternating4, "1203", "ricci", "-1/4", 3, UnsupportedGroupError, "chart"),
    # the casimir check comes last
    (lambda: dihedral(3), "sr", "dirac", "-1/4", 4, SingularMetricError, "casimir"),
], ids=["d6xz2-dirac", "d6xz2-spectral-action", "d6xz2-report-all", "a4-connection",
        "a4-curvature", "a4-ricci", "d3-dirac-casimir"])
def test_front_refuses_with_the_error_of_the_layer(tmp_path, capsys, build, label, cmd,
                                                   mu, code, exc_type, fragment):
    group = build()
    cls = conjugacy_class(group, label)
    expect = _library_error(lambda: cli.report_of(cmd)(Geometry(cls, Fraction(mu))), exc_type)
    assert fragment in expect
    argv = _table_argv(tmp_path, group) + ["--class", label, "--cmd", cmd, f"--mu={mu}"]
    assert _run(capsys, *argv) == (code, "", expect)


@pytest.mark.parametrize("name, fragment", [
    ("identity-row", "identity axiom violated: e*a"),
    ("identity-column", "identity axiom violated: a*e"),
    ("row-not-permutation", "row of a is not a permutation"),
    ("column-not-permutation", "column of a is not a permutation"),
    ("out-of-range", "= 2 is not an element index"),
    ("true-entry", "= True is not an element index"),
    ("not-square", "table must be 2x2"),
    ("not-associative", "associativity violated"),
])
def test_corrupted_table_exits_3_with_the_validator_message(tmp_path, capsys, name,
                                                            fragment):
    table = _CORRUPT_TABLES[name]
    expect = _library_error(lambda: FiniteGroup(_NAMES[:len(table)], table),
                            CayleyValidationError)
    assert fragment in expect
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"names": _NAMES[:len(table)], "table": table}))
    assert _run(capsys, "--cayley", str(path), "--class", "a", "--cmd", "calculus") == (
        3, "", expect)


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


_LONG = 200_000


def _hostile_table(case: str, long: str, where: int) -> tuple[dict | str, str]:
    """A Cayley object, or its JSON text, and a --class label that put the long name on one
    refusal path: each corrupted table of _CORRUPT_TABLES, a repeated name,
    an out-of-range entry in the long name's row and column, and classes
    of one member, of the identity and of two long members.  where picks
    the element that carries the name where the path leaves a choice.  Two
    more cases give every name of the loop of _CORRUPT_TABLES a hostile
    one, long or of 61 characters none of which prints, and one nests the
    table too deep to read, as JSON text."""
    if case == "deep-nesting":
        return ('{"names": ' + json.dumps([long]) + ', "table": '
                + "[" * 100_000 + "]" * 100_000 + "}"), "a"
    if case.startswith("loop-"):
        # five names of half the length: json.dumps writes a character
        # outside the BMP as 12 bytes, and five whole ones would pass
        # groups.MAX_CAYLEY_BYTES and be refused by size, naming none
        long = long[:len(long) // 2]
        names = [(long if case == "loop-long" else "\0" * 61)[:-1] + c for c in "abcde"]
        return {"names": names, "table": _CORRUPT_TABLES["not-associative"]}, "a"
    if case in _CORRUPT_TABLES:
        table = _CORRUPT_TABLES[case]
        names = _NAMES[:len(table)]
        names[where % len(names)] = long
        return {"names": names, "table": table}, "a"
    data = cayley_dict(dihedral(6 if case.endswith("class") else 3))
    names, table = data["names"], data["table"]
    i = 1 + where % (len(names) - 1)
    if case == "repeated":
        names[i] = names[1 + i % (len(names) - 1)] = long
    elif case == "entry-out-of-range":
        names[i] = long
        table[i][i] = len(names)
    elif case == "one-member-class":
        names[3] = long
        return data, long
    elif case == "identity-class":
        names[0] = long
        return data, long
    elif case == "two-member-class":
        # the rotations r and r5 of D6, a class that is not cyclic
        names[1], names[5] = long, long[:-1] + "x"
        return data, long
    return data, "s"


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fill=st.characters())
# a character that json.dumps writes as a 12-byte surrogate pair
@example(fill="\U00010000")
@pytest.mark.parametrize("case", [*_CORRUPT_TABLES, "repeated", "entry-out-of-range",
                                  "one-member-class", "identity-class", "two-member-class",
                                  "loop-long", "loop-unprintable", "deep-nesting"])
def test_a_hostile_element_name_is_refused_at_once_and_quoted(tmp_path, capsys, case, fill):
    quoted = 0
    # the long name on each of the first five elements in turn
    for where in range(5):
        data, label = _hostile_table(case, fill * _LONG, where)
        path = tmp_path / "hostile.json"
        path.write_text(data if isinstance(data, str) else json.dumps(data))
        start = time.perf_counter()
        # one argument, so that a label starting with "-" is not read as an option
        code, out, err = _run(capsys, "--cayley", str(path), f"--class={label}",
                              "--cmd", "calculus")
        assert time.perf_counter() - start < 2
        assert (code, out) == (3, "")
        assert err.startswith("error(validation)") and len(err) < 300
        # every control character is escaped
        assert err.endswith("\n") and err[:-1].isprintable()
        quoted += case != "deep-nesting" and any(
            f"({len(name)} characters)" in err for name in data["names"]
            if len(name) > 64 or not name.isprintable())
    # every refusal but the table's shape and an unreadable file names an element
    assert quoted or case in ("not-square", "deep-nesting")


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(digits=st.integers(4301, 100_000), row=st.integers(0, 5), column=st.integers(0, 5))
def test_an_over_cap_table_integer_is_refused_in_the_tools_words(tmp_path, capsys, digits,
                                                                 row, column):
    data = cayley_dict(dihedral(3))
    data["table"][row][column] = "entry"
    path = tmp_path / "over-cap.json"
    # an integer literal of that many digits, written without int -> str
    path.write_text(json.dumps(data).replace('"entry"', "1" * digits))
    start = time.perf_counter()
    code, out, err = _run(capsys, "--cayley", str(path), "--class", "s", "--cmd", "calculus")
    assert time.perf_counter() - start < 2
    assert (code, out) == (3, "")
    assert err == (f"error(validation): cannot read Cayley table {path}: an integer of "
                   f"{digits} digits is longer than the limit of 4300 digits\n")
    assert "set_int_max_str_digits" not in err


def test_a_long_non_split_polynomial_is_quoted_by_its_degree_and_start(tmp_path, capsys):
    # D3 x Z_10 with the class of s.z: |H| = 30, and the wave operator's
    # minimal polynomial of degree 15 does not split over Q
    argv = _table_argv(tmp_path, direct_product_cyclic(dihedral(3), 10))
    code, out, err = _run(capsys, *argv, "--class", "s.z", "--cmd", "wave", "--mu=1")
    assert (code, out) == (4, "")
    assert err.startswith("error(precondition): minimal polynomial of degree 15, x^15 ")
    assert err.endswith(" characters) does not split into rational linear factors; "
                        "eigenvalues outside Q are not certified\n")
    assert len(err) < 300


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
    _forbid(monkeypatch, geometry_reports, "curvature_report", "ricci_report")
    code, _, err = _report_all(request, tmp_path, capsys, name, "0")
    assert (code, err) == _REPORT_ALL_OUTCOMES[(name, "0")]
