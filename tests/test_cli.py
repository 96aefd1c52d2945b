"""Command line behaviour: exit codes, determinism, serialization."""

import json

import pytest

from conftest import dicyclic3
from groupgeo import cli, reporting
from groupgeo.cli import main, parse_group_spec, render
from groupgeo.errors import UnsupportedGroupError


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
    assert "error(precondition)" in err


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
    path.write_text(json.dumps(dicyclic3().to_dict()))
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
