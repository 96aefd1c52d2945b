"""Command line frontend.

One job per invocation: pick a group (a builtin family like ``dihedral:6``
or a Cayley-table JSON file), a conjugacy class by representative label, a
rational metric modulus, and a command; the result is a deterministic JSON
report on stdout or in a file.  Identical inputs give byte-identical bytes.

Exit codes: 0 success, 2 usage errors (including an --out path that is
empty, longer than MAX_OUT_LENGTH, a directory, in a missing directory or
cannot be written, a ``dihedral:N`` above MAX_DIHEDRAL and a --mu longer than
MAX_MU_LENGTH), 3 validation failures (bad Cayley table, a --cayley file
longer than groups.MAX_CAYLEY_BYTES or with an integer longer than
groups.MAX_INT_DIGITS, unknown label, non-cyclic or otherwise unsupported
class or group), 4 mathematical failures on valid input
(singular metric values, an operator whose certified spectrum misses
dimensions or leaves Q, an infeasible exact system).

The front (this module, groups and errors) reads the input and runs every
check that needs nothing else, PRECONDITIONS per command, in the order the
command's layers would raise them.  Only an input that passes imports
reporting, its report's module and the layers it runs, so a refusal
compiles no layer and gives the exit code and message the layer itself
would.  Every command then runs the same way: its report, named in its
row beside its checks and read off its module (report_of), is called
with one reporting.Geometry of the class and the modulus.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import re
import sys
from fractions import Fraction

from .errors import (
    CayleyValidationError,
    GroupGeoError,
    NonCyclicClassError,
    UnsupportedGroupError,
)
from .groups import (FiniteGroup, conjugacy_class, dihedral, dihedral_structure, quoted,
                     require_chart_class, require_invertible_metric, require_regular_casimir)

USAGE_EXIT = 2
VALIDATION_EXIT = 3
PRECONDITION_EXIT = 4

# largest builtin dihedral:N; its (2N)^2 table is validated by Light's
# associativity test in O(N^2 log N)
MAX_DIHEDRAL = 256

# longest --mu text accepted; the report integers grow with its digits, and
# dihedral:3 report-all at this length takes a few seconds
MAX_MU_LENGTH = 2000

# longest --out path accepted, Linux's PATH_MAX; a longer one is refused by
# its length before the file system is asked about it
MAX_OUT_LENGTH = 4096

# a plain rational or decimal in ASCII digits; exponents are refused
# because Fraction would expand "1e999999999" into a billion-digit integer
# first, and other scripts' digits because Fraction reads them too
_MU_SYNTAX = re.compile(r"[+-]?(\d+(/\d+)?|\d*\.\d+)", re.ASCII)

_CHECKS = {
    "chart": lambda cls, mu: require_chart_class(cls),
    "metric": lambda cls, mu: require_invertible_metric(cls.size, mu),
    "dihedral": lambda cls, mu: dihedral_structure(cls.group),
    "casimir": lambda cls, mu: require_regular_casimir(mu),
}


def _module(name: str):
    return importlib.import_module(f"{__package__}.{name}")


# one row per command: the checks its layers make of the input alone, in
# the order they make them, which refuse an input before any layer loads
# with the layer's own error; and its report, read off its module when run
_ROWS = {
    "calculus": ((), lambda: _module("geometry_reports").calculus_report),
    "connection": (("chart", "metric"), lambda: _module("geometry_reports").connection_report),
    "curvature": (("chart",), lambda: _module("geometry_reports").curvature_report),
    "ricci": (("chart",), lambda: _module("geometry_reports").ricci_report),
    "dirac": (("dihedral", "chart", "metric", "casimir"),
              lambda: _module("spinor_reports").dirac_report),
    "wave": (("metric",), lambda: _module("spinor_reports").wave_report),
    "spectral-action": (("dihedral", "chart", "metric", "casimir"),
                        lambda: _module("spinor_reports").spectral_action_report),
    "report-all": (("chart", "metric", "dihedral", "casimir"),
                   lambda: _module("reporting").full_report),
}
PRECONDITIONS = {cmd: checks for cmd, (checks, _) in _ROWS.items()}
COMMANDS = tuple(_ROWS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupgeo",
        description="Exact noncommutative Riemannian geometry of a finite "
                    "group from a chosen conjugacy class.")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--group", metavar="NAME:PARAM",
                        help="builtin group family, e.g. dihedral:6")
    source.add_argument("--cayley", metavar="PATH",
                        help="JSON Cayley table file with names and table")
    parser.add_argument("--class", dest="class_label", metavar="LABEL",
                        required=True,
                        help="representative element of the conjugacy class")
    parser.add_argument("--mu", default="0", metavar="P/Q",
                        help="rational metric modulus (default 0)")
    parser.add_argument("--cmd", required=True, choices=COMMANDS,
                        help="which computation to run")
    parser.add_argument("--out", metavar="PATH",
                        help="write the report here instead of stdout")
    parser.add_argument("--pretty", action="store_true",
                        help="indent the JSON output")
    return parser


def parse_group_spec(spec: str) -> FiniteGroup:
    """Resolve a builtin group spec of the form name:param."""
    name, sep, param = spec.partition(":")
    if not sep or not param:
        raise ValueError(f"group spec {quoted(spec)} must look like name:param")
    if name == "dihedral":
        # int() would also read spaces, signs, underscores and non-ASCII digits
        if not (param.isascii() and param.isdigit()):
            raise ValueError(f"dihedral parameter {quoted(param)} is not in ASCII digits")
        if len(param) > MAX_DIHEDRAL:
            # refused unconverted and not echoed: it could be any length
            raise ValueError(f"dihedral parameter of {len(param)} digits exceeds "
                             f"the limit of {MAX_DIHEDRAL}")
        n = int(param)
        if n < 1:
            raise ValueError(f"dihedral parameter must be positive, got {n}")
        if n > MAX_DIHEDRAL:
            raise ValueError(
                f"dihedral parameter {n} exceeds the limit of {MAX_DIHEDRAL}")
        return dihedral(n)
    raise UnsupportedGroupError(f"no builtin group family named {quoted(name)}")


def _parse_mu(text: str) -> Fraction:
    """The --mu value as an exact rational; ValueError on anything else."""
    if not _MU_SYNTAX.fullmatch(text):
        raise ValueError(f"not a plain rational: {text!r}")
    return Fraction(text)


def report_of(cmd: str):
    """The function that runs cmd's report, read off its module each time,
    so a patched attribute is the one that runs."""
    return _ROWS[cmd][1]()


def _build_report(args, group: FiniteGroup, mu: Fraction) -> dict:
    cls = conjugacy_class(group, args.class_label)
    cls.require_calculus_admissible()
    for check in PRECONDITIONS[args.cmd]:
        _CHECKS[check](cls, mu)
    # the layers load only for an accepted input, and each report loads
    # only the layers it runs
    from .reporting import Geometry

    return report_of(args.cmd)(Geometry(cls, mu))


def render(report: dict, pretty: bool) -> str:
    from .reporting import to_json

    layout = {"indent": 2} if pretty else {"separators": (",", ":")}
    return json.dumps(to_json(report), sort_keys=True, **layout) + "\n"


def main(argv=None) -> int:
    # Python's 4300-digit int <-> str cap, which _run lifts for the report
    # integers once the group is loaded; a limit of 0 means none, as on
    # Pythons before 3.10.7, which lack the functions
    limit = getattr(sys, "get_int_max_str_digits", int)()
    try:
        return _run(argv, limit)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _refused(code: int, message: str) -> int:
    """Print message as the error of exit code `code` and return the code."""
    kind = {USAGE_EXIT: "usage", VALIDATION_EXIT: "validation"}.get(code, "precondition")
    print(f"error({kind}): {message}", file=sys.stderr)
    return code


def _run(argv, limit: int) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    if args.out == "":
        return _refused(USAGE_EXIT, "--out is an empty path")
    if args.out and len(args.out) > MAX_OUT_LENGTH:
        return _refused(USAGE_EXIT, f"--out has {len(args.out)} characters, more than "
                                    f"the limit of {MAX_OUT_LENGTH}")
    if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        return _refused(USAGE_EXIT, f"--out directory does not exist: {args.out!r}")
    if args.out and os.path.isdir(args.out):
        return _refused(USAGE_EXIT, f"--out names a directory: {args.out!r}")
    if len(args.mu) > MAX_MU_LENGTH:
        return _refused(USAGE_EXIT, f"--mu has {len(args.mu)} characters, more than "
                                    f"the limit of {MAX_MU_LENGTH}")
    try:
        mu = _parse_mu(args.mu)
    except (ValueError, ZeroDivisionError):
        return _refused(USAGE_EXIT, f"--mu must be a rational like 1/3, got {args.mu!r}")
    try:
        if args.group is not None:
            try:
                group = parse_group_spec(args.group)
            except ValueError as exc:
                return _refused(USAGE_EXIT, str(exc))
        else:
            group = FiniteGroup.from_json_file(args.cayley)
        # lifted only once the table is read, whose integers the reader
        # refuses past groups.MAX_INT_DIGITS
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            group.index(args.class_label)
        except KeyError as exc:
            return _refused(VALIDATION_EXIT, exc.args[0])
        report = _build_report(args, group, mu)
    except (CayleyValidationError, NonCyclicClassError, UnsupportedGroupError,
            OSError) as exc:
        return _refused(VALIDATION_EXIT, str(exc))
    except GroupGeoError as exc:
        # the input is valid; the mathematics refuses it
        return _refused(PRECONDITION_EXIT, str(exc))
    text = render(report, args.pretty)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            return _refused(USAGE_EXIT, f"cannot write --out {args.out!r}: {exc}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
