"""Command line frontend.

One job per invocation: pick a group (a builtin family like ``dihedral:6``
or a Cayley-table JSON file), a conjugacy class by representative label, a
rational metric modulus, and a command; the result is a deterministic JSON
report on stdout or in a file.  Identical inputs give byte-identical bytes.

Exit codes: 0 success, 2 usage errors (including an --out path that is a
directory, lies in a missing directory or cannot be written, and a
``dihedral:N`` above MAX_DIHEDRAL), 3 validation failures (bad Cayley table,
unknown label, non-cyclic or otherwise unsupported class or group), 4
mathematical failures on valid input (singular metric values, a candidate
spectrum that misses dimensions, an infeasible exact system).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .calculus import differential_calculus
from .errors import (
    CayleyValidationError,
    GroupGeoError,
    NonCyclicClassError,
    UnsupportedGroupError,
)
from .groups import FiniteGroup, conjugacy_class, dihedral
from . import reporting

USAGE_EXIT = 2
VALIDATION_EXIT = 3
PRECONDITION_EXIT = 4

# largest builtin dihedral:N; its (2N)^2 table is validated in O(N^3)
MAX_DIHEDRAL = 256

# a plain rational or decimal; exponents are refused because Fraction
# would expand "1e999999999" into a billion-digit integer first
_MU_SYNTAX = re.compile(r"[+-]?(\d+(/\d+)?|\d*\.\d+)")

COMMANDS = ("calculus", "connection", "curvature", "ricci", "dirac", "wave",
            "spectral-action", "report-all")


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
        raise ValueError(f"group spec {spec!r} must look like name:param")
    if name == "dihedral":
        try:
            n = int(param)
        except ValueError:
            raise ValueError(f"dihedral parameter {param!r} is not an integer")
        if n < 1:
            raise ValueError(f"dihedral parameter must be positive, got {n}")
        if n > MAX_DIHEDRAL:
            raise ValueError(
                f"dihedral parameter {n} exceeds the limit of {MAX_DIHEDRAL}")
        return dihedral(n)
    raise UnsupportedGroupError(f"no builtin group family named {name!r}")


def _parse_mu(text: str) -> Fraction:
    """The --mu value as an exact rational; ValueError on anything else."""
    if not _MU_SYNTAX.fullmatch(text):
        raise ValueError(f"not a plain rational: {text!r}")
    return Fraction(text)


def _build_report(args, group: FiniteGroup, mu: Fraction) -> dict:
    cls = conjugacy_class(group, args.class_label)
    cls.require_calculus_admissible()
    if args.cmd == "report-all":
        return reporting.full_report(group, cls, mu)
    if args.cmd == "wave":
        return reporting.wave_report(cls, mu)
    cal = differential_calculus(cls)
    if args.cmd == "calculus":
        return reporting.calculus_report(cal)
    if args.cmd == "connection":
        return reporting.connection_report(cal, mu)
    if args.cmd == "curvature":
        return reporting.curvature_report(cal)
    if args.cmd == "ricci":
        return reporting.ricci_report(cal)
    if args.cmd == "dirac":
        return reporting.dirac_report(cal, mu)
    if args.cmd == "spectral-action":
        return reporting.spectral_action_report(cal, mu)
    raise AssertionError(f"unhandled command {args.cmd}")


def render(report: dict, pretty: bool) -> str:
    if pretty:
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        print(f"error(usage): --out directory does not exist: {args.out!r}",
              file=sys.stderr)
        return USAGE_EXIT
    if args.out and os.path.isdir(args.out):
        print(f"error(usage): --out names a directory: {args.out!r}",
              file=sys.stderr)
        return USAGE_EXIT
    try:
        mu = _parse_mu(args.mu)
    except (ValueError, ZeroDivisionError):
        print(f"error(usage): --mu must be a rational like 1/3, got "
              f"{args.mu!r}", file=sys.stderr)
        return USAGE_EXIT
    try:
        if args.group is not None:
            try:
                group = parse_group_spec(args.group)
            except ValueError as exc:
                print(f"error(usage): {exc}", file=sys.stderr)
                return USAGE_EXIT
        else:
            group = FiniteGroup.from_json_file(args.cayley)
        try:
            group.index(args.class_label)
        except KeyError:
            print(f"error(validation): no element named {args.class_label!r} "
                  f"in group {group.name}", file=sys.stderr)
            return VALIDATION_EXIT
        report = _build_report(args, group, mu)
    except (CayleyValidationError, NonCyclicClassError, UnsupportedGroupError,
            OSError) as exc:
        print(f"error(validation): {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    except GroupGeoError as exc:
        # the input is valid; the mathematics refuses it
        print(f"error(precondition): {exc}", file=sys.stderr)
        return PRECONDITION_EXIT
    text = render(report, args.pretty)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error(usage): cannot write --out {args.out!r}: {exc}",
                  file=sys.stderr)
            return USAGE_EXIT
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
