"""Child CPU of one CLI command in two source trees.

Runs ``python -m groupgeo.cli ARGS`` as N children in each of two source
trees (each a checkout holding src/groupgeo), in N pairs that alternate
which tree runs first.  Each child compiles the package from source, as the
benchmark's children do on a fresh checkout: it imports the package from a
copy of the tree's src made without its __pycache__ directories, at paths
of equal length for both trees, and writes no bytecode
(PYTHONDONTWRITEBYTECODE); the standard library keeps its bytecode.  The
child runs in the tree itself, so relative paths in the arguments work,
and its report goes to a temporary file.  For each tree the script prints
the median and quartiles of the children's user + sys CPU seconds, read
from os.wait4.  Then it prints the median and quartiles of the per-pair
difference, change minus base, and how many pairs each tree won.  The
machine's speed drifts between pairs, which moves both children of a pair
alike and widens each tree's own spread, so the paired difference is the
figure to read: two trees' medians can differ by more than their median
difference does.  Even two identical trees read about a millisecond apart
(+1.2 ms over 20 pairs of a D6 command, the second tree lower in 7), so a
paired median under 2 ms needs a run of the base against a copy of itself
before it is trusted.  Last it says whether the runs meet the rule for
claiming a gain: the change is lower in at least nine tenths of the pairs
(a tie counts for neither tree), and its median is lower than the base's
by more than the base's quartile spread (IQR).  The script exits 1 if a
child's exit code or the sha256 of its report (none for a refused input,
which writes no report) differs between the trees or from one run to the
next, so a refactor is timed by the same tool that shows its output did
not move.

Run from anywhere:

    python tools/child_cpu.py BASE CHANGE [-n 20] -- --group dihedral:6 \\
        --class sr --cmd report-all

Only the standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def child_cpu(tree: str, src: str, argv: list[str], env: dict,
              out: str) -> tuple[tuple[int, str | None], float]:
    """(Exit code, sha256 of the report or None) and user + sys CPU seconds
    of one CLI child run in tree with the package imported from src and
    its report written to out."""
    if os.path.exists(out):
        os.remove(out)
    proc = subprocess.Popen(
        [sys.executable, "-m", "groupgeo.cli", *argv, "--out", out],
        cwd=tree, env=dict(env, PYTHONPATH=src),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    # reaped here, so Popen must not wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    digest = None
    if os.path.exists(out):
        with open(out, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
    return (proc.returncode, digest), usage.ru_utime + usage.ru_stime


def summary(values: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"median {median:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  IQR {q3 - q1:.4f}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # everything after the first -- is the command's own
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        usage="%(prog)s BASE CHANGE [-n N] -- CLI_ARGS...")
    parser.add_argument("base", help="source tree of the parent")
    parser.add_argument("change", help="source tree of the change")
    parser.add_argument("-n", type=int, default=20, help="pairs of children (default 20)")
    args = parser.parse_args(argv[:split])
    cli_args = argv[split + 1:]
    if args.n < 2 or not cli_args:
        parser.error("need n >= 2 and the CLI arguments after --")
    trees = {"base": os.path.abspath(args.base), "change": os.path.abspath(args.change)}
    cpu: dict[str, list[float]] = {name: [] for name in trees}
    outcomes: set[tuple[int, str | None]] = set()
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as scratch:
        # "base" and "change" copied to names of one length
        srcs = {name: os.path.join(scratch, name[0], "src") for name in trees}
        for name, tree in trees.items():
            shutil.copytree(os.path.join(tree, "src"), srcs[name],
                            ignore=shutil.ignore_patterns("__pycache__"))
        out = os.path.join(scratch, "report.json")
        for pair in range(args.n):
            order = list(trees) if pair % 2 == 0 else list(reversed(trees))
            for name in order:
                outcome, seconds = child_cpu(trees[name], srcs[name], cli_args, env, out)
                outcomes.add(outcome)
                cpu[name].append(seconds)
    for name, values in cpu.items():
        print(f"{name:<13} {summary(values)}  (n {len(values)})")
    pairs = list(zip(cpu["base"], cpu["change"]))
    print(f"{'change - base':<13} {summary([c - b for b, c in pairs])}  (n {len(pairs)} pairs)")
    wins = sum(c < b for b, c in pairs)
    print(f"change lower in {wins} of {args.n} pairs, "
          f"base lower in {sum(b < c for b, c in pairs)}")
    q1, _, q3 = statistics.quantiles(cpu["base"], n=4)
    gain = statistics.median(cpu["base"]) - statistics.median(cpu["change"])
    met = 10 * wins >= 9 * args.n and gain > q3 - q1
    print(f"claim rule {'met' if met else 'not met'}: change lower in {wins} of {args.n} "
          f"pairs (needs {-(-9 * args.n // 10)}), median lower by {gain:.4f} s "
          f"(needs more than the base IQR {q3 - q1:.4f})")
    if len(outcomes) != 1:
        print("exit codes or report sha256 differ: "
              + ", ".join(f"{code} {digest}" for code, digest in sorted(outcomes, key=str)),
              file=sys.stderr)
        return 1
    code, digest = outcomes.pop()
    print(f"exit code {code} and report sha256 {digest} in every child")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
