"""List the statements of the groupgeo package that no input reaches.

The inputs are the behaviour-ledger grid (tests/ledger.py: seven Cayley
tables, one representative per non-identity class, every command and six
moduli) and the benchmark's commands on builtin groups
(perfbench/workloads.py: D6 report-all and the spinor sweep).  Each runs
in this process through cli.main, as the ledger replay runs it, under
sys.settrace.  A statement is reached when a line event fires on one of
its own lines: those of its extent outside its nested statements that
carry bytecode.  A statement with no such line (a docstring, try:) is
left out of the counts.

Per module the tool prints the count of unreached statements and each
run of consecutive unreached statements as a line range with the
function or class around it, then the exit codes of the runs.  It uses the
standard library and the grid builders of the test suite.

Run from the repository root:

    python tools/traffic.py [src-dir]

The package comes from src-dir, by default this checkout's src, and the
inputs always from this checkout, so two source trees can be compared on
the same inputs.
"""

import ast
import os
import sys
import tempfile
from collections import Counter

ROOT = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir))


def code_lines(code) -> set[int]:
    """The lines that code and the code objects nested in it map bytecode to."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


class Tracer:
    """Record the lines of package code that run.  A code object stops
    being traced once every line it holds has run, except its first,
    which a call does not report."""

    def __init__(self, files):
        self.files = set(files)
        self.hit = {path: set() for path in self.files}
        self._left = {}

    def __call__(self, frame, event, arg):
        code = frame.f_code
        left = self._left.get(code)
        if left is None:
            left = set()
            if code.co_filename in self.files:
                left = {line for _, _, line in code.co_lines() if line is not None}
                if code.co_name != "<module>":
                    left.discard(code.co_firstlineno)
            self._left[code] = left
        if not left:
            return None
        hit = self.hit[code.co_filename]

        def local(frame, event, arg):
            if event == "line":
                hit.add(frame.f_lineno)
                left.discard(frame.f_lineno)
                if not left:
                    return None
            return local

        return local


def _statements(tree: ast.AST):
    """(statement, the qualified name of the scope around it), in source order."""
    out = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, ast.ExceptHandler)):
                out.append((child, scope))
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            walk(child, inner)

    walk(tree, "")
    return sorted(out, key=lambda item: (item[0].lineno, item[0].col_offset))


def _own_lines(node) -> set[int]:
    """The lines of a statement's extent outside its nested statements."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    lines = set(range(first, node.end_lineno + 1))
    for child in ast.walk(node):
        if child is not node and isinstance(child, (ast.stmt, ast.ExceptHandler)):
            lines -= set(range(child.lineno, child.end_lineno + 1))
    return lines


def unreached(path: str, hit: set[int]) -> tuple[int, int, list[tuple[int, int, str]]]:
    """For one module: the number of statements with a line to observe, the
    number of those unreached, and the runs of consecutive unreached ones
    as (first line, last line, scope)."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    executable = code_lines(compile(source, path, "exec"))
    count = missed = 0
    runs = []
    previous_missed = False
    for node, scope in _statements(ast.parse(source)):
        own = _own_lines(node) & executable
        if not own:
            continue
        count += 1
        reached = bool(own & hit)
        if not reached:
            missed += 1
            if previous_missed and (runs[-1][2] == scope or node.lineno <= runs[-1][1]):
                first, last, where = runs[-1]
                runs[-1] = (first, max(last, node.end_lineno), where)
            else:
                runs.append((node.lineno, node.end_lineno, scope or "<module>"))
        previous_missed = not reached
    return count, missed, runs


def replay(src: str) -> tuple[Counter, Counter]:
    """Run every input in this process on the package in src; the exit
    codes of the ledger runs and of the benchmark runs."""
    sys.path[:0] = [src, os.path.join(ROOT, "tests"), os.path.join(ROOT, "perfbench")]
    import ledger
    import workloads

    ledger_codes = Counter()
    with tempfile.TemporaryDirectory() as directory:
        for name in ledger.TABLES:
            for result in ledger.table_outcomes(name, directory).values():
                ledger_codes[result["exit"]] += 1
    ops = workloads.build("d6-report-all", 7, {}) + workloads.sweep_ops()
    bench_codes = Counter(ledger.outcome(list(op.argv))["exit"] for op in ops)
    return ledger_codes, bench_codes


def _tally(codes: Counter) -> str:
    return ", ".join(f"{codes[c]} exit {c}" for c in sorted(codes))


def main(argv: list[str]) -> int:
    src = os.path.realpath(argv[0] if argv else os.path.join(ROOT, "src"))
    package = os.path.join(src, "groupgeo")
    files = sorted(os.path.join(package, name) for name in os.listdir(package)
                   if name.endswith(".py"))
    tracer = Tracer(files)
    sys.settrace(tracer)
    try:
        ledger_codes, bench_codes = replay(src)
    finally:
        sys.settrace(None)
    total = missed = 0
    for path in files:
        count, lost, runs = unreached(path, tracer.hit[path])
        total += count
        missed += lost
        print(f"{os.path.basename(path)}: {lost} of {count} statements unreached")
        for first, last, scope in runs:
            span = f"{first}" if first == last else f"{first}-{last}"
            print(f"  {span:<9} {scope}")
    print(f"total: {missed} of {total} statements unreached")
    print(f"ledger runs: {sum(ledger_codes.values())} ({_tally(ledger_codes)})")
    print(f"benchmark runs: {sum(bench_codes.values())} ({_tally(bench_codes)})")
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main(sys.argv[1:]))
    except BrokenPipeError:
        # the reader (head, say) stopped early: drop what is left unwritten
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(1)
