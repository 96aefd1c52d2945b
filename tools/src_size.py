"""Print the size of the package source: its line count and its AST node
count, every module, class and function docstring blanked, in total and
for each module, so that two runs name the modules that grew or shrank.
Then, for each
command the package's cli lists (cli.COMMANDS) on dihedral:6 at mu = 0,
mu = 1 and mu = -1/3, the package modules the command loads and their
summed line count, the package __init__ included.  mu = 0 runs the
eigenmode catalogs, mu = 1 stands for every other accepted modulus, which
skips them, and mu = -1/3 is refused by every command that reads the
metric.

The line count is that of the files as they stand.  The node count is
taken after each docstring's text is emptied, so a docstring weighs one
node whatever it says, and the figure measures code.  Each command runs in
a fresh interpreter, as a CLI process would, with its report written to
the null device.

Run from the repository root:

    python tools/src_size.py [package-dir]

The default package directory is src/groupgeo next to this script.
"""

import ast
import json
import os
import subprocess
import sys

MUS = ("0", "1", "-1/3")

# run one command and print its exit code and the package modules loaded
_PROBE = """
import json, os, sys
import groupgeo.cli
code = groupgeo.cli.main(sys.argv[1:] + ["--out", os.devnull])
print(json.dumps([code, sorted(m.partition(".")[2] for m in sys.modules
                               if m.startswith("groupgeo."))]))
"""

# the package's own command list
_COMMANDS = "import json, groupgeo.cli; print(json.dumps(groupgeo.cli.COMMANDS))"

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def blank_docstrings(tree: ast.AST) -> ast.AST:
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                first.value.value = ""
    return tree


def module_sizes(package: str) -> dict[str, tuple[int, int]]:
    """(lines, AST nodes) of each of the package's .py files, by module
    name."""
    sizes = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                text = fh.read()
            sizes[name[:-3]] = (len(text.splitlines()),
                                sum(1 for _ in ast.walk(blank_docstrings(ast.parse(text)))))
    return sizes


def _fresh(package: str, code: str, *argv: str):
    """The JSON that code prints in a fresh interpreter importing the
    package in package."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.abspath(package)))
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def command_loads(package: str, cmd: str, mu: str) -> tuple[int, list[str]]:
    """The exit code of a command on dihedral:6 and the package modules it
    loads, from a fresh interpreter."""
    code, modules = _fresh(package, _PROBE, "--group", "dihedral:6", "--class", "sr",
                           "--cmd", cmd, f"--mu={mu}")
    return code, modules


def main(argv: list[str]) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    package = argv[0] if argv else os.path.join(here, os.pardir, "src", "groupgeo")
    sizes = module_sizes(package)
    print(f"lines {sum(lines for lines, _ in sizes.values())}")
    print(f"ast_nodes {sum(nodes for _, nodes in sizes.values())}")
    for name, (lines, nodes) in sizes.items():
        print(f"module {name} lines {lines} ast_nodes {nodes}")
    commands = _fresh(package, _COMMANDS)
    for mu in MUS:
        for cmd in commands:
            code, modules = command_loads(package, cmd, mu)
            loaded = sum(sizes[name][0] for name in ["__init__"] + modules)
            print(f"loads dihedral:6 mu={mu} {cmd} exit {code} lines {loaded} "
                  f"modules {' '.join(modules)}")
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main(sys.argv[1:]))
    except BrokenPipeError:
        # the reader (head, say) stopped early: drop what is left unwritten
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(1)
