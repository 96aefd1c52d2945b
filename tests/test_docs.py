"""The README's library example runs as written, the package ships no
public function or method that nothing calls, no module imports a name
it never uses or serves one through a module __getattr__, and no package
module imports another's private name."""

import ast
import os
import re

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
README = os.path.join(ROOT, "README.md")
PACKAGE = os.path.join(ROOT, "src", "groupgeo")
TESTS = os.path.dirname(__file__)


def _readme_python_blocks():
    with open(README, encoding="utf-8") as handle:
        return re.findall(r"^```python\n(.*?)^```", handle.read(),
                          re.MULTILINE | re.DOTALL)


def test_readme_python_example_runs(capsys):
    blocks = _readme_python_blocks()
    assert blocks, "README has no python example"
    for source in blocks:
        exec(compile(source, "README.md", "exec"), {})
    assert "dim=24" in capsys.readouterr().out


def _bound(node) -> set:
    """The names a function binds itself, its arguments and assignment
    targets: inside it they are locals, never a package function."""
    if not isinstance(node, ast.FunctionDef):
        return set()
    return {sub.arg for sub in ast.walk(node) if isinstance(sub, ast.arg)} | {
        sub.id for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Load)}


def _names(node, bound=frozenset()) -> set:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if sub.id not in bound:
                out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
    return out


def test_every_public_function_has_a_package_caller():
    public = []
    referenced = []  # (name, the statement it appears in)
    for filename in sorted(os.listdir(PACKAGE)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, filename), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename)
        for node in tree.body:
            # a class's methods are statements of their own, named
            # Class.method; the rest of the class (bases, slots) is one more
            members = [sub for sub in node.body if isinstance(sub, ast.FunctionDef)
                       ] if isinstance(node, ast.ClassDef) else []
            for sub in members:
                if not sub.name.startswith("_"):
                    public.append((f"{filename}:{node.name}.{sub.name}", sub))
                referenced += [(name, sub) for name in _names(sub, _bound(sub))]
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                public.append((f"{filename}:{node.name}", node))
            rest = [n for n in ast.iter_child_nodes(node) if n not in members]
            bound = _bound(node)
            referenced += [(name, node) for name in set().union(
                *(_names(n, bound) for n in rest))]
    for source in _readme_python_blocks():
        referenced += [(name, None) for name in _names(ast.parse(source))]
    # a function's own body (recursion, its docstring) is not a caller
    uncalled = [label for label, node in public
                if not any(name == node.name and where is not node
                           for name, where in referenced)]
    assert uncalled == []


def _unused_imports(path: str) -> list:
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    where = os.path.relpath(path, ROOT)
    return [f"{where}:{line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_imports():
    unused = []
    for directory in (PACKAGE, TESTS):
        for filename in sorted(os.listdir(directory)):
            if filename.endswith(".py"):
                unused += _unused_imports(os.path.join(directory, filename))
    assert unused == []


def test_no_module_resolves_names_lazily():
    # a module __getattr__ serves names no statement defines; every name is
    # an attribute of the module that defines it
    lazy = []
    for filename in sorted(os.listdir(PACKAGE)):
        if filename.endswith(".py"):
            with open(os.path.join(PACKAGE, filename), encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename)
            lazy += [f"{filename}:{node.lineno}" for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == "__getattr__"]
    assert lazy == []


def _private_imports(directory: str) -> list:
    """Every name with a leading underscore, dunders aside, that a module
    in directory imports from a sibling module (from .x import _y)."""
    found = []
    for filename in sorted(os.listdir(directory)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(directory, filename), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{filename}:{node.lineno}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def test_no_private_cross_module_imports():
    assert _private_imports(PACKAGE) == []
