"""Every name a module of the package imports is used: read somewhere in
the module, or re-exported through its ``__all__``.  (Packages'
``__init__`` modules import to re-export, and are left out.)"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def _unused(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read | exported)


def test_the_scan_sees_an_unused_import():
    assert _unused("import math\nimport os\nos.getcwd()\n") == [(1, "math")]
    assert _unused("from a import b, c\n__all__ = ['b']\n") == [(1, "c")]
    assert _unused("import a.b\na.b.f()\n") == []


def test_modules_use_what_they_import():
    unused = [f"{path.relative_to(PACKAGE)}:{line}: {name}"
              for path in MODULES for line, name in _unused(path.read_text())]
    assert not unused, "imported, never read:\n" + "\n".join(unused)
