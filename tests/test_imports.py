"""Every name a jbkit module imports is used there or listed in its ``__all__``.

The one exception is a binding kept for the benchmark's tracer, which
patches it by name (perfbench/tracer.py): ``rank_kernel`` in
``jbcomplex/assemble.py``.  Any other unused import is dead code left
behind by a refactor.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "jbkit"
PASS_THROUGH = {("jbcomplex/assemble.py", "rank_kernel")}
MODULES = sorted(p.relative_to(SRC).as_posix() for p in SRC.rglob("*.py"))


def unused_imports(source):
    """Names bound by an import statement that no expression reads and __all__ omits."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used | exported)


def test_the_scan_sees_every_module():
    assert "exactnum.py" in MODULES and "jbcomplex/assemble.py" in MODULES
    assert unused_imports("import os\nfrom math import gcd, lcm\nx = gcd\n") == ["lcm", "os"]
    assert unused_imports("from .a import b\n__all__ = ['b']\n") == []
    assert unused_imports("import os.path\nos.sep\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_what_it_uses_or_exports(module):
    unused = unused_imports((SRC / module).read_text())
    assert [n for n in unused if (module, n) not in PASS_THROUGH] == []
    for mod, name in PASS_THROUGH:
        if mod == module:
            assert name in unused, "%s is used now; drop it from PASS_THROUGH" % name
