"""Every name a module imports is read somewhere in that module."""

import ast
from pathlib import Path

import refinedcount

TESTS = Path(__file__).parent
PACKAGE = Path(refinedcount.__file__).parent


def unread_imports(source: str) -> list[str]:
    """Names bound by an import that no expression in the module reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    # a package's __init__ imports its exports, which it need not read
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    modules += sorted(TESTS.rglob("*.py"))
    assert len(modules) > 15
    unread = {p.name: names for p in modules
              if (names := unread_imports(p.read_text(encoding="utf-8")))}
    assert unread == {}
    assert unread_imports("from x import a, b as c\nimport d.e\nd.f(a)\n") == ["c"]
