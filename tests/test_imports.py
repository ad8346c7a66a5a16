"""Every name a module imports is read somewhere in that module, every
name the test oracles define is read by a test or by another oracle, no
module of the package imports a private name of another, but for the
kernels `laurent` shares, and every private name the package's docs
name exists."""

import ast
import io
import re
import tokenize
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


def unused_definitions(source: str, imported: set[str]) -> list[str]:
    """Module-level names that neither `imported` holds nor the module reads
    outside their own definition (a recursive call is no use)."""
    body = ast.parse(source).body
    reads = [{n.id for n in ast.walk(node) if isinstance(n, ast.Name)
              and isinstance(n.ctx, ast.Load)} for node in body]
    unused = []
    for k, node in enumerate(body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        read = set().union(*reads[:k], *reads[k + 1:])
        unused += [name for name in names if name not in read | imported]
    return unused


def test_every_oracle_is_used():
    imported = {alias.name for p in sorted(TESTS.rglob("*.py"))
                for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) and node.module == "oracles"
                for alias in node.names}
    assert unused_definitions((TESTS / "oracles.py").read_text(encoding="utf-8"), imported) == []
    assert unused_definitions("A = 1\ndef f(n): return f(n - 1) + A\ndef g(): pass\n",
                              {"g"}) == ["f"]


# laurent's raw kernels and its JSON integer check are shared by design
SHARED_PRIVATE = {"laurent._ONE", "laurent._add", "laurent._mul", "laurent._mul_quantum",
                  "laurent._accumulate", "laurent._json_int"}


def private_imports(source: str) -> list[str]:
    """`module._name` for each _-prefixed name imported from a package module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("refinedcount.")):
            module = (node.module or "").removeprefix("refinedcount.")
            found += [f"{module}.{alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_of_another():
    crossing = {p.name: names for p in sorted(PACKAGE.glob("*.py"))
                if (names := sorted(set(private_imports(p.read_text(encoding="utf-8")))
                                    - SHARED_PRIVATE))}
    assert crossing == {}
    assert private_imports("from .a import _b, c\nfrom refinedcount.d import _e\n"
                           "from __future__ import _f\nfrom os import _g\n") == ["a._b", "d._e"]


def defined_names(source: str) -> set[str]:
    """Module-level names and class attributes."""
    body = ast.parse(source).body
    names = set()
    for node in body + [n for c in body if isinstance(c, ast.ClassDef) for n in c.body]:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def doc_text(source: str) -> str:
    """The docstrings and comments of a module."""
    docs = [ast.get_docstring(node, clean=False) or "" for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))]
    docs += [tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
             if tok.type == tokenize.COMMENT]
    return "\n".join(docs)


def named_private(text: str) -> set[str]:
    """Each _-prefixed name that opens a backticked span, after any `module.`."""
    return {name for name in re.findall(r"`(?:\w+\.)*(_\w+)[^`\n]*`", text)
            if not name.startswith("__")}


def test_docs_name_only_private_names_that_exist():
    # ROADMAP.md and CHANGES.md record history, so they may name what is gone
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    defined = set().union(*map(defined_names, sources))
    named = set().union(*(named_private(doc_text(s)) for s in sources))
    named |= named_private((TESTS.parent / "README.md").read_text(encoding="utf-8"))
    assert named and named - defined == set()
    assert named_private("`_a`'s `m._b(x)` `__init__.py` `c` _d") == {"_a", "_b"}
    assert defined_names("_A = 1\nclass C:\n    _b = 2\n    def f(self):\n"
                         "        self._c = _d = 3\n") == {"_A", "C", "_b", "f"}
