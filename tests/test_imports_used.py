"""Every name a module imports is read somewhere in it, so an import list
says what the module uses.  ``catkit/__init__.py`` is left out: its imports
are the package's re-exports.  Every error class is named by some other
module of the package, so none is left defined that nothing raises or
catches."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _modules():
    for folder in ("src/catkit", "tests", "scripts"):
        for path in sorted((ROOT / folder).glob("*.py")):
            if path.name != "__init__.py":
                yield path


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_the_scan_sees_an_unread_import():
    assert unused_imports("import os\nfrom x import a, b as c\nprint(a)\n") == [
        "line 1: os", "line 2: c"]


def test_every_imported_name_is_read():
    unused = {
        str(path.relative_to(ROOT)): found
        for path in _modules()
        if (found := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_every_error_class_is_named_elsewhere():
    errors = ast.parse((ROOT / "src/catkit/errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    named = set()
    for path in (ROOT / "src/catkit").glob("*.py"):
        if path.name != "errors.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            named |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            named |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert sorted(classes - named) == []
