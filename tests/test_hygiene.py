"""Source hygiene of the package modules."""

import ast
from pathlib import Path

import spatialcoal

PACKAGE = Path(spatialcoal.__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never references."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(name for name in imported if name not in used)


def test_modules_import_only_what_they_use():
    found = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in unused_imports(path.read_text())
    ]
    assert not found, "unused imports: " + ", ".join(found)
