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


def open_keyword_bags(source: str) -> list[str]:
    """Functions of a module that take a ``**kwargs`` parameter."""
    return sorted(
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.args.kwarg is not None
    )


def test_no_open_keyword_bags():
    # every setting a package function takes is a named parameter
    found = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in open_keyword_bags(path.read_text())
    ]
    assert not found, "open **kwargs parameters: " + ", ".join(found)
