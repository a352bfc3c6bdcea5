"""Source hygiene of the package modules."""

import ast
import subprocess
import sys
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


TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def module_constant(tree: ast.Module, name: str):
    """The literal value bound to a top-level name of a parsed module."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise KeyError(name)


def module_definitions(layer: str) -> tuple[set[str], dict[str, set[str]]]:
    """Public top-level functions and each class's methods of a package module."""
    tree = ast.parse((PACKAGE / f"{layer}.py").read_text())
    functions = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    classes = {
        node.name: {
            item.name for item in node.body if isinstance(item, ast.FunctionDef)
        }
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    return functions, classes


def test_benchmark_trace_hooks_name_package_code():
    # the tracer wraps these by name: a renamed method makes it raise, and a
    # renamed function makes its metric read 0 s
    tree = ast.parse(TRACING.read_text())
    methods = module_constant(tree, "METHODS")
    metrics = module_constant(tree, "_FUNCTION_METRICS")
    missing = []
    for layer, classes in methods.items():
        _, defined = module_definitions(layer)
        missing += [
            f"{layer}.{cls}.{meth}"
            for cls, meths in classes.items()
            for meth in meths
            if meth not in defined.get(cls, ())
        ]
    for _, _, spans in metrics.values():
        for span in spans:
            layer, *rest = span.split(".")
            functions, _ = module_definitions(layer)
            if len(rest) == 1:
                ok = rest[0] in functions
            else:
                ok = rest[1] in methods.get(layer, {}).get(rest[0], ())
            if not ok:
                missing.append(span)
    assert not missing, "trace hooks without a package definition: " + ", ".join(
        missing
    )


def test_cli_import_leaves_out_scipy_signal():
    # scipy.signal costs about 4 MiB of RSS and 0.1-0.3 s of import on
    # every run, and scipy.stats about 19 MiB and 0.85 s; the package needs
    # neither (scipy.stats is the tests' oracle only)
    code = (
        "import sys, spatialcoal.cli; "
        "print(sorted({'scipy.signal', 'scipy.stats'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=PACKAGE.parent,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def package_references() -> set[tuple[str, str]]:
    """(module, name) pairs that package code refers to: a name imported
    from a sibling module (an ``__init__`` export counts), or used in the
    module that defines it."""
    refs = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                refs.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Name):
                refs.add((path.stem, node.id))
    return refs


def traced_names() -> set[tuple[str, str]]:
    """(module, name) pairs that the benchmark tracer names, in a span
    string such as "forward.cannings_simulate" or in an import."""
    names = set()
    for node in ast.walk(ast.parse(TRACING.read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            layer, *rest = node.value.split(".")
            if rest:
                names.add((layer, rest[0]))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "spatialcoal."
        ):
            layer = node.module.split(".")[1]
            names.update((layer, alias.name) for alias in node.names)
    return names


def test_public_functions_have_package_callers():
    # a public function or class that only tests call is an oracle, and
    # belongs in tests/
    reached = package_references() | traced_names()
    unreached = [
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and (path.stem, node.name) not in reached
    ]
    assert not unreached, "public names without a package caller: " + ", ".join(
        unreached
    )
