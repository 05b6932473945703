"""Every name a clarikit module or test file imports is read somewhere in that file.

``__init__.py`` re-exports its imports and ``from __future__`` imports are
compiler directives, so neither counts.  A name read only inside a string
annotation counts as read.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "clarikit"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
# Package modules are named by file name, test files by their path from the repo root.
SOURCES = {name: PACKAGE / name for name in MODULES} | {
    f"tests/{path.name}": path for path in sorted(TESTS.glob("*.py"))
}


def imported_names(tree: ast.AST) -> dict[str, int]:
    """Each name an import binds -> the line of that import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree: ast.AST) -> set[str]:
    """Names loaded anywhere in ``tree``, string annotations included."""
    read = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read |= read_names(ast.parse(node.value, mode="eval"))
    return read


def test_every_module_is_checked():
    assert {"cli.py", "corpus.py", "harness.py", "retrieval.py"} <= set(MODULES)
    assert {"tests/conftest.py", "tests/test_cli.py", "tests/test_retrieval.py"} <= set(SOURCES)


@pytest.mark.parametrize("module", SOURCES)
def test_no_unused_imports(module):
    tree = ast.parse(SOURCES[module].read_text(encoding="utf-8"), filename=module)
    read = read_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in read}
    assert not unused, f"{module}: imported but never read: {unused}"


def test_string_annotations_count_as_reads():
    tree = ast.parse(
        "from typing import Iterator\n"
        "import numpy as np\n"
        "def f(x: 'dict[str, np.ndarray]') -> 'Iterator[int]': ...\n"
    )
    assert set(imported_names(tree)) <= read_names(tree)
    assert "np" not in read_names(ast.parse("import numpy as np\nx = 'np'\n"))
