"""Imports: every name a clarikit module or test file imports is read
somewhere in that file, the CLI imports no private name, every name a
module lists in ``__all__`` exists, offline runs never load the HTTP
client, and only a run that hashes its config loads hashlib.

``__init__.py`` re-exports its imports and ``from __future__`` imports are
compiler directives, so neither counts.  A name read only inside a string
annotation counts as read.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
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


def test_the_cli_imports_no_private_name():
    # The CLI reaches the library through its public names only.
    tree = ast.parse(SOURCES["cli.py"].read_text(encoding="utf-8"), filename="cli.py")
    private = [
        (node.lineno, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("clarikit"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"cli.py imports private names: {private}"


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_resolves(module):
    mod = importlib.import_module(f"clarikit.{module.removesuffix('.py')}")
    listed = getattr(mod, "__all__", [])
    assert len(set(listed)) == len(listed), f"{module}: __all__ repeats a name"
    missing = [name for name in listed if not hasattr(mod, name)]
    assert not missing, f"{module}: __all__ lists names the module lacks: {missing}"


def test_public_modules_declare_all():
    for module in ("cli", "corpus", "generator", "harness", "metrics", "retrieval"):
        assert importlib.import_module(f"clarikit.{module}").__all__


def test_string_annotations_count_as_reads():
    tree = ast.parse(
        "from typing import Iterator\n"
        "import numpy as np\n"
        "def f(x: 'dict[str, np.ndarray]') -> 'Iterator[int]': ...\n"
    )
    assert set(imported_names(tree)) <= read_names(tree)
    assert "np" not in read_names(ast.parse("import numpy as np\nx = 'np'\n"))


# Run in a fresh interpreter, so no other test's imports are in sys.modules.
# It prints which of the remote path's modules are loaded after importing
# clarikit, after an extractive run_experiment at parallelism 4, and after an
# in-process `clarikit evaluate`.
OFFLINE_RUN = """
import json, sys
from pathlib import Path

import clarikit, clarikit.cli

REMOTE_ONLY = ("requests", "urllib3", "concurrent.futures")
loaded = lambda: [name for name in REMOTE_ONLY if name in sys.modules]
tmp = Path(sys.argv[1])
seen = [loaded()]

def write(name, rows):
    (tmp / name).write_text("".join(json.dumps(r) + "\\n" for r in rows), encoding="utf-8")

write("corpus.jsonl", [{"id": "d1", "text": "penny cast"}, {"id": "d2", "text": "penny show"}])
truth = [{"id": "i1", "query": "penny", "facets": ["cast", "show"]}]
write("instances.jsonl", truth)
write("generated.jsonl", [{"id": "i1", "facets": ["cast"]}])
config = {
    "corpus": str(tmp / "corpus.jsonl"),
    "instances": str(tmp / "instances.jsonl"),
    "retrieval": {"mode": "lexical", "alignment": "facet_aligned", "k": 5},
    "generator": {"kind": "extractive"},
    "seed": 1,
    "output_dir": str(tmp / "out"),
}
assert clarikit.run_experiment(config, parallelism=4).evaluated_count == 1
seen.append(loaded())
argv = ["evaluate", "--generated", str(tmp / "generated.jsonl"),
        "--truth", str(tmp / "instances.jsonl"), "--out", str(tmp / "evaluated.jsonl")]
assert clarikit.cli.main(argv) == 0
seen.append(loaded())
print(json.dumps(seen))
"""


def run_fresh(code: str, *args: str):
    """Run ``code`` in a fresh interpreter; its last stdout line, as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_offline_runs_never_import_the_http_client(tmp_path):
    after_import, after_experiment, after_evaluate = run_fresh(OFFLINE_RUN, str(tmp_path))
    assert after_import == after_experiment == after_evaluate == []


def test_importing_the_cli_never_loads_hashlib():
    # Only run_experiment's config hash needs it.
    code = (
        "import json, sys\n"
        "import clarikit, clarikit.cli\n"
        "print(json.dumps([m for m in ('hashlib', '_hashlib') if m in sys.modules]))\n"
    )
    assert run_fresh(code) == []
