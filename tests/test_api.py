import ast
import contextlib
import importlib
import importlib.util
import io
import re
from pathlib import Path

import pytest

import so3embed

MODULES = ("analysis", "cli", "embedding", "projection", "so3", "tensors")
README = Path(__file__).resolve().parent.parent / "README.md"
SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "so3embed").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_of_a_module_resolves(name):
    module = importlib.import_module(f"so3embed.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_every_exported_name_of_the_package_resolves():
    # the names of analysis and projection resolve on first access (PEP 562)
    assert [attr for attr in so3embed.__all__ if not hasattr(so3embed, attr)] == []
    assert len(set(so3embed.__all__)) == len(so3embed.__all__)
    assert set(so3embed.__all__) <= set(dir(so3embed))
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        getattr(so3embed, "missing")


def test_every_name_the_benchmark_tracer_wraps_resolves():
    # bench/spans.py looks each (module, attribute) up with getattr when it
    # installs, and replaces cli.Rotation by its traced constructors
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS and spans.ROTATION_CTORS
    missing = [(mod, attr) for mod, attr, _ in spans.TARGETS if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []
    rotation = importlib.import_module("so3embed.cli").Rotation
    assert [name for name in spans.ROTATION_CTORS if not callable(getattr(rotation, name, None))] == []


def test_readme_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quick start\s+```python\n(.*?)```", text, re.S)
    assert block is not None
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block.group(1), "README quick start", "exec"), {})
    converged, residual, err = out.getvalue().split()
    assert converged == "True"
    assert float(residual) < 1e-6 and float(err) < 1e-8


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, as ``line: name``; a name
    in ``__all__`` is used, and an import marked ``# noqa: F401`` is exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read and name not in exported:
                unused.append(f"{node.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_of_a_module_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_only_embedding_names_the_block_budget():
    # embedding._row_blocks is the one reader of _BLOCK_ENTRIES; the other
    # modules cut their rows through it
    assert [path.name for path in SOURCES if "_BLOCK_ENTRIES" in path.read_text(encoding="utf-8")] == ["embedding.py"]
    assert "def _row_blocks" not in (SOURCES[0].parent / "cli.py").read_text(encoding="utf-8")


def test_only_dense_layout_reads_the_layout_digits():
    # embed writes and project reads a wide dense row by one class layout:
    # cli._dense_layout is the one function that reads _LAYOUT_DIGITS
    tree = ast.parse((SOURCES[0].parent / "cli.py").read_text(encoding="utf-8"))
    readers = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(n, ast.Name) and n.id == "_LAYOUT_DIGITS" for n in ast.walk(node))
    ]
    loads = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "_LAYOUT_DIGITS" and isinstance(n.ctx, ast.Load)]
    assert readers == ["_dense_layout"]
    assert len(loads) == 1


def _cli_functions_that(test) -> list[str]:
    """The names of the functions of ``cli`` with a node that passes ``test``,
    and the module level if a node outside them does."""
    tree = ast.parse((SOURCES[0].parent / "cli.py").read_text(encoding="utf-8"))
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    inside = {id(n) for f in functions for n in ast.walk(f)}
    names = [f.name for f in functions if any(test(n) for n in ast.walk(f))]
    return names + ["<module>"] * any(test(n) and id(n) not in inside for n in ast.walk(tree))


def test_only_table_rows_names_the_byte_order_mark():
    # the table reader drops the mark before any other code sees a line
    assert _cli_functions_that(lambda n: isinstance(n, ast.Constant) and "\ufeff" in str(n.value)) == ["_table_rows"]


def test_only_dense_layout_reads_the_class_maps():
    # the cross-component class numbering of a dense row is derived once
    assert _cli_functions_that(lambda n: isinstance(n, ast.Name) and n.id == "_classes" and isinstance(n.ctx, ast.Load)) == [
        "_dense_layout"
    ]


def test_unused_import_check_flags_an_unread_name_only():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import pi, tau as turn\n"
        "from sys import argv  # noqa: F401\n"
        "__all__ = ['pi']\n"
        "print(os.path.sep)\n"
    )
    assert unused_imports(source) == ["3: turn"]
