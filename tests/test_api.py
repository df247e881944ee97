import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

import so3embed

MODULES = ("analysis", "cli", "embedding", "projection", "so3", "tensors")
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_of_a_module_resolves(name):
    module = importlib.import_module(f"so3embed.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_every_exported_name_of_the_package_resolves():
    assert [attr for attr in so3embed.__all__ if not hasattr(so3embed, attr)] == []
    assert len(set(so3embed.__all__)) == len(so3embed.__all__)


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
