"""The public API: every exported name resolves, and README's library
tour runs as written."""

import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("module", ["matpencil", "matpencil.eigenstructure",
                                    "matpencil.backward"])
def test_star_import_resolves(module):
    """A stale __all__ entry makes `from module import *` raise."""
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(importlib.import_module(module).__all__) <= set(namespace)


def test_readme_library_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert out.getvalue().count("\n") == 3
