"""Every name a qres module imports is used in that module, listed in its
``__all__``, or imported on a line marked ``# noqa: F401`` with the reason
it is kept (as for a name that an outside tracer patches); and every name in
an ``__all__`` resolves to an attribute of its module."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import qres

_SOURCES = sorted(Path(qres.__file__).parent.glob("*.py"))

# the marker must be followed by a reason
_MARKED = re.compile(r"#\s*noqa:\s*F401\s+\S")


def _unused_imports(text: str) -> list:
    """Imported names of the module source ``text`` that are neither used,
    exported through ``__all__`` nor marked with a reason."""
    tree = ast.parse(text)
    lines = text.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name in used or name in exported or _MARKED.search(lines[alias.lineno - 1]):
                continue
            unused.append(name)
    return unused


def test_the_guard_flags_unused_and_unexplained_imports():
    source = (
        "import os\n"
        "import sys  # noqa: F401\n"
        "import re  # noqa: F401  (a tracer patches it)\n"
        "from json import (\n"
        "    dumps,\n"
        "    loads,\n"
        ")\n"
        "import numpy as np\n"
        "__all__ = ['dumps']\n"
        "x = np.zeros(1)\n"
    )
    assert _unused_imports(source) == ["os", "sys", "loads"]


@pytest.mark.parametrize("path", _SOURCES, ids=[path.name for path in _SOURCES])
def test_no_module_imports_a_name_it_does_not_use(path):
    assert _unused_imports(path.read_text()) == []


_MODULES = [qres] + [
    importlib.import_module(f"qres.{path.stem}")
    for path in _SOURCES
    if not path.stem.startswith("__")
]


@pytest.mark.parametrize("module", _MODULES, ids=[module.__name__ for module in _MODULES])
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", [])
    assert [name for name in exported if not hasattr(module, name)] == []
