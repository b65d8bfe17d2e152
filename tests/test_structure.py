"""Structure rules of the package, checked on its source with ``ast``.

No module of ``skel2box`` uses a ``_``-prefixed name of another package
module: a helper that two modules share is public in one of them. And the
package imports nothing outside the standard library and itself.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = "skel2box"
SOURCE_DIR = Path(__file__).resolve().parent.parent / "src" / PACKAGE
MODULES = sorted(SOURCE_DIR.glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_uses(source: str) -> list[str]:
    """Each private name of a package module that ``source`` imports or reads.

    Covers ``from .mod import _x``, ``from skel2box.mod import _x``,
    ``import skel2box._mod`` and ``mod._x`` after ``from . import mod``.
    """
    tree = ast.parse(source)
    found = []
    module_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != PACKAGE:
                continue
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(f"{'.' * node.level}{module}:{alias.name}")
                elif (node.level > 0 and not module) or module == PACKAGE:
                    module_names.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == PACKAGE and any(_is_private(p) for p in parts[1:]):
                    found.append(alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_names
            and _is_private(node.attr)
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_package_modules_are_found():
    names = {path.name for path in MODULES}
    assert {"__init__.py", "cli.py", "errors.py", "formats.py", "geometry.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_name_crosses_modules(path):
    assert private_uses(path.read_text(encoding="utf-8")) == []


def test_checker_flags_each_form():
    source = "\n".join(
        [
            "from __future__ import annotations",
            "from . import formats",
            "from .formats import json_number, _load_json",
            "from skel2box.errors import _Located",
            "import skel2box._hidden",
            "formats._coco_box([], 'x')",
            "formats.__doc__",
            "self._cache = None",
        ]
    )
    assert private_uses(source) == [
        ".formats:_load_json",
        "skel2box.errors:_Located",
        "skel2box._hidden",
        "formats._coco_box",
    ]


def non_stdlib_imports(source: str) -> list[str]:
    """Each module that ``source`` imports by absolute name from outside the
    standard library and ``skel2box``."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [
        name for name in names
        if name.split(".")[0] not in sys.stdlib_module_names | {PACKAGE}
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_package_imports_only_the_standard_library(path):
    assert non_stdlib_imports(path.read_text(encoding="utf-8")) == []


def test_import_checker_flags_each_form():
    source = "\n".join(
        [
            "from __future__ import annotations",
            "import json, numpy.linalg",
            "from os import path",
            "from . import formats",
            "from .geometry import BBox",
            "from skel2box.errors import ParseError",
            "from yaml import safe_load",
            "def later():",
            "    import attr",
        ]
    )
    assert non_stdlib_imports(source) == ["numpy.linalg", "yaml", "attr"]
