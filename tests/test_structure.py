"""Structure rules of the package, checked on its source with ``ast``.

No module of ``skel2box`` uses a ``_``-prefixed name of another package
module: a helper that two modules share is public in one of them. The
package imports nothing outside the standard library and itself, and no
module imports a name that it never reads. JSON is read in one place,
``formats.load_json``, so every JSON input fails the same way; and CSV is read and written by ``formats.csv_rows`` and
``formats.csv_row``, not by the ``csv`` module. Errors are for failures
only: every class of ``errors.py`` but the base is raised somewhere, and
only ``cli.py`` catches one, so no module raises an error to steer its own
control flow. The error table of ``README.md`` names exactly the classes of
``errors.py``.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = "skel2box"
SOURCE_DIR = Path(__file__).resolve().parent.parent / "src" / PACKAGE
MODULES = sorted(SOURCE_DIR.glob("*.py"))
# The lean SHA-256 module is _sha256 up to Python 3.11 and _sha2 from 3.12, and
# sys.stdlib_module_names lists only the running interpreter's name of it.
STDLIB = sys.stdlib_module_names | {"_sha2", "_sha256"}


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


def unused_imports(source: str) -> list[str]:
    """Each name that an import in ``source`` binds and no other line reads.

    ``from x import a`` binds ``a``, ``import a.b`` binds ``a``, and ``as c``
    binds ``c``; ``from __future__`` imports bind nothing. A name is read
    wherever it stands as a name: in code, in an annotation, or as the root
    of an attribute such as ``a.b.c``.
    """
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in dict.fromkeys(bound) if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_checker_flags_each_form():
    source = "\n".join(
        [
            "from __future__ import annotations",
            "import json, os.path, xml.dom",
            "import numpy as np, math as m",
            "from typing import Any, NoReturn, Optional",
            "from .errors import ParseError as Refused, JoinError",
            "from . import formats",
            "def read(text: Optional[str]) -> Any:",
            "    return os.path.join(formats.load_json(text), m.pi)",
        ]
    )
    assert unused_imports(source) == ["json", "xml", "np", "NoReturn", "Refused", "JoinError"]


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
        if name.split(".")[0] not in STDLIB | {PACKAGE}
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
            "from _sha2 import sha256",
            "from _sha256 import sha256",
            "from . import formats",
            "from .geometry import BBox",
            "from skel2box.errors import ParseError",
            "from yaml import safe_load",
            "def later():",
            "    import attr",
        ]
    )
    assert non_stdlib_imports(source) == ["numpy.linalg", "yaml", "attr"]


def json_reads(source: str) -> list[str]:
    """The function around each call of ``json.load`` or ``json.loads`` in
    ``source``, or ``<module>`` at top level.

    Covers ``json.loads(...)``, ``import json as j`` then ``j.loads(...)``,
    and ``from json import loads`` (also renamed) then ``loads(...)``.
    """
    tree = ast.parse(source)
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names if alias.name == "json"}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "json":
            functions |= {
                alias.asname or alias.name for alias in node.names
                if alias.name in ("load", "loads")
            }

    def reads(func: ast.expr) -> bool:
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            return func.value.id in modules and func.attr in ("load", "loads")
        return isinstance(func, ast.Name) and func.id in functions

    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and reads(child.func):
                found.append(where)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else where)

    visit(tree, "<module>")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_json_is_read_only_by_load_json(path):
    expected = ["load_json"] if path.name == "formats.py" else []
    assert json_reads(path.read_text(encoding="utf-8")) == expected


def test_json_read_checker_flags_each_form():
    source = "\n".join(
        [
            "import json",
            "import json as j",
            "from json import loads, load as read",
            "doc = json.loads('1')",
            "def load_json(text):",
            "    return j.loads(text)",
            "class Result:",
            "    def from_json(self, fh):",
            "        return loads(fh.read()), read(fh)",
            "json.dumps(doc)",
            "other.loads('1')",
        ]
    )
    assert json_reads(source) == ["<module>", "load_json", "from_json", "from_json"]


def isfinite_calls(source: str) -> list[str]:
    """The function around each call of ``math.isfinite`` in ``source``, or
    ``<module>`` at top level.

    Covers ``math.isfinite(...)``, ``import math as m`` then ``m.isfinite(...)``,
    and ``from math import isfinite`` (also renamed) then ``isfinite(...)``.
    """
    tree = ast.parse(source)
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names if alias.name == "math"}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "math":
            functions |= {
                alias.asname or alias.name for alias in node.names if alias.name == "isfinite"
            }

    def checks(func: ast.expr) -> bool:
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            return func.value.id in modules and func.attr == "isfinite"
        return isinstance(func, ast.Name) and func.id in functions

    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and checks(child.func):
                found.append(where)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else where)

    visit(tree, "<module>")
    return found


def test_formats_checks_finiteness_only_in_floats():
    # One rule per kind of value: formats.py checks that a number is finite in
    # _floats alone, and every reader and writer goes through it.
    source = (SOURCE_DIR / "formats.py").read_text(encoding="utf-8")
    assert isfinite_calls(source) == ["_floats"]


def test_isfinite_checker_flags_each_form():
    source = "\n".join(
        [
            "import math",
            "import math as m",
            "from math import isfinite, isfinite as finite, isinf",
            "ok = math.isfinite(1.0)",
            "def _floats(column):",
            "    return m.isfinite(sum(column))",
            "class Writer:",
            "    def write(self, value):",
            "        return isfinite(value) and finite(value)",
            "math.isinf(1.0)",
            "isinf(1.0)",
            "other.isfinite(1.0)",
        ]
    )
    assert isfinite_calls(source) == ["<module>", "_floats", "write", "write"]


def csv_imports(source: str) -> list[str]:
    """Each import of the ``csv`` module or a submodule of it in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [name for name in names if name.split(".")[0] == "csv"]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_package_does_not_import_csv(path):
    assert csv_imports(path.read_text(encoding="utf-8")) == []


def test_csv_import_checker_flags_each_form():
    source = "\n".join(
        [
            "import csv",
            "import json, csv as c",
            "from csv import reader",
            "from . import csv_rows",
            "from .formats import csv_row",
            "import csvkit",
            "def later():",
            "    import _csv",
        ]
    )
    assert csv_imports(source) == ["csv", "csv", "csv"]


ERROR_CLASSES = [
    node.name
    for node in ast.parse((SOURCE_DIR / "errors.py").read_text(encoding="utf-8")).body
    if isinstance(node, ast.ClassDef)
]


def _class_names(node: ast.expr | None) -> list[str]:
    """The names in a ``raise`` or ``except`` expression: ``X``, ``X(...)``,
    ``errors.X`` and tuples of these."""
    if isinstance(node, ast.Call):
        return _class_names(node.func)
    if isinstance(node, ast.Tuple):
        return [name for elt in node.elts for name in _class_names(elt)]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Name):
        return [node.id]
    return []


def raised_and_caught(source: str) -> tuple[list[str], list[str]]:
    """The class names that ``source`` raises, and those its ``except`` clauses name."""
    raised, caught = [], []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            raised += _class_names(node.exc)
        elif isinstance(node, ast.ExceptHandler):
            caught += _class_names(node.type)
    return raised, caught


def test_error_classes_are_found():
    assert {"Skel2BoxError", "ParseError", "IncompleteSkeleton"} <= set(ERROR_CLASSES)


def test_every_error_class_is_raised():
    raised = set()
    for path in MODULES:
        raised.update(raised_and_caught(path.read_text(encoding="utf-8"))[0])
    assert [name for name in ERROR_CLASSES if name not in raised | {"Skel2BoxError"}] == []


@pytest.mark.parametrize(
    "path", [path for path in MODULES if path.name != "cli.py"], ids=lambda path: path.name
)
def test_only_the_cli_catches_package_errors(path):
    caught = raised_and_caught(path.read_text(encoding="utf-8"))[1]
    assert [name for name in caught if name in ERROR_CLASSES] == []


def test_error_checker_flags_each_form():
    source = "\n".join(
        [
            "from . import errors",
            "from .errors import ParseError",
            "try:",
            "    raise ParseError('x', location='line 1')",
            "except ParseError:",
            "    raise errors.JoinError('y') from None",
            "except (KeyError, errors.EmptyInput) as exc:",
            "    raise",
            "except:",
            "    raise InvalidConfig",
        ]
    )
    assert raised_and_caught(source) == (
        ["ParseError", "JoinError", "InvalidConfig"],
        ["ParseError", "KeyError", "EmptyInput"],
    )


def readme_error_classes(text: str) -> list[str]:
    """The class in the first cell of each row of the table under the
    ``## Errors`` heading of a README, in table order."""
    section = text.partition("\n## Errors\n")[2].split("\n## ", 1)[0]
    names = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("|") and cells[0].startswith("`") and cells[0].endswith("`"):
            names.append(cells[0].strip("`"))
    return names


def test_readme_error_table_lists_each_error_class():
    readme = (SOURCE_DIR.parent.parent / "README.md").read_text(encoding="utf-8")
    assert sorted(readme_error_classes(readme)) == sorted(ERROR_CLASSES)


def test_readme_error_checker_flags_each_form():
    text = "\n".join(
        [
            "## Library",
            "| `NotAnError` | a table in another section |",
            "## Errors",
            "Every error is a `Skel2BoxError`.",
            "",
            "| class | raised when |",
            "|---|---|",
            "| `Skel2BoxError` | base class |",
            "|`ParseError`| no spaces around the cells |",
            "| JoinError | no backticks: not a class cell |",
            "| `EmptyInput` | last row |",
            "",
            "## Determinism",
            "| `Later` | a table in a later section |",
        ]
    )
    assert readme_error_classes(text) == ["Skel2BoxError", "ParseError", "EmptyInput"]
