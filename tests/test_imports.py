"""Every name a homcat module imports is used in that module.

No linter runs on this repository, so this AST scan stands in for the
unused-import rule. __init__.py is left out: its imports are re-exports.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "homcat")


def unused_imports(source):
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_scan_flags_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json\n"
              "from .m import a, b as c, d\n"
              "c(json.dumps(d))\n")
    assert unused_imports(source) == ["a", "os"]


@pytest.mark.parametrize("name", sorted(
    f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py"))
def test_module_has_no_unused_imports(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == [], name
