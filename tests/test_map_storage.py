"""Only exact_tensor knows how a LinMap is stored.

Every other homcat module builds maps with LinMap.from_terms (or a
constructor on top of it) and reads them with columns(), entry or
row_lists. This AST scan fails if one of them calls LinMap._wrap, reads
.data or .modulus, or imports the _kernels_py kernels, any of which would
tie it to the flat row-major layout or to the mod-p reduction policy.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "homcat")

OWNERS = {"exact_tensor.py", "_kernels_py.py"}
STORAGE_ATTRS = {"_wrap", "data", "modulus"}


def storage_uses(source):
    """Sorted storage attributes read (as '.name') and kernel imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in STORAGE_ATTRS:
            found.add("." + node.attr)
        elif isinstance(node, ast.ImportFrom):
            names = (node.module or "").split(".")
            names += [a.name for a in node.names]
            if "_kernels_py" in names:
                found.add("_kernels_py")
        elif isinstance(node, ast.Import):
            if any("_kernels_py" in a.name.split(".") for a in node.names):
                found.add("_kernels_py")
    return sorted(found)


def test_scan_flags_storage_reads_and_kernel_imports():
    assert storage_uses("m = LinMap._wrap(f, 1, 1, (f.modulus,))\n"
                        "x = m.data\n") == ["._wrap", ".data", ".modulus"]
    for imp in ("from . import _kernels_py as _K\n",
                "from ._kernels_py import mat_mul\n",
                "import homcat._kernels_py\n"):
        assert storage_uses(imp) == ["_kernels_py"], imp
    assert storage_uses("from .exact_tensor import LinMap\n"
                        "m = LinMap.from_terms(f, 1, 1, [(0, 0, f.one)])\n"
                        "cols = m.columns()\nv = m.entry(0, 0)\n") == []


@pytest.mark.parametrize("name", sorted(
    f for f in os.listdir(SRC) if f.endswith(".py") and f not in OWNERS))
def test_module_leaves_map_storage_to_exact_tensor(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        assert storage_uses(fh.read()) == [], name
