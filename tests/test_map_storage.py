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
STORAGE_ATTRS = {"_wrap", "data", "modulus", "_int_columns", "_from_int_sums"}


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


# A Kronecker product built only to be composed once goes through
# LinMap.compose_kron, kron_compose or pair_compose, which never store it.
def _is_kron(node):
    # a Kronecker product built in place, seen through any permute_rows
    # or permute_cols applied to it
    f = node.func if isinstance(node, ast.Call) else None
    while (isinstance(f, ast.Attribute)
           and f.attr in ("permute_rows", "permute_cols")
           and isinstance(f.value, ast.Call)):
        f = f.value.func
    return (isinstance(f, ast.Name) and f.id == "kron"
            or isinstance(f, ast.Attribute) and f.attr == "kron")


def kron_composed(source):
    """Lines that compose with a Kronecker product built in place."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr == "compose":
            operands = [f.value, *node.args]
        elif isinstance(f, ast.Name) and f.id in ("compose", "compose_all"):
            operands = node.args
        else:
            continue
        if any(_is_kron(a) for a in operands):
            lines.add(node.lineno)
    return sorted(lines)


def test_scan_flags_krons_built_to_be_composed():
    assert kron_composed("a = m.compose(kron(f, g))\n"
                         "b = kron(f, g).compose(m)\n"
                         "c = compose(m, kron(f, g))\n"
                         "d = f.kron(g).compose(m)\n"
                         "e = m.compose_kron(f, g)\n"
                         "h = f.kron_compose(g, m)\n"
                         "k = kron(f, g)\n"
                         "x = k.compose(k)\n"
                         "y = kron(f, g).permute_rows(d, p).compose(m)\n"
                         "z = m.compose(kron(f, g).permute_cols(d, p)\n"
                         "              .permute_rows(d, p))\n"
                         "w = m.permute_cols(d, p).compose(k)\n"
                         "v = f.pair_compose(g, m, k, 2)\n") == [
                             1, 2, 3, 4, 9, 10]


def _source(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(
    f for f in os.listdir(SRC) if f.endswith(".py")))
def test_module_builds_no_kron_only_to_compose_it(name):
    assert kron_composed(_source(name)) == [], name
