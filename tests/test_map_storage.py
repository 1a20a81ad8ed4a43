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
STORAGE_ATTRS = {"_wrap", "data", "modulus", "_int_columns", "_sums"}


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


# Inside exact_tensor only these methods read the flat row-major tuple
# .data; everything else builds through from_terms and reads columns() or
# row_lists(), so a change of layout rewrites these alone. The writers
# __init__, _wrap and Product.form set the tuple without reading it.
LAYOUT_READERS = {
    "LinMap.entry", "LinMap.row_lists", "LinMap.columns",
    "LinMap.permute_rows", "LinMap.__eq__", "LinMap.__hash__",
}
LAYOUT_WRITERS = {"LinMap.__init__", "LinMap._wrap", "Product.form"}


def data_readers(source):
    """Qualified names of the top-level functions and methods (nested
    functions count as their enclosing one) that read an attribute .data."""
    found = set()
    for top in ast.parse(source).body:
        defs = ([(f"{top.name}.{d.name}", d) for d in top.body
                 if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))]
                if isinstance(top, ast.ClassDef) else [(None, top)])
        for name, node in defs:
            if any(isinstance(n, ast.Attribute) and n.attr == "data"
                   for n in ast.walk(node)):
                found.add(name or getattr(node, "name", "<module>"))
    return found


def test_scan_finds_data_reads_in_methods_and_nested_functions():
    assert data_readers("class A:\n"
                        "    def f(self):\n"
                        "        def g():\n"
                        "            return self.data\n"
                        "        return g\n"
                        "    def h(self):\n"
                        "        return self.columns()\n"
                        "def k(m):\n"
                        "    return m.data[0]\n"
                        "x = y.data\n") == {"A.f", "k", "<module>"}


def test_only_the_layout_methods_read_linmap_data():
    found = data_readers(_source("exact_tensor.py"))
    assert found - LAYOUT_WRITERS <= LAYOUT_READERS, sorted(
        found - LAYOUT_WRITERS - LAYOUT_READERS)


# A Kronecker product built only to be composed once goes through
# LinMap.compose_kron, kron_compose or pair_compose, which never store it.
def _is_kron(node):
    # a Kronecker product built in place, seen through any permute_rows
    # or permute_cols applied to it and through lazy(...)
    f = node.func if isinstance(node, ast.Call) else None
    if isinstance(f, ast.Name) and f.id == "lazy" and node.args:
        return _is_kron(node.args[0])
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
                         "v = f.pair_compose(g, m, k, 2)\n"
                         "u = lazy(kron(f, g)).compose(m)\n"
                         "t = lazy(m).compose(k)\n") == [
                             1, 2, 3, 4, 9, 10, 14]


def _source(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(
    f for f in os.listdir(SRC) if f.endswith(".py")))
def test_module_builds_no_kron_only_to_compose_it(name):
    assert kron_composed(_source(name)) == [], name
