"""The contraction routes share no assembly code with the matrix routes.

eq5, eq38, eq39, eq60 and eq27 each evaluate an identity a second time to
guard its matrix-route evaluation against indexing mistakes. That holds
only while they build both sides entry by entry from the structure
constants, never through the map algebra (composition, Kronecker products,
tensor-factor permutations) that the matrix route uses.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "homcat")

ROUTES = {
    "hom_structures.py": ("_contraction_coassoc", "_contract_comul"),
    "qt_braiding.py": ("_contract_eq38", "_contract_coproduct_splitting",
                       "_contract_rr_side", "_braiding_elementwise"),
}

MAP_ALGEBRA = {"compose", "compose_all", "compose_kron", "kron",
               "kron_all", "kron_compose", "lazy", "pair_compose",
               "permute_rows", "permute_cols", "permute_tensor", "flip_map"}


def called_names(func):
    """Names of the functions and methods called in a function body."""
    names = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Attribute):
                names.add(f.attr)
            elif isinstance(f, ast.Name):
                names.add(f.id)
    return names


def functions(filename):
    with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}


def test_scan_sees_calls_and_method_calls():
    tree = ast.parse("def f(a, b):\n    return kron(a, b.compose(a)).rank()\n")
    assert called_names(tree.body[0]) == {"kron", "compose", "rank"}


@pytest.mark.parametrize("filename,name", [
    (f, n) for f, names in sorted(ROUTES.items()) for n in names])
def test_contraction_route_uses_no_map_algebra(filename, name):
    assert called_names(functions(filename)[name]) & MAP_ALGEBRA == set()


def imported_names(filename, *modules):
    """Names a source file imports from the given sibling modules."""
    with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return {a.asname or a.name for n in tree.body
            if isinstance(n, ast.ImportFrom) and n.module in modules
            for a in n.names}


def test_yd_braiding_calls_nothing_from_the_r_braiding_route():
    # _b_yd_map is the second route to the R-braiding of the Drinfeld
    # double (test_drinfeld_double_braiding_is_the_yd_braiding_over_ks3),
    # so it builds the braiding without rep_theory or qt_braiding
    shared = imported_names("yetter_drinfeld.py", "rep_theory", "qt_braiding")
    assert "tensor_module" in shared
    assert called_names(functions("yetter_drinfeld.py")["_b_yd_map"]) \
        & shared == set()
