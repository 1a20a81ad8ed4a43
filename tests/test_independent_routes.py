"""The contraction routes share no assembly code with the matrix routes.

eq5, eq38, eq39, eq60, remQT-a/b and eq27 each evaluate an identity a
second time to guard its matrix-route evaluation against indexing
mistakes. That holds only while they contract the nonzero entries of the
structure constants (the cubes, R's coefficients, the twists' and the
actions' columns) through hom_structures._contract, never through the map
algebra (composition, Kronecker products, tensor-factor permutations) or
the stored product and coproduct maps that the matrix route uses. Where
the two routes build the same map, the formed maps must be equal, not
only the verdicts.
"""

import ast
import os
from itertools import chain

import pytest
from hypothesis import given, strategies as st

from conftest import group_comul_cube, group_mul_cube, sweedler_h4
from homcat.exact_tensor import GF, QQ, LinMap, Product
from homcat.hom_structures import (
    _comodule_laws, _contraction_coassoc, yau_twist_bialgebra,
)
from homcat.qt_braiding import (
    RMatrix, _braiding_elementwise, _r_condition_checks, braiding_from_r,
)
from homcat.rep_theory import regular_module, twist_module

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "homcat")

ROUTES = {
    "hom_structures.py": ("_contract", "_join", "_picker", "_cube_terms",
                          "_map_terms", "_contraction_coassoc"),
    "qt_braiding.py": ("_r_terms", "_action_terms", "_contract_eq38",
                       "_contract_coproduct_splitting",
                       "_braiding_elementwise"),
}

# the matrix route's input maps; a contraction route reads the cubes
MATRIX_INPUTS = {"mul_linmap", "comul_linmap"}

MAP_ALGEBRA = {"compose", "compose_all", "compose_kron", "kron",
               "kron_all", "kron_compose", "lazy", "pair_compose",
               "permute_rows", "permute_cols", "permute_tensor", "flip_map",
               "cube_map", "map_cube"}


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


def read_attributes(func):
    """Attribute names read in a function body."""
    return {node.attr for node in ast.walk(func)
            if isinstance(node, ast.Attribute)}


def test_scan_sees_attribute_reads():
    tree = ast.parse("def f(H):\n    return g(H.mul_linmap).rows\n")
    assert read_attributes(tree.body[0]) == {"mul_linmap", "rows"}


@pytest.mark.parametrize("filename,name", [
    (f, n) for f, names in sorted(ROUTES.items()) for n in names])
def test_contraction_route_reads_no_matrix_route_input(filename, name):
    # sharing mul_linmap or comul_linmap with the matrix route would let
    # one layout slip reach both sides of an identity unseen
    assert read_attributes(functions(filename)[name]) & MATRIX_INPUTS == set()


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


# ------------------------------------------------ the routes agree on sides

FIELDS = (QQ, GF(5))


@st.composite
def bialgebra_with_r(draw):
    """A Yau-twisted group bialgebra of dim 1-4, or Sweedler's H4, with a
    random element R of its tensor square, over Q or GF(5)."""
    field = draw(st.sampled_from(FIELDS))
    if draw(st.booleans()):
        H = sweedler_h4(field)
    else:
        n = draw(st.integers(1, 4))
        k = draw(st.integers(0, n))
        endo = LinMap.from_terms(field, n, n, ((i * k % n, i, 1)
                                               for i in range(n)))
        H = yau_twist_bialgebra(group_mul_cube(n), group_comul_cube(n), endo)
    coeffs = draw(st.lists(st.sampled_from((0, 0, 1, -1, 2, "1/2")),
                           min_size=H.dim ** 2, max_size=H.dim ** 2))
    return H, RMatrix(field, H.dim, coeffs)


def formed(side):
    return side.form() if isinstance(side, Product) else side


@given(bialgebra_with_r())
def test_matrix_and_contraction_routes_build_the_same_sides(case):
    # each matrix-route side, formed, equals its contraction twin as a map;
    # a verdict can survive an indexing slip, a formed side cannot
    H, R = case
    sides = {axiom: (formed(lhs), formed(rhs))
             for axiom, lhs, rhs, _, _ in chain(
                 _r_condition_checks(H, R),
                 _comodule_laws(H, H.comul_linmap, H.psi, ("eq3", "eq4")))}
    sides["eq5"] = _contraction_coassoc(H.field, H.comul, H.psi)
    for matrix, contraction in (("eq29", "eq38"), ("eq30", "eq39"),
                                ("eq31", "eq60"), ("eq4", "eq5")):
        assert sides[matrix] == sides[contraction], (matrix, contraction)
    U = regular_module(H)
    V = twist_module(H, U, "F")
    for M, N in ((U, U), (U, V), (V, U)):
        assert braiding_from_r(H, R, M, N) == \
            _braiding_elementwise(H, R, M, N)
