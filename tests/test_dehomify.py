"""Constraint families, pentagon/hexagon checks and YD cross-checks."""

from itertools import product

import pytest

from conftest import cube, map_sizes, z2_bialgebra

from homcat.exact_tensor import (
    QQ, LinMap, diag, flip_map, identity, kron, zero_map,
)
from homcat.dehomify import (
    ConstraintFamily, build_b, build_c, check_hexagons, check_pentagon,
    cross_check_yd,
)
from homcat.yetter_drinfeld import b_yd, check_yd, yd_from_cubes, yd_tensor
from homcat.yetter_drinfeld import _cached_inverse as cached_inverse

Z2MUL = cube({(i, j, (i + j) % 2): 1 for i in range(2) for j in range(2)},
             (2, 2, 2))
REGCO = cube({(i, i, i): 1 for i in range(2)}, (2, 2, 2))
CONCO = cube({(i, 1, i): 1 for i in range(2)}, (2, 2, 2))
SIGN = cube({(h, m, m): (-1) ** (h * m) for h in range(2) for m in range(2)},
            (2, 2, 2))
TRIV = cube({(h, m, m): 1 for h in range(2) for m in range(2)}, (2, 2, 2))
ZEROC = cube({}, (2, 2, 2))


@pytest.fixture(scope="module")
def H():
    return z2_bialgebra()


@pytest.fixture(scope="module")
def pool(H):
    fixtures = {
        "A": yd_from_cubes(QQ, Z2MUL, CONCO, identity(2)),
        "B": yd_from_cubes(QQ, SIGN, REGCO, identity(2)),
        "C": yd_from_cubes(QQ, TRIV, REGCO, identity(2)),
        "Z": yd_from_cubes(QQ, ZEROC, ZEROC, diag([2, 3])),
    }
    for name, M in fixtures.items():
        assert check_yd(H, M).ok, name
    return fixtures


# ---------------------------------------------------------------- builders

def test_build_b_identity_components():
    assert build_b(identity(2), identity(3), (2, 1, 3)) == identity(6)


def test_build_b_scalar_components():
    b = build_b(diag([2]), diag([3]), (1, 1, 1))
    assert str(b.entry(0, 0)) == "3/2"


def test_build_c_identity_and_zero():
    d = flip_map(2, 3)
    assert build_c(identity(2), identity(3), d) == d
    assert build_c(diag([2, 5]), diag([3, 7, 11]),
                   zero_map(6, 6, QQ)).is_zero()


def test_builder_gates():
    with pytest.raises(ValueError, match="invertible"):
        build_b(diag([0]), identity(1), (1, 1, 1))
    with pytest.raises(ValueError, match="must map"):
        build_c(identity(2), identity(3), flip_map(2, 2))
    with pytest.raises(ValueError, match="invertible"):
        build_c(diag([1, 0]), identity(2), flip_map(2, 2))


# ---------------------------------------------------------------- pentagon

def test_pentagon_identity_components():
    fam = ConstraintFamily(QQ)
    for lab, dim in (("U", 2), ("V", 1), ("W", 3), ("X", 2)):
        fam.add_module(lab, identity(dim))
    rep = check_pentagon(fam, "U", "V", "W", "X")
    assert rep.ok and rep.checked == ["pentagon"]


def test_pentagon_scalar_components():
    fam = ConstraintFamily(QQ)
    for lab, s in (("U", 2), ("V", 3), ("W", 5), ("X", 7)):
        fam.add_module(lab, diag([s, s]))
    assert check_pentagon(fam, "U", "V", "W", "X").ok
    assert check_pentagon(fam, "X", "V", "U", "W").ok


def test_pentagon_generic_invertible_components():
    fam = ConstraintFamily(QQ)
    fam.add_module("U", LinMap.from_rows(QQ, [[1, 1], [0, 1]]))
    fam.add_module("V", LinMap.from_rows(QQ, [[2, 0], [1, 3]]))
    fam.add_module("W", LinMap.from_rows(QQ, [[0, 1], [1, 0]]))
    fam.add_module("X", LinMap.from_rows(QQ, [[1, 2], [3, 7]]))
    assert check_pentagon(fam, "U", "V", "W", "X").ok


def test_pentagon_missing_object():
    fam = ConstraintFamily(QQ)
    fam.add_module("U", identity(2))
    with pytest.raises(ValueError, match="missing family entry"):
        check_pentagon(fam, "U", "U", "U", "Y")


# ---------------------------------------------------------------- hexagons

def test_hexagons_with_flips():
    cf = ConstraintFamily(QQ)
    dims = {"U": 2, "V": 3, "W": 2}
    for lab, dim in dims.items():
        cf.add_module(lab, identity(dim))
    for u, v in [("U", "V"), ("U", "W"), ("V", "W")]:
        cf.add_pair_map(u, v, flip_map(dims[u], dims[v]))
    cf.add_pair_map("U", ("V", "W"), flip_map(2, 6))
    cf.add_pair_map(("U", "V"), "W", flip_map(6, 2))
    rep = check_hexagons(cf, cf, "U", "V", "W")
    assert rep.ok and rep.checked == ["hex1", "hex2"]


def test_hexagons_with_zero_braidings():
    cz = ConstraintFamily(QQ)
    dims = {"U": 2, "V": 3, "W": 2}
    for lab, dim in dims.items():
        cz.add_module(lab, diag(list(range(2, 2 + dim))))
    for u, v in [("U", "V"), ("U", "W"), ("V", "W")]:
        cz.add_pair_map(u, v, zero_map(dims[v] * dims[u], dims[u] * dims[v], QQ))
    cz.add_pair_map("U", ("V", "W"), zero_map(12, 12, QQ))
    cz.add_pair_map(("U", "V"), "W", zero_map(12, 12, QQ))
    assert check_hexagons(cz, cz, "U", "V", "W").ok
    with pytest.raises(ValueError, match="missing family entry"):
        cz.braid("V", "U")


def _outcome(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("triple", [
    ("U", "V", "W"), ("W", "U", "V"), (("U", "V"), "W", ("W", "U")),
    ("S", "U", "V"), ("U", "V", "S"), ("U", ("V", "S"), "W"),
    ("U", "V", ("W", "S")), ("O", "V", "S"), ("U", "O", "S"),
    ("U", "V", ("S", "O")), ("Y", "V", "S"), ("S", "Y", "Q"),
    ("B", "B", "Z"), (("B", "V"), "U", "Z"),
])
def test_assoc_inverse_is_the_inverted_associator(triple):
    # the same map, or the same refusal: a missing entry, a singular
    # Theta_u, a singular Theta_w, an output above the cap before a
    # singular Theta_w, and a 0x0 associator beside a singular component,
    # which has an inverse
    fam = ConstraintFamily(QQ)
    fam.add_module("U", LinMap.from_rows(QQ, [[1, 1], [0, 2]]))
    fam.add_module("V", diag([3]))
    fam.add_module("W", LinMap.from_rows(QQ, [[0, 1], [1, 0]]))
    fam.add_module("S", diag([1, 0]))
    fam.add_module("O", identity(0))
    # (200 * 200)^2 and (200 * 2 * 200)^2 entries exceed the cap
    fam.add_module("B", identity(200))
    fam.add_module("Z", zero_map(200, 200, QQ))
    assert (_outcome(lambda: fam.assoc_inverse(*triple))
            == _outcome(lambda: fam.assoc(*triple).inverse()))


def test_hexagons_invert_no_map_larger_than_a_component(H, pool,
                                                        monkeypatch):
    # the dim-4 YD tensor, cubed: each associator is 64x64, its components
    # 4x4 and, for a pair of objects, 16x16
    T = yd_tensor(H, pool["A"], pool["B"])
    fam = ConstraintFamily(QQ)
    fam.add_module("T", T.alpha)
    TT = yd_tensor(H, T, T)
    fam.add_pair_map("T", "T", b_yd(H, T, T))
    fam.add_pair_map("T", ("T", "T"), b_yd(H, T, TT))
    fam.add_pair_map(("T", "T"), "T", b_yd(H, TT, T))
    sizes = []
    real = LinMap.inverse

    def recording(m):
        sizes.append(m.rows * m.cols)
        return real(m)
    cached_inverse.cache_clear()
    monkeypatch.setattr(LinMap, "inverse", recording)
    rep = check_hexagons(fam, fam, "T", "T", "T")
    monkeypatch.undo()
    cached_inverse.cache_clear()
    assert rep.axiom_status == {"hex1": True, "hex2": True}
    assert sizes and max(sizes) <= fam.dim(("T", "T")) ** 2 == 256


def test_family_validation():
    fam = ConstraintFamily(QQ)
    with pytest.raises(ValueError):
        fam.add_module(("U",), identity(2))
    with pytest.raises(ValueError):
        fam.add_module("U", zero_map(2, 3, QQ))
    fam.add_module("U", identity(2))
    fam.add_module("V", identity(3))
    with pytest.raises(ValueError, match="must swap"):
        fam.add_pair_map("U", "V", flip_map(3, 3))


@pytest.mark.parametrize("obj", [
    "U", ("U",), ("U", "V"), (("U", "V"), "U"), ("O", "B", "B"), (),
    ("U", ()), ("U", "Y"), ("B", "B"), ("B", "U", "B"), (("B", "B"), "Y"),
])
def test_dim_builds_no_map_and_is_refused_as_component_is(obj):
    # component(obj).rows, or the exception component raises: an empty
    # tuple, a missing label, or the first Kronecker product above the cap
    # ((200 * 200)^2 and (200 * 2 * 200)^2 entries), with no map built
    def outcome(read):
        try:
            return read()
        except (IndexError, ValueError) as exc:
            return type(exc), str(exc)
    fam = ConstraintFamily(QQ)
    fam.add_module("U", identity(2)).add_module("V", identity(3))
    fam.add_module("O", identity(0)).add_module("B", identity(200))
    with map_sizes() as sizes:
        got = outcome(lambda: fam.dim(obj))
    assert sizes == []
    assert got == outcome(lambda: fam.component(obj).rows)


# ------------------------------------------------------- YD instantiation

def test_cross_checks_over_pool(H, pool):
    for f1, f2 in product("ABCZ", repeat=2):
        rep = cross_check_yd(H, pool[f1], pool[f2])
        assert rep.ok, (f1, f2, rep.failed_axioms)
        assert set(rep.axiom_status) == {"eq3333c", "eq9999d"}


def test_cross_check_triple_form(H, pool):
    assert cross_check_yd(H, pool["Z"], pool["A"], pool["Z"]).ok


def test_cross_check_invertibility_gate(H, pool):
    bad = yd_from_cubes(QQ, ZEROC, ZEROC, diag([1, 0]))
    with pytest.raises(ValueError, match="invertible structure map"):
        cross_check_yd(H, bad, pool["A"])


def test_pentagon_over_yd_structure_maps(H, pool):
    fam = ConstraintFamily(QQ)
    for name, M in pool.items():
        fam.add_module(name, M.alpha)
    for quad in [("A", "B", "C", "Z"), ("Z", "Z", "A", "B"),
                 ("B", "Z", "C", "Z")]:
        assert check_pentagon(fam, *quad).ok, quad


@pytest.mark.parametrize("triple", [("A", "B", "C"), ("B", "C", "A"),
                                    ("C", "A", "B"), ("A", "Z", "B"),
                                    ("Z", "A", "Z")])
def test_hexagons_over_yd_b_maps(H, pool, triple):
    U, V, W = triple
    fam = ConstraintFamily(QQ)
    for name in set(triple):
        fam.add_module(name, pool[name].alpha)
    MU, MV, MW = pool[U], pool[V], pool[W]
    fam.add_pair_map(U, V, b_yd(H, MU, MV))
    fam.add_pair_map(U, W, b_yd(H, MU, MW))
    fam.add_pair_map(V, W, b_yd(H, MV, MW))
    fam.add_pair_map(U, (V, W), b_yd(H, MU, yd_tensor(H, MV, MW)))
    fam.add_pair_map((U, V), W, b_yd(H, yd_tensor(H, MU, MV), MW))
    assert check_hexagons(fam, fam, U, V, W).ok


def test_built_b_naturality_square():
    th_u = LinMap.from_rows(QQ, [[1, 1], [0, 1]])
    f = diag([2, 2])
    b = build_b(th_u, diag([5, 7]), (2, 3, 2))
    assert (b.compose(kron(f, identity(6)))
            == kron(f, identity(6)).compose(b))
