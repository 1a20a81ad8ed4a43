"""Module and comodule laws, tensor and twist constructions, morphisms."""

import random

import pytest
from hypothesis import given, strategies as st

from conftest import (
    DUAL_COMUL, DUAL_MUL, FROZEN, cube, freeze_cube, freeze_violations,
    group_alpha_map, group_comul_cube, group_mul_cube, map_reads, map_sizes,
    z2_bialgebra,
)

from homcat.exact_tensor import GF, QQ, LinMap, diag, identity, kron
from homcat.hom_structures import (
    HomAlgebra, HomBialgebra, HomCoalgebra, check_hom_algebra,
    check_hom_coalgebra, coerce_cube, cube_map, map_cube, yau_twist_bialgebra,
)
from homcat.rep_theory import (
    action_cube, check_associator_instance, check_comodule,
    check_comodule_morphism, check_module, check_module_hom_algebra,
    check_module_morphism, coaction_cube, comodule_from_cube,
    conjugate_module, module_from_cube, phi_check, regular_comodule,
    regular_module, tensor_module, twist_module, zero_module,
)
from homcat.workbench_cli import gen_group_bialgebra


def z3tw(field=QQ):
    return yau_twist_bialgebra(group_mul_cube(3), group_comul_cube(3),
                               group_alpha_map(3, 2, field))


# ----------------------------------------------------------- module laws

def test_regular_module_passes():
    H = z2_bialgebra()
    assert check_module(H, regular_module(H)).ok


def test_mismatched_structure_map_fails_as_frozen():
    # regular action of the dual numbers, but the module structure map is
    # the identity while the algebra twist is diag(1,3)
    A = HomAlgebra(QQ, DUAL_MUL, diag([1, 3]))
    M = module_from_cube(QQ, DUAL_MUL, identity(2))
    rep = check_module(A, M)
    assert rep.failed_axioms == ["eq8", "eq9"]
    assert freeze_violations(rep.violations) == FROZEN["dualnum_module_eq8_fail"]


def test_module_check_builds_no_map_above_the_eq9_sides():
    # the 64-dim regular (x) regular (x) regular module over the n = 4 group
    # bialgebra with twist e_i -> e_3i: eq9's sides are 64 x 1024 and the
    # 256 x 1024 product alpha (x) act its left side composes through; both
    # sides of eq8 and eq9 are compared unformed, so no map is stored
    H, _ = gen_group_bialgebra(4, 3)
    reg = regular_module(H)
    M = tensor_module(H, tensor_module(H, reg, reg), reg)
    with map_sizes() as sizes:
        assert check_module(H, M).ok
    assert max(sizes, default=0) == 0


def test_module_check_scans_each_stored_map_once_per_comparison():
    # eq8 reads the action and alpha on both sides, eq9 the action in
    # three operand slots and alpha in one: each comparison scans each
    # stored map once, so each is scanned twice (five and three times when
    # every operand slot scanned its map)
    H, _ = gen_group_bialgebra(4, 3)
    reg = regular_module(H)
    conj = conjugate_module(reg, LinMap.from_rows(QQ, [
        [1 if j <= i else 0 for j in range(4)] for i in range(4)]))
    M = tensor_module(H, conj, reg)
    with map_reads() as reads:
        assert check_module(H, M).ok
    assert sum(m is M.action for m in reads) <= 2
    assert sum(m is M.alpha for m in reads) <= 2


def test_module_field_mismatch():
    A = HomAlgebra(QQ, DUAL_MUL, identity(2))
    M = module_from_cube(GF(3), DUAL_MUL, identity(2, GF(3)))
    with pytest.raises(ValueError):
        check_module(A, M)


def assert_layout_round_trips(rows_of):
    # cube_map reads a cube's entries, in order, as its map's entries
    # column after column, and map_cube reads them back; rows_of(d1, d2)
    # is the map's row count for a d0 x d1 x d2 cube
    rng = random.Random(21)
    for field in (QQ, GF(2), GF(5), GF(7)):
        for _ in range(20):
            shape = [rng.randint(1, 4) for _ in range(3)]
            c = coerce_cube(field, cube({
                (i, j, k): rng.choice((1, -1, 3, "2/3"))
                for i in range(shape[0]) for j in range(shape[1])
                for k in range(shape[2]) if rng.random() < 0.5}, shape),
                shape)
            rows = rows_of(*shape[1:])
            M = cube_map(field, c, rows)
            flat = [v for plane in c for row in plane for v in row]
            assert (M.rows, M.cols) == (rows, len(flat) // rows)
            assert [M.entry(k % rows, k // rows)
                    for k in range(len(flat))] == flat
            assert map_cube(M, *shape[1:]) == [list(map(list, plane))
                                               for plane in c]


def test_module_from_cube_roundtrip():
    M = module_from_cube(QQ, group_mul_cube(3), group_alpha_map(3, 2))
    assert module_from_cube(QQ, action_cube(M), M.alpha).action == M.action
    assert (M.hdim, M.dim) == (3, 3)
    # an action cube a[h][m][k] is its dim x hdim dim map
    assert_layout_round_trips(lambda dm, dk: dk)


def test_zero_module_always_valid():
    H = z3tw()
    Z = zero_module(QQ, H.dim, diag([2, 5, 7]))
    assert Z.action.is_zero()
    assert check_module(H, Z).ok


# ---------------------------------------------------------- tensor/twist

def test_tensor_action_matches_frozen():
    H = z2_bialgebra()
    M = regular_module(H)
    T = tensor_module(H, M, M)
    assert freeze_cube(QQ, action_cube(T)) == FROZEN["z2_reg_tensor_act"]
    assert T.alpha == identity(4)


def test_twisted_z3_tensor_of_regulars():
    H = z3tw()
    M = regular_module(H)
    T = tensor_module(H, M, M)
    assert T.alpha == kron(M.alpha, M.alpha)
    assert check_module(H, T).ok == FROZEN["z3tw_reg_tensor_ok"]


def test_f_twist_matches_frozen():
    H = z3tw()
    F = twist_module(H, regular_module(H), "F")
    assert freeze_cube(QQ, action_cube(F)) == FROZEN["z3tw_reg_Ftwist_act"]
    assert check_module(H, F).ok == FROZEN["z3tw_reg_Ftwist_ok"]


def test_twist_validation():
    H = z2_bialgebra()
    M = regular_module(H)
    with pytest.raises(ValueError):
        twist_module(H, M, "X")
    N = module_from_cube(QQ, cube({}, (3, 2, 2)), identity(2))
    with pytest.raises(ValueError):
        twist_module(H, N, "F")
    with pytest.raises(ValueError):
        tensor_module(H.algebra, M, M)


def test_twist_functors_commute_and_split_tensor():
    H = z3tw()
    M = regular_module(H)
    N = zero_module(QQ, 3, diag([1, 2, 4]))
    fg = twist_module(H, twist_module(H, M, "G"), "F")
    gf = twist_module(H, twist_module(H, M, "F"), "G")
    assert fg.action == gf.action and fg.alpha == gf.alpha
    lhs = twist_module(H, tensor_module(H, M, N), "F")
    rhs = tensor_module(H, twist_module(H, M, "F"), twist_module(H, N, "F"))
    assert lhs.action == rhs.action and lhs.alpha == rhs.alpha


def _renamed(rep, ids):
    # status and violations, scalars with type and str bytes, ids renamed
    return ([(ids.get(a, a), ok) for a, ok in rep.axiom_status.items()],
            [(ids.get(v.axiom, v.axiom), v.index,
              [(ix, type(c), str(c)) for ix, c in v.lhs],
              [(ix, type(c), str(c)) for ix, c in v.rhs])
             for v in rep.violations])


def _random_cube(field, n, seed):
    rng = random.Random(seed)
    vals = [0, 0, 1, -2, "3/2", "-1/3"]
    return [[[field.coerce(rng.choice(vals)) for _ in range(n)]
             for _ in range(n)] for _ in range(n)]


def _random_square(field, n, seed):
    rng = random.Random(seed)
    return LinMap(field, n, n, [rng.choice([0, 1, 2, "1/2"])
                                for _ in range(n * n)])


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_algebra_laws_are_the_regular_modules(field):
    # eq1/eq2 of A are eq8/eq9 of A acting on itself by its product
    algebras = [z3tw(field).algebra,
                HomAlgebra(field, DUAL_MUL, diag([1, 3], field))]
    algebras += [HomAlgebra(field, _random_cube(field, 3, s),
                            _random_square(field, 3, s)) for s in range(4)]
    assert algebras[0].dim == 3 and check_hom_algebra(algebras[0]).ok
    assert sum(not check_hom_algebra(A).ok for A in algebras) == 5
    ids = {"eq8": "eq1", "eq9": "eq2"}
    for A in algebras:
        assert (_renamed(check_hom_algebra(A), {})
                == _renamed(check_module(A, regular_module(A)), ids))


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_coalgebra_laws_are_the_regular_comodules(field):
    # eq3/eq4 of C are comodul1/comodul2 of C coacting by its coproduct
    coalgebras = [z3tw(field).coalgebra,
                  HomCoalgebra(field, DUAL_COMUL, diag([1, 2], field))]
    coalgebras += [HomCoalgebra(field, _random_cube(field, 3, s),
                                _random_square(field, 3, s))
                   for s in range(4)]
    assert check_hom_coalgebra(coalgebras[0]).ok
    assert sum(not check_hom_coalgebra(C).ok for C in coalgebras) == 5
    ids = {"comodul1": "eq3", "comodul2": "eq4"}
    for C in coalgebras:
        assert (_renamed(check_hom_coalgebra(C), {})
                == _renamed(check_comodule(C, regular_comodule(C)), ids))


# ------------------------------------------------------------- comodules

def test_regular_comodule_passes():
    for C in (z2_bialgebra().coalgebra, z3tw().coalgebra):
        rep = check_comodule(C, regular_comodule(C))
        assert rep.ok and rep.checked == ["comodul1", "comodul2"]


def test_comodule_with_wrong_twist_fails():
    C = HomCoalgebra(QQ, DUAL_COMUL, diag([1, 2]))
    rep = check_comodule(C, regular_comodule(C))
    assert not rep.ok


def test_comodule_cube_roundtrip():
    C = z2_bialgebra().coalgebra
    M = regular_comodule(C)
    again = comodule_from_cube(QQ, coaction_cube(M), M.psi)
    assert again.coaction == M.coaction
    # a coaction cube c[m][j][k] is its cdim dim x dim map
    assert_layout_round_trips(lambda dj, dk: dj * dk)


# ----------------------------------------------------- conjugation, phi

@given(st.data())
def test_conjugated_module_stays_valid(data):
    H = z2_bialgebra()
    M = regular_module(H)
    ents = st.integers(-2, 2)
    lower = LinMap.from_rows(QQ, [[1, 0], [data.draw(ents), 1]])
    upper = LinMap.from_rows(QQ, [[1, data.draw(ents)], [0, 1]])
    g = lower.compose(upper)
    N = conjugate_module(M, g)
    assert check_module(H, N).ok
    assert check_module_morphism(g, H, M, N).ok


def test_conjugate_requires_invertible():
    M = regular_module(z2_bialgebra())
    with pytest.raises(ValueError):
        conjugate_module(M, diag([1, 0]))


def test_phi_check_regular_and_natural_square():
    H = z3tw()
    M = regular_module(H)
    rep = phi_check(H, M)
    assert rep.ok
    rep = phi_check(H, M, f=M.alpha, N=M)
    assert rep.ok and "phi-natural" in rep.axiom_status


# ------------------------------------------------------------- morphisms

def test_module_morphism_shape_gate():
    H = z2_bialgebra()
    M = regular_module(H)
    with pytest.raises(ValueError):
        check_module_morphism(identity(3), H, M, M)


def test_structure_map_is_module_morphism_into_g_twist():
    H = z3tw()
    M = regular_module(H)
    G = twist_module(H, M, "G")
    assert check_module_morphism(M.alpha, H, M, G).ok


def test_comodule_morphism_ids():
    C = z2_bialgebra().coalgebra
    M = regular_comodule(C)
    rep = check_comodule_morphism(M.psi, C, M, M)
    assert rep.checked == ["comodule-morphism-coaction", "comodule-morphism-twist"]
    assert rep.ok
    skew = LinMap.from_rows(QQ, [[1, 1], [0, 1]])
    rep = check_comodule_morphism(skew, C, M, M)
    assert rep.axiom_status["comodule-morphism-coaction"] is False


# ------------------------------------------------------------ associator

def test_associator_instance_diffs_match_frozen():
    H = HomBialgebra(QQ, DUAL_MUL, DUAL_COMUL, identity(2), diag([1, 2]))
    M = regular_module(H)
    rep = check_associator_instance(H, M, M, M)
    assert (not rep.ok) == FROZEN["assoc_instance_fails"]
    # flatten columnwise violations into scalar entry diffs in scan order
    diffs = []
    for v in rep.violations:
        h, u, vv, w = v.index
        m = (u * 2 + vv) * 2 + w
        lhs = {(a * 2 + b) * 2 + c: s for (a, b, c), s in v.lhs}
        rhs = {(a * 2 + b) * 2 + c: s for (a, b, c), s in v.rhs}
        for m2 in sorted(set(lhs) | set(rhs)):
            l, r = lhs.get(m2, QQ.zero), rhs.get(m2, QQ.zero)
            if l != r:
                diffs.append(((h, m, m2), str(l), str(r)))
    assert diffs[:4] == FROZEN["assoc_instance_diffs"]


def test_associator_instance_passes_on_valid_bialgebra():
    H = z3tw()
    M = regular_module(H)
    Z = zero_module(QQ, 3, identity(3))
    assert check_associator_instance(H, M, M, Z).ok
    assert check_associator_instance(H, M, Z, M).ok
    assert check_associator_instance(H, M, M, M).ok


# ------------------------------------------------- module hom-algebras

def test_self_action_mha_matches_frozen():
    H = z2_bialgebra()
    A = HomAlgebra(QQ, group_mul_cube(2), identity(2))
    act = module_from_cube(QQ, group_mul_cube(2), identity(2))
    rep = check_module_hom_algebra(H, A, act)
    assert not rep.ok
    assert freeze_violations(rep.violations) == FROZEN["z2_self_mha"]


def test_trivial_action_mha_passes():
    H = z2_bialgebra()
    A = HomAlgebra(QQ, group_mul_cube(2), identity(2))
    triv = cube({(h, m, m): 1 for h in range(2) for m in range(2)}, (2, 2, 2))
    act = module_from_cube(QQ, triv, identity(2))
    assert check_module_hom_algebra(H, A, act).ok == FROZEN["z2_trivial_mha_ok"]


def test_mha_requires_matching_structure_map():
    H = z2_bialgebra()
    A = HomAlgebra(QQ, group_mul_cube(2), identity(2))
    act = module_from_cube(QQ, group_mul_cube(2), diag([1, 2]))
    with pytest.raises(ValueError):
        check_module_hom_algebra(H, A, act)
