"""Algebra, coalgebra and bialgebra laws, twists, morphisms, semigroups."""

import pytest
from hypothesis import given, strategies as st

from conftest import (
    DUAL_COMUL, DUAL_MUL, FROZEN, cube, freeze_cube, freeze_matrix,
    freeze_violations, group_alpha_map, group_comul_cube, group_mul_cube,
    map_sizes, z2_bialgebra,
)

from homcat.exact_tensor import GF, QQ, LinMap, diag, identity, kron
from homcat.hom_structures import (
    VIOLATION_CAP, CheckReport, HomAlgebra, HomBialgebra, HomCoalgebra,
    HomSemigroup, NONDEGENERATE, UNKNOWN, Violation, check_hom_algebra,
    check_hom_bialgebra, check_hom_coalgebra, check_hom_semigroup,
    check_structure_morphism, compare_maps, nondegenerate_via_regular,
    semigroup_algebra, tensor_hom_algebra, yau_twist_algebra,
    yau_twist_bialgebra,
)
from homcat.workbench_cli import gen_group_bialgebra, report_to_dict


# -------------------------------------------------------- algebra checks

def test_dual_numbers_with_unscaled_twist_pass():
    A = HomAlgebra(QQ, DUAL_MUL, identity(2))
    rep = check_hom_algebra(A)
    assert rep.ok and rep.checked == ["eq1", "eq2"]


def test_dual_numbers_scaled_twist_fails_eq2():
    # alpha = diag(1, 2) is not multiplicative on x, and eq2 picks up the
    # asymmetry between alpha(a)(bc) and (ab)alpha(c)
    A = HomAlgebra(QQ, DUAL_MUL, diag([1, 2]))
    rep = check_hom_algebra(A)
    assert rep.failed_axioms == ["eq1", "eq2"] or rep.failed_axioms == ["eq2"]
    eq2 = [v for v in rep.violations if v.axiom == "eq2"]
    assert freeze_violations(eq2) == FROZEN["dualnum_alg_eq2"]


def test_untwisted_product_needs_twisted_mul_for_eq2():
    # a classical product with a nontrivial twist map is not
    # hom-associative; composing the product with the twist (the Yau
    # construction below) is what restores eq2
    A = HomAlgebra(QQ, group_mul_cube(3), group_alpha_map(3, 2))
    rep = check_hom_algebra(A)
    assert rep.axiom_status["eq1"] is True
    assert rep.axiom_status["eq2"] is False
    assert check_hom_algebra(
        yau_twist_algebra(group_mul_cube(3), group_alpha_map(3, 2))).ok


def test_algebra_shape_validation():
    with pytest.raises(ValueError):
        HomAlgebra(QQ, DUAL_MUL, identity(3))
    with pytest.raises(ValueError):
        HomAlgebra(QQ, [[[1]]], "not a map")


# ------------------------------------------------------ coalgebra checks

def test_dual_comul_scaled_twist_fails_eq4():
    C = HomCoalgebra(QQ, DUAL_COMUL, diag([1, 2]))
    rep = check_hom_coalgebra(C)
    assert rep.axiom_status["eq3"] is True
    assert rep.axiom_status["eq4"] is False
    assert freeze_violations(rep.violations) == FROZEN["dualnum_coalg_eq4"]


def test_group_comul_passes():
    C = HomCoalgebra(QQ, group_comul_cube(4), identity(4))
    assert check_hom_coalgebra(C).ok


@given(st.data())
def test_eq4_and_eq5_routes_agree(data):
    # matrix route (eq4) and cube-contraction route (eq5) always reach the
    # same verdict, valid or not
    n = data.draw(st.integers(1, 2))
    ents = st.integers(-2, 2)
    comul = [[[data.draw(ents) for _ in range(n)] for _ in range(n)]
             for _ in range(n)]
    psi = LinMap(QQ, n, n, [data.draw(ents) for _ in range(n * n)])
    H = HomBialgebra(QQ, group_mul_cube(n), comul, identity(n), psi)
    rep = check_hom_bialgebra(H)
    assert rep.axiom_status["eq4"] == rep.axiom_status["eq5"]


# ------------------------------------------------------------ Yau twists

def test_yau_twist_dual_numbers_matches_frozen():
    tw = yau_twist_algebra(DUAL_MUL, diag([1, 3]))
    assert freeze_cube(QQ, tw.mul) == FROZEN["dualnum_yau_cube"]
    assert check_hom_algebra(tw).ok == FROZEN["dualnum_yau_ok"]


def test_yau_twist_rejects_nonassociative_input():
    bad = cube({(0, 0, 1): 1, (1, 0, 0): 1}, (2, 2, 2))
    with pytest.raises(ValueError, match="not-associative"):
        yau_twist_algebra(bad, identity(2))


def test_yau_twist_rejects_non_endomorphism():
    skew = LinMap.from_rows(QQ, [[1, 1], [0, 1]])
    with pytest.raises(ValueError, match="not-endomorphism"):
        yau_twist_algebra(group_mul_cube(2), skew)


def test_yau_twist_bialgebra_z3_matches_frozen():
    H = yau_twist_bialgebra(group_mul_cube(3), group_comul_cube(3),
                            group_alpha_map(3, 2))
    assert freeze_cube(QQ, H.mul) == FROZEN["z3tw_mul"]
    assert freeze_cube(QQ, H.comul) == FROZEN["z3tw_comul"]
    assert freeze_matrix(H.alpha) == FROZEN["z3tw_alpha"]
    assert H.alpha == H.psi
    assert check_hom_bialgebra(H).ok == FROZEN["z3tw_bialgebra_ok"]


def test_yau_twist_bialgebra_gates():
    # comul that is not coassociative
    bad = cube({(0, 0, 1): 1}, (2, 2, 2))
    with pytest.raises(ValueError, match="not-bialgebra"):
        yau_twist_bialgebra(group_mul_cube(2), bad, identity(2))
    skew = LinMap.from_rows(QQ, [[1, 1], [0, 1]])
    with pytest.raises(ValueError, match="not-endomorphism"):
        yau_twist_bialgebra(group_mul_cube(2), group_comul_cube(2), skew)


@given(st.integers(1, 4), st.data())
def test_yau_twist_output_always_hom_associative(n, data):
    # any group algebra twisted along any group automorphism k coprime to n
    ks = [k for k in range(1, n + 1) if _gcd(k, n) == 1]
    k = data.draw(st.sampled_from(ks))
    tw = yau_twist_algebra(group_mul_cube(n), group_alpha_map(n, k))
    assert check_hom_algebra(tw).ok


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


# --------------------------------------------------------- tensor algebra

def test_tensor_algebra_matches_frozen():
    A = HomAlgebra(QQ, group_mul_cube(2), identity(2))
    T = tensor_hom_algebra(A, A)
    assert freeze_cube(QQ, T.mul) == FROZEN["z2xz2_mul"]
    assert check_hom_algebra(T).ok
    assert T.alpha == identity(4)


def test_tensor_algebra_field_mismatch():
    A = HomAlgebra(QQ, group_mul_cube(2), identity(2))
    B = HomAlgebra(GF(3), group_mul_cube(2), identity(2, GF(3)))
    with pytest.raises(ValueError):
        tensor_hom_algebra(A, B)


def test_tensor_of_twisted_algebras_stays_hom_associative():
    A = yau_twist_algebra(group_mul_cube(3), group_alpha_map(3, 2))
    B = yau_twist_algebra(group_mul_cube(2), group_alpha_map(2, 1))
    assert check_hom_algebra(tensor_hom_algebra(A, B)).ok


# ------------------------------------------------------------- morphisms

def test_twist_map_is_algebra_morphism_of_twisted_structure():
    H = yau_twist_bialgebra(group_mul_cube(3), group_comul_cube(3),
                            group_alpha_map(3, 2))
    for kind in ("algebra", "coalgebra"):
        rep = check_structure_morphism(H.alpha, H, H, kind)
        assert rep.ok, (kind, rep.failed_axioms)


def test_non_morphism_is_flagged_by_name():
    H = z2_bialgebra()
    skew = LinMap.from_rows(QQ, [[1, 1], [0, 1]])
    rep = check_structure_morphism(skew, H, H, "algebra")
    assert rep.axiom_status["morphism-twist"] is True
    assert rep.axiom_status["morphism-mul"] is False
    rep = check_structure_morphism(skew, H, H, "coalgebra")
    assert rep.axiom_status["morphism-comul"] is False


def test_morphism_shape_and_kind_validation():
    H = z2_bialgebra()
    with pytest.raises(ValueError):
        check_structure_morphism(identity(3), H, H, "algebra")
    with pytest.raises(ValueError):
        check_structure_morphism(identity(2), H, H, "ring")


# ------------------------------------------------------------ semigroups

def test_left_zero_semigroup_with_swap_twist():
    S = HomSemigroup(2, [[0, 0], [1, 1]], [1, 0])
    rep = check_hom_semigroup(S)
    assert rep.axiom_status["hom-semigroup-mult"] is True
    assert rep.axiom_status["hom-semigroup-assoc"] is False
    got = [(v.index, [(i, str(c)) for i, c in v.lhs],
            [(i, str(c)) for i, c in v.rhs])
           for v in rep.violations if v.axiom == "hom-semigroup-assoc"]
    assert got == FROZEN["leftzero_homlaw_fails"]
    assert [v for v in rep.violations
            if v.axiom == "hom-semigroup-mult"] == list(FROZEN["leftzero_mult_fails"])


def test_left_zero_with_identity_twist_passes():
    S = HomSemigroup(2, [[0, 0], [1, 1]], [0, 1])
    assert check_hom_semigroup(S).ok


def test_semigroup_table_validation():
    with pytest.raises(ValueError):
        HomSemigroup(2, [[0, 2], [1, 1]], [0, 1])
    with pytest.raises(ValueError):
        HomSemigroup(2, [[0, 0]], [0, 1])
    with pytest.raises(ValueError):
        HomSemigroup(2, [[0, 0], [1, 1]], [0])
    # entries are taken as they are, never truncated or parsed
    for table, alpha_table in (([[0, 1.7], [1, 1]], [0, 1]),
                               ([[0, 1], [1, 1]], [0, "1"]),
                               ([[0, True], [1, 1]], [0, 1])):
        with pytest.raises(ValueError, match="must be ints"):
            HomSemigroup(2, table, alpha_table)


def test_semigroup_linearization_tracks_set_level_verdict():
    # the linearized check fails exactly when the set-level one does
    for alpha_table in ([0, 1], [1, 0]):
        S = HomSemigroup(2, [[0, 0], [1, 1]], alpha_table)
        A = semigroup_algebra(S)
        assert check_hom_algebra(A).ok == check_hom_semigroup(S).ok


def test_semigroup_linearization_of_group_matches_group_algebra():
    table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    S = HomSemigroup(3, table, [(2 * i) % 3 for i in range(3)])
    A = semigroup_algebra(S)
    assert freeze_cube(QQ, A.mul) == freeze_cube(QQ, group_mul_cube(3))
    assert A.alpha == group_alpha_map(3, 2)


# --------------------------------------------------------- nondegeneracy

def test_group_algebra_regular_nondegenerate():
    A = HomAlgebra(QQ, group_mul_cube(3), group_alpha_map(3, 2))
    assert nondegenerate_via_regular(A) == NONDEGENERATE
    assert nondegenerate_via_regular(A, strong=True) == NONDEGENERATE


def test_zero_algebra_inconclusive():
    A = HomAlgebra(QQ, cube({}, (2, 2, 2)), identity(2))
    assert nondegenerate_via_regular(A) == UNKNOWN


# --------------------------------------------------- report plumbing

def test_compare_maps_cap_and_shape():
    # 20 differing columns: the first 16 are recorded, the verdict is exact
    assert VIOLATION_CAP == 16
    lhs = identity(20)
    rhs = diag(range(2, 22))
    ok, vs = compare_maps("demo", lhs, rhs, (20,), (20,))
    assert not ok
    assert [v.index for v in vs] == [(i,) for i in range(16)]
    # one differing column past the cap still decides the verdict
    ok, vs = compare_maps("demo", identity(20), diag([1] * 19 + [2]),
                          (20,), (20,))
    assert not ok and [v.index for v in vs] == [(19,)]
    with pytest.raises(ValueError):
        compare_maps("demo", identity(2), identity(3), (2,), (2,))


def test_compare_maps_refuses_maps_over_different_fields():
    # 6 over Q and 6 over GF(5) (stored as 1) are no more comparable than
    # 1 and 1; the field is checked before the shape
    for lhs, rhs in ((LinMap(QQ, 1, 1, [1]), LinMap(GF(5), 1, 1, [1])),
                     (LinMap(QQ, 1, 1, [6]), LinMap(GF(5), 1, 1, [6])),
                     (identity(2), identity(3, GF(5)))):
        with pytest.raises(ValueError, match="^field mismatch comparing x$"):
            compare_maps("x", lhs, rhs, (1,), (1,))


def test_report_merge_and_dict():
    r1 = CheckReport({"a": True, "b": False},
                     [Violation("b", (0,), (((0,), 1),), ())])
    r2 = CheckReport({"a": True, "c": True}, [])
    m = CheckReport.merge(r1, r2)
    assert m.axiom_status == {"a": True, "b": False, "c": True}
    assert not m.ok and m.failed_axioms == ["b"]
    # the CLI's report codec is the one dict form of a report
    d = report_to_dict(["check"], m, 0)
    assert d["pass"] is False
    assert [(a["axiom"], a["pass"]) for a in d["axioms"]] == [
        ("a", True), ("b", False), ("c", True)]
    assert d["axioms"][1]["counterexample"] == {
        "index": [0], "lhs": [[[0], "1"]], "rhs": []}


def test_report_violation_cap_and_order():
    # 20 violations, given out of order: sorted by (axiom, index), then cut
    vs = [Violation("z", (i,), (), ()) for i in reversed(range(10))]
    vs += [Violation("a", (i,), (), ()) for i in reversed(range(10))]
    rep = CheckReport({"a": False, "z": False}, vs)
    assert [(v.axiom, v.index) for v in rep.violations] == (
        [("a", (i,)) for i in range(10)] + [("z", (i,)) for i in range(6)])
    merged = CheckReport.merge(rep, CheckReport({"b": False}, [
        Violation("b", (0,), (), ())]))
    assert [v.axiom for v in merged.violations] == ["a"] * 10 + ["b"] + ["z"] * 5
    with pytest.raises(AttributeError):
        rep.ok = True
    with pytest.raises(AttributeError):
        rep.ok = True


def test_full_bialgebra_battery_axiom_ids():
    rep = check_hom_bialgebra(z2_bialgebra())
    assert rep.ok
    assert rep.checked == ["alpha-psi-commute", "eq1", "eq2", "eq3", "eq4",
                           "eq5", "eq6", "eq7", "eq7111", "eq7112"]


def test_bialgebra_holds_its_algebra_and_coalgebra_once():
    H = z2_bialgebra()
    assert H.algebra is H.algebra and H.coalgebra is H.coalgebra
    A, C = H.algebra, H.coalgebra
    assert (A.mul, A.alpha, A.mul_linmap) == (H.mul, H.alpha, H.mul_linmap)
    assert (C.comul, C.psi, C.comul_linmap) == (H.comul, H.psi,
                                                H.comul_linmap)


def test_bialgebra_construction_errors_keep_their_order():
    # cube shapes, then cube dims, then alpha, then psi
    bad = identity(3)
    with pytest.raises(ValueError, match="cube is not"):
        HomBialgebra(QQ, [[[0]]], [[[0, 0]], [[0]]], bad, bad)
    with pytest.raises(ValueError, match="cube dimensions differ"):
        HomBialgebra(QQ, [[[0]]], group_comul_cube(2), bad, bad)
    with pytest.raises(ValueError, match="^alpha must be 1x1"):
        HomBialgebra(QQ, [[[0]]], [[[0]]], bad, bad)
    with pytest.raises(ValueError, match="^psi must be 1x1"):
        HomBialgebra(QQ, [[[0]]], [[[0]]], identity(1), bad)


def test_bialgebra_check_builds_no_map_above_n6_entries():
    # the tensor-square product permutes the columns of mul (x) mul instead
    # of composing it with an n^4 x n^4 permutation matrix
    n = 6
    H, _ = gen_group_bialgebra(n, 5)
    with map_sizes() as sizes:
        assert check_hom_bialgebra(H).ok
    assert max(sizes) <= n ** 6
