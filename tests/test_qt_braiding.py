"""Quasitriangular batteries, braidings, hexagons and braid relations."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import (
    FROZEN, cube, group_comul_cube, group_mul_cube, map_sizes,
    sparse_columns, sweedler_h4, sweedler_r, z2_bialgebra,
)

from homcat.exact_tensor import GF, QQ, LinMap, diag, flip_map, identity
from homcat.hom_structures import HomBialgebra, check_hom_bialgebra
from homcat.qt_braiding import (
    BraidMap, RMatrix, _braiding_elementwise, b_from_qt, braiding_from_r,
    check_braiding_morphism, check_hexagon_instances, check_hom_ybe,
    check_mixed_hom_ybe, check_r_conditions, ybe_yau_twist,
)
from homcat.rep_theory import (
    conjugate_module, module_from_cube, regular_module, tensor_module,
    zero_module,
)

R_KEYS = ("r-alpha-invariance", "r-psi-invariance", "eq38", "eq29",
          "eq39", "eq30", "eq60", "eq31")


def triangular_r(field=QQ):
    h = field.coerce("1/2")
    return RMatrix(field, 2, [h, h, h, field.neg(h)])


# ------------------------------------------------------- quasitriangular

def test_triangular_r_full_battery():
    rep = check_r_conditions(z2_bialgebra(), triangular_r())
    assert rep.ok == FROZEN["kz2_r_all_ok"]
    assert rep.axiom_status["remQT-consistency"] is True


def test_triangular_r_mod3():
    F = GF(3)
    H = HomBialgebra(F, group_mul_cube(2), group_comul_cube(2),
                     identity(2, F), identity(2, F))
    R = RMatrix(F, 2, [2, 2, 2, 1])
    assert check_r_conditions(H, R).ok == FROZEN["kz2_r_f3_ok"]


# Sweedler's H4 is neither commutative nor cocommutative, so unlike the
# group bialgebras it can tell comul from comul-op and R from its flip

@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
@pytest.mark.parametrize("t", [0, 1, 3])
def test_sweedler_r_t_passes_every_battery(field, t):
    H = sweedler_h4(field)
    R = sweedler_r(field, t)
    M = regular_module(H.algebra)
    assert check_hom_bialgebra(H).ok
    assert check_r_conditions(H, R).ok
    assert check_braiding_morphism(H, R, M, M).ok
    assert check_hexagon_instances(H, R, M, M, M).ok


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
@pytest.mark.parametrize("t", [1, 3])
def test_sweedler_wrong_sign_pattern_fails_exactly_three_ids(field, t):
    # x-part signs (+, +, +, -) instead of (+, -, +, +)
    rep = check_r_conditions(sweedler_h4(field),
                             sweedler_r(field, t, (1, 1, 1, -1)))
    assert rep.failed_axioms == ["eq30", "eq39", "remQT-a"]


def test_one_sided_r_fails_matching_frozen_pattern():
    H = z2_bialgebra()
    rep = check_r_conditions(H, RMatrix(QQ, 2, [0, 1, 0, 0]))
    assert {k: rep.axiom_status[k] for k in R_KEYS} == FROZEN["r_1g"]
    v = next(x for x in rep.violations if x.axiom == "eq39")
    sides = ([(i, str(c)) for i, c in v.lhs], [(i, str(c)) for i, c in v.rhs])
    assert sides == tuple(map(list, FROZEN["r_1g_eq39_sides"]))
    # the simplified psi-invariant forms reach the same verdicts
    assert rep.axiom_status["remQT-a"] == rep.axiom_status["eq30"]
    assert rep.axiom_status["remQT-b"] == rep.axiom_status["eq31"]
    assert rep.axiom_status["remQT-consistency"] is True


def test_mirrored_one_sided_r():
    rep = check_r_conditions(z2_bialgebra(), RMatrix(QQ, 2, [0, 0, 1, 0]))
    assert {k: rep.axiom_status[k] for k in R_KEYS} == FROZEN["r_g1"]


def test_matrix_and_contraction_routes_agree():
    # eq29/eq38, eq30/eq39 and eq31/eq60 are independent evaluations of the
    # same laws; they must agree on every fixture
    H = z2_bialgebra()
    for coeffs in ([0, 1, 0, 0], [0, 0, 1, 0], ["1/2", "1/2", "1/2", "-1/2"],
                   [1, 0, 0, 1], [1, 1, 1, 1]):
        s = check_r_conditions(H, RMatrix(QQ, 2, coeffs)).axiom_status
        assert s["eq29"] == s["eq38"]
        assert s["eq30"] == s["eq39"]
        assert s["eq31"] == s["eq60"]


def test_r_validation():
    H = z2_bialgebra()
    with pytest.raises(ValueError):
        check_r_conditions(H, RMatrix(QQ, 3, [0] * 9))
    with pytest.raises(ValueError):
        check_r_conditions(H, RMatrix(GF(3), 2, [0] * 4))
    with pytest.raises(ValueError):
        RMatrix(QQ, 2, [1, 2, 3])


# --------------------------------------------------------------- braiding

def test_braiding_matrix_matches_frozen():
    H = z2_bialgebra()
    M = regular_module(H)
    c = braiding_from_r(H, triangular_r(), M, M)
    assert isinstance(c, BraidMap)
    assert sparse_columns(c.map, (2, 2), (2, 2)) == FROZEN["kz2_braiding"]
    sq_id = c.map.compose(c.map) == identity(4)
    assert sq_id == FROZEN["kz2_braiding_squares_to_id"]


def test_braiding_morphism_battery():
    H = z2_bialgebra()
    M = regular_module(H)
    rep = check_braiding_morphism(H, triangular_r(), M, M)
    assert rep.ok
    assert rep.checked == ["braiding-g-compat", "braiding-h-linear",
                           "braiding-intertwine", "braiding-natural", "eq27"]


def test_braiding_on_zero_module():
    H = z2_bialgebra()
    Z = zero_module(QQ, 2, diag([2, 3]))
    M = regular_module(H)
    c = braiding_from_r(H, triangular_r(), Z, M)
    assert c.map.is_zero()
    assert check_braiding_morphism(H, triangular_r(), Z, M).ok


def test_braiding_morphism_on_16_dim_modules_builds_no_map_above_256x1024():
    # H4 on regular (x) conjugate modules of dim 16: the sides of
    # braiding-h-linear are 256 x 1024, so the 1024 x 1024 lift id_4 (x) c
    # it composes through must not be stored. GF(5) keeps the arithmetic
    # cheap; the maps built do not depend on the field.
    field = GF(5)
    H = sweedler_h4(field)
    reg = regular_module(H)
    conj = conjugate_module(reg, LinMap.from_rows(field, [
        [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 2]]))
    U, V = tensor_module(H, reg, conj), tensor_module(H, conj, reg)
    with map_sizes() as sizes:
        rep = check_braiding_morphism(H, sweedler_r(field, 1), U, V)
    assert rep.ok and len(rep.checked) == 5
    assert max(sizes) <= 256 * 1024


def test_r_action_does_arithmetic_on_nonzeros_only(monkeypatch):
    # kz2 on modules of dims 8 and 32: a 256 x 256 braiding with 1,024
    # nonzeros; dense sums of 256 x 256 krons cost about 263k products
    H = z2_bialgebra()
    reg = regular_module(H)
    powers = [reg]
    for _ in range(4):
        powers.append(tensor_module(H, powers[-1], reg))
    U, V = powers[2], powers[4]
    counts = Counter()
    for name in ("__mul__", "__add__"):
        def counting(a, b, real=getattr(Fraction, name), name=name):
            counts[name] += 1
            return real(a, b)
        monkeypatch.setattr(Fraction, name, counting)
    c = braiding_from_r(H, triangular_r(), U, V)
    monkeypatch.undo()
    assert (c.map.rows, c.map.cols) == (256, 256)
    assert counts["__mul__"] < 5000
    assert counts["__add__"] < 5000
    assert c.map == _braiding_elementwise(H, triangular_r(), U, V)


def test_hexagons_match_frozen():
    H = z2_bialgebra()
    M = regular_module(H)

    def hex_pair(coeffs):
        rep = check_hexagon_instances(H, RMatrix(QQ, 2, coeffs), M, M, M)
        return rep, (rep.axiom_status["eq45"], rep.axiom_status["eq50"])

    rep, pair = hex_pair(["1/2", "1/2", "1/2", "-1/2"])
    assert pair == FROZEN["kz2_hex"]

    rep, pair = hex_pair([0, 1, 0, 0])
    assert pair == FROZEN["r_1g_hex"]
    v = next(x for x in rep.violations if x.axiom == "eq50")
    got = (v.index[0], v.index[1], v.index[2],
           [(i, str(c)) for i, c in v.lhs], [(i, str(c)) for i, c in v.rhs])
    assert got == FROZEN["r_1g_hex50_diff"]

    rep, pair = hex_pair([0, 0, 1, 0])
    assert pair == FROZEN["r_g1_hex"]
    v = next(x for x in rep.violations if x.axiom == "eq45")
    got = (v.index[0], v.index[1], v.index[2],
           [(i, str(c)) for i, c in v.lhs], [(i, str(c)) for i, c in v.rhs])
    assert got == FROZEN["r_g1_hex45_diff"]


def test_oversized_hexagon_refused_at_its_first_lift():
    # three 23-dim modules: eq45's maps are 12167 x 12167, above the cap;
    # the refusal names the lift id (x) alpha_U, before any braiding is built
    H = HomBialgebra(QQ, [[[1]]], [[[1]]], identity(1), identity(1))
    Z = zero_module(QQ, 1, identity(23))
    with pytest.raises(ValueError, match=(
            "^kron output 12167x12167 exceeds the cap")):
        check_hexagon_instances(H, RMatrix(QQ, 1, [1]), Z, Z, Z)


# ------------------------------------------------------------------ B map

def test_b_from_qt_matches_frozen():
    H = z2_bialgebra()
    M = regular_module(H)
    b = b_from_qt(H, triangular_r(), M)
    assert sparse_columns(b, (2, 2), (2, 2)) == FROZEN["kz2_b_from_qt"]
    rep = check_hom_ybe(b, identity(2))
    assert (rep.axiom_status["eq145"],
            rep.axiom_status["ybe-compat"]) == FROZEN["kz2_b_ybe_ok"]


def test_b_from_qt_gates_name_failing_battery():
    H = z2_bialgebra()
    M = regular_module(H)
    bad_comul = cube({(0, 0, 1): 1}, (2, 2, 2))
    Hbad = HomBialgebra(QQ, group_mul_cube(2), bad_comul, identity(2),
                        identity(2))
    with pytest.raises(ValueError, match="bialgebra laws fail"):
        b_from_qt(Hbad, triangular_r(), M)
    with pytest.raises(ValueError, match="quasitriangularity fails"):
        b_from_qt(H, RMatrix(QQ, 2, [0, 1, 0, 0]), M)
    badM = module_from_cube(QQ, group_mul_cube(2), diag([1, 2]))
    with pytest.raises(ValueError, match="module laws fail"):
        b_from_qt(H, triangular_r(), badM)


# ----------------------------------------------------------- braid checks

def monomial_map(entries, d=2):
    # entries: {(i, j): {(k, l): coeff}} columnwise tensor-square map
    cols = {}
    for (i, j), vec in entries.items():
        col = [0] * (d * d)
        for (k, l), c in vec.items():
            col[k * d + l] = c
        cols[i * d + j] = col
    full = [cols.get(c, [0] * (d * d)) for c in range(d * d)]
    return LinMap.from_cols(QQ, full, d * d)


def test_single_entry_monomial_satisfies_relation():
    B = monomial_map({(0, 0): {(0, 1): 1}})
    rep = check_hom_ybe(B, identity(2))
    assert (rep.axiom_status["eq145"],
            rep.axiom_status["ybe-compat"]) == FROZEN["monomial_single_ybe_ok"]


def test_two_entry_monomial_fails_with_frozen_diff():
    B = monomial_map({(0, 0): {(0, 1): 1}, (1, 0): {(0, 0): 1}})
    rep = check_hom_ybe(B, identity(2))
    want_rel, want_comp, want_diff = FROZEN["monomial_bad_ybe"]
    assert rep.axiom_status["eq145"] == want_rel
    assert rep.axiom_status["ybe-compat"] == want_comp
    v = next(x for x in rep.violations if x.axiom == "eq145")
    got = (v.index[0], v.index[1], v.index[2],
           [(i, str(c)) for i, c in v.lhs], [(i, str(c)) for i, c in v.rhs])
    assert got == want_diff


def test_flip_twisted_by_diagonal_matches_frozen():
    tw = ybe_yau_twist(flip_map(2, 2), diag([1, 2]))
    assert sparse_columns(tw, (2, 2), (2, 2)) == FROZEN["flip_diag12_twist"]
    rep = check_hom_ybe(tw, diag([1, 2]))
    assert (rep.axiom_status["eq145"],
            rep.axiom_status["ybe-compat"]) == FROZEN["flip_diag12_twist_ybe_ok"]


def test_flip_passes_every_dimension():
    for d in (1, 2, 3):
        assert check_hom_ybe(flip_map(d, d), identity(d)).ok


def test_ybe_yau_twist_gates():
    bad = monomial_map({(0, 0): {(0, 1): 1}, (1, 0): {(0, 0): 1}})
    with pytest.raises(ValueError, match="classical-ybe"):
        ybe_yau_twist(bad, identity(2))
    scaled_flip = monomial_map({(0, 0): {(0, 0): 1}, (0, 1): {(1, 0): 2},
                                (1, 0): {(0, 1): 3}, (1, 1): {(1, 1): 1}})
    skew = LinMap.from_rows(QQ, [[1, 1], [0, 1]])
    with pytest.raises(ValueError, match="compatibility fails"):
        ybe_yau_twist(scaled_flip, skew)


@given(st.data())
def test_ybe_verdict_invariant_under_scaling(data):
    ents = st.integers(-2, 2)
    B = LinMap(QQ, 4, 4, [data.draw(ents) for _ in range(16)])
    lam = data.draw(st.sampled_from([2, -1, "1/3", 5]))
    alpha = diag([data.draw(st.sampled_from([1, 2, -1])),
                  data.draw(st.sampled_from([1, 3]))])
    r1 = check_hom_ybe(B, alpha)
    r2 = check_hom_ybe(B.scale(lam), alpha)
    assert r1.axiom_status == r2.axiom_status
    assert ([v.index for v in r1.violations]
            == [v.index for v in r2.violations])


@given(st.data())
def test_scaled_flips_always_satisfy_classical_relation(data):
    # B(ei (x) ej) = lam[i][j] ej (x) ei solves the braid relation for any
    # coefficients: both composites multiply the same three factors
    d = data.draw(st.integers(1, 3))
    ents = st.sampled_from([1, 2, 3, "1/2", -1, 5])
    entries = {(i, j): {(j, i): data.draw(ents)}
               for i in range(d) for j in range(d)}
    B = monomial_map(entries, d)
    rep = check_hom_ybe(B, identity(d))
    assert rep.axiom_status["eq145"] is True


def test_mixed_ybe_with_flips():
    rep = check_mixed_hom_ybe(flip_map(2, 3), flip_map(2, 2), flip_map(3, 2),
                              identity(2), identity(3), identity(2))
    assert rep.ok and rep.checked == ["hYBeB"]
    with pytest.raises(ValueError, match="b_uv shape mismatch"):
        check_mixed_hom_ybe(flip_map(2, 2), flip_map(2, 2), flip_map(3, 2),
                            identity(2), identity(3), identity(2))
