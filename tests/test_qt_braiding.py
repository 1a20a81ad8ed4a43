"""Quasitriangular batteries, braidings, hexagons and braid relations."""

import json
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import (
    FROZEN, cube, drinfeld_double_s3, drinfeld_r_s3, group_comul_cube,
    group_mul_cube, map_sizes, sparse_columns, sweedler_h4, sweedler_r,
    z2_bialgebra,
)

from homcat import exact_tensor
from homcat.exact_tensor import GF, QQ, LinMap, diag, flip_map, identity
from homcat.hom_structures import HomBialgebra, check_hom_bialgebra
from homcat.qt_braiding import (
    RMatrix, _braiding_elementwise, b_from_qt, braiding_from_r,
    check_braiding_morphism, check_hexagon_instances, check_hom_ybe,
    check_mixed_hom_ybe, check_r_conditions, ybe_yau_twist,
)
from homcat.rep_theory import (
    conjugate_module, module_from_cube, regular_module, tensor_module,
    zero_module,
)
from homcat.workbench_cli import gen_kz2_qt

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


def test_r_conditions_build_no_map_above_n4_entries():
    # eq29 multiplies in the tensor square without storing its 16 x 256
    # product map, and eq30 and eq31 apply R (x) R without storing it; the
    # largest maps left are the 256-entry psi (x) psi and its row flip
    H, R = sweedler_h4(QQ), sweedler_r(QQ, 1)
    with map_sizes() as sizes:
        assert check_r_conditions(H, R).ok
    assert max(sizes) <= 4 ** 4


def test_r_conditions_hold_on_the_drinfeld_double_of_s3():
    # D(S_3) is quasitriangular with R = sum_g (delta_g (x) e) (x) (1 (x) g)
    field = GF(5)
    rep = check_r_conditions(drinfeld_double_s3(field), drinfeld_r_s3(field))
    assert rep.ok and len(rep.checked) == 11


def test_r_conditions_hold_at_n43():
    # eq30's comul (x) alpha would have 43^5 entries, past the cap, but is
    # never stored; the largest map built is the n^4-entry psi (x) psi
    n, field = 43, GF(5)
    alpha = identity(n, field)
    H = HomBialgebra(field, group_mul_cube(n), group_comul_cube(n), alpha,
                     alpha)
    rep = check_r_conditions(H, RMatrix(field, n, [1] + [0] * (n * n - 1)))
    assert rep.ok and len(rep.checked) == 11


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
    assert isinstance(c, LinMap)
    assert sparse_columns(c, (2, 2), (2, 2)) == FROZEN["kz2_braiding"]
    sq_id = c.compose(c) == identity(4)
    assert sq_id == FROZEN["kz2_braiding_squares_to_id"]


def test_braiding_morphism_battery():
    H = z2_bialgebra()
    M = regular_module(H)
    rep = check_braiding_morphism(H, triangular_r(), M, M)
    assert rep.ok
    assert rep.checked == ["braiding-g-compat", "braiding-h-linear",
                           "braiding-intertwine", "braiding-natural", "eq27"]


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_braiding_natural_against_supplied_morphisms(field):
    # braiding-natural squares the braiding against f: U -> U2 and
    # g: V -> V2 given as (map, target module); kz2-qt, U = V = regular
    H, R = gen_kz2_qt(field)
    U = regular_module(H)
    k = LinMap.from_rows(field, [[1, 1], [0, 1]])
    conj = (k, conjugate_module(U, k))  # a module isomorphism
    rep = check_braiding_morphism(H, R, U, U, f=conj, g=conj)
    assert rep.ok and len(rep.checked) == 5
    # diag(1, 2) is no module map U -> U, so only the square fails
    rep = check_braiding_morphism(H, R, U, U, f=(diag([1, 2], field), U),
                                  g=(identity(2, field), U))
    assert rep.failed_axioms == ["braiding-natural"]
    assert len(rep.checked) == 5
    assert {v.axiom for v in rep.violations} == {"braiding-natural"}


def test_braiding_on_zero_module():
    H = z2_bialgebra()
    Z = zero_module(QQ, 2, diag([2, 3]))
    M = regular_module(H)
    c = braiding_from_r(H, triangular_r(), Z, M)
    assert c.is_zero()
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
    assert (c.rows, c.cols) == (256, 256)
    assert counts["__mul__"] < 5000
    assert counts["__add__"] < 5000
    assert c == _braiding_elementwise(H, triangular_r(), U, V)


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


def test_hexagons_store_no_map_above_the_tensor_modules():
    # kZ_2 on its regular tensor powers of dims 8, 8 and 4: the braidings
    # of eq45 and eq50 are up to 256 x 256 with 4-10% nonzeros; none is
    # stored, nor a braiding (x) identity, so the largest stored maps are
    # the tensor modules' actions (64 x 128 for U (x) V)
    H, R = gen_kz2_qt()
    reg = regular_module(H)
    powers = [reg]
    for _ in range(2):
        powers.append(tensor_module(H, powers[-1], reg))
    U, V, W = powers[2], powers[2], powers[1]
    actions = [tensor_module(H, X, Y).action for X, Y in ((U, V), (V, W))]
    with map_sizes() as sizes:
        rep = check_hexagon_instances(H, R, U, V, W)
    assert rep.ok and rep.checked == ["eq45", "eq50"]
    assert max(sizes) <= max(a.rows * a.cols for a in actions) == 64 * 128


def test_hexagon_on_zero_modules_stores_no_map_above_the_tensor_modules():
    # three 6-dim zero modules: eq45's sides are 216 x 216 and their
    # braidings 216 x 216 too, but only the 36-dim tensor modules' actions
    # are stored
    H = HomBialgebra(QQ, [[[1]]], [[[1]]], identity(1), identity(1))
    Z = zero_module(QQ, 1, identity(6))
    with map_sizes() as sizes:
        rep = check_hexagon_instances(H, RMatrix(QQ, 1, [1]), Z, Z, Z)
    assert rep.ok and rep.checked == ["eq45", "eq50"]
    assert max(sizes) == 36 ** 2


def test_oversized_hexagon_refused_at_its_tensor_module():
    # three 108-dim modules: the tensor modules' actions would be 11664 x
    # 11664, above the cap, and are refused before anything is allocated,
    # ahead of any braiding
    H = HomBialgebra(QQ, [[[1]]], [[[1]]], identity(1), identity(1))
    Z = zero_module(QQ, 1, identity(108))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=(
                "^pair_compose output 11664x11664 exceeds the cap")):
            check_hexagon_instances(H, RMatrix(QQ, 1, [1]), Z, Z, Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_oversized_hexagon_refused_at_its_first_lift():
    # three 23-dim modules: eq45's maps are 12167 x 12167, above the cap;
    # the braiding that the lift id (x) alpha_U composes with refuses when
    # read, and no map larger than the 529-dim tensor modules has been built
    H = HomBialgebra(QQ, [[[1]]], [[[1]]], identity(1), identity(1))
    Z = zero_module(QQ, 1, identity(23))
    with map_sizes() as sizes, pytest.raises(ValueError, match=(
            "^pair_compose output 12167x12167 exceeds the cap")):
        check_hexagon_instances(H, RMatrix(QQ, 1, [1]), Z, Z, Z)
    assert max(sizes) == 529 ** 2


def test_dense_hexagon_braiding_refused_before_its_nonzeros_are_read(
        monkeypatch):
    # kZ_2 on three 6-dim modules where g acts by a dense conjugate of
    # diag(1, -1, ...): the braidings are 216 x 216 and dense, so with the
    # cap just below that the first one read refuses before holding its
    # nonzeros (about 5 MiB), having stored only the 36 x 72 tensor actions
    H, R = gen_kz2_qt()
    g = diag([(-1) ** i for i in range(6)])
    M = module_from_cube(QQ, [identity(6).row_lists(), g.row_lists()],
                         identity(6))
    D = conjugate_module(M, LinMap.from_rows(
        QQ, [[1 + (i == j) for j in range(6)] for i in range(6)]))
    monkeypatch.setattr(exact_tensor, "MAX_MAP_ENTRIES", 216 ** 2 - 1)
    tracemalloc.start()
    try:
        with map_sizes() as sizes, pytest.raises(ValueError, match=(
                "^pair_compose output 216x216 exceeds the cap of 46655")):
            check_hexagon_instances(H, R, D, D, D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(sizes) == 36 * 72 and peak < 1 << 20


def test_oversized_tensor_module_and_braiding_refused_before_allocating():
    # two 108-dim modules: both maps are 11664 x 11664, above the cap; the
    # refusal comes before the identity they compose through is built
    H = HomBialgebra(QQ, [[[1]]], [[[1]]], identity(1), identity(1))
    Z = zero_module(QQ, 1, identity(108))
    for build in (lambda: tensor_module(H, Z, Z),
                  lambda: braiding_from_r(H, RMatrix(QQ, 1, [1]), Z, Z)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=(
                    "^pair_compose output 11664x11664 exceeds the cap")):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


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


def test_eq145_is_hybeb_on_one_space_with_its_sides_swapped():
    B = monomial_map({(0, 0): {(0, 1): 1}, (1, 0): {(0, 0): 1}})
    a = diag([1, 2])
    one = check_hom_ybe(B, a)
    mixed = check_mixed_hom_ybe(B, B, B, a, a, a)
    assert one.axiom_status["eq145"] is mixed.axiom_status["hYBeB"] is False

    def dump(v, first, second):
        ce = v.counterexample()
        return json.dumps([ce["index"], ce[first], ce[second]])

    want = [dump(v, "rhs", "lhs") for v in mixed.violations]
    assert want and want == [dump(v, "lhs", "rhs") for v in one.violations
                             if v.axiom == "eq145"]


def test_flip_passes_every_dimension():
    for d in (1, 2, 3):
        assert check_hom_ybe(flip_map(d, d), identity(d)).ok


def test_ybe_yau_twist_gates():
    bad = monomial_map({(0, 0): {(0, 1): 1}, (1, 0): {(0, 0): 1}})
    with pytest.raises(ValueError, match=(
            "^classical-ybe fails: input does not satisfy the untwisted "
            "braid relation$")):
        ybe_yau_twist(bad, identity(2))
    scaled_flip = monomial_map({(0, 0): {(0, 0): 1}, (0, 1): {(1, 0): 2},
                                (1, 0): {(0, 1): 3}, (1, 1): {(1, 1): 1}})
    skew = LinMap.from_rows(QQ, [[1, 1], [0, 1]])
    with pytest.raises(ValueError, match=(
            r"^compatibility fails: alpha \(x\) alpha does not commute "
            r"with B$")):
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
