"""Yetter-Drinfeld compatibility, tensor closure, B maps and twists."""

from itertools import product

import pytest

from conftest import (
    FROZEN, cube, drinfeld_double_s3, drinfeld_module_s3, drinfeld_r_s3,
    freeze_violations, map_sizes, s3_bialgebra, s3_transposition_yd,
    sparse_columns, z2_bialgebra,
)

from homcat import dehomify, yetter_drinfeld
from homcat.dehomify import cross_check_yd
from homcat.exact_tensor import GF, QQ, LinMap, diag, identity
from homcat.hom_structures import VIOLATION_CAP, HomBialgebra
from homcat.qt_braiding import (
    braiding_from_r, check_hom_ybe, check_mixed_hom_ybe,
)
from homcat.rep_theory import (
    check_comodule_morphism, check_module, check_module_morphism,
)
from homcat.yetter_drinfeld import (
    YDModule, b_yd, check_yd, f_twist_yd, quasi_braiding_yd, yd_associator,
    yd_from_cubes, yd_tensor,
)
from homcat.yetter_drinfeld import _b_yd_map, _yd_tensor_coaction

Z2MUL = cube({(i, j, (i + j) % 2): 1 for i in range(2) for j in range(2)},
             (2, 2, 2))
REGCO = cube({(i, i, i): 1 for i in range(2)}, (2, 2, 2))
CONCO = cube({(i, 1, i): 1 for i in range(2)}, (2, 2, 2))
SIGN = cube({(h, m, m): (-1) ** (h * m) for h in range(2) for m in range(2)},
            (2, 2, 2))
TRIV = cube({(h, m, m): 1 for h in range(2) for m in range(2)}, (2, 2, 2))


@pytest.fixture(scope="module")
def H():
    return z2_bialgebra()


@pytest.fixture(scope="module")
def yd_regular():
    # regular action paired with the grading coaction: not compatible
    return yd_from_cubes(QQ, Z2MUL, REGCO, identity(2))


@pytest.fixture(scope="module")
def pool():
    return {
        "A": yd_from_cubes(QQ, Z2MUL, CONCO, identity(2)),
        "B": yd_from_cubes(QQ, SIGN, REGCO, identity(2)),
        "C": yd_from_cubes(QQ, TRIV, REGCO, identity(2)),
    }


# ---------------------------------------------------------- compatibility

def test_regular_grading_pair_fails_homyd(H, yd_regular):
    rep = check_yd(H, yd_regular)
    assert rep.ok == FROZEN["z2_yd_regular_ok"]
    assert list(rep.failed_axioms) == ["homYD"]
    assert (freeze_violations(rep.violations)[:1]
            == FROZEN["z2_yd_regular_first_violation"])


def test_constant_coaction_fixture_passes(H):
    M = yd_from_cubes(QQ, Z2MUL, CONCO, identity(2))
    rep = check_yd(H, M)
    assert rep.ok
    assert (rep.axiom_status["comodul1"] and rep.axiom_status["comodul2"]) \
        == FROZEN["z2_yd_constant_comodule_ok"]
    assert rep.axiom_status["homYD"] == FROZEN["z2_yd_constant_homyd_ok"]


def test_valid_pool(H, pool):
    got = {k: check_yd(H, M).ok for k, M in pool.items()}
    assert got == FROZEN["z2_yd_valid_fixtures_ok"]


def test_scaled_twist_breaks_sign_fixture(H):
    M = yd_from_cubes(QQ, SIGN, REGCO, diag([2, 2]))
    assert check_yd(H, M).ok == FROZEN["z2_yd_fixture_B_scaled_ok"]


def test_zero_fixture_tolerates_any_twist(H):
    zc = cube({}, (2, 2, 2))
    M = yd_from_cubes(QQ, zc, zc, diag([2, 3]))
    assert check_yd(H, M).ok == FROZEN["z2_yd_zero_scaled_ok"]


def test_yd_module_holds_its_module_and_comodule_once(yd_regular):
    M = yd_regular
    assert M.module is M.module and M.comodule is M.comodule
    assert (M.module.action, M.module.alpha) == (M.action, M.alpha)
    assert (M.comodule.coaction, M.comodule.psi) == (M.coaction, M.alpha)


def test_check_yd_axiom_ids(H, pool):
    rep = check_yd(H, pool["A"])
    assert rep.checked == ["comodul1", "comodul2", "eq8", "eq9", "homYD"]


# -------------------------------------------------------- tensor structure

def test_tensor_coaction_matches_frozen(H, yd_regular):
    tc = _yd_tensor_coaction(H, yd_regular, yd_regular)
    got = {}
    for m in range(2):
        for n in range(2):
            ent = [((r // 4, (r // 2) % 2, r % 2), str(c))
                   for r, c in tc.columns()[m * 2 + n]]
            got[(m, n)] = ent
    assert got == FROZEN["z2_yd_tensor_coact"]


def test_tensor_closure(H, pool):
    got = {}
    for f1, f2 in product("ABC", repeat=2):
        T = yd_tensor(H, pool[f1], pool[f2])
        got[f1 + f2] = check_yd(H, T).ok
    assert got == FROZEN["z2_yd_tensor_closure_ok"]


def _ks3(field):
    return (s3_bialgebra(field), s3_transposition_yd(1, field),
            s3_transposition_yd(0, field))


# kS_3 is not commutative, so these see the factor order of the tensor
# coaction
@pytest.fixture(scope="module", params=[QQ, GF(5)], ids=["Q", "GF5"])
def ks3(request):
    return _ks3(request.param)


def test_ks3_transposition_modules_and_their_tensor_are_yd(ks3):
    H3, signed, unsigned = ks3
    for M in (signed, unsigned, yd_tensor(H3, signed, unsigned)):
        assert check_yd(H3, M).ok


def test_ks3_dehomified_hexagons_hold(ks3):
    # the family of `homcat dehomify hexagons` on (signed, unsigned, signed),
    # with ungated B-maps: the test above checks that the inputs are YD
    H3, signed, unsigned = ks3
    U, V, W = signed, unsigned, signed
    fam = dehomify.ConstraintFamily(H3.field)
    for label, M in zip("UVW", (U, V, W)):
        fam.add_module(label, M.alpha)
    fam.add_pair_map("U", "V", _b_yd_map(H3, U, V))
    fam.add_pair_map("U", "W", _b_yd_map(H3, U, W))
    fam.add_pair_map("V", "W", _b_yd_map(H3, V, W))
    fam.add_pair_map("U", ("V", "W"), _b_yd_map(H3, U, yd_tensor(H3, V, W)))
    fam.add_pair_map(("U", "V"), "W", _b_yd_map(H3, yd_tensor(H3, U, V), W))
    rep = dehomify.check_hexagons(fam, fam, "U", "V", "W")
    assert rep.axiom_status == {"hex1": True, "hex2": True}


def test_ks3_yd_check_builds_no_map_above_its_homyd_square():
    # the homYD sides are (n dm)^2 = 2916 entries on the dim-9 tensor; no
    # Kronecker product with an identity on H (x) H is stored
    H3, signed, unsigned = _ks3(QQ)
    T = yd_tensor(H3, signed, unsigned)
    with map_sizes() as sizes:
        assert check_yd(H3, T).ok
    assert max(sizes) <= (H3.dim * T.dim) ** 2 == 2916


def test_drinfeld_double_braiding_is_the_yd_braiding_over_ks3():
    # D(S_3)-modules are the YD modules over kS_3, and the R-braiding of
    # D(S_3) is their YD braiding. The two sides are written separately:
    # _b_yd_map calls nothing from rep_theory or qt_braiding, and the two
    # share only exact_tensor kernels, each checked against its unfused
    # formula in test_exact_tensor
    H3, signed, unsigned = _ks3(GF(5))
    D, R = drinfeld_double_s3(H3.field), drinfeld_r_s3(H3.field)
    pool = (signed, unsigned, yd_tensor(H3, signed, unsigned))
    as_d = [drinfeld_module_s3(M) for M in pool]
    for M in as_d:
        assert check_module(D, M).ok
    for (M, MD), (N, ND) in product(zip(pool, as_d), repeat=2):
        assert braiding_from_r(D, R, MD, ND).map == b_yd(H3, M, N)


def test_tensor_gates_on_invalid_input(H, yd_regular):
    with pytest.raises(ValueError, match="precondition fails"):
        yd_tensor(H, yd_regular, yd_regular)


def test_invalid_input_refused_the_same_way_on_repeat_calls(H, yd_regular):
    # the second call reads the memoized verdict; the message is unchanged
    for _ in range(2):
        with pytest.raises(ValueError) as exc:
            yd_tensor(H, yd_regular, yd_regular)
        assert str(exc.value) == "yd_tensor precondition fails: ['homYD']"
        with pytest.raises(ValueError) as exc:
            cross_check_yd(H, yd_regular, yd_regular)
        assert str(exc.value) == \
            "cross_check_yd precondition fails: ['homYD']"


def test_cross_check_validates_each_input_once(H, pool, monkeypatch):
    # fresh copies, so no verdict is memoized yet
    M, N = (YDModule(QQ, X.action, X.coaction, X.alpha)
            for X in (pool["A"], pool["B"]))
    seen = []

    def counting(H_, X, *rest):
        seen.append(X)
        return check_yd(H_, X, *rest)

    # every module namespace that holds check_yd sees one wrapper, as the
    # checkers look it up at call time
    for mod in (yetter_drinfeld, dehomify):
        monkeypatch.setattr(mod, "check_yd", counting)
    assert cross_check_yd(H, M, N).ok
    assert len(seen) == 2 and seen.count(M) == 1 and seen.count(N) == 1


# ------------------------------------------------------------------ B map

def test_b_map_on_regular_pair_matches_frozen(H, yd_regular):
    B = _b_yd_map(H, yd_regular, yd_regular)
    assert sparse_columns(B, (2, 2), (2, 2)) == FROZEN["z2_b_yd"]
    rep = check_hom_ybe(B, identity(2))
    assert (rep.axiom_status["eq145"],
            rep.axiom_status["ybe-compat"]) == FROZEN["z2_b_yd_ybe_ok"]


def test_b_map_tables_and_morphisms(H, pool):
    tables = {}
    morphisms = {}
    for f1, f2 in product("ABC", repeat=2):
        M, N = pool[f1], pool[f2]
        b = b_yd(H, M, N)
        tables[f1 + f2] = sparse_columns(b, (2, 2), (2, 2))
        src = yd_tensor(H, M, N)
        dst = yd_tensor(H, f_twist_yd(H, N), f_twist_yd(H, M))
        morphisms[f1 + f2] = (
            check_module_morphism(b, H, src.module, dst.module).ok,
            check_comodule_morphism(b, H.coalgebra, src.comodule,
                                    dst.comodule).ok)
    assert tables == FROZEN["z2_b_yd_tables"]
    assert morphisms == FROZEN["z2_b_yd_morphism_ok"]


def test_mixed_braid_relation_on_pool(H, pool):
    got = {}
    for f1, f2, f3 in product("ABC", repeat=3):
        M, N, P = pool[f1], pool[f2], pool[f3]
        got[f1 + f2 + f3] = check_mixed_hom_ybe(
            b_yd(H, M, N), b_yd(H, M, P), b_yd(H, N, P),
            M.alpha, N.alpha, P.alpha).ok
    assert got == FROZEN["z2_yd_mixed_ybe_ok"]


# ------------------------------------------------ derived transformations

def test_quasi_braiding_equals_b_for_identity_twists(H, pool):
    A, B = pool["A"], pool["B"]
    assert quasi_braiding_yd(H, A, B) == b_yd(H, A, B)


def test_associator_on_scalar_twists():
    zero_act = LinMap.from_rows(QQ, [[0, 0]])
    zero_co = LinMap.from_rows(QQ, [[0], [0]])
    M = YDModule(QQ, zero_act, zero_co, diag([2]))
    N = YDModule(QQ, zero_act, zero_co, identity(1))
    P = YDModule(QQ, zero_act, zero_co, diag([3]))
    a = yd_associator(M, N, P)
    assert str(a.entry(0, 0)) == "3/2"


def test_f_twist_is_identity_over_classical_base(H, pool):
    A = pool["A"]
    FA = f_twist_yd(H, A)
    assert (FA.action, FA.coaction, FA.alpha) == (A.action, A.coaction, A.alpha)


def test_f_twist_preserves_b(H, pool):
    A, B = pool["A"], pool["B"]
    assert b_yd(H, f_twist_yd(H, A), f_twist_yd(H, B)) == b_yd(H, A, B)


# ---------------------------------------------------------- twisted base

# alpha = psi = [[1, 1], [0, 1]], so alpha, alpha^2, alpha^-1 and alpha^-2
# all differ and each formula's power of the twist map shows; the module
# has the same structure map and fails homYD with both sides nonzero
JORDAN = LinMap.from_rows(QQ, [[1, 1], [0, 1]])
JMUL = cube({(1, 0, 0): -1, (1, 1, 0): 1, (1, 1, 1): -1}, (2, 2, 2))
JCOMUL = cube({(0, 0, 0): 1, (0, 0, 1): 1, (0, 1, 1): 2, (1, 0, 1): 1,
               (1, 1, 0): -1}, (2, 2, 2))
JACT = cube({(0, 1, 0): -1, (1, 0, 0): -1, (1, 1, 0): 1, (1, 1, 1): -1},
            (2, 2, 2))
JCOACT = cube({(0, 0, 1): 1, (0, 1, 0): -1, (1, 1, 1): 1}, (2, 2, 2))


@pytest.fixture(scope="module")
def jordan():
    return (HomBialgebra(QQ, JMUL, JCOMUL, JORDAN, JORDAN),
            yd_from_cubes(QQ, JACT, JCOACT, JORDAN))


def test_twisted_base_homyd_violations_match_frozen(jordan):
    H, M = jordan
    rep = check_yd(H, M)
    assert len(rep.violations) < VIOLATION_CAP    # so none is cut
    assert ([v for v in freeze_violations(rep.violations) if v[0] == "homYD"]
            == FROZEN["jordan_yd_homyd_violations"])


def test_twisted_base_tensor_coaction_matches_frozen(jordan):
    H, M = jordan
    assert (sparse_columns(_yd_tensor_coaction(H, M, M), (2, 2), (2, 2, 2))
            == FROZEN["jordan_yd_tensor_coact"])


def test_twisted_base_b_map_matches_frozen(jordan):
    H, M = jordan
    assert (sparse_columns(_b_yd_map(H, M, M), (2, 2), (2, 2))
            == FROZEN["jordan_b_yd"])


# ------------------------------------------------------------ entry gates

def test_unequal_twists_rejected(yd_regular):
    Hbad = HomBialgebra(QQ, Z2MUL, REGCO, identity(2), diag([1, -1]))
    with pytest.raises(ValueError, match="equal twist maps"):
        check_yd(Hbad, yd_regular)


def test_singular_twist_rejected(yd_regular):
    Hbad = HomBialgebra(QQ, Z2MUL, REGCO, diag([1, 0]), diag([1, 0]))
    with pytest.raises(ValueError, match="invertible twist map"):
        check_yd(Hbad, yd_regular)


def test_quasi_braiding_needs_invertible_module_twists(H, pool):
    bad = YDModule(QQ, LinMap.from_rows(QQ, [[0] * 4, [0] * 4]),
                   LinMap.from_rows(QQ, [[0] * 2] * 4), diag([1, 0]))
    with pytest.raises(ValueError, match="invertible"):
        quasi_braiding_yd(H, bad, pool["A"])


def test_yd_shape_validation():
    with pytest.raises(ValueError):
        YDModule(QQ, LinMap.from_rows(QQ, [[0] * 4, [0] * 4]),
                 LinMap.from_rows(QQ, [[0] * 2] * 6), identity(2))
