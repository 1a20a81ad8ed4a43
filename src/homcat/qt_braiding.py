"""Quasitriangular structure, braidings, and hom-Yang-Baxter checks.

An R-matrix is stored as its coefficient vector on the flattened tensor
square. Each defining condition is verified twice where feasible: once by
matrix composition (ids eq29, eq30, eq31) and once as an index formula
over nonzero structure constants, one hom_structures._contract call per
side (ids eq38, eq39, eq60, remQT-a/b; eq27 for the braiding). The two
routes must agree; they share no assembly code, so each guards the other
against indexing mistakes. braiding_from_r returns the braiding as a
plain LinMap; the hexagons never store one (see check_hexagon_instances).

Identity vocabulary (formulas, the contraction sides' among them, in
docs/formats.md):
  r-alpha-invariance  (alpha (x) alpha)(R) = R
  r-psi-invariance    (psi (x) psi)(R) = R
  eq29 / eq38   R comul(h) = comul-op(h) R  (matrix / contraction route)
  eq30 / eq39   (comul (x) alpha)(R) = sum psi(s_i) (x) psi(s_j) (x) t_i t_j
  eq31 / eq60   (alpha (x) comul)(R) = sum s_i s_j (x) psi(t_j) (x) psi(t_i)
  remQT-a       (comul (x) alpha psi)(R) = sum s_i (x) s_j (x) t_i t_j
  remQT-b       (alpha psi (x) comul)(R) = sum s_i s_j (x) t_j (x) t_i
  remQT-consistency  remQT-a/b verdicts match eq30/eq31 verdicts
  eq27          braiding dual-route agreement
  braiding-intertwine / braiding-h-linear / braiding-natural / braiding-g-compat
  eq45 / eq50   the two hexagon instances
  hYBeB         three-module mixed hom-Yang-Baxter relation (_braid_sides)
  eq145         hYBeB on one space, sides swapped: (B (x) a)(a (x) B)(B (x) a)
                = (a (x) B)(B (x) a)(a (x) B); classical-ybe is eq145 at a = id
  ybe-compat    (a (x) a) B = B (a (x) a), hom_structures._intertwining
"""

from __future__ import annotations

from math import isqrt

from .exact_tensor import Frozen, LinMap, Permutation, identity, kron, lazy
from .hom_structures import (
    CheckReport, _contract, _cube_terms, _intertwining, _map_terms, _run,
    check_hom_bialgebra, require,
)
from .rep_theory import check_module, tensor_module, twist_module


class RMatrix(Frozen):
    """Element of the tensor square: coeffs[flat(i,j)] on e_i (x) e_j."""

    __slots__ = ("field", "dim", "coeffs")

    def __init__(self, field, dim, coeffs):
        flat = tuple(map(field.coerce, coeffs))
        if len(flat) != dim * dim:
            raise ValueError(f"expected {dim * dim} coefficients, got {len(flat)}")
        self._set(field, flat)

    def _set(self, field, coeffs):
        # trusts coeffs, a tuple of dim^2 field scalars (see HomAlgebra._set)
        self._init(field=field, dim=isqrt(len(coeffs)), coeffs=coeffs)
        return self

    def as_vector(self):
        """The element as a dim^2 x 1 map from the ground field."""
        return LinMap.from_terms(self.field, len(self.coeffs), 1, (
            (k, 0, v) for k, v in enumerate(self.coeffs)))


def _r_terms(R):
    # R's nonzero coefficients as ((i, j), r): a _contract factor
    return [(divmod(k, R.dim), v) for k, v in enumerate(R.coeffs) if v]


def _route_terms(H, R):
    # the nonzeros of comul, mul and R, scanned once per R-check
    return *(_cube_terms(H.field, c) for c in (H.comul, H.mul)), _r_terms(R)


def _contract_eq38(H, terms):
    # both sides of R comul(h) = comul-op(h) R, per algebra basis vector h
    (d, m, r), f, dims = terms, H.field, dict.fromkeys("yzh", H.dim)
    return (_contract(f, "yz,h", dims, ("hij", d), ("uv", r), ("uiy", m),
                      ("vjz", m)),
            _contract(f, "yz,h", dims, ("hij", d), ("uv", r), ("juy", m),
                      ("ivz", m)))


def check_r_conditions(H, R):
    """The full quasitriangularity battery for an element of the tensor square.

    Invariance under both twists, the coproduct-flip exchange law (eq29 and
    eq38), and the two coproduct-splitting laws (eq30/eq39, eq31/eq60), each
    by two independent routes. When psi-invariance holds, the simplified
    forms remQT-a/remQT-b are also evaluated and must reach the same
    verdicts as eq30/eq31 (remQT-consistency).
    """
    if R.field != H.field:
        raise ValueError("field mismatch in check_r_conditions")
    if R.dim != H.dim:
        raise ValueError("R lives on the wrong tensor square")
    terms = _route_terms(H, R)
    qt = _run(_r_condition_checks(H, R, terms))
    if not qt.axiom_status["r-psi-invariance"]:
        return qt
    # the simplified splitting laws, valid once R is psi-invariant
    rem = _run(_contract_coproduct_splitting(
        H, terms, ("remQT-a", "remQT-b"), H.alpha.compose(H.psi),
        identity(H.dim, H.field)))
    s, r = qt.axiom_status, rem.axiom_status
    consistent = r["remQT-a"] == s["eq30"] and r["remQT-b"] == s["eq31"]
    return CheckReport.merge(
        qt, rem, CheckReport({"remQT-consistency": consistent}, ()))


def _r_condition_checks(H, R, terms):
    n = H.dim
    rv = R.as_vector()
    al, ps = H.alpha, H.psi
    yield ("r-alpha-invariance", lazy(al).kron_compose(al, rv), rv, (), (n, n))
    yield ("r-psi-invariance", lazy(ps).kron_compose(ps, rv), rv, (), (n, n))

    # exchange law, matrix route: R comul(e_h) and comul-op(e_h) R,
    # multiplied in the tensor square without storing its product map
    M = H.mul_linmap
    D = H.comul_linmap
    d_cop = D.permute_rows((n, n), (1, 0))
    yield ("eq29", lazy(M).pair_compose(M, rv, D, n),
           lazy(M).pair_compose(M, d_cop, rv, n), (n,), (n, n))
    # exchange law, contraction route
    yield ("eq38", *_contract_eq38(H, terms), (n,), (n, n))

    # coproduct-splitting laws, matrix route: R (x) R acting factorwise,
    # psi (x) psi on the left legs of its two copies and the product on
    # their right legs (eq30), or the product on the left legs and
    # psi (x) psi, flipped, on the right legs (eq31)
    pp = kron(ps, ps)
    yield ("eq30", lazy(D).kron_compose(al, rv),
           lazy(pp).pair_compose(M, rv, rv, n), (), (n, n, n))
    pp_flip = pp.permute_rows((n, n), (1, 0))
    yield ("eq31", lazy(al).kron_compose(D, rv),
           lazy(M).pair_compose(pp_flip, rv, rv, n), (), (n, n, n))

    # coproduct-splitting laws, contraction route
    yield from _contract_coproduct_splitting(H, terms, ("eq39", "eq60"), al,
                                             ps)


def _contract_coproduct_splitting(H, terms, axioms, t, u):
    # (comul (x) t)(R), then (t (x) comul)(R), each against its double-R
    # side with u on the two legs left unmultiplied, all by contraction
    (d, m, r), f, n = terms, H.field, H.dim
    t, u, dims = _map_terms(t), _map_terms(u), dict.fromkeys("xyz", n)
    # u(s_i) (x) u(s_j) (x) t_i t_j, with R = sum r[a][b] e_a (x) e_b twice
    yield (axioms[0],
           _contract(f, "xyz,", dims, ("ab", r), ("axy", d), ("zb", t)),
           _contract(f, "xyz,", dims, ("ab", r), ("ce", r), ("xa", u),
                     ("yc", u), ("bez", m)), (), (n, n, n))
    # s_i s_j (x) u(t_j) (x) u(t_i)
    yield (axioms[1],
           _contract(f, "xyz,", dims, ("ab", r), ("xa", t), ("byz", d)),
           _contract(f, "xyz,", dims, ("ab", r), ("ce", r), ("acx", m),
                     ("ye", u), ("zb", u)), (), (n, n, n))


def _swapped_r_action(R, U, V):
    # u (x) v -> sum R[i,j] (e_j.v) (x) (e_i.u), unformed, the flip in the
    # operands: V's action first, R flipped, and U (x) V's flip as c
    return lazy(V.action).pair_compose(
        U.action, R.as_vector().permute_rows((R.dim,) * 2, (1, 0)),
        Permutation(R.field, (U.dim, V.dim), (1, 0)), R.dim)


def _r_braiding(H, R, U, V):
    # braiding_from_r, unformed
    if R.field != H.field or U.field != H.field or V.field != H.field:
        raise ValueError("field mismatch in braiding_from_r")
    if R.dim != H.dim or U.hdim != H.dim or V.hdim != H.dim:
        raise ValueError("dimension mismatch in braiding_from_r")
    # e_i acts on the twisted module G(U) as alpha(e_i) acts on U
    return _swapped_r_action(R, twist_module(H, U, "G"),
                             twist_module(H, V, "G"))


def braiding_from_r(H, R, U, V):
    """The swap composed with the R-action through the twist map.

    u (x) v goes to sum R[i,j] (alpha(e_j).v) (x) (alpha(e_i).u), landing in
    the tensor product of the alpha-twisted modules in swapped order.
    """
    return _r_braiding(H, R, U, V).form()


def _action_terms(M):
    # e_t.e_u = sum a[t][u][k] e_k as ((t, u, k), a), read from the action's
    # column flat(t, u): a _contract factor
    return [((*divmod(c, M.dim), k), v)
            for c, col in enumerate(M.action.columns()) for k, v in col]


def _braiding_elementwise(H, R, U, V):
    # independent route: e_u (x) e_v goes to sum R[i,j] (alpha(e_j).e_v)
    # (x) (alpha(e_i).e_u), by contraction of the action entries
    a, dU, dV = _map_terms(H.alpha), U.dim, V.dim
    return _contract(H.field, "qk,uv", {"q": dV, "k": dU, "u": dU, "v": dV},
                     ("ij", _r_terms(R)), ("ti", a), ("tuk", _action_terms(U)),
                     ("sj", a), ("svq", _action_terms(V)))


def check_braiding_morphism(H, R, U, V, f=None, g=None):
    """Morphism properties of one braiding instance.

    eq27: the matrix-route map (the R-action through pair_compose, then
      the flip) agrees with elementwise assembly.
    braiding-intertwine: it intertwines the tensor structure maps.
    braiding-h-linear: it is linear over the algebra action into the
      swapped twisted tensor module.
    braiding-natural: naturality square against module morphisms f, g
      (defaulting to the structure maps into the alpha-twisted modules).
    braiding-g-compat: the braiding built on the twisted modules has the
      same matrix (needs alpha-invariance of R to hold).
    """
    def checks():
        c = braiding_from_r(H, R, U, V)
        dU, dV, n = U.dim, V.dim, H.dim
        yield ("eq27", c, _braiding_elementwise(H, R, U, V),
               (dU, dV), (dV, dU))
        yield _intertwining("braiding-intertwine", c, U.alpha, V.alpha)
        gu = twist_module(H, U, "G")
        gv = twist_module(H, V, "G")
        src_t = tensor_module(H, U, V)
        dst_t = tensor_module(H, gv, gu)
        yield ("braiding-h-linear",
               lazy(c).compose(src_t.action),
               lazy(dst_t.action).compose_kron(Permutation(H.field, (n,)), c),
               (n, dU, dV), (dV, dU))
        fm, U2 = (U.alpha, gu) if f is None else f
        gm, V2 = (V.alpha, gv) if g is None else g
        c2 = braiding_from_r(H, R, U2, V2)
        yield ("braiding-natural",
               lazy(c2).compose_kron(fm, gm),
               lazy(gm).kron_compose(fm, c), (dU, dV), (V2.dim, U2.dim))
        cg = braiding_from_r(H, R, gu, gv)
        yield ("braiding-g-compat", cg, c, (dU, dV), (dV, dU))
    return _run(checks())


def check_hexagon_instances(H, R, U, V, W):
    """The two hexagon identities instantiated on three modules.

    With identity associators the two composites of each hexagon reduce to
    products of braiding matrices, twisted-module braidings and structure
    maps; eq45 braids U past V (x) W, eq50 braids U (x) V past W. No
    braiding is stored, and each identity (one) is an index list.
    """
    dU, dV, dW = U.dim, V.dim, W.dim
    fu, fw, gu, gw = (twist_module(H, X, t) for t in "FG" for X in (U, W))
    vw, uv = tensor_module(H, V, W), tensor_module(H, U, V)

    def one(d):
        return Permutation(H.field, (d,))

    def checks():
        lhs45 = lazy(one(dV * dW)).kron_compose(
            U.alpha, _r_braiding(H, R, fu, vw))
        rhs45 = lazy(one(dV)).kron_compose(
            _r_braiding(H, R, gu, W), lazy(_r_braiding(H, R, U, V))
            .kron_compose(one(dW), one(dU * dV * dW)))
        yield ("eq45", lhs45, rhs45, (dU, dV, dW), (dV, dW, dU))
        lhs50 = lazy(W.alpha).kron_compose(one(dU * dV),
                                           _r_braiding(H, R, uv, fw))
        rhs50 = lazy(_r_braiding(H, R, U, gw)).kron_compose(
            one(dV), lazy(one(dU)).kron_compose(_r_braiding(H, R, V, W),
                                                one(dU * dV * dW)))
        yield ("eq50", lhs50, rhs50, (dU, dV, dW), (dW, dU, dV))
    return _run(checks())


def check_hom_ybe(B, alpha):
    """Twisted braid relation eq145 plus twist compatibility for one map."""
    d = alpha.rows
    if alpha.cols != d:
        raise ValueError("alpha must be square")
    if B.rows != d * d or B.cols != d * d:
        raise ValueError("B must be square of size alpha-dim squared")
    if B.field != alpha.field:
        raise ValueError("field mismatch in check_hom_ybe")
    return _run([_intertwining("ybe-compat", B, alpha, alpha),
                 _eq145("eq145", B, alpha)])


def _braid_sides(b_uv, b_uw, b_vw, a_u, a_v, a_w):
    # both composites of hYBeB, unformed; each stores its inner two factors
    lhs = lazy(a_w).kron_compose(b_uv, kron(b_uw, a_v).compose_kron(a_u, b_vw))
    rhs = lazy(b_vw).kron_compose(a_u, kron(a_v, b_uw).compose_kron(b_uv, a_w))
    return lhs, rhs


def _eq145(axiom, B, alpha):
    # eq145 is hYBeB on one space, with one map and one twist, sides swapped
    d = alpha.rows
    rhs, lhs = _braid_sides(B, B, B, alpha, alpha, alpha)
    return axiom, lhs, rhs, (d, d, d), (d, d, d)


def check_mixed_hom_ybe(b_uv, b_uw, b_vw, a_u, a_v, a_w):
    """Mixed twisted braid relation for three spaces.

    b_uv etc. are swap-shaped maps (U (x) V -> V (x) U); both composites
    below end in W (x) V (x) U and must be equal:
      (a_w (x) b_uv)(b_uw (x) a_v)(a_u (x) b_vw)
      = (b_vw (x) a_u)(a_v (x) b_uw)(b_uv (x) a_w)
    """
    dU, dV, dW = a_u.rows, a_v.rows, a_w.rows
    for name, b, s, t in (("b_uv", b_uv, dU, dV), ("b_uw", b_uw, dU, dW),
                          ("b_vw", b_vw, dV, dW)):
        if b.rows != t * s or b.cols != s * t:
            raise ValueError(f"{name} shape mismatch")
    lhs, rhs = _braid_sides(b_uv, b_uw, b_vw, a_u, a_v, a_w)
    return _run([("hYBeB", lhs, rhs, (dU, dV, dW), (dW, dV, dU))])


def b_from_qt(H, R, M):
    """Yang-Baxter operator on a module of a quasitriangular structure.

    m (x) m' goes to sum R[i,j] (e_j.m') (x) (e_i.m). All preconditions are
    verified: H must pass the full bialgebra battery, R the full
    quasitriangularity battery, M the module laws; the failing identity is
    named in the raised error.
    """
    require(check_hom_bialgebra, H, what="bialgebra laws fail:")
    require(check_r_conditions, H, R, what="quasitriangularity fails:")
    require(check_module, H, M, what="module laws fail:")
    return _swapped_r_action(R, M, M).form()


def ybe_yau_twist(B, alpha):
    """Twist a classical Yang-Baxter solution by a compatible map.

    Verifies the untwisted braid relation and twist compatibility, then
    returns (alpha (x) alpha) B, which satisfies eq145 with respect to alpha.
    """
    d = alpha.rows
    if alpha.cols != d or B.rows != d * d or B.cols != d * d:
        raise ValueError("shape mismatch in ybe_yau_twist")
    if not _run([_eq145("classical-ybe", B, identity(d, alpha.field))]).ok:
        raise ValueError("classical-ybe fails: input does not satisfy the "
                         "untwisted braid relation")
    if not _run([_intertwining("ybe-compat", B, alpha, alpha)]).ok:
        raise ValueError("compatibility fails: alpha (x) alpha does not "
                         "commute with B")
    return alpha.kron_compose(alpha, B)
