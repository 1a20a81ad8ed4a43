"""Quasitriangular structure, braidings, and hom-Yang-Baxter checks.

An R-matrix is stored as its coefficient vector on the flattened tensor
square. Each defining condition is verified twice where feasible: once by
matrix composition (ids eq29, eq30, eq31) and once by direct contraction of
structure constants (ids eq38, eq39, eq60). The two routes must agree; they
share no assembly code, so each guards the other against indexing mistakes.

Identity vocabulary (formulas in docs/formats.md):
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
  eq145         (B (x) a)(a (x) B)(B (x) a) = (a (x) B)(B (x) a)(a (x) B)
  ybe-compat    (a (x) a) B = B (a (x) a)
  classical-ybe untwisted braid relation, used as a twisting precondition
  hYBeB         three-module mixed hom-Yang-Baxter relation
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

from .exact_tensor import (
    Frozen, LinMap, identity, kron, kron_shape, zero_map,
)
from .hom_structures import (
    CheckReport, _run, check_hom_bialgebra, compare_maps, require,
    tensor_square_mul,
)
from .rep_theory import check_module, tensor_module, twist_module


class RMatrix(Frozen):
    """Element of the tensor square: coeffs[flat(i,j)] on e_i (x) e_j."""

    __slots__ = ("field", "dim", "coeffs")

    def __init__(self, field, dim, coeffs):
        flat = tuple(field.coerce(v) for v in coeffs)
        if len(flat) != dim * dim:
            raise ValueError(f"expected {dim * dim} coefficients, got {len(flat)}")
        self._init(field=field, dim=dim, coeffs=flat)

    def entry(self, i, j):
        return self.coeffs[i * self.dim + j]

    def as_vector(self):
        """The element as a dim^2 x 1 map from the ground field."""
        return LinMap.from_cols(self.field, [self.coeffs], self.dim * self.dim)

    def nonzero(self):
        n = self.dim
        return [(i // n, i % n, v) for i, v in enumerate(self.coeffs) if v]


class BraidMap(NamedTuple):
    """A braiding instance: matrix plus the two source modules."""

    map: LinMap
    src_u: object
    src_v: object


def _contract_eq38(H, R):
    # both sides of R comul(h) = comul-op(h) R, per algebra basis vector h
    n = H.dim
    mul, comul = H.mul, H.comul
    nz = R.nonzero()
    lhs, rhs = [], []
    for h in range(n):
        for i in range(n):
            for j in range(n):
                d = comul[h][i][j]
                if not d:
                    continue
                for u, v, r in nz:
                    rd = r * d
                    for y in range(n):
                        a = mul[u][i][y]
                        b = mul[j][u][y]
                        for z in range(n):
                            if a:
                                m2 = mul[v][j][z]
                                if m2:
                                    lhs.append((y * n + z, h, rd * a * m2))
                            if b:
                                m2 = mul[i][v][z]
                                if m2:
                                    rhs.append((y * n + z, h, rd * b * m2))
    return (LinMap.from_terms(H.field, n * n, n, lhs),
            LinMap.from_terms(H.field, n * n, n, rhs))


def _contract_coproduct_side(H, R, left_slot, twist):
    # (comul (x) twist)(R) when left_slot, else (twist (x) comul)(R)
    n = H.dim
    comul = H.comul
    tcols = twist.columns()
    for u, v, r in R.nonzero():
        if left_slot:
            for x in range(n):
                for y in range(n):
                    d = comul[u][x][y]
                    if not d:
                        continue
                    for z, t in tcols[v]:
                        yield (x * n + y) * n + z, r * d * t
        else:
            for y in range(n):
                for z in range(n):
                    d = comul[v][y][z]
                    if not d:
                        continue
                    for x, t in tcols[u]:
                        yield (x * n + y) * n + z, r * t * d


def _contract_rr_side(H, R, variant):
    # the double-R sides of eq39/eq60 and their remQT analogues
    if variant not in ("eq39", "eq60", "plain-left", "plain-right"):
        raise ValueError(f"unknown variant {variant!r}")
    n = H.dim
    mul = H.mul
    pcols = H.psi.columns()
    nz = R.nonzero()
    for u, v, r1 in nz:
        for q, w, r2 in nz:
            r = r1 * r2
            if variant == "eq39":
                # psi(s_i) (x) psi(s_j) (x) t_i t_j ; i = (u,v), j = (q,w)
                for x, a in pcols[u]:
                    for y, b in pcols[q]:
                        for z in range(n):
                            m = mul[v][w][z]
                            if m:
                                yield (x * n + y) * n + z, r * a * b * m
            elif variant == "eq60":
                # s_i s_j (x) psi(t_j) (x) psi(t_i)
                for x in range(n):
                    m = mul[u][q][x]
                    if not m:
                        continue
                    for y, b in pcols[w]:
                        for z, a in pcols[v]:
                            yield (x * n + y) * n + z, r * m * b * a
            elif variant == "plain-left":
                # s_i (x) s_j (x) t_i t_j
                for z in range(n):
                    m = mul[v][w][z]
                    if m:
                        yield (u * n + q) * n + z, r * m
            else:
                # s_i s_j (x) t_j (x) t_i
                for x in range(n):
                    m = mul[u][q][x]
                    if m:
                        yield (x * n + w) * n + v, r * m


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
    qt = _run(_r_condition_checks(H, R))
    if not qt.axiom_status["r-psi-invariance"]:
        return qt
    rem = _run(_rem_qt_checks(H, R))
    s, r = qt.axiom_status, rem.axiom_status
    consistent = r["remQT-a"] == s["eq30"] and r["remQT-b"] == s["eq31"]
    return CheckReport.merge(
        qt, rem, CheckReport({"remQT-consistency": consistent}, ()))


def _element(H, terms):
    # one tensor element of H^(x)3 as a one-column map, from (index, value)
    return LinMap.from_terms(H.field, H.dim ** 3, 1,
                             ((i, 0, v) for i, v in terms))


def _r_condition_checks(H, R):
    n = H.dim
    rv = R.as_vector()
    al, ps = H.alpha, H.psi
    yield ("r-alpha-invariance", al.kron_compose(al, rv), rv, (), (n, n))
    yield ("r-psi-invariance", ps.kron_compose(ps, rv), rv, (), (n, n))

    # exchange law, matrix route: multiply inside the tensor square
    M2 = tensor_square_mul(H.mul_linmap)
    D = H.comul_linmap
    d_cop = D.permute_rows((n, n), (1, 0))
    yield ("eq29", M2.compose_kron(rv, D), M2.compose_kron(d_cop, rv),
           (n,), (n, n))
    # exchange law, contraction route
    lhs38, rhs38 = _contract_eq38(H, R)
    yield ("eq38", lhs38, rhs38, (n,), (n, n))

    # coproduct-splitting laws, matrix route
    rr = kron(rv, rv)
    swap_mid = rr.permute_rows((n, n, n, n), (0, 2, 1, 3))
    rhs30 = kron(ps, ps).kron_compose(H.mul_linmap, swap_mid)
    yield ("eq30", D.kron_compose(al, rv), rhs30, (), (n, n, n))
    to_xzwy = rr.permute_rows((n, n, n, n), (0, 2, 3, 1))
    rhs31 = H.mul_linmap.kron_compose(kron(ps, ps), to_xzwy)
    yield ("eq31", al.kron_compose(D, rv), rhs31, (), (n, n, n))

    # coproduct-splitting laws, contraction route
    yield ("eq39", _element(H, _contract_coproduct_side(H, R, True, al)),
           _element(H, _contract_rr_side(H, R, "eq39")), (), (n, n, n))
    yield ("eq60", _element(H, _contract_coproduct_side(H, R, False, al)),
           _element(H, _contract_rr_side(H, R, "eq60")), (), (n, n, n))


def _rem_qt_checks(H, R):
    # the simplified splitting laws, valid once R is psi-invariant
    n = H.dim
    alps = H.alpha.compose(H.psi)
    yield ("remQT-a", _element(H, _contract_coproduct_side(H, R, True, alps)),
           _element(H, _contract_rr_side(H, R, "plain-left")), (), (n, n, n))
    yield ("remQT-b", _element(H, _contract_coproduct_side(H, R, False, alps)),
           _element(H, _contract_rr_side(H, R, "plain-right")), (), (n, n, n))


def _left_mult_maps(M):
    """Square matrices of the action by each algebra basis vector."""
    dm = M.dim
    return [LinMap.from_terms(M.field, dm, dm, (
        (k, m, v) for m, col in enumerate(cols) for k, v in col))
        for cols in M.action_columns()]


def _swapped_r_action(R, U, V):
    # u (x) v -> sum R[i,j] (e_j.v) (x) (e_i.u): the R-action, then the flip;
    # summed per row of R as sum_i L_i (x) (sum_j R[i,j] L'_j), so scaling
    # and summing happen on V's small factor and there is one kron per row
    lu, lv = _left_mult_maps(U), _left_mult_maps(V)
    acc = zero_map(U.dim * V.dim, U.dim * V.dim, R.field)
    for i, row in groupby(R.nonzero(), key=itemgetter(0)):
        right = zero_map(V.dim, V.dim, R.field)
        for _, j, r in row:
            right = right.add(lv[j].scale(r))
        acc = acc.add(kron(lu[i], right))
    return acc.permute_rows((U.dim, V.dim), (1, 0))


def braiding_from_r(H, R, U, V):
    """The swap composed with the R-action through the twist map.

    u (x) v goes to sum R[i,j] (alpha(e_j).v) (x) (alpha(e_i).u), landing in
    the tensor product of the alpha-twisted modules in swapped order.
    """
    if R.field != H.field or U.field != H.field or V.field != H.field:
        raise ValueError("field mismatch in braiding_from_r")
    if R.dim != H.dim or U.hdim != H.dim or V.hdim != H.dim:
        raise ValueError("dimension mismatch in braiding_from_r")
    # e_i acts on the twisted module G(U) as alpha(e_i) acts on U
    return BraidMap(_swapped_r_action(R, twist_module(H, U, "G"),
                                      twist_module(H, V, "G")), U, V)


def _braiding_elementwise(H, R, U, V):
    # independent route: assemble each column from action columns directly
    field = H.field
    dU, dV = U.dim, V.dim
    ucols = U.action_columns()
    vcols = V.action_columns()
    acols = H.alpha.columns()

    def terms():
        for u in range(dU):
            for v in range(dV):
                c = u * dV + v
                for i, j, r in R.nonzero():
                    # alpha(e_i).u as a sparse vector
                    uvec = {}
                    for t, a in acols[i]:
                        for k, w in ucols[t][u]:
                            uvec[k] = uvec.get(k, field.zero) + a * w
                    vvec = {}
                    for t, a in acols[j]:
                        for k, w in vcols[t][v]:
                            vvec[k] = vvec.get(k, field.zero) + a * w
                    for vp, bv in vvec.items():
                        if not bv:
                            continue
                        rv = r * bv
                        for up, bu in uvec.items():
                            if bu:
                                yield vp * dU + up, c, rv * bu

    return LinMap.from_terms(field, dV * dU, dU * dV, terms())


def check_braiding_morphism(H, R, U, V, f=None, g=None):
    """Morphism properties of one braiding instance.

    eq27: the kron-assembled map agrees with elementwise assembly.
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
        yield ("eq27", c.map, _braiding_elementwise(H, R, U, V),
               (dU, dV), (dV, dU))
        yield ("braiding-intertwine",
               V.alpha.kron_compose(U.alpha, c.map),
               c.map.compose_kron(U.alpha, V.alpha), (dU, dV), (dV, dU))
        gu = twist_module(H, U, "G")
        gv = twist_module(H, V, "G")
        src_t = tensor_module(H, U, V)
        dst_t = tensor_module(H, gv, gu)
        yield ("braiding-h-linear",
               c.map.compose(src_t.action),
               dst_t.action.compose_kron(identity(n, H.field), c.map),
               (n, dU, dV), (dV, dU))
        fm, U2 = (U.alpha, gu) if f is None else f
        gm, V2 = (V.alpha, gv) if g is None else g
        c2 = braiding_from_r(H, R, U2, V2)
        yield ("braiding-natural",
               c2.map.compose_kron(fm, gm),
               gm.kron_compose(fm, c.map), (dU, dV), (V2.dim, U2.dim))
        cg = braiding_from_r(H, R, gu, gv)
        yield ("braiding-g-compat", cg.map, c.map, (dU, dV), (dV, dU))
    return _run(checks())


def check_hexagon_instances(H, R, U, V, W):
    """The two hexagon identities instantiated on three modules.

    With identity associators the two composites of each hexagon reduce to
    products of braiding matrices, twisted-module braidings and structure
    maps; eq45 braids U past V (x) W, eq50 braids U (x) V past W.
    """
    dU, dV, dW = U.dim, V.dim, W.dim
    field = H.field
    fu = twist_module(H, U, "F")
    fw = twist_module(H, W, "F")
    gu = twist_module(H, U, "G")
    gw = twist_module(H, W, "G")
    vw = tensor_module(H, V, W)
    uv = tensor_module(H, U, V)

    def checks():
        # the lift's kron preflight runs before the braiding after it is
        # built, so an oversized hexagon is refused as a kron output
        lift = identity(dV * dW, field)
        kron_shape(lift, U.alpha)
        lhs45 = lift.kron_compose(U.alpha, braiding_from_r(H, R, fu, vw).map)
        rhs45 = identity(dV, field).kron_compose(
            braiding_from_r(H, R, gu, W).map,
            kron(braiding_from_r(H, R, U, V).map, identity(dW, field)))
        yield ("eq45", lhs45, rhs45, (dU, dV, dW), (dV, dW, dU))
        lift = identity(dU * dV, field)
        kron_shape(W.alpha, lift)
        lhs50 = W.alpha.kron_compose(lift, braiding_from_r(H, R, uv, fw).map)
        rhs50 = braiding_from_r(H, R, U, gw).map.kron_compose(
            identity(dV, field),
            kron(identity(dU, field), braiding_from_r(H, R, V, W).map))
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
    ba = kron(B, alpha)
    ab = kron(alpha, B)

    def checks():
        yield ("ybe-compat", alpha.kron_compose(alpha, B),
               B.compose_kron(alpha, alpha), (d, d), (d, d))
        yield ("eq145", ba.compose(ab).compose(ba),
               ab.compose(ba).compose(ab), (d, d, d), (d, d, d))
    return _run(checks())


def check_mixed_hom_ybe(b_uv, b_uw, b_vw, a_u, a_v, a_w):
    """Mixed twisted braid relation for three spaces.

    b_uv etc. are swap-shaped maps (U (x) V -> V (x) U); both composites
    below end in W (x) V (x) U and must be equal:
      (a_w (x) b_uv)(b_uw (x) a_v)(a_u (x) b_vw)
      = (b_vw (x) a_u)(a_v (x) b_uw)(b_uv (x) a_w)
    """
    dU, dV, dW = a_u.rows, a_v.rows, a_w.rows
    if b_uv.rows != dV * dU or b_uv.cols != dU * dV:
        raise ValueError("b_uv shape mismatch")
    if b_uw.rows != dW * dU or b_uw.cols != dU * dW:
        raise ValueError("b_uw shape mismatch")
    if b_vw.rows != dW * dV or b_vw.cols != dV * dW:
        raise ValueError("b_vw shape mismatch")
    lhs = a_w.kron_compose(b_uv, kron(b_uw, a_v).compose_kron(a_u, b_vw))
    rhs = b_vw.kron_compose(a_u, kron(a_v, b_uw).compose_kron(b_uv, a_w))
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
    return _swapped_r_action(R, M, M)


def ybe_yau_twist(B, alpha):
    """Twist a classical Yang-Baxter solution by a compatible map.

    Verifies the untwisted braid relation and twist compatibility, then
    returns (alpha (x) alpha) B, which satisfies eq145 with respect to alpha.
    """
    d = alpha.rows
    if alpha.cols != d or B.rows != d * d or B.cols != d * d:
        raise ValueError("shape mismatch in ybe_yau_twist")
    idd = identity(d, alpha.field)
    bi = kron(B, idd)
    ib = kron(idd, B)
    ok, _ = compare_maps("classical-ybe", bi.compose(ib).compose(bi),
                         ib.compose(bi).compose(ib), (d, d, d), (d, d, d))
    if not ok:
        raise ValueError("classical-ybe fails: input does not satisfy the "
                         "untwisted braid relation")
    aa = kron(alpha, alpha)
    ok, _ = compare_maps("ybe-compat", aa.compose(B), B.compose(aa),
                         (d, d), (d, d))
    if not ok:
        raise ValueError("compatibility fails: alpha (x) alpha does not "
                         "commute with B")
    return aa.compose(B)
