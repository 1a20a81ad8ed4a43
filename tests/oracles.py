"""Independent oracle for expected test values.

Everything here is computed elementwise on dict-based tensors (basis key ->
coefficient), deliberately avoiding the package's flattened-matrix machinery,
so the two implementations can only agree if the math agrees.

Running this file as a script regenerates tests/_frozen.py:

    python tests/oracles.py > tests/_frozen.py

Structure-constant conventions used by the oracle fixtures:
  mul[i][j][k]   coefficient of e_k in e_i e_j
  comul[k][i][j] coefficient of e_i (x) e_j in comul(e_k)
  matrices       list of rows; column j of row i = coefficient of e_i in f(e_j)
  act[h][m][m']  coefficient of e_m' in e_h . e_m
  coact[m][c][m0] coefficient of e_c (x) e_m0 in coact(e_m)
"""

from fractions import Fraction as Fr
from itertools import product


# ---------------------------------------------------------------- vectors

def vadd(a, b):
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def vscale(c, v):
    return {k: c * x for k, x in v.items() if c * x} if c else {}


def tens(u, v):
    out = {}
    for ku, cu in u.items():
        for kv, cv in v.items():
            out = vadd(out, {ku + kv: cu * cv})
    return out


def veq(a, b, p=None):
    keys = set(a) | set(b)
    for k in keys:
        d = a.get(k, 0) - b.get(k, 0)
        if (d % p if p else d) != 0:
            return False
    return True


def basis(i):
    return {(i,): Fr(1)}


# ------------------------------------------------- structure applications

def mat_apply(m, v):
    """v a 1-slot vector, m a list of rows."""
    out = {}
    for (j,), c in v.items():
        for i, mij in enumerate(r[j] for r in m):
            if mij and c:
                out = vadd(out, {(i,): c * mij})
    return out


def mul_apply(mul, u, v):
    out = {}
    for (i,), ci in u.items():
        for (j,), cj in v.items():
            for k, c in enumerate(mul[i][j]):
                if c:
                    out = vadd(out, {(k,): ci * cj * c})
    return out


def comul_apply(comul, v):
    out = {}
    for (k,), ck in v.items():
        row = comul[k]
        for i, r2 in enumerate(row):
            for j, c in enumerate(r2):
                if c:
                    out = vadd(out, {(i, j): ck * c})
    return out


def act_apply(act, h, m):
    """h, m one-slot vectors."""
    out = {}
    for (i,), ci in h.items():
        for (j,), cj in m.items():
            for k, c in enumerate(act[i][j]):
                if c:
                    out = vadd(out, {(k,): ci * cj * c})
    return out


def coact_apply(coact, m):
    out = {}
    for (j,), cj in m.items():
        tbl = coact[j]
        for c_idx, row in enumerate(tbl):
            for m0, c in enumerate(row):
                if c:
                    out = vadd(out, {(c_idx, m0): cj * c})
    return out


# ------------------------------------------------------------ Q fixtures

def group_mul(n, k=1):
    """Cube of k[Z_n] with multiplication twisted by g^i -> g^{ik}."""
    cube = [[[Fr(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j in product(range(n), repeat=2):
        cube[i][j][((i + j) * k) % n] = Fr(1)
    return cube


def group_comul(n, k=1):
    """comul = grouplike after applying g^i -> g^{ik}."""
    cube = [[[Fr(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        cube[i][(i * k) % n][(i * k) % n] = Fr(1)
    return cube


def group_alpha(n, k=1):
    m = [[Fr(0)] * n for _ in range(n)]
    for i in range(n):
        m[(i * k) % n][i] = Fr(1)
    return m


def ident(n):
    return [[Fr(i == j) for j in range(n)] for i in range(n)]


def diag(*cs):
    n = len(cs)
    return [[Fr(cs[i]) if i == j else Fr(0) for j in range(n)] for i in range(n)]


# mul of Q[x]/(x^2): e0 = 1, e1 = x
DUAL_NUM_MUL = [
    [[Fr(1), Fr(0)], [Fr(0), Fr(1)]],
    [[Fr(0), Fr(1)], [Fr(0), Fr(0)]],
]
# comul dual to it: e0 grouplike, comul(e1) = e0 (x) e1 + e1 (x) e0
DUAL_NUM_COMUL = [
    [[Fr(1), Fr(0)], [Fr(0), Fr(0)]],
    [[Fr(0), Fr(1)], [Fr(1), Fr(0)]],
]


# ------------------------------------------------------------ axiom checks

def hom_algebra_violations(mul, alpha):
    n = len(mul)
    out = []
    for i, j in product(range(n), repeat=2):
        lhs = mat_apply(alpha, mul_apply(mul, basis(i), basis(j)))
        rhs = mul_apply(mul, mat_apply(alpha, basis(i)), mat_apply(alpha, basis(j)))
        if not veq(lhs, rhs):
            out.append(("eq1", (i, j), lhs, rhs))
    for i, j, k in product(range(n), repeat=3):
        lhs = mul_apply(mul, mat_apply(alpha, basis(i)), mul_apply(mul, basis(j), basis(k)))
        rhs = mul_apply(mul, mul_apply(mul, basis(i), basis(j)), mat_apply(alpha, basis(k)))
        if not veq(lhs, rhs):
            out.append(("eq2", (i, j, k), lhs, rhs))
    return out


def hom_coalgebra_violations(comul, psi):
    n = len(comul)
    out = []
    for k in range(n):
        d = comul_apply(comul, basis(k))
        lhs = {}
        for (i, j), c in d.items():
            lhs = vadd(lhs, vscale(c, tens(mat_apply(psi, basis(i)), mat_apply(psi, basis(j)))))
        rhs = comul_apply(comul, mat_apply(psi, basis(k)))
        if not veq(lhs, rhs):
            out.append(("eq3", (k,), lhs, rhs))
    for k in range(n):
        d = comul_apply(comul, basis(k))
        lhs = {}
        rhs = {}
        for (i, j), c in d.items():
            lhs = vadd(lhs, vscale(c, tens(comul_apply(comul, basis(i)), mat_apply(psi, basis(j)))))
            rhs = vadd(rhs, vscale(c, tens(mat_apply(psi, basis(i)), comul_apply(comul, basis(j)))))
        if not veq(lhs, rhs):
            out.append(("eq4", (k,), lhs, rhs))
    return out


def bialgebra_extra_violations(mul, comul, alpha, psi):
    n = len(mul)
    out = []
    # eq6: comul is multiplicative for the slotwise product on the pair space
    for a, b in product(range(n), repeat=2):
        lhs = comul_apply(comul, mul_apply(mul, basis(a), basis(b)))
        da, db = comul_apply(comul, basis(a)), comul_apply(comul, basis(b))
        rhs = {}
        for (i, j), c in da.items():
            for (k, l), c2 in db.items():
                rhs = vadd(rhs, vscale(c * c2, tens(mul_apply(mul, basis(i), basis(k)),
                                                    mul_apply(mul, basis(j), basis(l)))))
        if not veq(lhs, rhs):
            out.append(("eq6", (a, b), lhs, rhs))
    for a in range(n):
        lhs = comul_apply(comul, mat_apply(alpha, basis(a)))
        rhs = {}
        for (i, j), c in comul_apply(comul, basis(a)).items():
            rhs = vadd(rhs, vscale(c, tens(mat_apply(alpha, basis(i)), mat_apply(alpha, basis(j)))))
        if not veq(lhs, rhs):
            out.append(("eq7", (a,), lhs, rhs))
    for a, b in product(range(n), repeat=2):
        lhs = mat_apply(psi, mul_apply(mul, basis(a), basis(b)))
        rhs = mul_apply(mul, mat_apply(psi, basis(a)), mat_apply(psi, basis(b)))
        if not veq(lhs, rhs):
            out.append(("eq7112", (a, b), lhs, rhs))
    for a in range(n):
        lhs = mat_apply(alpha, mat_apply(psi, basis(a)))
        rhs = mat_apply(psi, mat_apply(alpha, basis(a)))
        if not veq(lhs, rhs):
            out.append(("alpha-psi-commute", (a,), lhs, rhs))
    return out


def module_violations(mul, alphaH, act, alphaM):
    nH, nM = len(mul), len(act[0])
    out = []
    for a, m in product(range(nH), range(nM)):
        lhs = mat_apply(alphaM, act_apply(act, basis(a), basis(m)))
        rhs = act_apply(act, mat_apply(alphaH, basis(a)), mat_apply(alphaM, basis(m)))
        if not veq(lhs, rhs):
            out.append(("eq8", (a, m), lhs, rhs))
    for a, b, m in product(range(nH), range(nH), range(nM)):
        lhs = act_apply(act, mat_apply(alphaH, basis(a)), act_apply(act, basis(b), basis(m)))
        rhs = act_apply(act, mul_apply(mul, basis(a), basis(b)), mat_apply(alphaM, basis(m)))
        if not veq(lhs, rhs):
            out.append(("eq9", (a, b, m), lhs, rhs))
    return out


def comodule_violations(comul, psiC, coact, psiM):
    nM = len(coact)
    out = []
    for m in range(nM):
        lam = coact_apply(coact, basis(m))
        lhs = {}
        for (c, m0), x in lam.items():
            lhs = vadd(lhs, vscale(x, tens(mat_apply(psiC, basis(c)), mat_apply(psiM, basis(m0)))))
        rhs = coact_apply(coact, mat_apply(psiM, basis(m)))
        if not veq(lhs, rhs):
            out.append(("comodul1", (m,), lhs, rhs))
    for m in range(nM):
        lam = coact_apply(coact, basis(m))
        lhs, rhs = {}, {}
        for (c, m0), x in lam.items():
            lhs = vadd(lhs, vscale(x, tens(comul_apply(comul, basis(c)), mat_apply(psiM, basis(m0)))))
            rhs = vadd(rhs, vscale(x, tens(mat_apply(psiC, basis(c)), coact_apply(coact, basis(m0)))))
        if not veq(lhs, rhs):
            out.append(("comodul2", (m,), lhs, rhs))
    return out


def mha_violations(mul_hopf, comul, alphaH, psiH, mulA, alphaA, act):
    """alphaH psiH(h) . (a a') = sum (h1 . a)(h2 . a')."""
    nH, nA = len(mul_hopf), len(mulA)
    out = []
    for h, a, b in product(range(nH), range(nA), range(nA)):
        lhs = act_apply(act, mat_apply(alphaH, mat_apply(psiH, basis(h))),
                        mul_apply(mulA, basis(a), basis(b)))
        rhs = {}
        for (i, j), c in comul_apply(comul, basis(h)).items():
            rhs = vadd(rhs, vscale(c, mul_apply(mulA, act_apply(act, basis(i), basis(a)),
                                                act_apply(act, basis(j), basis(b)))))
        if not veq(lhs, rhs):
            out.append(("compmodulealgebra", (h, a, b), lhs, rhs))
    return out


# ----------------------------------------------------- tensors of modules

def tensor_act(comul, actM, actN):
    """act cube of M (x) N; module basis keys are flat pairs enumerated
    row-major (m, n) -> m*dN + n purely for table layout here."""
    nH = len(comul)
    dM, dN = len(actM[0]), len(actN[0])
    cube = [[[Fr(0)] * (dM * dN) for _ in range(dM * dN)] for _ in range(nH)]
    for h in range(nH):
        for (i, j), c in comul_apply(comul, basis(h)).items():
            for m, n in product(range(dM), range(dN)):
                um = act_apply(actM, basis(i), basis(m))
                vn = act_apply(actN, basis(j), basis(n))
                for (m2,), cm in um.items():
                    for (n2,), cn in vn.items():
                        cube[h][m * dN + n][m2 * dN + n2] += c * cm * cn
    return cube


def twisted_act(act, tw):
    """Precompose the algebra slot with the matrix tw."""
    nH, dM = len(act), len(act[0])
    cube = [[[Fr(0)] * dM for _ in range(dM)] for _ in range(nH)]
    for h in range(nH):
        hv = mat_apply(tw, basis(h))
        for (k,), c in hv.items():
            for m in range(dM):
                for m2 in range(dM):
                    cube[h][m][m2] += c * act[k][m][m2]
    return cube


# --------------------------------------------------------- R-matrix checks

def r_pairs(r):
    """r: dict (u, v) -> coeff, summands of R."""
    return [(u, v, c) for (u, v), c in r.items() if c]


def check_r(mul, comul, alpha, psi, r, p=None):
    """Returns dict axiom id -> bool over the listed R conditions."""
    n = len(mul)
    res = {}

    def pair_mul(x, y):
        """slotwise product on the 2-fold tensor space"""
        out = {}
        for (a, b), c in x.items():
            for (u, v), c2 in y.items():
                out = vadd(out, vscale(c * c2, tens(mul_apply(mul, basis(a), basis(u)),
                                                    mul_apply(mul, basis(b), basis(v)))))
        return out

    rvec = {(u, v): c for (u, v), c in r.items() if c}
    # invariance
    inv_a = {}
    inv_p = {}
    for (u, v), c in rvec.items():
        inv_a = vadd(inv_a, vscale(c, tens(mat_apply(alpha, basis(u)), mat_apply(alpha, basis(v)))))
        inv_p = vadd(inv_p, vscale(c, tens(mat_apply(psi, basis(u)), mat_apply(psi, basis(v)))))
    res["r-alpha-invariance"] = veq(inv_a, rvec, p)
    res["r-psi-invariance"] = veq(inv_p, rvec, p)

    ok38 = True
    for h in range(n):
        d = comul_apply(comul, basis(h))
        dcop = {(j, i): c for (i, j), c in d.items()}
        lhs = pair_mul(rvec, d)
        rhs = pair_mul(dcop, rvec)
        ok38 = ok38 and veq(lhs, rhs, p)
    res["eq38"] = ok38
    res["eq29"] = ok38

    # eq39 / eq30: (comul (x) alpha)(R) = sum psi(s_i) (x) psi(s_j) (x) t_i t_j
    lhs39, rhs39 = {}, {}
    for u, v, c in r_pairs(rvec):
        lhs39 = vadd(lhs39, vscale(c, tens(comul_apply(comul, basis(u)), mat_apply(alpha, basis(v)))))
    for (u, v, c), (u2, v2, c2) in product(r_pairs(rvec), repeat=2):
        rhs39 = vadd(rhs39, vscale(c * c2, tens(tens(mat_apply(psi, basis(u)), mat_apply(psi, basis(u2))),
                                                mul_apply(mul, basis(v), basis(v2)))))
    res["eq39"] = veq(lhs39, rhs39, p)
    res["eq30"] = res["eq39"]
    res["_eq39_sides"] = (lhs39, rhs39)

    # eq60 / eq31: (alpha (x) comul)(R) = sum s_i s_j (x) psi(t_j) (x) psi(t_i)
    lhs60, rhs60 = {}, {}
    for u, v, c in r_pairs(rvec):
        lhs60 = vadd(lhs60, vscale(c, tens(mat_apply(alpha, basis(u)), comul_apply(comul, basis(v)))))
    for (u, v, c), (u2, v2, c2) in product(r_pairs(rvec), repeat=2):
        rhs60 = vadd(rhs60, vscale(c * c2, tens(mul_apply(mul, basis(u), basis(u2)),
                                                tens(mat_apply(psi, basis(v2)), mat_apply(psi, basis(v))))))
    res["eq60"] = veq(lhs60, rhs60, p)
    res["eq31"] = res["eq60"]
    res["_eq60_sides"] = (lhs60, rhs60)
    return res


# ------------------------------------------------------ braiding elementwise

def braid_fn(r, alpha, actU, actV):
    """c(u (x) v) = sum r[s,t] (alpha(t) . v) (x) (alpha(s) . u)."""
    def c(uk, vk):
        out = {}
        for (s, t), x in r.items():
            if not x:
                continue
            tv = act_apply(actV, mat_apply(alpha, basis(t)), basis(vk))
            su = act_apply(actU, mat_apply(alpha, basis(s)), basis(uk))
            out = vadd(out, vscale(x, tens(tv, su)))
        return out
    return c


def hexagon_classical(mul, comul, r, d):
    """For a classical bialgebra (alpha = psi = id) acting regularly on
    itself (dims d = n): evaluate both hexagon instances on U = V = W =
    regular. Returns (eq45_ok, eq50_ok, first_diff45, first_diff50)."""
    act = mul
    iden = ident(len(mul))
    c2 = braid_fn(r, iden, act, act)                       # c_{X,Y} on single slots
    actVW = tensor_act(comul, act, act)

    def cU_VW(uk, vwk):
        # braid of U with the pair module: keys of pair module are flat ints
        out = {}
        for (s, t), x in r.items():
            if not x:
                continue
            tv = act_apply(actVW, basis(t), basis(vwk))
            su = act_apply(act, basis(s), basis(uk))
            out = vadd(out, vscale(x, tens(tv, su)))
        return out

    def cUV_W(uvk, wk):
        out = {}
        for (s, t), x in r.items():
            if not x:
                continue
            tw = act_apply(act, basis(t), basis(wk))
            suv = act_apply(actVW, basis(s), basis(uvk))
            out = vadd(out, vscale(x, tens(tw, suv)))
        return out

    ok45, ok50 = True, True
    diff45 = diff50 = None
    for u, v, w in product(range(d), repeat=3):
        # eq45: c_{U,V(x)W} vs (id_V (x) c_{U,W}) . (c_{U,V} (x) id_W)
        lhs = {}
        for (vw, u2), x in cU_VW(u, v * d + w).items():
            lhs = vadd(lhs, {(vw // d, vw % d, u2): x})
        rhs = {}
        for (v2, u2), x in c2(u, v).items():
            for (w2, u3), y in c2(u2, w).items():
                rhs = vadd(rhs, {(v2, w2, u3): x * y})
        if not veq(lhs, rhs) and ok45:
            ok45, diff45 = False, (u, v, w, lhs, rhs)
        # eq50: c_{U(x)V,W} vs (c_{U,W} (x) id_V) . (id_U (x) c_{V,W})
        lhs = {}
        for (w2, uv), x in cUV_W(u * d + v, w).items():
            lhs = vadd(lhs, {(w2, uv // d, uv % d): x})
        rhs = {}
        for (w2, v2), x in c2(v, w).items():
            for (w3, u2), y in c2(u, w2).items():
                rhs = vadd(rhs, {(w3, u2, v2): x * y})
        if not veq(lhs, rhs) and ok50:
            ok50, diff50 = False, (u, v, w, lhs, rhs)
    return ok45, ok50, diff45, diff50


# --------------------------------------------------------------- YBE checks

def ybe_ok(bmap, alpha, d):
    """bmap: dict (i,j) -> dict (k,l) -> coeff. Checks the alpha-twisted
    braid relation (B (x) alpha)(alpha (x) B)(B (x) alpha) = mirror, plus
    (alpha (x) alpha) B = B (alpha (x) alpha). Returns (relation_ok,
    compat_ok, first_diff)."""
    def b_ap(i, j):
        return {k: v for k, v in bmap.get((i, j), {}).items() if v}

    def side(x, y, z, order):
        # order: sequence of ("B12"|"B23"), alpha on the other slot
        cur = {(x, y, z): Fr(1)}
        for stepname in order:
            nxt = {}
            for (a, b, c0), co in cur.items():
                if stepname == "B12":
                    bv = b_ap(a, b)
                    av = mat_apply(alpha, basis(c0))
                    for (k, l), c1 in bv.items():
                        for (m,), c2 in av.items():
                            nxt = vadd(nxt, {(k, l, m): co * c1 * c2})
                else:
                    bv = b_ap(b, c0)
                    av = mat_apply(alpha, basis(a))
                    for (k, l), c1 in bv.items():
                        for (m,), c2 in av.items():
                            nxt = vadd(nxt, {(m, k, l): co * c1 * c2})
            cur = nxt
        return cur

    rel_ok, first = True, None
    for x, y, z in product(range(d), repeat=3):
        lhs = side(x, y, z, ["B12", "B23", "B12"])
        rhs = side(x, y, z, ["B23", "B12", "B23"])
        if not veq(lhs, rhs):
            rel_ok, first = False, (x, y, z, lhs, rhs)
            break
    compat_ok = True
    for x, y in product(range(d), repeat=2):
        lhs = {}
        for (k, l), c in b_ap(x, y).items():
            lhs = vadd(lhs, vscale(c, tens(mat_apply(alpha, basis(k)), mat_apply(alpha, basis(l)))))
        ax = mat_apply(alpha, basis(x))
        ay = mat_apply(alpha, basis(y))
        rhs = {}
        for (k,), c in ax.items():
            for (l,), c2 in ay.items():
                rhs = vadd(rhs, vscale(c * c2, b_ap(k, l)))
        if not veq(lhs, rhs):
            compat_ok = False
            break
    return rel_ok, compat_ok, first


# ------------------------------------------------------------- YD fixtures

def homyd_violations(mul, comul, alpha, act, coact, alphaM):
    """sum (h1 . m)_(-1) alpha^2(h2) (x) (h1 . m)_(0)
       = sum alpha^2(h1) alpha(m_(-1)) (x) alpha(h2) . m_(0)."""
    nH, dM = len(mul), len(act[0])
    a2 = [[sum(alpha[i][k] * alpha[k][j] for k in range(nH)) for j in range(nH)] for i in range(nH)]
    out = []
    for h, m in product(range(nH), range(dM)):
        lhs, rhs = {}, {}
        for (i, j), c in comul_apply(comul, basis(h)).items():
            hm = act_apply(act, basis(i), basis(m))
            for (m1,), cm in hm.items():
                for (c0, m0), cl in coact_apply(coact, basis(m1)).items():
                    term = tens(mul_apply(mul, basis(c0), mat_apply(a2, basis(j))), basis(m0))
                    lhs = vadd(lhs, vscale(c * cm * cl, term))
            for (c0, m0), cl in coact_apply(coact, basis(m)).items():
                hpart = mul_apply(mul, mat_apply(a2, basis(i)), mat_apply(alpha, basis(c0)))
                mpart = act_apply(act, mat_apply(alpha, basis(j)), basis(m0))
                rhs = vadd(rhs, vscale(c * cl, tens(hpart, mpart)))
        if not veq(lhs, rhs):
            out.append(("homYD", (h, m), lhs, rhs))
    return out


def yd_tensor_coact(mul, alpha_inv2, coactM, coactN):
    """coaction of M (x) N: m (x) n -> alpha^-2(m_(-1) n_(-1)) (x) m0 (x) n0."""
    dM, dN = len(coactM), len(coactN)
    out = {}
    for m, n in product(range(dM), range(dN)):
        v = {}
        for (c1, m0), x in coact_apply(coactM, basis(m)).items():
            for (c2, n0), y in coact_apply(coactN, basis(n)).items():
                hpart = mat_apply(alpha_inv2, mul_apply(mul, basis(c1), basis(c2)))
                for (c,), z in hpart.items():
                    v = vadd(v, {(c, m0, n0): x * y * z})
        out[(m, n)] = v
    return out


def b_yd_fn(mul_unused, alpha_inv, coactM, actN):
    """B(m (x) n) = alpha^-1(m_(-1)) . n (x) m_(0)."""
    def B(m, n):
        out = {}
        for (c, m0), x in coact_apply(coactM, basis(m)).items():
            hn = act_apply(actN, mat_apply(alpha_inv, basis(c)), basis(n))
            out = vadd(out, vscale(x, tens(hn, basis(m0))))
        return out
    return B


def mixed_ybe_ok(Bmn, Bmp, Bnp, aM, aN, aP, dM, dN, dP):
    """(aP (x) Bmn).(Bmp (x) aN).(aM (x) Bnp) = (Bnp (x) aM).(aN (x) Bmp).
    (Bmn (x) aP) on M (x) N (x) P; B maps given as dict (i,j) -> vec."""
    def b_ap(B, i, j):
        return {k: v for k, v in B.get((i, j), {}).items() if v}

    def step(cur, which, B, amat):
        nxt = {}
        for (a, b, c0), co in cur.items():
            if which == "first":      # B on slots 1,2; alpha on slot 3
                for (k, l), c1 in b_ap(B, a, b).items():
                    for (m2,), c2 in mat_apply(amat, basis(c0)).items():
                        nxt = vadd(nxt, {(k, l, m2): co * c1 * c2})
            else:                     # alpha on slot 1; B on slots 2,3
                for (k, l), c1 in b_ap(B, b, c0).items():
                    for (m2,), c2 in mat_apply(amat, basis(a)).items():
                        nxt = vadd(nxt, {(m2, k, l): co * c1 * c2})
        return nxt

    for x, y, z in product(range(dM), range(dN), range(dP)):
        start = {(x, y, z): Fr(1)}
        l1 = step(start, "last", Bnp, aM)
        l2 = step(l1, "first", Bmp, aN)
        lhs = step(l2, "last", Bmn, aP)
        r1 = step(start, "first", Bmn, aP)
        r2 = step(r1, "last", Bmp, aN)
        rhs = step(r2, "first", Bnp, aM)
        if not veq(lhs, rhs):
            return False, (x, y, z, lhs, rhs)
    return True, None


# --------------------------------------------------------------- freezing

def fstr(x):
    return str(x)


def freeze_vec(v):
    return sorted((k, fstr(c)) for k, c in v.items() if c)


def freeze_violations(vs):
    return [(a, idx, freeze_vec(l), freeze_vec(r)) for a, idx, l, r in vs]


def freeze_cube(cube):
    return [[[fstr(c) for c in row] for row in slab] for slab in cube]


def freeze_mat(m):
    return [[fstr(c) for c in row] for row in m]


def main():
    out = {}

    # kron of two 2x2 swaps against the index formula (f(x)g)[2i+k][2j+l]
    swap = [[Fr(0), Fr(1)], [Fr(1), Fr(0)]]
    kk = [[swap[i][j] * swap[k][l] for j, l in product(range(2), repeat=2)]
          for i, k in product(range(2), repeat=2)]
    out["kron_swap_swap"] = freeze_mat(kk)

    # dual-numbers coalgebra with psi = diag(1,2) fails eq4
    out["dualnum_coalg_eq4"] = freeze_violations(
        hom_coalgebra_violations(DUAL_NUM_COMUL, diag(1, 2)))

    # dual numbers algebra with alpha = diag(1,2): eq1 passes, eq2 fails
    out["dualnum_alg_eq2"] = freeze_violations(
        hom_algebra_violations(DUAL_NUM_MUL, diag(1, 2)))

    # Yau twist of Q[x]/(x^2) by diag(1,3)
    tw = [[[Fr(0)] * 2 for _ in range(2)] for _ in range(2)]
    al = diag(1, 3)
    for i, j in product(range(2), repeat=2):
        for (k,), c in mat_apply(al, mul_apply(DUAL_NUM_MUL, basis(i), basis(j))).items():
            tw[i][j][k] = c
    out["dualnum_yau_cube"] = freeze_cube(tw)
    out["dualnum_yau_ok"] = not hom_algebra_violations(tw, al)

    # k[Z2] (x) k[Z2] multiplication = Z2 x Z2 group law on flat pairs
    z2 = group_mul(2)
    t22 = [[[Fr(0)] * 4 for _ in range(4)] for _ in range(4)]
    for (a, b), (c, d) in product(product(range(2), repeat=2), repeat=2):
        t22[a * 2 + b][c * 2 + d][((a + c) % 2) * 2 + (b + d) % 2] = Fr(1)
    out["z2xz2_mul"] = freeze_cube(t22)

    # left-zero semigroup xy = x with alpha the swap: hom law fails
    n = 2
    lz = [[[Fr(k == i) for k in range(n)] for j in range(n)] for i in range(n)]
    fails = []
    for x, y, z in product(range(n), repeat=3):
        lhs = mul_apply(lz, mat_apply(swap, basis(x)), mul_apply(lz, basis(y), basis(z)))
        rhs = mul_apply(lz, mul_apply(lz, basis(x), basis(y)), mat_apply(swap, basis(z)))
        if not veq(lhs, rhs):
            fails.append(((x, y, z), freeze_vec(lhs), freeze_vec(rhs)))
    out["leftzero_homlaw_fails"] = fails
    mfails = []
    for x, y in product(range(n), repeat=2):
        lhs = mat_apply(swap, mul_apply(lz, basis(x), basis(y)))
        rhs = mul_apply(lz, mat_apply(swap, basis(x)), mat_apply(swap, basis(y)))
        if not veq(lhs, rhs):
            mfails.append(((x, y), freeze_vec(lhs), freeze_vec(rhs)))
    out["leftzero_mult_fails"] = mfails

    # module with wrong structure map: regular dual numbers, alphaM = id,
    # alphaA = diag(1,3)
    out["dualnum_module_eq8_fail"] = freeze_violations(
        module_violations(DUAL_NUM_MUL, diag(1, 3), DUAL_NUM_MUL, ident(2)))

    # regular (x) regular over classical k[Z2]
    out["z2_reg_tensor_act"] = freeze_cube(tensor_act(group_comul(2), z2, z2))

    # Yau-twisted k[Z3] with k = 2: bialgebra axioms + tensor of regulars
    m3, d3, a3 = group_mul(3, 2), group_comul(3, 2), group_alpha(3, 2)
    out["z3tw_mul"] = freeze_cube(m3)
    out["z3tw_comul"] = freeze_cube(d3)
    out["z3tw_alpha"] = freeze_mat(a3)
    ok = (not hom_algebra_violations(m3, a3) and not hom_coalgebra_violations(d3, a3)
          and not bialgebra_extra_violations(m3, d3, a3, a3))
    out["z3tw_bialgebra_ok"] = ok
    treg = tensor_act(d3, m3, m3)
    # structure map of regular (x) regular is alpha (x) alpha
    aMM = [[a3[i // 3][j // 3] * a3[i % 3][j % 3] for j in range(9)] for i in range(9)]
    out["z3tw_reg_tensor_ok"] = not module_violations(m3, a3, treg, aMM)

    # F twist of the regular module over Yau-twisted k[Z3]
    ftw = twisted_act(m3, a3)
    out["z3tw_reg_Ftwist_act"] = freeze_cube(ftw)
    out["z3tw_reg_Ftwist_ok"] = not module_violations(m3, a3, ftw, a3)

    # associator instance failure: mul of dual numbers, its dual comul,
    # psi = diag(1,2), alpha = id, regular modules. Compare action of
    # (U(x)V)(x)F(W) with F(U)(x)(V(x)W) elementwise.
    act = DUAL_NUM_MUL
    psi = diag(1, 2)
    left = tensor_act(DUAL_NUM_COMUL, tensor_act(DUAL_NUM_COMUL, act, act), twisted_act(act, psi))
    right = tensor_act(DUAL_NUM_COMUL, twisted_act(act, psi), tensor_act(DUAL_NUM_COMUL, act, act))
    diffs = []
    for h in range(2):
        for m in range(8):
            for m2 in range(8):
                if left[h][m][m2] != right[h][m][m2]:
                    diffs.append(((h, m, m2), fstr(left[h][m][m2]), fstr(right[h][m][m2])))
    out["assoc_instance_diffs"] = diffs[:4]
    out["assoc_instance_fails"] = bool(diffs)

    # module hom-algebra check on k[Z2] acting on itself by multiplication
    out["z2_self_mha"] = freeze_violations(
        mha_violations(z2, group_comul(2), ident(2), ident(2), z2, ident(2), z2))
    # trivial action via the "sum of coefficients" functional passes
    triv = [[[Fr(k == m) for k in range(2)] for m in range(2)] for _ in range(2)]
    out["z2_trivial_mha_ok"] = not mha_violations(z2, group_comul(2), ident(2), ident(2), z2, ident(2), triv)

    # triangular R on classical k[Z2]
    half = Fr(1, 2)
    rtri = {(0, 0): half, (0, 1): half, (1, 0): half, (1, 1): -half}
    res = check_r(z2, group_comul(2), ident(2), ident(2), rtri)
    out["kz2_r_all_ok"] = all(v for k, v in res.items() if not k.startswith("_"))
    # same mod 3 with coeffs [2,2,2,1]
    r3 = {(0, 0): 2, (0, 1): 2, (1, 0): 2, (1, 1): 1}
    res3 = check_r(group_mul(2), group_comul(2), ident(2), ident(2), r3, p=3)
    out["kz2_r_f3_ok"] = all(v for k, v in res3.items() if not k.startswith("_"))

    # braiding of the triangular R on regular modules, elementwise
    c = braid_fn(rtri, ident(2), z2, z2)
    ctab = {}
    for u, v in product(range(2), repeat=2):
        ctab[(u, v)] = freeze_vec(c(u, v))
    out["kz2_braiding"] = ctab
    # c^2 = id
    c2ok = True
    for u, v in product(range(2), repeat=2):
        sq = {}
        for (v2, u2), x in c(u, v).items():
            sq = vadd(sq, vscale(x, c(v2, u2)))
        c2ok = c2ok and veq(sq, {(u, v): Fr(1)})
    out["kz2_braiding_squares_to_id"] = c2ok

    # bad R = 1 (x) g and mirror g (x) 1
    rbad = {(0, 1): Fr(1)}
    res = check_r(z2, group_comul(2), ident(2), ident(2), rbad)
    out["r_1g"] = {k: v for k, v in res.items() if not k.startswith("_")}
    out["r_1g_eq39_sides"] = tuple(freeze_vec(s) for s in res["_eq39_sides"])
    ok45, ok50, d45, d50 = hexagon_classical(z2, group_comul(2), rbad, 2)
    out["r_1g_hex"] = (ok45, ok50)
    out["r_1g_hex50_diff"] = (d50[0], d50[1], d50[2], freeze_vec(d50[3]), freeze_vec(d50[4]))
    rmir = {(1, 0): Fr(1)}
    res = check_r(z2, group_comul(2), ident(2), ident(2), rmir)
    out["r_g1"] = {k: v for k, v in res.items() if not k.startswith("_")}
    ok45, ok50, d45, d50 = hexagon_classical(z2, group_comul(2), rmir, 2)
    out["r_g1_hex"] = (ok45, ok50)
    out["r_g1_hex45_diff"] = (d45[0], d45[1], d45[2], freeze_vec(d45[3]), freeze_vec(d45[4]))
    # triangular R satisfies both hexagons
    out["kz2_hex"] = hexagon_classical(z2, group_comul(2), rtri, 2)[:2]

    # B map from the triangular R on the regular module
    btab = {}
    for m, n in product(range(2), repeat=2):
        v = {}
        for (s, t), x in rtri.items():
            if x:
                v = vadd(v, vscale(x, tens(act_apply(z2, basis(t), basis(n)),
                                           act_apply(z2, basis(s), basis(m)))))
        btab[(m, n)] = v
    out["kz2_b_from_qt"] = {k: freeze_vec(v) for k, v in btab.items()}
    bdict = {k: {kk: vv for kk, vv in v.items()} for k, v in btab.items()}
    rel, comp, _ = ybe_ok(bdict, ident(2), 2)
    out["kz2_b_ybe_ok"] = (rel, comp)

    # a single-entry monomial map turns out to satisfy the relation: both
    # composites vanish identically (any chain needs the second application
    # to land back on the lone support pair)
    bsingle = {(0, 0): {(0, 1): Fr(1)}}
    rel, comp, _ = ybe_ok(bsingle, ident(2), 2)
    out["monomial_single_ybe_ok"] = (rel, comp)
    # two entries arranged so one side chains and the other dies: fails
    bbad = {(0, 0): {(0, 1): Fr(1)}, (1, 0): {(0, 0): Fr(1)}}
    rel, comp, first = ybe_ok(bbad, ident(2), 2)
    out["monomial_bad_ybe"] = (rel, comp, (first[0], first[1], first[2],
                                           freeze_vec(first[3]), freeze_vec(first[4])))

    # flip twisted by alpha = diag(1,2)
    flip = {(i, j): {(j, i): Fr(1)} for i, j in product(range(2), repeat=2)}
    al = diag(1, 2)
    btw = {}
    for (i, j), v in flip.items():
        w = {}
        for (k, l), c in v.items():
            w = vadd(w, vscale(c, tens(mat_apply(al, basis(k)), mat_apply(al, basis(l)))))
        btw[(i, j)] = w
    out["flip_diag12_twist"] = {k: freeze_vec(v) for k, v in btw.items()}
    rel, comp, _ = ybe_ok(btw, al, 2)
    out["flip_diag12_twist_ybe_ok"] = (rel, comp)

    # classical k[Z2] Yetter-Drinfeld fixtures
    regco = [[[Fr(0)] * 2 for _ in range(2)] for _ in range(2)]
    for i in range(2):
        regco[i][i][i] = Fr(1)          # coact(e_i) = e_i (x) e_i
    out["z2_yd_regular_ok"] = not (
        module_violations(z2, ident(2), z2, ident(2))
        or comodule_violations(group_comul(2), ident(2), regco, ident(2))
        or homyd_violations(z2, group_comul(2), ident(2), z2, regco, ident(2)))
    conco = [[[Fr(0)] * 2 for _ in range(2)] for _ in range(2)]
    for i in range(2):
        conco[i][1][i] = Fr(1)          # coact(m) = g (x) m
    out["z2_yd_constant_comodule_ok"] = not comodule_violations(
        group_comul(2), ident(2), conco, ident(2))
    out["z2_yd_constant_homyd_ok"] = not homyd_violations(
        z2, group_comul(2), ident(2), z2, conco, ident(2))

    # the regular/regular combination fails the compatibility: freeze the
    # first violation for the honest negative record
    out["z2_yd_regular_first_violation"] = freeze_violations(
        homyd_violations(z2, group_comul(2), ident(2), z2, regco, ident(2)))[:1]

    # tensor coaction of regular (x) regular
    tco = yd_tensor_coact(z2, ident(2), regco, regco)
    out["z2_yd_tensor_coact"] = {k: freeze_vec(v) for k, v in tco.items()}

    # B map on the (invalid) regular pair, recorded as-is
    B = b_yd_fn(z2, ident(2), regco, z2)
    out["z2_b_yd"] = {(m, n): freeze_vec(B(m, n)) for m, n in product(range(2), repeat=2)}
    bdict = {(m, n): B(m, n) for m, n in product(range(2), repeat=2)}
    rel, comp, _ = ybe_ok(bdict, ident(2), 2)
    out["z2_b_yd_ybe_ok"] = (rel, comp)

    # --- genuinely valid classical YD fixtures over k[Z2] ---
    # A: regular action, constant-g coaction
    # B: sign-character action, grading coaction
    # C: trivial (counit) action, grading coaction
    sign = [[[Fr((-1) ** (h * m)) if k == m else Fr(0) for k in range(2)]
             for m in range(2)] for h in range(2)]
    fixtures = {"A": (z2, conco), "B": (sign, regco), "C": (triv, regco)}

    def yd_ok(actM, coactM, alphaM=None):
        alphaM = alphaM or ident(2)
        return not (module_violations(z2, ident(2), actM, alphaM)
                    or comodule_violations(group_comul(2), ident(2), coactM, alphaM)
                    or homyd_violations(z2, group_comul(2), ident(2), actM, coactM, alphaM))

    out["z2_yd_valid_fixtures_ok"] = {k: yd_ok(a, c) for k, (a, c) in fixtures.items()}
    # nonzero action forces the structure map to commute through the action
    # (the twisted associativity law); a scaled structure map only stays
    # valid on zero-action, zero-coaction modules
    out["z2_yd_fixture_B_scaled_ok"] = yd_ok(sign, regco, diag(2, 2))
    zero_act = [[[Fr(0)] * 2 for _ in range(2)] for _ in range(2)]
    zero_co = [[[Fr(0)] * 2 for _ in range(2)] for _ in range(2)]
    out["z2_yd_zero_scaled_ok"] = yd_ok(zero_act, zero_co, diag(2, 3))

    def yd_tensor_pair(f1, f2):
        a1, c1 = fixtures[f1]
        a2, c2 = fixtures[f2]
        tact = tensor_act(group_comul(2), a1, a2)
        tco = yd_tensor_coact(z2, ident(2), c1, c2)
        # repack the dict coaction into a cube over flat pair indices
        cube = [[[Fr(0)] * 4 for _ in range(2)] for _ in range(4)]
        for (m, n), v in tco.items():
            for (c, m0, n0), x in v.items():
                cube[m * 2 + n][c][m0 * 2 + n0] += x
        return tact, cube

    closure = {}
    for f1, f2 in product("ABC", repeat=2):
        tact, tcoact = yd_tensor_pair(f1, f2)
        aMM = ident(4)
        closure[f1 + f2] = not (
            module_violations(z2, ident(2), tact, aMM)
            or comodule_violations(group_comul(2), ident(2), tcoact, aMM)
            or homyd_violations(z2, group_comul(2), ident(2), tact, tcoact, aMM))
    out["z2_yd_tensor_closure_ok"] = closure

    # b_yd across fixture pairs: freeze tables, check morphism properties
    btabs = {}
    bmorph = {}
    for f1, f2 in product("ABC", repeat=2):
        a1, c1 = fixtures[f1]
        a2, c2 = fixtures[f2]
        B = b_yd_fn(z2, ident(2), c1, a2)
        btabs[f1 + f2] = {(m, n): freeze_vec(B(m, n)) for m, n in product(range(2), repeat=2)}
        # module morphism (classical): B(h.(m(x)n)) = h.B(m(x)n)
        tact_src = tensor_act(group_comul(2), a1, a2)
        tact_dst = tensor_act(group_comul(2), a2, a1)
        mok = True
        for h, m, n in product(range(2), repeat=3):
            lhs = {}
            for (k,), x in act_apply(tact_src, basis(h), basis(m * 2 + n)).items():
                lhs = vadd(lhs, vscale(x, B(k // 2, k % 2)))
            rhs = {}
            for (n2, m2), x in B(m, n).items():
                for (k,), y in act_apply(tact_dst, basis(h), basis(n2 * 2 + m2)).items():
                    rhs = vadd(rhs, {(k // 2, k % 2): x * y})
            mok = mok and veq(lhs, rhs)
        # comodule morphism: (id (x) B) . coact_{M(x)N} = coact_{N(x)M} . B
        tco_src = yd_tensor_coact(z2, ident(2), c1, c2)
        tco_dst = yd_tensor_coact(z2, ident(2), c2, c1)
        cok = True
        for m, n in product(range(2), repeat=2):
            lhs = {}
            for (c, m0, n0), x in tco_src[(m, n)].items():
                for (n2, m2), y in B(m0, n0).items():
                    lhs = vadd(lhs, {(c, n2, m2): x * y})
            rhs = {}
            for (n2, m2), x in B(m, n).items():
                for (c, a0, b0), y in tco_dst[(n2, m2)].items():
                    rhs = vadd(rhs, {(c, a0, b0): x * y})
            cok = cok and veq(lhs, rhs)
        bmorph[f1 + f2] = (mok, cok)
    out["z2_b_yd_tables"] = btabs
    out["z2_b_yd_morphism_ok"] = bmorph

    # mixed hom-YBE across all fixture triples
    mixed = {}
    for f1, f2, f3 in product("ABC", repeat=3):
        a1, c1 = fixtures[f1]
        a2, c2 = fixtures[f2]
        a3_, c3 = fixtures[f3]
        Bmn = {(m, n): b_yd_fn(z2, ident(2), c1, a2)(m, n) for m, n in product(range(2), repeat=2)}
        Bmp = {(m, n): b_yd_fn(z2, ident(2), c1, a3_)(m, n) for m, n in product(range(2), repeat=2)}
        Bnp = {(m, n): b_yd_fn(z2, ident(2), c2, a3_)(m, n) for m, n in product(range(2), repeat=2)}
        ok, _ = mixed_ybe_ok(Bmn, Bmp, Bnp, ident(2), ident(2), ident(2), 2, 2, 2)
        mixed[f1 + f2 + f3] = ok
    out["z2_yd_mixed_ybe_ok"] = mixed

    # a twisted base, alpha = psi = [[1, 1], [0, 1]], whose powers alpha^t
    # = [[1, t], [0, 1]] all differ, so a formula with the wrong power
    # shows; with the same structure map, the pair below fails the module
    # and comodule laws at five inputs (the YD formulas need no valid
    # input) and homYD at all four, with both sides nonzero
    def jordan(t):
        return [[Fr(1), Fr(t)], [Fr(0), Fr(1)]]

    def cube2(entries):
        c = [[[Fr(0)] * 2 for _ in range(2)] for _ in range(2)]
        for (i, j, k), v in entries.items():
            c[i][j][k] = Fr(v)
        return c

    tw_mul = cube2({(1, 0, 0): -1, (1, 1, 0): 1, (1, 1, 1): -1})
    tw_comul = cube2({(0, 0, 0): 1, (0, 0, 1): 1, (0, 1, 1): 2,
                      (1, 0, 1): 1, (1, 1, 0): -1})
    tw_act = cube2({(0, 1, 0): -1, (1, 0, 0): -1, (1, 1, 0): 1,
                    (1, 1, 1): -1})
    tw_coact = cube2({(0, 0, 1): 1, (0, 1, 0): -1, (1, 1, 1): 1})
    out["jordan_yd_homyd_violations"] = freeze_violations(homyd_violations(
        tw_mul, tw_comul, jordan(1), tw_act, tw_coact, jordan(1)))
    tco = yd_tensor_coact(tw_mul, jordan(-2), tw_coact, tw_coact)
    out["jordan_yd_tensor_coact"] = {k: freeze_vec(v) for k, v in tco.items()}
    B = b_yd_fn(tw_mul, jordan(-1), tw_coact, tw_act)
    out["jordan_b_yd"] = {(m, n): freeze_vec(B(m, n))
                          for m, n in product(range(2), repeat=2)}

    print("# generated by oracles.py; do not edit by hand")
    print("from fractions import Fraction\n")
    print("FROZEN = {")
    for k, v in out.items():
        print(f"    {k!r}: {v!r},")
    print("}")


if __name__ == "__main__":
    main()
