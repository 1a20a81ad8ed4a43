"""Left modules and comodules over hom-structures.

A module action is one matrix (columns indexed by the flattened pair
(algebra basis h, module basis m), rows by the module basis), a coaction is
one matrix the other way around, each its cube read column by column
(hom_structures.cube_map). Tensor modules, the two action-twisting
endofunctors and the structure-map-as-morphism checks all reduce to matrix
assembly from these plus the structure-constant cubes. The (co)module laws
are hom_structures._module_laws and _comodule_laws, which yield eq1-eq4 too.

Identity vocabulary (formulas in docs/formats.md):
  eq8  alphaM(h.m) = alphaH(h).alphaM(m)
  eq9  alphaH(h).(h'.m) = (h h').alphaM(m)
  comodul1  (psiC (x) psiM) coact = coact psiM
  comodul2  (comul (x) psiM) coact = (psiC (x) coact) coact
  module-morphism-twist / module-morphism-action
  comodule-morphism-twist / comodule-morphism-coaction
  phi-natural  f alphaM = alphaN f for a supplied morphism f
  associator-instance  equality of the two bracketing actions on U,V,W
  compmodulealgebra  alphaH(psiH(h)).(a a') = sum (h1.a)(h2.a')
"""

from __future__ import annotations

from .exact_tensor import (
    Frozen, Permutation, identity, kron, lazy, zero_map,
)
from .hom_structures import (
    CheckReport, HomBialgebra, _comodule_laws, _module_laws, _run,
    coerce_cube, cube_map, map_cube,
)


class HModule(Frozen):
    """dim-dimensional space with action (h (x) m -> h.m) and structure map."""

    __slots__ = ("field", "dim", "hdim", "action", "alpha")

    def __init__(self, field, action, alpha):
        if alpha.field != field or action.field != field:
            raise ValueError("module maps must share the module field")
        if alpha.rows != alpha.cols:
            raise ValueError("alpha must be square")
        dim = alpha.rows
        if action.rows != dim:
            raise ValueError("action rows must equal module dim")
        if dim == 0 or action.cols % dim:
            raise ValueError("action cols must be dimH * dim")
        self._init(field=field, dim=dim, hdim=action.cols // dim,
                   action=action, alpha=alpha)


class HComodule(Frozen):
    """dim-dimensional space with coaction (m -> sum m_(-1) (x) m_(0))."""

    __slots__ = ("field", "dim", "cdim", "coaction", "psi")

    def __init__(self, field, coaction, psi):
        if psi.field != field or coaction.field != field:
            raise ValueError("comodule maps must share the comodule field")
        if psi.rows != psi.cols:
            raise ValueError("psi must be square")
        dim = psi.rows
        if coaction.cols != dim:
            raise ValueError("coaction cols must equal comodule dim")
        if dim == 0 or coaction.rows % dim:
            raise ValueError("coaction rows must be dimC * dim")
        self._init(field=field, dim=dim, cdim=coaction.rows // dim,
                   coaction=coaction, psi=psi)


def module_from_cube(field, cube, alpha):
    """Action cube a[h][m][k]: h.e_m = sum_k a[h][m][k] e_k."""
    d = alpha.rows
    cube = coerce_cube(field, cube, (len(cube), d, d))
    return HModule(field, cube_map(field, cube, d), alpha)


def comodule_from_cube(field, cube, psi):
    """Coaction cube c[m][j][k]: coact(e_m) = sum c[m][j][k] e_j (x) e_k."""
    d, cdim = psi.rows, len(cube[0]) if cube else 0
    cube = coerce_cube(field, cube, (d, cdim, d))
    return HComodule(field, cube_map(field, cube, cdim * d), psi)


def action_cube(M):
    """Inverse of module_from_cube: nested lists a[h][m][k]."""
    return map_cube(M.action, M.dim, M.dim)


def coaction_cube(M):
    """Inverse of comodule_from_cube: nested lists c[m][j][k].

    M is anything with a coaction and a dim (a comodule or a YD module).
    """
    return map_cube(M.coaction, M.coaction.rows // M.dim, M.dim)


def regular_module(A):
    """A acting on itself by its own multiplication."""
    return HModule(A.field, A.mul_linmap, A.alpha)


def zero_module(field, hdim, alpha):
    """Zero action; any structure map is allowed (both module laws vanish)."""
    dim = alpha.rows
    return HModule(field, zero_map(dim, hdim * dim, field), alpha)


def regular_comodule(C):
    """C coacting on itself by its own comultiplication."""
    return HComodule(C.field, C.comul_linmap, C.psi)


def conjugate_module(M, g):
    """Transport the module structure along an invertible map g.

    The result (g action (id (x) g^-1), g alpha g^-1) satisfies exactly the
    identities M does, which makes it a cheap source of non-monomial valid
    fixtures.
    """
    if g.rows != M.dim or g.cols != M.dim:
        raise ValueError("conjugating map must be square of the module dim")
    gi = g.inverse()
    act = g.compose(M.action).compose_kron(identity(M.hdim, M.field), gi)
    return HModule(M.field, act, g.compose(M.alpha).compose(gi))


def _require_same_field(a, b, what):
    if a.field != b.field:
        raise ValueError(f"field mismatch in {what}")


def check_module(H, M):
    """eq8 on all pairs, eq9 on all triples, for H a hom-(bi)algebra."""
    _require_same_field(H, M, "check_module")
    if M.hdim != H.dim:
        raise ValueError("module action algebra slot does not match H.dim")
    return _run(_module_laws(H, M.action, M.alpha))


def check_comodule(C, M):
    """comodul1 and comodul2 on every basis element of M."""
    _require_same_field(C, M, "check_comodule")
    if M.cdim != C.dim:
        raise ValueError("coaction coalgebra slot does not match C.dim")
    return _run(_comodule_laws(C, M.coaction, M.psi))


def tensor_module(H, M, N):
    """Diagonal action through the coproduct: h.(u (x) v) = sum (h1.u) (x) (h2.v)."""
    if not isinstance(H, HomBialgebra):
        raise ValueError("tensor_module needs a hom-bialgebra for its coproduct")
    _require_same_field(H, M, "tensor_module")
    _require_same_field(H, N, "tensor_module")
    if M.hdim != H.dim or N.hdim != H.dim:
        raise ValueError("module algebra slots do not match H.dim")
    act = M.action.pair_compose(N.action, H.comul_linmap, Permutation(
        H.field, (M.dim * N.dim,)), H.dim)
    return HModule(H.field, act, kron(M.alpha, N.alpha))


def twist_module(H, M, which):
    """Precompose the algebra slot of the action: 'F' uses psi, 'G' uses alpha."""
    _require_same_field(H, M, "twist_module")
    if M.hdim != H.dim:
        raise ValueError("module algebra slot does not match H.dim")
    if which == "F":
        tw = H.psi
    elif which == "G":
        tw = H.alpha
    else:
        raise ValueError(f"which must be 'F' or 'G', got {which!r}")
    act = M.action.compose_kron(tw, Permutation(M.field, (M.dim,)))
    return HModule(M.field, act, M.alpha)


def check_module_morphism(f, H, M, N):
    """Is f: M -> N compatible with both structure maps and both actions."""
    if f.cols != M.dim or f.rows != N.dim:
        raise ValueError("morphism shape does not match modules")
    if M.hdim != N.hdim:
        raise ValueError("modules live over algebras of different dims")
    n, dm, dn = M.hdim, M.dim, N.dim
    checks = [
        ("module-morphism-twist", lazy(f).compose(M.alpha),
         lazy(N.alpha).compose(f), (dm,), (dn,)),
        ("module-morphism-action", lazy(f).compose(M.action),
         lazy(N.action).compose_kron(identity(n, M.field), f), (n, dm), (dn,)),
    ]
    return _run(checks)


def check_comodule_morphism(f, C, M, N):
    """Is f: M -> N compatible with structure maps and both coactions."""
    if f.cols != M.dim or f.rows != N.dim:
        raise ValueError("morphism shape does not match comodules")
    if M.cdim != N.cdim:
        raise ValueError("comodules live over coalgebras of different dims")
    n, dm, dn = M.cdim, M.dim, N.dim
    checks = [
        ("comodule-morphism-twist", lazy(f).compose(M.psi),
         lazy(N.psi).compose(f), (dm,), (dn,)),
        ("comodule-morphism-coaction",
         lazy(identity(n, M.field)).kron_compose(f, M.coaction),
         lazy(N.coaction).compose(f), (dm,), (n, dn)),
    ]
    return _run(checks)


def phi_check(H, M, f=None, N=None):
    """The module structure map as a morphism into the alpha-twisted module.

    Checks that alphaM : M -> G(M) is a module morphism (its action half is
    eq8 restated). If a morphism f: M -> N is supplied, also checks the
    naturality square f alphaM = alphaN f under id phi-natural.
    """
    rep = check_module_morphism(M.alpha, H, M, twist_module(H, M, "G"))
    if f is None:
        return rep
    if N is None:
        N = M
    natural = _run([("phi-natural", lazy(f).compose(M.alpha),
                     lazy(N.alpha).compose(f), (M.dim,), (N.dim,))])
    return CheckReport.merge(rep, natural)


def check_associator_instance(H, U, V, W):
    """Equality of the two bracketed tensor actions on U, V, W.

    With left-to-right flattening the rebracketing map is the identity, so
    the morphism condition collapses to equality between the action of
    (U (x) V) (x) F(W) and the action of F(U) (x) (V (x) W). This is the
    module-level face of the twisted coassociativity law eq5.
    """
    left = tensor_module(H, tensor_module(H, U, V), twist_module(H, W, "F"))
    right = tensor_module(H, twist_module(H, U, "F"), tensor_module(H, V, W))
    n = H.dim
    dims = (U.dim, V.dim, W.dim)
    return _run([("associator-instance", left.action, right.action,
                  (n,) + dims, dims)])


def check_module_hom_algebra(H, A, act_module):
    """Action compatibility with a product on the module.

    Requires the module structure map to literally equal A.alpha, then
    checks alphaH(psiH(h)).(a a') = sum (h1.a)(h2.a') on all triples
    (id compmodulealgebra).
    """
    _require_same_field(H, A, "check_module_hom_algebra")
    if act_module.dim != A.dim:
        raise ValueError("module carrier must be the algebra itself")
    if act_module.alpha != A.alpha:
        raise ValueError("module structure map must equal the algebra twist map")
    n, da = H.dim, A.dim
    lhs = lazy(act_module.action).compose_kron(
        H.alpha.compose(H.psi), A.mul_linmap)
    tens = tensor_module(H, act_module, act_module)
    rhs = lazy(A.mul_linmap).compose(tens.action)
    return _run([("compmodulealgebra", lhs, rhs, (n, da, da), (da,))])
