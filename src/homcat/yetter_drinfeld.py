"""Yetter-Drinfeld modules over a hom-bialgebra whose two twist maps agree.

Throughout this module the base bialgebra must have alpha = psi with alpha
invertible; its inverse powers are computed once per distinct matrix and
memoized. A Yetter-Drinfeld module carries one structure map serving as
both the module and comodule twist, an action and a coaction, tied together
by the compatibility law homYD (formula in docs/formats.md):

  sum (h1.m)_(-1) alpha^2(h2) (x) (h1.m)_(0)
    = sum alpha^2(h1) alpha(m_(-1)) (x) alpha(h2).m_(0)
"""

from __future__ import annotations

from functools import lru_cache

from .exact_tensor import LinMap, flip_map, identity, kron
from .hom_structures import (
    DEFAULT_VIOLATION_CAP, CheckReport, _run, compare_maps,
)
from .rep_theory import (
    HComodule, HModule, check_comodule, check_module, comodule_from_cube,
    module_from_cube, tensor_module, twist_module,
)


@lru_cache(maxsize=128)
def _cached_inverse(m):
    return m.inverse()


class YDModule:
    """Carrier with one structure map, an action and a coaction."""

    __slots__ = ("field", "dim", "hdim", "action", "coaction", "alpha")

    def __init__(self, field, action, coaction, alpha):
        mod = HModule(field, action, alpha)
        comod = HComodule(field, coaction, alpha)
        if mod.hdim != comod.cdim:
            raise ValueError("action and coaction reference different algebra dims")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", mod.dim)
        object.__setattr__(self, "hdim", mod.hdim)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "coaction", coaction)
        object.__setattr__(self, "alpha", alpha)

    def __setattr__(self, name, value):
        raise AttributeError("YDModule is immutable")

    @property
    def module(self):
        return HModule(self.field, self.action, self.alpha)

    @property
    def comodule(self):
        return HComodule(self.field, self.coaction, self.alpha)


def yd_from_cubes(field, act_cube, coact_cube, alpha):
    """Build from an action cube a[h][m][k] and coaction cube c[m][j][k]."""
    mod = module_from_cube(field, act_cube, alpha)
    comod = comodule_from_cube(field, coact_cube, alpha)
    return YDModule(field, mod.action, comod.coaction, alpha)


def _yd_base(H):
    """Validate the standing hypotheses; return (alpha_inv, alpha_inv_sq)."""
    if H.alpha != H.psi:
        raise ValueError("Yetter-Drinfeld operations need equal twist maps "
                         "on the bialgebra")
    try:
        ai = _cached_inverse(H.alpha)
    except ValueError:
        raise ValueError("Yetter-Drinfeld operations need an invertible "
                         "twist map") from None
    return ai, ai.compose(ai)


def check_yd(H, M, cap=DEFAULT_VIOLATION_CAP):
    """Module laws, comodule laws, and the compatibility law homYD."""
    _yd_base(H)
    if M.field != H.field:
        raise ValueError("field mismatch in check_yd")
    if M.hdim != H.dim:
        raise ValueError("module algebra slot does not match H.dim")
    mrep = check_module(H, M.module, cap)
    crep = check_comodule(H, M.comodule, cap)
    return CheckReport.merge(mrep, crep, _run(_yd_checks(H, M), cap), cap=cap)


def _yd_checks(H, M):
    # homYD: both sides assembled as maps on H (x) M
    n, dm = H.dim, M.dim
    field = H.field
    act, coact = M.action, M.coaction
    D = H.comul_linmap
    Mm = H.mul_linmap
    a = H.alpha
    a2 = a.compose(a)
    idn = identity(n, field)
    idm = identity(dm, field)

    start = kron(D, idm)
    lhs = kron(Mm, idm).compose(
        kron(idn, flip_map(dm, n, field))).compose(
        kron(coact, idn)).compose(
        kron(act, idn)).compose(
        kron(idn, flip_map(n, dm, field))).compose(
        kron(idn, kron(a2, idm))).compose(start)
    rhs = kron(Mm, act).compose(
        kron(a2, kron(a, kron(a, idm)))).compose(
        kron(idn, kron(flip_map(n, n, field), idm))).compose(
        kron(identity(n * n, field), coact)).compose(start)
    yield ("homYD", lhs, rhs, (n, dm), (n, dm))


def _require_valid(H, M, name):
    rep = check_yd(H, M)
    if not rep.ok:
        raise ValueError(f"{name} precondition fails: {rep.failed_axioms}")


def _yd_tensor_coaction(H, M, N):
    """Coaction m (x) n -> sum alpha^-2(m_(-1) n_(-1)) (x) (m_(0) (x) n_(0))."""
    _, ai2 = _yd_base(H)
    field = H.field
    n, dm, dn = H.dim, M.dim, N.dim
    regroup = kron(identity(n, field),
                   kron(flip_map(dm, n, field), identity(dn, field)))
    # (coactM (x) coactN) then regroup to (m-1, n-1, m0, n0), multiply, twist
    return kron(ai2.compose(H.mul_linmap), identity(dm * dn, field)).compose(
        regroup).compose(kron(M.coaction, N.coaction))


def yd_tensor(H, M, N):
    """Tensor product in the Yetter-Drinfeld category.

    Action through the coproduct as for plain modules; coaction as in
    _yd_tensor_coaction; structure map the tensor of the two maps.
    """
    _require_valid(H, M, "yd_tensor")
    _require_valid(H, N, "yd_tensor")
    act = tensor_module(H, M.module, N.module).action
    co = _yd_tensor_coaction(H, M, N)
    return YDModule(H.field, act, co, kron(M.alpha, N.alpha))


def _b_yd_map(H, M, N):
    """Matrix of m (x) n -> sum alpha^-1(m_(-1)).n (x) m_(0); no validity gate."""
    ai, _ = _yd_base(H)
    field = H.field
    n, dm, dn = H.dim, M.dim, N.dim
    return kron(N.action.compose(kron(ai, identity(dn, field))),
                identity(dm, field)).compose(
        kron(identity(n, field), flip_map(dm, dn, field))).compose(
        kron(M.coaction, identity(dn, field)))


def b_yd(H, M, N):
    """The Yang-Baxter operator of a pair: m (x) n -> sum alpha^-1(m_(-1)).n (x) m_(0).

    Also verifies the built map intertwines the pair structure maps
    ((alphaN (x) alphaM) B = B (alphaM (x) alphaN)).
    """
    _require_valid(H, M, "b_yd")
    _require_valid(H, N, "b_yd")
    b = _b_yd_map(H, M, N)
    ok, _ = compare_maps("defB", kron(N.alpha, M.alpha).compose(b),
                         b.compose(kron(M.alpha, N.alpha)),
                         (M.dim, N.dim), (N.dim, M.dim))
    if not ok:
        raise ValueError("defB intertwining failed on inputs that passed "
                         "check_yd; inputs are inconsistent")
    return b


def quasi_braiding_yd(H, M, N):
    """Braiding candidate: structure-map inverses composed with the B-map."""
    _yd_base(H)
    if not M.alpha.is_invertible():
        raise ValueError("quasi_braiding_yd needs invertible structure map on M")
    if not N.alpha.is_invertible():
        raise ValueError("quasi_braiding_yd needs invertible structure map on N")
    b = b_yd(H, M, N)
    return kron(_cached_inverse(N.alpha), _cached_inverse(M.alpha)).compose(b)


def yd_associator(M, N, P):
    """Rebracketing morphism: (m (x) n) (x) p -> alphaM^-1(m) (x) (n (x) alphaP(p))."""
    if not M.alpha.is_invertible():
        raise ValueError("yd_associator needs invertible structure map on M")
    return kron(_cached_inverse(M.alpha),
                kron(identity(N.dim, N.field), P.alpha))


def f_twist_yd(H, M):
    """Endofunctor twisting both halves of a Yetter-Drinfeld module.

    The action absorbs one twist map on the algebra slot, the coaction
    releases one through the inverse on its algebra output. Identities on
    morphisms: the underlying matrix of a twisted morphism is unchanged.
    """
    ai, _ = _yd_base(H)
    _require_valid(H, M, "f_twist_yd")
    act = twist_module(H, M.module, "F").action
    co = kron(ai, identity(M.dim, M.field)).compose(M.coaction)
    return YDModule(M.field, act, co, M.alpha)
