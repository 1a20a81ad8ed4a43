"""Yetter-Drinfeld modules over a hom-bialgebra whose two twist maps agree.

Throughout this module the base bialgebra must have alpha = psi with alpha
invertible; its inverse powers are computed once per distinct matrix and
memoized. A Yetter-Drinfeld module carries one structure map serving as
both the module and comodule twist, an action and a coaction, tied together
by the compatibility law homYD (formula in docs/formats.md):

  sum (h1.m)_(-1) alpha^2(h2) (x) (h1.m)_(0)
    = sum alpha^2(h1) alpha(m_(-1)) (x) alpha(h2).m_(0)

Both sides of homYD, the tensor coaction and the B-map apply a tensor
square element (h1 (x) h2, m_(-1) (x) m_(0)) factorwise through
LinMap.pair_compose; no Kronecker product is stored only to be composed.

Every operation on Yetter-Drinfeld modules requires valid inputs. Through
hom_structures.require the check_yd verdict is formed once per (bialgebra,
module) pair and reused by later operations on the same objects (for the
most recent 128 gate inputs); check_yd itself always runs its checks.
"""

from __future__ import annotations

from functools import lru_cache

from .exact_tensor import Frozen, identity, kron, lazy
from .hom_structures import CheckReport, _intertwining, _run, require
from .rep_theory import (
    HComodule, HModule, check_comodule, check_module, comodule_from_cube,
    module_from_cube, tensor_module, twist_module,
)


@lru_cache(maxsize=128)
def _cached_inverse(m):
    return m.inverse()


class YDModule(Frozen):
    """Carrier with one structure map, an action and a coaction.

    module and comodule hold the two halves as an HModule and an HComodule.
    """

    __slots__ = ("field", "dim", "hdim", "action", "coaction", "alpha",
                 "module", "comodule")

    def __init__(self, field, action, coaction, alpha):
        mod = HModule(field, action, alpha)
        comod = HComodule(field, coaction, alpha)
        if mod.hdim != comod.cdim:
            raise ValueError("action and coaction reference different algebra dims")
        self._init(field=field, dim=mod.dim, hdim=mod.hdim, action=action,
                   coaction=coaction, alpha=alpha, module=mod, comodule=comod)


def yd_from_cubes(field, act_cube, coact_cube, alpha):
    """Build from an action cube a[h][m][k] and coaction cube c[m][j][k]."""
    mod = module_from_cube(field, act_cube, alpha)
    comod = comodule_from_cube(field, coact_cube, alpha)
    return YDModule(field, mod.action, comod.coaction, alpha)


def _yd_base(H):
    """Validate the standing hypotheses; return alpha's inverse."""
    if H.alpha != H.psi:
        raise ValueError("Yetter-Drinfeld operations need equal twist maps "
                         "on the bialgebra")
    try:
        return _cached_inverse(H.alpha)
    except ValueError:
        raise ValueError("Yetter-Drinfeld operations need an invertible "
                         "twist map") from None


def check_yd(H, M):
    """Module laws, comodule laws, and the compatibility law homYD."""
    _yd_base(H)
    if M.field != H.field:
        raise ValueError("field mismatch in check_yd")
    if M.hdim != H.dim:
        raise ValueError("module algebra slot does not match H.dim")
    mrep = check_module(H, M.module)
    crep = check_comodule(H, M.comodule)
    return CheckReport.merge(mrep, crep, _run(_yd_checks(H, M)))


def _yd_checks(H, M):
    # homYD: both sides assembled as maps on H (x) M
    n, dm = H.dim, M.dim
    field = H.field
    act, coact = M.action, M.coaction
    D, Mm, a = H.comul_linmap, H.mul_linmap, H.alpha
    a2 = a.compose(a)
    idn = identity(n, field)
    idm = identity(dm, field)

    # (h1.m) (x) alpha^2(h2), then its coaction multiplied into the H slot
    lhs = lazy(Mm.pair_compose(idm, coact, idn, n)).compose(
        act.pair_compose(idn, idn.kron_compose(a2, D), idm, n))
    rhs = lazy(Mm.compose_kron(a2, a)).pair_compose(
        act.compose_kron(a, idm), D, coact, n)
    yield ("homYD", lhs, rhs, (n, dm), (n, dm))


def _yd_tensor_coaction(H, M, N):
    """Coaction m (x) n -> sum alpha^-2(m_(-1) n_(-1)) (x) (m_(0) (x) n_(0))."""
    ai = _yd_base(H)
    return ai.compose(ai).compose(H.mul_linmap).pair_compose(
        identity(M.dim * N.dim, H.field), M.coaction, N.coaction, H.dim)


def yd_tensor(H, M, N):
    """Tensor product in the Yetter-Drinfeld category.

    Action through the coproduct as for plain modules; coaction as in
    _yd_tensor_coaction; structure map the tensor of the two maps.
    """
    for X in (M, N):
        require(check_yd, H, X, what="yd_tensor precondition fails:")
    act = tensor_module(H, M.module, N.module).action
    co = _yd_tensor_coaction(H, M, N)
    return YDModule(H.field, act, co, kron(M.alpha, N.alpha))


def _b_yd_map(H, M, N):
    """Matrix of m (x) n -> sum alpha^-1(m_(-1)).n (x) m_(0); no validity gate."""
    ai = _yd_base(H)
    idn = identity(N.dim, H.field)
    return N.action.compose_kron(ai, idn).pair_compose(
        identity(M.dim, H.field), M.coaction, idn, H.dim)


def b_yd(H, M, N):
    """The Yang-Baxter operator of a pair: m (x) n -> sum alpha^-1(m_(-1)).n (x) m_(0).

    Also verifies the built map intertwines the pair structure maps
    ((alphaN (x) alphaM) B = B (alphaM (x) alphaN)).
    """
    for X in (M, N):
        require(check_yd, H, X, what="b_yd precondition fails:")
    b = _b_yd_map(H, M, N)
    if not _run([_intertwining("defB", b, M.alpha, N.alpha)]).ok:
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
    return _cached_inverse(N.alpha).kron_compose(_cached_inverse(M.alpha), b)


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
    ai = _yd_base(H)
    require(check_yd, H, M, what="f_twist_yd precondition fails:")
    act = twist_module(H, M.module, "F").action
    co = ai.kron_compose(identity(M.dim, M.field), M.coaction)
    return YDModule(M.field, act, co, M.alpha)
