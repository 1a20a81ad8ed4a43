"""Strip twist maps from braided structures into classical coherence data.

Given a family of invertible component maps, one per module, the two
builders assemble a classical associativity constraint and a classical
quasi-braiding on the underlying spaces:

  b(U, V, W)    = kron(Theta_U^-1, kron(id_V, Theta_W))
  c(U, V)       = kron(Phi_V^-1, Phi_U^-1) composed with a supplied swap
                  shaped map d: U (x) V -> V (x) U

Component maps of composite objects are always derived as Kronecker
products of the atomic components, never accepted as independent input;
that turns the multiplicativity hypotheses into construction facts. The
checks then confirm Mac Lane pentagon and hexagon coherence exactly, and
the cross check ties the builders to the Yetter-Drinfeld rebracketing and
quasi-braiding (axiom ids eq3333c and eq9999d, see docs/formats.md).

A Kronecker product composed only once (Phi_V^-1 (x) Phi_U^-1 in c, a
constraint beside an identity in the pentagon and hexagons) goes through
compose_kron or kron_compose and is never stored. No associator is
inverted: its inverse is assembled from the inverses of the components.
"""

from __future__ import annotations

from .exact_tensor import check_size, identity, kron, kron_all
from .hom_structures import _run, require
from .yetter_drinfeld import (
    _cached_inverse, b_yd, check_yd, quasi_braiding_yd, yd_associator,
)


def build_b(theta_u, theta_w, dims):
    """Associativity constraint component for the triple with the given dims."""
    du, dv, dw = dims
    if theta_u.rows != du or theta_u.cols != du:
        raise ValueError("theta_u must be square of the first dim")
    if theta_w.rows != dw or theta_w.cols != dw:
        raise ValueError("theta_w must be square of the third dim")
    try:
        inv = _cached_inverse(theta_u)
    except ValueError:
        raise ValueError("build_b needs invertible theta_u") from None
    return kron(inv, kron(identity(dv, theta_u.field), theta_w))


def build_c(phi_u, phi_v, d):
    """Quasi-braiding component from a swap-shaped map d: U (x) V -> V (x) U."""
    du, dv = phi_u.rows, phi_v.rows
    if phi_u.cols != du or phi_v.cols != dv:
        raise ValueError("component maps must be square")
    if d.cols != du * dv or d.rows != dv * du:
        raise ValueError("d must map U (x) V to V (x) U")
    try:
        iu = _cached_inverse(phi_u)
        iv = _cached_inverse(phi_v)
    except ValueError:
        raise ValueError("build_c needs invertible component maps") from None
    return iv.kron_compose(iu, d)


class ConstraintFamily:
    """Named component maps plus derived coherence maps.

    Atomic modules are registered by label with one square component map
    (the Theta of an associator family, the Phi of a braiding family).
    Composite objects are tuples of objects; their components and dims
    come from kron, never from user input. Braiding sources d are stored
    per ordered object pair and validated against the object dims.
    """

    def __init__(self, field):
        self.field = field
        self._components = {}
        self._pair_maps = {}

    def add_module(self, label, component):
        if not isinstance(label, str):
            raise ValueError("atomic module labels must be strings")
        if component.rows != component.cols:
            raise ValueError("component map must be square")
        if component.field != self.field:
            raise ValueError("component field mismatch")
        self._components[label] = component
        return self

    def dim(self, obj):
        return self.component(obj).rows

    def component(self, obj):
        """Component map of a label or of a tuple of objects."""
        if isinstance(obj, tuple):
            parts = [self.component(o) for o in obj]
            acc = parts[0]
            for p in parts[1:]:
                acc = kron(acc, p)
            return acc
        try:
            return self._components[obj]
        except KeyError:
            raise ValueError(f"missing family entry: {obj!r}") from None

    def add_pair_map(self, u, v, d):
        du, dv = self.dim(u), self.dim(v)
        if d.cols != du * dv or d.rows != dv * du:
            raise ValueError("pair map must swap the two object spaces")
        if d.field != self.field:
            raise ValueError("pair map field mismatch")
        self._pair_maps[(u, v)] = d
        return self

    def pair_map(self, u, v):
        try:
            return self._pair_maps[(u, v)]
        except KeyError:
            raise ValueError(f"missing family entry: pair {(u, v)!r}") from None

    def assoc(self, u, v, w):
        return build_b(self.component(u), self.component(w),
                       (self.dim(u), self.dim(v), self.dim(w)))

    def _inverse_component(self, obj):
        """The inverse of component(obj); ValueError if it is singular.

        A composite's inverse is the Kronecker product of its atoms'
        inverses, so no map larger than an atomic component is inverted.
        """
        if isinstance(obj, tuple) and self.dim(obj):
            return kron_all(*(self._inverse_component(o) for o in obj))
        return _cached_inverse(self.component(obj))

    def assoc_inverse(self, u, v, w):
        """assoc(u, v, w).inverse() = Theta_u (x) id_v (x) Theta_w^-1.

        Built from the atoms' inverses, with assoc's refusals in its order
        (a missing entry, a singular Theta_u, an output above the cap),
        then inverse's "map is singular" for a singular Theta_w unless the
        associator is 0x0.
        """
        theta_u, theta_w = self.component(u), self.component(w)
        dv = self.dim(v)
        try:
            _cached_inverse(theta_u)
        except ValueError:
            raise ValueError("build_b needs invertible theta_u") from None
        side = dv * theta_w.rows
        size = theta_u.rows * side
        check_size(side, side, "kron")
        check_size(size, size, "kron")
        if not size:
            return identity(0, self.field)
        return kron(theta_u, kron(identity(dv, self.field),
                                  self._inverse_component(w)))

    def braid(self, u, v):
        return build_c(self.component(u), self.component(v),
                       self.pair_map(u, v))


def check_pentagon(b_family, U, V, W, X):
    """Mac Lane pentagon for the derived associativity constraint."""
    du, dv = b_family.dim(U), b_family.dim(V)
    dw, dx = b_family.dim(W), b_family.dim(X)
    field = b_family.field
    lhs = identity(du, field).kron_compose(
        b_family.assoc(V, W, X),
        b_family.assoc(U, (V, W), X).compose_kron(
            b_family.assoc(U, V, W), identity(dx, field)))
    rhs = b_family.assoc(U, V, (W, X)).compose(b_family.assoc((U, V), W, X))
    return _run([("pentagon", lhs, rhs,
                  (du, dv, dw, dx), (du, dv, dw, dx))])


def check_hexagons(b_family, c_family, U, V, W):
    """Both classical hexagons for the derived (b, c) pair.

    hex1: b(V,W,U) c(U, V(x)W) b(U,V,W) = (id (x) c(U,W)) b(V,U,W) (c(U,V) (x) id)
    hex2: the mirror with inverse associators (assoc_inverse):
          b(W,U,V)^-1 c(U(x)V, W) b(U,V,W)^-1
          = (c(U,W) (x) id) b(U,W,V)^-1 (id (x) c(V,W))
    """
    du, dv, dw = b_family.dim(U), b_family.dim(V), b_family.dim(W)
    field = b_family.field
    idu = identity(du, field)
    idv = identity(dv, field)
    idw = identity(dw, field)

    def checks():
        lhs1 = b_family.assoc(V, W, U).compose(
            c_family.braid(U, (V, W))).compose(b_family.assoc(U, V, W))
        rhs1 = idv.kron_compose(
            c_family.braid(U, W),
            b_family.assoc(V, U, W).compose_kron(c_family.braid(U, V), idw))
        yield ("hex1", lhs1, rhs1, (du, dv, dw), (dv, dw, du))
        lhs2 = b_family.assoc_inverse(W, U, V).compose(
            c_family.braid((U, V), W)).compose(
            b_family.assoc_inverse(U, V, W))
        rhs2 = c_family.braid(U, W).kron_compose(
            idv,
            b_family.assoc_inverse(U, W, V).compose_kron(
                idu, c_family.braid(V, W)))
        yield ("hex2", lhs2, rhs2, (du, dv, dw), (dw, du, dv))
    return _run(checks())


def cross_check_yd(H, M, N, P=None):
    """Do the builders reproduce the Yetter-Drinfeld coherence maps.

    eq3333c: build_b on the structure maps equals the rebracketing
    morphism of (M, N, P); P defaults to N. eq9999d: build_c on the
    structure maps over the B-map equals the quasi-braiding of (M, N).
    """
    if P is None:
        P = N
    for X in (M, N, P):
        require(check_yd, H, X, what="cross_check_yd precondition fails:")
    for lab, mod in (("M", M), ("N", N), ("P", P)):
        if not mod.alpha.is_invertible():
            raise ValueError(f"cross_check_yd needs invertible structure "
                             f"map on {lab}")
    dims = (M.dim, N.dim, P.dim)

    def checks():
        yield ("eq3333c", build_b(M.alpha, P.alpha, dims),
               yd_associator(M, N, P), dims, dims)
        yield ("eq9999d", build_c(M.alpha, N.alpha, b_yd(H, M, N)),
               quasi_braiding_yd(H, M, N), (M.dim, N.dim), (N.dim, M.dim))
    return _run(checks())
