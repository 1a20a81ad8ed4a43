"""Hom-associative algebras, hom-coassociative coalgebras, hom-bialgebras.

Structures are plain structure-constant containers; nothing is validated at
construction time, so invalid instances are legitimate checker inputs. Each
defining identity has a short stable id (eq1, eq2, ...) used in reports and
documented with its formula in docs/formats.md. Checks compare the two sides
of an identity as matrices assembled from the structure constants, then scan
columns (= source basis vectors, lexicographic multi-index order) for
disagreements.

Identity vocabulary used here:
  eq1   alpha(a b) = alpha(a) alpha(b)
  eq2   alpha(a)(b c) = (a b) alpha(c)            (twisted associativity)
  eq3   (psi (x) psi) comul = comul psi
  eq4   (comul (x) psi) comul = (psi (x) comul) comul   (twisted coassociativity)
  eq5   same identity as eq4, evaluated by direct structure-constant
        contraction instead of matrix composition (independent route)
  eq6   comul(b b') = comul(b) comul(b') in the tensor-square algebra
  eq7   comul(alpha(b)) = (alpha (x) alpha)(comul(b))
  eq7111 comul(psi(b)) = (psi (x) psi)(comul(b))
  eq7112 psi(b b') = psi(b) psi(b')
  alpha-psi-commute  alpha psi = psi alpha
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from .exact_tensor import (
    LinMap, QQ, flip_map, identity, kron, unflatten_index,
)

DEFAULT_VIOLATION_CAP = 16

NONDEGENERATE = "Nondegenerate"
UNKNOWN = "Unknown"


class Violation(NamedTuple):
    """One basis input where an identity's two sides disagree.

    lhs/rhs are sparse vectors: tuples of (basis multi-index, coefficient),
    listing only nonzero coefficients in lexicographic index order.
    """

    axiom: str
    index: tuple
    lhs: tuple
    rhs: tuple


class CheckReport:
    """Outcome of one or more identity checks.

    axiom_status maps each evaluated identity id to whether it held
    everywhere (decided before the violation cap is applied). violations
    holds up to `cap` entries sorted by (axiom id, basis index).
    """

    __slots__ = ("axiom_status", "violations")

    def __init__(self, axiom_status, violations, cap=DEFAULT_VIOLATION_CAP):
        object.__setattr__(self, "axiom_status", dict(axiom_status))
        vs = sorted(violations, key=lambda v: (v.axiom, v.index))
        object.__setattr__(self, "violations", tuple(vs[:cap]))

    def __setattr__(self, name, value):
        raise AttributeError("CheckReport is immutable")

    @property
    def ok(self):
        return all(self.axiom_status.values())

    @property
    def checked(self):
        return sorted(self.axiom_status)

    @property
    def failed_axioms(self):
        return sorted(a for a, s in self.axiom_status.items() if not s)

    @staticmethod
    def merge(*reports, cap=DEFAULT_VIOLATION_CAP):
        status = {}
        violations = []
        for r in reports:
            for a, s in r.axiom_status.items():
                status[a] = status.get(a, True) and s
            violations.extend(r.violations)
        return CheckReport(status, violations, cap)

    def to_dict(self):
        return {
            "pass": self.ok,
            "checked": self.checked,
            "failed": self.failed_axioms,
            "violations": [
                {
                    "axiom": v.axiom,
                    "index": list(v.index),
                    "lhs": [[list(ix), str(c)] for ix, c in v.lhs],
                    "rhs": [[list(ix), str(c)] for ix, c in v.rhs],
                }
                for v in self.violations
            ],
        }

    def __repr__(self):
        state = "ok" if self.ok else f"failed={self.failed_axioms}"
        return f"CheckReport({state}, {len(self.violations)} violations)"


def _sparse(col, dims):
    return tuple((unflatten_index(i, dims), v) for i, v in enumerate(col) if v)


def compare_maps(axiom, lhs, rhs, src_dims, dst_dims, cap=DEFAULT_VIOLATION_CAP):
    """Columnwise comparison of two equal-shaped maps.

    Returns (held_everywhere, violations); scanning is lexicographic over
    source multi-indices and stops recording after `cap` entries while still
    deciding held_everywhere exactly.
    """
    if (lhs.rows, lhs.cols) != (rhs.rows, rhs.cols):
        raise ValueError(f"shape mismatch comparing {axiom}")
    if lhs.data == rhs.data:
        return True, []
    violations = []
    for c in range(lhs.cols):
        lcol = lhs.column(c)
        rcol = rhs.column(c)
        if lcol != rcol:
            violations.append(Violation(
                axiom, unflatten_index(c, src_dims),
                _sparse(lcol, dst_dims), _sparse(rcol, dst_dims)))
            if len(violations) >= cap:
                break
    return False, violations


def _run(checks, cap=DEFAULT_VIOLATION_CAP):
    """The one check runner: compare each spec's two sides into a report.

    checks is an iterable of (axiom, lhs, rhs, src_dims, dst_dims); pass a
    generator to build and compare one identity at a time. An element
    identity (one tensor vector, not a map) is a one-column map compared
    with src_dims=(), which reports its violation at index ().
    """
    status = {}
    violations = []
    for axiom, lhs, rhs, src_dims, dst_dims in checks:
        ok, vs = compare_maps(axiom, lhs, rhs, src_dims, dst_dims, cap)
        status[axiom] = ok
        violations.extend(vs)
    return CheckReport(status, violations, cap)


def coerce_cube(field, cube):
    """Coerce a dim^3 nested sequence of scalars; returns nested tuples."""
    n = len(cube)
    out = []
    for plane in cube:
        if len(plane) != n:
            raise ValueError("cube is not dim x dim x dim")
        rows = []
        for row in plane:
            if len(row) != n:
                raise ValueError("cube is not dim x dim x dim")
            rows.append(tuple(field.coerce(v) for v in row))
        out.append(tuple(rows))
    return tuple(out)


def mul_map(field, mul):
    """Multiplication as a dim x dim^2 map: column flat(i,j) is e_i e_j."""
    n = len(mul)
    flat = [field.zero] * (n * n * n)
    for i in range(n):
        for j in range(n):
            col = i * n + j
            for k in range(n):
                v = mul[i][j][k]
                if v:
                    flat[k * n * n + col] = v
    return LinMap._wrap(field, n, n * n, tuple(flat))


def comul_map(field, comul):
    """Comultiplication as a dim^2 x dim map: column k is comul(e_k)."""
    n = len(comul)
    flat = [field.zero] * (n * n * n)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                v = comul[k][i][j]
                if v:
                    flat[(i * n + j) * n + k] = v
    return LinMap._wrap(field, n * n, n, tuple(flat))


def _check_square(field, m, dim, what):
    if not isinstance(m, LinMap):
        raise ValueError(f"{what} must be a LinMap")
    if m.field != field:
        raise ValueError(f"{what} field mismatch")
    if (m.rows, m.cols) != (dim, dim):
        raise ValueError(f"{what} must be {dim}x{dim}, got {m.rows}x{m.cols}")


class HomAlgebra:
    """(A, mul, alpha): mul cube m[i][j][k] means e_i e_j = sum_k m[i][j][k] e_k."""

    __slots__ = ("field", "dim", "mul", "alpha", "mul_linmap")

    def __init__(self, field, mul, alpha):
        cube = coerce_cube(field, mul)
        _check_square(field, alpha, len(cube), "alpha")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", len(cube))
        object.__setattr__(self, "mul", cube)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "mul_linmap", mul_map(field, cube))

    def __setattr__(self, name, value):
        raise AttributeError("HomAlgebra is immutable")


class HomCoalgebra:
    """(C, comul, psi): cube d[k][i][j] means comul(e_k) = sum d[k][i][j] e_i (x) e_j."""

    __slots__ = ("field", "dim", "comul", "psi", "comul_linmap")

    def __init__(self, field, comul, psi):
        cube = coerce_cube(field, comul)
        _check_square(field, psi, len(cube), "psi")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", len(cube))
        object.__setattr__(self, "comul", cube)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "comul_linmap", comul_map(field, cube))

    def __setattr__(self, name, value):
        raise AttributeError("HomCoalgebra is immutable")


class HomBialgebra:
    """(H, mul, comul, alpha, psi); validity means check_hom_bialgebra passes."""

    __slots__ = ("field", "dim", "mul", "comul", "alpha", "psi",
                 "mul_linmap", "comul_linmap")

    def __init__(self, field, mul, comul, alpha, psi):
        mcube = coerce_cube(field, mul)
        dcube = coerce_cube(field, comul)
        if len(mcube) != len(dcube):
            raise ValueError("mul and comul cube dimensions differ")
        _check_square(field, alpha, len(mcube), "alpha")
        _check_square(field, psi, len(mcube), "psi")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", len(mcube))
        object.__setattr__(self, "mul", mcube)
        object.__setattr__(self, "comul", dcube)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "mul_linmap", mul_map(field, mcube))
        object.__setattr__(self, "comul_linmap", comul_map(field, dcube))

    def __setattr__(self, name, value):
        raise AttributeError("HomBialgebra is immutable")

    @property
    def algebra(self):
        return HomAlgebra(self.field, self.mul, self.alpha)

    @property
    def coalgebra(self):
        return HomCoalgebra(self.field, self.comul, self.psi)


class HomSemigroup:
    """Set-level twisted-associative structure on {0..n-1}.

    table[x][y] is the product and alpha_table[x] the image of x; validity
    means alpha(x)(y z) = (x y) alpha(z) for all triples, multiplicativity
    alpha(x y) = alpha(x) alpha(y) checked separately.
    """

    __slots__ = ("n", "table", "alpha_table")

    def __init__(self, n, table, alpha_table):
        table = tuple(tuple(int(v) for v in row) for row in table)
        alpha_table = tuple(int(v) for v in alpha_table)
        if len(table) != n or any(len(r) != n for r in table):
            raise ValueError("table must be n x n")
        if len(alpha_table) != n:
            raise ValueError("alpha table must have n entries")
        if any(not 0 <= v < n for r in table for v in r):
            raise ValueError("table entries out of range")
        if any(not 0 <= v < n for v in alpha_table):
            raise ValueError("alpha table entries out of range")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "alpha_table", alpha_table)

    def __setattr__(self, name, value):
        raise AttributeError("HomSemigroup is immutable")


def _algebra_checks(A):
    n = A.dim
    M = A.mul_linmap
    al = A.alpha
    yield ("eq1", al.compose(M), M.compose(kron(al, al)), (n, n), (n,))
    yield ("eq2", M.compose(kron(al, M)), M.compose(kron(M, al)),
           (n, n, n), (n,))


def check_hom_algebra(A, cap=DEFAULT_VIOLATION_CAP):
    """eq1 and eq2 over all basis pairs and triples."""
    return _run(_algebra_checks(A), cap)


def _coalgebra_checks(C):
    n = C.dim
    D = C.comul_linmap
    ps = C.psi
    yield ("eq3", kron(ps, ps).compose(D), D.compose(ps), (n,), (n, n))
    yield ("eq4", kron(D, ps).compose(D), kron(ps, D).compose(D),
           (n,), (n, n, n))


def check_hom_coalgebra(C, cap=DEFAULT_VIOLATION_CAP):
    """eq3 and eq4 over all basis elements."""
    return _run(_coalgebra_checks(C), cap)


def _contraction_coassoc(field, comul, psi):
    # eq5: both sides of twisted coassociativity assembled entry by entry
    # from the cube, bypassing the matrix kernels
    n = len(comul)
    lhs = LinMap._wrap(field, n ** 3, n, tuple(_contract5(field, comul, psi, left=True)))
    rhs = LinMap._wrap(field, n ** 3, n, tuple(_contract5(field, comul, psi, left=False)))
    return lhs, rhs


def _contract5(field, comul, psi, left):
    n = len(comul)
    p = field.modulus
    out = [field.zero] * (n ** 3 * n)
    for k in range(n):
        for u in range(n):
            for v in range(n):
                duv = comul[k][u][v]
                if not duv:
                    continue
                if left:
                    # comul again on the first leg, psi on the second
                    for x in range(n):
                        for y in range(n):
                            dxy = comul[u][x][y]
                            if not dxy:
                                continue
                            for z in range(n):
                                pz = psi.entry(z, v)
                                if not pz:
                                    continue
                                r = (x * n + y) * n + z
                                acc = out[r * n + k] + duv * dxy * pz
                                out[r * n + k] = acc % p if p is not None else acc
                else:
                    # psi on the first leg, comul again on the second
                    for x in range(n):
                        px = psi.entry(x, u)
                        if not px:
                            continue
                        for y in range(n):
                            for z in range(n):
                                dyz = comul[v][y][z]
                                if not dyz:
                                    continue
                                r = (x * n + y) * n + z
                                acc = out[r * n + k] + duv * px * dyz
                                out[r * n + k] = acc % p if p is not None else acc
    return out


def tensor_square_mul(field, mul):
    """Componentwise product map of H (x) H as a dim^2 x dim^4 matrix."""
    n = len(mul)
    M = mul_map(field, mul)
    idn = identity(n, field)
    mid = kron(idn, kron(flip_map(n, n, field), idn))
    return kron(M, M).compose(mid)


def _bialgebra_extra_checks(H):
    n = H.dim
    M = H.mul_linmap
    D = H.comul_linmap
    al, ps = H.alpha, H.psi
    lhs5, rhs5 = _contraction_coassoc(H.field, H.comul, ps)
    yield ("eq5", lhs5, rhs5, (n,), (n, n, n))
    M2 = tensor_square_mul(H.field, H.mul)
    yield ("eq6", D.compose(M), M2.compose(kron(D, D)), (n, n), (n, n))
    yield ("eq7", D.compose(al), kron(al, al).compose(D), (n,), (n, n))
    yield ("eq7111", D.compose(ps), kron(ps, ps).compose(D), (n,), (n, n))
    yield ("eq7112", ps.compose(M), M.compose(kron(ps, ps)), (n, n), (n,))
    yield ("alpha-psi-commute", al.compose(ps), ps.compose(al), (n,), (n,))


def check_hom_bialgebra(H, cap=DEFAULT_VIOLATION_CAP):
    """Full battery: eq1-eq7112 plus commuting twists, aggregated."""
    return _run(chain(_algebra_checks(H), _coalgebra_checks(H),
                      _bialgebra_extra_checks(H)), cap)


def check_structure_morphism(f, src, dst, kind, cap=DEFAULT_VIOLATION_CAP):
    """Is f a map of hom-algebras (kind 'algebra') or hom-coalgebras?

    algebra:   f alpha_src = alpha_dst f   and   f mul_src = mul_dst (f (x) f)
    coalgebra: f psi_src = psi_dst f       and   (f (x) f) comul_src = comul_dst f
    """
    if kind == "algebra":
        if isinstance(src, HomBialgebra):
            src = src.algebra
        if isinstance(dst, HomBialgebra):
            dst = dst.algebra
        if f.cols != src.dim or f.rows != dst.dim:
            raise ValueError("morphism shape does not match structures")
        n, m = src.dim, dst.dim
        checks = [
            ("morphism-twist", f.compose(src.alpha), dst.alpha.compose(f),
             (n,), (m,)),
            ("morphism-mul", f.compose(src.mul_linmap),
             dst.mul_linmap.compose(kron(f, f)), (n, n), (m,)),
        ]
    elif kind == "coalgebra":
        if isinstance(src, HomBialgebra):
            src = src.coalgebra
        if isinstance(dst, HomBialgebra):
            dst = dst.coalgebra
        if f.cols != src.dim or f.rows != dst.dim:
            raise ValueError("morphism shape does not match structures")
        n, m = src.dim, dst.dim
        checks = [
            ("morphism-twist", f.compose(src.psi), dst.psi.compose(f),
             (n,), (m,)),
            ("morphism-comul", kron(f, f).compose(src.comul_linmap),
             dst.comul_linmap.compose(f), (n,), (m, m)),
        ]
    else:
        raise ValueError(f"kind must be 'algebra' or 'coalgebra', got {kind!r}")
    return _run(checks, cap)


def yau_twist_algebra(mul, alpha):
    """Twist a classical associative product into a hom-associative one.

    Preconditions are verified: mul must be associative and alpha an algebra
    endomorphism of it. The twisted product is alpha composed with mul; the
    result always passes check_hom_algebra.
    """
    field = alpha.field
    cube = coerce_cube(field, mul)
    n = len(cube)
    _check_square(field, alpha, n, "alpha")
    M = mul_map(field, cube)
    idn = identity(n, field)
    assoc_ok, _ = compare_maps("assoc", M.compose(kron(M, idn)),
                               M.compose(kron(idn, M)), (n, n, n), (n,))
    if not assoc_ok:
        raise ValueError("not-associative: input multiplication is not associative")
    endo_ok, _ = compare_maps("endo", alpha.compose(M),
                              M.compose(kron(alpha, alpha)), (n, n), (n,))
    if not endo_ok:
        raise ValueError("not-endomorphism: alpha is not an algebra endomorphism")
    twisted = [[[field.zero] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for t in range(n):
                v = cube[i][j][t]
                if not v:
                    continue
                for k in range(n):
                    a = alpha.entry(k, t)
                    if a:
                        acc = twisted[i][j][k] + v * a
                        twisted[i][j][k] = (acc % field.modulus
                                            if field.modulus else acc)
    return HomAlgebra(field, twisted, alpha)


def yau_twist_bialgebra(mul, comul, endo):
    """Twist a classical bialgebra: product becomes endo . mul, coproduct
    becomes comul . endo, both twist maps equal endo.

    Preconditions verified: the classical structure must satisfy all the
    identity-twist bialgebra laws and endo must be a morphism for both mul
    and comul.
    """
    field = endo.field
    n = endo.rows
    classical = HomBialgebra(field, mul, comul, identity(n, field),
                             identity(n, field))
    rep = check_hom_bialgebra(classical)
    if not rep.ok:
        raise ValueError(f"not-bialgebra: classical laws fail {rep.failed_axioms}")
    for kind in ("algebra", "coalgebra"):
        mrep = check_structure_morphism(endo, classical, classical, kind)
        if not mrep.ok:
            raise ValueError(f"not-endomorphism: endo fails {mrep.failed_axioms}")
    alg = yau_twist_algebra(mul, endo)
    # twisted coproduct cube: comul applied after endo
    D = classical.comul_linmap.compose(endo)
    twisted = [[[field.zero] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        col = D.column(k)
        for flat, v in enumerate(col):
            if v:
                twisted[k][flat // n][flat % n] = v
    return HomBialgebra(field, alg.mul, twisted, endo, endo)


def tensor_hom_algebra(A, B):
    """Componentwise product on the flattened tensor basis."""
    if A.field != B.field:
        raise ValueError("field mismatch in tensor_hom_algebra")
    field = A.field
    na, nb = A.dim, B.dim
    n = na * nb
    p = field.modulus
    cube = [[[field.zero] * n for _ in range(n)] for _ in range(n)]
    for i in range(na):
        for ip in range(na):
            arow = A.mul[i][ip]
            for j in range(nb):
                for jp in range(nb):
                    brow = B.mul[j][jp]
                    src1 = i * nb + j
                    src2 = ip * nb + jp
                    dst = cube[src1][src2]
                    for k in range(na):
                        av = arow[k]
                        if not av:
                            continue
                        for l in range(nb):
                            bv = brow[l]
                            if bv:
                                v = av * bv
                                dst[k * nb + l] = v % p if p is not None else v
    return HomAlgebra(field, cube, kron(A.alpha, B.alpha))


def check_hom_semigroup(S, cap=DEFAULT_VIOLATION_CAP):
    """Exhaustive hom law over triples, multiplicativity over pairs."""
    t, a = S.table, S.alpha_table
    status = {"hom-semigroup-assoc": True, "hom-semigroup-mult": True}
    violations = []

    def note(axiom, index, lv, rv):
        status[axiom] = False
        if len(violations) < 2 * cap:
            violations.append(Violation(axiom, index, (((lv,), 1),), (((rv,), 1),)))

    for x in range(S.n):
        for y in range(S.n):
            for z in range(S.n):
                lv = t[a[x]][t[y][z]]
                rv = t[t[x][y]][a[z]]
                if lv != rv:
                    note("hom-semigroup-assoc", (x, y, z), lv, rv)
    for x in range(S.n):
        for y in range(S.n):
            lv = a[t[x][y]]
            rv = t[a[x]][a[y]]
            if lv != rv:
                note("hom-semigroup-mult", (x, y), lv, rv)
    return CheckReport(status, violations, cap)


def semigroup_algebra(S, field=QQ):
    """Linearize a hom-semigroup: basis elements multiply by the table."""
    n = S.n
    cube = [[[field.one if k == S.table[i][j] else field.zero
              for k in range(n)] for j in range(n)] for i in range(n)]
    alpha = LinMap.from_cols(
        field,
        [[field.one if i == S.alpha_table[j] else field.zero
          for i in range(n)] for j in range(n)], n)
    return HomAlgebra(field, cube, alpha)


def nondegenerate_via_regular(A, strong=False):
    """Sufficient nondegeneracy test via the left regular module.

    Left multiplication gives a module of A on itself (its two module laws
    are exactly eq1/eq2, so the caller should pass a valid hom-algebra).
    If h -> (a -> h a) is injective the structure is nondegenerate; with
    strong=True the slot being acted on is first passed through alpha.
    Never claims degeneracy: the inconclusive answer is UNKNOWN.
    """
    field = A.field
    n = A.dim
    cols = []
    for h in range(n):
        col = [field.zero] * (n * n)
        for a in range(n):
            if strong:
                # image of h . alpha(e_a)
                for t in range(n):
                    w = A.alpha.entry(t, a)
                    if not w:
                        continue
                    for k in range(n):
                        v = A.mul[h][t][k]
                        if v:
                            acc = col[a * n + k] + w * v
                            col[a * n + k] = (acc % field.modulus
                                              if field.modulus else acc)
            else:
                for k in range(n):
                    v = A.mul[h][a][k]
                    if v:
                        col[a * n + k] = v
        cols.append(col)
    mat = LinMap.from_cols(field, cols, n * n)
    return NONDEGENERATE if mat.rank() == n else UNKNOWN
