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

from functools import lru_cache
from itertools import chain
from typing import NamedTuple

from .exact_tensor import (
    Frozen, LinMap, QQ, identity, kron, unflatten_index,
)

# the most violations a report keeps; verdicts are decided on every input
VIOLATION_CAP = 16

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

    def counterexample(self):
        """JSON form of the basis input and both sides, axiom id left out."""
        return {"index": list(self.index),
                "lhs": [[list(ix), str(c)] for ix, c in self.lhs],
                "rhs": [[list(ix), str(c)] for ix, c in self.rhs]}


class CheckReport(Frozen):
    """Outcome of one or more identity checks.

    axiom_status maps each evaluated identity id to whether it held on
    every basis input. violations keeps the first VIOLATION_CAP of the
    given violations once they are sorted by (axiom id, basis index).
    """

    __slots__ = ("axiom_status", "violations")

    def __init__(self, axiom_status, violations):
        vs = sorted(violations, key=lambda v: (v.axiom, v.index))
        self._init(axiom_status=dict(axiom_status),
                   violations=tuple(vs[:VIOLATION_CAP]))

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
    def merge(*reports):
        status = {}
        violations = []
        for r in reports:
            for a, s in r.axiom_status.items():
                status[a] = status.get(a, True) and s
            violations.extend(r.violations)
        return CheckReport(status, violations)

    def __repr__(self):
        state = "ok" if self.ok else f"failed={self.failed_axioms}"
        return f"CheckReport({state}, {len(self.violations)} violations)"


def _sparse(col, dims):
    return tuple((unflatten_index(i, dims), v) for i, v in col)


def compare_maps(axiom, lhs, rhs, src_dims, dst_dims):
    """Columnwise comparison of two equal-shaped maps.

    Returns (held_everywhere, violations). The scan is lexicographic over
    source multi-indices. It records at most VIOLATION_CAP violations, the
    first ones met; held_everywhere is exact either way.
    """
    if lhs.field != rhs.field:
        raise ValueError(f"field mismatch comparing {axiom}")
    if (lhs.rows, lhs.cols) != (rhs.rows, rhs.cols):
        raise ValueError(f"shape mismatch comparing {axiom}")
    if lhs == rhs:
        return True, []
    violations = []
    for c, (lcol, rcol) in enumerate(zip(lhs.columns(), rhs.columns())):
        if lcol != rcol:
            violations.append(Violation(
                axiom, unflatten_index(c, src_dims),
                _sparse(lcol, dst_dims), _sparse(rcol, dst_dims)))
            if len(violations) >= VIOLATION_CAP:
                break
    return False, violations


def _run(checks):
    """The one check runner: compare each spec's two sides into a report.

    checks is an iterable of (axiom, lhs, rhs, src_dims, dst_dims); pass a
    generator to build and compare one identity at a time. An element
    identity (one tensor vector, not a map) is a one-column map compared
    with src_dims=(), which reports its violation at index ().
    """
    status = {}
    violations = []
    for axiom, lhs, rhs, src_dims, dst_dims in checks:
        ok, vs = compare_maps(axiom, lhs, rhs, src_dims, dst_dims)
        status[axiom] = ok
        violations.extend(vs)
    return CheckReport(status, violations)


def require(check, *args, what):
    """The one precondition gate: raise ValueError unless check(*args) holds.

    The message is what followed by the failed identity ids. Verdicts are
    memoized on (check, *args) alone, so callers wording what differently
    share one entry; this is sound because structures are immutable and
    hash by identity, and LinMap arguments hash by value.
    """
    failed = _failed_axioms(check, *args)
    if failed:
        raise ValueError(f"{what} {list(failed)}")


@lru_cache(maxsize=128)
def _failed_axioms(check, *args):
    return tuple(check(*args).failed_axioms)


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
    return LinMap.from_terms(field, n, n * n, (
        (k, i * n + j, v) for i in range(n) for j in range(n)
        for k, v in enumerate(mul[i][j]) if v))


def _map_cube(M):
    # inverse of mul_map (n x n^2) and of comul_map (n^2 x n): entry (r, c)
    # of M goes to flat position c * M.rows + r of the n x n x n cube
    n, rows = min(M.rows, M.cols), M.rows
    flat = [M.field.zero] * n ** 3
    for c, nz in enumerate(M.columns()):
        for r, v in nz:
            flat[c * rows + r] = v
    return [[flat[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)]
            for i in range(n)]


def comul_map(field, comul):
    """Comultiplication as a dim^2 x dim map: column k is comul(e_k)."""
    n = len(comul)
    return LinMap.from_terms(field, n * n, n, (
        (i * n + j, k, v) for k in range(n) for i in range(n)
        for j, v in enumerate(comul[k][i]) if v))


def _check_square(field, m, dim, what):
    if not isinstance(m, LinMap):
        raise ValueError(f"{what} must be a LinMap")
    if m.field != field:
        raise ValueError(f"{what} field mismatch")
    if (m.rows, m.cols) != (dim, dim):
        raise ValueError(f"{what} must be {dim}x{dim}, got {m.rows}x{m.cols}")


class HomAlgebra(Frozen):
    """(A, mul, alpha): mul cube m[i][j][k] means e_i e_j = sum_k m[i][j][k] e_k."""

    __slots__ = ("field", "dim", "mul", "alpha", "mul_linmap")

    def __init__(self, field, mul, alpha):
        cube = coerce_cube(field, mul)
        _check_square(field, alpha, len(cube), "alpha")
        self._init(field=field, dim=len(cube), mul=cube, alpha=alpha,
                   mul_linmap=mul_map(field, cube))


class HomCoalgebra(Frozen):
    """(C, comul, psi): cube d[k][i][j] means comul(e_k) = sum d[k][i][j] e_i (x) e_j."""

    __slots__ = ("field", "dim", "comul", "psi", "comul_linmap")

    def __init__(self, field, comul, psi):
        cube = coerce_cube(field, comul)
        _check_square(field, psi, len(cube), "psi")
        self._init(field=field, dim=len(cube), comul=cube, psi=psi,
                   comul_linmap=comul_map(field, cube))


class HomBialgebra(Frozen):
    """(H, mul, comul, alpha, psi); validity means check_hom_bialgebra passes.

    Holds its HomAlgebra (mul, alpha) and HomCoalgebra (comul, psi) as
    algebra and coalgebra, and their fields under the same names.
    """

    __slots__ = ("field", "dim", "mul", "comul", "alpha", "psi",
                 "mul_linmap", "comul_linmap", "algebra", "coalgebra")

    def __init__(self, field, mul, comul, alpha, psi):
        mcube = coerce_cube(field, mul)
        dcube = coerce_cube(field, comul)
        if len(mcube) != len(dcube):
            raise ValueError("mul and comul cube dimensions differ")
        alg = HomAlgebra(field, mcube, alpha)
        coalg = HomCoalgebra(field, dcube, psi)
        self._init(field=field, dim=alg.dim, mul=alg.mul, comul=coalg.comul,
                   alpha=alpha, psi=psi, mul_linmap=alg.mul_linmap,
                   comul_linmap=coalg.comul_linmap, algebra=alg,
                   coalgebra=coalg)


class HomSemigroup(Frozen):
    """Set-level twisted-associative structure on {0..n-1}.

    table[x][y] is the product and alpha_table[x] the image of x; validity
    means alpha(x)(y z) = (x y) alpha(z) for all triples, multiplicativity
    alpha(x y) = alpha(x) alpha(y) checked separately.
    """

    __slots__ = ("n", "table", "alpha_table")

    def __init__(self, n, table, alpha_table):
        table = tuple(tuple(row) for row in table)
        alpha_table = tuple(alpha_table)
        if any(type(v) is not int for v in chain(alpha_table, *table)):
            raise ValueError("table and alpha table entries must be ints")
        if len(table) != n or any(len(r) != n for r in table):
            raise ValueError("table must be n x n")
        if len(alpha_table) != n:
            raise ValueError("alpha table must have n entries")
        if any(not 0 <= v < n for r in table for v in r):
            raise ValueError("table entries out of range")
        if any(not 0 <= v < n for v in alpha_table):
            raise ValueError("alpha table entries out of range")
        self._init(n=n, table=table, alpha_table=alpha_table)


def _algebra_checks(A):
    n = A.dim
    M = A.mul_linmap
    al = A.alpha
    yield ("eq1", al.compose(M), M.compose_kron(al, al), (n, n), (n,))
    yield ("eq2", M.compose_kron(al, M), M.compose_kron(M, al),
           (n, n, n), (n,))


def check_hom_algebra(A):
    """eq1 and eq2 over all basis pairs and triples."""
    return _run(_algebra_checks(A))


def _coalgebra_checks(C):
    n = C.dim
    D = C.comul_linmap
    ps = C.psi
    yield ("eq3", ps.kron_compose(ps, D), D.compose(ps), (n,), (n, n))
    yield ("eq4", D.kron_compose(ps, D), ps.kron_compose(D, D),
           (n,), (n, n, n))


def check_hom_coalgebra(C):
    """eq3 and eq4 over all basis elements."""
    return _run(_coalgebra_checks(C))


def _contraction_coassoc(field, comul, psi):
    # eq5: both sides of twisted coassociativity assembled entry by entry
    # from the cube, bypassing the matrix kernels
    n = len(comul)
    lhs = LinMap.from_terms(field, n ** 3, n, _contract5(comul, psi, True))
    rhs = LinMap.from_terms(field, n ** 3, n, _contract5(comul, psi, False))
    return lhs, rhs


def _contract5(comul, psi, left):
    n = len(comul)
    pcols = psi.columns()
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
                            for z, pz in pcols[v]:
                                yield (x * n + y) * n + z, k, duv * dxy * pz
                else:
                    # psi on the first leg, comul again on the second
                    for x, px in pcols[u]:
                        for y in range(n):
                            for z in range(n):
                                dyz = comul[v][y][z]
                                if dyz:
                                    yield (x * n + y) * n + z, k, duv * px * dyz


def _bialgebra_extra_checks(H):
    n = H.dim
    M = H.mul_linmap
    D = H.comul_linmap
    al, ps = H.alpha, H.psi
    lhs5, rhs5 = _contraction_coassoc(H.field, H.comul, ps)
    yield ("eq5", lhs5, rhs5, (n,), (n, n, n))
    # comul(e_i) comul(e_j), multiplied in H (x) H without storing the
    # n^2 x n^4 product map of H (x) H
    yield ("eq6", D.compose(M), M.pair_compose(M, D, D, n), (n, n), (n, n))
    yield ("eq7", D.compose(al), al.kron_compose(al, D), (n,), (n, n))
    yield ("eq7111", D.compose(ps), ps.kron_compose(ps, D), (n,), (n, n))
    yield ("eq7112", ps.compose(M), M.compose_kron(ps, ps), (n, n), (n,))
    yield ("alpha-psi-commute", al.compose(ps), ps.compose(al), (n,), (n,))


def check_hom_bialgebra(H):
    """Full battery: eq1-eq7112 plus commuting twists, aggregated."""
    return _run(chain(_algebra_checks(H), _coalgebra_checks(H),
                      _bialgebra_extra_checks(H)))


def check_structure_morphism(f, src, dst, kind):
    """Is f a map of hom-algebras (kind 'algebra') or hom-coalgebras?

    algebra:   f alpha_src = alpha_dst f   and   f mul_src = mul_dst (f (x) f)
    coalgebra: f psi_src = psi_dst f       and   (f (x) f) comul_src = comul_dst f
    """
    if kind not in ("algebra", "coalgebra"):
        raise ValueError(f"kind must be 'algebra' or 'coalgebra', got {kind!r}")
    if f.cols != src.dim or f.rows != dst.dim:
        raise ValueError("morphism shape does not match structures")
    n, m = src.dim, dst.dim
    if kind == "algebra":
        checks = [
            ("morphism-twist", f.compose(src.alpha), dst.alpha.compose(f),
             (n,), (m,)),
            ("morphism-mul", f.compose(src.mul_linmap),
             dst.mul_linmap.compose_kron(f, f), (n, n), (m,)),
        ]
    else:
        checks = [
            ("morphism-twist", f.compose(src.psi), dst.psi.compose(f),
             (n,), (m,)),
            ("morphism-comul", f.kron_compose(f, src.comul_linmap),
             dst.comul_linmap.compose(f), (n,), (m, m)),
        ]
    return _run(checks)


def yau_twist_algebra(mul, alpha):
    """Twist a classical associative product into a hom-associative one.

    Preconditions are verified: alpha (the endo) must be dim x dim, mul
    associative and alpha an algebra endomorphism of it. The twisted
    product is alpha composed with mul; the result always passes
    check_hom_algebra.
    """
    field = alpha.field
    cube = coerce_cube(field, mul)
    n = len(cube)
    _check_square(field, alpha, n, "endo")
    M = mul_map(field, cube)
    idn = identity(n, field)
    assoc_ok, _ = compare_maps("assoc", M.compose_kron(M, idn),
                               M.compose_kron(idn, M), (n, n, n), (n,))
    if not assoc_ok:
        raise ValueError("not-associative: input multiplication is not associative")
    endo_ok, _ = compare_maps("endo", alpha.compose(M),
                              M.compose_kron(alpha, alpha), (n, n), (n,))
    if not endo_ok:
        raise ValueError("not-endomorphism: alpha is not an algebra endomorphism")
    return HomAlgebra(field, _map_cube(alpha.compose(M)), alpha)


def yau_twist_bialgebra(mul, comul, endo):
    """Twist a classical bialgebra: product becomes endo . mul, coproduct
    becomes comul . endo, both twist maps equal endo.

    Preconditions verified: endo must be dim x dim, the classical structure
    must satisfy all the identity-twist bialgebra laws and endo must be a
    morphism for both mul and comul.
    """
    field = endo.field
    n = len(coerce_cube(field, mul))
    _check_square(field, endo, n, "endo")
    classical = HomBialgebra(field, mul, comul, identity(n, field),
                             identity(n, field))
    require(check_hom_bialgebra, classical,
            what="not-bialgebra: classical laws fail")
    for kind in ("algebra", "coalgebra"):
        require(check_structure_morphism, endo, classical, classical, kind,
                what="not-endomorphism: endo fails")
    alg = yau_twist_algebra(mul, endo)
    twisted = _map_cube(classical.comul_linmap.compose(endo))
    return HomBialgebra(field, alg.mul, twisted, endo, endo)


def tensor_hom_algebra(A, B):
    """Componentwise product on the flattened tensor basis."""
    if A.field != B.field:
        raise ValueError("field mismatch in tensor_hom_algebra")
    idn = identity(A.dim * B.dim, A.field)
    mul = A.mul_linmap.pair_compose(B.mul_linmap, idn, idn, A.dim)
    return HomAlgebra(A.field, _map_cube(mul), kron(A.alpha, B.alpha))


def check_hom_semigroup(S):
    """Exhaustive hom law over triples, multiplicativity over pairs."""
    t, a = S.table, S.alpha_table
    status = {"hom-semigroup-assoc": True, "hom-semigroup-mult": True}
    violations = []

    def note(axiom, index, lv, rv):
        status[axiom] = False
        if len(violations) < VIOLATION_CAP:
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
    return CheckReport(status, violations)


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
    n = A.dim
    # e_a itself, or alpha(e_a) when strong
    slots = (A.alpha.columns() if strong
             else [[(a, A.field.one)] for a in range(n)])
    # column h is the map a -> h a, its image of e_a on rows flat(a, k)
    mat = LinMap.from_terms(A.field, n * n, n, (
        (a * n + k, h, w * v) for h in range(n) for a in range(n)
        for t, w in slots[a] for k, v in enumerate(A.mul[h][t]) if v))
    return NONDEGENERATE if mat.rank() == n else UNKNOWN
