"""Hom-associative algebras, hom-coassociative coalgebras, hom-bialgebras.

Structures are plain structure-constant containers; nothing is validated at
construction time, so invalid instances are legitimate checker inputs.
Every cube has one layout: its entries, read in order, are its map's read
column by column (cube_map, inverse map_cube), and coerce_cube is the one
shape check and coercion of a cube, for modules and the codec too. Each
defining identity has a short stable id (eq1, eq2, ...) used in reports and
documented with its formula in docs/formats.md. Checks compare the two sides
of an identity, products of maps assembled from the structure constants and
left unformed (exact_tensor.lazy), one column (= source basis vector, in
lexicographic multi-index order) at a time. _intertwining is the one spec
of the law that ybe-compat, defB and braiding-intertwine share.
_module_laws yields eq8/eq9, and eq1/eq2 as the regular module's;
_comodule_laws yields comodul1/comodul2, and eq3/eq4 as the regular
comodule's. _contract is the one scalar contraction of the independent
routes (eq5 here; eq38, eq39, eq60, remQT and eq27 in qt_braiding): each
side is an index formula over nonzero terms read from the cubes, R's
coefficients and maps' columns, never from mul_linmap or comul_linmap.

Identity vocabulary used here:
  eq1   alpha(a b) = alpha(a) alpha(b)
  eq2   alpha(a)(b c) = (a b) alpha(c)            (twisted associativity)
  eq3   (psi (x) psi) comul = comul psi
  eq4   (comul (x) psi) comul = (psi (x) comul) comul   (twisted coassociativity)
  eq5   eq4 again by contraction: kuv,uxy,zv = kuv,xu,vyz -> xyz,k
  eq6   comul(b b') = comul(b) comul(b') in the tensor-square algebra
  eq7   comul(alpha(b)) = (alpha (x) alpha)(comul(b))
  eq7111 comul(psi(b)) = (psi (x) psi)(comul(b))
  eq7112 psi(b b') = psi(b) psi(b')
  alpha-psi-commute  alpha psi = psi alpha
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, count, islice, repeat
from math import lcm, prod
from operator import is_not, itemgetter
from typing import NamedTuple

from .exact_tensor import (
    Frozen, LinMap, QQ, check_size, compare_columns, identity, kron, lazy,
    unflatten_index,
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
    """Columnwise comparison of two equal-shaped sides.

    A side is a LinMap or an unformed product (exact_tensor.lazy), never
    stored, so MAX_MAP_ENTRIES bounds only what they store or read.
    Returns (held_everywhere, violations). The scan is lexicographic over
    source multi-indices and stops at VIOLATION_CAP violations, the first
    ones met; held_everywhere is exact either way.
    """
    if lhs.field != rhs.field:
        raise ValueError(f"field mismatch comparing {axiom}")
    if (lhs.rows, lhs.cols) != (rhs.rows, rhs.cols):
        raise ValueError(f"shape mismatch comparing {axiom}")
    violations = [
        Violation(axiom, unflatten_index(c, src_dims),
                  _sparse(lcol, dst_dims), _sparse(rcol, dst_dims))
        for c, lcol, rcol in islice(compare_columns(lhs, rhs), VIOLATION_CAP)]
    return not violations, violations


def _run(checks):
    """The one check runner: compare each spec's two sides into a report.

    checks is an iterable of (axiom, lhs, rhs, src_dims, dst_dims); pass a
    generator to build and compare one identity at a time. A side is a
    LinMap or an unformed product, never stored (see compare_maps). An
    element identity (one tensor vector, not a map) is a one-column map
    compared with src_dims=(), which reports its violation at index ().
    """
    status = {}
    violations = []
    for axiom, lhs, rhs, src_dims, dst_dims in checks:
        ok, vs = compare_maps(axiom, lhs, rhs, src_dims, dst_dims)
        status[axiom] = ok
        violations.extend(vs)
    return CheckReport(status, violations)


def _intertwining(axiom, b, a_u, a_v):
    """The _run spec of (a_v (x) a_u) b = b (a_u (x) a_v) for b: U (x) V
    -> V (x) U, the law of ybe-compat, defB and braiding-intertwine."""
    du, dv = a_u.rows, a_v.rows
    return (axiom, lazy(a_v).kron_compose(a_u, b),
            lazy(b).compose_kron(a_u, a_v), (du, dv), (dv, du))


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


def coerce_rows(field):
    """row -> tuple of field.coerce's images of its entries, each distinct
    entry coerced once in the returned function's life, keyed by type and
    value (by value alone, 0.5 would pass as Fraction(1, 2)); an entry of
    the field's scalar type, whose hash costs more, is coerced where it is,
    and a row with an unhashable entry, which coerce refuses, by entry."""
    coerce, scalar = field.coerce, type(field.zero)
    memo = lru_cache(maxsize=None, typed=True)(coerce)

    def row_in(row):
        try:
            return tuple([coerce(v) if type(v) is scalar else memo(v)
                          for v in row])
        except TypeError:
            return tuple(map(coerce, row))
    return row_in


def coerce_cube(field, cube, shape=None, row_in=None):
    """cube as nested tuples of field scalars, of shape (d0, d1, d2) or dim^3
    for dim = len(cube): the one shape check of every cube, each distinct
    entry coerced once by row_in (default coerce_rows(field))."""
    d0, d1, d2 = shape or (len(cube),) * 3
    row_in, seq = row_in or coerce_rows(field), (list, tuple)
    if not isinstance(cube, seq) or len(cube) != d0:
        got = len(cube) if isinstance(cube, seq) else "?"
        raise ValueError(f"cube outer length {got} != {d0}")
    out = []
    for plane in cube:
        if not isinstance(plane, seq) or len(plane) != d1:
            raise ValueError(f"cube middle length != {d1}")
        rows = []
        for row in plane:
            if not isinstance(row, seq) or len(row) != d2:
                raise ValueError(f"cube inner length != {d2}")
            rows.append(row_in(row))
        out.append(tuple(rows))
    return tuple(out)


def cube_map(field, cube, rows):
    """The map with rows rows whose entries, read column by column, are
    cube's field scalars in order, not coerced again: flat position k is
    entry (k % rows, k // rows), one column per plane if rows is 0. Shapes:
    mul n x n^2, comul n^2 x n, action dim x hdim dim, coaction cdim dim x dim."""
    flat = [v for plane in cube for row in plane for v in row]
    nz = flat if field.char else map(is_not, flat, repeat(field.zero))
    return LinMap.from_terms(field, rows, len(flat) // rows if rows else len(cube), (
        (k % rows, k // rows, flat[k]) for k in compress(count(), nz)))


def map_cube(M, d1, d2):
    """Inverse of cube_map: M's entries, read column after column, as
    nested lists d0 x d1 x d2."""
    rows, flat = M.rows, [M.field.zero] * (M.rows * M.cols)
    for c, nz in enumerate(M.columns()):
        for r, v in nz:
            flat[c * rows + r] = v
    d0 = len(flat) // (d1 * d2) if d1 * d2 else M.cols
    return [[flat[(a * d1 + b) * d2:(a * d1 + b + 1) * d2] for b in range(d1)]
            for a in range(d0)]


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
        self._set(field, coerce_cube(field, mul), alpha)

    def _set(self, field, cube, alpha):
        # trusts cube; object.__new__(cls)._set(...) skips coerce_cube
        _check_square(field, alpha, len(cube), "alpha")
        self._init(field=field, dim=len(cube), mul=cube, alpha=alpha,
                   mul_linmap=cube_map(field, cube, len(cube)))
        return self


class HomCoalgebra(Frozen):
    """(C, comul, psi): cube d[k][i][j] means comul(e_k) = sum d[k][i][j] e_i (x) e_j."""

    __slots__ = ("field", "dim", "comul", "psi", "comul_linmap")

    def __init__(self, field, comul, psi):
        self._set(field, coerce_cube(field, comul), psi)

    def _set(self, field, cube, psi):
        _check_square(field, psi, len(cube), "psi")
        self._init(field=field, dim=len(cube), comul=cube, psi=psi,
                   comul_linmap=cube_map(field, cube, len(cube) ** 2))
        return self


class HomBialgebra(Frozen):
    """(H, mul, comul, alpha, psi); validity means check_hom_bialgebra passes.

    Holds its HomAlgebra (mul, alpha) and HomCoalgebra (comul, psi) as
    algebra and coalgebra, and their fields under the same names.
    """

    __slots__ = ("field", "dim", "mul", "comul", "alpha", "psi",
                 "mul_linmap", "comul_linmap", "algebra", "coalgebra")

    def __init__(self, field, mul, comul, alpha, psi):
        self._set(field, coerce_cube(field, mul), coerce_cube(field, comul),
                  alpha, psi)

    def _set(self, field, mcube, dcube, alpha, psi):
        if len(mcube) != len(dcube):
            raise ValueError("mul and comul cube dimensions differ")
        alg = object.__new__(HomAlgebra)._set(field, mcube, alpha)
        coalg = object.__new__(HomCoalgebra)._set(field, dcube, psi)
        self._init(field=field, dim=alg.dim, mul=alg.mul, comul=coalg.comul,
                   alpha=alpha, psi=psi, mul_linmap=alg.mul_linmap,
                   comul_linmap=coalg.comul_linmap, algebra=alg,
                   coalgebra=coalg)
        return self


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


def _module_laws(A, act, alpha, axioms=("eq8", "eq9")):
    """The _run specs of eq8 and eq9 (named axioms) for the action act:
    A (x) M -> M with alpha on M; act = mul, alpha = A.alpha gives eq1/eq2."""
    n, d, al = A.dim, alpha.rows, A.alpha
    yield (axioms[0], lazy(alpha).compose(act),
           lazy(act).compose_kron(al, alpha), (n, d), (d,))
    yield (axioms[1], lazy(act).compose_kron(al, act),
           lazy(act).compose_kron(A.mul_linmap, alpha), (n, n, d), (d,))


def _comodule_laws(C, co, psi, axioms=("comodul1", "comodul2")):
    """The _run specs of comodul1/comodul2 (named axioms) for the coaction
    co: M -> C (x) M with psi on M; co = comul, psi = C.psi gives eq3/eq4."""
    n, d, ps = C.dim, psi.rows, C.psi
    yield (axioms[0], lazy(ps).kron_compose(psi, co), lazy(co).compose(psi),
           (d,), (n, d))
    yield (axioms[1], lazy(C.comul_linmap).kron_compose(psi, co),
           lazy(ps).kron_compose(co, co), (d,), (n, n, d))


def check_hom_algebra(A):
    """eq1 and eq2 over all basis pairs and triples."""
    return _run(_module_laws(A, A.mul_linmap, A.alpha, ("eq1", "eq2")))


def check_hom_coalgebra(C):
    """eq3 and eq4 over all basis elements."""
    return _run(_comodule_laws(C, C.comul_linmap, C.psi, ("eq3", "eq4")))


def _contract(field, out, dims, *factors):
    """The map of an index formula, out = "rows,cols": each entry sums the
    product of the factors' values over every binding of their letters.
    Rows and columns flatten their letters left to right, each letter l
    ranging over range(dims[l]).

    A factor is (letters, terms), terms the (index tuple, value) list of
    its nonzeros, no letter twice; factors are joined in the order written,
    each looked up on the letters bound before it. Over Q each factor is
    scaled to integers over the lcm of its denominators, so one rational
    is formed per output entry, as lazy products do.
    """
    rows, cols = out.split(",")
    shape = [prod(dims[l] for l in ls) for ls in (rows, cols)]
    check_size(*shape, "from_terms")
    out = rows + cols
    stride = {l: prod(dims[m] for m in out[i + 1:]) for i, l in enumerate(out)}
    # a partial binding: its values, its output position so far, its product
    bound, den, partials = "", 1, [((), 0, 1)]
    for letters, terms in factors:
        if not field.char:
            d = lcm(*{v.denominator for _, v in terms})
            terms = [(ix, v.numerator * (d // v.denominator)) for ix, v in terms]
            den *= d
        key = [l for l in letters if l in bound]
        weights = [0 if l in bound else stride.get(l, 0) for l in letters]
        index, at = {}, _picker([letters.index(l) for l in key])
        for ix, v in terms:
            index.setdefault(at(ix), []).append(
                (ix, sum(i * w for i, w in zip(ix, weights)), v))
        partials = _join(partials, _picker([bound.index(l) for l in key]), index)
        bound += letters
    sums = {}
    for _, k, c in partials:
        sums[k] = sums.get(k, 0) + c
    return LinMap.from_terms(field, *shape, (
        (*divmod(k, shape[1]), s if field.char else Fraction(s, den))
        for k, s in sums.items() if s))


def _join(partials, at, index):
    # each partial binding extended by every term that agrees with it
    for b, k, c in partials:
        for ix, q, v in index.get(at(b), ()):
            yield b + ix, k + q, c * v


def _picker(positions):
    # seq -> its entries at positions, as itemgetter gives them, or ()
    return itemgetter(*positions) if positions else lambda seq: ()


def _cube_terms(field, cube):
    # an n^3 cube's nonzeros as ((a, b, c), value): a _contract factor
    n = len(cube)
    flat = [v for plane in cube for row in plane for v in row]
    nz = flat if field.char else map(is_not, flat, repeat(field.zero))
    return [((k // (n * n), k // n % n, k % n), flat[k])
            for k in compress(count(), nz)]


def _map_terms(M):
    # M's nonzeros as ((row, col), value): a _contract factor
    return [((r, c), v) for c, col in enumerate(M.columns()) for r, v in col]


def _contraction_coassoc(field, comul, psi):
    # eq5, eq4 bypassing the map algebra: (comul (x) psi) comul and
    # (psi (x) comul) comul as contractions of the cube and psi's entries
    d, p, dims = _cube_terms(field, comul), _map_terms(psi), dict.fromkeys(
        "xyzk", len(comul))
    return (_contract(field, "xyz,k", dims, ("kuv", d), ("uxy", d), ("zv", p)),
            _contract(field, "xyz,k", dims, ("kuv", d), ("xu", p), ("vyz", d)))


def _bialgebra_extra_checks(H):
    n, M, D = H.dim, H.mul_linmap, H.comul_linmap
    al, ps = H.alpha, H.psi
    yield ("eq5", *_contraction_coassoc(H.field, H.comul, ps), (n,), (n, n, n))
    # comul(e_i) comul(e_j), multiplied in H (x) H without storing the
    # n^2 x n^4 product map of H (x) H
    yield ("eq6", lazy(D).compose(M), lazy(M).pair_compose(M, D, D, n),
           (n, n), (n, n))
    yield ("eq7", lazy(D).compose(al), lazy(al).kron_compose(al, D), (n,), (n, n))
    yield ("eq7111", lazy(D).compose(ps), lazy(ps).kron_compose(ps, D), (n,), (n, n))
    yield ("eq7112", lazy(ps).compose(M), lazy(M).compose_kron(ps, ps), (n, n), (n,))
    yield ("alpha-psi-commute", lazy(al).compose(ps), lazy(ps).compose(al), (n,), (n,))


def check_hom_bialgebra(H):
    """Full battery: eq1-eq7112 plus commuting twists, aggregated."""
    return _run(chain(
        _module_laws(H, H.mul_linmap, H.alpha, ("eq1", "eq2")),
        _comodule_laws(H, H.comul_linmap, H.psi, ("eq3", "eq4")),
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
            ("morphism-twist", lazy(f).compose(src.alpha),
             lazy(dst.alpha).compose(f), (n,), (m,)),
            ("morphism-mul", lazy(f).compose(src.mul_linmap),
             lazy(dst.mul_linmap).compose_kron(f, f), (n, n), (m,)),
        ]
    else:
        checks = [
            ("morphism-twist", lazy(f).compose(src.psi),
             lazy(dst.psi).compose(f), (n,), (m,)),
            ("morphism-comul", lazy(f).kron_compose(f, src.comul_linmap),
             lazy(dst.comul_linmap).compose(f), (n,), (m, m)),
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
    A = object.__new__(HomAlgebra)._set(field, cube, identity(n, field))
    if not check_hom_algebra(A).ok:
        raise ValueError("not-associative: input multiplication is not associative")
    if not check_structure_morphism(alpha, A, A, "algebra").ok:
        raise ValueError("not-endomorphism: alpha is not an algebra endomorphism")
    return HomAlgebra(field, map_cube(alpha.compose(A.mul_linmap), n, n), alpha)


def yau_twist_bialgebra(mul, comul, endo):
    """Twist a classical bialgebra: product becomes endo . mul, coproduct
    becomes comul . endo, both twist maps equal endo.

    Preconditions verified: endo must be dim x dim, the classical structure
    must satisfy all the identity-twist bialgebra laws and endo must be a
    morphism for both mul and comul.
    """
    field = endo.field
    mcube = coerce_cube(field, mul)
    n = len(mcube)
    _check_square(field, endo, n, "endo")
    classical = object.__new__(HomBialgebra)._set(
        field, mcube, coerce_cube(field, comul), identity(n, field),
        identity(n, field))
    require(check_hom_bialgebra, classical,
            what="not-bialgebra: classical laws fail")
    for kind in ("algebra", "coalgebra"):
        require(check_structure_morphism, endo, classical, classical, kind,
                what="not-endomorphism: endo fails")
    return HomBialgebra(field,
                        map_cube(endo.compose(classical.mul_linmap), n, n),
                        map_cube(classical.comul_linmap.compose(endo), n, n),
                        endo, endo)


def tensor_hom_algebra(A, B):
    """Componentwise product on the flattened tensor basis."""
    if A.field != B.field:
        raise ValueError("field mismatch in tensor_hom_algebra")
    idn = identity(A.dim * B.dim, A.field)
    mul = A.mul_linmap.pair_compose(B.mul_linmap, idn, idn, A.dim)
    return HomAlgebra(A.field, map_cube(mul, mul.rows, mul.rows),
                      kron(A.alpha, B.alpha))


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
    alpha = LinMap.from_terms(field, n, n, (
        (S.alpha_table[j], j, field.one) for j in range(n)))
    return HomAlgebra(field, cube, alpha)


def nondegenerate_via_regular(A, strong=False):
    """Sufficient nondegeneracy test via the left regular module.

    Left multiplication gives a module of A on itself (its two module laws
    are exactly eq1/eq2, so the caller should pass a valid hom-algebra).
    If h -> (a -> h a) is injective the structure is nondegenerate; with
    strong=True the slot being acted on is first passed through alpha.
    Never claims degeneracy: the inconclusive answer is UNKNOWN.
    """
    n, mul = A.dim, A.mul_linmap
    if strong:  # the product after id (x) alpha
        mul = mul.compose_kron(identity(n, A.field), A.alpha)
    # column h is the map a -> h a, its image of e_a on rows flat(a, k)
    mat = cube_map(A.field, map_cube(mul, n, n), n * n)
    return NONDEGENERATE if mat.rank() == n else UNKNOWN
