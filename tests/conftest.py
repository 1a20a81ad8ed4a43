"""Shared fixture builders and freezers used across the suite.

The frozen values in _frozen.py were produced by tests/oracles.py, an
independent dict-based evaluator that never imports the library. Tests
rebuild the same structures through the public API and compare against
those entries, so agreement means two independent routes computed the
same thing.
"""

import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations

sys.path.insert(0, os.path.dirname(__file__))

from hypothesis import settings  # noqa: E402

settings.register_profile("suite", max_examples=40, deadline=None,
                          derandomize=True)
settings.load_profile("suite")

from _frozen import FROZEN  # noqa: E402,F401

from homcat.exact_tensor import QQ, LinMap, identity  # noqa: E402
from homcat.hom_structures import HomBialgebra  # noqa: E402
from homcat.qt_braiding import RMatrix  # noqa: E402
from homcat.rep_theory import (  # noqa: E402
    action_cube, coaction_cube, module_from_cube,
)
from homcat.yetter_drinfeld import yd_from_cubes  # noqa: E402


def cube(entries, shape):
    """Structure-constant cube with int entries, zero elsewhere."""
    d0, d1, d2 = shape
    c = [[[0] * d2 for _ in range(d1)] for _ in range(d0)]
    for (i, j, k), v in entries.items():
        c[i][j][k] = v
    return c


def group_mul_cube(n, k=1):
    return cube({(i, j, ((i + j) * k) % n): 1
                 for i in range(n) for j in range(n)}, (n, n, n))


def group_comul_cube(n, k=1):
    return cube({(i, (i * k) % n, (i * k) % n): 1 for i in range(n)},
                (n, n, n))


def group_alpha_map(n, k=1, field=QQ):
    rows = [[field.one if r == (i * k) % n else field.zero
             for i in range(n)] for r in range(n)]
    return LinMap.from_rows(field, rows)


def z2_bialgebra(field=QQ):
    return HomBialgebra(field, group_mul_cube(2), group_comul_cube(2),
                        identity(2, field), identity(2, field))


def sweedler_h4(field=QQ):
    """Sweedler's 4-dimensional Hopf algebra, identity twists.

    Basis (1, g, x, gx) with g^2 = 1, x^2 = 0, xg = -gx, and coproduct
    comul(g) = g (x) g, comul(x) = x (x) 1 + g (x) x (Kassel, Quantum
    Groups, GTM 155). Neither commutative nor cocommutative.
    """
    products = {(1, 1): (0, 1), (1, 2): (3, 1), (1, 3): (2, 1),
                (2, 1): (3, -1), (3, 1): (2, -1)}
    for b in range(4):
        products[0, b] = products[b, 0] = (b, 1)
    mul = cube({(a, b, k): v for (a, b), (k, v) in products.items()},
               (4, 4, 4))
    comul = cube({(0, 0, 0): 1, (1, 1, 1): 1, (2, 2, 0): 1, (2, 1, 2): 1,
                  (3, 3, 1): 1, (3, 0, 3): 1}, (4, 4, 4))
    return HomBialgebra(field, mul, comul, identity(4, field),
                        identity(4, field))


def sweedler_r(field, t, signs=(1, -1, 1, 1)):
    """R_t = (1(x)1 + 1(x)g + g(x)1 - g(x)g)/2 + (t/2) sum s_k x-part_k.

    The x-part is (x(x)x, x(x)gx, gx(x)x, gx(x)gx) weighted by signs; the
    default signs give Sweedler's R-matrix family.
    """
    coeffs = [Fraction(0)] * 16
    for (i, j), s in zip(((0, 0), (0, 1), (1, 0), (1, 1)), (1, 1, 1, -1)):
        coeffs[i * 4 + j] = Fraction(s, 2)
    for (i, j), s in zip(((2, 2), (2, 3), (3, 2), (3, 3)), signs):
        coeffs[i * 4 + j] = Fraction(s * t, 2)
    return RMatrix(field, 4, coeffs)


def _s3_mul(g, h):
    return tuple(g[i] for i in h)


def _s3_inv(g):
    return tuple(g.index(i) for i in range(3))


def _s3_sign(g):
    return (-1) ** sum(g[i] > g[j] for i in range(3) for j in range(i + 1, 3))


# S_3 as permutation tuples of (0, 1, 2), in lexicographic order; (g h)(i) =
# g(h(i)). Its three transpositions are the non-identity involutions.
S3 = tuple(permutations(range(3)))
S3_TRANSPOSITIONS = tuple(g for g in S3[1:] if _s3_mul(g, g) == S3[0])


def s3_bialgebra(field=QQ):
    """The group bialgebra kS_3, identity twists; basis S3. Not commutative."""
    idx = {g: i for i, g in enumerate(S3)}
    mul = cube({(idx[g], idx[h], idx[_s3_mul(g, h)]): 1
                for g in S3 for h in S3}, (6, 6, 6))
    comul = cube({(i, i, i): 1 for i in range(6)}, (6, 6, 6))
    return HomBialgebra(field, mul, comul, identity(6, field),
                        identity(6, field))


def s3_transposition_yd(eps, field=QQ):
    """Yetter-Drinfeld module over s3_bialgebra on the transposition class.

    Basis m_s for s in S3_TRANSPOSITIONS, coaction m_s -> s (x) m_s, action
    h.m_s = sgn(h)^eps m_(h s h^-1); eps = 1 is the signed module. The
    reversed grading of a tensor product is also Yetter-Drinfeld, so only
    a hexagon sees the factor order of yd_tensor's coaction.
    """
    g_idx = {g: i for i, g in enumerate(S3)}
    idx = {s: i for i, s in enumerate(S3_TRANSPOSITIONS)}
    act = cube({(g_idx[h], idx[s], idx[_s3_mul(_s3_mul(h, s), _s3_inv(h))]):
                _s3_sign(h) ** eps
                for h in S3 for s in S3_TRANSPOSITIONS}, (6, 3, 3))
    coact = cube({(idx[s], g_idx[s], idx[s]): 1 for s in S3_TRANSPOSITIONS},
                 (3, 6, 3))
    return yd_from_cubes(field, act, coact, identity(3, field))


def drinfeld_double_s3(field=QQ):
    """The Drinfeld double D(S_3), identity twists; dim 36.

    Basis delta_a (x) x for a, x in S3, at flat index 6 * index(a) +
    index(x). Product (delta_a (x) x)(delta_b (x) y) = [a = x b x^-1]
    delta_a (x) x y, coproduct comul(delta_g (x) x) = sum over u v = g of
    (delta_u (x) x) (x) (delta_v (x) x) (Kassel, Quantum Groups, GTM 155,
    IX.4).
    """
    idx = {g: i for i, g in enumerate(S3)}

    def at(a, x):
        return 6 * idx[a] + idx[x]

    mul = cube({(at(a, x), at(b, y), at(a, _s3_mul(x, y))): 1
                for a in S3 for x in S3 for b in S3 for y in S3
                if a == _s3_mul(_s3_mul(x, b), _s3_inv(x))}, (36, 36, 36))
    comul = cube({(at(_s3_mul(u, v), x), at(u, x), at(v, x)): 1
                  for u in S3 for v in S3 for x in S3}, (36, 36, 36))
    return HomBialgebra(field, mul, comul, identity(36, field),
                        identity(36, field))


def drinfeld_r_s3(field=QQ):
    """R = sum over g of (delta_g (x) e) (x) (1 (x) g) in D(S_3).

    Its unit is 1 = sum over a of delta_a (x) e.
    """
    idx = {g: i for i, g in enumerate(S3)}
    e = S3[0]
    coeffs = [0] * 36 ** 2
    for g in S3:
        for a in S3:
            coeffs[(6 * idx[g] + idx[e]) * 36 + 6 * idx[a] + idx[g]] = 1
    return RMatrix(field, 36, coeffs)


def drinfeld_module_s3(M):
    """A YD module over kS_3 with homogeneous basis as a D(S_3)-module.

    Basis vector m has degree deg(m), the group element of its coaction
    m -> deg(m) (x) m, and (delta_a (x) x).m is the degree-a part of x.m
    (Kassel, Quantum Groups, GTM 155, IX.4 and XIII.5). It is built from
    the action and coaction cubes alone, with the identity as structure
    map.
    """
    dim = M.dim
    coact = coaction_cube(M)
    deg = [next(j for j in range(6) if coact[m][j][m]) for m in range(dim)]
    act = action_cube(M.module)
    cube = [[[act[x][m][k] if deg[k] == a else 0 for k in range(dim)]
             for m in range(dim)] for a in range(6) for x in range(6)]
    return module_from_cube(M.field, cube, identity(dim, M.field))


# Q[x]/(x^2): e0 = 1, e1 = x; and the coalgebra with x primitive
DUAL_MUL = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
DUAL_COMUL = [[[1, 0], [0, 0]], [[0, 1], [1, 0]]]


@contextmanager
def map_sizes():
    """Entry counts of the maps built inside the block, in build order.

    Counts through LinMap._wrap, which every map outside the dense
    constructors is built by.
    """
    wrap = LinMap.__dict__["_wrap"]
    sizes = []

    def counting(cls, field, rows, cols, flat):
        sizes.append(rows * cols)
        return wrap.__func__(cls, field, rows, cols, flat)

    LinMap._wrap = classmethod(counting)
    try:
        yield sizes
    finally:
        LinMap._wrap = wrap


@contextmanager
def map_reads():
    """The stored maps scanned inside the block, one entry per scan.

    A scan is a LinMap._int_columns call that reads the map's storage:
    every read of an operand without a read table, and the first read of
    each map through one. Count one map's scans with
    sum(m is M for m in reads).
    """
    int_columns = LinMap.__dict__["_int_columns"]
    reads = []

    def counting(self, *table):
        if not (table and table[0] and id(self) in table[0]):
            reads.append(self)
        return int_columns(self, *table)

    LinMap._int_columns = counting
    try:
        yield reads
    finally:
        LinMap._int_columns = int_columns


def freeze_cube(field, c):
    return [[[str(field.coerce(v)) for v in row]
             for row in plane] for plane in c]


def freeze_matrix(m):
    return [[str(v) for v in row] for row in m.row_lists()]


def freeze_violations(violations):
    """Library violations in the oracle's frozen tuple format."""
    return [(v.axiom, v.index,
             [(ix, str(c)) for ix, c in v.lhs],
             [(ix, str(c)) for ix, c in v.rhs]) for v in violations]


def sparse_columns(m, src_dims, dst_dims):
    """Frozen swap-map format: input tuple -> sorted [(output tuple, str)]."""
    def unflat(flat, dims):
        out = []
        for d in reversed(dims):
            out.append(flat % d)
            flat //= d
        return tuple(reversed(out))

    ncols = 1
    for d in src_dims:
        ncols *= d
    cols = m.columns()
    return {unflat(col, src_dims): [(unflat(r, dst_dims), str(c))
                                    for r, c in cols[col]]
            for col in range(ncols)}
