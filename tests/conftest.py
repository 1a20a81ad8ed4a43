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
