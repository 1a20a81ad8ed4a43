"""Field, LinMap and tensor-shuffle units, plus kernel backend agreement."""

import tracemalloc
from collections import Counter
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, strategies as st

from conftest import FROZEN, freeze_matrix

from homcat import _kernels_py
from homcat.exact_tensor import (
    GF, KERNEL_BACKEND, MAX_MAP_ENTRIES, QQ, LinMap, compose, compose_all,
    diag, flatten_index, flip_map, identity, kron, kron_all, permute_tensor,
    unflatten_index, zero_map,
)
from homcat.hom_structures import (
    CheckReport, HomAlgebra, HomBialgebra, HomCoalgebra, HomSemigroup,
)
from homcat.qt_braiding import RMatrix
from homcat.rep_theory import HComodule, HModule
from homcat.yetter_drinfeld import YDModule


# ---------------------------------------------------------------- fields

def test_rational_coercion_normalizes():
    assert str(QQ.coerce("2/4")) == "1/2"
    assert str(QQ.coerce(-3)) == "-3"
    assert str(QQ.coerce(Fraction(6, -4))) == "-3/2"
    assert QQ.coerce("0/5") == QQ.zero


def test_floats_rejected():
    with pytest.raises(ValueError):
        QQ.coerce(0.5)
    with pytest.raises(ValueError):
        GF(5).coerce(2.0)


def test_prime_field_coercion():
    F = GF(5)
    assert F.coerce(7) == 2
    assert F.coerce(-1) == 4
    # 1/2 = 3 mod 5
    assert F.coerce("1/2") == 3
    with pytest.raises(ValueError):
        F.coerce("1/5")


def test_composite_characteristic_rejected():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)
    # Field(0) is QQ, but GF(0) is no field
    with pytest.raises(ValueError, match="needs a prime"):
        GF(0)


def test_field_identity_and_equality():
    assert GF(7) is GF(7)
    assert GF(7) != GF(5) and GF(7) != QQ
    assert QQ.modulus is None and GF(7).modulus == 7


def test_scalar_inverse_and_negation():
    assert QQ.inv(QQ.coerce("2/3")) == QQ.coerce("3/2")
    assert GF(7).inv(3) == 5
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)
    assert GF(7).neg(2) == 5


# ------------------------------------------------------- index flattening

@given(st.lists(st.integers(1, 5), min_size=1, max_size=4), st.data())
def test_flatten_roundtrip(dims, data):
    idx = tuple(data.draw(st.integers(0, d - 1)) for d in dims)
    flat = 0
    for d, i in zip(dims, idx):
        flat = flat * d + i
    assert unflatten_index(flat, tuple(dims)) == idx


def test_flatten_index_pairs():
    assert flatten_index(2, 1, 3) == 7
    assert unflatten_index(7, (4, 3)) == (2, 1)


# ------------------------------------------------------------ LinMap core

def test_linmap_construction_and_access():
    m = LinMap(QQ, 2, 3, [1, 2, 3, "1/2", 0, -1])
    assert (m.rows, m.cols) == (2, 3)
    assert str(m.entry(1, 0)) == "1/2"
    assert [(i, str(v)) for i, v in m.columns()[2]] == [(0, "3"), (1, "-1")]
    assert freeze_matrix(m) == [["1", "2", "3"], ["1/2", "0", "-1"]]


def test_linmap_entry_count_validated():
    with pytest.raises(ValueError):
        LinMap(QQ, 2, 2, [1, 2, 3])


def test_linmap_immutable_and_hashable():
    m = identity(2)
    with pytest.raises(AttributeError):
        m.rows = 3
    assert m == identity(2, QQ)
    assert hash(m) == hash(identity(2))
    assert m != identity(3)


IMMUTABLE = {
    "Field": lambda: QQ,
    "LinMap": lambda: identity(2),
    "CheckReport": lambda: CheckReport({"eq1": True}, ()),
    "HomAlgebra": lambda: HomAlgebra(QQ, [[[0]]], identity(1)),
    "HomCoalgebra": lambda: HomCoalgebra(QQ, [[[0]]], identity(1)),
    "HomBialgebra": lambda: HomBialgebra(QQ, [[[0]]], [[[0]]], identity(1),
                                         identity(1)),
    "HomSemigroup": lambda: HomSemigroup(1, [[0]], [0]),
    "HModule": lambda: HModule(QQ, zero_map(1, 1), identity(1)),
    "HComodule": lambda: HComodule(QQ, zero_map(1, 1), identity(1)),
    "YDModule": lambda: YDModule(QQ, zero_map(1, 1), zero_map(1, 1),
                                 identity(1)),
    "RMatrix": lambda: RMatrix(QQ, 1, [0]),
}


@pytest.mark.parametrize("name", sorted(IMMUTABLE))
def test_value_classes_refuse_setattr_and_delattr(name):
    obj = IMMUTABLE[name]()
    assert type(obj).__name__ == name
    assert not hasattr(obj, "__dict__")
    field = type(obj).__slots__[0]
    before = getattr(obj, field)
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        setattr(obj, field, None)
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        delattr(obj, field)
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        obj.extra = 1
    assert getattr(obj, field) is before


def test_oversized_products_refused_before_allocation():
    # both outputs have 2**28 entries; the inputs are tiny
    row = zero_map(1, 2 ** 14)
    assert 2 ** 28 > MAX_MAP_ENTRIES
    with pytest.raises(ValueError, match="kron output 1x268435456 exceeds"):
        row.kron(row)
    with pytest.raises(ValueError, match="compose output 16384x16384 exceeds"):
        zero_map(2 ** 14, 1).compose(zero_map(1, 2 ** 14))
    # the largest map of the n=10 bialgebra check is admitted
    assert 10 ** 8 <= MAX_MAP_ENTRIES


@pytest.mark.parametrize("build", [
    lambda: identity(2 ** 14),
    lambda: zero_map(2 ** 14, 2 ** 14),
    lambda: diag([1] * 2 ** 14),
    lambda: permute_tensor((2 ** 7,) * 4, (1, 0, 2, 3)),
    lambda: LinMap.from_terms(QQ, 2 ** 14, 2 ** 14, ()),
], ids=["identity", "zero_map", "diag", "permute_tensor", "from_terms"])
def test_oversized_constructors_refused_before_allocation(build):
    # each request is 2**28 entries; refusing it must allocate next to nothing
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds the cap"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@given(st.sampled_from([QQ, GF(5)]), st.integers(0, 3), st.integers(0, 3),
       st.data())
def test_from_terms_sums_terms_like_the_dense_constructor(field, rows, cols,
                                                           data):
    # few positions and many terms, so positions repeat; over GF(5) the
    # values are raw ints, reduced only once each sum is complete
    value = (st.integers(-12, 12) if field.char
             else st.fractions(-3, 3, max_denominator=4))
    terms = data.draw(st.lists(st.tuples(st.integers(0, max(rows - 1, 0)),
                                         st.integers(0, max(cols - 1, 0)),
                                         value),
                               max_size=12 if rows * cols else 0))
    if field.char == 0:
        terms = [(i, j, field.coerce(v)) for i, j, v in terms]
    sums = [0] * (rows * cols)
    for i, j, v in terms:
        sums[i * cols + j] += v
    assert (LinMap.from_terms(field, rows, cols, terms)
            == LinMap(field, rows, cols, sums))


@given(st.sampled_from([QQ, GF(5)]), st.integers(1, 4), st.integers(1, 4),
       st.data())
def test_columns_lists_the_nonzero_entries(field, rows, cols, data):
    entries = data.draw(st.lists(st.integers(-2, 2), min_size=rows * cols,
                                 max_size=rows * cols))
    m = LinMap(field, rows, cols, entries)
    assert m.columns() == [[(i, m.entry(i, j)) for i in range(rows)
                            if m.entry(i, j)] for j in range(cols)]


def test_from_terms_refuses_a_position_outside_the_map():
    for i, j in ((2, 0), (0, 3), (-1, 0)):
        with pytest.raises(IndexError, match="outside a 2x3 map"):
            LinMap.from_terms(QQ, 2, 3, [(i, j, QQ.one)])


@pytest.mark.parametrize("build", [
    lambda: zero_map(-1, 3),
    lambda: zero_map(3, -1),
    lambda: identity(-2),
    lambda: LinMap.from_terms(QQ, 2, -1, ()),
    lambda: LinMap.from_terms(GF(5), -1, 2, [(0, 0, 1)]),
], ids=["zero_map-rows", "zero_map-cols", "identity", "from_terms-q",
        "from_terms-gf5"])
def test_negative_dimensions_refused(build):
    with pytest.raises(ValueError, match="^negative dimensions$"):
        build()


def _has_field_type(field, v):
    # a Fraction over Q, a canonical int in [0, p) over F_p
    if field.char:
        return type(v) is int and 0 <= v < field.char
    return type(v) is Fraction


@given(st.sampled_from([QQ, GF(5)]), st.integers(1, 4), st.integers(1, 4),
       st.data())
def test_add_sub_scale_match_dense_arithmetic(field, rows, cols, data):
    # mostly zeros, so every zero-skipping branch is taken
    value = st.one_of(st.just(0), st.just(0), st.just(0),
                      st.fractions(-3, 3, max_denominator=4))
    scalar = st.one_of(st.integers(-3, 3),
                       st.sampled_from(["1/2", "0", "-2/3"]))

    def draw_rows():
        return [[field.coerce(data.draw(value)) for _ in range(cols)]
                for _ in range(rows)]

    ra, rb = draw_rows(), draw_rows()
    c = data.draw(scalar)
    a, b = LinMap.from_rows(field, ra), LinMap.from_rows(field, rb)
    cf = field.coerce(c)
    results = {
        "add": (a.add(b), [[x + y for x, y in zip(r, q)]
                           for r, q in zip(ra, rb)]),
        "sub": (a.sub(b), [[x - y for x, y in zip(r, q)]
                           for r, q in zip(ra, rb)]),
        "scale": (a.scale(c), [[cf * x for x in r] for r in ra]),
        "scale0": (a.scale(0), [[0] * cols for _ in range(rows)]),
        "cancel": (a.add(a.scale(-1)), [[0] * cols for _ in range(rows)]),
    }
    for name, (got, want) in results.items():
        assert got == LinMap.from_rows(field, want), name
        assert all(_has_field_type(field, v)
                   for r in got.row_lists() for v in r), name
    assert a.add(a.scale(-1)).is_zero() and a.sub(a).is_zero()
    assert a.scale("1/2").scale(2) == a


def test_from_rows_and_from_cols_agree():
    rows = [[1, 2], [3, 4], [5, 6]]
    a = LinMap.from_rows(QQ, rows)
    b = LinMap.from_cols(QQ, [[1, 3, 5], [2, 4, 6]], 3)
    assert a == b


def test_compose_shapes_checked():
    with pytest.raises(ValueError):
        identity(2).compose(identity(3))
    assert compose(identity(2), identity(2)) == identity(2)


def _naive_compose(a, b):
    # the textbook row-times-column product, one scalar operation at a time
    f = a.field
    return LinMap(f, a.rows, b.cols, [
        sum((a.entry(i, t) * b.entry(t, j) for t in range(a.cols)), f.zero)
        for i in range(a.rows) for j in range(b.cols)])


@st.composite
def _compose_operands(draw):
    # (field, a, b) for a . b, each operand over its own prime denominator
    # (see _draw_sparse_map), with empty sides among the shapes
    field = draw(st.sampled_from([QQ, GF(5)]))
    n, m, k = (draw(st.sampled_from((1, 2, 3, 0))) for _ in range(3))
    top_a, top_b = draw(st.permutations(DENOMINATORS))[:2]
    return (field, _draw_sparse_map(draw, field, n, m, top_a),
            _draw_sparse_map(draw, field, m, k, top_b))


@given(_compose_operands())
# denominators 2 and 3 meet at the one output entry, 1/2 + 1/3 = 5/6, so
# an output over a wrong common denominator fails
@example((QQ, LinMap.from_rows(QQ, [["1/2", 1]]),
          LinMap.from_rows(QQ, [[1], ["1/3"]])))
def test_compose_matches_naive(operands):
    field, a, b = operands
    _assert_same_scalars(field, a.compose(b), _naive_compose(a, b),
                         "compose")


# ----------------------------------------------------------------- kron

def test_kron_of_swaps_matches_frozen():
    swap = LinMap.from_rows(QQ, [[0, 1], [1, 0]])
    assert freeze_matrix(kron(swap, swap)) == FROZEN["kron_swap_swap"]


def test_kron_entry_formula():
    a = LinMap.from_rows(QQ, [[1, 2], [3, 4]])
    b = LinMap.from_rows(QQ, [[5, 6], [7, 8]])
    k = kron(a, b)
    for i in range(2):
        for j in range(2):
            for s in range(2):
                for t in range(2):
                    assert (k.entry(i * 2 + s, j * 2 + t)
                            == a.entry(i, j) * b.entry(s, t))


@given(st.data())
def test_kron_mixed_product(data):
    # kron(a, b) . kron(c, d) = kron(a . c, b . d)
    ents = st.integers(-3, 3)

    def draw_map(r, c):
        return LinMap(QQ, r, c, [data.draw(ents) for _ in range(r * c)])

    a1, a2, a3 = (data.draw(st.integers(1, 2)) for _ in range(3))
    b1, b2, b3 = (data.draw(st.integers(1, 2)) for _ in range(3))
    a, c = draw_map(a1, a2), draw_map(a2, a3)
    b, d = draw_map(b1, b2), draw_map(b2, b3)
    assert kron(a, b).compose(kron(c, d)) == kron(a.compose(c), b.compose(d))


# each operand of a drawn fused product gets its own prime denominator,
# none of them 5, so in most draws the operands' common denominators are
# distinct and above 1, and an output over the wrong one shows
DENOMINATORS = (2, 3, 7, 11)


def _draw_sparse_map(draw, field, rows, cols, top):
    # zero in about half the entries, so whole columns and products are
    # skipped; small values k/top, so entries cancel to computed zeros and
    # sums need reducing; the simplest draw, every entry 1/top, still has
    # the operand's own denominator
    value = st.sampled_from([Fraction(k, top)
                             for k in (1, -1, 2, top, 0, 0, 0, 0)])
    return LinMap(field, rows, cols,
                  [field.coerce(draw(value)) for _ in range(rows * cols)])


@st.composite
def _fused_operands(draw):
    # (field, b, c, after, before) for after . (b (x) c) and
    # (b (x) c) . before, with empty sides among the shapes
    field = draw(st.sampled_from([QQ, GF(5)]))
    # empty sides are drawn, but the simplest side is 1
    side = st.sampled_from((1, 2, 3, 0))
    tops = iter(draw(st.permutations(DENOMINATORS)))

    def draw_map(rows, cols):
        return _draw_sparse_map(draw, field, rows, cols, next(tops))

    br, bc, cr, cc, n = (draw(side) for _ in range(5))
    b, c = draw_map(br, bc), draw_map(cr, cc)
    return field, b, c, draw_map(n, br * cr), draw_map(bc * cc, n)


def _assert_same_scalars(field, fused, unfused, name):
    # equal maps, each entry of the field's scalar type and printed alike
    assert fused == unfused, name
    got, want = fused.row_lists(), unfused.row_lists()
    assert all(_has_field_type(field, v) for r in got for v in r), name
    # reports print scalars with str
    assert ([[str(v) for v in r] for r in got]
            == [[str(v) for v in r] for r in want]), name


@given(_fused_operands())
# drawn cases seldom have b and c with different denominators above 1
# meeting at a nonzero output: here 2 and 3 meet at every output entry,
# and each output is nonzero, so an output over the wrong denominator fails
@example((QQ, LinMap.from_rows(QQ, [["1/2", "3/2"]]),
          LinMap.from_rows(QQ, [["1/3"], ["-2/3"]]),
          LinMap.from_rows(QQ, [[1, 1], [1, 2]]),
          LinMap.from_rows(QQ, [[1, 1], [1, 2]])))
def test_fused_kron_kernels_match_the_unfused_pair(operands):
    field, b, c, after, before = operands
    pairs = {"compose_kron": (after.compose_kron(b, c),
                              after.compose(kron(b, c))),
             "kron_compose": (b.kron_compose(c, before),
                              kron(b, c).compose(before))}
    for name, (fused, unfused) in pairs.items():
        _assert_same_scalars(field, fused, unfused, name)


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_fused_kron_kernels_keep_computed_cancellations(field):
    # 1*1 + 1*(-1): each output entry is a sum that cancels to zero
    ones = LinMap.from_rows(field, [[1, 1]])
    signs = LinMap.from_rows(field, [[1], [-1]])
    one = identity(1, field)
    for fused in (ones.compose_kron(one, signs),
                  one.kron_compose(ones, signs)):
        assert fused == zero_map(1, 1, field)
        assert _has_field_type(field, fused.entry(0, 0))


def test_fused_kron_kernels_reduce_a_sum_over_two_denominators():
    # 1/2 * 1 + 1/2 * 1/3 = 2/3: b's denominator 2 and c's 3 meet in 4/6
    b = LinMap.from_rows(QQ, [["1/2"]])
    c_col = LinMap.from_rows(QQ, [[1], ["1/3"]])
    c_row = LinMap.from_rows(QQ, [[1, "1/3"]])
    for fused in (LinMap.from_rows(QQ, [[1, 1]]).compose_kron(b, c_col),
                  b.kron_compose(c_row, LinMap.from_rows(QQ, [[1], [1]]))):
        assert (fused.rows, fused.cols) == (1, 1)
        assert str(fused.entry(0, 0)) == "2/3"
        assert _has_field_type(QQ, fused.entry(0, 0))


def test_fused_kron_kernels_multiply_and_add_no_fractions(monkeypatch):
    # dense operands, no entry an integer: every product and sum of the
    # fused kernels and of compose is on integer numerators
    def dense(rows, cols, shift):
        return LinMap(QQ, rows, cols, [Fraction(k + shift, k + shift + 1)
                                       for k in range(rows * cols)])

    b, c = dense(2, 3, 1), dense(3, 2, 2)
    after, before = dense(4, 6, 3), dense(6, 5, 4)
    want = (after.compose(kron(b, c)), kron(b, c).compose(before),
            _naive_compose(after, before))
    counts = Counter()
    for name in ("__mul__", "__add__"):
        def counting(x, y, real=getattr(Fraction, name), name=name):
            counts[name] += 1
            return real(x, y)
        monkeypatch.setattr(Fraction, name, counting)
    got = (after.compose_kron(b, c), b.kron_compose(c, before),
           after.compose(before))
    monkeypatch.undo()
    assert counts["__mul__"] == 0
    assert counts["__add__"] == 0
    assert got == want


def _fused_and_unfused_refusals():
    q, f = identity(2), identity(2, GF(5))
    row = zero_map(1, 2 ** 14)
    col = zero_map(2 ** 14, 1)
    one = zero_map(1, 1)
    return {
        "kron field": (lambda: q.compose_kron(q, f),
                       lambda: q.compose(kron(q, f)),
                       lambda: q.kron_compose(f, q),
                       lambda: kron(q, f).compose(q)),
        "compose field": (lambda: identity(4, GF(5)).compose_kron(q, q),
                          lambda: identity(4, GF(5)).compose(kron(q, q)),
                          lambda: q.kron_compose(q, identity(4, GF(5))),
                          lambda: kron(q, q).compose(identity(4, GF(5)))),
        "dimension": (lambda: identity(3).compose_kron(q, q),
                      lambda: identity(3).compose(kron(q, q)),
                      lambda: q.kron_compose(q, identity(3)),
                      lambda: kron(q, q).compose(identity(3))),
        "kron cap": (lambda: one.compose_kron(row, row),
                     lambda: one.compose(kron(row, row)),
                     lambda: row.kron_compose(row, one),
                     lambda: kron(row, row).compose(one)),
        "compose cap": (lambda: col.compose_kron(one, row),
                        lambda: col.compose(kron(one, row)),
                        lambda: col.kron_compose(one, row),
                        lambda: kron(col, one).compose(row)),
    }


@pytest.mark.parametrize("case", sorted(_fused_and_unfused_refusals()))
def test_fused_kron_kernels_refuse_as_the_unfused_pair(case):
    fused_ck, unfused_ck, fused_kc, unfused_kc = \
        _fused_and_unfused_refusals()[case]
    for fused, unfused in ((fused_ck, unfused_ck), (fused_kc, unfused_kc)):
        with pytest.raises(ValueError) as want:
            unfused()
        with pytest.raises(ValueError) as got:
            fused()
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


def test_fused_kron_kernels_refuse_an_oversized_product_before_allocating():
    # b (x) c would be 1 x 2**28; the fused kernels never store it, but
    # refuse it exactly as kron does, before allocating anything
    row = zero_map(1, 2 ** 14)
    one = zero_map(1, 1)
    for fused in (lambda: one.compose_kron(row, row),
                  lambda: row.kron_compose(row, one)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=(
                    "^kron output 1x268435456 exceeds the cap")):
                fused()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


# ------------------------------------- a tensor-square element factorwise

def _pair_unfused(f, g, b, c, p):
    # f (x) g after the swap of its two middle factors, after b (x) c
    p2 = b.rows // p
    dims = (p, p2, f.cols // p, g.cols // p2)
    return kron(f, g).permute_cols(dims, (0, 2, 1, 3)).compose(kron(b, c))


def _z2_mul(field=QQ):
    # the group algebra of Z_2: e_i e_j = e_(i+j mod 2)
    return LinMap.from_terms(field, 2, 4, (((i + j) % 2, i * 2 + j, field.one)
                                           for i in range(2) for j in range(2)))


@st.composite
def _pair_operands(draw):
    # (field, f, g, b, c, p): f on P (x) Q, g on P2 (x) Q2, b into
    # P (x) P2 and c into Q (x) Q2, each factor dim and each row count of
    # f and g in 1-3, so p and q differ in most draws
    field = draw(st.sampled_from([QQ, GF(5)]))
    p, p2, q, q2, fr, gr = (draw(st.integers(1, 3)) for _ in range(6))
    tops = iter(draw(st.permutations(DENOMINATORS)))

    def draw_map(rows, cols):
        return _draw_sparse_map(draw, field, rows, cols, next(tops))

    f, g = draw_map(fr, p * q), draw_map(gr, p2 * q2)
    ncols = st.sampled_from((1, 2, 3, 0))
    b = draw_map(p * p2, draw(ncols))
    c = draw_map(q * q2, draw(ncols))
    return field, f, g, b, c, p


@given(_pair_operands())
# f's denominator 2, g's 3, b's 5 and c's 7 meet in every product, and
# each output (7/30, 1/30, 3/10, 3/70) is nonzero, so one over the wrong
# denominator fails
@example((QQ, LinMap.from_rows(QQ, [["1/2", "3/2"], ["-1/2", "5/2"]]),
          LinMap.from_rows(QQ, [["1/3", "2/3"], ["4/3", "-1/3"]]),
          LinMap.from_rows(QQ, [["1/5"], ["2/5"]]),
          LinMap.from_rows(QQ, [["1/7"], ["3/7"]]), 2))
def test_pair_compose_matches_the_unfused_formula(operands):
    field, f, g, b, c, p = operands
    _assert_same_scalars(field, f.pair_compose(g, b, c, p),
                         _pair_unfused(f, g, b, c, p), "pair_compose")


def test_pair_compose_multiplies_in_the_tensor_square():
    # (e_0 (x) e_1 + e_1 (x) e_0)(e_1 (x) e_0) = e_1 (x) e_1 + e_0 (x) e_0
    # in kZ_2 (x) kZ_2, whose basis is flat(i, j) = 2 i + j
    x = LinMap.from_rows(QQ, [[0], [1], [1], [0]])
    y = LinMap.from_rows(QQ, [[0], [0], [1], [0]])
    mul = _z2_mul()
    assert (mul.pair_compose(mul, x, y, 2)
            == LinMap.from_rows(QQ, [[1], [0], [0], [1]]))


def test_pair_compose_refusals():
    q, f = _z2_mul(), _z2_mul(GF(5))
    four = identity(4)
    for args in ((q, four, identity(4, GF(5))), (f, four, four),
                 (q, identity(4, GF(5)), four)):
        with pytest.raises(ValueError, match=(
                "^field mismatch in pair_compose$")):
            q.pair_compose(*args, 2)
    # b's 3 rows, f's 3 columns and g's 3 columns do not split at p = 2
    # and p2 = 2, and c's 2 rows are not the q x q2 = 2 x 2 that the two
    # multiplications ask for
    odd = zero_map(2, 3)
    for f_, g_, b, c in ((q, q, identity(3), four), (odd, q, four, four),
                         (q, odd, four, four), (q, q, four, zero_map(2, 1))):
        with pytest.raises(ValueError, match=(
                "^pair_compose factor dims do not divide: .* split at 2$")):
            f_.pair_compose(g_, b, c, 2)


def test_pair_compose_over_a_zero_dim_factor():
    # actions of a 0-dim algebra on 2-dim modules and an element of its
    # 0-dim tensor square: no term to split, so c's rows are not split
    # either and the output is zero, as the tensor module over it is
    act = zero_map(2, 0)
    assert (act.pair_compose(act, zero_map(0, 1), identity(4), 0)
            == zero_map(4, 4))


def test_pair_compose_refuses_an_oversized_output_before_allocating():
    # the output would be 1 x 2**28; the operands are tiny
    row = zero_map(1, 2 ** 14)
    one = identity(1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=(
                "^pair_compose output 1x268435456 exceeds the cap")):
            one.pair_compose(one, row, row, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_pair_compose_admits_what_only_the_unfused_formula_stores():
    # mul (x) mul would be 2**12 x 2**24 entries and b (x) c 2**24 x 2**4,
    # both past the cap; the output has 2**16
    n, f = 64, GF(5)
    mul, b = zero_map(n, n * n, f), zero_map(n * n, 4, f)
    with pytest.raises(ValueError, match="^kron output 4096x16777216 exceeds"):
        _pair_unfused(mul, mul, b, b, n)
    assert mul.pair_compose(mul, b, b, n) == zero_map(n * n, 16, f)


def test_kron_all_and_compose_all():
    assert kron_all(identity(2), identity(3), identity(2)) == identity(12)
    s = diag([2, 3])
    assert compose_all(s, s, s) == diag([8, 27])
    with pytest.raises(ValueError):
        kron_all()


# ------------------------------------------------- inverse, rank, zero

def test_inverse_roundtrip_and_singular():
    m = LinMap.from_rows(QQ, [[1, 2], [3, 7]])
    assert m.compose(m.inverse()) == identity(2)
    assert m.inverse().compose(m) == identity(2)
    with pytest.raises(ValueError):
        LinMap.from_rows(QQ, [[1, 2], [2, 4]]).inverse()
    assert not LinMap.from_rows(QQ, [[1, 2], [2, 4]]).is_invertible()
    assert m.is_invertible()


def test_inverse_over_prime_field():
    F = GF(5)
    m = LinMap.from_rows(F, [[2, 1], [1, 1]])
    assert m.compose(m.inverse()) == identity(2, F)


@given(st.integers(1, 3), st.data())
def test_constructed_invertibles(n, data):
    ents = st.integers(-2, 2)
    lower = [[QQ.one if i == j else
              (QQ.coerce(data.draw(ents)) if i > j else QQ.zero)
              for j in range(n)] for i in range(n)]
    upper = [[QQ.one if i == j else
              (QQ.coerce(data.draw(ents)) if i < j else QQ.zero)
              for j in range(n)] for i in range(n)]
    m = LinMap.from_rows(QQ, lower).compose(LinMap.from_rows(QQ, upper))
    assert m.rank() == n
    assert m.compose(m.inverse()) == identity(n)


def test_rank_and_is_zero():
    assert zero_map(2, 3).is_zero()
    assert zero_map(2, 3).rank() == 0
    assert LinMap.from_rows(QQ, [[1, 2], [2, 4]]).rank() == 1


def test_add_sub_scale():
    m = LinMap.from_rows(QQ, [[1, 2], [3, 4]])
    assert m.sub(m).is_zero()
    assert m.add(m) == m.scale(2)
    assert m.scale("1/2").scale(2) == m
    with pytest.raises(ValueError):
        m.add(identity(3))


# --------------------------------------------------- tensor permutations

def test_flip_map_on_basis():
    f = flip_map(2, 3)
    # e_i (x) e_j  ->  e_j (x) e_i
    for i in range(2):
        for j in range(3):
            nz = [r for r, _ in f.columns()[i * 3 + j]]
            assert nz == [j * 2 + i]


def test_permute_tensor_cycle():
    p = permute_tensor((2, 3, 2), (1, 2, 0))
    # factor k of the output is factor perm[k] of the input
    for i in range(2):
        for j in range(3):
            for k in range(2):
                nz = [r for r, _ in p.columns()[(i * 3 + j) * 2 + k]]
                assert nz == [(j * 2 + k) * 2 + i]


def test_permute_tensor_validates():
    with pytest.raises(ValueError):
        permute_tensor((2, 2), (0, 0))
    assert permute_tensor((2, 3), (1, 0)) == flip_map(2, 3)


def test_flip_involution():
    assert flip_map(3, 2).compose(flip_map(2, 3)) == identity(6)


@given(st.sampled_from([QQ, GF(5)]),
       st.lists(st.integers(1, 3), min_size=1, max_size=4), st.data())
def test_permute_rows_and_cols_compose_with_permute_tensor(field, dims, data):
    perm = data.draw(st.permutations(range(len(dims))))
    total = prod(dims)
    other = data.draw(st.integers(1, 3))
    ents = st.lists(st.integers(-3, 3), min_size=total * other,
                    max_size=total * other)
    a = LinMap(field, total, other, data.draw(ents))
    b = LinMap(field, other, total, data.draw(ents))
    p = permute_tensor(dims, perm, field)
    assert a.permute_rows(dims, perm) == p.compose(a)
    assert b.permute_cols(dims, perm) == b.compose(p)
    wrong = dims[:-1] + [dims[-1] + 1]
    with pytest.raises(ValueError, match="do not match"):
        a.permute_rows(wrong, perm)
    with pytest.raises(ValueError, match="do not match"):
        b.permute_cols(wrong, perm)


# -------------------------------------------------------------- kernels

def _flatten(m):
    return m.data


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.data())
def test_python_kernel_matmul_matches_linmap(n, m, k, data):
    ents = st.integers(-3, 3)
    a = LinMap(QQ, n, m, [data.draw(ents) for _ in range(n * m)])
    b = LinMap(QQ, m, k, [data.draw(ents) for _ in range(m * k)])
    got = _kernels_py.mat_mul(_flatten(a), n, m, _flatten(b), m, k, QQ.zero)
    assert got == a.compose(b).data


@given(st.integers(1, 2), st.integers(1, 3), st.integers(1, 2), st.data())
def test_python_kernel_kron_matches_linmap(n, m, k, data):
    ents = st.integers(-3, 3)
    a = LinMap(QQ, n, m, [data.draw(ents) for _ in range(n * m)])
    b = LinMap(QQ, k, k, [data.draw(ents) for _ in range(k * k)])
    got = _kernels_py.kron(_flatten(a), n, m, _flatten(b), k, k, QQ.zero)
    assert got == kron(a, b).data


def test_backend_reports_compiled():
    assert KERNEL_BACKEND == "python"
