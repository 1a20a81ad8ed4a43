"""Field, LinMap and tensor-shuffle units, plus kernel backend agreement."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import FROZEN, freeze_matrix

from homcat import _kernels_py
from homcat.exact_tensor import (
    GF, KERNEL_BACKEND, QQ, LinMap, compose, compose_all, diag, flatten_index,
    flip_map, identity, kron, kron_all, permute_tensor, unflatten_index,
    zero_map,
)


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
    assert [str(v) for v in m.column(2)] == ["3", "-1"]
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


def test_from_rows_and_from_cols_agree():
    rows = [[1, 2], [3, 4], [5, 6]]
    a = LinMap.from_rows(QQ, rows)
    b = LinMap.from_cols(QQ, [[1, 3, 5], [2, 4, 6]], 3)
    assert a == b


def test_compose_shapes_checked():
    with pytest.raises(ValueError):
        identity(2).compose(identity(3))
    assert compose(identity(2), identity(2)) == identity(2)


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.data())
def test_compose_matches_naive(n, m, k, data):
    ents = st.integers(-4, 4)
    a = LinMap(QQ, n, m, [data.draw(ents) for _ in range(n * m)])
    b = LinMap(QQ, m, k, [data.draw(ents) for _ in range(m * k)])
    c = a.compose(b)
    for i in range(n):
        for j in range(k):
            want = sum(a.entry(i, t) * b.entry(t, j) for t in range(m))
            assert c.entry(i, j) == QQ.coerce(want)


def test_apply_vector():
    m = LinMap.from_rows(QQ, [[1, 2], [0, 3]])
    out = m.apply([QQ.coerce(1), QQ.coerce(1)])
    assert [str(v) for v in out] == ["3", "3"]


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
    assert identity(3).is_identity()


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
            col = f.column(i * 3 + j)
            nz = [r for r, v in enumerate(col) if v]
            assert nz == [j * 2 + i]


def test_permute_tensor_cycle():
    p = permute_tensor((2, 3, 2), (1, 2, 0))
    # factor k of the output is factor perm[k] of the input
    for i in range(2):
        for j in range(3):
            for k in range(2):
                col = p.column((i * 3 + j) * 2 + k)
                nz = [r for r, v in enumerate(col) if v]
                assert nz == [(j * 2 + k) * 2 + i]


def test_permute_tensor_validates():
    with pytest.raises(ValueError):
        permute_tensor((2, 2), (0, 0))
    assert permute_tensor((2, 3), (1, 0)) == flip_map(2, 3)


def test_flip_involution():
    assert flip_map(3, 2).compose(flip_map(2, 3)) == identity(6)


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
