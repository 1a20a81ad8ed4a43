"""Exact scalars, dense linear maps, and fixed tensor-index conventions.

Everything downstream represents structure maps as `LinMap` objects over a
shared `Field` (rationals or a prime field) and identifies a tensor product
basis vector e_i (x) e_j with the flat basis vector e_{i*dimJ + j}. Nested
products flatten left to right, so (U (x) V) (x) W and U (x) (V (x) W) share
flat indices and associativity constraints become literal matrix equalities.

Permutations of tensor factors, the flip u (x) v -> v (x) u among them,
act on a map by reindexing its rows or columns (LinMap.permute_rows and
permute_cols), never through a product with a permutation matrix.

Only this module knows how a LinMap is stored and when a sum of prime
field scalars is reduced mod p. Other modules build a map from
(row, col, value) terms with LinMap.from_terms and read it back as sparse
columns with LinMap.columns(); entry and row_lists are dense readers for
the structure-file codec.

All arithmetic is exact. Equality of maps is entrywise scalar equality,
never tolerance based. add, sub and scale do arithmetic only where an
operand is nonzero: a zero entry takes the other operand's scalar as it
is, so a sum of sparse maps costs a scan of its entries plus one scalar
operation per nonzero.

compose and the fused kernels below multiply and add Python ints. Over Q
each operand is scaled to integer numerators over one common denominator
(the lcm of its nonzero denominators), and each nonzero output sum becomes
one rational over the product of the operands' denominators; over F_p
each sum is reduced mod p once. a.compose(b) reads the nonzero columns of
both operands and does one multiply-add for each pair of nonzeros that
meet, a nonzero b[t, j] and a nonzero of a's column t, so it costs a scan
of both operands and its output plus one multiply-add per such pair. kron,
which stores one product per pair of nonzeros and sums none, multiplies
the scalars themselves.

A Kronecker product built only to be composed once is never stored:
a.compose_kron(b, c) equals a.compose(kron(b, c)) and b.kron_compose(c, a)
equals kron(b, c).compose(a). Each reads the nonzero columns of its three
operands once and does one integer multiply-add per triple of nonzeros
that meet, over the three operands' denominators, so it costs a scan of
its operands and its output plus the products, never a scan of b (x) c.
It refuses what the unfused pair refuses, with the same messages and in
the same order: kron's field check and cap on the virtual b (x) c first
(kron_shape), then compose's field, dimension and cap checks.

An element of a tensor square acting one factor at a time goes through
f.pair_compose(g, b, c, p): f (x) g, after the swap of its two middle
factors, composed with b (x) c, storing neither Kronecker product. The
product of H (x) H (mul.pair_compose(mul, b, c, n)), the tensor product
of modules, the R-braiding, the quasitriangularity laws eq30 and eq31,
and the Yetter-Drinfeld tensor coaction, B-map and compatibility law
homYD all have this shape. Its integer multiply-adds are those of the two
kernels above, over four denominators. It refuses only what it
allocates: a field mismatch, factor dims that do not divide, and an
output above the cap.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm, prod

from . import _kernels_py as _K

# the one kernel backend, reported in benchmark and environment labels
KERNEL_BACKEND = "python"

# the most entries one map may have (about 1 GiB of pointers); compose,
# kron and from_terms (so identity, zero_map, diag and permute_tensor too)
# refuse a larger output before allocating it
MAX_MAP_ENTRIES = 1 << 27


def check_size(rows, cols, what):
    """Refuse a rows x cols map above MAX_MAP_ENTRIES with a ValueError."""
    if rows * cols > MAX_MAP_ENTRIES:
        raise ValueError(f"{what} output {rows}x{cols} exceeds the cap of "
                         f"{MAX_MAP_ENTRIES} entries per map")


class Frozen:
    """Slotted base of the value classes: fields are set once, by _init.

    Setting or deleting an attribute afterwards raises AttributeError, so
    an instance can key a cache by identity for its whole life.
    """

    __slots__ = ()

    def _init(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


def _is_prime(n):
    # deterministic Miller-Rabin, valid far beyond any modulus used here
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field(Frozen):
    """Scalar field descriptor: characteristic 0 (exact rationals) or p.

    Rational scalars are fractions.Fraction, in lowest terms with positive
    denominator; str gives their codec form ("-3", "1/2"). Prime field
    scalars are plain ints canonicalized into [0, p).
    """

    __slots__ = ("char", "zero", "one")

    def __init__(self, char):
        if char != 0:
            if not _is_prime(char):
                raise ValueError(f"field characteristic must be 0 or prime, got {char}")
        zero, one = (Fraction(0), Fraction(1)) if char == 0 else (0, 1)
        self._init(char=char, zero=zero, one=one)

    def coerce(self, value):
        """Normalize ints, 'a/b' strings, Fractions or scalars into this field."""
        p = self.char
        if p == 0:
            if type(value) is Fraction:
                # already a normalized, immutable rational scalar
                return value
            if isinstance(value, float):
                raise ValueError("floating point scalars are not accepted; use 'a/b'")
            return Fraction(value)
        if isinstance(value, str):
            value = Fraction(value)
        if isinstance(value, int):
            return value % p
        if isinstance(value, Fraction):
            num = value.numerator % p
            den = value.denominator % p
            if den == 0:
                raise ValueError(f"denominator divisible by {p}")
            return num * pow(den, p - 2, p) % p
        if isinstance(value, float):
            raise ValueError("floating point scalars are not accepted")
        raise ValueError(f"cannot coerce {value!r} into {self}")

    def inv(self, s):
        if not s:
            raise ZeroDivisionError("inverse of zero scalar")
        if self.char == 0:
            return 1 / Fraction(s)
        return pow(s, self.char - 2, self.char)

    def neg(self, s):
        return -s if self.char == 0 else (-s) % self.char

    @property
    def modulus(self):
        # kernel-facing: None selects characteristic-0 arithmetic
        return self.char if self.char else None

    def __eq__(self, other):
        return isinstance(other, Field) and other.char == self.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return "QQ" if self.char == 0 else f"GF({self.char})"


QQ = Field(0)

_GF_CACHE = {}


def GF(p):
    """The prime field with p elements; ValueError unless p is prime."""
    f = _GF_CACHE.get(p)
    if f is None:
        if not _is_prime(p):
            raise ValueError(f"GF(p) needs a prime p, got {p}")
        f = Field(p)
        _GF_CACHE[p] = f
    return f


def flatten_index(i, j, dim_j):
    """Flat position of e_i (x) e_j when the right factor has dim_j basis vectors."""
    return i * dim_j + j


class LinMap(Frozen):
    """Immutable dense linear map, stored row major over an exact field.

    Columns index the source basis, rows the target basis: column j is the
    image of source basis vector e_j. The storage is private to this
    module: build a map with from_terms (or the constructors on top of it)
    and read its nonzeros with columns().
    """

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, rows, cols, entries):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        flat = tuple(field.coerce(v) for v in entries)
        if len(flat) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(flat)}")
        self._init(field=field, rows=rows, cols=cols, data=flat)

    @classmethod
    def _wrap(cls, field, rows, cols, flat):
        # trusted path: flat is already a coerced tuple
        self = object.__new__(cls)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", flat)
        return self

    @classmethod
    def from_rows(cls, field, row_lists):
        rows = len(row_lists)
        cols = len(row_lists[0]) if rows else 0
        if any(len(r) != cols for r in row_lists):
            raise ValueError("ragged row lists")
        return cls(field, rows, cols, [v for r in row_lists for v in r])

    @classmethod
    def from_cols(cls, field, col_lists, rows):
        if any(len(col) != rows for col in col_lists):
            raise ValueError("column length mismatch")
        return cls.from_terms(field, rows, len(col_lists), (
            (i, j, field.coerce(v))
            for j, col in enumerate(col_lists) for i, v in enumerate(col)))

    @classmethod
    def from_terms(cls, field, rows, cols, terms):
        """The rows x cols map whose entry at (i, j) sums the values of terms.

        terms yields (i, j, value) with value a scalar of field (over F_p
        any int); positions may repeat. Each sum is reduced mod p once,
        after the last term.
        """
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        check_size(rows, cols, "from_terms")
        flat = [field.zero] * (rows * cols)
        for i, j, v in terms:
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(
                    f"term at ({i}, {j}) outside a {rows}x{cols} map")
            k = i * cols + j
            flat[k] = flat[k] + v if flat[k] else v
        p = field.modulus
        if p is not None:
            flat = [v % p for v in flat]
        return cls._wrap(field, rows, cols, tuple(flat))

    def entry(self, i, j):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("entry out of range")
        return self.data[i * self.cols + j]

    def row_lists(self):
        c = self.cols
        return [list(self.data[i * c:(i + 1) * c]) for i in range(self.rows)]

    def columns(self):
        """Each column's nonzeros as a list of (row, value), rows ascending."""
        c, data = self.cols, self.data
        return [[(i, v) for i, v in enumerate(data[j::c]) if v]
                for j in range(c)]

    def compose(self, other):
        """self after other: (self.compose(f))(v) = self(f(v)).

        One integer multiply-add for each nonzero other[t, j] and each
        nonzero of self's column t, on numerators over one common
        denominator per operand, and one scalar formed per output entry:
        a scan of both operands plus one multiply-add per pair of nonzeros
        that meet.
        """
        _compose_check(self.field, (self.rows, self.cols),
                       other.field, (other.rows, other.cols))
        rows, cols = self.rows, other.cols
        acols, da = self._int_columns()
        bcols, db = other._int_columns()
        flat = [0] * (rows * cols)
        for j, bcol in enumerate(bcols):
            for t, bv in bcol:
                for r, av in acols[t]:
                    flat[r * cols + j] += av * bv
        return self._from_int_sums(rows, cols, flat, da * db)

    def compose_kron(self, b, c):
        """self.compose(kron(b, c)), without storing b (x) c.

        Output column flat(j, l) is self applied to b(e_j) (x) c(e_l): one
        integer multiply-add for each nonzero b[k, j], each nonzero c[m, l]
        and each nonzero of self's column flat(k, m), on numerators over
        one common denominator per operand, and one scalar formed per
        output entry. The refusals are those of the unfused pair, in its
        order.
        """
        kshape = kron_shape(b, c)
        _compose_check(self.field, (self.rows, self.cols), b.field, kshape)
        rows, cols, cr = self.rows, kshape[1], c.rows
        acols, da = self._int_columns()
        bcols, db = b._int_columns()
        ccols, dc = c._int_columns()
        flat = [0] * (rows * cols)
        for j, bcol in enumerate(bcols):
            if not bcol:
                continue
            for col, ccol in enumerate(ccols, j * c.cols):
                for k, bv in bcol:
                    base = k * cr
                    for m, cv in ccol:
                        acol = acols[base + m]
                        if not acol:
                            continue
                        w = bv * cv
                        for r, av in acol:
                            flat[r * cols + col] += w * av
        return self._from_int_sums(rows, cols, flat, da * db * dc)

    def kron_compose(self, c, a):
        """kron(self, c).compose(a), without storing self (x) c.

        Each nonzero a[flat(j, l), t] adds its multiple of self(e_j) (x)
        c(e_l) to output column t: one integer multiply-add for each such
        nonzero and each pair of nonzeros of those two columns, on
        numerators over one common denominator per operand, and one scalar
        formed per output entry. The refusals are those of the unfused
        pair, in its order.
        """
        kshape = kron_shape(self, c)
        _compose_check(self.field, kshape, a.field, (a.rows, a.cols))
        rows, cols, cc, cr = kshape[0], a.cols, c.cols, c.rows
        bcols, db = self._int_columns()
        ccols, dc = c._int_columns()
        acols, da = a._int_columns()
        flat = [0] * (rows * cols)
        for t, acol in enumerate(acols):
            for i, av in acol:
                j, l = divmod(i, cc)
                ccol = ccols[l]
                if not ccol:
                    continue
                for k, bv in bcols[j]:
                    w = av * bv
                    base = k * cr
                    for m, cv in ccol:
                        flat[(base + m) * cols + t] += w * cv
        return self._from_int_sums(rows, cols, flat, da * db * dc)

    def pair_compose(self, g, b, c, p):
        """self and g applied factorwise to b (x) c, storing no kron.

        b's rows split as P (x) P2 with p = dim P, self's columns as
        P (x) Q, g's as P2 (x) Q2 and c's rows as Q (x) Q2. The result
        equals kron(self, g).permute_cols((p, p2, q, q2), (0, 2, 1, 3))
        .compose(kron(b, c)): output column flat(j, l) sends each
        e_k (x) e_k' (x) e_m (x) e_m' of b(e_j) (x) c(e_l) to
        self(e_k (x) e_m) (x) g(e_k' (x) e_m'). It does one integer
        multiply-add for each nonzero b[flat(k, k'), j], each nonzero
        c[flat(m, m'), l] and each pair of nonzeros of self's column
        flat(k, m) and g's column flat(k', m'), on numerators over one
        common denominator per operand. It refuses a field mismatch,
        factor dims that do not divide and an output above the cap, and
        nothing else.
        """
        if not self.field == g.field == b.field == c.field:
            raise ValueError("field mismatch in pair_compose")
        p2 = b.rows // p if p else 0
        q = self.cols // p if p else 0
        # a b without rows has no term to split, so it leaves q2 free
        q2 = g.cols // p2 if p2 else 1
        if ((p * p2, p * q) != (b.rows, self.cols)
                or b.rows and (p2 * q2, q * q2) != (g.cols, c.rows)):
            raise ValueError(
                f"pair_compose factor dims do not divide: {self.rows}x"
                f"{self.cols} and {g.rows}x{g.cols} after {b.rows}x{b.cols}"
                f" (x) {c.rows}x{c.cols} split at {p}")
        gr = g.rows
        rows, cols = self.rows * gr, b.cols * c.cols
        check_size(rows, cols, "pair_compose")
        fcols, df = self._int_columns()
        gcols, dg = g._int_columns()
        bcols, db = b._int_columns()
        ccols, dc = c._int_columns()
        # each row index of b and c as its two tensor factors
        bcols = [[(*divmod(k, p2), v) for k, v in col] for col in bcols]
        ccols = [[(*divmod(m, q2), v) for m, v in col] for col in ccols]
        flat = [0] * (rows * cols)
        for j, bcol in enumerate(bcols):
            if not bcol:
                continue
            for col, ccol in enumerate(ccols, j * c.cols):
                for k, k2, bv in bcol:
                    for m, m2, cv in ccol:
                        left = fcols[k * q + m]
                        right = gcols[k2 * q2 + m2]
                        if not (left and right):
                            continue
                        w = bv * cv
                        for r, fv in left:
                            wf = w * fv
                            base = r * gr
                            for r2, gv in right:
                                flat[(base + r2) * cols + col] += wf * gv
        return self._from_int_sums(rows, cols, flat, df * dg * db * dc)

    def _int_columns(self):
        # (columns(), d) with each value v replaced, column by column, by
        # the integer v * d; d is the lcm of the nonzero denominators over
        # Q and 1 over F_p, whose scalars are ints already
        cols = self.columns()
        if self.field.char:
            return cols, 1
        d = lcm(*{v.denominator for col in cols for _, v in col})
        for col in cols:
            col[:] = [(i, v.numerator * (d // v.denominator)) for i, v in col]
        return cols, d

    def _from_int_sums(self, rows, cols, flat, den):
        # wrap integer sums of products over den: each reduced mod p once,
        # or, in place, each nonzero made the one rational sum / den
        f = self.field
        p = f.modulus
        if p is not None:
            flat = [s % p for s in flat]
        else:
            zero = f.zero
            for x, s in enumerate(flat):
                flat[x] = Fraction(s, den) if s else zero
        return LinMap._wrap(f, rows, cols, tuple(flat))

    def permute_rows(self, dims, perm):
        """permute_tensor(dims, perm) after self, by moving whole rows."""
        c = self.cols
        out = [None] * self.rows
        for src, dst in enumerate(_perm_targets(dims, perm, self.rows)):
            out[dst] = self.data[src * c:(src + 1) * c]
        flat = tuple(chain.from_iterable(out))
        return LinMap._wrap(self.field, self.rows, c, flat)

    def permute_cols(self, dims, perm):
        """self after permute_tensor(dims, perm), by picking columns."""
        c, data = self.cols, self.data
        targets = _perm_targets(dims, perm, c)
        flat = tuple(data[i * c + t] for i in range(self.rows) for t in targets)
        return LinMap._wrap(self.field, self.rows, c, flat)

    def kron(self, other):
        rows, cols = kron_shape(self, other)
        flat = _K.kron(self.data, self.rows, self.cols,
                       other.data, other.rows, other.cols,
                       self.field.zero, self.field.modulus)
        return LinMap._wrap(self.field, rows, cols, flat)

    def add(self, other):
        if self.field != other.field:
            raise ValueError("field mismatch in add")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        # a zero entry passes the other operand's scalar through unchanged
        flat = list(self.data)
        p = self.field.modulus
        for k, b in enumerate(other.data):
            if b:
                a = flat[k]
                if not a:
                    flat[k] = b
                elif p is None:
                    flat[k] = a + b
                else:
                    flat[k] = (a + b) % p
        return LinMap._wrap(self.field, self.rows, self.cols, tuple(flat))

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, c):
        c = self.field.coerce(c)
        if not c:
            return zero_map(self.rows, self.cols, self.field)
        p = self.field.modulus
        if p is None:
            flat = tuple(c * v if v else v for v in self.data)
        else:
            flat = tuple(c * v % p if v else v for v in self.data)
        return LinMap._wrap(self.field, self.rows, self.cols, flat)

    def is_zero(self):
        return not any(self.data)

    def _echelon(self, augment=None):
        # returns (rank, reduced rows) of [self | augment]
        f = self.field
        p = f.modulus
        c = self.cols
        width = c + (augment.cols if augment is not None else 0)
        rows = []
        for i in range(self.rows):
            r = list(self.data[i * c:(i + 1) * c])
            if augment is not None:
                r += list(augment.data[i * augment.cols:(i + 1) * augment.cols])
            rows.append(r)
        rank = 0
        for col in range(c):
            piv = next((r for r in range(rank, self.rows) if rows[r][col]), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = f.inv(rows[rank][col])
            if p is None:
                rows[rank] = [v * inv for v in rows[rank]]
            else:
                rows[rank] = [v * inv % p for v in rows[rank]]
            for r in range(self.rows):
                if r != rank and rows[r][col]:
                    m = rows[r][col]
                    if p is None:
                        rows[r] = [a - m * b for a, b in zip(rows[r], rows[rank])]
                    else:
                        rows[r] = [(a - m * b) % p for a, b in zip(rows[r], rows[rank])]
            rank += 1
            if rank == self.rows:
                break
        return rank, rows, width

    def rank(self):
        return self._echelon()[0]

    def inverse(self):
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square map")
        n = self.rows
        rank, rows, width = self._echelon(identity(n, self.field))
        if rank < n:
            raise ValueError("map is singular")
        flat = tuple(self.field.coerce(rows[i][n + j])
                     for i in range(n) for j in range(n))
        return LinMap._wrap(self.field, n, n, flat)

    def is_invertible(self):
        return self.rows == self.cols and self.rank() == self.rows

    def __eq__(self, other):
        return (isinstance(other, LinMap) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.data))

    def __repr__(self):
        return f"LinMap({self.field!r}, {self.rows}x{self.cols})"


def identity(n, field=QQ):
    return LinMap.from_terms(field, n, n, ((i, i, field.one) for i in range(n)))


def zero_map(rows, cols, field=QQ):
    return LinMap.from_terms(field, rows, cols, ())


def diag(scalars, field=QQ):
    n = len(scalars)
    return LinMap.from_terms(field, n, n, (
        (i, i, field.coerce(s)) for i, s in enumerate(scalars)))


def kron_shape(f, g):
    """The shape of kron(f, g), refused as kron refuses it.

    Raises ValueError over different fields or above the cap, before
    anything is allocated.
    """
    if f.field != g.field:
        raise ValueError("field mismatch in kron")
    shape = (f.rows * g.rows, f.cols * g.cols)
    check_size(*shape, "kron")
    return shape


def _compose_check(f_field, f_shape, g_field, g_shape):
    # compose's preflight for an f after a g of the given fields and shapes
    if f_field != g_field:
        raise ValueError("field mismatch in compose")
    if f_shape[1] != g_shape[0]:
        raise ValueError(
            f"dimension mismatch in compose: {f_shape[0]}x{f_shape[1]} after "
            f"{g_shape[0]}x{g_shape[1]}")
    check_size(f_shape[0], g_shape[1], "compose")


def compose(g, f):
    """g after f."""
    return g.compose(f)


def compose_all(*maps):
    """Compose left to right as written: compose_all(f, g, h) = f . g . h."""
    if not maps:
        raise ValueError("compose_all needs at least one map")
    out = maps[0]
    for m in maps[1:]:
        out = out.compose(m)
    return out


def kron(f, g):
    """f (x) g on flattened indices: column flat(j,l) holds f(e_j) (x) g(e_l)."""
    return f.kron(g)


def kron_all(*maps):
    if not maps:
        raise ValueError("kron_all needs at least one map")
    out = maps[0]
    for m in maps[1:]:
        out = out.kron(m)
    return out


def permute_tensor(dims, perm, field=QQ):
    """Permutation map of tensor factors.

    dims lists the source factor dimensions. perm[s] names the source slot
    whose factor lands in target slot s, so the map sends
    e_{(i_0,...,i_{k-1})} to e_{(i_{perm[0]},...,i_{perm[k-1]})}.
    """
    return identity(prod(dims), field).permute_rows(dims, perm)


def _perm_targets(dims, perm, size):
    # target flat index of each source flat index under permute_tensor
    if sorted(perm) != list(range(len(dims))):
        raise ValueError("perm must be a permutation of the factor slots")
    if prod(dims) != size:
        raise ValueError(f"factor dims {tuple(dims)} do not match size {size}")
    # weight[t]: the stride of source slot t in the target flattening
    weight = [0] * len(dims)
    for s, t in enumerate(perm):
        weight[t] = prod(dims[u] for u in perm[s + 1:])
    return [sum(i * w for i, w in zip(unflatten_index(src, dims), weight))
            for src in range(size)]


def flip_map(d_u, d_v, field=QQ):
    """The swap u (x) v -> v (x) u as a (d_u*d_v) square permutation matrix."""
    return permute_tensor((d_u, d_v), (1, 0), field)


def unflatten_index(flat, dims):
    """Inverse of left-to-right flattening: flat -> factor index tuple."""
    idx = []
    rem = flat
    for d in reversed(dims):
        idx.append(rem % d)
        rem //= d
    if rem:
        raise ValueError("flat index out of range")
    idx.reverse()
    return tuple(idx)
