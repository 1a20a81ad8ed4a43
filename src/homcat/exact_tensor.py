"""Exact scalars, dense linear maps, and fixed tensor-index conventions.

Everything downstream represents structure maps as `LinMap` objects over a
shared `Field` (rationals or a prime field) and identifies a tensor product
basis vector e_i (x) e_j with the flat basis vector e_{i*dimJ + j}. Nested
products flatten left to right, so (U (x) V) (x) W and U (x) (V (x) W) share
flat indices and associativity constraints become literal matrix equalities.

Permutations of tensor factors, the flip u (x) v -> v (x) u among them,
act on a map by reindexing its rows or columns (LinMap.permute_rows and
permute_cols) or enter a product as a Permutation, an index list never
stored; neither multiplies by a permutation matrix.

Only this module knows how a LinMap is stored and when a sum of prime
field scalars is reduced mod p; only entry, row_lists, columns,
permute_rows, __eq__ and __hash__ read the layout. The rest (add, scale,
kron, permute_cols, the elimination behind rank and inverse) and other
modules build a map from (row, col, value) terms with LinMap.from_terms
and read it as sparse columns with columns(); row_lists is the dense
reader of the codec and the elimination.
Every stored zero over Q is the one object field.zero: Field.coerce
returns it for any zero, from_terms for a zero term or a cancelled sum,
and kron and Product.form store it. So columns() finds the nonzeros in C,
by identity with field.zero over Q and by truth over F_p, and runs Python
once per nonzero, never once per entry.

All arithmetic is exact, never tolerance based. add, sub, scale, kron
and the reduction mod p in from_terms work only on nonzero entries.

Each product has one body, a method of lazy(m) returning an unformed
Product: compose, compose_kron (m after b (x) c), kron_compose (m (x) c
after a) and pair_compose (a tensor-square element applied one factor at
a time, as in the product of H (x) H, tensor modules, R-braidings and the
Yetter-Drinfeld maps). It reads each operand, m among them, through its
_int_columns(): nonzero columns as integer numerators over one
denominator, of a stored LinMap, an unformed Product (reduced over F_p)
or a Permutation. It never reads a Kronecker product and yields one
column of integer sums at a time, one multiply-add per tuple of nonzeros
that meet. Product.form stores the nonzero sums, reduced mod p or, over
Q, each distinct one made one rational. compare_columns compares two
sides, stored or unformed, without forming a scalar outside the columns
that differ.

A product refuses operands over different fields, then shapes that do not
fit, and, when formed or read as an operand, an output above
MAX_MAP_ENTRIES, all before it reads an operand; one without entries reads
none. Only a product that is compared, never formed or read, may be larger.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain, compress, repeat
from math import lcm, prod
from operator import is_not, methodcaller
from typing import Callable, NamedTuple

# the one kernel backend, reported in benchmark and environment labels
KERNEL_BACKEND = "python"

# the most entries one stored map may have (about 1 GiB of pointers); a
# product formed or read as an operand, kron and from_terms (so identity,
# zero_map, diag, permute_tensor) refuse a larger output before allocating it
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


_MR_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n):
    # Miller-Rabin on these bases decides primality below _MR_BOUND =
    # psi_13 (Sorenson and Webster, Math. Comp. 2017); at or above, refuse
    if n >= _MR_BOUND:
        raise ValueError(f"modulus {n} is at or above {_MR_BOUND}, where "
                         f"primality is not decided")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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
        if char != 0 and not _is_prime(char):
            raise ValueError(f"field characteristic must be 0 or prime, got {char}")
        zero, one = (Fraction(0), Fraction(1)) if char == 0 else (0, 1)
        self._init(char=char, zero=zero, one=one)

    def coerce(self, value):
        """Normalize ints, 'a/b' strings, Fractions or scalars into this field."""
        p = self.char
        if p == 0:
            if type(value) is Fraction:
                # normalized already; a zero becomes the one self.zero
                return value or self.zero
            if isinstance(value, float):
                raise ValueError("floating point scalars are not accepted; use 'a/b'")
            return Fraction(value) or self.zero
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
        f = _GF_CACHE[p] = object.__new__(Field)  # Field(p) would test p again
        f._init(char=p, zero=0, one=1)
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
        flat = tuple(map(field.coerce, entries))
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
        after the last term; a zero sum over Q is stored as field.zero.
        """
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        check_size(rows, cols, "from_terms")
        zero = field.zero
        flat = [zero] * (rows * cols)
        for i, j, v in terms:
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(
                    f"term at ({i}, {j}) outside a {rows}x{cols} map")
            k = i * cols + j
            s = v if flat[k] is zero else flat[k] + v
            flat[k] = s if s is not zero and s else zero
        for k in compress(range(len(flat)), flat) if field.char else ():
            flat[k] %= field.char
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
        nz = data if self.field.char else map(is_not, data, repeat(self.field.zero))
        out = [[] for _ in range(c)]
        for k in compress(range(len(data)), nz):
            out[k % c].append((k // c, data[k]))
        return out

    def compose(self, other):
        """self after other: (self.compose(f))(v) = self(f(v))."""
        return lazy(self).compose(other).form()

    def compose_kron(self, b, c):
        """self.compose(kron(b, c)), without storing b (x) c."""
        return lazy(self).compose_kron(b, c).form()

    def kron_compose(self, c, a):
        """kron(self, c).compose(a), without storing self (x) c."""
        return lazy(self).kron_compose(c, a).form()

    def pair_compose(self, g, b, c, p):
        """self and g applied factorwise to b (x) c, storing no kron."""
        return lazy(self).pair_compose(g, b, c, p).form()

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

    def _sums(self):
        # the stored map as a Product's sums, one dense column at a time
        cols, d = self._int_columns()
        yield d
        for col in cols:
            out = [0] * self.rows
            for i, v in col:
                out[i] = v
            yield out

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
        targets = _perm_targets(dims, perm, self.cols)
        cols = self.columns()
        return LinMap.from_terms(self.field, self.rows, self.cols, (
            (i, j, v) for j, t in enumerate(targets) for i, v in cols[t]))

    def kron(self, other):
        if self.field != other.field:
            raise ValueError("field mismatch in kron")
        rows, cols = self.rows * other.rows, self.cols * other.cols
        check_size(rows, cols, "kron")
        # one product per pair of nonzeros, at row flat(i, k), col flat(j, l)
        br, bc, p = other.rows, other.cols, self.field.char
        bnz = [(k * cols + l, v)
               for l, col in enumerate(other.columns()) for k, v in col]
        flat = [self.field.zero] * (rows * cols)
        for j, acol in enumerate(self.columns()):
            for i, av in acol:
                base = i * br * cols + j * bc
                for x, bv in bnz:
                    flat[base + x] = av * bv % p if p else av * bv
        return LinMap._wrap(self.field, rows, cols, tuple(flat))

    def add(self, other):
        if self.field != other.field:
            raise ValueError("field mismatch in add")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        # a zero entry passes the other operand's scalar through unchanged
        return LinMap.from_terms(self.field, self.rows, self.cols, (
            (i, j, v) for m in (self, other)
            for j, col in enumerate(m.columns()) for i, v in col))

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, c):
        c = self.field.coerce(c)
        if not c:
            return zero_map(self.rows, self.cols, self.field)
        return LinMap.from_terms(self.field, self.rows, self.cols, (
            (i, j, c * v)
            for j, col in enumerate(self.columns()) for i, v in col))

    def is_zero(self):
        return not any(self.columns())

    def _echelon(self, augment=None):
        # returns (rank, reduced rows) of [self | augment]: over F_p each
        # new scalar is reduced % p, over Q it is plain Fraction arithmetic,
        # whose zeros from_rows normalises where inverse stores them
        f, n, p = self.field, self.rows, self.field.char
        rows = self.row_lists()
        if augment is not None:
            rows = [r + a for r, a in zip(rows, augment.row_lists())]
        rank = 0
        for col in range(self.cols):
            piv = next((r for r in range(rank, n) if rows[r][col]), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = f.inv(rows[rank][col])
            prow = rows[rank] = [v * inv % p if p else v * inv
                                 for v in rows[rank]]
            for r in range(n):
                if r != rank and rows[r][col]:
                    m = rows[r][col]
                    rows[r] = [(a - m * b) % p if p else a - m * b
                               for a, b in zip(rows[r], prow)]
            rank += 1
            if rank == n:
                break
        return rank, rows

    def rank(self):
        return self._echelon()[0]

    def inverse(self):
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square map")
        n = self.rows
        rank, rows = self._echelon(identity(n, self.field))
        if rank < n:
            raise ValueError("map is singular")
        return LinMap.from_rows(self.field, [r[n:] for r in rows])

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


class Product(NamedTuple):
    """A product named but not formed (see lazy). Each call of sums()
    yields, from the start, its denominator d, then its columns in order,
    each a list of integer sums over d (over F_p d is 1 and the sums are
    unreduced); no operand is read before that generator is advanced."""

    field: Field
    rows: int
    cols: int
    what: str
    sums: Callable

    def form(self):
        """The product stored as a LinMap, refused first if above the cap."""
        rows, cols, f = self.rows, self.cols, self.field
        check_size(rows, cols, self.what)
        flat = [f.zero] * (rows * cols)
        # a product without entries reads no operand; 1 stands for its d
        sums = self.sums() if flat else iter((1,))
        den, p, at, formed = next(sums), f.char, list(range(rows)), {}
        # only nonzero sums are written, over Q each distinct one made once
        for j, col in enumerate(sums):
            for i in compress(at, col):
                s = col[i]
                flat[i * cols + j] = s % p if p else (
                    formed.get(s) or formed.setdefault(s, Fraction(s, den)))
        return LinMap._wrap(f, rows, cols, tuple(flat))

    def _int_columns(self):
        # LinMap._int_columns of the formed product (zeros dropped mod p),
        # refused as form() is; one without entries reads no operand
        check_size(self.rows, self.cols, self.what)
        if not self.rows * self.cols:
            return [[] for _ in range(self.cols)], 1
        sums, p, rows = self.sums(), self.field.char, list(range(self.rows))
        d = next(sums)
        nz = ([(i, col[i]) for i in compress(rows, col)] for col in sums)
        return [[(i, r) for i, s in c if (r := s % p)] for c in nz] if p \
            else list(nz), d


class Permutation(NamedTuple):
    """permute_tensor(dims, perm, field) as an index list, never stored;
    the default perm makes Permutation(field, (n,)) the identity."""

    field: Field
    dims: tuple
    perm: tuple = (0,)

    rows = cols = property(lambda self: prod(self.dims))

    def _int_columns(self):
        return [[(t, 1)] for t in _perm_targets(*self[1:], self.rows)], 1


class lazy(NamedTuple):
    """The products of a map m, named but not formed: lazy(m).compose(f).

    m and each operand may be a LinMap, a Product or a Permutation. Each
    method refuses as the LinMap method of its name but for the cap, which
    waits for Product.form(); its sums are over the product of the
    operands' denominators."""

    m: LinMap

    def compose(self, other):
        """m after other: one integer multiply-add for each nonzero
        other[t, j] and each nonzero of m's column t."""
        a = self.m
        _compose_check(a.field, (a.rows, a.cols),
                       other.field, (other.rows, other.cols))
        rows = a.rows

        def sums():
            (acols, da), (bcols, db) = a._int_columns(), other._int_columns()
            yield da * db
            for bcol in bcols:
                out = [0] * rows
                for t, bv in bcol:
                    for r, av in acols[t]:
                        out[r] += av * bv
                yield out
        return Product(a.field, rows, other.cols, "compose", sums)

    def compose_kron(self, b, c):
        """m after kron(b, c), never reading or storing b (x) c.

        Column flat(j, l) is m applied to b(e_j) (x) c(e_l), one integer
        multiply-add per nonzero b[k, j], c[r, l] and m[i, flat(k, r)]. It
        refuses b and c over different fields, then as compose does.
        """
        a = self.m
        if b.field != c.field:
            raise ValueError("field mismatch in kron")
        rows, cr = a.rows, c.rows
        _compose_check(a.field, (rows, a.cols),
                       b.field, (b.rows * cr, b.cols * c.cols))

        def sums():
            (acols, da), (bcols, db), (ccols, dc) = map(
                methodcaller("_int_columns"), (a, b, c))
            yield da * db * dc
            for bcol in bcols:
                for ccol in ccols:
                    out = [0] * rows
                    for k, bv in bcol:
                        base = k * cr
                        for m, cv in ccol:
                            acol = acols[base + m]
                            if not acol:
                                continue
                            w = bv * cv
                            for r, av in acol:
                                out[r] += w * av
                    yield out
        return Product(a.field, rows, b.cols * c.cols, "compose", sums)

    def kron_compose(self, c, a):
        """kron(m, c) after a, never reading or storing m (x) c.

        Each nonzero a[flat(j, l), t] adds its multiple of m(e_j) (x) c(e_l)
        to column t, one integer multiply-add per nonzero of each factor. It
        refuses m and c over different fields, then as compose does.
        """
        b = self.m
        if b.field != c.field:
            raise ValueError("field mismatch in kron")
        rows, cc, cr = b.rows * c.rows, c.cols, c.rows
        _compose_check(b.field, (rows, b.cols * cc), a.field, (a.rows, a.cols))

        def sums():
            (bcols, db), (ccols, dc), (acols, da) = map(
                methodcaller("_int_columns"), (b, c, a))
            yield da * db * dc
            for acol in acols:
                out = [0] * rows
                for i, av in acol:
                    j, l = divmod(i, cc)
                    ccol = ccols[l]
                    if not ccol:
                        continue
                    for k, bv in bcols[j]:
                        w = av * bv
                        base = k * cr
                        for m, cv in ccol:
                            out[base + m] += w * cv
                yield out
        return Product(b.field, rows, a.cols, "compose", sums)

    def pair_compose(self, g, b, c, p):
        """m and g applied factorwise to b (x) c, storing no kron.

        b's rows split as P (x) P2 with p = dim P, m's columns as P (x) Q,
        g's as P2 (x) Q2 and c's rows as Q (x) Q2. The result equals
        kron(m, g).permute_cols((p, p2, q, q2), (0, 2, 1, 3))
        .compose(kron(b, c)): column flat(j, l) sends each e_k (x) e_k' (x)
        e_r (x) e_r' of b(e_j) (x) c(e_l) to m(e_k (x) e_r) (x) g(e_k' (x)
        e_r'), one integer multiply-add per quadruple of nonzeros that meet.
        It refuses a field mismatch and factor dims that do not divide.
        """
        f = self.m
        if not f.field == g.field == b.field == c.field:
            raise ValueError("field mismatch in pair_compose")
        p2 = b.rows // p if p else 0
        q = f.cols // p if p else 0
        # a b without rows has no term to split, so it leaves q2 free
        q2 = g.cols // p2 if p2 else 1
        if ((p * p2, p * q) != (b.rows, f.cols)
                or b.rows and (p2 * q2, q * q2) != (g.cols, c.rows)):
            raise ValueError(
                f"pair_compose factor dims do not divide: {f.rows}x"
                f"{f.cols} and {g.rows}x{g.cols} after {b.rows}x{b.cols}"
                f" (x) {c.rows}x{c.cols} split at {p}")
        rows, gr = f.rows * g.rows, g.rows

        def sums():
            (fcols, df), (gcols, dg), (bcols, db), (ccols, dc) = map(
                methodcaller("_int_columns"), (f, g, b, c))
            yield df * dg * db * dc
            # each row index of b and c as its two tensor factors
            bcols = [[(*divmod(k, p2), v) for k, v in col] for col in bcols]
            ccols = [[(*divmod(m, q2), v) for m, v in col] for col in ccols]
            for bcol in bcols:
                for ccol in ccols:
                    out = [0] * rows
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
                                    out[base + r2] += wf * gv
                    yield out
        return Product(f.field, rows, b.cols * c.cols, "pair_compose", sums)


def compare_columns(lhs, rhs):
    """The columns where two sides of one field and shape differ, in order.

    A side is a LinMap or a Product, which is never formed. Yields (j, lhs
    column, rhs column) with each column's nonzeros as columns() lists
    them, forming scalars only there. Over Q the sums are compared
    cross-multiplied by the other side's denominator, over F_p reduced.
    """
    if not lhs.rows * lhs.cols or lhs == rhs:  # or two equal stored maps
        return
    ls = lhs.sums() if isinstance(lhs, Product) else lhs._sums()
    rs = rhs.sums() if isinstance(rhs, Product) else rhs._sums()
    dl, dr = next(ls), next(rs)
    p = lhs.field.modulus
    for j, (x, y) in enumerate(zip(ls, rs)):
        if x == y and dl == dr:
            continue
        if p is not None:
            x, y = [s % p for s in x], [s % p for s in y]
            if x == y:
                continue
        elif [s * dr for s in x] == [s * dl for s in y]:
            continue
        yield j, _scalars(x, dl, p), _scalars(y, dr, p)


def _scalars(col, den, p):
    # a column of integer sums over den, reduced over F_p, as columns() does
    return [(i, s if p else Fraction(s, den)) for i, s in enumerate(col) if s]


def identity(n, field=QQ):
    return LinMap.from_terms(field, n, n, ((i, i, field.one) for i in range(n)))


def zero_map(rows, cols, field=QQ):
    return LinMap.from_terms(field, rows, cols, ())


def diag(scalars, field=QQ):
    n = len(scalars)
    return LinMap.from_terms(field, n, n, (
        (i, i, field.coerce(s)) for i, s in enumerate(scalars)))


def _compose_check(f_field, f_shape, g_field, g_shape):
    # compose's refusals but the cap, for f after g of these fields and shapes
    if f_field != g_field:
        raise ValueError("field mismatch in compose")
    if f_shape[1] != g_shape[0]:
        raise ValueError(
            f"dimension mismatch in compose: {f_shape[0]}x{f_shape[1]} after "
            f"{g_shape[0]}x{g_shape[1]}")


def compose(g, f):
    """g after f."""
    return g.compose(f)


def compose_all(*maps):
    """Compose left to right as written: compose_all(f, g, h) = f . g . h."""
    if not maps:
        raise ValueError("compose_all needs at least one map")
    return reduce(LinMap.compose, maps)


def kron(f, g):
    """f (x) g on flattened indices: column flat(j,l) holds f(e_j) (x) g(e_l)."""
    return f.kron(g)


def kron_all(*maps):
    if not maps:
        raise ValueError("kron_all needs at least one map")
    return reduce(LinMap.kron, maps)


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
    # source flat order is left to right, so add one slot at a time
    targets = [0]
    for d, w in zip(dims, weight):
        targets = [t + i * w for t in targets for i in range(d)]
    return targets


def flip_map(d_u, d_v, field=QQ):
    """The swap u (x) v -> v (x) u as a (d_u*d_v) square permutation matrix."""
    return permute_tensor((d_u, d_v), (1, 0), field)


def unflatten_index(flat, dims):
    """Inverse of left-to-right flattening: flat -> factor index tuple."""
    idx = []
    for d in reversed(dims):
        idx.append(flat % d)
        flat //= d
    if flat:
        raise ValueError("flat index out of range")
    return tuple(reversed(idx))
