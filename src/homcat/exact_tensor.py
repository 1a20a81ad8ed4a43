"""Exact scalars, dense linear maps, and fixed tensor-index conventions.

Everything downstream represents structure maps as `LinMap` objects over a
shared `Field` (rationals or a prime field) and identifies a tensor product
basis vector e_i (x) e_j with the flat basis vector e_{i*dimJ + j}. Nested
products flatten left to right, so (U (x) V) (x) W and U (x) (V (x) W) share
flat indices and associativity constraints become literal matrix equalities.

All arithmetic is exact. Equality of maps is entrywise scalar equality,
never tolerance based.
"""

from __future__ import annotations

from fractions import Fraction

from . import _kernels_py as _K

try:
    from gmpy2 import mpq as _RAT
except ImportError:  # pragma: no cover
    _RAT = Fraction

# the one kernel backend, reported in benchmark and environment labels
KERNEL_BACKEND = "python"


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


class Field:
    """Scalar field descriptor: characteristic 0 (exact rationals) or p.

    Rational scalars are gmpy2.mpq if the optional gmpy2 package is
    installed and fractions.Fraction if it is not; both keep lowest terms
    with positive denominator. Prime field scalars are plain ints
    canonicalized into [0, p).
    """

    __slots__ = ("char", "zero", "one")

    def __init__(self, char):
        if char != 0:
            if not _is_prime(char):
                raise ValueError(f"field characteristic must be 0 or prime, got {char}")
        object.__setattr__(self, "char", char)
        if char == 0:
            object.__setattr__(self, "zero", _RAT(0))
            object.__setattr__(self, "one", _RAT(1))
        else:
            object.__setattr__(self, "zero", 0)
            object.__setattr__(self, "one", 1)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    def coerce(self, value):
        """Normalize ints, 'a/b' strings, Fractions or scalars into this field."""
        p = self.char
        if p == 0:
            if isinstance(value, str):
                return _RAT(Fraction(value))
            if isinstance(value, (int, Fraction)):
                return _RAT(value)
            if isinstance(value, float):
                raise ValueError("floating point scalars are not accepted; use 'a/b'")
            return _RAT(value)
        if isinstance(value, str):
            value = Fraction(value)
        if isinstance(value, int):
            return value % p
        if isinstance(value, Fraction) or type(value) is type(_RAT(1)):
            num = int(value.numerator) % p
            den = int(value.denominator) % p
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
            return 1 / _RAT(s)
        return pow(s, self.char - 2, self.char)

    def neg(self, s):
        return -s if self.char == 0 else (-s) % self.char

    def scalar_to_str(self, s):
        return str(s)

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
    """The prime field with p elements (p prime)."""
    f = _GF_CACHE.get(p)
    if f is None:
        f = Field(p)
        _GF_CACHE[p] = f
    return f


def flatten_index(i, j, dim_j):
    """Flat position of e_i (x) e_j when the right factor has dim_j basis vectors."""
    return i * dim_j + j


class LinMap:
    """Immutable dense linear map, stored row major over an exact field.

    Columns index the source basis, rows the target basis: column j is the
    image of source basis vector e_j.
    """

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, rows, cols, entries):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        flat = tuple(field.coerce(v) for v in entries)
        if len(flat) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(flat)}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", flat)

    def __setattr__(self, name, value):
        raise AttributeError("LinMap is immutable")

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
        cols = len(col_lists)
        flat = [field.zero] * (rows * cols)
        for j, col in enumerate(col_lists):
            if len(col) != rows:
                raise ValueError("column length mismatch")
            for i, v in enumerate(col):
                flat[i * cols + j] = field.coerce(v)
        return cls._wrap(field, rows, cols, tuple(flat))

    def entry(self, i, j):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("entry out of range")
        return self.data[i * self.cols + j]

    def row_lists(self):
        c = self.cols
        return [list(self.data[i * c:(i + 1) * c]) for i in range(self.rows)]

    def column(self, j):
        return tuple(self.data[i * self.cols + j] for i in range(self.rows))

    def compose(self, other):
        """self after other: (self.compose(f))(v) = self(f(v))."""
        if self.field != other.field:
            raise ValueError("field mismatch in compose")
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch in compose: {self.rows}x{self.cols} after "
                f"{other.rows}x{other.cols}")
        flat = _K.mat_mul(self.data, self.rows, self.cols,
                          other.data, other.rows, other.cols,
                          self.field.zero, self.field.modulus)
        return LinMap._wrap(self.field, self.rows, other.cols, flat)

    def kron(self, other):
        if self.field != other.field:
            raise ValueError("field mismatch in kron")
        flat = _K.kron(self.data, self.rows, self.cols,
                       other.data, other.rows, other.cols,
                       self.field.zero, self.field.modulus)
        return LinMap._wrap(self.field, self.rows * other.rows,
                            self.cols * other.cols, flat)

    def add(self, other):
        if self.field != other.field:
            raise ValueError("field mismatch in add")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        p = self.field.modulus
        if p is None:
            flat = tuple(a + b for a, b in zip(self.data, other.data))
        else:
            flat = tuple((a + b) % p for a, b in zip(self.data, other.data))
        return LinMap._wrap(self.field, self.rows, self.cols, flat)

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, c):
        c = self.field.coerce(c)
        p = self.field.modulus
        if p is None:
            flat = tuple(c * v for v in self.data)
        else:
            flat = tuple(c * v % p for v in self.data)
        return LinMap._wrap(self.field, self.rows, self.cols, flat)

    def apply(self, vec):
        """Apply to a column vector given as a sequence of scalars."""
        v = tuple(self.field.coerce(x) for x in vec)
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return _K.mat_vec(self.data, self.rows, self.cols, v,
                          self.field.zero, self.field.modulus)

    def is_zero(self):
        return not any(self.data)

    def is_identity(self):
        if self.rows != self.cols:
            return False
        one, zero = self.field.one, self.field.zero
        c = self.cols
        return all(self.data[i * c + j] == (one if i == j else zero)
                   for i in range(self.rows) for j in range(c))

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
    one, zero = field.one, field.zero
    flat = tuple(one if i == j else zero for i in range(n) for j in range(n))
    return LinMap._wrap(field, n, n, flat)


def zero_map(rows, cols, field=QQ):
    return LinMap._wrap(field, rows, cols, (field.zero,) * (rows * cols))


def diag(scalars, field=QQ):
    n = len(scalars)
    flat = [field.zero] * (n * n)
    for i, s in enumerate(scalars):
        flat[i * n + i] = field.coerce(s)
    return LinMap._wrap(field, n, n, tuple(flat))


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
    k = len(dims)
    if sorted(perm) != list(range(k)):
        raise ValueError("perm must be a permutation of the factor slots")
    total = 1
    for d in dims:
        total *= d
    out_dims = [dims[s] for s in perm]
    flat = [field.zero] * (total * total)
    one = field.one
    for src in range(total):
        # unflatten src into factor indices, left factor most significant
        idx = []
        rem = src
        for d in reversed(dims):
            idx.append(rem % d)
            rem //= d
        idx.reverse()
        dst = 0
        for s in range(k):
            dst = dst * out_dims[s] + idx[perm[s]]
        flat[dst * total + src] = one
    return LinMap._wrap(field, total, total, tuple(flat))


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
