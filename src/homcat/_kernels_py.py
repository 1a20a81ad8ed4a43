"""Pure-Python matrix kernels.

The matrix kernels behind LinMap: dense matrix multiply, Kronecker
product and matrix-vector product on flat row-major tuples of exact
scalars. Scalars are either rational objects (characteristic 0, modulus
None) or plain ints reduced into [0, p) when a prime modulus is given.
"""


def mat_mul(a, ar, ac, b, br, bc, zero, modulus=None):
    """Multiply a (ar x ac) @ b (br x bc), ac == br. Returns flat tuple.

    Every entry of both operands is tested for zero: the scan alone costs
    ar*ac + br*bc truth tests, however sparse the maps are. Arithmetic is
    then done only for pairs of nonzeros, one multiply-add for each
    nonzero a[i, t] and each nonzero of b's row t; over F_p each of the
    ar*bc output entries is reduced once at the end.
    """
    out = [zero] * (ar * bc)
    b_rows = []
    for t in range(br):
        base = t * bc
        b_rows.append([(j, b[base + j]) for j in range(bc) if b[base + j]])
    for i in range(ar):
        abase = i * ac
        obase = i * bc
        for t in range(ac):
            av = a[abase + t]
            if not av:
                continue
            for j, bv in b_rows[t]:
                out[obase + j] = out[obase + j] + av * bv
    if modulus is not None:
        for i in range(ar * bc):
            out[i] = out[i] % modulus
    return tuple(out)


def kron(a, ar, ac, b, br, bc, zero, modulus=None):
    """Kronecker product on flat row-major data.

    out[(i*br+k)*(ac*bc) + (j*bc+l)] = a[i,j] * b[k,l]
    """
    cols = ac * bc
    out = [zero] * (ar * br * cols)
    bnz = [(k, l, b[k * bc + l])
           for k in range(br) for l in range(bc) if b[k * bc + l]]
    for i in range(ar):
        abase = i * ac
        for j in range(ac):
            av = a[abase + j]
            if not av:
                continue
            rbase = i * br
            cbase = j * bc
            for k, l, bv in bnz:
                v = av * bv
                if modulus is not None:
                    v = v % modulus
                out[(rbase + k) * cols + cbase + l] = v
    return tuple(out)


def mat_vec(a, ar, ac, v, zero, modulus=None):
    """Apply a (ar x ac) to column vector v (length ac). Returns tuple."""
    out = [zero] * ar
    vnz = [(j, v[j]) for j in range(ac) if v[j]]
    for i in range(ar):
        base = i * ac
        acc = zero
        for j, vv in vnz:
            av = a[base + j]
            if av:
                acc = acc + av * vv
        out[i] = acc % modulus if modulus is not None else acc
    return tuple(out)
