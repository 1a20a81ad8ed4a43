"""Kernel probe: the six kernel inputs of benchmarks/bench_kernels.py.

Only the pure-Python backend is timed; the compiled extension needs Cython
to build. For each input the probe reports the median seconds of a few
calls, plus multiply-adds and entries moved, both computed from the inputs
(not counted by the kernel) and labelled as such.
"""

import random
import statistics
import time

from homcat import _kernels_py
from homcat.exact_tensor import GF, QQ

REPEATS = 5


def _dense(rng, field, rows, cols, span=9):
    return tuple(field.coerce(rng.randint(-span, span))
                 for _ in range(rows * cols))


def _sparse(rng, field, rows, cols):
    # one nonzero per row, the shape of a basis-permuting structure map
    data = [field.zero] * (rows * cols)
    for i in range(rows):
        data[i * cols + rng.randrange(cols)] = field.coerce(
            rng.choice([1, 2, 3, -1]))
    return tuple(data)


def _nnz(data):
    return sum(map(bool, data))


def _inputs(rng):
    f97 = GF(97)
    out = []

    def mat_mul(label, a, ar, ac, b, br, bc, field):
        madds = sum(_nnz(a[t::ac]) * _nnz(b[t * bc:(t + 1) * bc])
                    for t in range(ac))
        moved = ar * ac + br * bc + ar * bc
        out.append((label, _kernels_py.mat_mul,
                    (a, ar, ac, b, br, bc, field.zero, field.modulus),
                    madds, moved))

    def kron(label, a, ar, ac, b, br, bc, field):
        moved = ar * ac + br * bc + ar * ac * br * bc
        out.append((label, _kernels_py.kron,
                    (a, ar, ac, b, br, bc, field.zero, field.modulus),
                    _nnz(a) * _nnz(b), moved))

    mat_mul("mat_mul_dense40_q", _dense(rng, QQ, 40, 40), 40, 40,
            _dense(rng, QQ, 40, 40), 40, 40, QQ)
    mat_mul("mat_mul_dense70_f97", _dense(rng, f97, 70, 70, 96), 70, 70,
            _dense(rng, f97, 70, 70, 96), 70, 70, f97)
    mat_mul("mat_mul_sparse120_dense120x90_q",
            _sparse(rng, QQ, 120, 120), 120, 120,
            _dense(rng, QQ, 120, 90), 120, 90, QQ)
    kron("kron_dense12_q", _dense(rng, QQ, 12, 12), 12, 12,
         _dense(rng, QQ, 12, 12), 12, 12, QQ)
    kron("kron_dense16_f97", _dense(rng, f97, 16, 16, 96), 16, 16,
         _dense(rng, f97, 16, 16, 96), 16, 16, f97)
    a = _dense(rng, QQ, 90, 90)
    v = _dense(rng, QQ, 90, 1)
    vnz = [j for j in range(90) if v[j]]
    madds = sum(1 for i in range(90) for j in vnz if a[i * 90 + j])
    out.append(("mat_vec_dense90_q", _kernels_py.mat_vec,
                (a, 90, 90, v, QQ.zero, QQ.modulus), madds, 90 * 90 + 90 + 90))
    return out


def run(seed):
    """Time each probe input; returns {metric name: (value, unit)}."""
    rng = random.Random(seed)
    metrics = {}
    for label, fn, args, madds, moved in _inputs(rng):
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - t0)
        base = f"kernel_probe.{label}"
        metrics[f"{base}.s"] = (statistics.median(times), "s")
        metrics[f"{base}.madds_computed"] = (madds, "count")
        metrics[f"{base}.entries_computed"] = (moved, "count")
    return metrics

