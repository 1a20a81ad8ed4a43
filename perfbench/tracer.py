"""Per-layer tracing from outside the program.

The tracer replaces named public functions of the homcat modules with
wrappers for the length of one traced pass and puts the originals back
afterwards. Each wrapped call records a span (layer name, start, end,
parent span, top-level op id). A layer's self time is its span's duration
minus the durations of its child spans and minus the tracer's own
bookkeeping done inside the span, so counting work never shows up as
program time.

Counts are recorded at the same boundaries: multiply-adds and nonzeros of
kernel calls, entries compared by compare_maps, distinct check_yd inputs,
and the bytes the CLI reads and writes.
"""

import builtins
import os
import sys
import time
from collections import defaultdict

from homcat import exact_tensor

_clock = time.perf_counter


def _nnz(data):
    return sum(map(bool, data))


def _compose_madds(args):
    # the kernel for a @ b skips zero entries of a and iterates only the
    # nonzeros of each b row, so its work is sum_t nnzcol(a, t) * nnzrow(b, t)
    a, b = args
    ac, bc = a.cols, b.cols
    ad, bd = a.data, b.data
    return sum(_nnz(ad[t::ac]) * _nnz(bd[t * bc:(t + 1) * bc])
               for t in range(ac))


# Layers wrapped by name: module-level functions, found by identity in every
# homcat module namespace that holds them.
FUNCTION_LAYERS = {
    "hom_structures": ("compare_maps", "check_hom_bialgebra"),
    "rep_theory": ("tensor_module", "check_module", "twist_module",
                   "check_comodule"),
    "qt_braiding": ("check_r_conditions", "braiding_from_r",
                    "check_braiding_morphism", "check_hexagon_instances",
                    "b_from_qt"),
    "yetter_drinfeld": ("check_yd", "b_yd", "yd_tensor"),
    "dehomify": ("check_pentagon", "check_hexagons", "cross_check_yd"),
    "workbench_cli": ("main", "parse_structure", "structure_to_dict",
                      "canonical_dumps"),
}

# The kernels are LinMap methods; the module-level compose/kron helpers
# delegate to them, so wrapping the methods sees every call.
METHOD_LAYERS = ("compose", "kron", "inverse", "rank")


def homcat_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "homcat" or name.startswith("homcat."))]


def layer_names():
    names = [f"exact_tensor.{m}" for m in METHOD_LAYERS]
    for mod, funcs in FUNCTION_LAYERS.items():
        names.extend(f"{mod}.{f}" for f in funcs)
    return names


def originals():
    """Map layer name -> the original public object, taken from its home module."""
    out = {}
    for m in METHOD_LAYERS:
        out[f"exact_tensor.{m}"] = exact_tensor.LinMap.__dict__[m]
    for mod, funcs in FUNCTION_LAYERS.items():
        home = sys.modules[f"homcat.{mod}"]
        for f in funcs:
            out[f"{mod}.{f}"] = getattr(home, f)
    return out


def unwrapped_problems(expected):
    """Names under which a wrapper, not the original object, is reachable."""
    problems = []
    for name, orig in expected.items():
        mod, attr = name.split(".")
        if mod == "exact_tensor":
            if exact_tensor.LinMap.__dict__[attr] is not orig:
                problems.append(f"LinMap.{attr}")
            continue
        for m in homcat_modules():
            val = m.__dict__.get(attr)
            if val is not None and getattr(val, "__wrapped_layer__", None):
                problems.append(f"{m.__name__}.{attr}")
        if getattr(sys.modules[f"homcat.{mod}"], attr) is not orig:
            problems.append(f"homcat.{mod}.{attr}")
    if "open" in sys.modules["homcat.workbench_cli"].__dict__:
        problems.append("homcat.workbench_cli.open")
    return problems


class Tracer:
    """Spans and counts for one traced pass."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent, op_id, overhead]
        self._stack = []
        self.op_id = None
        self.counts = defaultdict(int)
        self.max_map_entries = 0
        self._yd_inputs = set()
        self._patches = []     # (module or class, attr, original or None)
        self._written = []

    # ------------------------------------------------------------ spans

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            t_in = _clock()
            note = before(args) if before is not None else None
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name, 0.0, 0.0, parent, self.op_id, 0.0]
            spans.append(span)
            stack.append(idx)
            span[1] = start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = end = _clock()
                stack.pop()
            if after is not None:
                after(args, result, note)
            if parent >= 0:
                spans[parent][5] += (start - t_in) + (_clock() - end)
            return result

        wrapper.__wrapped_layer__ = name
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def tag_ops(self, ops):
        """The (label, op) list with each op's spans carrying its label."""
        def tagged(label, op):
            def run(ctx):
                self.op_id = label
                return op(ctx)
            return run
        return [(label, tagged(label, op)) for label, op in ops]

    # ---------------------------------------------------------- counters

    def _kernel_after(self, layer):
        counts = self.counts

        def after(args, out, note):
            entries = out.rows * out.cols
            counts[f"{layer}.entries"] += entries
            if layer == "exact_tensor.compose":
                counts[f"{layer}.nnz"] += _nnz(out.data)
                counts[f"{layer}.madds"] += note
                biggest = max(entries, len(args[0].data), len(args[1].data))
            else:
                a, b = args
                counts[f"{layer}.nnz"] += _nnz(a.data) * _nnz(b.data)
                biggest = entries
            if biggest > self.max_map_entries:
                self.max_map_entries = biggest
        return after

    def _compare_after(self, args, result, note):
        lhs = args[1]
        self.counts["hom_structures.compare_maps.entries"] += lhs.rows * lhs.cols
        if not result[0]:
            self.counts["hom_structures.compare_maps.failed"] += 1

    def _check_yd_before(self, args):
        H, M = args[0], args[1]
        self._yd_inputs.add((H.field, H.mul, H.comul, H.alpha, H.psi,
                             M.action, M.coaction, M.alpha))

    def _tracking_open(self, path, mode="r", *args, **kwargs):
        if "r" in mode:
            self.counts["workbench_cli.bytes_read"] += os.path.getsize(path)
        else:
            self._written.append(path)
        return builtins.open(path, mode, *args, **kwargs)

    def _main_after(self, args, result, note):
        for path in self._written:
            self.counts["workbench_cli.bytes_written"] += os.path.getsize(path)
        self._written.clear()

    # ------------------------------------------------------ install/remove

    def install(self):
        linmap = exact_tensor.LinMap
        for m in METHOD_LAYERS:
            name = f"exact_tensor.{m}"
            orig = linmap.__dict__[m]
            before = _compose_madds if m == "compose" else None
            after = None
            if m in ("compose", "kron"):
                after = self._kernel_after(name)
            self._patches.append((linmap, m, orig))
            setattr(linmap, m, self._wrap(name, orig, before, after))
        hooks = {
            "hom_structures.compare_maps": (None, self._compare_after),
            "yetter_drinfeld.check_yd": (self._check_yd_before, None),
            "workbench_cli.main": (None, self._main_after),
        }
        mods = homcat_modules()
        for mod, funcs in FUNCTION_LAYERS.items():
            for f in funcs:
                name = f"{mod}.{f}"
                orig = getattr(sys.modules[f"homcat.{mod}"], f)
                before, after = hooks.get(name, (None, None))
                wrapper = self._wrap(name, orig, before, after)
                for m in mods:
                    if m.__dict__.get(f) is orig:
                        self._patches.append((m, f, orig))
                        setattr(m, f, wrapper)
        cli = sys.modules["homcat.workbench_cli"]
        self._patches.append((cli, "open", None))
        cli.open = self._tracking_open

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            if orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._patches.clear()

    # ----------------------------------------------------------- results

    def layer_metrics(self):
        """Per-layer metrics: {name: (value, unit)}."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _ov in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _p, _op, overhead) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i] - overhead
        c = self.counts
        out = {}
        for name in layer_names():
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        for layer in ("exact_tensor.compose", "exact_tensor.kron"):
            entries = c[f"{layer}.entries"]
            out[f"{layer}.entries"] = (entries, "count")
            out[f"{layer}.nnz_ratio"] = (c[f"{layer}.nnz"] / entries
                                         if entries else 0.0, "ratio")
        out["exact_tensor.compose.madds"] = (c["exact_tensor.compose.madds"],
                                             "count")
        out["exact_tensor.max_map_entries"] = (self.max_map_entries, "count")
        cm_calls = calls["hom_structures.compare_maps"]
        out["hom_structures.compare_maps.entries"] = (
            c["hom_structures.compare_maps.entries"], "count")
        out["hom_structures.compare_maps.fail_ratio"] = (
            c["hom_structures.compare_maps.failed"] / cm_calls
            if cm_calls else 0.0, "ratio")
        yd_calls = calls["yetter_drinfeld.check_yd"]
        out["yetter_drinfeld.check_yd.distinct_ratio"] = (
            len(self._yd_inputs) / yd_calls if yd_calls else 0.0, "ratio")
        out["workbench_cli.bytes_read"] = (c["workbench_cli.bytes_read"], "bytes")
        out["workbench_cli.bytes_written"] = (c["workbench_cli.bytes_written"],
                                              "bytes")
        return out
