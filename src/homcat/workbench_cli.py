"""Command line workbench: JSON structure files, generators, check dispatch.

File format (StructureFile). Every file is a single JSON object with
"kind" naming the structure and "field" either "Q" or {"Fp": p}. Scalars
are strings: reduced "a/b" with positive denominator over the rationals
("a" when the denominator is 1), decimal residues mod p. Cubes are nested
arrays indexed as documented in docs/formats.md; matrices are arrays of
rows. Module-like files may carry "parent", the bialgebra file they live
over, resolved relative to the referencing file.

Report format (ReportFile). One JSON object on stdout per invocation:
{"command": [...], "axioms": [{"axiom", "pass", "counterexample"?}, ...],
"pass": bool, "time_seconds": float}; a human summary goes to stderr.
Exit codes: 0 every axiom passed, 1 at least one axiom failed (report
still emitted), 2 malformed input or a precondition rejected the request.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from math import isqrt

from .exact_tensor import GF, QQ, LinMap, check_size, identity
from .hom_structures import (
    CheckReport, HomAlgebra, HomBialgebra, HomCoalgebra, check_hom_algebra,
    check_hom_bialgebra, check_hom_coalgebra, require,
)
from .rep_theory import (
    action_cube, check_comodule, check_module, check_module_hom_algebra,
    coaction_cube, comodule_from_cube, module_from_cube, tensor_module,
)
from .qt_braiding import (
    RMatrix, b_from_qt, braiding_from_r, check_braiding_morphism,
    check_hexagon_instances, check_hom_ybe, check_mixed_hom_ybe,
    check_r_conditions,
)
from .yetter_drinfeld import b_yd, check_yd, yd_from_cubes, yd_tensor
from .dehomify import ConstraintFamily, check_hexagons, check_pentagon, \
    cross_check_yd
from . import hom_structures


# --------------------------------------------------------------- field codec

def field_to_json(field):
    return "Q" if field.char == 0 else {"Fp": field.char}


def field_from_json(obj):
    if obj == "Q":
        return QQ
    if isinstance(obj, dict) and set(obj) == {"Fp"}:
        p = obj["Fp"]
        if type(p) is not int:
            raise ValueError("Fp must carry an integer prime")
        return GF(p)
    raise ValueError(f"unknown field descriptor: {obj!r}")


# "a" or "a/b" with b != 0, as docs/formats.md specifies
_SCALAR = re.compile(r"-?[0-9]+(?:/0*[1-9][0-9]*)?")


def _scalar_in(field, s):
    if type(s) is not int and not (isinstance(s, str) and _SCALAR.fullmatch(s)):
        raise ValueError(f"scalars must be integers or strings 'a' or 'a/b' "
                         f"with b != 0, got {s!r}")
    return field.coerce(s)


def matrix_to_json(m):
    return [[str(v) for v in row] for row in m.row_lists()]


def matrix_from_json(field, rows, nrows=None, ncols=None):
    if not isinstance(rows, list) or not rows or \
            not all(isinstance(r, list) for r in rows):
        raise ValueError("matrix must be a non-empty array of rows")
    data = [[_scalar_in(field, v) for v in r] for r in rows]
    m = LinMap.from_rows(field, data)
    if nrows is not None and m.rows != nrows:
        raise ValueError(f"matrix has {m.rows} rows, declared {nrows}")
    if ncols is not None and m.cols != ncols:
        raise ValueError(f"matrix has {m.cols} cols, declared {ncols}")
    return m


def cube_to_json(cube):
    return [[[str(v) for v in row] for row in plane] for plane in cube]


def cube_from_json(field, data, dims):
    d0, d1, d2 = dims
    if not isinstance(data, list) or len(data) != d0:
        raise ValueError(f"cube outer length {len(data) if isinstance(data, list) else '?'} != {d0}")
    out = []
    for plane in data:
        if not isinstance(plane, list) or len(plane) != d1:
            raise ValueError(f"cube middle length != {d1}")
        rows = []
        for row in plane:
            if not isinstance(row, list) or len(row) != d2:
                raise ValueError(f"cube inner length != {d2}")
            rows.append([_scalar_in(field, v) for v in row])
        out.append(rows)
    return out


def canonical_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ------------------------------------------------------ structure file codec

def _cube_in(field, data, n):
    return cube_from_json(field, data, (n, n, n))


def _square_in(field, data, n):
    return matrix_from_json(field, data, n, n)


def _action_in(field, act, dm):
    if not isinstance(act, list) or not act:
        raise ValueError("action must be a non-empty cube")
    return cube_from_json(field, act, (len(act), dm, dm))


def _coaction_in(field, co, dm):
    if not isinstance(co, list) or len(co) != dm or \
            not isinstance(co[0], list) or not co[0]:
        raise ValueError("coaction must be a cube of the declared dim")
    return cube_from_json(field, co, (dm, len(co[0]), dm))


def _coeffs_in(field, coeffs, n):
    if not isinstance(coeffs, list) or len(coeffs) != n * n:
        raise ValueError("rmatrix needs exactly dim*dim coeffs")
    return [_scalar_in(field, v) for v in coeffs]


# key -> (decoder(field, value, dim), encoder(obj))
_KEYS = {
    "mul": (_cube_in, lambda o: cube_to_json(o.mul)),
    "comul": (_cube_in, lambda o: cube_to_json(o.comul)),
    "alpha": (_square_in, lambda o: matrix_to_json(o.alpha)),
    "psi": (_square_in, lambda o: matrix_to_json(o.psi)),
    "action": (_action_in, lambda o: cube_to_json(action_cube(o))),
    "coaction": (_coaction_in, lambda o: cube_to_json(coaction_cube(o))),
    "coeffs": (_coeffs_in, lambda o: [str(v) for v in o.coeffs]),
}

# kind -> (constructor(field, *decoded keys), keys in file order, keeps
# parent); mirrors the "Structure files" table of docs/formats.md. linmap
# (rows, cols, matrix; no dim) is the one kind outside the table.
_KINDS = {
    "algebra": (HomAlgebra, ("mul", "alpha"), False),
    "coalgebra": (HomCoalgebra, ("comul", "psi"), False),
    "bialgebra": (HomBialgebra, ("mul", "comul", "alpha", "psi"), False),
    "module": (module_from_cube, ("action", "alpha"), True),
    "comodule": (comodule_from_cube, ("coaction", "psi"), True),
    "yd": (yd_from_cubes, ("action", "coaction", "alpha"), True),
    "rmatrix": (lambda field, coeffs: RMatrix(field, isqrt(len(coeffs)),
                                              coeffs), ("coeffs",), True),
}
KINDS = (*_KINDS, "linmap")


class Parsed:
    """One decoded structure file: kind, the constructed object, parent ref."""

    __slots__ = ("kind", "obj", "parent")

    def __init__(self, kind, obj, parent=None):
        self.kind = kind
        self.obj = obj
        self.parent = parent


def _get(d, key):
    if key not in d:
        raise ValueError(f"structure file is missing {key!r}")
    return d[key]


def _dim(d, key):
    v = _get(d, key)
    if type(v) is not int or v < 1:
        raise ValueError(f"{key} must be a positive integer")
    return v


def parse_structure(d):
    if not isinstance(d, dict):
        raise ValueError("structure file must be a JSON object")
    kind = d.get("kind")
    if kind not in KINDS:
        raise ValueError(f"unknown kind: {kind!r}")
    field = field_from_json(_get(d, "field"))
    parent = d.get("parent")
    if parent is not None and not isinstance(parent, str):
        raise ValueError("parent must be a file name string")
    if kind == "linmap":
        r, c = _dim(d, "rows"), _dim(d, "cols")
        return Parsed(kind, matrix_from_json(field, _get(d, "matrix"), r, c))
    make, keys, keeps_parent = _KINDS[kind]
    n = _dim(d, "dim")
    obj = make(field, *(_KEYS[k][0](field, _get(d, k), n) for k in keys))
    return Parsed(kind, obj, parent if keeps_parent else None)


def structure_to_dict(kind, obj, parent=None):
    """Inverse of parse_structure for every supported kind."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind: {kind!r}")
    out = {"kind": kind, "field": field_to_json(obj.field)}
    if parent is not None:
        out["parent"] = parent
    if kind == "linmap":
        out.update(rows=obj.rows, cols=obj.cols, matrix=matrix_to_json(obj))
        return out
    out["dim"] = obj.dim
    for k in _KINDS[kind][1]:
        out[k] = _KEYS[k][1](obj)
    return out


# ------------------------------------------------------------------- loaders

def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _of_kind(path, parsed, kinds):
    if kinds and parsed.kind not in kinds:
        raise ValueError(f"{path}: expected kind in {kinds}, got {parsed.kind}")
    return parsed


def load_structure(path, *kinds):
    return _of_kind(path, parse_structure(_load_json(path)), kinds)


def _resolve_parent(path, parsed, explicit):
    ref = explicit or parsed.parent
    if ref is None:
        raise ValueError(f"{path}: no parent bialgebra reference; pass one "
                         "explicitly")
    if explicit is None:
        ref = os.path.join(os.path.dirname(os.path.abspath(path)), ref)
    H = load_structure(ref, "bialgebra").obj
    if H.field != parsed.obj.field:
        raise ValueError(f"{path}: field differs from its parent bialgebra")
    return H


# ---------------------------------------------------------------- generators

def gen_group_bialgebra(n, k):
    """Cyclic group bialgebra twisted along e_i -> e_(ik mod n).

    The product sends e_i (x) e_j to e_((i+j)k mod n), the coproduct sends
    e_i to the square of e_(ik mod n), both structure maps are the same
    basis map. The output is never trusted: its full CheckReport rides
    along.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    if not isinstance(k, int) or k < 0:
        raise ValueError("k must be a non-negative integer")
    check_size(n, n * n, "group-bialgebra cube")
    field = QQ
    z, o = field.zero, field.one
    mul = [[[o if t == ((i + j) * k) % n else z for t in range(n)]
            for j in range(n)] for i in range(n)]
    comul = [[[o if i == (t * k) % n and j == (t * k) % n else z
               for j in range(n)] for i in range(n)] for t in range(n)]
    alpha = LinMap.from_cols(field,
                             [[o if r == (i * k) % n else z for r in range(n)]
                              for i in range(n)], n)
    H = HomBialgebra(field, mul, comul, alpha, alpha)
    return H, check_hom_bialgebra(H)


def gen_kz2_qt(field=QQ):
    """Order-two group bialgebra with its triangular structure.

    R = (1 (x) 1 + 1 (x) g + g (x) 1 - g (x) g) / 2, which needs 1/2 in
    the base field.
    """
    if field.char == 2:
        raise ValueError("characteristic-2 field has no 1/2; no "
                         "quasitriangular structure of this shape exists")
    z, o = field.zero, field.one
    mul = [[[o if t == (i + j) % 2 else z for t in range(2)]
            for j in range(2)] for i in range(2)]
    comul = [[[o if i == t and j == t else z for j in range(2)]
              for i in range(2)] for t in range(2)]
    H = HomBialgebra(field, mul, comul, identity(2, field),
                     identity(2, field))
    h = field.coerce("1/2")
    R = RMatrix(field, 2, [h, h, h, field.neg(h)])
    return H, R


# ------------------------------------------------------------------ reports

def report_to_dict(argv, report, seconds):
    first = {}
    for v in report.violations:
        first.setdefault(v.axiom, v)
    axioms = []
    for a in sorted(report.axiom_status):
        entry = {"axiom": a, "pass": report.axiom_status[a]}
        v = first.get(a)
        if v is not None:
            entry["counterexample"] = v.counterexample()
        axioms.append(entry)
    return {"command": list(argv), "axioms": axioms, "pass": report.ok,
            "time_seconds": round(seconds, 6)}


def _emit(argv, report, seconds, artifacts, out):
    doc = report_to_dict(argv, report, seconds)
    for path, payload in artifacts:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical_dumps(payload))
    sys.stdout.write(canonical_dumps(doc))
    for entry in doc["axioms"]:
        tag = "pass" if entry["pass"] else "FAIL"
        where = ""
        if "counterexample" in entry:
            where = f"  first counterexample at {tuple(entry['counterexample']['index'])}"
        print(f"{entry['axiom']}: {tag}{where}", file=sys.stderr)
    verdict = "PASS" if doc["pass"] else "FAIL"
    print(f"overall: {verdict} ({len(doc['axioms'])} axioms, "
          f"{doc['time_seconds']}s)", file=sys.stderr)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(canonical_dumps(doc))
    return 0 if report.ok else 1


# ------------------------------------------------------------------ commands

def _cmd_check(args):
    what = args.what
    if what in ("algebra", "coalgebra", "bialgebra"):
        obj = load_structure(args.file, what).obj
        fn = {"algebra": check_hom_algebra, "coalgebra": check_hom_coalgebra,
              "bialgebra": check_hom_bialgebra}[what]
        return fn(obj), []
    if what in ("module", "comodule", "yd"):
        parsed = load_structure(args.file, what)
        H = _resolve_parent(args.file, parsed, args.parent)
        fn = {"module": check_module, "comodule": check_comodule,
              "yd": check_yd}[what]
        return fn(H, parsed.obj), []
    if what == "qt":
        H = load_structure(args.bialgebra, "bialgebra").obj
        R = load_structure(args.r, "rmatrix").obj
        return check_r_conditions(H, R), []
    # mha
    H = load_structure(args.bialgebra, "bialgebra").obj
    A = load_structure(args.algebra, "algebra").obj
    act = load_structure(args.action, "module").obj
    return check_module_hom_algebra(H, A, act), []


def _cmd_twist(args):
    endo = load_structure(args.endo, "linmap").obj
    if args.bialgebra:
        src = load_structure(args.bialgebra, "bialgebra").obj
        twisted = hom_structures.yau_twist_bialgebra(src.mul, src.comul, endo)
        report = check_hom_bialgebra(twisted)
        kind = "bialgebra"
    else:
        src = load_structure(args.algebra, "algebra").obj
        twisted = hom_structures.yau_twist_algebra(src.mul, endo)
        report = check_hom_algebra(twisted)
        kind = "algebra"
    artifacts = []
    if args.out:
        artifacts.append((args.out, structure_to_dict(kind, twisted)))
    return report, artifacts


def _cmd_tensor(args):
    if len(args.module) != 2:
        raise ValueError("tensor needs exactly two --module files")
    parsed = [load_structure(p) for p in args.module]
    H = load_structure(args.bialgebra, "bialgebra").obj
    kind = "yd" if {q.kind for q in parsed} == {"yd"} else "module"
    M, N = (_of_kind(p, q, (kind,)).obj for p, q in zip(args.module, parsed))
    if kind == "yd":
        T = yd_tensor(H, M, N)
        report = check_yd(H, T)
    else:
        T = tensor_module(H, M, N)
        report = check_module(H, T)
    artifacts = []
    if args.out:
        # parent is resolved relative to the file that names it
        parent = os.path.relpath(args.bialgebra,
                                 os.path.dirname(os.path.abspath(args.out)))
        artifacts.append((args.out, structure_to_dict(kind, T, parent)))
    return report, artifacts


def _cmd_braiding(args):
    if len(args.module) != 2:
        raise ValueError("braiding needs exactly two --module files")
    H = load_structure(args.bialgebra, "bialgebra").obj
    R = load_structure(args.r, "rmatrix").obj
    U = load_structure(args.module[0], "module").obj
    V = load_structure(args.module[1], "module").obj
    report = check_braiding_morphism(H, R, U, V)
    artifacts = []
    if args.out:
        bm = braiding_from_r(H, R, U, V)
        artifacts.append((args.out, structure_to_dict("linmap", bm.map)))
    return report, artifacts


def _cmd_bmap(args):
    H = load_structure(args.bialgebra, "bialgebra").obj
    R = load_structure(args.r, "rmatrix").obj
    M = load_structure(args.module, "module").obj
    b = b_from_qt(H, R, M)
    report = check_hom_ybe(b, M.alpha)
    artifacts = []
    if args.out:
        artifacts.append((args.out, structure_to_dict("linmap", b)))
    return report, artifacts


def _cmd_ybe(args):
    B = load_structure(args.map, "linmap").obj
    alpha = load_structure(args.alpha, "linmap").obj
    return check_hom_ybe(B, alpha), []


def _cmd_mixed_ybe(args):
    maps = [load_structure(p, "linmap").obj
            for p in (args.b_uv, args.b_uw, args.b_vw,
                      args.alpha_u, args.alpha_v, args.alpha_w)]
    return check_mixed_hom_ybe(*maps), []


def _cmd_hexagons(args):
    if len(args.module) != 3:
        raise ValueError("hexagons needs exactly three --module files")
    H = load_structure(args.bialgebra, "bialgebra").obj
    R = load_structure(args.r, "rmatrix").obj
    U, V, W = (load_structure(p, "module").obj for p in args.module)
    return check_hexagon_instances(H, R, U, V, W), []


def _yd_family(H, mods):
    """Pentagon/hexagon families with components = structure maps."""
    fam = ConstraintFamily(H.field)
    for i, M in enumerate(mods):
        fam.add_module(str(i), M.alpha)
    return fam


def _cmd_dehomify(args):
    H = load_structure(args.bialgebra, "bialgebra").obj
    mods = [load_structure(p, "yd").obj for p in args.module]
    if args.what == "pentagon":
        if len(mods) != 4:
            raise ValueError("dehomify pentagon needs four --module files")
        fam = _yd_family(H, mods)
        return check_pentagon(fam, "0", "1", "2", "3"), []
    if args.what == "hexagons":
        if len(mods) != 3:
            raise ValueError("dehomify hexagons needs three --module files")
        for M in mods:
            require(check_yd, H, M, what="module is not Yetter-Drinfeld:")
        fam = _yd_family(H, mods)
        U, V, W = mods
        fam.add_pair_map("0", "1", b_yd(H, U, V))
        fam.add_pair_map("0", "2", b_yd(H, U, W))
        fam.add_pair_map("1", "2", b_yd(H, V, W))
        fam.add_pair_map("0", ("1", "2"), b_yd(H, U, yd_tensor(H, V, W)))
        fam.add_pair_map(("0", "1"), "2", b_yd(H, yd_tensor(H, U, V), W))
        return check_hexagons(fam, fam, "0", "1", "2"), []
    # cross-check
    if len(mods) == 2:
        M, N = mods
        return cross_check_yd(H, M, N), []
    if len(mods) == 3:
        M, N, P = mods
        return cross_check_yd(H, M, N, P), []
    raise ValueError("dehomify cross-check needs two or three --module files")


def _cmd_gen(args):
    artifacts = []
    if args.what == "group-bialgebra":
        H, report = gen_group_bialgebra(args.n, args.k)
        if args.out:
            artifacts.append((args.out, structure_to_dict("bialgebra", H)))
        return report, artifacts
    field = GF(args.p) if args.p is not None else QQ
    H, R = gen_kz2_qt(field)
    report = CheckReport.merge(check_hom_bialgebra(H),
                               check_r_conditions(H, R))
    if args.out:
        artifacts.append((args.out, structure_to_dict("bialgebra", H)))
    if args.out_r:
        artifacts.append((args.out_r, structure_to_dict("rmatrix", R)))
    return report, artifacts


# -------------------------------------------------------------------- parser

@functools.cache
def _build_parser():
    """The homcat parser, built on the first main() call of a process.

    Later calls reuse it: parse_args keeps its results in a fresh namespace
    and copies append defaults, so calls share no parse state.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the emitted artifact (or for "
                                      "pure checks, a copy of the report) "
                                      "to this file")
    p = argparse.ArgumentParser(
        prog="homcat",
        description="Exact checker for twisted algebraic structures; JSON "
                    "reports on stdout, summaries on stderr.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="verify the axioms of one structure")
    cw = c.add_subparsers(dest="what", required=True)
    for kind in ("algebra", "coalgebra", "bialgebra"):
        k = cw.add_parser(kind, parents=[common])
        k.add_argument("file")
    for kind in ("module", "comodule", "yd"):
        k = cw.add_parser(kind, parents=[common])
        k.add_argument("file")
        k.add_argument("--parent", help="bialgebra file overriding the "
                                        "parent reference")
    k = cw.add_parser("qt", parents=[common])
    k.add_argument("--bialgebra", required=True)
    k.add_argument("--r", required=True)
    k = cw.add_parser("mha", parents=[common])
    k.add_argument("--bialgebra", required=True)
    k.add_argument("--algebra", required=True)
    k.add_argument("--action", required=True,
                   help="module file carrying the action on the algebra")

    t = sub.add_parser("twist", parents=[common],
                       help="twist a classical structure along an "
                            "endomorphism")
    grp = t.add_mutually_exclusive_group(required=True)
    grp.add_argument("--algebra")
    grp.add_argument("--bialgebra")
    t.add_argument("--endo", required=True)

    t = sub.add_parser("tensor", parents=[common],
                       help="tensor two modules over a bialgebra")
    t.add_argument("--bialgebra", required=True)
    t.add_argument("--module", action="append", default=[])

    t = sub.add_parser("braiding", parents=[common],
                       help="braiding of two modules from an R-matrix")
    t.add_argument("--bialgebra", required=True)
    t.add_argument("--r", required=True)
    t.add_argument("--module", action="append", default=[])

    t = sub.add_parser("bmap", parents=[common],
                       help="Yang-Baxter operator on one module from an "
                            "R-matrix")
    t.add_argument("--bialgebra", required=True)
    t.add_argument("--r", required=True)
    t.add_argument("--module", required=True)

    t = sub.add_parser("ybe", parents=[common],
                       help="twisted braid relation for one map")
    t.add_argument("--map", required=True)
    t.add_argument("--alpha", required=True)

    t = sub.add_parser("mixed-ybe", parents=[common],
                       help="mixed braid relation for three maps")
    for flag in ("--b-uv", "--b-uw", "--b-vw",
                 "--alpha-u", "--alpha-v", "--alpha-w"):
        t.add_argument(flag, required=True)

    t = sub.add_parser("hexagons", parents=[common],
                       help="hexagon instances of an R-matrix braiding on "
                            "three modules")
    t.add_argument("--bialgebra", required=True)
    t.add_argument("--r", required=True)
    t.add_argument("--module", action="append", default=[])

    d = sub.add_parser("dehomify", help="classical coherence from structure "
                                        "maps")
    dw = d.add_subparsers(dest="what", required=True)
    for what in ("pentagon", "hexagons", "cross-check"):
        k = dw.add_parser(what, parents=[common])
        k.add_argument("--bialgebra", required=True)
        k.add_argument("--module", action="append", default=[])

    g = sub.add_parser("gen", help="write example structures")
    gw = g.add_subparsers(dest="what", required=True)
    k = gw.add_parser("group-bialgebra", parents=[common])
    k.add_argument("--n", type=int, required=True)
    k.add_argument("--k", type=int, required=True)
    k = gw.add_parser("kz2-qt", parents=[common])
    k.add_argument("--p", type=int, help="odd prime for a modular base field")
    k.add_argument("--out-r", help="write the R-matrix file here")
    return p


_DISPATCH = {
    "check": _cmd_check,
    "twist": _cmd_twist,
    "tensor": _cmd_tensor,
    "braiding": _cmd_braiding,
    "bmap": _cmd_bmap,
    "ybe": _cmd_ybe,
    "mixed-ybe": _cmd_mixed_ybe,
    "hexagons": _cmd_hexagons,
    "dehomify": _cmd_dehomify,
    "gen": _cmd_gen,
}


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        report, artifacts = _DISPATCH[args.command](args)
        # constructive commands may carry their artifact in --out; checks
        # reuse --out for a report copy, handled inside _emit
        out = args.out if not artifacts else None
        return _emit(argv, report, time.perf_counter() - start, artifacts, out)
    except Exception as exc:
        # bad input or a rejected precondition; any other exception is named
        # by its type and exits 2 as well, so a crash never reads as exit 1
        msg = str(exc)
        if not isinstance(exc, (ValueError, OSError, KeyError)):
            msg = f"{type(exc).__name__}: {msg}"
        print("error: " + " ".join(msg.splitlines()), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
