"""The three benchmark workloads.

Each workload builder takes the workload seed and returns a Battery: the
list of top-level ops one pass runs, in order, and the labels of its
largest instances (one, or several of the same size). An op is a callable taking the pass context (a
dict ops of one pass share) and returning (verdicts, ok): the number of
identity verdicts it received and whether every correctness gate held.
The seed only generates inputs; it never selects code paths.

Why each workload exists (README.md has the longer form):

bialgebra-sweep  A few large dense maps, where the kernels and scalar
    arithmetic do almost all the work. The same bialgebras are checked over
    Q and over GF(101), so the pair isolates the scalar representation
    (Fraction and int run the same maps). Tensor modules mix
    permutation-sparse regular modules with dense conjugated copies, which
    shows whether a sparse core hurts dense inputs. Codec work and
    precondition re-validation are absent.
yd-coherence  Hundreds of small calls on Yetter-Drinfeld data over the Z_2
    bialgebra, where per-call overhead and repeated precondition checks
    (check_yd re-run by every YD operation) dominate. Apart from the
    largest instance, maps are at most 8-dimensional, so kernel speed per
    entry matters little.
cli-session  A scripted session of in-process workbench_cli.main calls:
    files are generated, written (up to about 260 KB), read back and
    checked. JSON decoding and encoding matter here and almost nowhere
    else, and qt_braiding does its real work here (hexagons on a (8, 8, 4)
    module triple).
"""

import contextlib
import importlib.util
import io
import json
import math
import os
import random
from itertools import product
from typing import Callable, List, NamedTuple, Tuple

from homcat import dehomify as dh
from homcat import exact_tensor as et
from homcat import hom_structures as hs
from homcat import qt_braiding as qb
from homcat import rep_theory as rt
from homcat import workbench_cli as wb
from homcat import yetter_drinfeld as yd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")

BIALGEBRA_IDS = {"eq1", "eq2", "eq3", "eq4", "eq5", "eq6", "eq7", "eq7111",
                 "eq7112", "alpha-psi-commute"}
MODULE_IDS = {"eq8", "eq9"}
YD_IDS = {"eq8", "eq9", "comodul1", "comodul2", "homYD"}


class Battery(NamedTuple):
    ops: List[Tuple[str, Callable]]
    largest: Tuple[str, ...]


def _holds(rep, ids):
    """Verdict count, and whether exactly `ids` were checked and all hold."""
    return len(rep.axiom_status), rep.ok and set(rep.axiom_status) == ids


def _conjugator(rng, n, field):
    """A dense invertible map whose conjugates cost the same for every seed.

    A fixed dense unimodular core (L U, all-ones triangular factors) after
    a seeded signed permutation. Conjugating by it relabels and re-signs
    the basis after the fixed core, so nonzero patterns and entry sizes of
    the conjugated module, and with them the arithmetic it costs, do not
    depend on the seed.
    """
    lower = et.LinMap.from_rows(field, [[1 if j <= i else 0 for j in range(n)]
                                        for i in range(n)])
    core = lower.compose(et.LinMap.from_rows(
        field, [[1 if j >= i else 0 for j in range(n)] for i in range(n)]))
    perm = rng.sample(range(n), n)
    signed = et.LinMap.from_cols(
        field, [[rng.choice((1, -1)) if i == perm[j] else 0 for i in range(n)]
                for j in range(n)], n)
    return signed.compose(core)


def _unit(rng, n):
    # twists e_i -> e_{ik} with k a unit mod n: a non-unit collapses the
    # basis and makes the maps sparser, which would tie the work to the seed
    return rng.choice([k for k in range(1, n + 1) if math.gcd(k, n) == 1])


# ------------------------------------------------------------ bialgebra-sweep

def bialgebra_sweep(seed, small=False):
    rng = random.Random(seed)
    sizes = (2, 3) if small else (5, 6, 7)
    ks = {n: _unit(rng, n) for n in sizes}
    fp = et.GF(101)
    ops = []

    def over_q(ctx, n):
        H, rep = wb.gen_group_bialgebra(n, ks[n])
        ctx[n] = H
        return _holds(rep, BIALGEBRA_IDS)

    def over_fp(ctx, n):
        H = ctx[n]
        Hp = hs.HomBialgebra(fp, H.mul, H.comul,
                             et.LinMap(fp, n, n, H.alpha.data),
                             et.LinMap(fp, n, n, H.psi.data))
        return _holds(hs.check_hom_bialgebra(Hp), BIALGEBRA_IDS)

    for n in sizes:
        ops.append((f"bialgebra n={n} Q", lambda ctx, n=n: over_q(ctx, n)))
        ops.append((f"bialgebra n={n} F101",
                    lambda ctx, n=n: over_fp(ctx, n)))

    # Tensor modules over a group bialgebra with the twist e_i -> e_{3i}
    # (n = 4): a nontrivial invertible twist, so conjugated structure maps
    # are dense. Module dims reach 16 and 64 (4 and 8 when small).
    m = 2 if small else 4
    H4, rep = wb.gen_group_bialgebra(m, m - 1)
    if not rep.ok:
        raise RuntimeError(f"fixture bialgebra fails {rep.failed_axioms}")
    reg = rt.regular_module(H4)
    conj = [rt.conjugate_module(reg, _conjugator(rng, m, et.QQ))
            for _ in range(5)]

    def tensor_op(ctx, key, left, right):
        left = ctx[left] if isinstance(left, str) else left
        T = rt.tensor_module(H4, left, right)
        ctx[key] = T
        return _holds(rt.check_module(H4, T), MODULE_IDS)

    # Seven cheap ops, ten dense dim-16 ops and seven dearer ops per pass
    # (with the six bialgebra ops above), so op_p50_ms falls inside the
    # dense group and p90 inside the n=6 checks rather than on a boundary
    # between op kinds.
    chains = [("sparse16", reg, reg), ("sparse64", "sparse16", reg)]
    chains += [(f"mixed16-{i}", c, reg) for i, c in enumerate(conj)]
    chains += [("mixed64", "mixed16-0", reg)]
    chains += [(f"dense16-{i}-{j}", conj[i], conj[j])
               for i in range(5) for j in range(5) if i != j][:10]
    for key, left, right in chains:
        ops.append((f"tensor module {key}",
                    lambda ctx, k=key, a=left, b=right: tensor_op(ctx, k, a, b)))
    return Battery(ops, (f"bialgebra n={sizes[-1]} Q",))


# --------------------------------------------------------------- yd-coherence

def _cube(entries, n=2):
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), v in entries.items():
        c[i][j][k] = v
    return c


Z2MUL = _cube({(i, j, (i + j) % 2): 1 for i in range(2) for j in range(2)})
REGCO = _cube({(i, i, i): 1 for i in range(2)})
CONCO = _cube({(i, 1, i): 1 for i in range(2)})
SIGN = _cube({(h, m, m): (-1) ** (h * m) for h in range(2) for m in range(2)})
TRIV = _cube({(h, m, m): 1 for h in range(2) for m in range(2)})
ZEROC = _cube({})

# nonzero diagonal entries for the seeded zero-action modules
_DIAG_CHOICES = ("2", "3", "-1", "1/2", "-2", "5", "3/2", "-1/3")


def _frozen():
    spec = importlib.util.spec_from_file_location(
        "homcat_frozen", os.path.join(ROOT, "tests", "_frozen.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.FROZEN


def z2_bialgebra(field=et.QQ):
    return hs.HomBialgebra(field, Z2MUL, REGCO, et.identity(2, field),
                           et.identity(2, field))


def yd_pool(rng, zero_modules=2):
    """The A/B/C pool plus zero-action modules with seeded diagonal maps."""
    QQ = et.QQ
    pool = {
        "A": yd.yd_from_cubes(QQ, Z2MUL, CONCO, et.identity(2)),
        "B": yd.yd_from_cubes(QQ, SIGN, REGCO, et.identity(2)),
        "C": yd.yd_from_cubes(QQ, TRIV, REGCO, et.identity(2)),
    }
    for i in range(zero_modules):
        alpha = et.diag([rng.choice(_DIAG_CHOICES) for _ in range(2)])
        pool[f"Z{i + 1}"] = yd.yd_from_cubes(QQ, ZEROC, ZEROC, alpha)
    return pool


def yd_coherence(seed, small=False):
    rng = random.Random(seed)
    H = z2_bialgebra()
    pool = yd_pool(rng, 1 if small else 2)
    if small:
        del pool["C"]
    names = sorted(pool)
    expected_violation = _frozen()["z2_yd_regular_first_violation"][0]
    bad = yd.yd_from_cubes(et.QQ, Z2MUL, REGCO, et.identity(2))
    ops = []

    def valid(M):
        return _holds(yd.check_yd(H, M), YD_IDS)

    def negative_control():
        # the regular-action/grading-coaction pair must fail homYD only,
        # with the pinned first counterexample
        rep = yd.check_yd(H, bad)
        v = rep.violations[0] if rep.violations else None
        got = v and (v.axiom, v.index, [(i, str(c)) for i, c in v.lhs],
                     [(i, str(c)) for i, c in v.rhs])
        return len(rep.axiom_status), (rep.failed_axioms == ["homYD"]
                                       and got == expected_violation)

    def tensor_closed(M, N):
        return _holds(yd.check_yd(H, yd.yd_tensor(H, M, N)), YD_IDS)

    def defb(M, N):
        B = yd.b_yd(H, M, N)
        ok, _ = hs.compare_maps("defB", et.kron(N.alpha, M.alpha).compose(B),
                                B.compose(et.kron(M.alpha, N.alpha)),
                                (M.dim, N.dim), (N.dim, M.dim))
        return 1, ok

    def b_morphism(M, N):
        B = yd.b_yd(H, M, N)
        T = yd.yd_tensor(H, M, N)
        dst = yd.yd_tensor(H, yd.f_twist_yd(H, N), yd.f_twist_yd(H, M))
        r1 = rt.check_module_morphism(B, H, T.module, dst.module)
        r2 = rt.check_comodule_morphism(B, H.coalgebra, T.comodule,
                                        dst.comodule)
        return (len(r1.axiom_status) + len(r2.axiom_status),
                r1.ok and r2.ok)

    def mixed_ybe(M, N, P):
        rep = qb.check_mixed_hom_ybe(yd.b_yd(H, M, N), yd.b_yd(H, M, P),
                                     yd.b_yd(H, N, P),
                                     M.alpha, N.alpha, P.alpha)
        return _holds(rep, {"hYBeB"})

    fam = dh.ConstraintFamily(et.QQ)
    for name, M in pool.items():
        fam.add_module(name, M.alpha)

    def pentagon(quad):
        return _holds(dh.check_pentagon(fam, *quad), {"pentagon"})

    def hexagons(named):
        # named: three (label, module) pairs; equal labels name one object
        (U, MU), (V, MV), (W, MW) = named
        hf = dh.ConstraintFamily(et.QQ)
        for label, M in named:
            hf.add_module(label, M.alpha)
        hf.add_pair_map(U, V, yd.b_yd(H, MU, MV))
        hf.add_pair_map(U, W, yd.b_yd(H, MU, MW))
        hf.add_pair_map(V, W, yd.b_yd(H, MV, MW))
        hf.add_pair_map(U, (V, W), yd.b_yd(H, MU, yd.yd_tensor(H, MV, MW)))
        hf.add_pair_map((U, V), W, yd.b_yd(H, yd.yd_tensor(H, MU, MV), MW))
        return _holds(dh.check_hexagons(hf, hf, U, V, W), {"hex1", "hex2"})

    def largest(a, b):
        # the largest instances: both hexagons on a dim-4 tensor module, cubed
        T = yd.yd_tensor(H, pool[a], pool[b])
        return hexagons([(a + b, T)] * 3)

    def cross(M, N):
        return _holds(dh.cross_check_yd(H, M, N), {"eq3333c", "eq9999d"})

    for a in names:
        ops.append((f"check_yd {a}", lambda ctx, M=pool[a]: valid(M)))
    ops.append(("check_yd regular/grading", lambda ctx: negative_control()))
    for a, b in product(names, repeat=2):
        M, N = pool[a], pool[b]
        ops.append((f"yd_tensor {a}{b}", lambda ctx, M=M, N=N: tensor_closed(M, N)))
        ops.append((f"defB {a}{b}", lambda ctx, M=M, N=N: defb(M, N)))
        ops.append((f"b_yd morphism {a}{b}",
                    lambda ctx, M=M, N=N: b_morphism(M, N)))
    for a, b, c in product(names, repeat=3):
        ops.append((f"mixed ybe {a}{b}{c}",
                    lambda ctx, t=(pool[a], pool[b], pool[c]): mixed_ybe(*t)))
    for quad in product(names, repeat=4):
        ops.append((f"pentagon {''.join(quad)}", lambda ctx, q=quad: pentagon(q)))
    for tri in product(names, repeat=3):
        ops.append((f"hexagons {''.join(tri)}",
                    lambda ctx, t=tri: hexagons([(x, pool[x]) for x in t])))
    for a, b in product(names, repeat=2):
        ops.append((f"cross_check {a}{b}",
                    lambda ctx, M=pool[a], N=pool[b]: cross(M, N)))
    # three equal-size largest instances give largest_s three samples a pass
    pairs = [("A", "B"), ("B", "Z1"), ("Z1", "A")]
    big = tuple(f"hexagons ({a}(x){b})^3" for a, b in pairs)
    ops += [(label, lambda ctx, p=pair: largest(*p))
            for label, pair in zip(big, pairs)]
    return Battery(ops, big)


# ---------------------------------------------------------------- cli-session

def _dump(path, kind, obj, parent=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(wb.canonical_dumps(wb.structure_to_dict(kind, obj, parent)))


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = wb.main(argv)
    return code, out.getvalue(), err.getvalue()


def _without_time(stdout):
    doc = json.loads(stdout)
    doc.pop("time_seconds", None)
    return doc


def cli_session(seed, workdir, small=False):
    """Writes the session's input files into workdir; ops run with cwd there."""
    rng = random.Random(seed)
    QQ, F3 = et.QQ, et.GF(3)
    H, _ = wb.gen_kz2_qt()
    H3, _ = wb.gen_kz2_qt(F3)
    reg = rt.regular_module(H)
    reg3 = rt.regular_module(H3)
    n = 2 if small else 4
    k = _unit(rng, n)
    G, _ = wb.gen_group_bialgebra(n, k)
    _dump(os.path.join(workdir, "Reg.json"), "module", rt.regular_module(G),
          "G.json")
    _dump(os.path.join(workdir, "U.json"), "module", reg, "H.json")
    _dump(os.path.join(workdir, "V.json"), "module",
          rt.conjugate_module(reg, _conjugator(rng, 2, QQ)), "H.json")
    _dump(os.path.join(workdir, "U3.json"), "module", reg3, "H3.json")
    _dump(os.path.join(workdir, "V3.json"), "module",
          rt.conjugate_module(reg3, _conjugator(rng, 2, F3)), "H3.json")
    _dump(os.path.join(workdir, "A4.json"), "linmap", et.identity(4))
    _dump(os.path.join(workdir, "Rbad.json"), "rmatrix",
          qb.RMatrix(QQ, 2, [0, 1, 0, 0]))
    with open(os.path.join(workdir, "bad.json"), "w", encoding="utf-8") as fh:
        fh.write("{not json")
    pool = yd_pool(rng, 1)
    for name, M in pool.items():
        _dump(os.path.join(workdir, f"Y{name}.json"), "yd", M, "H.json")
    golden = {}
    for name in sorted(os.listdir(GOLDEN)):
        with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
            golden[name] = fh.read()

    g = GOLDEN
    big = (["UV.json", "U.json", "V.json"] if small
           else ["UVU.json", "UVU.json", "UV.json"])
    # (argv, expected exit code, artifacts written)
    session = [
        (["gen", "group-bialgebra", "--n", str(n), "--k", str(k), "--out",
          "G.json"], 0, ["G.json"]),
        (["gen", "kz2-qt", "--out", "H.json", "--out-r", "R.json"], 0,
         ["H.json", "R.json"]),
        (["gen", "kz2-qt", "--p", "3", "--out", "H3.json", "--out-r",
          "R3.json"], 0, ["H3.json", "R3.json"]),
        (["tensor", "--bialgebra", "H.json", "--module", "U.json",
          "--module", "V.json", "--out", "UV.json"], 0, ["UV.json"]),
        (["tensor", "--bialgebra", "H.json", "--module", "UV.json",
          "--module", "U.json", "--out", "UVU.json"], 0, ["UVU.json"]),
        (["tensor", "--bialgebra", "H3.json", "--module", "V3.json",
          "--module", "U3.json", "--out", "UV3.json"], 0, ["UV3.json"]),
        # the regular module of G tensored up to dim n^3: about 260 KB of JSON
        (["tensor", "--bialgebra", "G.json", "--module", "Reg.json",
          "--module", "Reg.json", "--out", "RR.json"], 0, ["RR.json"]),
        (["tensor", "--bialgebra", "G.json", "--module", "RR.json",
          "--module", "Reg.json", "--out", "RRR.json"], 0, ["RRR.json"]),
        (["check", "bialgebra", "G.json"], 0, []),
        (["check", "module", "RRR.json"], 0, []),
        (["check", "module", "UVU.json"], 0, []),
        (["check", "module", "UV3.json"], 0, []),
        (["check", "qt", "--bialgebra", "H.json", "--r", "R.json"], 0, []),
        (["check", "qt", "--bialgebra", "H3.json", "--r", "R3.json"], 0, []),
        (["braiding", "--bialgebra", "H.json", "--r", "R.json", "--module",
          big[0], "--module", "UV.json"], 0, []),
        (["braiding", "--bialgebra", "H3.json", "--r", "R3.json", "--module",
          "UV3.json", "--module", "V3.json"], 0, []),
        (["hexagons", "--bialgebra", "H.json", "--r", "R.json"]
         + [a for f in big for a in ("--module", f)], 0, []),
        (["hexagons", "--bialgebra", "H3.json", "--r", "R3.json", "--module",
          "UV3.json", "--module", "U3.json", "--module", "V3.json"], 0, []),
        (["bmap", "--bialgebra", "H.json", "--r", "R.json", "--module",
          "UV.json", "--out", "B.json"], 0, ["B.json"]),
        (["ybe", "--map", "B.json", "--alpha", "A4.json"], 0, []),
        (["dehomify", "pentagon", "--bialgebra", "H.json", "--module",
          "YA.json", "--module", "YB.json", "--module", "YC.json",
          "--module", "YZ1.json"], 0, []),
        (["dehomify", "hexagons", "--bialgebra", "H.json", "--module",
          "YA.json", "--module", "YB.json", "--module", "YZ1.json"], 0, []),
        (["dehomify", "cross-check", "--bialgebra", "H.json", "--module",
          "YB.json", "--module", "YZ1.json"], 0, []),
    ]
    session += [(["check", "yd", f"Y{name}.json"], 0, []) for name in pool]
    session += [(["check", "module", f], 0, []) for f in ("U.json", "V.json")]
    session.append((["check", "qt", "--bialgebra", os.path.join(g, "bialgebra.json"),
                     "--r", os.path.join(g, "rmatrix.json")], 0, []))
    for kind in ("algebra", "coalgebra", "bialgebra", "module", "comodule",
                 "yd"):
        session.append((["check", kind, os.path.join(g, f"{kind}.json")], 0, []))
    # negative controls: a one-sided R fails eq39 (exit 1), malformed JSON
    # is bad input (exit 2)
    session.append((["check", "qt", "--bialgebra", "H.json", "--r",
                     "Rbad.json"], 1, []))
    session.append((["check", "algebra", "bad.json"], 2, []))

    first_seen = {}

    def cli_op(argv, expect, artifacts):
        code, stdout, stderr = _run_cli(argv)
        if code != expect:
            raise RuntimeError(f"exit {code}, expected {expect}: {stderr}")
        if expect == 2:
            return 0, stdout == "" and stderr.startswith("error:")
        doc = _without_time(stdout)
        ok = doc["pass"] == (expect == 0)
        if expect == 1:
            ok = ok and {a["axiom"]: a["pass"]
                         for a in doc["axioms"]}.get("eq39") is False
        blobs = []
        for path in artifacts:
            with open(path, "rb") as fh:
                blobs.append(fh.read())
        # byte stability: every pass must reproduce the first pass's output
        seen = first_seen.setdefault(tuple(argv), (doc, blobs))
        return len(doc["axioms"]), ok and seen == (doc, blobs)

    def golden_op(name):
        blob = golden[name]
        parsed = wb.parse_structure(json.loads(blob))
        again = wb.canonical_dumps(wb.structure_to_dict(
            parsed.kind, parsed.obj, parsed.parent))
        return 0, again == blob

    ops = [(" ".join(argv[:2]) + f" #{i}",
            lambda ctx, a=argv, e=expect, f=files: cli_op(a, e, f))
           for i, (argv, expect, files) in enumerate(session)]
    ops += [(f"golden round trip {name}", lambda ctx, nm=name: golden_op(nm))
            for name in golden]
    largest = next(label for label, _ in ops if label.startswith("hexagons"))
    return Battery(ops, (largest,))
