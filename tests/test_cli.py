"""Workbench CLI: file formats, subcommands, reports, exit codes."""

import argparse
import copy
import io
import json
import os
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from homcat.exact_tensor import GF, QQ, flip_map, identity
from homcat.qt_braiding import check_r_conditions
from homcat.rep_theory import (
    comodule_from_cube, regular_comodule, regular_module, tensor_module,
)
from homcat.workbench_cli import (
    canonical_dumps, gen_group_bialgebra, gen_kz2_qt, main, parse_structure,
    structure_to_dict,
)
from homcat.yetter_drinfeld import YDModule

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(argv)
    finally:
        sys.stdout, sys.stderr = old
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def ws(tmp_path):
    def path(name):
        return str(tmp_path / name)

    def write(name, doc):
        with open(path(name), "w") as fh:
            fh.write(canonical_dumps(doc))
        return path(name)

    return path, write


# -------------------------------------------------------------- generators

def test_group_bialgebra_generator_validates_output():
    for n, k in ((1, 1), (2, 1), (3, 2), (5, 3)):
        H, rep = gen_group_bialgebra(n, k)
        assert rep.ok, (n, k)
        assert H.dim == n
    with pytest.raises(ValueError):
        gen_group_bialgebra(0, 1)


def test_kz2_generator_over_q_and_f3():
    H, R = gen_kz2_qt()
    assert check_r_conditions(H, R).ok
    H3, R3 = gen_kz2_qt(GF(3))
    assert [str(v) for v in R3.coeffs] == ["2", "2", "2", "1"]
    assert check_r_conditions(H3, R3).ok
    with pytest.raises(ValueError):
        gen_kz2_qt(GF(2))


def test_gen_subcommand_writes_artifacts(ws):
    path, _ = ws
    code, out, err = run(["gen", "group-bialgebra", "--n", "2", "--k", "1",
                          "--out", path("H.json")])
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert len(doc["axioms"]) > 0
    assert doc["pass"] == all(a["pass"] for a in doc["axioms"])
    assert os.path.exists(path("H.json"))
    code, _, _ = run(["gen", "kz2-qt", "--out", path("Hq.json"),
                      "--out-r", path("R.json")])
    assert code == 0
    code, _, _ = run(["gen", "kz2-qt", "--p", "2"])
    assert code == 2
    # p = 0 names no field, so nothing is written over Q in its place
    code, out, err = run(["gen", "kz2-qt", "--p", "0",
                          "--out", path("H0.json")])
    assert code == 2 and out == "" and err.startswith("error:")
    assert not os.path.exists(path("H0.json"))


# ----------------------------------------------------------- golden files

def golden_names():
    return sorted(os.listdir(GOLDEN))


@pytest.mark.parametrize("name", golden_names())
def test_golden_roundtrip_byte_identical(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        blob = fh.read()
    parsed = parse_structure(json.loads(blob))
    again = canonical_dumps(structure_to_dict(parsed.kind, parsed.obj,
                                              parsed.parent))
    assert again == blob, name


@pytest.mark.parametrize("kind", ["algebra", "coalgebra", "bialgebra",
                                  "module", "comodule", "yd"])
def test_golden_structures_check_clean(kind):
    code, out, _ = run(["check", kind, os.path.join(GOLDEN, f"{kind}.json")])
    assert code == 0, out
    assert json.loads(out)["pass"] is True


def test_golden_qt_pair_checks_clean():
    code, out, _ = run(["check", "qt",
                        "--bialgebra", os.path.join(GOLDEN, "bialgebra.json"),
                        "--r", os.path.join(GOLDEN, "rmatrix.json")])
    assert code == 0


# ------------------------------------------------------ mutated golden files

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 7),
    st.sampled_from(["0", "1", "-1", "1/2", "2/0", "1.5", "x", "Q", "yd",
                     "bialgebra.json"]))
_VALUES = st.one_of(
    _SCALARS, st.lists(_SCALARS, max_size=2),
    st.dictionaries(st.sampled_from(["Fp", "kind"]), _SCALARS, max_size=1))


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for k in sorted(node):
            yield from _paths(node[k], prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, prefix + (i,))


def _mutate(doc, data):
    """Drop a key, replace a value, or truncate or extend a list."""
    key = data.draw(st.sampled_from(sorted(doc) + ["extra"]))
    path = (key,)
    if key in doc:
        # shallow nodes first: hypothesis draws the first choices most often
        path += data.draw(st.sampled_from(sorted(_paths(doc[key]), key=len)))
    owner = doc
    for p in path[:-1]:
        owner = owner[p]
    last = path[-1]
    node = owner.get(last) if isinstance(owner, dict) else owner[last]
    ops = ["replace"]
    if isinstance(owner, dict) and last in owner:
        ops.append("drop")
    if isinstance(node, list) and node:
        ops += ["truncate", "extend"]
    op = data.draw(st.sampled_from(ops))
    if op == "drop":
        del owner[last]
    elif op == "truncate":
        del node[data.draw(st.integers(0, len(node) - 1)):]
    elif op == "extend":
        node.append(data.draw(st.one_of(
            st.sampled_from([copy.deepcopy(v) for v in node]), _VALUES)))
    else:
        owner[last] = data.draw(_VALUES)


@pytest.fixture(scope="module")
def golden_copy(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    for name in golden_names():
        shutil.copy(os.path.join(GOLDEN, name), d / name)
    return d


@pytest.mark.parametrize("name", golden_names())
@given(data=st.data())
def test_mutated_golden_files_parse_or_raise_value_error(golden_copy, name,
                                                         data):
    with open(os.path.join(GOLDEN, name)) as fh:
        doc = json.load(fh)
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data)
    try:
        parsed = parse_structure(doc)
    except ValueError:
        pass
    else:
        blob = canonical_dumps(structure_to_dict(parsed.kind, parsed.obj,
                                                 parsed.parent))
        again = parse_structure(json.loads(blob))
        assert canonical_dumps(structure_to_dict(
            again.kind, again.obj, again.parent)) == blob

    mutant = str(golden_copy / "mutant.json")
    with open(mutant, "w") as fh:
        json.dump(doc, fh)
    kind = name[:-len(".json")]
    argv = {"rmatrix": ["check", "qt", "--bialgebra",
                        str(golden_copy / "bialgebra.json"), "--r", mutant],
            "linmap": ["ybe", "--map", mutant, "--alpha", mutant]}.get(
                kind, ["check", kind, mutant])
    code, out, err = run(argv)
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("error:")
        assert err.count("\n") == 1


# ------------------------------------------------------------- round trips

def test_roundtrips_through_library_objects(ws):
    H, _ = gen_group_bialgebra(2, 1)
    Hq, Rq = gen_kz2_qt()
    M = regular_module(H.algebra)
    co = [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
    co[0][1][0] = "1"
    co[1][1][1] = "1"
    coact = comodule_from_cube(
        QQ, [[[QQ.coerce(v) for v in r] for r in p] for p in co],
        identity(2)).coaction
    docs = {
        "bialgebra": structure_to_dict("bialgebra", H),
        "algebra": structure_to_dict("algebra", H.algebra),
        "coalgebra": structure_to_dict("coalgebra", H.coalgebra),
        "module": structure_to_dict("module", M, parent="H.json"),
        "comodule": structure_to_dict("comodule",
                                      regular_comodule(H.coalgebra),
                                      parent="H.json"),
        "yd": structure_to_dict("yd",
                                YDModule(QQ, M.action, coact, identity(2)),
                                parent="H.json"),
        "rmatrix": structure_to_dict("rmatrix", Rq),
        "linmap": structure_to_dict("linmap", flip_map(2, 3)),
    }
    for kind, doc in docs.items():
        blob = canonical_dumps(doc)
        parsed = parse_structure(json.loads(blob))
        assert parsed.kind == kind
        again = canonical_dumps(structure_to_dict(parsed.kind, parsed.obj,
                                                  parsed.parent))
        assert again == blob, kind


# ------------------------------------------------------------ spec examples

def test_exit_code_examples(ws):
    path, write = ws
    code, _, _ = run(["gen", "group-bialgebra", "--n", "2", "--k", "1",
                      "--out", path("H.json")])
    assert code == 0

    # passing check returns 0
    code, _, _ = run(["check", "bialgebra", path("H.json")])
    assert code == 0

    # the flip with identity twist satisfies the braid relation: 0
    write("B.json", structure_to_dict("linmap", flip_map(2, 2)))
    write("A.json", structure_to_dict("linmap", identity(2)))
    code, _, _ = run(["ybe", "--map", path("B.json"), "--alpha", path("A.json")])
    assert code == 0

    # one-sided R fails quasitriangularity with eq39 flagged: 1
    write("Rbad.json", {"kind": "rmatrix", "field": "Q", "dim": 2,
                        "coeffs": ["0", "1", "0", "0"]})
    code, out, _ = run(["check", "qt", "--bialgebra", path("H.json"),
                        "--r", path("Rbad.json")])
    assert code == 1
    doc = json.loads(out)
    flags = {a["axiom"]: a["pass"] for a in doc["axioms"]}
    assert flags["eq39"] is False
    assert any("counterexample" in a for a in doc["axioms"])
    assert doc["pass"] is False


# -------------------------------------------------------------- subcommands

def test_check_module_and_yd_with_parent(ws):
    path, write = ws
    run(["gen", "group-bialgebra", "--n", "2", "--k", "1",
         "--out", path("H.json")])
    H, _ = gen_group_bialgebra(2, 1)
    M = regular_module(H.algebra)
    write("M.json", structure_to_dict("module", M, parent="H.json"))
    code, _, _ = run(["check", "module", path("M.json")])
    assert code == 0
    # explicit parent override
    code, _, _ = run(["check", "module", path("M.json"),
                      "--parent", path("H.json")])
    assert code == 0


def test_twist_commands(ws):
    path, write = ws
    run(["gen", "group-bialgebra", "--n", "2", "--k", "1",
         "--out", path("H.json")])
    write("E.json", structure_to_dict("linmap", identity(2)))
    code, _, _ = run(["twist", "--bialgebra", path("H.json"),
                      "--endo", path("E.json"), "--out", path("Htw.json")])
    assert code == 0
    code, _, _ = run(["check", "bialgebra", path("Htw.json")])
    assert code == 0
    H, _ = gen_group_bialgebra(2, 1)
    write("Alg.json", structure_to_dict("algebra", H.algebra))
    code, _, _ = run(["twist", "--algebra", path("Alg.json"),
                      "--endo", path("E.json"), "--out", path("Atw.json")])
    assert code == 0
    # non-endomorphism is a usage error, not a failed check
    write("Ebad.json", {"kind": "linmap", "field": "Q", "rows": 2, "cols": 2,
                        "matrix": [["1", "1"], ["0", "1"]]})
    code, _, _ = run(["twist", "--algebra", path("Alg.json"),
                      "--endo", path("Ebad.json")])
    assert code == 2


def test_tensor_command_plain_and_yd(ws):
    path, write = ws
    run(["gen", "group-bialgebra", "--n", "2", "--k", "1",
         "--out", path("H.json")])
    H, _ = gen_group_bialgebra(2, 1)
    M = regular_module(H.algebra)
    write("M.json", structure_to_dict("module", M, parent="H.json"))
    code, _, _ = run(["tensor", "--bialgebra", path("H.json"),
                      "--module", path("M.json"), "--module", path("M.json"),
                      "--out", path("MM.json")])
    assert code == 0
    code, _, _ = run(["check", "module", path("MM.json"),
                      "--parent", path("H.json")])
    assert code == 0

    co = [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
    co[0][1][0] = "1"
    co[1][1][1] = "1"
    coact = comodule_from_cube(
        QQ, [[[QQ.coerce(v) for v in r] for r in p] for p in co],
        identity(2)).coaction
    write("YD.json", structure_to_dict(
        "yd", YDModule(QQ, M.action, coact, identity(2)), parent="H.json"))
    code, _, _ = run(["tensor", "--bialgebra", path("H.json"),
                      "--module", path("YD.json"), "--module", path("YD.json"),
                      "--out", path("T.json")])
    assert code == 0
    with open(path("T.json")) as fh:
        assert json.load(fh)["kind"] == "yd"
    code, _, _ = run(["check", "yd", path("T.json"),
                      "--parent", path("H.json")])
    assert code == 0
    # a mixed pair is tensored as two modules, so the yd file is refused
    code, out, err = run(["tensor", "--bialgebra", path("H.json"),
                          "--module", path("YD.json"),
                          "--module", path("M.json")])
    assert code == 2 and out == ""
    assert err == (f"error: {path('YD.json')}: expected kind in "
                   "('module',), got yd\n")


def test_tensor_out_in_subdirectory_names_parent_relative_to_it(
        ws, monkeypatch):
    path, write = ws
    monkeypatch.chdir(os.path.dirname(path("H.json")))
    run(["gen", "group-bialgebra", "--n", "2", "--k", "1", "--out", "H.json"])
    H, _ = gen_group_bialgebra(2, 1)
    write("M.json", structure_to_dict("module", regular_module(H.algebra),
                                      parent="H.json"))
    os.mkdir("sub")
    out = os.path.join("sub", "T.json")
    code, _, _ = run(["tensor", "--bialgebra", "H.json", "--module", "M.json",
                      "--module", "M.json", "--out", out])
    assert code == 0
    with open(out) as fh:
        assert json.load(fh)["parent"] == os.path.join(os.pardir, "H.json")
    code, _, err = run(["check", "module", out])
    assert code == 0, err


def test_oversized_group_bialgebra_refused(ws):
    path, _ = ws
    code, out, err = run(["gen", "group-bialgebra", "--n", "100000", "--k",
                          "1", "--out", path("H.json")])
    assert code == 2 and out == ""
    assert err.startswith("error: group-bialgebra cube output 100000x")
    assert err.count("\n") == 1
    assert not os.path.exists(path("H.json"))


def test_braiding_bmap_ybe_hexagons(ws):
    path, write = ws
    run(["gen", "kz2-qt", "--out", path("Hq.json"), "--out-r", path("R.json")])
    H, _ = gen_group_bialgebra(2, 1)
    M = regular_module(H.algebra)
    write("M.json", structure_to_dict("module", M, parent="Hq.json"))
    write("A.json", structure_to_dict("linmap", identity(2)))
    code, _, _ = run(["braiding", "--bialgebra", path("Hq.json"),
                      "--r", path("R.json"), "--module", path("M.json"),
                      "--module", path("M.json"), "--out", path("c.json")])
    assert code == 0
    code, _, _ = run(["bmap", "--bialgebra", path("Hq.json"),
                      "--r", path("R.json"), "--module", path("M.json"),
                      "--out", path("b.json")])
    assert code == 0
    code, _, _ = run(["ybe", "--map", path("b.json"),
                      "--alpha", path("A.json")])
    assert code == 0
    code, _, _ = run(["hexagons", "--bialgebra", path("Hq.json"),
                      "--r", path("R.json"), "--module", path("M.json"),
                      "--module", path("M.json"), "--module", path("M.json")])
    assert code == 0


def test_mixed_ybe_command(ws):
    path, write = ws
    write("B.json", structure_to_dict("linmap", flip_map(2, 2)))
    write("A.json", structure_to_dict("linmap", identity(2)))
    code, _, _ = run(["mixed-ybe", "--b-uv", path("B.json"),
                      "--b-uw", path("B.json"), "--b-vw", path("B.json"),
                      "--alpha-u", path("A.json"), "--alpha-v", path("A.json"),
                      "--alpha-w", path("A.json")])
    assert code == 0


def test_dehomify_commands(ws):
    path, write = ws
    run(["gen", "group-bialgebra", "--n", "2", "--k", "1",
         "--out", path("H.json")])
    H, _ = gen_group_bialgebra(2, 1)
    M = regular_module(H.algebra)
    co = [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
    co[0][1][0] = "1"
    co[1][1][1] = "1"
    coact = comodule_from_cube(
        QQ, [[[QQ.coerce(v) for v in r] for r in p] for p in co],
        identity(2)).coaction
    write("YD.json", structure_to_dict(
        "yd", YDModule(QQ, M.action, coact, identity(2)), parent="H.json"))
    write("YDB.json", {"kind": "yd", "field": "Q", "dim": 2,
                       "parent": "H.json",
                       "action": [[["1", "0"], ["0", "1"]],
                                  [["1", "0"], ["0", "-1"]]],
                       "coaction": [[["1", "0"], ["0", "0"]],
                                    [["0", "0"], ["0", "1"]]],
                       "alpha": [["1", "0"], ["0", "1"]]})
    code, _, _ = run(["dehomify", "pentagon", "--bialgebra", path("H.json"),
                      "--module", path("YD.json"), "--module", path("YDB.json"),
                      "--module", path("YD.json"), "--module", path("YDB.json")])
    assert code == 0
    code, _, _ = run(["dehomify", "hexagons", "--bialgebra", path("H.json"),
                      "--module", path("YD.json"), "--module", path("YDB.json"),
                      "--module", path("YD.json")])
    assert code == 0
    code, out, _ = run(["dehomify", "cross-check", "--bialgebra", path("H.json"),
                        "--module", path("YD.json"),
                        "--module", path("YDB.json")])
    assert code == 0
    doc = json.loads(out)
    assert sorted(a["axiom"] for a in doc["axioms"]) == ["eq3333c", "eq9999d"]


def test_check_mha_flags_incompatible_action(ws):
    path, write = ws
    run(["gen", "group-bialgebra", "--n", "2", "--k", "1",
         "--out", path("H.json")])
    H, _ = gen_group_bialgebra(2, 1)
    write("Alg.json", structure_to_dict("algebra", H.algebra))
    write("M.json", structure_to_dict("module", regular_module(H.algebra),
                                      parent="H.json"))
    code, out, _ = run(["check", "mha", "--bialgebra", path("H.json"),
                        "--algebra", path("Alg.json"),
                        "--action", path("M.json")])
    assert code == 1
    doc = json.loads(out)
    assert {a["axiom"]: a["pass"] for a in doc["axioms"]} \
        == {"compmodulealgebra": False}


# ------------------------------------------------------------ failure modes

def test_malformed_inputs_exit_2(ws):
    path, write = ws
    write("broken.json", {"kind": "bialgebra", "field": "Q", "dim": 2,
                          "mul": [[["1"]]], "comul": [], "alpha": [],
                          "psi": []})
    code, _, err = run(["check", "bialgebra", path("broken.json")])
    assert code == 2 and "error:" in err
    with open(path("notjson.json"), "w") as fh:
        fh.write("{nope")
    code, _, _ = run(["check", "algebra", path("notjson.json")])
    assert code == 2
    code, _, _ = run(["check", "module", path("broken.json")])
    assert code == 2
    code, _, _ = run(["check", "algebra", path("missing.json")])
    assert code == 2

    # each file below once crashed with a traceback or parsed although
    # docs/formats.md rules it out
    def algebra(mul="1", dim=1, field="Q"):
        return {"kind": "algebra", "field": field, "dim": dim,
                "mul": [[[mul]]], "alpha": [["1"]]}

    bad = {
        "zero_denominator.json": algebra(mul="1/0"),
        "decimal.json": algebra(mul="1.5"),
        "exponent.json": algebra(mul="1e400"),
        "bool_scalar.json": algebra(mul=True),
        "bool_dim.json": algebra(dim=True),
        "bool_prime.json": algebra(field={"Fp": True}),
        "zero_prime.json": algebra(field={"Fp": 0}),
        "bool_rows.json": {"kind": "linmap", "field": "Q", "rows": True,
                           "cols": 1, "matrix": [["1"]]},
        "yd_int_coaction.json": {"kind": "yd", "field": "Q", "dim": 1,
                                 "action": [[["1"]]], "coaction": [1],
                                 "alpha": [["1"]]},
        "comodule_int_coaction.json": {"kind": "comodule", "field": "Q",
                                       "dim": 1, "coaction": [1],
                                       "psi": [["1"]]},
    }
    for name, doc in bad.items():
        kind = doc["kind"] if doc["kind"] != "linmap" else "algebra"
        code, out, err = run(["check", kind, write(name, doc)])
        assert code == 2, name
        assert out == "" and err.startswith("error:"), name
        assert err.count("\n") == 1 and "Traceback" not in err, name
    with pytest.raises(ValueError):
        parse_structure(bad["bool_rows.json"])
    # canonical and integer scalars still parse
    for mul in ("-3/4", "7", 2):
        assert parse_structure(algebra(mul=mul)).obj.dim == 1


def test_unexpected_error_exits_2(ws, monkeypatch):
    path, _ = ws
    run(["gen", "group-bialgebra", "--n", "2", "--k", "1",
         "--out", path("H.json")])

    def boom(*args):
        raise ZeroDivisionError("inverse of zero scalar")

    monkeypatch.setattr("homcat.workbench_cli.check_hom_bialgebra", boom)
    code, out, err = run(["check", "bialgebra", path("H.json")])
    assert code == 2 and out == ""
    assert err == "error: ZeroDivisionError: inverse of zero scalar\n"
    monkeypatch.undo()
    code, _, err = run(["gen", "group-bialgebra", "--n", "2", "--k", "1",
                        "--out", path("missing-dir/H.json")])
    assert code == 2 and err.startswith("error:")


def test_wrong_parent_kind_exits_2(ws):
    path, write = ws
    run(["gen", "kz2-qt", "--out", path("Hq.json"), "--out-r", path("R.json")])
    H, _ = gen_group_bialgebra(2, 1)
    write("M.json", structure_to_dict("module", regular_module(H.algebra),
                                      parent="Hq.json"))
    code, _, _ = run(["check", "module", path("M.json"),
                      "--parent", path("R.json")])
    assert code == 2


# ----------------------------------------------------------------- reports

def test_report_copy_and_stderr_summary(ws):
    path, _ = ws
    run(["gen", "group-bialgebra", "--n", "2", "--k", "1",
         "--out", path("H.json")])
    code, out, err = run(["check", "bialgebra", path("H.json"),
                          "--out", path("rep.json")])
    assert code == 0
    with open(path("rep.json")) as fh:
        saved = json.load(fh)
    assert saved["pass"] is True
    assert saved == json.loads(out)
    assert "overall: PASS" in err
    assert saved["command"][0] == "check"
    assert isinstance(saved["time_seconds"], float)


def test_console_entry_point(ws):
    path, _ = ws
    run(["gen", "group-bialgebra", "--n", "2", "--k", "1",
         "--out", path("H.json")])
    proc = subprocess.run([sys.executable, "-m", "homcat.workbench_cli",
                           "check", "bialgebra", path("H.json")],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "overall: PASS" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    json.loads(proc.stdout)


# ------------------------------------------------------ repeated main calls

def test_second_main_call_builds_no_parser(ws, monkeypatch):
    path, _ = ws
    code, _, _ = run(["gen", "group-bialgebra", "--n", "2", "--k", "1",
                      "--out", path("H.json")])
    assert code == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    code, _, _ = run(["check", "bialgebra", path("H.json")])
    assert code == 0
    assert built == []


def test_repeated_calls_share_no_parse_state(ws):
    path, write = ws
    run(["gen", "group-bialgebra", "--n", "2", "--k", "1",
         "--out", path("H.json")])
    H, _ = gen_group_bialgebra(2, 1)
    M = regular_module(H.algebra)
    write("M.json", structure_to_dict("module", M, parent="H.json"))
    sign = {"kind": "module", "field": "Q", "dim": 2, "parent": "H.json",
            "action": [[["1", "0"], ["0", "1"]], [["1", "0"], ["0", "-1"]]],
            "alpha": [["1", "0"], ["0", "1"]]}
    write("N.json", sign)
    N = parse_structure(sign).obj

    def tensor(*modules, extra=()):
        argv = ["tensor", "--bialgebra", path("H.json"), "--out",
                path("T.json"), *extra]
        for m in modules:
            argv += ["--module", path(m)]
        code, out, _ = run(argv)
        assert code == 0, modules
        doc = json.loads(out)
        doc.pop("time_seconds")
        with open(path("T.json")) as fh:
            return doc, fh.read()

    # append lists start empty on every call
    for a, b, X, Y in (("M.json", "N.json", M, N), ("N.json", "M.json", N, M)):
        _, written = tensor(a, b)
        assert written == canonical_dumps(structure_to_dict(
            "module", tensor_module(H, X, Y), parent="H.json"))
    first = tensor("M.json", "N.json")
    with pytest.raises(SystemExit) as exc:
        tensor("M.json", extra=("--bogus",))
    assert exc.value.code == 2
    assert tensor("M.json", "N.json") == first
