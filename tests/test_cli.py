"""Command-line surface: exit codes, files, determinism."""

import concurrent.futures
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import trihopf
from trihopf import atlas, constructions
from trihopf.cli import main
from trihopf.groups import (
    AbelianSubgroup,
    Bicharacter,
    FiniteGroup,
    GroupRep,
    alternating_nondegenerate_bicharacters,
    half_bicharacter,
    sign_characters,
)
from trihopf.scalars import CycScalar
from trihopf.constructions import build_bicharacter_twist, group_algebra
from trihopf.serialize import dumps, hopf_to_obj, load, tensor2_from_obj, tensor2_to_obj
from trihopf.tensor import Tensor2, Vec, tensor2_inv, unit_tensor2
from trihopf.triangular import r_u

from _oracles import expand_embedding, expand_flip, expand_product, gauge_transformed_twist

GOLDEN = Path(__file__).parent / "golden"


def write(path, obj):
    Path(path).write_text(json.dumps(obj))
    return str(path)


@pytest.fixture()
def z2_file(tmp_path):
    return write(tmp_path / "z2.json", FiniteGroup.cyclic(2).to_obj())


def _sweedler_input():
    z2 = FiniteGroup.cyclic(2).to_obj()
    return {"rep": {"group": z2, "degree": 1, "matrices": [[[1]], [[-1]]]}, "u": 1}


@pytest.fixture()
def sweedler_input(tmp_path):
    return write(tmp_path / "sweedler.json", _sweedler_input())


def test_build_group_algebra(tmp_path, z2_file):
    out = tmp_path / "z2.hopf.json"
    assert main(["build", z2_file, "--kind", "group-algebra", "-o", str(out)]) == 0
    assert load(out)["dim"] == 2


def test_build_sweedler_matches_golden(tmp_path, sweedler_input):
    out = tmp_path / "sw.hopf.json"
    assert main(["build", sweedler_input, "--kind", "modified-supergroup", "-o", str(out)]) == 0
    assert out.read_text() == (GOLDEN / "sweedler.hopf.json").read_text()
    r_path = tmp_path / "sw.hopf.r.json"
    assert r_path.read_text() == (GOLDEN / "sweedler.r.json").read_text()


@pytest.mark.parametrize("stray", [False, True], ids=["plain", "stray_group_beside_input"])
def test_build_modified_supergroup_resolves_the_rep_files_group_ref(tmp_path, stray):
    # in.json -> sub/rep.json -> sub/z2.json: a rep file names its group
    # relative to its own directory, as the septuple reader resolves it
    sub = tmp_path / "sub"
    sub.mkdir()
    write(sub / "z2.json", FiniteGroup.cyclic(2).to_obj())
    write(sub / "rep.json", {"group_ref": "z2.json", "degree": 1, "matrices": [[[1]], [[-1]]]})
    if stray:
        # never read: loading it would exit 2
        (tmp_path / "z2.json").write_text("{not json")
    inp = write(tmp_path / "in.json", {"rep_ref": "sub/rep.json", "u": 1})
    out = tmp_path / "sw.hopf.json"
    assert main(["build", inp, "--kind", "modified-supergroup", "-o", str(out)]) == 0
    assert out.read_text() == (GOLDEN / "sweedler.hopf.json").read_text()


def test_build_exterior(tmp_path):
    inp = write(tmp_path / "e.json", {"n": 2})
    out = tmp_path / "e.hopf.json"
    assert main(["build", inp, "--kind", "exterior", "-o", str(out)]) == 0
    assert load(out)["super"] is True


def test_build_exterior_checks_dim_before_building(tmp_path, capsys):
    for n in (28, 10**9):
        inp = write(tmp_path / "e.json", {"n": n})
        start = time.monotonic()
        assert main(["build", inp, "--kind", "exterior", "-o", str(tmp_path / "e.hopf.json")]) == 2
        assert time.monotonic() - start < 1.0
    assert capsys.readouterr().err.count("exceeds HOPF_MAX_DIM") == 2
    assert not (tmp_path / "e.hopf.json").exists()


def _oversized_inputs():
    """Inputs, by case name, of group-based kinds whose predicted output
    dimension exceeds 32: a 300-row table, or |G| = 16 with W of
    dimension 2; each maps to (kind, input).  A septuple whose rep names
    its own group is built on that group, so a small septuple group does
    not bound it."""
    z300 = {"table": [[(a + b) % 300 for b in range(300)] for a in range(300)], "identity": 0}
    z16 = FiniteGroup.cyclic(16).to_obj()
    rep = {"group": z16, "degree": 2, "matrices": []}

    def septuple(group, rep):
        return {"group": group, "rep": rep, "subgroup": [0], "bicharacter": {}, "v_dim": 1, "u": 8}

    return {
        "group-algebra": ("group-algebra", z300),
        "semisimple-triangular": (
            "semisimple-triangular",
            {"group": z300, "subgroup": [0], "bicharacter": {}, "u": 0},
        ),
        "supergroup": ("supergroup", rep),
        "modified-supergroup": ("modified-supergroup", {"rep": rep, "u": 8}),
        "septuple-pipeline": (
            "septuple-pipeline", septuple(z16, {"degree": 2, "matrices": []})
        ),
        "septuple-pipeline-rep-group": (
            "septuple-pipeline",
            septuple(FiniteGroup.cyclic(2).to_obj(), {"group": z300, "degree": 1, "matrices": []}),
        ),
    }


@pytest.mark.parametrize("case", list(_oversized_inputs()))
def test_build_bounds_the_dimension_before_building(tmp_path, monkeypatch, capsys, case):
    kind, obj = _oversized_inputs()[case]
    inp = write(tmp_path / "in.json", obj)

    def no_group(self):
        raise AssertionError("group built before the dimension bound")

    monkeypatch.setattr(FiniteGroup, "_validate", no_group)
    out = tmp_path / "out.hopf.json"
    assert main(["build", inp, "--kind", kind, "-o", str(out)]) == 2
    assert "exceeds HOPF_MAX_DIM" in capsys.readouterr().err
    assert not out.exists()
    if kind == "septuple-pipeline":
        # septuple validate applies the same bound (exit 0 while it
        # validated a septuple of any size)
        assert main(["septuple", "validate", inp]) == 2
        assert "exceeds HOPF_MAX_DIM" in capsys.readouterr().err


def test_build_rejects_b_nonzero_septuple(tmp_path):
    z2 = FiniteGroup.cyclic(2).to_obj()
    inp = write(
        tmp_path / "sept.json",
        {
            "group": z2,
            "rep": {"degree": 1, "matrices": [[[1]], [[-1]]]},
            "subgroup": [0],
            "y_basis": [[1]],
            "b": [[1]],
            "bicharacter": {"factors": [1], "values": [[0]]},
            "v_dim": 1,
            "u": 1,
        },
    )
    assert main(["build", inp, "--kind", "septuple-pipeline", "-o", str(tmp_path / "x.json")]) == 3


def test_build_malformed_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["build", str(bad), "--kind", "group-algebra", "-o", str(tmp_path / "o.json")]) == 2
    not_group = write(tmp_path / "ng.json", {"order": 2})
    assert main(["build", not_group, "--kind", "group-algebra", "-o", str(tmp_path / "o.json")]) == 2


_SIGN2 = [[[1, 0], [0, 1]], [[-1, 0], [0, -1]]]  # Z2 acting by -1 on the plane


@pytest.mark.parametrize(
    "matrices, code",
    [
        (_SIGN2, 0),
        ([[[1, 0], [0]], _SIGN2[1]], 2),
        ([[[1, 0]], _SIGN2[1]], 2),
        ([[[1], [0]], _SIGN2[1]], 2),
        ([[[1, 0], [0, 2]], _SIGN2[1]], 2),
        ([_SIGN2[0], [[1, 1], [0, 1]]], 2),
        ([5, _SIGN2[1]], 2),
        (_SIGN2[:1], 2),
    ],
    ids=["valid", "ragged", "row_short", "column_short", "identity_not_one",
         "not_a_homomorphism", "int", "one_matrix_short"],
)
def test_build_rejects_a_malformed_representation(tmp_path, capsys, matrices, code):
    rep = {"group": FiniteGroup.cyclic(2).to_obj(), "degree": 2, "matrices": matrices}
    inp, out = write(tmp_path / "rep.json", rep), tmp_path / "o.json"
    assert main(["build", inp, "--kind", "supergroup", "-o", str(out)]) == code
    assert "Traceback" not in capsys.readouterr().err
    assert out.exists() == (code == 0)


def test_verify_ok_and_corrupted(tmp_path, sweedler_input, capsys):
    out = tmp_path / "sw.hopf.json"
    main(["build", sweedler_input, "--kind", "modified-supergroup", "-o", str(out)])
    r = tmp_path / "sw.hopf.r.json"
    assert main(["verify", str(out), "--r", str(r)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["triangular"]

    dump = load(out)
    zero = {"n": 1, "c": [["0", "1"]]}
    dump["antipode"] = [[zero] * 4 for _ in range(4)]
    bad = write(tmp_path / "corrupt.json", dump)
    assert main(["verify", bad]) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["axioms"]["antipode"]
    assert report["axioms"]["witnesses"]["antipode"] == [0]


def test_verify_rejects_out_of_range_indices(tmp_path, sweedler_input, capsys):
    out = tmp_path / "sw.hopf.json"
    main(["build", sweedler_input, "--kind", "modified-supergroup", "-o", str(out)])
    dump = load(out)
    dump["mult"][0][:3] = [-1, -2, -3]  # would load through negative indexing
    assert main(["verify", write(tmp_path / "negidx.json", dump)]) == 2
    dump = load(out)
    dump["comult"][0][0][:2] = [0, 4]
    assert main(["verify", write(tmp_path / "bigidx.json", dump)]) == 2
    r = write(tmp_path / "r.json", {"host_dim": 4, "entries": [[0, -1, 1]]})
    assert main(["verify", str(out), "--r", r]) == 2
    assert capsys.readouterr().err.count("malformed input: index") == 3


def test_verify_rejects_non_integer_indices(tmp_path, capsys):
    dump = load(GOLDEN / "sweedler.hopf.json")
    assert dump["comult"][1][0][0] == 1
    dump["comult"][1][0][0] = True  # loaded as index 1 before
    assert main(["verify", write(tmp_path / "boolidx.json", dump)]) == 2
    z2z2 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    host = tmp_path / "z2z2.hopf.json"
    assert main(["build", write(tmp_path / "z2z2.json", z2z2.to_obj()), "--kind", "group-algebra", "-o", str(host)]) == 0
    r = load(GOLDEN / "z2z2_twisted.r.json")
    assert main(["verify", str(host), "--r", write(tmp_path / "r.json", r)]) == 0
    assert r["entries"][1][1] == 1
    r["entries"][1][1] = 1.0  # loaded as index 1 before
    assert main(["verify", str(host), "--r", write(tmp_path / "floatidx.json", r)]) == 2
    err = capsys.readouterr().err
    assert err.count("is not an integer") == 2 and "Traceback" not in err


def test_scalar_rejects_bool(tmp_path):
    dump = load(GOLDEN / "sweedler.hopf.json")
    dump["counit"][0] = True  # was read as the scalar 1
    assert main(["verify", write(tmp_path / "boolscalar.json", dump)]) == 2


def _set_unit_product(value):
    """Replace the coefficient 1 of e_0 e_0 = e_0."""

    def edit(dump):
        assert dump["mult"][0] == [0, 0, 0, {"n": 1, "c": [["1", "1"]]}]
        dump["mult"][0][3] = value

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _set_unit_product({"n": 3.9, "c": [["1", "1"], ["0", "1"]]}),  # loaded as order 3
        _set_unit_product({"n": True, "c": [["5", "1"]]}),  # loaded as the rational 5
        _set_unit_product({"n": 1, "c": [[1.5, "1"]]}),  # loaded as 1
        lambda dump: dump.update(parity=[0.5, 0.5, 0.5, 0.5]),  # loaded as all-even, verified
        lambda dump: dump.update(parity=[False] * 4),
        lambda dump: dump.update(dim=4.0),  # loaded as 4
        lambda dump: dump.update(super=0),
    ],
    ids=["order_float", "order_bool", "coefficient_float", "parity_float", "parity_bool", "dim_float", "super_int"],
)
def test_verify_rejects_non_integer_fields(tmp_path, capsys, edit):
    dump = load(GOLDEN / "sweedler.hopf.json")
    edit(dump)
    assert main(["verify", write(tmp_path / "bad.json", dump)]) == 2
    err = capsys.readouterr().err
    assert "malformed input" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "resize",
    [
        lambda s: s[:-1],
        lambda s: s + [s[0]],
        lambda s: [row[:-1] for row in s],
        lambda s: [row + [row[0]] for row in s],
        lambda s: s[:-1] + [s[-1][:-1]],
        lambda s: 5,
    ],
    ids=["row_short", "row_long", "column_short", "column_long", "ragged_row", "int"],
)
def test_verify_rejects_a_malformed_antipode(tmp_path, capsys, resize):
    dump = load(GOLDEN / "sweedler.hopf.json")
    dump["antipode"] = resize(dump["antipode"])
    assert main(["verify", write(tmp_path / "bad.json", dump)]) == 2
    err = capsys.readouterr().err
    assert "malformed input" in err and "Traceback" not in err


def test_verify_rejects_non_integer_host_dim(tmp_path, capsys):
    r = load(GOLDEN / "sweedler.r.json")
    assert r["host_dim"] == 4
    r["host_dim"] = 4.0
    hopf = str(GOLDEN / "sweedler.hopf.json")
    assert main(["verify", hopf, "--r", write(tmp_path / "r.json", r)]) == 2
    assert "host_dim 4.0 is not an integer" in capsys.readouterr().err


def test_verify_rejects_duplicate_tensor_entries(tmp_path, z2_file, capsys):
    out = tmp_path / "z2.hopf.json"
    main(["build", z2_file, "--kind", "group-algebra", "-o", str(out)])
    r = write(tmp_path / "r.json", {"host_dim": 2, "entries": [[0, 0, 1], [0, 0, 1]]})
    assert main(["verify", str(out), "--r", r]) == 2
    err = capsys.readouterr().err
    assert "malformed input: duplicate entry" in err and "Traceback" not in err


def test_verify_rejects_duplicate_structure_constants(tmp_path, capsys):
    # a repeated copy would be summed by one reader and overwritten by another
    dump = load(GOLDEN / "sweedler.hopf.json")
    dump["mult"].append(dump["mult"][0])
    assert main(["verify", write(tmp_path / "dupmult.json", dump)]) == 2
    dump = load(GOLDEN / "sweedler.hopf.json")
    dump["comult"][1].append(dump["comult"][1][0])
    assert main(["verify", write(tmp_path / "dupcomult.json", dump)]) == 2
    err = capsys.readouterr().err
    assert "in mult" in err and "in comult" in err and err.count("duplicate entry") == 2
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "field, change, message",
    [
        ("mult", lambda m: ["x"], "mult[0]: expected [i, j, k, scalar]"),
        ("mult", lambda m: m[:1] + [m[1][:3]] + m[2:], "mult[1]: expected [i, j, k, scalar]"),
        ("mult", lambda m: {"0": m[0]}, "mult: expected a list of [i, j, k, scalar]"),
        ("comult", lambda c: c[:2] + [c[2] + [[0, 0, 1, 1]]] + c[3:], "comult[2][1]: expected [j, k, scalar]"),
        ("comult", lambda c: c[:1] + [5] + c[2:], "comult[1]: expected a list of [j, k, scalar]"),
        ("entries", lambda e: e + [{"i": 0}], "entries[4]: expected [i, j, scalar]"),
    ],
)
def test_a_malformed_dump_entry_names_itself(tmp_path, capsys, field, change, message):
    # an entry of another shape is refused by its field and position, not
    # by Python's unpacking error
    hopf = GOLDEN / "sweedler.hopf.json"
    dump, r = load(hopf), load(GOLDEN / "sweedler.r.json")
    if field == "entries":
        r["entries"] = change(r["entries"])
        code = main(["verify", str(hopf), "--r", write(tmp_path / "r.json", r)])
    else:
        dump[field] = change(dump[field])
        code = main(["verify", write(tmp_path / "bad.json", dump)])
    assert code == 2
    assert capsys.readouterr().err == f"malformed input: {message}\n"


@pytest.mark.parametrize(
    "resize", [lambda e: e[:-1], lambda e: e + [e[0]], lambda e: 5], ids=["short", "long", "int"]
)
def test_verify_rejects_a_counit_of_another_length(tmp_path, capsys, resize):
    dump = load(GOLDEN / "sweedler.hopf.json")
    dump["counit"] = resize(dump["counit"])
    assert main(["verify", write(tmp_path / "bad.json", dump)]) == 2
    err = capsys.readouterr().err
    assert "malformed input" in err and "Traceback" not in err


def test_verify_rejects_zero_denominator(tmp_path, sweedler_input, capsys):
    out = tmp_path / "sw.hopf.json"
    main(["build", sweedler_input, "--kind", "modified-supergroup", "-o", str(out)])
    dump = load(out)
    dump["counit"][0] = {"n": 1, "c": [["1", "0"]]}
    assert main(["verify", write(tmp_path / "zeroden.json", dump)]) == 2
    assert "zero denominator" in capsys.readouterr().err


def test_verify_s3_full_suite(tmp_path, capsys):
    s3 = write(tmp_path / "s3.json", FiniteGroup.symmetric3().to_obj())
    out = tmp_path / "s3.hopf.json"
    assert main(["build", s3, "--kind", "group-algebra", "-o", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    capsys.readouterr()


def test_verify_super_flag(tmp_path, z2_file):
    out = tmp_path / "z2.hopf.json"
    main(["build", z2_file, "--kind", "group-algebra", "-o", str(out)])
    assert main(["verify", str(out), "--super"]) == 2


def test_analyze_sweedler_golden_report(tmp_path, sweedler_input, capsys):
    out = tmp_path / "sw.hopf.json"
    main(["build", sweedler_input, "--kind", "modified-supergroup", "-o", str(out)])
    code = main(["analyze", str(out), "--r", str(tmp_path / "sw.hopf.r.json")])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / "sweedler.report.json").read_text()


def test_analyze_kz3(tmp_path, capsys):
    z3 = write(tmp_path / "z3.json", FiniteGroup.cyclic(3).to_obj())
    out = tmp_path / "z3.hopf.json"
    main(["build", z3, "--kind", "group-algebra", "-o", str(out)])
    assert main(["analyze", str(out)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep == {
        "antipode_order": 2,
        "chevalley": True,
        "cocommutative": True,
        "dim": 3,
        "radical_dim": 0,
        "semisimple": True,
        "super": False,
    }


def test_twist_command_roundtrip(tmp_path, capsys, monkeypatch):
    z2z2 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    gfile = write(tmp_path / "g.json", z2z2.to_obj())
    dump = tmp_path / "g.hopf.json"
    main(["build", gfile, "--kind", "group-algebra", "-o", str(dump)])
    a = AbelianSubgroup(z2z2, range(4))
    beta = half_bicharacter(alternating_nondegenerate_bicharacters((2, 2))[0])
    j = build_bicharacter_twist(a, beta)
    jfile = tmp_path / "j.json"
    jfile.write_text(dumps(tensor2_to_obj(j)))
    out = tmp_path / "tw.hopf.json"
    inversions = []

    def counting_inv(t, host):
        inversions.append(t)
        return tensor2_inv(t, host)

    monkeypatch.setattr(constructions, "tensor2_inv", counting_inv)
    assert main(["twist", str(dump), "--twist", str(jfile), "-o", str(out)]) == 0
    # the certified closed form (S (x) id)(J) inverts J, and nothing is
    # solved for (1 while J^-1 was solved for once per run)
    assert len(inversions) == 0
    assert main(["verify", str(out)]) == 0
    capsys.readouterr()


def test_twist_command_solves_where_the_closed_form_fails(tmp_path, capsys, monkeypatch):
    # the gauge-transformed twist J' is no bicharacter twist: its closed
    # form (S (x) id)(J') fails the multiply-back, so the run solves for
    # J^-1 once and writes the bytes of a run without the closed form
    z2z2 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    dump = tmp_path / "g.hopf.json"
    assert main(["build", write(tmp_path / "g.json", z2z2.to_obj()), "--kind", "group-algebra", "-o", str(dump)]) == 0
    jfile = write(tmp_path / "j.json", tensor2_to_obj(gauge_transformed_twist()))
    rfile = write(tmp_path / "r.json", tensor2_to_obj(r_u(group_algebra(z2z2), Vec.basis(4, 1))))
    inversions = []

    def counting_inv(t, host):
        inversions.append(t)
        return tensor2_inv(t, host)

    monkeypatch.setattr(constructions, "tensor2_inv", counting_inv)
    outputs = []
    for run in ("closed form", "solver only"):
        out = tmp_path / f"{run}.hopf.json"
        assert main(["twist", str(dump), "--twist", jfile, "--r", rfile, "-o", str(out)]) == 0
        outputs.append((out.read_bytes(), (tmp_path / f"{run}.hopf.r.json").read_bytes()))
        # the second run's candidate inverse is 0, which no J passes
        monkeypatch.setattr(constructions, "apply_map", lambda cols, t, leg=0: Tensor2(t.dim, []))
    assert len(inversions) == 2 and outputs[0] == outputs[1]
    capsys.readouterr()


def test_twist_command_refuses_a_singular_twist(tmp_path, capsys):
    # J = 1 (x) 1 - E- (x) E- on k[Z2] passes both twist identities, but is
    # a zero divisor: the closed form (S (x) id)(J) = J fails, and the
    # solver's NotInvertible exits 1 with its message, as before
    z2 = FiniteGroup.cyclic(2)
    dump = tmp_path / "g.hopf.json"
    assert main(["build", write(tmp_path / "g.json", z2.to_obj()), "--kind", "group-algebra", "-o", str(dump)]) == 0
    h = group_algebra(z2)
    half = CycScalar.from_rational(1, 2)
    e_minus = Vec(2, [(0, half), (1, -half)])
    jfile = write(tmp_path / "j.json", tensor2_to_obj(unit_tensor2(h) - Tensor2.outer(e_minus, e_minus)))
    capsys.readouterr()
    out = tmp_path / "tw.hopf.json"
    assert main(["twist", str(dump), "--twist", jfile, "-o", str(out)]) == 1
    assert capsys.readouterr().err == "verification failure: element is a zero divisor in H(x)H\n"
    assert not out.exists()
    assert main(["verify", str(dump), "--twist", jfile]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["twist"] is False and report["twist_failure"] == "element is a zero divisor in H(x)H"


def _no_cocycle(g, h):
    """J = 1 (x) 1 + E_x (x) E_y on k[Z2 x Z2], E_x and E_y the idempotents of
    two distinct nontrivial characters: eps(E_x) = 0, so J is counit
    normalized, but its f(x, y) = 2, f = 1 elsewhere, is no 2-cocycle."""
    quarter = CycScalar.from_rational(1, 4)
    ex, ey = (
        Vec(4, [(k, quarter if sign > 0 else -quarter) for k, sign in enumerate(chi)])
        for chi in sign_characters(g)[1:3]
    )
    return unit_tensor2(h) + Tensor2.outer(ex, ey)


def test_twist_of_a_commutative_dump_changes_only_r(tmp_path, capsys, monkeypatch):
    # k[Z2 x Z2] is commutative: Delta^J = J^-1 Delta J = Delta and
    # S^J = S, so the twisted dump is the input byte for byte, and R_u
    # becomes J21^-1 R_u J, here multiplied out by the oracle.  S^J = S by
    # the uniqueness of the antipode, so no Q = m(S (x) id)(J) is formed
    def no_q(*args, **kwargs):
        raise AssertionError("a twist of a commutative host formed Q")

    monkeypatch.setattr(constructions, "antipode_contraction", no_q)
    z2z2 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    h = group_algebra(z2z2)
    dump = tmp_path / "g.hopf.json"
    assert main(["build", write(tmp_path / "g.json", z2z2.to_obj()), "--kind", "group-algebra", "-o", str(dump)]) == 0
    a = AbelianSubgroup(z2z2, range(4))
    beta = half_bicharacter(alternating_nondegenerate_bicharacters((2, 2))[0])
    j, j_inv = (build_bicharacter_twist(a, b) for b in (beta, beta.inverse()))
    r = r_u(h, Vec.basis(4, 1))
    jfile = write(tmp_path / "j.json", tensor2_to_obj(j))
    rfile = write(tmp_path / "r.json", tensor2_to_obj(r))
    out = tmp_path / "tw.hopf.json"
    assert main(["twist", str(dump), "--twist", jfile, "--r", rfile, "-o", str(out)]) == 0
    assert out.read_bytes() == dump.read_bytes()
    coefficients = [{(p, q): c for p, q, c in t.nonzeros} for t in (j_inv, r, j)]
    expected = expand_product(h, expand_product(h, expand_flip(h, coefficients[0]), coefficients[1]), coefficients[2])
    r_out = tensor2_from_obj(load(tmp_path / "tw.hopf.r.json"))
    assert {(p, q): c for p, q, c in r_out.nonzeros} == expected != coefficients[1]
    # a J that fails the cocycle identity on this host is still refused
    bad = write(tmp_path / "bad.json", tensor2_to_obj(_no_cocycle(z2z2, h)))
    capsys.readouterr()
    refused = tmp_path / "no.hopf.json"
    assert main(["twist", str(dump), "--twist", bad, "--r", rfile, "-o", str(refused)]) == 1
    assert capsys.readouterr().err == "verification failure: cocycle identity fails at (0, 1, 0)\n"
    assert not refused.exists()


def test_verify_twist_flag(tmp_path, capsys):
    z2z2 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    gfile = write(tmp_path / "g.json", z2z2.to_obj())
    dump = tmp_path / "g.hopf.json"
    main(["build", gfile, "--kind", "group-algebra", "-o", str(dump)])
    a = AbelianSubgroup(z2z2, range(4))
    beta = half_bicharacter(alternating_nondegenerate_bicharacters((2, 2))[0])
    jfile = tmp_path / "j.json"
    jfile.write_text(dumps(tensor2_to_obj(build_bicharacter_twist(a, beta))))
    assert main(["verify", str(dump), "--twist", str(jfile)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["twist"] and rep["ok"] and "twist_failure" not in rep
    # a counit-violating tensor fails the twist suite, which says where
    bad = write(tmp_path / "jbad.json", {"host_dim": 4, "entries": [[0, 0, 1], [0, 1, 1]]})
    assert main(["verify", str(dump), "--twist", bad]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["twist"] is False and rep["ok"] is False
    assert rep["twist_failure"] == "counit normalization fails: (eps (x) id)(J) != 1"


def test_verify_and_twist_refuse_a_super_dump_alike(tmp_path, capsys):
    # both decide through constructions.Twist, which twists ordinary
    # Hopf algebras only; the super Z2 x Z2 algebra of both sign
    # characters passes its axioms, and J = e_0 (x) e_0 is 1 (x) 1
    g = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    rep = GroupRep.from_sign_characters(g, sign_characters(g)[1:3])
    dump = tmp_path / "super.hopf.json"
    assert main(["build", write(tmp_path / "rep.json", rep.to_obj()), "--kind", "supergroup", "-o", str(dump)]) == 0
    jfile = write(tmp_path / "j.json", {"host_dim": 16, "entries": [[0, 0, 1]]})
    assert main(["verify", str(dump), "--twist", jfile]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["axioms"]["witnesses"] == {} and report["twist"] is False and report["ok"] is False
    assert report["twist_failure"] == "twisting super Hopf algebras is not supported"
    out = tmp_path / "o.json"
    assert main(["twist", str(dump), "--twist", jfile, "-o", str(out)]) == 1
    assert report["twist_failure"] in capsys.readouterr().err and not out.exists()


def test_twist_rejects_bad_twist(tmp_path, z2_file, capsys):
    dump = tmp_path / "z2.hopf.json"
    main(["build", z2_file, "--kind", "group-algebra", "-o", str(dump)])
    # 1 (x) 1 + 1 (x) g fails counit normalization
    bad = {
        "host_dim": 2,
        "entries": [[0, 0, 1], [0, 1, 1]],
    }
    jfile = write(tmp_path / "j.json", bad)
    out = tmp_path / "o.json"
    assert main(["twist", str(dump), "--twist", str(jfile), "-o", str(out)]) == 1
    assert "counit normalization fails" in capsys.readouterr().err
    assert not out.exists()


def test_twist_names_the_cocycle_key_it_fails(tmp_path, capsys):
    g = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    h = group_algebra(g)
    j = _no_cocycle(g, h)
    dump = write(tmp_path / "h.hopf.json", hopf_to_obj(h))
    jfile = write(tmp_path / "j.json", tensor2_to_obj(j))
    out = tmp_path / "o.json"
    assert main(["twist", dump, "--twist", jfile, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert not out.exists() and "counit" not in err
    # the least (i, j, k) where the oracle's two sides differ
    coefficients = {(a, b): c for a, b, c in j.nonzeros}
    lhs, rhs = (
        expand_product(h, expand_embedding(h, coefficients, delta), expand_embedding(h, coefficients, unit))
        for delta, unit in (("delta_id", "12"), ("id_delta", "23"))
    )
    key = min(k for k in lhs.keys() | rhs.keys() if lhs.get(k) != rhs.get(k))
    assert f"cocycle identity fails at {key}" in err
    # verify --twist names the same key
    assert main(["verify", dump, "--twist", jfile]) == 1
    assert json.loads(capsys.readouterr().out)["twist_failure"] == f"cocycle identity fails at {key}"


def test_modify_command(tmp_path, sweedler_input):
    dump = tmp_path / "sw.hopf.json"
    main(["build", sweedler_input, "--kind", "modified-supergroup", "-o", str(dump)])
    out = tmp_path / "rmod.json"
    code = main(
        ["modify", str(dump), "--r", str(tmp_path / "sw.hopf.r.json"), "--u", "2", "-o", str(out)]
    )
    assert code == 0
    assert load(out)["entries"] == [[0, 0, {"c": [["1", "1"]], "n": 1}]]


@pytest.mark.parametrize("u", ["99", "-1", "4"])
def test_modify_rejects_an_index_out_of_range(tmp_path, capsys, u):
    out = tmp_path / "rmod.json"
    argv = ["modify", str(GOLDEN / "sweedler.hopf.json"), "--r", str(GOLDEN / "sweedler.r.json")]
    assert main(argv + ["--u", u, "-o", str(out)]) == 2
    assert "out of range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("host_dim", [2, 8], ids=["smaller", "larger"])
@pytest.mark.parametrize("command", ["verify", "twist"])
def test_twist_of_another_dimension_is_malformed(tmp_path, capsys, command, host_dim):
    # a tensor over another dimension than the 4-dimensional Sweedler dump
    # is refused before any twist identity runs (1 (x) e_1 would fail the
    # counit normalization and exit 1)
    jfile = write(tmp_path / "j.json", {"host_dim": host_dim, "entries": [[0, 1, 1]]})
    out = tmp_path / "o.json"
    argv = [command, str(GOLDEN / "sweedler.hopf.json"), "--twist", jfile]
    assert main(argv + (["-o", str(out)] if command == "twist" else [])) == 2
    assert "dimension" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("host_dim", [2, 8], ids=["smaller", "larger"])
@pytest.mark.parametrize("u", ["1", "2"], ids=["u2_not_1", "involution"])
def test_modify_rejects_an_r_of_another_dimension(tmp_path, capsys, host_dim, u):
    rfile = write(tmp_path / "r.json", {"host_dim": host_dim, "entries": [[0, 0, 1]]})
    out = tmp_path / "rmod.json"
    argv = ["modify", str(GOLDEN / "sweedler.hopf.json"), "--r", rfile, "--u", u]
    assert main(argv + ["-o", str(out)]) == 2
    assert "dimension" in capsys.readouterr().err
    assert not out.exists()


def test_septuple_validate_command(tmp_path, capsys):
    z2 = FiniteGroup.cyclic(2).to_obj()
    good = write(
        tmp_path / "s.json",
        {
            "group": z2,
            "rep": {"degree": 0, "matrices": [[], []]},
            "subgroup": [0],
            "bicharacter": {"factors": [1], "values": [[0]]},
            "v_dim": 1,
            "u": 1,
        },
    )
    assert main(["septuple", "validate", good]) == 0
    capsys.readouterr()
    bad = write(
        tmp_path / "s2.json",
        {
            "group": z2,
            "rep": {"degree": 0, "matrices": [[], []]},
            "subgroup": [0, 1],
            "bicharacter": {"factors": [2], "values": [[0, 0], [0, 0]]},
            "v_dim": 1,
            "u": 1,
        },
    )
    assert main(["septuple", "validate", bad]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert not rep["valid"]


def _z2_septuple(**changes):
    """The valid Z2 septuple of test_septuple_validate_command, edited."""
    obj = {
        "group": FiniteGroup.cyclic(2).to_obj(),
        "rep": {"degree": 0, "matrices": [[], []]},
        "subgroup": [0],
        "bicharacter": {"factors": [1], "values": [[0]]},
        "v_dim": 1,
        "u": 1,
    }
    obj.update(changes)
    return obj


@pytest.mark.parametrize(
    "kind, obj",
    [
        ("septuple", _z2_septuple(u=1.9)),  # loaded as u = 1, valid
        ("septuple", _z2_septuple(u=True)),
        ("septuple", _z2_septuple(v_dim=1.0)),
        ("septuple", _z2_septuple(subgroup=["0"])),
        ("septuple", _z2_septuple(rep={"degree": False, "matrices": [[], []]})),
        ("septuple", _z2_septuple(bicharacter={"factors": [1.0], "values": [[0]]})),
        ("septuple", _z2_septuple(bicharacter={"factors": [1], "values": [[0.0]]})),
        ("exterior", {"n": 2.5}),  # loaded as n = 2
        ("modified-supergroup", {"rep": {"group": FiniteGroup.cyclic(2).to_obj(), "degree": 1, "matrices": [[[1]], [[-1]]]}, "u": 1.0}),
        ("semisimple-triangular", {"group": FiniteGroup.cyclic(2).to_obj(), "subgroup": [0, True], "bicharacter": {"factors": [2], "values": [[0, 0], [0, 0]]}, "u": 0}),
        ("semisimple-triangular", {"group": FiniteGroup.cyclic(2).to_obj(), "subgroup": [0, 1], "bicharacter": {"factors": [2], "values": [[0, 0], [0, 0]]}, "u": "0"}),
        ("group-algebra", {"table": [[False, True], [True, False]], "identity": False}),  # built, unverifiable dump
        ("group-algebra", {"table": [[0, 1], [1, 0]], "identity": 0.0}),
    ],
    ids=["u_float", "u_bool", "v_dim_float", "subgroup_str", "degree_bool", "factor_float",
         "exponent_float", "exterior_n_float", "modifier_u_float", "subgroup_bool", "u_str",
         "group_table_bool", "group_identity_float"],
)
def test_input_files_reject_non_integer_fields(tmp_path, capsys, kind, obj):
    inp = write(tmp_path / "in.json", obj)
    if kind == "septuple":
        argv = ["septuple", "validate", inp]
    else:
        argv = ["build", inp, "--kind", kind, "-o", str(tmp_path / "out.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "is not an integer" in err and "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


def test_verify_bounds_scalar_order_before_euler_phi(tmp_path, capsys, monkeypatch):
    from trihopf import scalars

    seen = []
    phi = scalars.euler_phi

    def recording_phi(n):
        seen.append(n)
        return phi(n)

    monkeypatch.setattr(scalars, "euler_phi", recording_phi)
    dump = load(GOLDEN / "sweedler.hopf.json")
    _set_unit_product({"n": 10**9, "c": [["1", "1"]]})(dump)
    assert main(["verify", write(tmp_path / "huge_order.json", dump)]) == 2
    assert "coefficient count does not match order" in capsys.readouterr().err
    assert 10**9 not in seen


def _json_paths(obj, path=()):
    """(path, value) for every node of a JSON tree, root first."""
    yield path, obj
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _json_paths(value, path + (key,))


def _z2z2_host():
    z2 = FiniteGroup.cyclic(2)
    return hopf_to_obj(group_algebra(FiniteGroup.direct_product(z2, z2)))


# verify inputs: a golden dump alone, or a host with a golden R
_FUZZ_CASES = [
    (load(GOLDEN / "sweedler.hopf.json"), None),
    (load(GOLDEN / "sweedler.hopf.json"), load(GOLDEN / "sweedler.r.json")),
    (_z2z2_host(), load(GOLDEN / "z2z2_twisted.r.json")),
]


@st.composite
def _mutated_verify_input(draw):
    """One golden verify input with one file mutated: an integer swapped
    for a float, bool or string, an integer moved out of range, or a
    key dropped."""
    hopf, r = copy.deepcopy(draw(st.sampled_from(_FUZZ_CASES)))
    target = hopf if r is None or draw(st.booleans()) else r
    kind = draw(st.sampled_from(["type", "range", "drop"]))
    if kind == "drop":
        path = draw(st.sampled_from([p for p, v in _json_paths(target) if isinstance(v, dict) and v]))
        parent = target
        for key in path:
            parent = parent[key]
        del parent[draw(st.sampled_from(sorted(parent)))]
    else:
        path = draw(st.sampled_from([p for p, v in _json_paths(target) if type(v) is int]))
        parent = target
        for key in path[:-1]:
            parent = parent[key]
        x = parent[path[-1]]
        if kind == "type":
            parent[path[-1]] = draw(st.sampled_from([float(x), bool(x), str(x)]))
        else:
            parent[path[-1]] = draw(st.sampled_from([-1, hopf["dim"], 10**9]))
    return hopf, r


@given(_mutated_verify_input())
@settings(max_examples=80, deadline=None)
def test_verify_survives_mutated_golden_files(case):
    hopf, r = case
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["verify", write(Path(tmp) / "h.json", hopf)]
        if r is not None:
            argv += ["--r", write(Path(tmp) / "r.json", r)]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "old, new",
    [
        ('  "mult": [', '  "mult": [],\n  "mult": ['),
        ('  "super": false', '  "super": true,\n  "super": false'),
    ],
    ids=["mult", "super"],
)
def test_verify_rejects_a_repeated_key(tmp_path, capsys, old, new):
    text = (GOLDEN / "sweedler.hopf.json").read_text()
    assert text.count(old) == 1
    dump = tmp_path / "h.json"
    dump.write_text(text.replace(old, new))
    assert main(["verify", str(dump)]) == 2
    assert "repeated key" in capsys.readouterr().err


def test_referenced_files_reject_a_repeated_key(tmp_path, capsys):
    group = json.dumps(FiniteGroup.cyclic(2).to_obj())
    (tmp_path / "z2.json").write_text(group.replace('"identity": 0', '"identity": 1, "identity": 0'))
    obj = _z2_septuple(group_ref="z2.json")
    del obj["group"]
    assert main(["septuple", "validate", write(tmp_path / "s.json", obj)]) == 2
    assert "repeated key" in capsys.readouterr().err


def _semisimple_input():
    z2z2 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    gamma = alternating_nondegenerate_bicharacters((2, 2))[0]
    return {"group": z2z2.to_obj(), "subgroup": [0, 1, 2, 3], "bicharacter": gamma.to_obj(), "u": 0}


# input files other than dumps, with the command that reads each: a
# group, a representation, a bicharacter and a septuple
_INPUT_FUZZ_CASES = [
    (FiniteGroup.cyclic(2).to_obj(), ["build", "{in}", "--kind", "group-algebra", "-o", "{out}"]),
    (_sweedler_input(), ["build", "{in}", "--kind", "modified-supergroup", "-o", "{out}"]),
    (_semisimple_input(), ["build", "{in}", "--kind", "semisimple-triangular", "-o", "{out}"]),
    (_z2_septuple(), ["septuple", "validate", "{in}"]),
]

_DUPLICATE = "\0duplicate"  # a key no input has; replaced in the text


@st.composite
def _mutated_input_file(draw):
    """One input file other than a dump, as text, with one mutation: an
    integer swapped for a float, bool or string, an integer moved out of
    range, a key dropped or a key repeated, or an object, the top level
    included, replaced by an array or a string.  Returns (text, argv,
    kind)."""
    obj, argv = copy.deepcopy(draw(st.sampled_from(_INPUT_FUZZ_CASES)))
    kind = draw(st.sampled_from(["type", "range", "drop", "duplicate", "object"]))
    if kind == "object":
        path = draw(st.sampled_from([p for p, v in _json_paths(obj) if isinstance(v, dict)]))
        value = draw(st.sampled_from([[], "x"]))
        if not path:
            return json.dumps(value), argv, kind
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    elif kind in ("drop", "duplicate"):
        path = draw(st.sampled_from([p for p, v in _json_paths(obj) if isinstance(v, dict) and v]))
        parent = obj
        for key in path:
            parent = parent[key]
        key = draw(st.sampled_from(sorted(parent)))
        if kind == "drop":
            del parent[key]
        else:
            parent[_DUPLICATE] = parent[key]
            return json.dumps(obj).replace(json.dumps(_DUPLICATE), json.dumps(key)), argv, kind
    else:
        path = draw(st.sampled_from([p for p, v in _json_paths(obj) if type(v) is int]))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        x = parent[path[-1]]
        if kind == "type":
            parent[path[-1]] = draw(st.sampled_from([float(x), bool(x), str(x)]))
        else:
            parent[path[-1]] = draw(st.sampled_from([-1, 5, 10**9]))
    return json.dumps(obj), argv, kind


@given(_mutated_input_file())
@settings(max_examples=80, deadline=None)
def test_input_files_survive_mutation(case):
    text, argv, kind = case
    with tempfile.TemporaryDirectory() as tmp:
        inp = Path(tmp) / "in.json"
        inp.write_text(text)
        argv = [a.format(**{"in": str(inp), "out": str(Path(tmp) / "out.json")}) for a in argv]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
    assert code in ((2,) if kind in ("duplicate", "object") else (0, 1, 2, 3))
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "obj, argv",
    [
        ([], ["build", "{in}", "--kind", "modified-supergroup", "-o", "{out}"]),
        ({"group": FiniteGroup.cyclic(2).to_obj(), "rep": [], "u": 0}, ["build", "{in}", "--kind", "modified-supergroup", "-o", "{out}"]),
        ("x", ["build", "{in}", "--kind", "semisimple-triangular", "-o", "{out}"]),
        ([], ["build", "{in}", "--kind", "septuple-pipeline", "-o", "{out}"]),
        ("x", ["septuple", "validate", "{in}"]),
        ([], ["build", "{in}", "--kind", "group-algebra", "-o", "{out}"]),
        ("x", ["build", "{in}", "--kind", "exterior", "-o", "{out}"]),
        ({**_semisimple_input(), "group": "x"}, ["build", "{in}", "--kind", "semisimple-triangular", "-o", "{out}"]),
        ({"group": FiniteGroup.cyclic(2).to_obj(), "rep": []}, ["build", "{in}", "--kind", "septuple-pipeline", "-o", "{out}"]),
        ({"rep": {"group": "x", "degree": 1, "matrices": []}, "u": 0}, ["build", "{in}", "--kind", "modified-supergroup", "-o", "{out}"]),
        ([], ["analyze", "{in}"]),
    ],
    ids=[
        "modified_supergroup",
        "modified_supergroup_rep",
        "semisimple_triangular",
        "septuple_pipeline",
        "septuple_validate",
        "group_algebra",
        "exterior",
        "semisimple_triangular_group",
        "septuple_pipeline_rep",
        "modified_supergroup_rep_group",
        "analyze",
    ],
)
def test_an_input_that_is_no_object_exits_2(tmp_path, capsys, obj, argv):
    # the top level, the rep or a group of a build input or septuple, or
    # a dump, is an array or a string: refused by name, with no traceback
    inp, out = write(tmp_path / "in.json", obj), tmp_path / "out.json"
    assert main([a.format(**{"in": inp, "out": str(out)}) for a in argv]) == 2
    err = capsys.readouterr().err
    assert "must be a JSON object, not" in err and "Traceback" not in err
    assert not out.exists()


def test_a_referenced_file_that_is_no_object_exits_2(tmp_path, capsys):
    # a group_ref names a file whose top level is an array
    write(tmp_path / "g.json", [])
    obj = {key: value for key, value in _semisimple_input().items() if key != "group"}
    inp, out = write(tmp_path / "in.json", {**obj, "group_ref": "g.json"}), tmp_path / "out.json"
    assert main(["build", inp, "--kind", "semisimple-triangular", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "the file its group_ref names must be a JSON object, not []" in err and "Traceback" not in err
    assert not out.exists()


def test_max_dim_env(tmp_path, monkeypatch):
    monkeypatch.setenv("HOPF_MAX_DIM", "4")
    g = write(tmp_path / "s3.json", FiniteGroup.symmetric3().to_obj())
    out = tmp_path / "s3.hopf.json"
    assert main(["build", g, "--kind", "group-algebra", "-o", str(out)]) == 2


def test_semisimple_triangular_build(tmp_path, capsys):
    inp = write(tmp_path / "st.json", _semisimple_input())
    dump = tmp_path / "st.hopf.json"
    assert main(["build", inp, "--kind", "semisimple-triangular", "-o", str(dump)]) == 0
    assert main(["analyze", str(dump), "--r", str(tmp_path / "st.hopf.r.json")]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["semisimple"] and rep["triangular"]["r_rank"] == 4


def test_semisimple_triangular_build_of_rank_5(tmp_path, capsys):
    """G = A = Z2^5 with the trivial bicharacter: five cyclic factors, so
    the decomposition search must not stop at rank 4."""
    z2 = FiniteGroup.cyclic(2)
    obj = {
        "group": FiniteGroup.direct_product(*[z2] * 5).to_obj(),
        "subgroup": list(range(32)),
        "bicharacter": Bicharacter.trivial((2,) * 5).to_obj(),
        "u": 0,
    }
    dump = tmp_path / "st.hopf.json"
    assert main(["build", write(tmp_path / "st.json", obj), "--kind", "semisimple-triangular", "-o", str(dump)]) == 0
    assert main(["verify", str(dump), "--r", str(tmp_path / "st.hopf.r.json")]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] and rep["triangular"]


def _with_gamma_entries(swap):
    """_semisimple_input with each exponent k of gamma replaced by swap(i, j, k)."""
    obj = _semisimple_input()
    values = obj["bicharacter"]["values"]
    obj["bicharacter"]["values"] = [[swap(i, j, k) for j, k in enumerate(row)] for i, row in enumerate(values)]
    return obj


@pytest.mark.parametrize(
    "obj, code, message",
    [
        (_semisimple_input(), 0, None),
        # exponents are read mod N = 2: the same gamma, the same bytes
        (_with_gamma_entries(lambda i, j, k: 3 if k == 1 else k), 0, None),
        (_with_gamma_entries(lambda i, j, k: 0 if (i, j) == (1, 2) else k), 2, "not multiplicative"),
        (_with_gamma_entries(lambda i, j, k: True if k == 1 else k), 2, "is not an integer"),
        (_with_gamma_entries(lambda i, j, k: 1.0 if k == 1 else k), 2, "is not an integer"),
    ],
    ids=["valid", "exponent_3_for_1", "not_multiplicative", "true_entry", "float_entry"],
)
def test_semisimple_triangular_reads_gamma_as_exponents(tmp_path, capsys, obj, code, message):
    out = tmp_path / "out.json"
    assert main(["build", write(tmp_path / "in.json", obj), "--kind", "semisimple-triangular", "-o", str(out)]) == code
    if code:
        assert message in capsys.readouterr().err
        assert not out.exists()
    else:
        valid = tmp_path / "valid.json"
        assert main(["build", write(tmp_path / "v.json", _semisimple_input()), "--kind", "semisimple-triangular", "-o", str(valid)]) == 0
        assert out.read_bytes() == valid.read_bytes()
        assert (tmp_path / "out.r.json").read_bytes() == (tmp_path / "valid.r.json").read_bytes()


def test_semisimple_triangular_reads_its_group_through_a_ref(tmp_path, capsys):
    obj = _semisimple_input()
    write(tmp_path / "g.json", obj.pop("group"))

    def build(name, inp):
        return main(["build", write(tmp_path / f"{name}.json", inp), "--kind", "semisimple-triangular", "-o", str(tmp_path / f"{name}.out.json")])

    assert build("valid", _semisimple_input()) == 0
    assert build("ref", {**obj, "group_ref": "g.json"}) == 0
    assert (tmp_path / "ref.out.json").read_bytes() == (tmp_path / "valid.out.json").read_bytes()
    capsys.readouterr()
    assert build("none", obj) == 2
    assert "missing 'group' or group_ref" in capsys.readouterr().err
    assert not (tmp_path / "none.out.json").exists()


def _z2z2_septuple_with_repeat():
    # the full Z2 x Z2 with W = 0, its element 3 listed twice
    obj = _semisimple_input()
    obj.update(rep={"degree": 0, "matrices": [[]] * 4}, subgroup=[0, 1, 2, 3, 3], v_dim=2)
    return obj


@pytest.mark.parametrize(
    "obj, argv",
    [
        (_z2z2_septuple_with_repeat(), ["septuple", "validate", "{in}"]),
        (_z2z2_septuple_with_repeat(), ["build", "{in}", "--kind", "septuple-pipeline", "-o", "{out}"]),
        ({**_semisimple_input(), "subgroup": [0, 1, 2, 3, 3]},
         ["build", "{in}", "--kind", "semisimple-triangular", "-o", "{out}"]),
    ],
    ids=["septuple_validate", "septuple_pipeline", "semisimple_triangular"],
)
def test_a_repeated_subgroup_element_is_malformed(tmp_path, capsys, obj, argv):
    inp, out = write(tmp_path / "in.json", obj), tmp_path / "out.json"
    assert main([a.format(**{"in": inp, "out": out}) for a in argv]) == 2
    captured = capsys.readouterr()
    assert "repeated subgroup element" in captured.err and not captured.out
    assert not out.exists()


@pytest.mark.parametrize("u", [7, -1])
def test_semisimple_triangular_rejects_a_modifier_out_of_range(tmp_path, capsys, u):
    obj = {
        "group": FiniteGroup.cyclic(2).to_obj(),
        "subgroup": [0],
        "bicharacter": {"factors": [1], "values": [[0]]},
        "u": u,
    }
    out = tmp_path / "out.json"
    assert main(["build", write(tmp_path / "in.json", obj), "--kind", "semisimple-triangular", "-o", str(out)]) == 2
    assert "modifier index out of range" in capsys.readouterr().err
    assert not out.exists()


def test_atlas_determinism_across_worker_counts(tmp_path):
    out1, out2 = tmp_path / "a1", tmp_path / "a2"
    assert main(["atlas", "--max-order", "4", "-o", str(out1), "--workers", "1"]) == 0
    assert main(["atlas", "--max-order", "4", "-o", str(out2), "--workers", "2"]) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2 and files1
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_atlas_pool_has_no_more_workers_than_jobs(tmp_path, monkeypatch):
    # an in-process stand-in for the pool: no process is started; run_atlas
    # imports the pool class from concurrent.futures when it needs one
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    many, one = tmp_path / "many", tmp_path / "one"
    atlas.run_atlas(4, many, workers=10**6)
    atlas.run_atlas(4, one, workers=1)
    assert sizes == [15]
    files = sorted(p.name for p in one.iterdir())
    assert files == sorted(p.name for p in many.iterdir())
    assert all((one / name).read_bytes() == (many / name).read_bytes() for name in files)


def test_atlas_8_bytes_match_the_committed_digests(tmp_path):
    # golden/atlas8.sha256 is `sha256sum *` run in the tree this command wrote
    out = tmp_path / "a"
    assert main(["atlas", "--max-order", "8", "-o", str(out)]) == 0
    lines = (GOLDEN / "atlas8.sha256").read_text().splitlines()
    expected = {name: digest for digest, name in (line.split("  ", 1) for line in lines)}
    actual = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert len(expected) == 346
    assert actual == expected


def test_analyze_prints_the_report_the_atlas_wrote(tmp_path, capsys):
    # the atlas certifies each H^J by the twisting theorem; analyze proves
    # the loaded files, which carry no twist, directly.  Both print one report.
    assert main(["atlas", "--max-order", "8", "-o", str(tmp_path)]) == 0
    capsys.readouterr()
    reports = sorted(tmp_path.glob("*.report.json"))
    assert len(reports) == 115
    for report in reports:
        stem = str(report)[: -len(".report.json")]
        assert main(["analyze", f"{stem}.hopf.json", "--r", f"{stem}.r.json"]) == 0
        assert capsys.readouterr().out == report.read_text(), report.name


@pytest.mark.parametrize("fail_in", ["write_text", "replace"])
def test_a_failed_atlas_write_leaves_no_temporary_file(tmp_path, monkeypatch, fail_in):
    # a write that stops after one character, or a rename that fails
    write = Path.write_text

    def refuse(path, *args):
        if fail_in == "write_text":
            write(path, args[0][:1])
        raise OSError("refused")

    monkeypatch.setattr(*((atlas.os, "replace") if fail_in == "replace" else (Path, "write_text")), refuse)
    with pytest.raises(OSError, match="refused"):
        atlas._atomic_write(tmp_path / "x.json", "{}\n")
    assert list(tmp_path.iterdir()) == []


def test_atlas_max_order_1(tmp_path):
    out = tmp_path / "a"
    assert main(["atlas", "--max-order", "1", "-o", str(out)]) == 0
    manifest = load(out / "manifest.json")
    assert len(manifest["instances"]) == 1
    assert manifest["instances"][0]["dim"] == 1


def test_atlas_rejects_order_beyond_dim_bound(tmp_path):
    assert main(["atlas", "--max-order", "64", "-o", str(tmp_path / "a")]) == 2


# runs one command in a fresh interpreter, then prints its exit code and
# the trihopf, concurrent and multiprocessing modules it loaded
_IMPORT_PROBE = """
import os, sys
import trihopf.cli

stdout, sys.stdout = sys.stdout, open(os.devnull, "w")
code = trihopf.cli.main(sys.argv[1:])
sys.stdout = stdout
shown = ("trihopf", "concurrent", "multiprocessing", "dataclasses", "inspect")
print(code, *sorted(m for m in sys.modules if m.startswith(shown)))
"""
_SRC = str(Path(trihopf.__file__).resolve().parents[1])
_LOAD_AND_SERIALIZE = {
    "trihopf",
    "trihopf.errors",
    "trihopf.scalars",
    "trihopf.tensor",
    "trihopf.hopf",
    "trihopf.serialize",
    "trihopf.cli",
}
_EVERY_BUILDER = _LOAD_AND_SERIALIZE | {
    "trihopf.triangular",
    "trihopf.groups",
    "trihopf.constructions",
}
_SWEEDLER, _SWEEDLER_R = str(GOLDEN / "sweedler.hopf.json"), str(GOLDEN / "sweedler.r.json")


def _run_fresh(argv, cwd, script=_IMPORT_PROBE):
    path = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize(
    "argv, code, loaded",
    [
        pytest.param(["verify", _SWEEDLER], 0, _LOAD_AND_SERIALIZE, id="verify"),
        pytest.param(
            ["verify", _SWEEDLER, "--r", _SWEEDLER_R],
            0,
            _LOAD_AND_SERIALIZE | {"trihopf.triangular"},
            id="verify_r",
        ),
        pytest.param(
            ["build", "bad.json", "--kind", "group-algebra", "-o", "o.json"], 2, _LOAD_AND_SERIALIZE, id="build_badjson"
        ),
        pytest.param(
            ["build", "ext9.json", "--kind", "exterior", "-o", "o.json"], 2, _LOAD_AND_SERIALIZE, id="build_oversized"
        ),
        pytest.param(["analyze", _SWEEDLER], 0, _LOAD_AND_SERIALIZE | {"trihopf.triangular"}, id="analyze_no_r"),
        pytest.param(
            ["analyze", _SWEEDLER, "--r", _SWEEDLER_R],
            0,
            _LOAD_AND_SERIALIZE | {"trihopf.triangular"},
            id="analyze",
        ),
        pytest.param(
            ["build", "sweedler.json", "--kind", "modified-supergroup", "-o", "o.json"],
            0,
            _EVERY_BUILDER,
            id="build_modified_supergroup",
        ),
        pytest.param(
            ["atlas", "--max-order", "4", "--workers", "1", "-o", "a"],
            0,
            _EVERY_BUILDER | {"trihopf.atlas", "dataclasses", "inspect"},
            id="atlas_one_worker",
        ),
    ],
)
def test_a_command_imports_only_what_it_runs(tmp_path, argv, code, loaded):
    # a refused build compiles no builder, no command without --workers
    # above 1 loads the process pool's modules, and only the atlas, whose
    # InstanceSpec is a dataclass, loads dataclasses (and inspect with it)
    (tmp_path / "bad.json").write_text("{nope")
    write(tmp_path / "ext9.json", {"n": 9})
    write(tmp_path / "sweedler.json", _sweedler_input())
    exit_code, *modules = _run_fresh(argv, tmp_path)
    assert int(exit_code) == code
    assert set(modules) == loaded


def test_package_names_load_their_modules_on_first_use(tmp_path):
    for name in trihopf.__all__:
        namespace = {}
        exec(f"from trihopf import {name}", namespace)
        obj = namespace[name]
        assert obj is getattr(sys.modules[obj.__module__], name) is getattr(trihopf, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        trihopf.no_such_name
    # in a fresh process dir lists the names before any is read, and one
    # name loads its own module and what that imports, nothing else
    probe = (
        "import sys, trihopf; listed = set(trihopf.__all__) <= set(dir(trihopf)); trihopf.Vec; "
        "print(listed, *sorted(m for m in sys.modules if m.startswith('trihopf')))"
    )
    loaded = ["True", "trihopf", "trihopf.errors", "trihopf.scalars", "trihopf.tensor"]
    assert _run_fresh([], tmp_path, probe) == loaded
