"""Wire formats: round trips and byte-stable dumps."""

import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from trihopf import atlas, serialize, tensor
from trihopf.atlas import _build_and_write, enumerate_instances, instance_twist
from trihopf.constructions import (
    Septuple,
    exterior_algebra,
    group_algebra,
    modified_supergroup_algebra,
    supergroup_algebra,
    validate_septuple,
)
from trihopf.errors import ShapeError
from trihopf.groups import AbelianSubgroup, Bicharacter, FiniteGroup, GroupRep
from trihopf.hopf import Algebra, Coalgebra, HopfData, verify_hopf
from trihopf.scalars import SC_HALF, SC_ONE, CycScalar, euler_phi, root_of_unity
from trihopf.serialize import (
    bicharacter_from_file_obj,
    dumps,
    group_from_file_obj,
    hopf_dumps,
    hopf_from_obj,
    hopf_to_obj,
    septuple_from_file_obj,
    tensor2_dumps,
    tensor2_from_obj,
    tensor2_to_obj,
)
from trihopf.tensor import Tensor2, Tensor3, Vec
from trihopf.triangular import analysis_report

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def sweedler():
    z2 = FiniteGroup.cyclic(2)
    sign = GroupRep.from_sign_characters(z2, [(1, -1)])
    return modified_supergroup_algebra(z2, sign, u=1)


def test_hopf_roundtrip(sweedler):
    h, _ = sweedler
    again = hopf_from_obj(hopf_to_obj(h))
    assert (again.algebra, again.coalgebra) == (h.algebra, h.coalgebra)


_HALVES = ((0, SC_HALF), (0, SC_HALF))


@pytest.mark.parametrize(
    "split",
    [
        {"comult": (((0, 0), SC_HALF), ((0, 0), SC_HALF))},
        {"mult": (((0, 0, 0), SC_HALF), ((0, 0, 0), SC_HALF))},
        {"antipode": _HALVES},
    ],
    ids=["comult", "mult", "antipode"],
)
def test_repeated_index_is_summed_before_the_round_trip(split):
    # the ground field k, with one structure constant 1 given as 1/2 + 1/2
    raw = {
        "mult": (((0, 0, 0), SC_ONE),),
        "comult": (((0, 0), SC_ONE),),
        "antipode": ((0, SC_ONE),),
        **split,
    }
    algebra = Algebra(1, Vec.basis(1, 0), Tensor3(1, raw["mult"]), (0,))
    coalgebra = Coalgebra(1, (Tensor2(1, raw["comult"]),), Vec.basis(1, 0), (Vec(1, raw["antipode"]),), (0,))
    h = HopfData(algebra, coalgebra).validate()
    again = hopf_from_obj(hopf_to_obj(h))
    assert h.axioms.ok and again.axioms.ok
    assert (again.algebra, again.coalgebra) == (h.algebra, h.coalgebra)


def test_hopf_roundtrip_super():
    z2 = FiniteGroup.cyclic(2)
    sg = supergroup_algebra(z2, GroupRep.from_sign_characters(z2, [(1, -1)]))
    again = hopf_from_obj(hopf_to_obj(sg))
    assert (again.algebra, again.coalgebra) == (sg.algebra, sg.coalgebra)
    assert again.super and again.parity == sg.parity


def test_atlas9_algebras_reload_as_their_records():
    # each untwisted host and each H^J of an atlas-9 job, and the
    # supergroup algebra of each of its (G, W) with W != 0 and the exterior
    # algebras, reload from their dump text with an Algebra and a Coalgebra
    # equal to their own
    specs = enumerate_instances(9)
    hosts = sorted({(s.group, s.v_chars, s.u) for s in specs})
    algebras = [atlas._host(*key)[0] for key in hosts]
    algebras += [instance_twist(s).apply()[0] for s in specs]
    algebras += [
        supergroup_algebra(atlas._group_tables(group)[0], atlas._sign_rep(group, v_chars))
        for group, v_chars in sorted({(g, v) for g, v, _ in hosts if v})
    ]
    algebras += [exterior_algebra(n) for n in range(4)]
    assert len(algebras) == 43 + 119 + 5 + 4
    for h in algebras:
        again = hopf_from_obj(json.loads(hopf_dumps(h)))
        assert (again.algebra, again.coalgebra) == (h.algebra, h.coalgebra)


def test_tensor2_roundtrip(sweedler):
    _, ru = sweedler
    assert tensor2_from_obj(tensor2_to_obj(ru)) == ru
    t = Tensor2.from_dict(3, {(0, 2): root_of_unity(6, 1)})
    assert tensor2_from_obj(tensor2_to_obj(t)) == t


def test_dump_bytes_are_stable(sweedler):
    h, _ = sweedler
    assert dumps(hopf_to_obj(h)) == dumps(hopf_to_obj(h))
    rebuilt = hopf_from_obj(hopf_to_obj(h))
    assert dumps(hopf_to_obj(rebuilt)) == dumps(hopf_to_obj(h))


def test_sweedler_golden_dump(sweedler):
    h, ru = sweedler
    assert dumps(hopf_to_obj(h)) == (GOLDEN / "sweedler.hopf.json").read_text()
    assert dumps(tensor2_to_obj(ru)) == (GOLDEN / "sweedler.r.json").read_text()


def test_z2z2_twisted_golden_r():
    from trihopf.constructions import apply_twist, build_bicharacter_twist, group_algebra
    from trihopf.groups import alternating_nondegenerate_bicharacters, half_bicharacter
    from trihopf.tensor import Vec
    from trihopf.triangular import r_u

    z2z2 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    h = group_algebra(z2z2)
    a = AbelianSubgroup(z2z2, range(4))
    beta = half_bicharacter(alternating_nondegenerate_bicharacters((2, 2))[0])
    _, r = apply_twist(h, build_bicharacter_twist(a, beta), r=r_u(h, Vec.basis(4, 0)))
    assert dumps(tensor2_to_obj(r)) == (GOLDEN / "z2z2_twisted.r.json").read_text()


def test_group_roundtrip():
    for g in (FiniteGroup.cyclic(6), FiniteGroup.quaternion8()):
        back = group_from_file_obj(g.to_obj())
        assert back.table == g.table and back.identity == g.identity
    # a file that still carries the keys older versions wrote loads as its
    # table says, whether or not those keys agree with the table
    z6 = FiniteGroup.cyclic(6)
    for factors, iso_map in (([6], [[i] for i in range(6)]), ([2, 2], [[0, 0]])):
        obj = {**z6.to_obj(), "invariant_factors": factors, "iso_map": iso_map}
        back = group_from_file_obj(obj)
        assert back.table == z6.table and back.identity == z6.identity
        assert not hasattr(back, "invariant_factors") and not hasattr(back, "iso_map")


def test_bicharacter_roundtrip():
    from trihopf.groups import alternating_nondegenerate_bicharacters

    for factors in ((2, 2), (3, 3)):
        for b in alternating_nondegenerate_bicharacters(factors):
            back = bicharacter_from_file_obj(b.to_obj())
            assert back.exponents == b.exponents and back.factors == b.factors


@pytest.mark.parametrize(
    "factors, count, digest",
    [
        ((2, 2), 1, "f2c7658db9857229734b0c9e8352c7eb8f3a10c874c8bc2095b863bc83a43255"),
        ((3, 3), 2, "e31ef806aa3e030554d9ebbdfb7e12e716b69a69383c9f6e3d368e8a13376d50"),
        ((2, 2, 2, 2), 28, "8411472a3bde261f693222d9f7d0e2434901e0530b5d8e0a3ff26435d33bc314"),
        ((4, 4), 2, "bd2d4624040137eaadc22c85f467b8a6f12b9c6eec29a3528c9cc6f8a62d4087"),
    ],
)
def test_bicharacter_wire_form_is_pinned(factors, count, digest):
    # the exponent tables an atlas or bicharacter file carries, byte for byte
    from trihopf.groups import alternating_nondegenerate_bicharacters

    objs = [b.to_obj() for b in alternating_nondegenerate_bicharacters(factors)]
    assert len(objs) == count
    assert hashlib.sha256(dumps(objs).encode()).hexdigest() == digest


def test_scalar_shortcut_accepts_ints():
    obj = {
        "dim": 1,
        "super": False,
        "parity": [0],
        "unit": [1],
        "mult": [[0, 0, 0, 1]],
        "comult": [[[0, 0, 1]]],
        "counit": [1],
        "antipode": [[1]],
    }
    h = hopf_from_obj(obj)
    assert h.dim == 1 and h.unit.entries[0] == CycScalar.one()


def test_septuple_file_loader():
    z2 = FiniteGroup.cyclic(2)
    obj = {
        "group": z2.to_obj(),
        "rep": {"degree": 1, "matrices": [[[1]], [[-1]]]},
        "subgroup": [0],
        "y_basis": [],
        "b": [],
        "bicharacter": {"factors": [1], "values": [[0]]},
        "v_dim": 1,
        "u": 1,
    }
    s = septuple_from_file_obj(obj)
    assert s.u == 1 and s.w.degree == 1 and s.b is None


def test_bad_scalar_encoding_rejected():
    with pytest.raises(ShapeError):
        hopf_from_obj(
            {
                "dim": 1,
                "super": False,
                "parity": [0],
                "unit": ["x"],
                "mult": [],
                "comult": [[]],
                "counit": [1],
                "antipode": [[1]],
            }
        )


def _stdlib_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_text = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\n\t\u2028⊗ζü'), st.characters()), max_size=6)
_decimal = st.integers(-10, 10**20).map(str)
# near misses of a scalar encoding, which dumps memoizes: a bool order,
# integer or bool coefficients, a tuple pair, a pair of the wrong length
_scalar_like = st.fixed_dictionaries(
    {
        "n": st.one_of(st.integers(1, 12), st.booleans()),
        "c": st.lists(
            st.one_of(
                st.lists(st.one_of(_decimal, st.integers(-2, 2), st.booleans()), min_size=1, max_size=3),
                st.tuples(_decimal, _decimal),
            ),
            max_size=3,
        ),
    }
)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(max_value=-(2**64)),
    _text,
    _scalar_like,
)
_trees = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_text, kids, max_size=4),
    ),
    max_leaves=24,
)


@given(_trees)
@settings(max_examples=300, deadline=None)
def test_dumps_matches_the_stdlib_writer(tree):
    # the tree repeated at its own depth and one deeper, so memoized
    # scalar texts are looked up again
    obj = [tree, {"again": tree}, tree]
    assert dumps(obj) == _stdlib_dump(obj)


def test_dumps_keeps_near_miss_scalars_apart():
    obj = [
        {"n": 1, "c": [["1", "1"]]},
        {"n": True, "c": [["1", "1"]]},
        {"n": 1, "c": [[1, 1]]},
        {"n": 1, "c": [[True, "1"]]},
        {"n": 1, "c": [("1", "1")]},
        {"n": 1, "c": [["1", "1"]], "x": None},
        [{"n": 1, "c": [["1", "1"]]}],
    ]
    assert dumps(obj) == _stdlib_dump(obj)


def test_dumps_matches_the_stdlib_writer_on_atlas_9():
    for spec in enumerate_instances(9):
        h, r = instance_twist(spec).apply()
        for obj in (hopf_to_obj(h), tensor2_to_obj(r), analysis_report(h, r)):
            assert dumps(obj) == _stdlib_dump(obj), spec.name
        # the Hopf and R texts the atlas writes, rendered from integer
        # numerators, with the host's mult text
        assert hopf_dumps(h) == _stdlib_dump(hopf_to_obj(h)), spec.name
        assert tensor2_dumps(r) == _stdlib_dump(tensor2_to_obj(r)), spec.name


# scalars over Q, Q(zeta_3) and Q(zeta_8), zero included
_SCALARS = st.sampled_from((1, 3, 8)).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(-3, 3), st.integers(1, 4)),
        min_size=euler_phi(n),
        max_size=euler_phi(n),
    ).map(lambda pairs: CycScalar(n, pairs))
)


def _vecs(d):
    return st.dictionaries(st.integers(0, d - 1), _SCALARS, max_size=d).map(
        lambda cells: Vec(d, tuple(cells.items()))
    )


def _tensor2s(d):
    keys = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1))
    return st.dictionaries(keys, _SCALARS, max_size=4).map(
        lambda cells: Tensor2(d, tuple(cells.items()))
    )


def _assert_writers_match_the_stdlib(h, r):
    assert hopf_dumps(h) == _stdlib_dump(hopf_to_obj(h))
    assert tensor2_dumps(r) == _stdlib_dump(tensor2_to_obj(r))


@given(st.integers(1, 4).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.lists(_vecs(d), min_size=d, max_size=d),
        st.lists(_tensor2s(d), min_size=d, max_size=d),
        _vecs(d),
        _vecs(d),
        _tensor2s(d),
    )
))
@settings(max_examples=150, deadline=None)
def test_writers_match_the_stdlib_writer(case):
    # each column, Delta(e_i), the unit, the counit and R mix coefficients
    # over Q, Q(zeta_3) and Q(zeta_8), so a tensor's order is up to 24 and
    # every value is written in its smallest field; the maps need not be
    # a Hopf algebra's, the writers only read them
    d, columns, comult, unit, counit, r = case
    h = group_algebra(FiniteGroup.cyclic(d)).replace(
        antipode=tuple(columns), comult=tuple(comult), unit=unit, counit=counit
    )
    _assert_writers_match_the_stdlib(h, r)


def test_writers_match_the_stdlib_writer_on_edge_cases():
    z8 = root_of_unity(8, 1)
    k = group_algebra(FiniteGroup.cyclic(1))  # d = 1
    _assert_writers_match_the_stdlib(k, Tensor2(1, ()))  # R with no entries
    h = group_algebra(FiniteGroup.cyclic(3))
    zero_column = h.replace(antipode=(Vec(3, ()), h.antipode[1], Vec(3, ((0, z8), (2, z8 * z8)))))
    _assert_writers_match_the_stdlib(zero_column, Tensor2(3, (((0, 1), root_of_unity(3, 1)),)))
    no_coproduct = h.replace(comult=(Tensor2(3, ()),) * 3, antipode=(Vec(3, ()),) * 3)
    _assert_writers_match_the_stdlib(no_coproduct, Tensor2(3, (((2, 2), SC_HALF),)))


def test_second_atlas_9_pass_writes_from_the_memo_alone(monkeypatch, tmp_path):
    # with the memo of scalar texts cleared and filled by a first pass,
    # the writers of a second pass make no scalar encoding and read no
    # nonzeros; over that whole pass, the one Tensor2 read through
    # nonzeros is R, by r_matrix_rank's elimination (the structural check
    # of each H^J reads only the indices of Delta^J and S^J)
    specs = enumerate_instances(9)
    tracked = {
        CycScalar.to_obj.__code__: "to_obj",
        tensor._SparseTensor.nonzeros.fget.__code__: "nonzeros",
        tensor.Vec.nonzeros.fget.__code__: "nonzeros",
        serialize._scalar_text.__wrapped__.__code__: "memo miss",
    }
    in_writers: dict = {}
    nonzeros_read: dict = {}

    def profile(frame, event, arg):
        name = tracked.get(frame.f_code) if event == "call" else None
        if name is not None:
            in_writers[name] = in_writers.get(name, 0) + 1

    def traced(write):
        def run(t):
            sys.setprofile(profile)
            try:
                return write(t)
            finally:
                sys.setprofile(None)

        return run

    def run_pass(out):
        out.mkdir()
        for spec in specs:
            _build_and_write((asdict(spec), str(out)))
        return {p.name: p.read_bytes() for p in out.iterdir()}

    monkeypatch.setattr(atlas, "hopf_dumps", traced(hopf_dumps))
    monkeypatch.setattr(atlas, "tensor2_dumps", traced(tensor2_dumps))
    serialize._scalar_text.cache_clear()
    first = run_pass(tmp_path / "first")
    assert in_writers.get("memo miss", 0) > 0
    in_writers.clear()
    original = tensor._SparseTensor.nonzeros

    def counting(t):
        name = type(t).__name__
        nonzeros_read[name] = nonzeros_read.get(name, 0) + 1
        return original.fget(t)

    monkeypatch.setattr(tensor._SparseTensor, "nonzeros", property(counting))
    assert run_pass(tmp_path / "second") == first
    assert in_writers == {}
    assert nonzeros_read == {"Tensor2": len(specs)}


def test_hopf_dumps_keeps_one_mult_text_per_multiplication():
    h = group_algebra(FiniteGroup.cyclic(3))
    z3 = group_algebra(FiniteGroup.cyclic(3))
    assert hopf_dumps(h) == _stdlib_dump(hopf_to_obj(h))
    # a twist holds h's Algebra and reads h's text; a copy with another
    # mult (the opposite product, equal here) has an Algebra of its own
    twisted = h.replace(comult=h.comult)
    opposite = h.replace(mult=Tensor3(h.dim, [((j, i, k), c) for i, j, k, c in h.mult.nonzeros]))
    assert opposite.algebra == h.algebra and opposite.algebra is not h.algebra
    assert hopf_dumps(twisted) == hopf_dumps(h)
    assert twisted.algebra is h.algebra and h.algebra.mult_text is not None
    s3 = group_algebra(FiniteGroup.symmetric3())
    z6 = group_algebra(FiniteGroup.cyclic(6))
    other = z6.replace(mult=s3.mult)
    for copy_ in (opposite, other, z3):
        assert copy_.algebra.mult_text is None
        assert hopf_dumps(copy_) == _stdlib_dump(hopf_to_obj(copy_))
        text = copy_.algebra.mult_text
        assert text is not None and text is not h.algebra.mult_text
    assert hopf_dumps(other) != hopf_dumps(z6)


def test_dumps_matches_the_stdlib_writer_on_reports():
    h = group_algebra(FiniteGroup.cyclic(2))
    axioms = verify_hopf(h.replace(antipode=(Vec(2, ()),) * 2)).to_obj()
    assert axioms["witnesses"] == {"antipode": [0]}
    z2 = FiniteGroup.cyclic(2)
    sign = GroupRep.from_sign_characters(z2, [(1, -1)])
    reports = [
        validate_septuple(
            Septuple(
                group=z2, w=sign, a_elements=(0,), y_basis=(), b=None,
                v_beta=Bicharacter.trivial((1,)), v_dim=1, u=u,
            )
        ).to_obj()
        for u in (0, 1)  # u = 0 acts by +1 on W: a failed check
    ]
    assert [r["valid"] for r in reports] == [False, True]
    for obj in [axioms, *reports]:
        assert dumps(obj) == _stdlib_dump(obj)


@pytest.mark.parametrize(
    "obj",
    [1.5, [float("nan")], {1: 2}, {"a": {None: 0}}, CycScalar.one(), {"c": [[1.0, "1"]], "n": 1}],
    ids=["float", "nan", "int_key", "none_key", "raw_scalar", "float_in_scalar"],
)
def test_dumps_refuses_other_types(obj):
    with pytest.raises(TypeError):
        dumps(obj)


def test_bicharacter_table_shape_is_checked_before_any_root(monkeypatch):
    from trihopf import scalars
    from trihopf.groups import alternating_nondegenerate_bicharacters

    def no_root(n, k):
        raise AssertionError(f"root of unity of order {n} made while loading a bicharacter")

    valid = alternating_nondegenerate_bicharacters((3, 3))[1].to_obj()
    # every root_of_unity, whichever module calls it, goes through this
    monkeypatch.setattr(scalars, "_root_of_unity", no_root)
    for obj in (
        {"factors": [10**9], "values": [[0]]},  # a root of order 10**9 would follow
        {"factors": [2], "values": [[0, 0], [0]]},
        {"factors": [0], "values": []},
    ):
        with pytest.raises(ShapeError, match="value table"):
            bicharacter_from_file_obj(obj)
    # a valid file is checked on its exponents: the values wait for a reader
    gamma = bicharacter_from_file_obj(valid)
    assert gamma.to_obj() == valid and "values" not in vars(gamma)
