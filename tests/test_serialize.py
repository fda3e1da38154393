"""Wire formats: round trips and byte-stable dumps."""

from pathlib import Path

import pytest

from trihopf.constructions import group_algebra, modified_supergroup_algebra, supergroup_algebra
from trihopf.errors import ShapeError
from trihopf.groups import Bicharacter, FiniteGroup, GroupRep
from trihopf.scalars import CycScalar, root_of_unity
from trihopf.serialize import (
    bicharacter_from_file_obj,
    dumps,
    group_from_file_obj,
    hopf_from_obj,
    hopf_to_obj,
    septuple_from_file_obj,
    tensor2_from_obj,
    tensor2_to_obj,
)
from trihopf.tensor import Tensor2

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def sweedler():
    z2 = FiniteGroup.cyclic(2)
    sign = GroupRep.from_sign_characters(z2, [(1, -1)])
    return modified_supergroup_algebra(z2, sign, u=1)


def test_hopf_roundtrip(sweedler):
    h, _ = sweedler
    assert hopf_from_obj(hopf_to_obj(h)).same_structure(h)


def test_hopf_roundtrip_super():
    z2 = FiniteGroup.cyclic(2)
    sg = supergroup_algebra(z2, GroupRep.from_sign_characters(z2, [(1, -1)]))
    again = hopf_from_obj(hopf_to_obj(sg))
    assert again.same_structure(sg)
    assert again.super and again.parity == sg.parity


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
    a = z2z2.abelian_subgroup(range(4))
    beta = half_bicharacter(alternating_nondegenerate_bicharacters((2, 2))[0])
    _, r = apply_twist(h, build_bicharacter_twist(a, beta), r=r_u(h, Vec.basis(4, 0)))
    assert dumps(tensor2_to_obj(r)) == (GOLDEN / "z2z2_twisted.r.json").read_text()


def test_group_roundtrip():
    for g in (FiniteGroup.cyclic(6), FiniteGroup.quaternion8()):
        back = group_from_file_obj(g.to_obj())
        assert back.table == g.table and back.identity == g.identity
        assert back.invariant_factors == g.invariant_factors


def test_bicharacter_roundtrip():
    from trihopf.groups import alternating_nondegenerate_bicharacters

    for factors in ((2, 2), (3, 3)):
        for b in alternating_nondegenerate_bicharacters(factors):
            back = bicharacter_from_file_obj(b.to_obj())
            assert back.values == b.values and back.factors == b.factors


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


def test_septuple_file_loader(tmp_path):
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
    s = septuple_from_file_obj(obj, tmp_path)
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
