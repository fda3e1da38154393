"""Builders: group algebras, smash products, modifications, twists, septuples."""

from itertools import product
from math import gcd, isqrt, prod
from pathlib import Path

import pytest

from trihopf import atlas, constructions
from trihopf.constructions import (
    Septuple,
    Twist,
    apply_twist,
    build_bicharacter_twist,
    group_algebra,
    exterior_algebra,
    inflate_group_tensor,
    modified_supergroup_algebra,
    semisimple_triangular,
    septuple_twist,
    supergroup_algebra,
    validate_septuple,
    verify_twist,
)
from trihopf.errors import (
    GroupError,
    NotAbelian,
    NotInvertible,
    SeptupleInvariantViolation,
    ShapeError,
    TwistError,
    UnsupportedStratum,
)
from trihopf.groups import (
    AbelianSubgroup,
    Bicharacter,
    FiniteGroup,
    GroupRep,
    alternating_nondegenerate_bicharacters,
    half_bicharacter,
    sign_characters,
    _find_cyclic_decomposition,
)
from trihopf.hopf import (
    algebra_inverse,
    dual_hopf,
    is_semisimple,
    jacobson_radical,
    verify_hopf,
)
from trihopf.scalars import CycScalar, root_of_unity
from trihopf.tensor import (
    Tensor2,
    Tensor3,
    Vec,
    apply_map,
    embed13_23_12,
    flip,
    tensor2_inv,
    tensor2_mul,
    tensor3_mul,
    unit_tensor2,
)
from trihopf.triangular import (
    check_structure_theorems,
    drinfeld_element,
    r_matrix_rank,
    r_u,
    verify_triangular,
)

from _golden import (
    NON_DIAGONAL,
    builder_digests,
    semisimple_digests,
    twist_cases,
    twist_digests,
    z4_quarter_turn,
    z6_sixth_turn,
)
from _oracles import (
    bicharacter_twist_double_sum,
    bicharacter_values,
    bruteforce_alternating_nondegenerate,
    bruteforce_sign_characters,
    characters,
    cyclic_decomposition,
    exhaustive_axioms,
    exhaustive_triangular,
    gauge_transformed_twist,
    generator_sum_bicharacter_twist,
    is_bicharacter_table,
    mult_cell,
    sweedler_r,
)

ONE = CycScalar.one()
ZERO = CycScalar.zero()
GOLDEN = Path(__file__).parent / "golden"


def sc(n, d=1):
    return CycScalar.from_rational(n, d)


@pytest.fixture(scope="module")
def z2():
    return FiniteGroup.cyclic(2)


@pytest.fixture(scope="module")
def z2z2():
    return FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))


@pytest.fixture(scope="module")
def sign_line(z2):
    return GroupRep.from_sign_characters(z2, [(1, -1)])


@pytest.fixture(scope="module")
def sweedler(z2, sign_line):
    return modified_supergroup_algebra(z2, sign_line, u=1)


# --- group algebras ----------------------------------------------------------

def test_group_algebra_trivial():
    h = group_algebra(FiniteGroup.trivial())
    assert h.dim == 1 and verify_hopf(h).ok


def test_group_algebra_z2(z2):
    h = group_algebra(z2)
    assert h.dim == 2
    assert tuple(v.nonzeros for v in h.antipode) == (((0, ONE),), ((1, ONE),))


def test_group_algebra_s3():
    h = group_algebra(FiniteGroup.symmetric3())
    assert h.dim == 6
    assert verify_hopf(h).ok
    d = dual_hopf(h)
    assert d.mult == Tensor3(6, [((j, i, k), c) for i, j, k, c in d.mult.nonzeros])


def test_malformed_cayley_table():
    with pytest.raises(GroupError):
        FiniteGroup([[0, 1], [0, 1]], 0)
    with pytest.raises(GroupError):
        FiniteGroup([[1, 0], [0, 1]], 0)  # identity misplated


def _decomposed_groups():
    """The catalog, the order-16 groups of the CLI benchmark, and Z2^5."""
    from trihopf.atlas import CATALOG

    cyc, dp = FiniteGroup.cyclic, FiniteGroup.direct_product
    yield from ((name, build()) for name, build in CATALOG.items())
    for factors in ((4, 4), (8, 2), (4, 2, 2), (2, 2, 2, 2), (2, 2, 2, 2, 2)):
        yield "x".join(f"Z{f}" for f in factors), dp(*map(cyc, factors))
    yield "D4xZ2", dp(FiniteGroup.dihedral4(), cyc(2))
    yield "Q8xZ2", dp(FiniteGroup.quaternion8(), cyc(2))


def test_abelian_subgroup_exponents_are_an_isomorphism():
    """exponents maps A onto the mixed-radix labels of Z_{n_1} x ... x
    Z_{n_r}, bijectively and additively, for every abelian subgroup A,
    and the pruned search picks the factors, the exponent map and its
    order that trying every tuple whole picks."""
    count = 0
    for name, g in _decomposed_groups():
        for elements in g.all_subgroups():
            if any(g.table[x][y] != g.table[y][x] for x in elements for y in elements):
                continue
            a = AbelianSubgroup(g, elements)
            count += 1
            found = _find_cyclic_decomposition(g.table, a.elements, g.identity)
            expected = cyclic_decomposition(g.table, a.elements, g.identity)
            assert found[0] == a.factors == expected[0], (name, elements)
            assert list(found[1].items()) == list(expected[1].items()), (name, elements)
            assert a.exponents == expected[1], (name, elements)
            assert prod(a.factors) == a.order, (name, elements)
            assert sorted(a.exponents.values()) == a.labels(), (name, elements)
            for x in elements:
                for y in elements:
                    ex, ey = a.exponents[x], a.exponents[y]
                    assert a.exponents[g.mul(x, y)] == tuple(
                        (i + j) % f for i, j, f in zip(ex, ey, a.factors)
                    ), (name, x, y)
    assert count == 268 + 374  # Z2^5 has 374 subgroups
    z2e5 = FiniteGroup.direct_product(*[FiniteGroup.cyclic(2)] * 5)
    assert AbelianSubgroup(z2e5, range(32)).factors == (2,) * 5


def test_z2_to_the_6_decomposes():
    # trying every 6-tuple of its 63 non-identity elements whole took 13 s
    g = FiniteGroup.direct_product(*[FiniteGroup.cyclic(2)] * 6)
    a = AbelianSubgroup(g, range(64))
    assert a.factors == (2,) * 6
    assert sorted(a.exponents.values()) == a.labels()
    gens = [x for x in a.elements if sum(a.exponents[x]) == 1]
    assert gens == [1, 2, 4, 8, 16, 32]


# --- characters and idempotents -----------------------------------------------

def test_characters_z2(z2):
    labels, chars, idems = characters(z2)
    assert [list(c) for c in chars] == [[ONE, ONE], [ONE, -ONE]]
    assert idems[0] == Vec.from_entries([sc(1, 2), sc(1, 2)])
    assert idems[1] == Vec.from_entries([sc(1, 2), sc(-1, 2)])


def test_characters_z3_idempotent_relations():
    z3 = FiniteGroup.cyclic(3)
    h = group_algebra(z3)
    labels, chars, idems = characters(z3)
    z = root_of_unity(3, 1)
    assert any(z in row for row in chars)
    total = Vec(3, ())
    for a, ea in enumerate(idems):
        total = total + ea
        for b, eb in enumerate(idems):
            prod = h.mul_vec(ea, eb)
            assert prod == (ea if a == b else Vec(3, ()))
    assert total == h.unit


def test_characters_z4xz2_orthogonality():
    g = FiniteGroup.direct_product(FiniteGroup.cyclic(4), FiniteGroup.cyclic(2))
    labels, chars, idems = characters(g)
    assert len(chars) == 8
    n = sc(8)
    for s, row_s in enumerate(chars):
        for t, row_t in enumerate(chars):
            acc = ZERO
            for a in range(8):
                acc = acc + row_s[a] * row_t[a].inv()
            assert acc == (n if s == t else ZERO)


def test_characters_requires_abelian():
    with pytest.raises(NotAbelian):
        characters(FiniteGroup.symmetric3())


# --- exterior algebras ---------------------------------------------------------

def test_exterior_dims_and_axioms():
    for n in range(4):
        e = exterior_algebra(n)
        assert e.dim == 2 ** n
        assert verify_hopf(e).ok


def test_exterior_squares_vanish():
    e = exterior_algebra(2)
    assert mult_cell(e, 1, 1) == () and mult_cell(e, 2, 2) == ()
    # v1 v2 = -v2 v1
    assert dict(mult_cell(e, 1, 2)) == {3: ONE}
    assert dict(mult_cell(e, 2, 1)) == {3: -ONE}


def test_exterior_coproduct_koszul_sign():
    e = exterior_algebra(2)
    # Delta(v1 v2) = v1v2 (x) 1 + v1 (x) v2 - v2 (x) v1 + 1 (x) v1v2
    expected = {(3, 0): ONE, (1, 2): ONE, (2, 1): -ONE, (0, 3): ONE}
    assert e.comult[3] == Tensor2.from_dict(4, expected)


# --- supergroup algebras --------------------------------------------------------

def test_supergroup_trivial_group_is_exterior(z2):
    triv = FiniteGroup.trivial()
    v = GroupRep.from_sign_characters(triv, [(1,)])
    sg = supergroup_algebra(triv, v)
    expected = exterior_algebra(1)
    assert (sg.algebra, sg.coalgebra) == (expected.algebra, expected.coalgebra)
    # the identity coset of k[Z2] x Lambda(W) is a sub-Hopf algebra
    # Lambda(W), entry for entry
    big = supergroup_algebra(z2, GroupRep.from_sign_characters(z2, [(1, -1), (1, -1)]))
    ext = exterior_algebra(2)
    assert all(mult_cell(big, i, j) == mult_cell(ext, i, j) for i in range(4) for j in range(4))
    assert all(big.comult[i].nonzeros == ext.comult[i].nonzeros for i in range(4))
    assert all(big.antipode[i].nonzeros == ext.antipode[i].nonzeros for i in range(4))
    assert big.counit.entries[:4] == ext.counit.entries and big.parity[:4] == ext.parity


def test_supergroup_z2_sign_relations(z2, sign_line):
    sg = supergroup_algebra(z2, sign_line)
    assert sg.dim == 4 and sg.super
    assert verify_hopf(sg).ok
    assert sg.coalgebra.cocommutative
    # g v = -v g: basis order 1, v, g, gv
    g, v = Vec.basis(4, 2), Vec.basis(4, 1)
    assert sg.mul_vec(g, v) == Vec.from_entries([ZERO, ZERO, ZERO, ONE])
    assert sg.mul_vec(v, g) == Vec.from_entries([ZERO, ZERO, ZERO, -ONE])


def test_supergroup_radical_dim(z2):
    v2 = GroupRep.from_sign_characters(z2, [(1, -1), (1, -1)])
    sg = supergroup_algebra(z2, v2)
    assert sg.dim == 8
    assert len(jacobson_radical(sg)) == 6


# --- modified supergroup algebra (Sweedler) --------------------------------------

def test_sweedler_hand_table(sweedler):
    """Entrywise match with the independently hand-built 4-dim table."""
    h, _ = sweedler
    one = ONE
    # basis 1, x, g, gx with x^2 = 0, g^2 = 1, x g = -g x
    expected_mult = {
        (0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one}, (0, 3): {3: one},
        (1, 0): {1: one}, (1, 1): {}, (1, 2): {3: -one}, (1, 3): {},
        (2, 0): {2: one}, (2, 1): {3: one}, (2, 2): {0: one}, (2, 3): {1: one},
        (3, 0): {3: one}, (3, 1): {}, (3, 2): {1: -one}, (3, 3): {},
    }
    for (i, j), cell in expected_mult.items():
        assert dict(mult_cell(h, i, j)) == cell, (i, j)
    expected_comult = [
        {(0, 0): one},
        {(1, 0): one, (2, 1): one},   # Delta(x) = x (x) 1 + g (x) x
        {(2, 2): one},
        {(3, 2): one, (0, 3): one},   # Delta(gx) = gx (x) g + 1 (x) gx
    ]
    for i, cell in enumerate(expected_comult):
        assert h.comult[i] == Tensor2.from_dict(4, cell), i
    assert list(h.counit.entries) == [one, ZERO, one, ZERO]
    # S(1) = 1, S(x) = -gx, S(g) = g, S(gx) = x
    assert tuple(v.nonzeros for v in h.antipode) == (((0, one),), ((3, -one),), ((2, one),), ((1, one),))
    assert h.unit == Vec.basis(4, 0)
    assert not h.super and h.parity == (0, 0, 0, 0)


def test_sweedler_r_u_and_drinfeld(sweedler):
    h, ru = sweedler
    half = sc(1, 2)
    assert {(i, j): c for i, j, c in ru.nonzeros} == {
        (0, 0): half, (0, 2): half, (2, 0): half, (2, 2): -half,
    }
    assert verify_triangular(h, ru)
    assert drinfeld_element(h, ru) == Vec.basis(4, 2)
    assert r_matrix_rank(ru) == 2


def test_modified_v0_degenerates_to_group_algebra(z2z2):
    v0 = GroupRep.zero(z2z2)
    h, ru = modified_supergroup_algebra(z2z2, v0, u=1)
    expected = group_algebra(z2z2)
    assert (h.algebra, h.coalgebra) == (expected.algebra, expected.coalgebra)
    assert verify_triangular(h, ru)
    assert r_matrix_rank(ru) == 2


def test_modified_rejects_bad_modifier():
    s3 = FiniteGroup.symmetric3()
    v0 = GroupRep.zero(s3)
    with pytest.raises(SeptupleInvariantViolation):
        modified_supergroup_algebra(s3, v0, u=3)  # transposition: not central
    z4 = FiniteGroup.cyclic(4)
    with pytest.raises(SeptupleInvariantViolation):
        modified_supergroup_algebra(z4, GroupRep.zero(z4), u=1)  # order 4
    z2 = FiniteGroup.cyclic(2)
    triv_rep = GroupRep.from_sign_characters(z2, [(1, 1)])
    with pytest.raises(SeptupleInvariantViolation):
        modified_supergroup_algebra(z2, triv_rep, u=1)  # u acts by +1


def test_modified_radical_formula_and_rank():
    z2 = FiniteGroup.cyclic(2)
    for chars in ([], [(1, -1)], [(1, -1), (1, -1)]):
        v = (
            GroupRep.from_sign_characters(z2, chars)
            if chars
            else GroupRep.zero(z2)
        )
        h, ru = modified_supergroup_algebra(z2, v, u=1)
        assert len(jacobson_radical(h)) == 2 * (2 ** len(chars) - 1)
        assert r_matrix_rank(ru) == 2
    # u = identity forces V = 0 and rank 1
    h, ru = modified_supergroup_algebra(
        FiniteGroup.cyclic(3), GroupRep.zero(FiniteGroup.cyclic(3)), u=0
    )
    assert r_matrix_rank(ru) == 1


def _committed_digests(name: str) -> dict:
    lines = (GOLDEN / name).read_text().splitlines()
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def test_builder_bytes_match_the_committed_digests():
    # golden/builders.sha256 is what `python tests/_golden.py` prints
    expected = _committed_digests("builders.sha256")
    assert len(expected) == 443
    assert builder_digests() == expected


def test_semisimple_triangular_bytes_match_the_committed_digests():
    # golden/semisimple.sha256 is what `python tests/_golden.py semisimple`
    # prints: (H, R) for the 116 semisimple atlas instances up to order 16
    expected = _committed_digests("semisimple.sha256")
    assert len(expected) == 2 * 116
    assert semisimple_digests() == expected


# --- smash products on a W that is not diagonal ------------------------------------

@pytest.mark.parametrize("build", list(NON_DIAGONAL.values()), ids=list(NON_DIAGONAL))
def test_non_diagonal_smash_products_verify(build):
    g, w, u = build()
    sg = supergroup_algebra(g, w)
    assert verify_hopf(sg).ok
    h, ru = modified_supergroup_algebra(g, w, u)
    assert h.dim == sg.dim == g.order * 4
    assert verify_hopf(h).ok
    assert verify_triangular(h, ru)
    assert check_structure_theorems(h, ru).ok


def test_non_diagonal_smash_products_match_the_exhaustive_oracles():
    # Z4rot is a signed permutation; Z6rot is not, so rho(g) v_S there
    # expands into several terms
    for build in (z4_quarter_turn, z6_sixth_turn):
        g, w, u = build()
        sg = supergroup_algebra(g, w)
        h, ru = modified_supergroup_algebra(g, w, u)
        assert h.dim == 4 * g.order
        for host in (sg, h):
            report = exhaustive_axioms(host)
            assert report["witnesses"] == {} and verify_hopf(host).to_obj() == report
        assert exhaustive_triangular(h, {(i, j): c for i, j, c in ru.nonzeros})


def test_quarter_turn_modification_mixes_the_generators():
    # x = v_1 and y = v_2 with t x = y t; Delta'(x) = x (x) 1 + u (x) x
    # and S'(x) = -u x, with u = t^2 at index 8
    g, w, u = z4_quarter_turn()
    h, _ = modified_supergroup_algebra(g, w, u)
    assert h.comult[1] == Tensor2.from_dict(16, {(1, 0): ONE, (8, 1): ONE})
    assert h.antipode[1].nonzeros == ((9, -ONE),)
    t, x = Vec.basis(16, 4), Vec.basis(16, 1)
    assert h.mul_vec(t, x) == h.mul_vec(Vec.basis(16, 2), t)


# --- bicharacter twists -----------------------------------------------------------

def test_trivial_bicharacter_gives_unit_twist(z2):
    a = AbelianSubgroup(z2, range(2))
    j = build_bicharacter_twist(a, Bicharacter.trivial((2,)))
    h = group_algebra(z2)
    assert j == unit_tensor2(h)
    assert verify_twist(h, j)


def test_symmetric_z2_bicharacter_twist(z2):
    # beta(1,1) = -1 on the nontrivial character: J = 1 (x) 1 - 2 E- (x) E-
    a = AbelianSubgroup(z2, range(2))
    beta = Bicharacter((2,), ((0, 0), (0, 1)))
    j = build_bicharacter_twist(a, beta)
    h = group_algebra(z2)
    e_minus = Vec.from_entries([sc(1, 2), sc(-1, 2)])
    expected = unit_tensor2(h) - Tensor2.outer(e_minus, e_minus).scale(sc(2))
    assert j == expected
    assert verify_twist(h, j)


def _old_cocycle_order(h, j):
    """J12 (Delta (x) id)(J) = J23 (id (x) Delta)(J), the identity for J Delta J^-1."""
    return tensor3_mul(
        embed13_23_12(j, "12", h), embed13_23_12(j, "delta_id", h), h
    ) == tensor3_mul(embed13_23_12(j, "23", h), embed13_23_12(j, "id_delta", h), h)


def test_twist_cocycle_order_matches_delta_j(sweedler):
    # J = R passes the identity for J Delta J^-1 but twists R into a
    # non-triangular R^J; apply_twist's J^-1 Delta J needs the other order
    h, _ = sweedler
    r = sweedler_r(sweedler[1])
    assert verify_triangular(h, r)
    assert _old_cocycle_order(h, r)
    assert verify_twist(h, r) is False
    with pytest.raises(TwistError):
        apply_twist(h, r, r=r)


def test_flipped_r_twists_sweedler_to_its_opposite(sweedler):
    # J = R21 = R^-1 gives J^-1 Delta J = R Delta R^-1 = Delta^op
    h, _ = sweedler
    r = sweedler_r(sweedler[1])
    j = flip(r, h)
    assert not _old_cocycle_order(h, j)
    assert verify_twist(h, j)
    h2, r2 = apply_twist(h, j, r=r)
    assert verify_hopf(h2).ok
    assert verify_triangular(h2, r2)
    for i in range(4):
        assert h2.comult[i] == flip(h.comult[i], h)


def test_twist_record_checks_its_premises(z2z2):
    h = group_algebra(z2z2)
    a = AbelianSubgroup(z2z2, range(4))
    beta = half_bicharacter(alternating_nondegenerate_bicharacters((2, 2))[0])
    j = build_bicharacter_twist(a, beta)
    tw = Twist(h, j)
    assert tw.j_inv == tensor2_inv(j, h)
    bad = j + Tensor2.from_dict(4, {(1, 2): sc(1, 3)})
    with pytest.raises(TwistError):
        Twist(h, bad, tw.j_inv)
    with pytest.raises(TwistError):
        Twist(h, j, unit_tensor2(h))
    with pytest.raises(TwistError):
        Twist(exterior_algebra(1), unit_tensor2(exterior_algebra(1)))


def _closed_form_cases():
    """(H, J) for every twist of the atlas up to order 9 on its host, and
    for every bicharacter twist of the atlas strata of Z3xZ3, Z2^4 and the
    Klein subgroups of Z2^3, Z4xZ2 and D4 on the group algebra."""
    for spec in atlas.enumerate_instances(9):
        h, _ = atlas._host(spec.group, spec.v_chars, spec.u)
        yield h, atlas._twist(spec.group, spec.subgroup, spec.gamma_index, spec.dim)
    for g, order in (
        (atlas._cyclic_product(3, 3)(), 9),
        (atlas._cyclic_product(2, 2, 2, 2)(), 16),
        (atlas._cyclic_product(2, 2, 2)(), 4),
        (atlas._cyclic_product(4, 2)(), 4),
        (FiniteGroup.dihedral4(), 4),
    ):
        h = group_algebra(g)
        for elements, gammas in atlas._square_subgroup_strata(g):
            if len(elements) == order:
                sub = AbelianSubgroup(g, elements)
                for gamma in gammas:
                    yield h, build_bicharacter_twist(sub, half_bicharacter(gamma))


def test_bicharacter_twists_invert_in_closed_form(monkeypatch):
    # (S (x) id)(J) J = 1 for every bicharacter twist, so Twist takes the
    # closed form and never solves; it is the solver's J^-1, as an
    # inverse is unique
    cases = [(h, j, tensor2_inv(j, h)) for h, j in _closed_form_cases()]

    def no_solve(t, host):
        raise AssertionError("J^-1 solved for")

    monkeypatch.setattr(constructions, "tensor2_inv", no_solve)
    for h, j, j_inv in cases:
        assert Twist(h, j).j_inv == j_inv
    # 119 atlas instances, 2 twists on Z3xZ3, 28 on Z2^4, and one on each
    # Klein subgroup: 7 in Z2^3, 1 in Z4xZ2, 2 in D4
    assert len(cases) == 119 + 2 + 28 + 7 + 1 + 2


def test_twist_solves_where_the_closed_form_fails(z2z2, monkeypatch):
    # the gauge transform J' = Delta(x)^-1 J (x (x) x), x = 2 e - g, of the
    # bicharacter twist J on Z2 x Z2 is a twist whose closed form fails
    h = group_algebra(z2z2)
    a = AbelianSubgroup(z2z2, range(4))
    bichar = build_bicharacter_twist(a, half_bicharacter(alternating_nondegenerate_bicharacters((2, 2))[0]))
    x = Vec(4, [(0, sc(2)), (1, sc(-1))])
    delta_x_inv = h.comult_vec(algebra_inverse(h, x))
    j = gauge_transformed_twist()
    assert tensor2_mul(tensor2_mul(delta_x_inv, bichar, h), Tensor2.outer(x, x), h) == j
    assert verify_twist(h, j)
    candidate = apply_map(h.antipode, j)
    assert tensor2_mul(j, candidate, h) != unit_tensor2(h)
    assert tensor2_mul(candidate, j, h) != unit_tensor2(h)
    j_inv = tensor2_inv(j, h)
    solved = []

    def counting_inv(t, host):
        solved.append(t)
        return j_inv

    monkeypatch.setattr(constructions, "tensor2_inv", counting_inv)
    assert Twist(h, j).j_inv is j_inv
    assert solved == [j]


def test_singular_twist_still_raises_not_invertible(z2):
    # J = 1 (x) 1 - E- (x) E- passes both twist identities; its closed form
    # (S (x) id)(J) is J itself, and J J = J != 1, so J goes to the solver
    h = group_algebra(z2)
    e_minus = Vec.from_entries([sc(1, 2), sc(-1, 2)])
    j = unit_tensor2(h) - Tensor2.outer(e_minus, e_minus)
    assert apply_map(h.antipode, j) == j == tensor2_mul(j, j, h)
    with pytest.raises(NotInvertible, match=r"^element is a zero divisor in H\(x\)H$"):
        Twist(h, j)
    with pytest.raises(NotInvertible, match=r"^element is a zero divisor in H\(x\)H$"):
        verify_twist(h, j)


def test_unit_twist_is_a_no_op(z2z2):
    h = group_algebra(z2z2)
    h2, _ = apply_twist(h, unit_tensor2(h))
    assert (h2.algebra, h2.coalgebra) == (h.algebra, h.coalgebra)


def test_bicharacter_rejects_bad_table():
    from trihopf.errors import BicharacterError

    # not normalized, beta(g, 0) = -1: multiplicativity in the second slot
    # refuses it, as beta(g, g) = beta(g, 0 + g) = beta(g, 0) beta(g, g)
    with pytest.raises(BicharacterError, match="not multiplicative in the second slot"):
        Bicharacter((2,), ((0, 0), (1, 0)))
    with pytest.raises(BicharacterError, match="value table has wrong shape"):
        Bicharacter((2, 2), ((0,) * 3,) * 3)
    for entry in (True, 1.0, ONE):
        with pytest.raises(BicharacterError, match="exponents must be integers"):
            Bicharacter((2,), ((0, 0), (0, entry)))


def _z2e4():
    z2 = FiniteGroup.cyclic(2)
    return FiniteGroup.direct_product(z2, z2, z2, z2)


def _catalog_and_z2e4():
    from trihopf.atlas import CATALOG

    return [(name, build()) for name, build in CATALOG.items()] + [("Z2xZ2xZ2xZ2", _z2e4())]


def _square_abelian_factors(g):
    """Factors of every abelian subgroup of square order."""
    out = set()
    for elements in g.all_subgroups():
        if isqrt(len(elements)) ** 2 == len(elements) and all(
            g.table[a][b] == g.table[b][a] for a in elements for b in elements
        ):
            out.add(tuple(AbelianSubgroup(g, elements).factors))
    return out


_GROUPS = _catalog_and_z2e4()


@pytest.mark.parametrize("name, g", _GROUPS, ids=[name for name, _ in _GROUPS])
def test_sign_characters_match_brute_force(name, g):
    assert sign_characters(g) == bruteforce_sign_characters(g)


def _regular_rep(g):
    """rho(a) e_b = e_(ab): the permutation matrices of left multiplication."""
    return [
        [[ONE if g.table[a][b] == i else ZERO for b in range(g.order)] for i in range(g.order)]
        for a in range(g.order)
    ]


@pytest.mark.parametrize("name, g", _GROUPS, ids=[name for name, _ in _GROUPS])
def test_group_rep_checks_every_generator(name, g):
    assert GroupRep(g, g.order, _regular_rep(g)).degree == g.order
    # per generator s outside the subgroup H the others generate:
    # rho(x) = 1 on H and 2 off H is multiplicative along every other
    # generator (right multiplication by it keeps the coset xH) and fails
    # only at (s, s), so each generator's own check must run
    closure = g.subgroup_closure
    mutants = 0
    for s in g.generators:
        rest = closure([t for t in g.generators if t != s])
        if s in rest:
            continue
        values = [[[ONE if x in rest else ONE + ONE]] for x in range(g.order)]
        with pytest.raises(ShapeError, match="not a homomorphism"):
            GroupRep(g, 1, values)
        mutants += 1
    assert mutants >= 1 or g.order == 1
    # one matrix of the regular representation doubled
    for x in range(g.order):
        if x != g.identity:
            mats = _regular_rep(g)
            mats[x] = [[c + c for c in row] for row in mats[x]]
            with pytest.raises(ShapeError, match="not a homomorphism"):
                GroupRep(g, g.order, mats)


def test_alternating_bicharacters_match_brute_force():
    factor_sets = {(2, 2, 2, 2)}
    for _, g in _GROUPS:
        factor_sets |= _square_abelian_factors(g)
    assert (2, 2) in factor_sets and (3, 3) in factor_sets
    for factors in sorted(factor_sets):
        tables = [bicharacter_values(b) for b in alternating_nondegenerate_bicharacters(factors)]
        assert tables == bruteforce_alternating_nondegenerate(factors), factors


@pytest.mark.parametrize("factors", [(2, 4), (4, 2), (2, 6), (3, 3)])
def test_half_bicharacter_on_every_alternating_gamma(factors):
    # degenerate gammas included: on unequal factors gamma(g_1, g_2) is a
    # gcd(n_1, n_2)-th root, whose zeta_N exponent is a multiple of N / gcd
    g = gcd(*factors)
    for c in range(g):
        gamma = Bicharacter.from_exponent_matrix(factors, [[0, c], [-c % g, 0]])
        assert gamma.is_alternating()
        beta = half_bicharacter(gamma)
        values, gamma_values = bicharacter_values(beta), bicharacter_values(gamma)
        assert is_bicharacter_table(factors, values)
        n = len(beta.labels)
        assert all(
            values[s][t] * values[t][s].inv() == gamma_values[s][t]
            for s in range(n) for t in range(n)
        )


@pytest.mark.parametrize("factors", [(2, 2, 2, 2), (3, 3), (4, 4)])
def test_bicharacter_rejects_broken_tables(factors):
    from trihopf.errors import BicharacterError

    exponents = alternating_nondegenerate_bicharacters(factors)[0].exponents
    labels = list(product(*[range(f) for f in factors]))
    n = len(labels)
    broken = []
    for i in range(n):
        for j in range(n):
            table = [list(row) for row in exponents]
            table[i][j] += 1
            broken.append(table)
    if factors[-1] > 2:
        # multiplicative along every unit label except the last one; on a
        # last factor of 2 this bump is (-1)**(s_last t_last), a bicharacter
        broken.append(
            [[k + 1 if s[-1] == 1 == t[-1] else k for t, k in zip(labels, row)] for s, row in zip(labels, exponents)]
        )
    # every column a character, but two labels swapped: not multiplicative in the second slot
    swapped = [[row[{1: 2, 2: 1}.get(j, j)] for j in range(n)] for row in exponents]
    broken += [swapped, [list(col) for col in zip(*swapped)]]
    for table in broken:
        with pytest.raises(BicharacterError, match="not multiplicative in the (first|second) slot"):
            Bicharacter(factors, table)
    Bicharacter(factors, exponents)


def _klein_subgroups_of_order_8_catalog():
    from trihopf.atlas import CATALOG

    for name, build in CATALOG.items():
        g = build()
        if g.order != 8:
            continue
        for elements in g.all_subgroups():
            if len(elements) == 4 and all(g.table[a][b] == g.table[b][a] for a in elements for b in elements):
                sub = AbelianSubgroup(g, elements)
                if tuple(sub.factors) == (2, 2):
                    yield name, sub


def test_bicharacter_twist_matches_double_sum():
    cases = []
    for factors in ((2, 2, 2, 2), (3, 3)):
        g = FiniteGroup.direct_product(*[FiniteGroup.cyclic(f) for f in factors])
        sub = AbelianSubgroup(g, range(g.order))
        gammas = alternating_nondegenerate_bicharacters(factors)
        cases += [(sub, half_bicharacter(gamma)) for gamma in (gammas[0], gammas[-1])]
    klein = list(_klein_subgroups_of_order_8_catalog())
    assert {name for name, _ in klein} == {"Z2xZ2xZ2", "Z4xZ2", "D4"}
    for _, sub in klein:
        for gamma in alternating_nondegenerate_bicharacters((2, 2)):
            cases.append((sub, half_bicharacter(gamma)))
    for sub, beta in cases:
        j = build_bicharacter_twist(sub, beta)
        assert {(p, q): c for p, q, c in j.nonzeros} == bicharacter_twist_double_sum(sub, beta)


def test_bicharacter_twist_counts_match_the_double_sum_and_the_old_bytes():
    # J counted on exponents against every (s, t, p, q) term of
    # sum beta(s,t) E_s (x) E_t multiplied out, field for field; on Z2
    # factors chi = chi^-1, so only the Z3xZ3 and Z4 cases tell a twist
    # built on chi_s(a) from one built on chi_s(a)^-1
    cases = list(twist_cases())
    assert len(cases) == 101
    for label, sub, beta in cases:
        j = build_bicharacter_twist(sub, beta)
        expected = Tensor2(sub.parent.order, bicharacter_twist_double_sum(sub, beta).items())
        assert (j.order, j.den, j._num) == (expected.order, expected.den, expected._num), label
    # golden/twists.sha256 is what `python tests/_golden.py twists` printed
    # while J was multiplied out of E_s and w_s = sum_t beta(s,t) E_t
    assert twist_digests() == _committed_digests("twists.sha256")


def test_a_table_that_is_no_bicharacter_is_refused_by_the_twist():
    # the constructor checks the table; a row changed after it did is
    # caught by the certificate x(t, b_s) = e[s][t] of the twist builder
    from trihopf.errors import BicharacterError

    z3 = FiniteGroup.cyclic(3)
    beta = Bicharacter.from_exponent_matrix((3,), [[1]])
    bad = object.__new__(Bicharacter)
    vars(bad).update(vars(beta), exponents=((0, 0, 0), (0, 1, 2), (0, 2, 2)))
    with pytest.raises(BicharacterError, match=r"^row \(2,\) of the table is no character"):
        build_bicharacter_twist(AbelianSubgroup(z3, range(3)), bad)


def _fields(j):
    return j.dim, j.order, j.den, j._num


def test_pairing_table_twist_matches_the_generator_sums():
    # J read from the cached table x(t, b) against J summed over the
    # generators per use, field for field: every (A, gamma) of atlas-16
    # and all 28 data on Z2^4
    data = {(s.group, s.subgroup, s.gamma_index) for s in atlas.enumerate_instances(16)}
    cases = [atlas._gamma(*key) for key in sorted(data)]
    z2_4 = FiniteGroup.direct_product(*[FiniteGroup.cyclic(2)] * 4)
    whole = AbelianSubgroup(z2_4, range(16))
    cases += [(whole, gamma) for gamma in alternating_nondegenerate_bicharacters((2, 2, 2, 2))]
    assert (len(data), len(cases)) == (36, 36 + 28)
    for sub, gamma in cases:
        beta = half_bicharacter(gamma)
        assert _fields(build_bicharacter_twist(sub, beta)) == _fields(generator_sum_bicharacter_twist(sub, beta))
    assert constructions._pairings((2, 2, 2, 2)) is constructions._pairings((2, 2, 2, 2))


@pytest.mark.parametrize("cyclic, gen, row, label", [
    ((3,), [[1]], 2, r"\(2,\)"),
    ((2, 2), [[0, 1], [0, 0]], 3, r"\(1, 1\)"),
    # Z2 x Z4 decomposes as Z4 x Z2, whose label at index 5 is (2, 1)
    ((2, 4), [[0, 1], [1, 0]], 5, r"\(2, 1\)"),
])
def test_a_row_that_is_no_character_is_named_by_both_builders(cyclic, gen, row, label):
    # the last cell of one row changed after the constructor checked the
    # table, its unit cells kept: the pairing table's row compare names
    # the same row as the sums did
    from trihopf.errors import BicharacterError

    g = FiniteGroup.direct_product(*[FiniteGroup.cyclic(f) for f in cyclic])
    sub = AbelianSubgroup(g, range(g.order))
    beta = Bicharacter.from_exponent_matrix(sub.factors, gen)
    exponents = [list(r) for r in beta.exponents]
    exponents[row][-1] = (exponents[row][-1] + 1) % beta.root_order
    bad = object.__new__(Bicharacter)
    vars(bad).update(vars(beta), exponents=tuple(map(tuple, exponents)))
    for build in (build_bicharacter_twist, generator_sum_bicharacter_twist):
        with pytest.raises(BicharacterError, match=f"^row {label} of the table is no character of the dual group$"):
            build(sub, bad)


def test_counit_normalization_forced_negative(z2):
    h = group_algebra(z2)
    j = Tensor2.from_dict(2, {(0, 0): ONE, (0, 1): ONE})  # 1 (x) 1 + 1 (x) g
    assert verify_twist(h, j) is False


def test_singular_tensor_surfaces_not_invertible(z2):
    h = group_algebra(z2)
    e_minus = Vec.from_entries([sc(1, 2), sc(-1, 2)])
    singular = Tensor2.outer(h.unit, e_minus)  # annihilated by 1 (x) E+
    from trihopf.tensor import tensor2_inv

    with pytest.raises(NotInvertible):
        tensor2_inv(singular, h)


def test_z2z2_twist_matches_hand_formula(z2z2):
    h = group_algebra(z2z2)
    a = AbelianSubgroup(z2z2, range(4))
    gamma = alternating_nondegenerate_bicharacters((2, 2))[0]
    j = build_bicharacter_twist(a, half_bicharacter(gamma))
    assert verify_twist(h, j)
    h2, r = apply_twist(h, j, r=r_u(h, Vec.basis(4, 0)))
    assert verify_hopf(h2).ok
    # R[a][b] = (1/4) * (-1)**(a2 b1 + a1 b2) in exponent coordinates
    for x in range(4):
        for y in range(4):
            ex, ey = a.exponents[x], a.exponents[y]
            sgn = (ex[1] * ey[0] + ex[0] * ey[1]) % 2
            assert r.get(x, y) == sc(-1 if sgn else 1, 4)
    assert r_matrix_rank(r) == 4
    assert verify_triangular(h2, r)
    # on k[A] with A = G abelian the twist leaves Delta untouched
    for i in range(4):
        assert h2.comult[i] == Tensor2.from_dict(4, {(i, i): ONE})


def test_twist_roundtrip_restores_structure(z2z2):
    h = group_algebra(z2z2)
    a = AbelianSubgroup(z2z2, range(4))
    beta = half_bicharacter(alternating_nondegenerate_bicharacters((2, 2))[0])
    j = build_bicharacter_twist(a, beta)
    j_inv = build_bicharacter_twist(a, beta.inverse())
    h2, _ = apply_twist(h, j)
    h3, _ = apply_twist(h2, j_inv)
    assert (h3.algebra, h3.coalgebra) == (h.algebra, h.coalgebra)


def test_twisting_preserves_algebra_semisimplicity(z2z2):
    h = group_algebra(z2z2)
    a = AbelianSubgroup(z2z2, range(4))
    beta = half_bicharacter(alternating_nondegenerate_bicharacters((2, 2))[0])
    h2, _ = apply_twist(h, build_bicharacter_twist(a, beta))
    assert is_semisimple(h2)
    assert h2.mult == h.mult and h2.unit == h.unit and h2.counit == h.counit


# --- semisimple triangular construction ----------------------------------------

def test_semisimple_triangular_trivial_subgroup(z2):
    a = AbelianSubgroup(z2, [0])
    h, r = semisimple_triangular(z2, a, Bicharacter.trivial((1,)), u=1)
    expected = group_algebra(z2)
    assert (h.algebra, h.coalgebra) == (expected.algebra, expected.coalgebra)
    # R = R_u exactly (J = 1 (x) 1)
    half = sc(1, 2)
    assert {(i, j): c for i, j, c in r.nonzeros} == {
        (0, 0): half, (0, 1): half, (1, 0): half, (1, 1): -half,
    }
    assert verify_triangular(h, r)
    assert drinfeld_element(h, r) == Vec.basis(2, 1)


def test_semisimple_triangular_z3z3_odd(z2z2):
    z3z3 = FiniteGroup.direct_product(FiniteGroup.cyclic(3), FiniteGroup.cyclic(3))
    a = AbelianSubgroup(z3z3, range(9))
    gamma = alternating_nondegenerate_bicharacters((3, 3))[0]
    h, r = semisimple_triangular(z3z3, a, gamma, u=0)
    assert h.dim == 9 and is_semisimple(h)
    assert verify_triangular(h, r)
    assert drinfeld_element(h, r) == h.unit


def test_semisimple_triangular_rejects_noncentral_u():
    s3 = FiniteGroup.symmetric3()
    a = AbelianSubgroup(s3, [0])
    with pytest.raises(SeptupleInvariantViolation):
        semisimple_triangular(s3, a, Bicharacter.trivial((1,)), u=3)


# --- septuples -------------------------------------------------------------------

def _septuple_z2(z2, sign_line, **overrides):
    fields = dict(
        group=z2,
        w=GroupRep.zero(z2),
        a_elements=(0,),
        y_basis=(),
        b=None,
        v_beta=Bicharacter.trivial((1,)),
        v_dim=1,
        u=0,
    )
    fields.update(overrides)
    return Septuple(**fields)


def test_validate_degenerate_quadruple(z2, sign_line):
    s = _septuple_z2(z2, sign_line)
    report = validate_septuple(s)
    assert report.valid


def test_validate_dimension_check(z2, sign_line, z2z2):
    gamma = alternating_nondegenerate_bicharacters((2, 2))[0]
    ok = Septuple(
        group=z2z2, w=GroupRep.zero(z2z2), a_elements=(0, 1, 2, 3), y_basis=(),
        b=None, v_beta=gamma, v_dim=2, u=0,
    )
    assert validate_septuple(ok).valid
    # |A| = 2 is not a perfect square
    bad = _septuple_z2(z2, sign_line, a_elements=(0, 1), v_dim=1,
                       v_beta=Bicharacter.trivial((2,)))
    report = validate_septuple(bad)
    assert not report.valid
    assert "v_dimension_squared_is_a_order" in report.failures()


def test_validate_u_checks(z2, sign_line):
    s = _septuple_z2(z2, sign_line, w=sign_line, u=0)
    # u = identity acts by +1 on a nonzero W: must fail
    report = validate_septuple(s)
    assert "u_acts_by_minus_one_on_w" in report.failures()
    good = _septuple_z2(z2, sign_line, w=sign_line, u=1)
    assert validate_septuple(good).valid


def test_validate_subgroup_closure(z2z2, sign_line, z2):
    s = _septuple_z2(z2, sign_line, a_elements=(0, 1, 2), v_dim=1,
                     v_beta=Bicharacter.trivial((1,)), group=z2z2, w=GroupRep.zero(z2z2))
    report = validate_septuple(s)
    assert "a_closed_contains_identity" in report.failures()


def test_validate_refuses_a_repeated_subgroup_element(z2z2):
    gamma = alternating_nondegenerate_bicharacters((2, 2))[0]
    s = Septuple(group=z2z2, w=GroupRep.zero(z2z2), a_elements=(0, 1, 2, 3, 3), y_basis=(),
                 b=None, v_beta=gamma, v_dim=2, u=0)
    report = validate_septuple(s)
    assert report.failures()[0] == "a_closed_contains_identity"
    assert ("a_closed_contains_identity", False, "repeated subgroup element") in report.checks
    with pytest.raises(SeptupleInvariantViolation):
        septuple_twist(s)


def test_validate_y_and_b(z2):
    # W = sign + sign, Y = first coordinate line, B = identity on Y
    v2 = GroupRep.from_sign_characters(z2, [(1, -1), (1, -1)])
    y = (Vec.from_entries([ONE, ZERO]),)
    b = ((ONE,),)
    s = Septuple(group=z2, w=v2, a_elements=(0, 1), y_basis=y, b=b,
                 v_beta=Bicharacter.trivial((2,)), v_dim=1, u=1)
    report = validate_septuple(s)
    checks = dict((n, ok) for n, ok, _ in report.checks)
    assert checks["y_a_invariant"]
    assert checks["b_symmetric_invariant_nondegenerate"]
    # degenerate B fails
    s2 = Septuple(group=z2, w=v2, a_elements=(0, 1), y_basis=y, b=((ZERO,),),
                  v_beta=Bicharacter.trivial((2,)), v_dim=1, u=1)
    assert "b_symmetric_invariant_nondegenerate" in validate_septuple(s2).failures()


def _b(rows):
    return tuple(tuple(CycScalar.from_int(x) for x in row) for row in rows)


@pytest.mark.parametrize(
    "y, b, check, detail",
    [
        ((0, 1), [[2, 1], [1, 2]], "b_symmetric_invariant_nondegenerate", ""),
        ((0, 1), [[2, -1], [-1, 2]], "b_symmetric_invariant_nondegenerate",
         "B not invariant under rho(1)"),
        ((0, 1), [[1, 0], [0, 1]], "b_symmetric_invariant_nondegenerate",
         "B not invariant under rho(1)"),
        ((0, 1), [[0, 1], [1, 0]], "b_symmetric_invariant_nondegenerate",
         "B not invariant under rho(1)"),
        ((0, 1), [[2, 1], [0, 2]], "b_symmetric_invariant_nondegenerate", "B is not symmetric"),
        ((0, 1), [[2, 1, 0], [1, 2, 0]], "b_symmetric_invariant_nondegenerate",
         "B shape does not match Y"),
        ((0, 1), [[1, 1], [1, 1]], "b_symmetric_invariant_nondegenerate", "B is degenerate"),
        ((0,), [[1]], "y_a_invariant", "rho(1) moves Y out of itself"),
        ((), [[1]], "b_symmetric_invariant_nondegenerate", "B given without Y"),
    ],
    ids=["invariant", "conjugate_form", "identity", "swap", "not_symmetric", "shape",
         "degenerate", "y_not_invariant", "b_without_y"],
)
def test_validate_y_and_b_on_the_sixth_turn(y, b, check, detail):
    # rho(1) = [[1, -1], [1, 0]] is not orthogonal: B transforms as R B R^T,
    # and R^T B R would keep [[2, -1], [-1, 2]] in place of [[2, 1], [1, 2]]
    g, w, u = z6_sixth_turn()
    basis = (Vec.from_entries([ONE, ZERO]), Vec.from_entries([ZERO, ONE]))
    s = Septuple(group=g, w=w, a_elements=tuple(range(6)), y_basis=tuple(basis[i] for i in y),
                 b=_b(b), v_beta=Bicharacter.trivial((1,)), v_dim=1, u=u)
    results = {name: (ok, d) for name, ok, d in validate_septuple(s).checks}
    assert results[check] == (not detail, detail)


@pytest.mark.parametrize(
    "a_elements, y, b",
    [((0, 1), (0, 0), [[1, 0], [0, 1]]), ((0, 1), (0, 0), [[1, 1], [1, 0]]), ((0,), (0, None), [[1, 0], [0, 1]])],
    ids=["repeated_vector_identity_b", "repeated_vector_other_b", "zero_vector"],
)
def test_validate_names_a_y_that_is_not_a_basis(z2, a_elements, y, b):
    # Z2 acts by -1 on the plane, so every line is invariant: the fault is
    # Y itself, not the invariance of B under rho(0) = 1
    v2 = GroupRep.from_sign_characters(z2, [(1, -1), (1, -1)])
    vectors = {0: Vec.from_entries([ONE, ZERO]), None: Vec.from_entries([ZERO, ZERO])}
    s = Septuple(group=z2, w=v2, a_elements=a_elements, y_basis=tuple(vectors[i] for i in y),
                 b=_b(b), v_beta=Bicharacter.trivial((len(a_elements),)), v_dim=1, u=1)
    results = {name: (ok, d) for name, ok, d in validate_septuple(s).checks}
    assert results["y_a_invariant"] == (False, "Y is not linearly independent")
    assert results["b_symmetric_invariant_nondegenerate"] == (
        False, "Y is not an A-invariant basis, restriction undefined"
    )


def test_validate_refuses_a_y_vector_of_another_dimension():
    g, w, u = z6_sixth_turn()
    s = Septuple(group=g, w=w, a_elements=tuple(range(6)), y_basis=(Vec.from_entries([ONE]),),
                 b=_b([[1]]), v_beta=Bicharacter.trivial((1,)), v_dim=1, u=u)
    with pytest.raises(ShapeError, match="shape mismatch"):
        validate_septuple(s)


def test_pipeline_rejects_nonzero_b(z2):
    v2 = GroupRep.from_sign_characters(z2, [(1, -1), (1, -1)])
    s = Septuple(group=z2, w=v2, a_elements=(0,), y_basis=(Vec.from_entries([ONE, ZERO]),),
                 b=((ONE,),), v_beta=Bicharacter.trivial((1,)), v_dim=1, u=1)
    with pytest.raises(UnsupportedStratum):
        septuple_twist(s).apply()


def test_pipeline_rejects_invalid(z2, sign_line):
    s = _septuple_z2(z2, sign_line, a_elements=(0, 1), v_dim=1,
                     v_beta=Bicharacter.trivial((2,)))
    with pytest.raises(SeptupleInvariantViolation):
        septuple_twist(s).apply()


def test_pipeline_sweedler_stratum(z2, sign_line, sweedler):
    s = _septuple_z2(z2, sign_line, w=sign_line, u=1)
    h, r = septuple_twist(s).apply()
    assert (h.algebra, h.coalgebra) == (sweedler[0].algebra, sweedler[0].coalgebra)
    assert r == sweedler[1]


def test_pipeline_dim8_twisted(z2z2):
    chi = next(s for s in sign_characters(z2z2) if s[1] == -1)
    w = GroupRep.from_sign_characters(z2z2, [chi])
    gamma = alternating_nondegenerate_bicharacters((2, 2))[0]
    s = Septuple(group=z2z2, w=w, a_elements=(0, 1, 2, 3), y_basis=(), b=None,
                 v_beta=gamma, v_dim=2, u=1)
    h, r = septuple_twist(s).apply()
    assert h.dim == 8
    assert verify_hopf(h).ok
    assert verify_triangular(h, r)
    assert not is_semisimple(h)


def test_inflate_group_tensor(z2):
    t = Tensor2.from_dict(2, {(0, 1): sc(3)})
    big = inflate_group_tensor(t, 2, 4)
    assert {(i, j): c for i, j, c in big.nonzeros} == {(0, 2): sc(3)}
