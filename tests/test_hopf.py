"""Axiom verification, duality, radical, Chevalley property."""

import functools

import pytest
from hypothesis import example, given, settings, strategies as st

from trihopf import constructions, hopf
from trihopf.atlas import CATALOG, _host, enumerate_instances, instance_twist
from trihopf.constructions import (
    Twist,
    apply_twist,
    build_bicharacter_twist,
    exterior_algebra,
    group_algebra,
    modified_supergroup_algebra,
    supergroup_algebra,
)
from trihopf.errors import NotInvertible, OrderNotFound, ShapeError
from trihopf.groups import (
    AbelianSubgroup,
    FiniteGroup,
    GroupRep,
    alternating_nondegenerate_bicharacters,
    half_bicharacter,
)
from trihopf.hopf import (
    Algebra,
    Coalgebra,
    HopfData,
    algebra_inverse,
    antipode_contraction,
    dual_hopf,
    is_chevalley,
    is_semisimple,
    jacobson_radical,
    verify_hopf,
)
from trihopf.scalars import CycScalar, root_of_unity
from trihopf.serialize import hopf_dumps
from trihopf.tensor import Tensor2, Tensor3, Vec, apply_map, tensor2_mul, unit_tensor2
from trihopf.triangular import check_structure_theorems

from _oracles import (
    bruteforce_radical,
    dense_antipode,
    dense_antipode_order,
    dense_antipode_powers,
    dense_columns,
    dense_product,
    exhaustive_axioms,
    in_span,
    is_commutative,
    mult_cell,
    rank,
    same_span,
)

ONE = CycScalar.one()
ZERO = CycScalar.zero()


@pytest.fixture(scope="module")
def sweedler():
    z2 = FiniteGroup.cyclic(2)
    sign = GroupRep.from_sign_characters(z2, [(1, -1)])
    h, _ = modified_supergroup_algebra(z2, sign, u=1)
    return h


@pytest.fixture(scope="module")
def sg_z2_sign():
    z2 = FiniteGroup.cyclic(2)
    return supergroup_algebra(z2, GroupRep.from_sign_characters(z2, [(1, -1)]))


def test_group_algebras_verify():
    for g in (
        FiniteGroup.trivial(),
        FiniteGroup.cyclic(2),
        FiniteGroup.symmetric3(),
        FiniteGroup.dihedral4(),
    ):
        h = group_algebra(g)
        assert verify_hopf(h).ok
        assert h.coalgebra.cocommutative
        powers = dense_antipode_powers(h, 2)
        assert powers[2] == powers[0]


def test_sweedler_verifies(sweedler):
    assert verify_hopf(sweedler).ok


def test_broken_antipode_reports_witness():
    h = group_algebra(FiniteGroup.cyclic(2))
    broken = h.replace(antipode=(Vec(2, ()),) * 2)
    report = verify_hopf(broken)
    assert not report.antipode
    assert report.associativity and report.coassociativity
    assert report.witnesses["antipode"] == (0,)
    assert not report.ok


def test_broken_associativity_reports_witness():
    h = group_algebra(FiniteGroup.cyclic(2))
    # zero out 1*g: then (g*1)*g = 1 but g*(1*g) = 0
    broken = h.replace(mult=h.mult - Tensor3.from_dict(2, {(0, 1, 1): ONE}))
    report = verify_hopf(broken)
    assert not report.ok
    assert not report.associativity
    assert not report.unit
    # first failing triple: (1*g)*g = 0 while 1*(g*g) = 1
    assert report.witnesses["associativity"] == (0, 1, 1)


def _with_coproduct(h, i, delta):
    comult = list(h.comult)
    comult[i] = delta
    return h.replace(comult=tuple(comult))


def test_a_coproduct_entry_that_is_no_tensor_of_h_is_malformed(sweedler):
    # (j, k, c) triples are only the dump format of a coproduct
    for delta in (sweedler.comult[1].nonzeros, Tensor2(3, ())):
        with pytest.raises(ShapeError, match="comultiplication shape mismatch"):
            _with_coproduct(sweedler, 1, delta).validate()


@pytest.mark.parametrize(
    "part, table",
    [
        ("mult", (((0, 0, 0), ONE), ((0, 0, 1), ONE))),
        ("mult", (((0, 0, 0), ONE), ((0, 0, -1), ONE))),
        ("comult", (((0, 0), ONE), ((0, 1), ONE))),
        ("comult", (((0, 0), ONE), ((0, -1), ONE))),
        ("comult", (((0, 0), ONE), ((-1, 0), ONE))),
        ("antipode", ((0, ONE), (1, ONE))),
        ("antipode", ((0, ONE), (-1, ONE))),
    ],
    ids=["mult_past_the_end", "mult_negative", "comult_past_the_end",
         "comult_negative_right", "comult_negative_left", "antipode_past_the_end",
         "antipode_negative"],
)
def test_an_out_of_range_structure_index_is_malformed(part, table):
    # the field k (dim 1) with one stray index; the product, Delta(e_0) and
    # S(e_0) are each summed by a sparse constructor that trusts its
    # indices, so the structural check refuses each index outside
    # 0..dim-1 and names it
    tables = {"mult": (((0, 0, 0), ONE),), "comult": (((0, 0), ONE),), "antipode": ((0, ONE),), part: table}
    algebra = Algebra(1, Vec.basis(1, 0), Tensor3(1, tables["mult"]), (0,))
    coalgebra = Coalgebra(1, (Tensor2(1, tables["comult"]),), Vec.basis(1, 0), (Vec(1, tables["antipode"]),), (0,))
    named = {"mult": "product", "comult": "coproduct", "antipode": "antipode"}[part]
    with pytest.raises(ShapeError, match=f"^{named} index .* out of range at"):
        HopfData(algebra, coalgebra).validate()


@pytest.mark.parametrize(
    "key", [(4, 0, 0), (0, 4, 0), (0, 0, 4), (-1, 0, 0), (0, -1, 0), (0, 0, -1)],
    ids=["i_past_the_end", "j_past_the_end", "k_past_the_end", "i_negative", "j_negative", "k_negative"],
)
def test_a_mult_key_out_of_range_is_malformed(sweedler, key):
    # mult is one Tensor3, whose constructor trusts its keys
    bad = sweedler.replace(mult=sweedler.mult + Tensor3(4, [(key, ONE)]))
    with pytest.raises(ShapeError, match=r"^product index \(.*\) out of range at"):
        bad.validate()


def test_a_counit_of_another_length_or_type_is_malformed(sweedler):
    eps = sweedler.counit
    for counit in (Vec(3, eps.nonzeros[:1]), Vec.from_entries(eps.entries + (ONE,)), eps.entries):
        with pytest.raises(ShapeError, match="unit/counit/parity length mismatch"):
            sweedler.replace(counit=counit).validate()
    field = Algebra(1, Vec.basis(1, 0), Tensor3(1, [((0, 0, 0), ONE)]), (0,))
    coalgebra = Coalgebra(1, (Tensor2(1, [((0, 0), ONE)]),), Vec.from_entries([ONE, ZERO]), (Vec.basis(1, 0),), (0,))
    with pytest.raises(ShapeError, match="unit/counit/parity length mismatch"):
        HopfData(field, coalgebra).validate()


def test_records_of_two_gradings_are_malformed(sweedler):
    # each record is well formed on its own; together they disagree on
    # the grading (k[Z2] and the super Lambda(1)) or on the dimension
    z2, wedge = group_algebra(FiniteGroup.cyclic(2)), exterior_algebra(1)
    for algebra, coalgebra in ((z2.algebra, wedge.coalgebra), (sweedler.algebra, z2.coalgebra)):
        with pytest.raises(ShapeError, match="^algebra and coalgebra grading mismatch$"):
            hopf.HopfData(algebra, coalgebra).validate()


def test_an_antipode_column_over_another_dimension_is_malformed(sweedler):
    columns = sweedler.antipode[:1] + (Vec.basis(5, 1),) + sweedler.antipode[2:]
    for antipode in (columns, sweedler.antipode[:3], tuple(v.nonzeros for v in sweedler.antipode)):
        with pytest.raises(ShapeError, match="antipode shape mismatch"):
            sweedler.replace(antipode=antipode).validate()


def test_corrupt_coproduct_witnesses_sweedler(sweedler):
    # basis 1, v, g, gv; a stray v (x) v in Delta(v) breaks
    # coassociativity at v, and the bialgebra identity first at (v, g):
    # Delta(v) Delta(g) gains gv (x) gv, while (v, v) still gives 0 = 0
    broken = _with_coproduct(sweedler, 1, sweedler.comult[1] + Tensor2.from_dict(4, {(1, 1): ONE}))
    report = verify_hopf(broken)
    assert report.associativity and report.unit and report.counit
    assert report.witnesses["coassociativity"] == (1,)
    assert report.witnesses["bialgebra"] == (1, 2)


def test_corrupt_coproduct_witnesses_klein():
    # k[Z2xZ2] with e1 e2 = e3; Delta(e3) = e1 (x) e2 is not coassociative
    # at e3, and the first pair whose product is e3 while Delta(e_i)
    # Delta(e_j) differs is (1, 2): (0, 3) multiplies by the unit
    h = group_algebra(FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)))
    assert mult_cell(h, 1, 2) == ((3, ONE),)
    broken = _with_coproduct(h, 3, Tensor2.from_dict(h.dim, {(1, 2): ONE}))
    report = verify_hopf(broken)
    assert report.associativity and report.unit
    assert report.witnesses["coassociativity"] == (3,)
    assert report.witnesses["bialgebra"] == (1, 2)


def test_cocommutativity():
    assert group_algebra(FiniteGroup.symmetric3()).coalgebra.cocommutative
    dual = dual_hopf(group_algebra(FiniteGroup.symmetric3()))
    assert not dual.coalgebra.cocommutative


def test_supergroup_supercocommutative(sg_z2_sign):
    assert verify_hopf(sg_z2_sign).ok
    assert sg_z2_sign.coalgebra.cocommutative


def test_modified_supergroup_not_cocommutative(sweedler):
    assert not sweedler.coalgebra.cocommutative


# --- generator certificates ---------------------------------------------------

def _z2n(n):
    return FiniteGroup.direct_product(*[FiniteGroup.cyclic(2)] * n)


def _sweedler_host():
    z2 = FiniteGroup.cyclic(2)
    return modified_supergroup_algebra(z2, GroupRep.from_sign_characters(z2, [(1, -1)]), u=1)[0]


def _supergroup_z2_sign():
    z2 = FiniteGroup.cyclic(2)
    return supergroup_algebra(z2, GroupRep.from_sign_characters(z2, [(1, -1)]))


# name -> (builder, the greedy generating set)
SMALL_HOSTS = {
    "kZ2": (lambda: group_algebra(FiniteGroup.cyclic(2)), (1,)),
    "kZ3": (lambda: group_algebra(FiniteGroup.cyclic(3)), (1,)),
    "kZ4": (lambda: group_algebra(FiniteGroup.cyclic(4)), (1,)),
    "kZ2xZ2": (lambda: group_algebra(_z2n(2)), (1, 2)),
    "kS3": (lambda: group_algebra(FiniteGroup.symmetric3()), (1, 3)),
    "sweedler": (_sweedler_host, (1, 2)),
    "Lambda1": (lambda: exterior_algebra(1), (1,)),
    "Lambda2": (lambda: exterior_algebra(2), (1, 2)),
    "Lambda3": (lambda: exterior_algebra(3), (1, 2, 4)),
    "supergroup_Z2_sign": (_supergroup_z2_sign, (1, 2)),
}
_HOSTS = {name: build() for name, (build, _) in SMALL_HOSTS.items()}


def _left_closure_rank(h, gens):
    """Rank of the smallest subspace that contains 1 and is closed under
    x -> e_s x for s in gens, by closing the span of words in the gens."""
    span = [h.unit]
    frontier = [h.unit]
    while frontier:
        new = []
        for v in frontier:
            for s in gens:
                w = h.mul_vec(Vec.basis(h.dim, s), v)
                if not in_span(span, w):
                    span.append(w)
                    new.append(w)
        frontier = new
    return rank(v.entries for v in span)


@pytest.mark.parametrize("name", list(SMALL_HOSTS))
def test_generators_span_and_each_is_needed(name):
    h = _HOSTS[name]
    gens = h.generators
    assert gens == SMALL_HOSTS[name][1]
    assert _left_closure_rank(h, gens) == h.dim
    for s in gens:
        assert _left_closure_rank(h, [t for t in gens if t != s]) < h.dim


def test_generators_of_atlas_hosts():
    # three or four generators at dimension 16, one to three at dimension 8
    from trihopf.atlas import build_instance, enumerate_instances

    sizes: dict = {}
    for spec in enumerate_instances(16)[::7]:
        h, _ = build_instance(spec)
        assert _left_closure_rank(h, h.generators) == h.dim
        sizes.setdefault(h.dim, set()).add(len(h.generators))
    assert sizes[16] <= {3, 4} and sizes[8] <= {1, 2, 3}


def test_generators_of_a_loaded_dump():
    from pathlib import Path

    from trihopf.serialize import hopf_from_obj, load

    h = hopf_from_obj(load(Path(__file__).parent / "golden" / "sweedler.hopf.json"))
    assert h.generators == (1, 2)


def test_generators_none_without_a_unit():
    # a zero product: span{1} is closed under every e_s, so nothing spans
    h = group_algebra(FiniteGroup.cyclic(2))
    broken = h.replace(mult=Tensor3(2, ()))
    assert broken.generators is None
    assert verify_hopf(broken).to_obj() == exhaustive_axioms(broken)


def test_verify_hopf_scans_generators_only(monkeypatch):
    calls = []
    scan = hopf._axiom_scan

    def recording(h, lead):
        calls.append(tuple(lead))
        return scan(h, lead)

    monkeypatch.setattr(hopf, "_axiom_scan", recording)
    h = group_algebra(_z2n(3))
    assert verify_hopf(h).ok
    assert calls == [(1, 2, 4)]
    calls.clear()
    broken = h.replace(antipode=(Vec(8, ()),) * 8)
    assert verify_hopf(broken).witnesses == {"antipode": (0,)}
    assert calls == [(1, 2, 4), tuple(range(8))]  # the witness comes from the full scan


def _exhaustive_algebra_witnesses(h):
    basis = [Vec.basis(h.dim, i) for i in range(h.dim)]
    a = h.algebra
    return hopf._associativity_witness(a, range(h.dim)), hopf._unit_witness(a, basis)


def _atlas9_hosts():
    keys = {(s.group, s.v_chars, s.u) for s in enumerate_instances(9)}
    return [_host(*key)[0] for key in sorted(keys)]


def _product_mutant(h):
    """h with one product entry changed so that associativity fails: the
    first cell (i, j) that breaks it when its product gains e_0."""
    for i in range(h.dim):
        for j in range(h.dim):
            mutant = h.replace(mult=h.mult + Tensor3.from_dict(h.dim, {(i, j, 0): ONE}))
            if _exhaustive_algebra_witnesses(mutant)[0] is not None:
                return mutant
    raise AssertionError("no associativity-breaking entry found")


def test_algebra_witnesses_match_the_exhaustive_scan_on_atlas9_hosts():
    hosts = _atlas9_hosts()
    assert len(hosts) == 43
    failing = {"associativity": 0, "unit": 0}
    for h in hosts:
        assert h.algebra.witnesses == _exhaustive_algebra_witnesses(h) == (None, None)
        if h.dim == 1:
            continue  # k: every product c e_0 is associative, and 1 = e_0
        moved = h.replace(unit=Vec.basis(h.dim, h.dim - 1))
        broken = _product_mutant(h)
        # a twist's copy with another product computes its own facts
        twisted = h.replace(comult=h.comult)
        assert twisted.algebra is h.algebra and twisted.algebra.witnesses == (None, None)
        for mutant in (moved, broken, twisted.replace(mult=broken.mult)):
            assert mutant.algebra is not h.algebra
            expected = _exhaustive_algebra_witnesses(mutant)
            assert mutant.algebra.witnesses == expected
            failing["associativity"] += expected[0] is not None
            failing["unit"] += expected[1] is not None
            assert verify_hopf(mutant).to_obj() == exhaustive_axioms(mutant)
    # the unit moved keeps the product; the other two break associativity
    assert failing["associativity"] == 2 * 42 and failing["unit"] >= 42


def _atlas16_hosts():
    keys = {(s.group, s.v_chars, s.u) for s in enumerate_instances(16)}
    return [_host(*key)[0] for key in sorted(keys)]


def test_algebra_commutative_matches_the_dense_oracle():
    algebras = [group_algebra(build()) for build in CATALOG.values()] + _atlas16_hosts()
    assert len(algebras) == 23 + 96
    verdicts = [h.algebra.commutative for h in algebras]
    assert verdicts == [is_commutative(h) for h in algebras]
    # k[G] of the 20 abelian catalog groups, and the 41 hosts with W = 0 on
    # them: W != 0 gives u v = -v u
    assert sum(verdicts[:23]) == 20 and sum(verdicts[23:]) == 41
    # one product cell changed, so that e_1 e_2 != e_2 e_1
    h = group_algebra(FiniteGroup.cyclic(3))
    mutant = h.replace(mult=h.mult + Tensor3.from_dict(3, {(1, 2, 0): ONE}))
    assert h.algebra.commutative and not is_commutative(mutant)
    assert mutant.algebra is not h.algebra and not mutant.algebra.commutative


def _conjugated(tw):
    """J^-1 Delta(e_i) J and Q^-1 S(e_i) Q for every i, Q = m(S (x) id)(J),
    multiplied out with Q^-1 solved for."""
    h, j, j_inv = tw.host, tw.j, tw.j_inv
    comult = tuple(tensor2_mul(tensor2_mul(j_inv, d, h), j, h) for d in h.comult)
    q = antipode_contraction(h, j)
    q_inv = algebra_inverse(h, q)
    return comult, tuple(h.mul_vec(q_inv, h.mul_vec(s, q)) for s in h.antipode)


def _twisted_maps(monkeypatch, tw):
    """(comult, antipode, tensor2_mul calls that built them) of tw.coalgebra."""
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(constructions, "tensor2_mul", lambda *a: calls.append(a) or tensor2_mul(*a))
        coalgebra = tw.coalgebra
    return coalgebra.comult, coalgebra.antipode, len(calls)


def _abelian(g):
    return all(g.table[a][b] == g.table[b][a] for a in range(g.order) for b in range(a))


def _group_twists():
    """(G, Twist of k[G]) on the whole of Z3xZ3 and Z2^4 and on every
    Klein subgroup of Z2xZ2xZ2, Z4xZ2 and D4, by the first datum."""
    z2 = FiniteGroup.cyclic(2)
    cases = [(g, range(g.order)) for g in (CATALOG["Z3xZ3"](), FiniteGroup.direct_product(z2, z2, z2, z2))]
    for name in ("Z2xZ2xZ2", "Z4xZ2", "D4"):
        g = CATALOG[name]()
        cases += [(g, e) for e in g.all_subgroups() if len(e) == 4 and AbelianSubgroup(g, e).factors == (2, 2)]
    for g, elements in cases:
        sub = AbelianSubgroup(g, elements)
        gamma = alternating_nondegenerate_bicharacters(sub.factors)[0]
        yield g, Twist(group_algebra(g), build_bicharacter_twist(sub, half_bicharacter(gamma)))


def _twist_cases():
    """(twist, whether its host is commutative) for every atlas-9 instance
    and every twist of _group_twists: W = 0 on an abelian group."""
    cases = [(instance_twist(s), not s.v_chars and _abelian(CATALOG[s.group]())) for s in enumerate_instances(9)]
    return cases + [(tw, _abelian(g)) for g, tw in _group_twists()]


def test_a_twist_of_a_commutative_host_keeps_its_coalgebra(monkeypatch):
    # J^-1 x J = x in the commutative H (x) H, and S^J = S by the
    # uniqueness of the antipode: on k[G] for G abelian the twist's maps
    # are H's own and equal the conjugations multiplied out; every other
    # host, a nonabelian G or W != 0, conjugates, by 2 products in H (x) H
    # per column
    cases = _twist_cases()
    kept = 0
    for tw, commutative in cases:
        h = tw.host
        comult, antipode, calls = _twisted_maps(monkeypatch, tw)
        assert (comult, antipode) == _conjugated(tw)
        assert tw._keeps_coalgebra == commutative
        if commutative:
            kept += 1
            assert tw.coalgebra is h.coalgebra and calls == 0
            assert comult is h.comult and antipode is h.antipode
        else:
            assert calls == 2 * h.dim
    # 96 atlas-9 instances with W = 0 on an abelian group, and the 10 of
    # the 12 twists above that are not on D4; 14 atlas-9 instances have
    # W != 0 and 9 a nonabelian group
    assert len(cases) == 119 + 12 and kept == 96 + 10


def test_a_kept_coalgebra_forms_no_q(monkeypatch):
    # on the 106 kept cases Twist.coalgebra forms neither Q = m(S (x) id)(J)
    # nor Q^-1; on the 25 others it forms Q^-1 once, certified, and
    # conjugates.  On all 131 the closed form m(id (x) S)(J^-1) inverts Q
    # on both sides: Q was invertible wherever it is no longer formed, so
    # no verdict moved
    calls = []
    for name in ("antipode_contraction", "certified_inverse"):
        original = getattr(constructions, name)
        monkeypatch.setattr(
            constructions, name, lambda *a, name=name, original=original, **k: calls.append(name) or original(*a, **k)
        )
    conjugating = 0
    for tw, commutative in _twist_cases():
        h = tw.host
        calls.clear()
        coalgebra = tw.coalgebra
        if commutative:
            assert coalgebra is h.coalgebra and calls == []
        else:
            conjugating += 1
            assert calls == ["antipode_contraction"] * 2 + ["certified_inverse"]
            assert coalgebra.antipode == _conjugated(tw)[1]
        q, q_inv = antipode_contraction(h, tw.j), antipode_contraction(h, tw.j_inv, leg=1)
        assert h.mul_vec(q, q_inv) == h.unit == h.mul_vec(q_inv, q)
    assert conjugating == 25


def test_a_kept_coalgebra_shares_its_hosts_structural_check(monkeypatch):
    # an H^J that holds its host's very Coalgebra takes the host's
    # verdict on it, S^2 and S^4; any copy with a map of its own holds a
    # fresh Coalgebra, checked afresh, and a malformed one is refused by
    # name
    checked = []
    check = hopf.Coalgebra.malformation.func
    counted = functools.cached_property(lambda c: checked.append(c) or check(c))
    counted.__set_name__(hopf.Coalgebra, "malformation")
    monkeypatch.setattr(hopf.Coalgebra, "malformation", counted)
    kept = []
    for s in enumerate_instances(9):
        tw = instance_twist(s)
        assert "_malformation" in vars(tw.host)
        checked.clear()
        h2, _ = tw.apply()
        assert h2._malformation is None and h2.axioms.ok
        if tw._keeps_coalgebra:
            kept.append(h2)
            assert h2.coalgebra is tw.host.coalgebra and checked == []
            assert h2.coalgebra.s4_columns is tw.host.coalgebra.s4_columns
        else:
            assert checked == [h2.coalgebra]
    assert len(kept) == 96
    # the last kept H^J: a copy with one antipode index out of range, and
    # copies with another counit, equal or not
    h2 = kept[-1]
    d = h2.dim
    bad = h2.replace(antipode=h2.antipode[:-1] + (Vec(d, [(d, ONE)]),))
    assert bad.twist is h2.twist and bad.coalgebra is not h2.coalgebra
    with pytest.raises(ShapeError, match=rf"^antipode index {d} out of range at {d - 1}$"):
        bad.validate()
    checked.clear()
    doubled = h2.replace(counit=h2.counit.scale(CycScalar.from_rational(2)))
    assert doubled._malformation == "counit(unit) != 1" and checked == [doubled.coalgebra]
    copy = h2.replace(counit=Vec(d, h2.counit.nonzeros))
    assert copy.counit == h2.counit and copy.counit is not h2.counit
    assert copy._malformation is None and checked == [doubled.coalgebra, copy.coalgebra]


def test_a_symmetric_product_that_is_not_associative_conjugates(monkeypatch):
    # e_4 e_5 = e_5 e_4 = 2 e_1 in k[Z2xZ2xZ2]: symmetric, but
    # (e_4 e_5) e_1 = 2 e_0 != e_0 = e_4 (e_5 e_1).  J lives on the Klein
    # subgroup {0, 1, 2, 3}, whose products are untouched, so it passes its
    # checks; Delta^J and S^J are multiplied out as on the parent, since
    # J^-1 x J = x needs an associative, unital product too
    g = CATALOG["Z2xZ2xZ2"]()
    h = group_algebra(g)
    mutant = h.replace(mult=h.mult + Tensor3.from_dict(8, {(4, 5, 1): ONE, (5, 4, 1): ONE}))
    assert mutant.algebra.commutative and is_commutative(mutant)
    assert mutant.algebra.witnesses == _exhaustive_algebra_witnesses(mutant) != (None, None)
    sub = AbelianSubgroup(g, (0, 1, 2, 3))
    gamma = alternating_nondegenerate_bicharacters(sub.factors)[0]
    tw = Twist(mutant, build_bicharacter_twist(sub, half_bicharacter(gamma)))
    comult, antipode, calls = _twisted_maps(monkeypatch, tw)
    assert calls == 2 * 8 and (comult, antipode) == _conjugated(tw)


def test_a_twist_shares_the_algebra_of_its_host():
    host = _sweedler_host()
    tw = Twist(host, unit_tensor2(host))
    h2, _ = tw.apply()
    assert h2.algebra is host.algebra and h2.counit is host.counit
    assert h2.mult is host.mult and h2.unit is host.unit and h2.parity is host.parity
    assert h2.generators is host.generators
    # a twist of a twist holds the first host's Algebra too
    h3, _ = Twist(h2, unit_tensor2(h2)).apply()
    assert h3.algebra is host.algebra
    # the records that cache facts once per object refuse assignment
    records = ((host.algebra, "mult"), (host.coalgebra, "antipode"), (host, "comult"), (h2, "twist"), (tw, "j_inv"))
    for record, name in records:
        with pytest.raises(AttributeError, match=name):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError, match="extra"):
            record.extra = None
    # replace keeps the very Algebra unless a field of it changes; a fresh
    # Algebra starts with no dump text and no cached fact
    assert hopf_dumps(host) and host.algebra.mult_text is not None
    assert host.replace(antipode=host.antipode, twist=tw).algebra is host.algebra
    fields = ("dim", "unit", "mult", "parity", "super")
    for name in fields:
        fresh = host.replace(**{name: getattr(host, name)}).algebra
        assert fresh is not host.algebra and fresh == host.algebra
        assert fresh.mult_text is None and set(vars(fresh)) <= {*fields, "mult_text"}
    # and likewise the Coalgebra; dim and parity belong to both records
    assert host.coalgebra.s4_columns and host.replace(mult=host.mult).coalgebra is host.coalgebra
    fields = ("dim", "comult", "counit", "antipode", "parity")
    for name in fields:
        fresh = host.replace(**{name: getattr(host, name)}).coalgebra
        assert fresh is not host.coalgebra and fresh == host.coalgebra and set(vars(fresh)) == set(fields)
    with pytest.raises(TypeError, match="mult_text"):
        host.replace(mult_text=host.algebra.mult_text)
    # a whole record, or the twist, replaces its part as it is
    copy = host.replace(algebra=h2.algebra, coalgebra=h2.coalgebra, twist=tw)
    assert (copy.algebra, copy.coalgebra, copy.twist) == (h2.algebra, h2.coalgebra, tw)
    assert copy.algebra is h2.algebra and copy.coalgebra is h2.coalgebra
    with pytest.raises(TypeError):
        hopf.Algebra(host.dim, host.unit, host.mult, host.parity, False, None)


def test_apply_twist_on_a_loaded_dump_computes_no_algebra_fact(monkeypatch):
    from pathlib import Path

    from trihopf.serialize import hopf_from_obj, load

    h = hopf_from_obj(load(Path(__file__).parent / "golden" / "sweedler.hopf.json"))

    def refused(*args):
        raise AssertionError("algebra fact computed")

    for name in ("_associativity_witness", "_unit_witness", "jacobson_radical"):
        monkeypatch.setattr(hopf, name, refused)
    h2, _ = apply_twist(h, unit_tensor2(h))
    assert h2.algebra is h.algebra
    assert not {"generators", "radical", "witnesses"} & set(vars(h.algebra))
    assert "axioms" not in set(vars(h)) | set(vars(h2))


def test_an_algebra_is_unhashable(sweedler):
    # equality compares the fields, so identity hashing would break the
    # hash contract; the error names the record, not one of its Vecs
    for record in (sweedler.algebra, sweedler.coalgebra):
        with pytest.raises(TypeError, match=type(record).__name__):
            hash(record)


def test_axioms_report_cached(sweedler):
    h = sweedler.replace()
    assert h.axioms is h.axioms and h.axioms.ok
    assert h.algebra is sweedler.algebra
    assert h.algebra.radical is sweedler.algebra.radical and len(h.algebra.radical) == 2


_SCALARS = st.sampled_from([ONE, -ONE, ONE + ONE, ZERO])


def _corrupt(h, data):
    """h with one structure constant changed; parities stay homogeneous."""
    d, par = h.dim, h.parity
    kind = data.draw(st.sampled_from(["mult", "mult_term", "comult", "none"]))
    if kind == "none":
        return h
    i, j = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
    if kind in ("mult", "mult_term"):
        k = data.draw(st.sampled_from([k for k in range(d) if par[k] == (par[i] + par[j]) % 2]))
        c = data.draw(_SCALARS)
        change = Tensor3.from_dict(d, {(i, j, k): c})
        if kind == "mult":  # c e_k in place of the whole product e_i e_j
            change -= Tensor3(d, [((i, j, l), w) for l, w in mult_cell(h, i, j)])
        return h.replace(mult=h.mult + change)
    a = data.draw(st.sampled_from([a for a in range(d) if par[a] == (par[i] + par[j]) % 2]))
    c = data.draw(_SCALARS.filter(lambda c: not c.is_zero()))
    return _with_coproduct(h, a, h.comult[a] + Tensor2.from_dict(d, {(i, j): c}))


@pytest.mark.parametrize("name", list(SMALL_HOSTS))
@given(st.data())
@settings(max_examples=40, deadline=None)
def test_verify_hopf_matches_exhaustive_scan(name, data):
    h = _corrupt(_HOSTS[name], data)
    assert verify_hopf(h).to_obj() == exhaustive_axioms(h)


def test_verify_hopf_matches_exhaustive_scan_on_fixed_inputs(sweedler, sg_z2_sign):
    hosts = [sweedler, sg_z2_sign, exterior_algebra(2), dual_hopf(group_algebra(FiniteGroup.cyclic(3)))]
    z2 = group_algebra(FiniteGroup.cyclic(2))
    hosts.append(z2.replace(antipode=(Vec(2, ()),) * 2))
    hosts.append(z2.replace(mult=z2.mult - Tensor3.from_dict(2, {(0, 1, 1): ONE})))
    hosts.append(_with_coproduct(sweedler, 1, sweedler.comult[1] + Tensor2.from_dict(4, {(1, 1): ONE})))
    for h in hosts:
        assert verify_hopf(h).to_obj() == exhaustive_axioms(h)


# --- duality ----------------------------------------------------------------

def test_dual_of_kz2_is_idempotent_basis_table():
    h = group_algebra(FiniteGroup.cyclic(2))
    d = dual_hopf(h)
    assert verify_hopf(d).ok
    # hand computation in the basis f+- = (1 +- g)/2: multiplication is
    # diagonal, Delta(f+) = f+ (x) f+ + f- (x) f-, Delta(f-) mixes.
    assert d.algebra == Algebra(
        2, Vec.from_entries([ONE, ONE]), Tensor3(2, [((0, 0, 0), ONE), ((1, 1, 1), ONE)]), (0, 0)
    )
    assert d.coalgebra == Coalgebra(
        2,
        (Tensor2(2, [((0, 0), ONE), ((1, 1), ONE)]), Tensor2(2, [((0, 1), ONE), ((1, 0), ONE)])),
        Vec.basis(2, 0),
        (Vec.basis(2, 0), Vec.basis(2, 1)),
        (0, 0),
    )


def test_dual_of_s3_commutative_not_cocommutative():
    d = dual_hopf(group_algebra(FiniteGroup.symmetric3()))
    assert verify_hopf(d).ok
    assert d.mult == Tensor3(6, [((j, i, k), c) for i, j, k, c in d.mult.nonzeros])
    assert not d.coalgebra.cocommutative


def test_double_dual_identity():
    for h in (
        group_algebra(FiniteGroup.symmetric3()),
        exterior_algebra(2),
        supergroup_algebra(
            FiniteGroup.cyclic(2),
            GroupRep.from_sign_characters(FiniteGroup.cyclic(2), [(1, -1)]),
        ),
    ):
        dd = dual_hopf(dual_hopf(h))
        assert (dd.algebra, dd.coalgebra) == (h.algebra, h.coalgebra)


def test_dual_super_verifies():
    e2 = exterior_algebra(2)
    d = dual_hopf(e2)
    assert verify_hopf(d).ok
    assert d.super and d.parity == e2.parity


# --- radical / semisimplicity -----------------------------------------------

def test_group_algebra_radical_empty():
    for g in (FiniteGroup.cyclic(3), FiniteGroup.symmetric3(), FiniteGroup.quaternion8()):
        assert jacobson_radical(group_algebra(g)) == []
        assert is_semisimple(group_algebra(g))


def test_sweedler_radical(sweedler):
    rad = jacobson_radical(sweedler)
    assert len(rad) == 2
    # spanned by x and gx: basis indices 1 and 3
    assert same_span(rad, [Vec.basis(4, 1), Vec.basis(4, 3)])
    assert not is_semisimple(sweedler)


def test_supergroup_radical_dimension_formula():
    z2 = FiniteGroup.cyclic(2)
    for chars in ([(1, -1)], [(1, -1), (1, -1)]):
        v = GroupRep.from_sign_characters(z2, chars)
        h = supergroup_algebra(z2, v)
        expected = z2.order * (2 ** len(chars) - 1)
        assert len(jacobson_radical(h)) == expected


def test_radical_is_nilpotent_ideal(sweedler):
    rad = jacobson_radical(sweedler)
    for r in rad:
        for i in range(sweedler.dim):
            e = Vec.basis(sweedler.dim, i)
            assert in_span(rad, sweedler.mul_vec(r, e))
            assert in_span(rad, sweedler.mul_vec(e, r))
    # products of dim(Rad)+1 radical elements vanish
    for a in rad:
        for b in rad:
            for c in rad:
                assert not sweedler.mul_vec(sweedler.mul_vec(a, b), c).nonzeros


def test_bruteforce_radical_agrees(sweedler, sg_z2_sign):
    instances = [
        group_algebra(FiniteGroup.cyclic(4)),
        group_algebra(FiniteGroup.symmetric3()),
        sweedler,
        sg_z2_sign,
        exterior_algebra(2),
        dual_hopf(group_algebra(FiniteGroup.cyclic(3))),
    ]
    for h in instances:
        assert same_span(jacobson_radical(h), bruteforce_radical(h))


# --- Chevalley property ------------------------------------------------------

def test_chevalley_semisimple_trivial():
    assert is_chevalley(group_algebra(FiniteGroup.symmetric3()))


def test_chevalley_sweedler(sweedler):
    assert is_chevalley(sweedler)


def test_hopf_ideal_subroutine_rejects_span_of_unit(sweedler):
    # span{1} fails the epsilon-vanishing leg: counit(1) = 1 != 0
    from trihopf.hopf import subspace_is_hopf_ideal

    assert not subspace_is_hopf_ideal(sweedler, [Vec.basis(4, 0)])
    assert subspace_is_hopf_ideal(sweedler, [])


def test_hopf_ideal_subroutine_tests_the_coproduct():
    # in k^Z5 both spans pass the counit and antipode legs (S(delta_g) =
    # delta_(g^-1)); only the second is a coideal
    from trihopf.hopf import subspace_is_hopf_ideal

    h = dual_hopf(group_algebra(FiniteGroup.cyclic(5)))
    d = [Vec.basis(5, g) for g in range(5)]
    assert not subspace_is_hopf_ideal(h, [d[1] - d[2], d[4] - d[3]])
    assert subspace_is_hopf_ideal(h, [d[1] - d[4], d[2] - d[3]])


# --- antipode order -----------------------------------------------------------

def test_antipode_orders(sweedler):
    assert group_algebra(FiniteGroup.cyclic(2)).coalgebra.antipode_order == 1
    assert group_algebra(FiniteGroup.cyclic(3)).coalgebra.antipode_order == 2
    assert sweedler.coalgebra.antipode_order == 4
    powers = dense_antipode_powers(sweedler, 4)
    assert powers[2] != powers[0]
    assert powers[4] == powers[0]


def test_antipode_order_bound():
    h = group_algebra(FiniteGroup.cyclic(3))
    # scaled antipode never returns to the identity; the search stops at
    # Radford's bound 8 dim H
    twisted = h.replace(antipode=tuple(col + col for col in h.antipode))
    with pytest.raises(OrderNotFound, match=r"^antipode order exceeds 8 dim H = 24$"):
        twisted.coalgebra.antipode_order


def test_an_antipode_order_above_16_is_found():
    # S a permutation of the basis of k[Z11] with cycle type (2, 9): order
    # 18, under the bound 8 * 11 = 88 (a fixed bound of 16 refused it)
    h = group_algebra(FiniteGroup.cyclic(11))
    perm = (1, 0, *range(3, 11), 2)
    permuted = h.replace(antipode=tuple(Vec.basis(11, perm[i]) for i in range(11)))
    assert permuted.coalgebra.antipode_order == 18
    powers = dense_antipode_powers(permuted, 18)
    assert dense_antipode_order(powers) == 18


def _nonzeros(cols):
    """The nonzeros of each column of a linear map, to compare with dense_columns."""
    return tuple(v.nonzeros for v in cols)


def _vec_columns(rows):
    """The columns of the n x m matrix given by its rows, as Vecs over n."""
    return tuple(Vec(len(rows), col) for col in dense_columns(rows))


def test_sparse_antipode_powers_match_the_dense_oracle_on_atlas9():
    # every atlas-9 instance: the twisted host and the host it twists
    orders = []
    for spec in enumerate_instances(9):
        tw = instance_twist(spec)
        h, r = tw.apply()
        for host in (h, tw.host):
            powers = dense_antipode_powers(host, 4)
            order = dense_antipode_order(powers)
            assert order is not None and host.coalgebra.antipode_order == order
            orders.append(order)
            assert _nonzeros(host.antipode) == dense_columns(powers[1])
            assert _nonzeros(host.coalgebra.s2_columns) == dense_columns(powers[2])
            assert _nonzeros(host.coalgebra.s4_columns) == dense_columns(powers[4])
            assert host.coalgebra.s4_columns is host.coalgebra.s4_columns
            identity = _vec_columns(powers[0])
            assert _vec_columns(powers[order]) == identity
            assert not any(_vec_columns(p) == identity for p in powers[1:order])
        assert check_structure_theorems(h, r).s4_is_id
    assert len(orders) == 2 * 119 and set(orders) == {1, 2, 4}


# --- the one product in H -------------------------------------------------------

@functools.cache
def _product_host(name):
    if name == "kZ3":
        return group_algebra(FiniteGroup.cyclic(3))
    if name == "sweedler":
        z2 = FiniteGroup.cyclic(2)
        return modified_supergroup_algebra(z2, GroupRep.from_sign_characters(z2, [(1, -1)]), 1)[0]
    if name == "Lambda2":
        return exterior_algebra(2)
    # the first atlas-9 instance twisted on a subgroup of order 4, dim 8
    spec = next(s for s in enumerate_instances(9) if len(s.subgroup) == 4 and s.v_chars)
    return instance_twist(spec).apply()[0]


_PRODUCT_HOSTS = ["kZ3", "sweedler", "Lambda2", "atlas9"]

# rationals times powers of zeta_3, zero included
_CYC3_SCALARS = st.builds(
    lambda n, den, k: CycScalar.from_rational(n, den) * root_of_unity(3, k),
    st.integers(-3, 3),
    st.integers(1, 3),
    st.integers(0, 2),
)


@pytest.mark.parametrize("name", _PRODUCT_HOSTS)
@given(st.data())
@settings(max_examples=25, deadline=None)
def test_mul_vec_matches_the_dense_oracle(name, data):
    h = _product_host(name)
    terms = st.lists(st.tuples(st.integers(0, h.dim - 1), _CYC3_SCALARS), max_size=5)
    x, y = Vec(h.dim, data.draw(terms)), Vec(h.dim, data.draw(terms))
    assert list(h.mul_vec(x, y).entries) == dense_product(h, list(x.entries), list(y.entries))


@pytest.mark.parametrize("name", _PRODUCT_HOSTS)
@given(st.data())
@settings(max_examples=15, deadline=None)
def test_antipode_contraction_matches_the_dense_oracle(name, data):
    # t is drawn as raw terms, some repeated and some cancelled, which the
    # oracle contracts one by one: c S(e_i) e_j, or c e_i S(e_j) on leg 1
    h = _product_host(name)
    leg, square = data.draw(st.sampled_from([0, 1])), data.draw(st.booleans())
    index = st.integers(0, h.dim - 1)
    terms = data.draw(st.lists(st.tuples(st.tuples(index, index), _CYC3_SCALARS), max_size=4))
    if terms:
        repeat = data.draw(st.lists(st.sampled_from(terms), max_size=2))
        cancel = data.draw(st.lists(st.sampled_from(terms), max_size=2))
        terms += repeat + [(key, -c) for key, c in cancel]
    s = dense_antipode(h) if not square else dense_antipode_powers(h, 2)[2]
    image = [[s[a][i] for a in range(h.dim)] for i in range(h.dim)]  # S(e_i), densely
    basis = [[ONE if a == i else ZERO for a in range(h.dim)] for i in range(h.dim)]
    expected = [ZERO] * h.dim
    for (i, j), c in terms:
        x, y = (basis[i], image[j]) if leg else (image[i], basis[j])
        expected = [e + c * p for e, p in zip(expected, dense_product(h, x, y))]
    t = Tensor2(h.dim, terms)
    assert list(antipode_contraction(h, t, leg=leg, square=square).entries) == expected


_ZETA3 = root_of_unity(3, 1)
# 1, zeta_3, zeta_3^2 with both signs, and zero: entries whose sums cancel
_CANCELLING = st.sampled_from([ZERO] + [e * _ZETA3**k for e in (ONE, -ONE) for k in range(3)])


_ZETA8 = root_of_unity(8, 1)
# rationals times powers of zeta_8
_CYC8_SCALARS = st.builds(
    lambda n, den, k: CycScalar.from_rational(n, den) * _ZETA8**k,
    st.integers(-3, 3),
    st.integers(1, 3),
    st.integers(0, 7),
)


@st.composite
def _outer_inner(draw):
    """An outer map k^n -> k^p (as rho(x), S, or the Y columns of a
    septuple) and an n x m inner map, as dense rows; the entries are
    rational, in Q(zeta_3) or in Q(zeta_8), and some sums cancel."""
    p, n, m = (draw(st.integers(1, 4)) for _ in range(3))
    entry = st.one_of(_CANCELLING, _CYC3_SCALARS, _CYC8_SCALARS)
    return tuple([[draw(entry) for _ in range(cols)] for _ in range(rows)]
                 for rows, cols in ((p, n), (n, m)))


@given(_outer_inner())
@example(  # 1 + zeta_3 + zeta_3^2 = 0 in the first entry
    ([[ONE, _ZETA3, _ZETA3**2], [ONE, ONE, ONE], [ZERO, ZERO, ONE]],
     [[ONE, ZERO], [ONE, ONE + ONE], [ONE, ZERO]])
)
@settings(max_examples=60, deadline=None)
def test_compose_columns_matches_the_dense_product(maps):
    # outer o inner column by column, and outer applied to either leg of
    # inner read as a tensor: keyed (t, b) on leg 0, transposed on leg 1
    outer, inner = maps
    p, n, m = len(outer), len(inner), len(inner[0])
    product = [
        [sum((outer[a][t] * inner[t][b] for t in range(n)), ZERO) for b in range(m)]
        for a in range(p)
    ]
    cols = _vec_columns(outer)
    assert tuple(apply_map(cols, col) for col in _vec_columns(inner)) == _vec_columns(product)
    dim = max(n, m)
    entries = [(t, b, inner[t][b]) for t in range(n) for b in range(m)]
    on_left = apply_map(cols, Tensor2(dim, [((t, b), c) for t, b, c in entries]), 0)
    on_right = apply_map(cols, Tensor2(dim, [((b, t), c) for t, b, c in entries]), 1)
    assert on_left == Tensor2(p, [((a, b), product[a][b]) for a in range(p) for b in range(m)])
    assert on_right == Tensor2(p, [((b, a), product[a][b]) for a in range(p) for b in range(m)])


@pytest.mark.parametrize("name", _PRODUCT_HOSTS)
def test_an_antipode_column_is_the_image_of_a_basis_vector(name):
    h = _product_host(name)
    for i in range(h.dim):
        assert h.antipode[i] == h.antipode_vec(Vec.basis(h.dim, i))
        assert h.antipode_vec(Vec.basis(h.dim, i)).nonzeros == h.antipode[i].nonzeros


def test_algebra_inverse(sweedler):
    g = Vec.basis(4, 2)
    assert algebra_inverse(sweedler, g) == g
    with pytest.raises(NotInvertible):
        algebra_inverse(sweedler, Vec.basis(4, 1))  # x is nilpotent


def test_left_multiplication_and_products_match_the_table():
    # L (x -> e_i x as a Tensor2 keyed (j, k)) and the products e_i e_j of
    # one row, which the associativity witness makes for its lead rows
    z2 = FiniteGroup.cyclic(2)
    h = modified_supergroup_algebra(z2, GroupRep.from_sign_characters(z2, [(1, -1)]), u=1)[0]
    fresh = h.replace(mult=h.mult)  # an Algebra, and mult_ints, of its own
    cells = fresh.algebra.mult_ints
    left = cells.left_multiplication()
    basis = [Vec.basis(fresh.dim, i) for i in range(fresh.dim)]
    for i, e_i in enumerate(basis):
        products = tuple(fresh.mul_vec(e_i, e) for e in basis)
        assert cells.products(i) == products
        assert left[i] == Tensor2(
            fresh.dim, [((j, k), c) for j, p in enumerate(products) for k, c in p.nonzeros]
        )
    assert hopf._associativity_witness(fresh.algebra, range(fresh.dim)) is None
    assert hopf._associativity_witness(fresh.algebra, (0,)) is None
    assert algebra_inverse(fresh, fresh.unit) == fresh.unit
