"""Axiom verification, duality, radical, Chevalley property."""

import functools

import pytest
from hypothesis import example, given, settings, strategies as st

from trihopf import hopf
from trihopf.atlas import _host, enumerate_instances, instance_twist
from trihopf.constructions import (
    Twist,
    apply_twist,
    exterior_algebra,
    group_algebra,
    modified_supergroup_algebra,
    supergroup_algebra,
)
from trihopf.errors import NotInvertible, OrderNotFound, ShapeError
from trihopf.groups import FiniteGroup, GroupRep
from trihopf.hopf import (
    algebra_inverse,
    antipode_contraction,
    antipode_order,
    dual_hopf,
    is_chevalley,
    is_cocommutative,
    is_semisimple,
    jacobson_radical,
    make_hopf,
    verify_hopf,
)
from trihopf.scalars import CycScalar, root_of_unity
from trihopf.tensor import Tensor2, Vec, apply_map, unit_tensor2
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
        assert is_cocommutative(h)
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
    mult = list(list(row) for row in h.mult)
    mult[0][1] = ()
    broken = h.replace(mult=tuple(tuple(row) for row in mult))
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
    # the (j, k, c) triples are only the raw input of make_hopf
    for delta in (sweedler.comult[1].nonzeros, Tensor2(3, ())):
        with pytest.raises(ShapeError, match="comultiplication shape mismatch"):
            _with_coproduct(sweedler, 1, delta).validate()


@pytest.mark.parametrize(
    "part, table",
    [
        ("mult", ((((0, ONE), (1, ONE)),),)),
        ("mult", ((((0, ONE), (-1, ONE)),),)),
        ("comult", (((0, 0, ONE), (0, 1, ONE)),)),
        ("comult", (((0, 0, ONE), (0, -1, ONE)),)),
        ("comult", (((0, 0, ONE), (-1, 0, ONE)),)),
        ("antipode", (((0, ONE), (1, ONE)),)),
        ("antipode", (((0, ONE), (-1, ONE)),)),
    ],
    ids=["mult_past_the_end", "mult_negative", "comult_past_the_end",
         "comult_negative_right", "comult_negative_left", "antipode_past_the_end",
         "antipode_negative"],
)
def test_an_out_of_range_structure_index_is_malformed(part, table):
    # the field k (dim 1) with one stray index; make_hopf sums raw terms
    # with a constructor that trusts its indices, so the structural check
    # refuses each index outside 0..dim-1 and names it
    tables = {
        "mult": ((((0, ONE),),),),
        "comult": (((0, 0, ONE),),),
        "antipode": (((0, ONE),),),
        part: table,
    }
    named = {"mult": "product", "comult": "coproduct", "antipode": "antipode"}[part]
    with pytest.raises(ShapeError, match=f"^{named} index .* out of range at"):
        make_hopf(dim=1, unit=[ONE], counit=[ONE], **tables)


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
    assert h.mult[1][2] == ((3, ONE),)
    broken = _with_coproduct(h, 3, Tensor2.from_dict(h.dim, {(1, 2): ONE}))
    report = verify_hopf(broken)
    assert report.associativity and report.unit
    assert report.witnesses["coassociativity"] == (3,)
    assert report.witnesses["bialgebra"] == (1, 2)


def test_cocommutativity():
    assert is_cocommutative(group_algebra(FiniteGroup.symmetric3()))
    dual = dual_hopf(group_algebra(FiniteGroup.symmetric3()))
    assert not is_cocommutative(dual)


def test_supergroup_supercocommutative(sg_z2_sign):
    assert verify_hopf(sg_z2_sign).ok
    assert is_cocommutative(sg_z2_sign)


def test_modified_supergroup_not_cocommutative(sweedler):
    assert not is_cocommutative(sweedler)


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
    broken = h.replace(mult=(((), ()), ((), ())))
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
            mult = [list(row) for row in h.mult]
            cell = dict(mult[i][j])
            cell[0] = cell.get(0, ZERO) + ONE
            mult[i][j] = tuple((k, c) for k, c in sorted(cell.items()) if not c.is_zero())
            mutant = h.replace(mult=tuple(tuple(row) for row in mult))
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


def test_a_twist_shares_the_algebra_of_its_host():
    host = _sweedler_host()
    h2, _ = Twist(host, unit_tensor2(host)).apply()
    assert h2.algebra is host.algebra and h2.counit is host.counit
    assert h2.mult is host.mult and h2.unit is host.unit and h2.parity is host.parity
    assert h2.generators is host.generators
    # a twist of a twist holds the first host's Algebra too
    h3, _ = Twist(h2, unit_tensor2(h2)).apply()
    assert h3.algebra is host.algebra


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
        mult = [list(row) for row in h.mult]
        cell = dict(mult[i][j]) if kind == "mult_term" else {}
        cell[k] = cell.get(k, ZERO) + c
        mult[i][j] = tuple((k, v) for k, v in cell.items() if not v.is_zero())
        return h.replace(mult=tuple(tuple(row) for row in mult))
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
    mult = [list(row) for row in z2.mult]
    mult[0][1] = ()
    hosts.append(z2.replace(mult=tuple(tuple(row) for row in mult)))
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
    expected = make_hopf(
        dim=2,
        unit=Vec.from_entries([ONE, ONE]),
        mult=(
            (((0, ONE),), ()),
            ((), ((1, ONE),)),
        ),
        comult=(
            ((0, 0, ONE), (1, 1, ONE)),
            ((0, 1, ONE), (1, 0, ONE)),
        ),
        counit=(ONE, ZERO),
        antipode=(((0, ONE),), ((1, ONE),)),
    )
    assert d.same_structure(expected)


def test_dual_of_s3_commutative_not_cocommutative():
    d = dual_hopf(group_algebra(FiniteGroup.symmetric3()))
    assert verify_hopf(d).ok
    assert all(
        dict(d.mult[i][j]) == dict(d.mult[j][i]) for i in range(6) for j in range(6)
    )
    assert not is_cocommutative(d)


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
        assert dd.same_structure(h)


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
    assert antipode_order(group_algebra(FiniteGroup.cyclic(2))) == 1
    assert antipode_order(group_algebra(FiniteGroup.cyclic(3))) == 2
    assert antipode_order(sweedler) == 4
    powers = dense_antipode_powers(sweedler, 4)
    assert powers[2] != powers[0]
    assert powers[4] == powers[0]


def test_antipode_order_bound():
    h = group_algebra(FiniteGroup.cyclic(3))
    # scaled antipode never returns to the identity
    twisted = h.replace(antipode=tuple(col + col for col in h.antipode))
    with pytest.raises(OrderNotFound):
        antipode_order(twisted, bound=8)


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
            assert order is not None and antipode_order(host) == order
            orders.append(order)
            assert _nonzeros(host.antipode) == dense_columns(powers[1])
            assert _nonzeros(host.s2_columns) == dense_columns(powers[2])
            assert _nonzeros(host.s4_columns) == dense_columns(powers[4])
            assert host.s4_columns is host.s4_columns
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
