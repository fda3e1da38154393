"""Quasitriangularity, the Drinfeld element, structural theorem checks."""

import copy
import functools
import sys
from dataclasses import asdict

import pytest

from trihopf import atlas, constructions, hopf, serialize, tensor, triangular
from trihopf.atlas import (
    _build_and_write,
    build_instance,
    enumerate_instances,
    instance_twist,
)
from trihopf.constructions import (
    Twist,
    apply_twist,
    build_bicharacter_twist,
    exterior_algebra,
    group_algebra,
    modified_supergroup_algebra,
    semisimple_triangular,
    supergroup_algebra,
)
from trihopf.errors import InvalidDrinfeldElement, NotQuasitriangular, TwistError
from trihopf.groups import (
    AbelianSubgroup,
    Bicharacter,
    FiniteGroup,
    GroupRep,
    alternating_nondegenerate_bicharacters,
    half_bicharacter,
    sign_characters,
)
from trihopf.hopf import verify_hopf
from trihopf.scalars import CycScalar
from trihopf.tensor import (
    Tensor2,
    Tensor3,
    Vec,
    embed13_23_12,
    flip,
    tensor2_mul,
    tensor3_mul,
    unit_tensor2,
)
from trihopf.triangular import (
    analysis_report,
    certify_twisted_triangular,
    check_structure_theorems,
    drinfeld_element,
    modify_r,
    r_matrix_rank,
    r_u,
    verify_triangular,
)

from _oracles import exhaustive_triangular, sweedler_r

ONE = CycScalar.one()


def sc(n, d=1):
    return CycScalar.from_rational(n, d)


@pytest.fixture(scope="module")
def kz2():
    return group_algebra(FiniteGroup.cyclic(2))


@pytest.fixture(scope="module")
def sweedler():
    z2 = FiniteGroup.cyclic(2)
    sign = GroupRep.from_sign_characters(z2, [(1, -1)])
    return modified_supergroup_algebra(z2, sign, u=1)


def _hexagons(h, r):
    """Whether (Delta (x) id)(R) = R13 R23 and (id (x) Delta)(R) = R13 R12."""
    e = {p: embed13_23_12(r, p, h) for p in ("delta_id", "id_delta", "12", "13", "23")}
    return (
        e["delta_id"] == tensor3_mul(e["13"], e["23"], h),
        e["id_delta"] == tensor3_mul(e["13"], e["12"], h),
    )


def test_unit_r_on_cocommutative(kz2):
    assert verify_triangular(kz2, unit_tensor2(kz2))


@pytest.mark.parametrize("n", [1, 2])
def test_unit_r_on_supercocommutative(n):
    # Lambda(V) is supercocommutative, so 1 (x) 1 is triangular; from
    # dim V = 2 on, Delta(v1 v2) has odd (x) odd terms and the opposite
    # coproduct needs the Koszul-signed flip
    h = exterior_algebra(n)
    assert verify_hopf(h).ok and h.coalgebra.cocommutative
    assert verify_triangular(h, unit_tensor2(h))


def test_gg_fails_hexagon(kz2):
    # (Delta (x) id)(g (x) g) = g (x) g (x) g but R13 R23 = g (x) g (x) g^2
    # flip(R) R = g^2 (x) g^2 = 1 (x) 1, so only the hexagon fails
    gg = Tensor2.from_dict(2, {(1, 1): ONE})
    assert tensor2_mul(flip(gg), gg, kz2) == unit_tensor2(kz2)
    assert not _hexagons(kz2, gg)[0]
    assert not verify_triangular(kz2, gg)


def test_ru_quasitriangular_on_modified(sweedler):
    h, ru = sweedler
    assert verify_triangular(h, ru)


def z3_symmetric_r():
    # symmetric nondegenerate bicharacter on Z3: R = sum beta(s,t) E_s (x) E_t
    # satisfies the hexagons on the cocommutative k[Z3] but flip(R) R != 1.
    z3 = FiniteGroup.cyclic(3)
    a = AbelianSubgroup(z3, range(3))
    exponents = tuple(tuple((s * t) % 3 for t in range(3)) for s in range(3))
    return group_algebra(z3), build_bicharacter_twist(a, Bicharacter((3,), exponents))


def test_quasitriangular_but_not_triangular():
    h, r = z3_symmetric_r()
    # the conjugation identity holds too: H (x) H is commutative
    assert _hexagons(h, r) == (True, True)
    assert not verify_triangular(h, r)
    assert tensor2_mul(flip(r), r, h) != unit_tensor2(h)


def test_drinfeld_unit(kz2):
    assert drinfeld_element(kz2, unit_tensor2(kz2)) == kz2.unit


def test_drinfeld_of_ru_is_u(sweedler):
    h, ru = sweedler
    assert drinfeld_element(h, ru) == Vec.basis(4, 2)


def test_drinfeld_rejects_non_quasitriangular(sweedler):
    h, _ = sweedler
    # R = 1 (x) 1 gives u = 1, but S^2 != id on the Sweedler algebra
    with pytest.raises(NotQuasitriangular):
        drinfeld_element(h, unit_tensor2(h))


def test_r_u_formula_and_involution(kz2):
    u = Vec.basis(2, 1)
    ru = r_u(kz2, u)
    half = sc(1, 2)
    assert {(i, j): c for i, j, c in ru.nonzeros} == {
        (0, 0): half, (0, 1): half, (1, 0): half, (1, 1): -half,
    }
    assert tensor2_mul(ru, ru, kz2) == unit_tensor2(kz2)
    assert flip(ru) == ru
    # u = 1 collapses to the unit tensor
    assert r_u(kz2, kz2.unit) == unit_tensor2(kz2)


def test_r_u_rejects_non_involution():
    z4 = FiniteGroup.cyclic(4)
    h = group_algebra(z4)
    with pytest.raises(InvalidDrinfeldElement):
        r_u(h, Vec.basis(4, 1))  # order 4
    with pytest.raises(InvalidDrinfeldElement):
        r_u(h, Vec.basis(4, 0) + Vec.basis(4, 2))  # not group-like


def test_modify_r_involution(kz2, sweedler):
    u = Vec.basis(2, 1)
    ru = r_u(kz2, u)
    assert modify_r(kz2, ru, u) == unit_tensor2(kz2)
    assert modify_r(kz2, unit_tensor2(kz2), kz2.unit) == unit_tensor2(kz2)
    assert modify_r(kz2, modify_r(kz2, ru, u), u) == ru
    h, ru_s = sweedler
    u_s = Vec.basis(4, 2)
    assert modify_r(h, modify_r(h, ru_s, u_s), u_s) == ru_s


def test_r_matrix_rank_examples(kz2, sweedler):
    assert r_matrix_rank(unit_tensor2(kz2)) == 1
    _, ru = sweedler
    assert r_matrix_rank(ru) == 2


def test_rank4_twisted_z2z2():
    z2z2 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    a = AbelianSubgroup(z2z2, range(4))
    gamma = alternating_nondegenerate_bicharacters((2, 2))[0]
    h, r = semisimple_triangular(z2z2, a, gamma, u=0)
    assert r_matrix_rank(r) == 4


def test_verify_triangular_solves_nothing(monkeypatch, sweedler):
    # R21 = R^-1 checked on both sides certifies invertibility by itself
    def no_solve(*args):
        raise AssertionError("verify_triangular solved for an inverse")

    # triangular.py holds no name for the solver; patch every module that does
    assert not hasattr(triangular, "tensor2_inv")
    for module in (tensor, constructions):
        monkeypatch.setattr(module, "tensor2_inv", no_solve)
    z2 = FiniteGroup.cyclic(2)
    z2z2 = FiniteGroup.direct_product(z2, z2)
    z2cubed = FiniteGroup.direct_product(z2, z2, z2)
    chars = [c for c in sign_characters(z2cubed) if c[1] == -1]
    v = GroupRep.from_sign_characters(z2cubed, chars[:2])
    super32, r32 = modified_supergroup_algebra(z2cubed, v, u=1)
    assert super32.dim == 32
    gamma = alternating_nondegenerate_bicharacters((2, 2))[0]
    twisted, r_tw = semisimple_triangular(z2z2, AbelianSubgroup(z2z2, range(4)), gamma, u=1)
    for h, r in (sweedler, (super32, r32), (twisted, r_tw)):
        assert verify_triangular(h, r)
        assert not verify_triangular(h, Tensor2.from_dict(h.dim, {}))
    assert not verify_triangular(*z3_symmetric_r())


def test_structure_theorems_sweedler(sweedler):
    h, ru = sweedler
    rep = check_structure_theorems(h, ru)
    assert rep.ok
    assert rep.u == Vec.basis(4, 2)
    assert rep.u_squared_is_one and rep.u_grouplike
    assert rep.s4_is_id and rep.s2_is_ad_u
    assert rep.odd_dim_forces_u1_semisimple  # dim even: vacuous
    assert rep.chevalley
    obj = rep.to_obj()
    assert obj["u_support"] == [2]


def test_structure_theorems_odd_dim():
    z3 = FiniteGroup.cyclic(3)
    h = group_algebra(z3)
    rep = check_structure_theorems(h, unit_tensor2(h))
    assert rep.ok and rep.u == h.unit


def test_structure_theorems_twisted_z3z3():
    z3z3 = FiniteGroup.direct_product(FiniteGroup.cyclic(3), FiniteGroup.cyclic(3))
    a = AbelianSubgroup(z3z3, range(9))
    gamma = alternating_nondegenerate_bicharacters((3, 3))[1]
    h, r = semisimple_triangular(z3z3, a, gamma, u=0)
    rep = check_structure_theorems(h, r)
    assert rep.ok
    assert rep.u == h.unit and rep.odd_dim_forces_u1_semisimple


def test_drinfeld_element_twist_invariant():
    # compute u before and after twisting: it must not move
    z2z2 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    h = group_algebra(z2z2)
    a = AbelianSubgroup(z2z2, range(4))
    beta = half_bicharacter(alternating_nondegenerate_bicharacters((2, 2))[0])
    for u_idx in range(4):
        ru = r_u(h, Vec.basis(4, u_idx))
        u_before = drinfeld_element(h, ru)
        h2, r2 = apply_twist(h, build_bicharacter_twist(a, beta), r=ru)
        assert verify_hopf(h2).ok
        u_after = drinfeld_element(h2, r2)
        assert u_before == u_after == Vec.basis(4, u_idx)


# --- certificates against the exhaustive checks ------------------------------

def _as_dict(r):
    return {(i, j): c for i, j, c in r.nonzeros}


def _perturbed(r, k):
    """r with one coefficient moved, the entry picked by k."""
    i, j, _ = r.nonzeros[k % len(r.nonzeros)]
    return r + Tensor2.from_dict(r.dim, {(i, j): sc(1, 2), ((i + k) % r.dim, j): ONE})


def _agrees(h, r):
    verdict = verify_triangular(h, r)
    assert verdict == exhaustive_triangular(h, _as_dict(r))
    return verdict


def test_verify_triangular_matches_exhaustive_on_atlas9():
    accepted = rejected = 0
    for k, spec in enumerate(enumerate_instances(9)):
        h, r = build_instance(spec)
        assert verify_hopf(h).ok and h.generators is not None
        for candidate in (r, flip(r, h), unit_tensor2(h), _perturbed(r, k)):
            if _agrees(h, candidate):
                accepted += 1
            else:
                rejected += 1
    assert accepted > 2 * 119 and rejected > 119


def _exp_bilinear(h, b, gens):
    """exp(sum b[i][j] x_i (x) x_j) for odd square-zero generators x."""
    t = Tensor2.from_dict(
        h.dim,
        {(gens[i], gens[j]): sc(b[i][j]) for i in range(len(gens)) for j in range(len(gens)) if b[i][j]},
    )
    out = power = unit_tensor2(h)
    for n in range(1, 2 * len(gens) + 1):
        power = tensor2_mul(power, t, h).scale(sc(1, n))
        out = out + power
    return out


SUPER_CASES = {
    "Lambda1": (lambda: exterior_algebra(1), (1,)),
    "Lambda2": (lambda: exterior_algebra(2), (1, 2)),
    "Lambda3": (lambda: exterior_algebra(3), (1, 2, 4)),
    "supergroup_Z2_sign": (
        lambda: supergroup_algebra(
            FiniteGroup.cyclic(2), GroupRep.from_sign_characters(FiniteGroup.cyclic(2), [(1, -1)] * 2)
        ),
        (1, 2),
    ),
}


@pytest.mark.parametrize("name", list(SUPER_CASES))
def test_verify_triangular_matches_exhaustive_on_super_hosts(name):
    # R_B = exp(sum b_ij x_i (x) x_j) is triangular for symmetric b: the
    # Koszul-signed flip sends it to exp(-sum b_ij x_i (x) x_j) = R_B^-1
    build, odd = SUPER_CASES[name]
    h = build()
    assert h.super and verify_hopf(h).ok
    n = len(odd)
    forms = [
        [[1 if i == j else 0 for j in range(n)] for i in range(n)],
        [[2 + i + j for j in range(n)] for i in range(n)],
        [[i - j + (i == j) for j in range(n)] for i in range(n)],  # not symmetric when n > 1
    ]
    verdicts = []
    for b in forms:
        r = _exp_bilinear(h, b, odd)
        for candidate in (r, flip(r, h), _perturbed(r, 1)):
            verdicts.append(_agrees(h, candidate))
    assert _agrees(h, unit_tensor2(h))
    assert verdicts[0] and verdicts[3]  # symmetric forms are triangular
    if n > 1:
        assert not verdicts[6]


def test_verify_triangular_checks_one_hexagon_and_the_generators(monkeypatch, sweedler):
    h, r = sweedler
    assert h.axioms.ok
    counts = {"tensor2_mul": 0, "tensor3_mul": 0}
    for name in counts:
        original = getattr(triangular, name)

        def counting(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(triangular, name, counting)
    assert verify_triangular(h, r)
    # one unitarity side, one hexagon, two products per generator
    assert counts == {"tensor2_mul": 1 + 2 * len(h.generators), "tensor3_mul": 1}


def test_unverified_host_takes_the_exhaustive_path():
    # a host whose antipode is broken gets no certificate: both sides,
    # both hexagons and every basis element are checked
    h = group_algebra(FiniteGroup.cyclic(3))
    broken = h.replace(antipode=(Vec(3, ()),) * 3)
    assert not broken.axioms.ok
    assert verify_triangular(broken, unit_tensor2(broken))
    assert exhaustive_triangular(broken, _as_dict(unit_tensor2(broken)))
    with pytest.raises(NotQuasitriangular):
        drinfeld_element(broken, unit_tensor2(broken))


# --- the twisting-theorem certificate ------------------------------------------


def _forged(twist, **fields):
    """A copy of a Twist with fields swapped in after its checks ran; the
    copy computes its maps from its own fields, not the checked J's."""
    out = copy.copy(twist)
    for name in ("comult", "antipode", "r_twisted"):
        vars(out).pop(name, None)
    for name, value in fields.items():
        object.__setattr__(out, name, value)
    return out


def test_certificate_matches_verify_triangular_on_atlas9():
    specs = enumerate_instances(9)
    for spec in specs:
        tw = instance_twist(spec)
        h, r = tw.apply()
        assert certify_twisted_triangular(h, r, tw) == verify_triangular(h, r) is True
    assert len(specs) == 119


def test_certificate_mutants_fail_on_atlas9():
    twisted = noncommuting = 0
    for k, spec in enumerate(enumerate_instances(9)):
        tw = instance_twist(spec)
        h, r = tw.apply()
        cocommutative = h.coalgebra.cocommutative
        noncommuting += not cocommutative
        # one R^J entry perturbed
        assert not certify_twisted_triangular(h, _perturbed(r, k), tw)
        # one J entry perturbed: the Twist refuses it, and on a
        # non-cocommutative host a record forged past that check has
        # another J^-1 Delta J
        bad_j = _perturbed(tw.j, k)
        with pytest.raises(TwistError):
            Twist(tw.host, bad_j, tw.j_inv, tw.r)
        if not cocommutative:
            assert not certify_twisted_triangular(h, r, _forged(tw, j=bad_j))
        # J21 replaced by J: J^-1 R J in place of J21^-1 R J
        wrong = tensor2_mul(tensor2_mul(tw.j_inv, tw.r, h), tw.j, h)
        if wrong != r:
            twisted += 1
            assert not certify_twisted_triangular(h, wrong, tw)
        # the record names another R of the host
        assert not certify_twisted_triangular(h, r, _forged(tw, r=_perturbed(tw.r, k)))
        # R = 1 (x) 1 is not triangular on a non-cocommutative host, and
        # neither is its twist
        if not tw.host.coalgebra.cocommutative:
            plain = Twist(tw.host, tw.j, tw.j_inv, unit_tensor2(tw.host))
            assert not certify_twisted_triangular(*plain.apply(), plain)
    assert twisted > 50 and noncommuting > 10


def test_certificate_refuses_sweedler_twisted_by_r(sweedler):
    # J = R satisfies the cocycle identity of J Delta J^-1, the order the
    # twist check once used, and R^J is then not triangular; in the order
    # of J^-1 Delta J no Twist, hence no certificate, exists for it
    h, ru = sweedler
    r = sweedler_r(ru)
    with pytest.raises(TwistError):
        Twist(h, r, flip(r), r)
    tw = Twist(h, flip(r), r, r)
    h2, r2 = tw.apply()
    assert certify_twisted_triangular(h2, r2, tw) and verify_triangular(h2, r2)


def test_certificate_needs_the_twisted_algebra():
    spec = next(s for s in enumerate_instances(8) if s.name == "Z2xZ2_u1_V2_A0-1-2-3_g0")
    tw = instance_twist(spec)
    h, r = tw.apply()
    assert certify_twisted_triangular(h, r, tw)
    broken = h.replace(antipode=(Vec(h.dim, ()),) * h.dim)
    assert not broken.axioms.ok
    assert not certify_twisted_triangular(broken, r, tw)
    # the untwisted host does not have the twisted coproduct
    assert not certify_twisted_triangular(tw.host, r, tw)
    # k[Z6] has the coproduct, unit and counit of k[S3] but another
    # multiplication, so it is no twist of k[S3]
    s3 = group_algebra(FiniteGroup.symmetric3())
    one = unit_tensor2(s3)
    trivial = Twist(s3, one, one, one)
    assert certify_twisted_triangular(*trivial.apply(), trivial)
    z6 = group_algebra(FiniteGroup.cyclic(6))
    assert z6.axioms.ok and z6.comult == s3.comult
    assert not certify_twisted_triangular(z6, unit_tensor2(z6), trivial)


@pytest.mark.parametrize("certified", [True, False])
def test_atlas_report_falls_back_when_a_premise_fails(monkeypatch, certified):
    calls = []
    monkeypatch.setattr("trihopf.triangular.certify_twisted_triangular", lambda h, r, tw: certified)
    monkeypatch.setattr("trihopf.triangular.verify_triangular", lambda h, r: calls.append(1) or True)
    tw = instance_twist(enumerate_instances(8)[5])
    h, r = tw.apply()
    assert analysis_report(h, r)["triangular"]["triangular"]
    assert len(calls) == (0 if certified else 1)
    # without a twist the exhaustive check decides
    assert analysis_report(h.replace(twist=None), r)["triangular"]["triangular"]
    assert len(calls) == (1 if certified else 2)


def _atlas_files(specs, out):
    out.mkdir()
    for spec in specs:
        _build_and_write((asdict(spec), str(out)))
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_wrong_closed_form_inverses_fall_back_to_the_solve(monkeypatch, tmp_path):
    # the closed forms Q^-1 = m(id (x) S)(J^-1) and u^-1 = sum b_i S^2(a_i)
    # replaced by twice themselves: each fails the multiply-back, the
    # solve answers, and every dumped byte stays the same.  u^-1 is
    # solved once per instance, Q^-1 only on the 23 hosts whose twist
    # conjugates: a kept coalgebra forms no Q (2 * 115 while every twist
    # formed Q^-1)
    specs = enumerate_instances(8)
    expected = _atlas_files(specs, tmp_path / "closed_form")
    solved = []
    solve = hopf.algebra_inverse
    certify = hopf.certified_inverse

    def doubled(h, x, candidate):
        return certify(h, x, candidate.scale(CycScalar.from_rational(2)))

    monkeypatch.setattr(hopf, "algebra_inverse", lambda h, x: solved.append(1) or solve(h, x))
    monkeypatch.setattr(constructions, "certified_inverse", doubled)
    monkeypatch.setattr(triangular, "certified_inverse", doubled)
    assert _atlas_files(specs, tmp_path / "solved") == expected
    conjugating = [s for s in specs if not instance_twist(s)._keeps_coalgebra]
    assert len(conjugating) == 23
    assert len(solved) == len(specs) + len(conjugating) == 138


def test_closed_form_inverses_need_no_solve(monkeypatch):
    def no_solve(h, x):
        raise AssertionError("closed-form inverse failed its multiply-back")

    monkeypatch.setattr(hopf, "algebra_inverse", no_solve)
    for spec in enumerate_instances(9):
        tw = instance_twist(spec)
        h, r = tw.apply()
        assert check_structure_theorems(h, r).ok


# --- one host, proved once ------------------------------------------------------


def test_instances_share_their_cached_host():
    specs = [s for s in enumerate_instances(8) if (s.group, s.v_chars, s.u) == ("Z2xZ2", (2,), 1)]
    twists = [instance_twist(s) for s in specs]
    assert len(twists) > 1
    assert all(tw.host is twists[0].host and tw.r is twists[0].r for tw in twists)
    host = twists[0].host
    for tw in twists:
        h, r = tw.apply()
        assert h.algebra is host.algebra and h.mult is host.mult
        assert certify_twisted_triangular(h, r, tw)
    # the host and its Algebra keep R_u and facts of their own, nothing of
    # an instance
    assert host.twist is None and host._triangular_proof == (twists[0].r, True)
    for value in [*vars(host).values(), *vars(host.algebra).values()]:
        assert not isinstance(value, (hopf.HopfData, Twist, Tensor2))


def test_hosts_of_one_group_and_w_share_one_algebra():
    # u changes only the coalgebra, so every atlas-9 host of one (group, W)
    # holds one Algebra object, equal to the one a fresh build makes
    shared: dict = {}
    for name, v_chars, u in sorted({(s.group, s.v_chars, s.u) for s in enumerate_instances(9)}):
        host, _ = atlas._host(name, v_chars, u)
        algebra = shared.setdefault((name, v_chars), host.algebra)
        assert host.algebra is algebra
        g = atlas.catalog_group(name)
        chars = sign_characters(g)
        w = GroupRep.from_sign_characters(g, [chars[i] for i in v_chars]) if v_chars else GroupRep.zero(g)
        fresh, _ = modified_supergroup_algebra(g, w, u)
        assert fresh.algebra is not algebra and fresh.algebra == algebra
        # a product mutant gets an Algebra of its own
        mutant = host.replace(mult=host.mult + Tensor3.from_dict(host.dim, {(0, 0, 0): ONE}))
        assert mutant.algebra is not algebra and mutant.algebra != algebra
    assert len(shared) == 21


def test_host_proof_is_kept_per_r_not_per_host():
    # R_u is proved triangular on the cached host once; 1 (x) 1 on the same
    # host is proved afresh and refused, and R_u is then proved again
    spec = next(s for s in enumerate_instances(8) if s.name == "Z2xZ2_u1_V2_A0-1-2-3_g0")
    tw = instance_twist(spec)
    assert not tw.host.coalgebra.cocommutative
    h, r = tw.apply()
    assert certify_twisted_triangular(h, r, tw)
    assert tw.host._triangular_proof[0] is tw.r
    plain = Twist(tw.host, tw.j, tw.j_inv, unit_tensor2(tw.host))
    assert plain.host is tw.host
    assert not certify_twisted_triangular(*plain.apply(), plain)
    assert tw.host._triangular_proof[0] is plain.r
    again = instance_twist(spec)
    assert again.host is tw.host
    assert certify_twisted_triangular(*again.apply(), again)


def test_atlas9_job_proves_each_host_once(monkeypatch, tmp_path):
    # every algebra fact runs once per distinct (group, W), every host fact
    # once per distinct (group, W, u), not per instance
    specs = enumerate_instances(9)
    hosts = {(s.group, s.v_chars, s.u) for s in specs}
    smash = {(s.group, s.v_chars) for s in specs}
    twists = {(s.group, s.subgroup, s.gamma_index, s.dim) for s in specs}
    assert (len(specs), len(hosts), len(twists)) == (119, 43, 33)
    calls = {}
    for module, name in (
        # the name the atlas calls, which it imports from constructions
        (atlas, "_smash_product"),
        (hopf, "_associativity_witness"),
        (hopf, "jacobson_radical"),
        (triangular, "_triangular"),
        (hopf, "_bialgebra_witness"),
        (constructions, "build_bicharacter_twist"),
        (serialize, "_mult_text"),
        (hopf, "subspace_is_hopf_ideal"),
    ):
        original = getattr(module, name)

        def counting(*args, name=name, original=original):
            calls.setdefault(name, []).append(args)
            return original(*args)

        monkeypatch.setattr(module, name, counting)
    facts: dict = {}
    for name in ("cocommutative", "antipode_order"):
        fact = getattr(hopf.Coalgebra, name).func
        counted = functools.cached_property(
            lambda c, name=name, fact=fact: facts.setdefault(name, []).append(c) or fact(c)
        )
        counted.__set_name__(hopf.Coalgebra, name)
        monkeypatch.setattr(hopf.Coalgebra, name, counted)
    atlas._sign_rep.cache_clear()  # its GroupRep checks apply rho(g)
    atlas._smash.cache_clear()
    atlas._host.cache_clear()
    atlas._twist.cache_clear()
    files: dict = {}
    muls, algebra_scans, products, maps = _calls(
        lambda: files.update(_atlas_files(specs, tmp_path / "atlas")),
        CycScalar.__mul__,
        hopf.Algebra.malformation.func,
        tensor2_mul,
        tensor.apply_map,
    )
    assert len(files) == 3 * 119
    # S, S^2, rho(g), Delta, the contractions by S and the associativity
    # rows multiply integer numerators (tensor.apply_map), and so do the
    # counit and the trace form (tensor.contract), J is counted on
    # exponents of zeta_N and the exterior expansion wedges through
    # apply_map; the CycScalar products left are those of Echelon.
    # 45,548 while the maps multiplied CycScalars, 19,300 while the
    # counit and the trace form did, 13,906 while J was multiplied out of
    # the idempotents E_s, 6,964 while the exterior expansion multiplied
    # per term, 6,930 while every host of one (G, W) built its own Algebra.
    assert muls == 6373
    # linear maps applied: S^3 is composed only for an antipode whose S^4
    # is not the identity, which no atlas instance has, and each host's
    # exterior expansion wedges once per nonempty mask and group element.
    # 6,087 while the antipode order composed S^3 on every instance, 5,979
    # while the exterior expansion multiplied per term, 6,011 while every
    # host of one (G, W) built its own Algebra; each instance's Twist
    # derives J^-1 = (S (x) id)(J), one map each (5,255 while J^-1 was
    # built from the inverse bicharacter).  The 96 twists of a commutative
    # host form no Q and no Q^-1 candidate (5,374 while they did), and
    # their H^J holds its host's very Coalgebra, so it composes no S^2 and
    # no S^4 of its own; it applies Delta to 1 for its own structural check
    # (5,086 while it took its host's whole verdict and composed S^2 and
    # S^4 afresh).  A modification re-keys the integer numerators of the
    # columns it moves and keeps the others, and with W = 0 keeps the
    # smash product's whole Coalgebra, whose S^2 and S^4 every host of one
    # group then shares (4,154 while each host's coalgebra was summed
    # afresh from raw (j, k, c) tables).
    assert maps == 3930
    # products in H (x) H: the twists' J21^-1 R J, J^-1 Delta J on a host
    # that is not commutative, their checks of J, and the hosts' proofs;
    # the premises of every H^J compare maps and multiply none.  5,085
    # while the premises multiplied back, 3,091 while each instance
    # multiplied J^-1 back on both sides, 2,972 while the twists of a
    # commutative host multiplied out J^-1 Delta J.
    assert products == 1572
    # the algebra half of the structural check, once per (group, W): every
    # host of one (group, W) and every H^J twisted from them holds one
    # Algebra.  43, once per host, while each host built its own.
    assert algebra_scans == len(smash) == 21
    assert {name: len(args) for name, args in calls.items()} == {
        # the product and every fact of it, once per (group, W)
        "_smash_product": 21,
        "_associativity_witness": 21,
        "jacobson_radical": 21,
        # the facts of a host's coalgebra, once per host
        "_triangular": 43,
        # the axioms of H, once per host; every H^J's follow from them
        "_bialgebra_witness": 43,
        # J, once per (group, A, gamma, dim); each Twist derives J^-1 (2 * 33
        # while J^-1 was built from the inverse bicharacter)
        "build_bicharacter_twist": len(twists),
        # the text of each (group, W)'s mult, once per Algebra
        "_mult_text": 21,
        # the Chevalley property, once per host; every H^J reads its host's
        "subspace_is_hopf_ideal": 43,
    }
    # every host of one group with W = 0 holds the smash product's very
    # Coalgebra, whatever its u; a host with W != 0 holds the smash
    # product's very Vec for each even column of S, and a moved one for
    # each odd column
    for group, v_chars, u in hosts:
        h, super_coalgebra = atlas._host(group, v_chars, u)[0], atlas._smash(group, v_chars)[1]
        if not v_chars:
            assert h.coalgebra is super_coalgebra
        else:
            assert [h.antipode[i] is s for i, s in enumerate(super_coalgebra.antipode)] == [
                not p for p in super_coalgebra.parity
            ]
    # cocommutativity and the antipode order, once per distinct Coalgebra
    # of the 119 H^J (119 each while they were free functions of a
    # HopfData): one per H^J with a coalgebra of its own, and one per host
    # coalgebra that H^J keep, read by every such H^J and shared by the
    # hosts of one group with W = 0 (53 while each host had its own)
    host_coalgebras = {id(atlas._host(*key)[0].coalgebra) for key in hosts}
    kept = [s for s in specs if atlas._host(s.group, s.v_chars, s.u)[0].algebra.commutative]
    assert len(kept) == 96
    for name in ("cocommutative", "antipode_order"):
        records = [id(c) for c in facts[name]]
        assert len(records) == len(set(records)) == 36
        assert {i for i in records if i in host_coalgebras} == {
            id(atlas._host(s.group, s.v_chars, s.u)[0].coalgebra) for s in kept
        }
        assert sum(i not in host_coalgebras for i in records) == len(specs) - len(kept)
    # the triangular proofs take the generator path, on the untwisted hosts
    assert all(
        gens is not None and gens == h.generators and h.twist is None
        for h, _, gens in calls["_triangular"]
    )


# --- the axioms of H^J from the twisting theorem ---------------------------------


def _counting_verify_hopf(monkeypatch):
    """The algebras verify_hopf runs on from HopfData.axioms, in order."""
    checked = []
    verify = hopf.verify_hopf
    monkeypatch.setattr(hopf, "verify_hopf", lambda h: checked.append(h) or verify(h))
    return checked


def test_theorem_path_matches_verify_hopf_on_atlas9(monkeypatch):
    checked = _counting_verify_hopf(monkeypatch)
    specs = enumerate_instances(9)
    for spec in specs:
        tw = instance_twist(spec)
        h, _ = tw.apply()
        assert h.twist is tw and tw.proves_hopf(h)
        assert h.axioms.to_obj() == verify_hopf(h).to_obj()
    assert len(specs) == 119
    # verify_hopf ran from .axioms on untwisted hosts only
    assert all(h.twist is None for h in checked)


def test_axiom_mutants_take_the_fallback_on_atlas9(monkeypatch):
    checked = _counting_verify_hopf(monkeypatch)
    mutants = 0
    for k, spec in enumerate(enumerate_instances(9)):
        tw = instance_twist(spec)
        h, _ = tw.apply()
        d, i = h.dim, k % h.dim
        # S^J(e_i) plus a basis vector; Delta^J(e_i) plus e_0 (x) e_0, with
        # eps(e_0) = 1, so the counit identity fails at i
        column = h.antipode[i] + Vec.basis(d, (i + k) % d)
        delta = h.comult[i] + Tensor2.from_dict(d, {(0, 0): ONE})
        for bad in (
            h.replace(antipode=h.antipode[:i] + (column,) + h.antipode[i + 1:]),
            h.replace(comult=h.comult[:i] + (delta,) + h.comult[i + 1:]),
        ):
            assert bad.twist is tw and not tw.proves_hopf(bad)
            report = bad.axioms
            assert checked[-1] is bad and not report.ok and report.witnesses
            assert report.to_obj() == verify_hopf(bad).to_obj()
            mutants += 1
        # e_i e_0 plus e_0: another Algebra, so the premise of H's algebra
        # fails and verify_hopf decides
        bad = h.replace(mult=h.mult + Tensor3.from_dict(d, {(i, 0, 0): ONE}))
        assert bad.algebra is not h.algebra and bad.algebra != h.algebra
        assert bad.twist is tw and not tw.proves_hopf(bad)
        report = bad.axioms
        assert checked[-1] is bad and report.to_obj() == verify_hopf(bad).to_obj()
        mutants += 1
        # an equal product in a fresh Algebra still meets the premise
        same = h.replace(mult=Tensor3(d, [((a, b, c), w) for a, b, c, w in h.mult.nonzeros]))
        assert same.algebra is not h.algebra and same.algebra == h.algebra
        assert tw.proves_hopf(same) and same.axioms.ok and checked[-1] is not same
    assert mutants == 3 * 119


def test_chevalley_of_a_twist_is_its_hosts_on_atlas9(monkeypatch):
    direct = hopf.subspace_is_hopf_ideal
    checked = []
    monkeypatch.setattr(hopf, "subspace_is_hopf_ideal", lambda h, b: checked.append(h) or direct(h, b))
    specs = enumerate_instances(9)
    for k, spec in enumerate(specs):
        tw = instance_twist(spec)
        h, _ = tw.apply()
        before = len(checked)
        assert hopf.is_chevalley(h) == direct(h, h.algebra.radical)
        # the radical of H^J is never tested itself, only its host's
        assert all(g is tw.host for g in checked[before:])
        # Delta^J(e_i) plus e_0 (x) e_0 fails the premise, so the radical of
        # the mutant is tested itself
        d, i = h.dim, k % h.dim
        delta = h.comult[i] + Tensor2.from_dict(d, {(0, 0): ONE})
        bad = h.replace(comult=h.comult[:i] + (delta,) + h.comult[i + 1:])
        assert bad.twist is tw and not tw.proves_hopf(bad)
        assert bad.chevalley == direct(bad, bad.algebra.radical) and checked[-1] is bad
    assert len(specs) == 119


def _calls(fn, *functions):
    """How often each function was entered while fn() ran, however it was
    imported by its callers."""
    counts = {f.__code__: 0 for f in functions}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in counts:
            counts[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return tuple(counts.values())


@pytest.mark.parametrize(
    "group, elements, products",
    [
        # (24, 20, 46) and (37, 34, 29) while Delta^J and S^J of a
        # commutative host were multiplied out; (6, 2, 67), (5, 2, 99) and
        # (21, 18, 17) while J^-1 was solved for; (3, 2, 21) and (3, 2, 70)
        # while a commutative host's twist certified Q^-1 on both sides
        (atlas._cyclic_product(3, 3), None, (3, 0, 21)),
        (atlas._cyclic_product(2, 2, 2, 2), None, (3, 0, 70)),
        # D4 is not commutative: its twist on a Klein subgroup conjugates
        (FiniteGroup.dihedral4, (0, 2, 4, 6), (19, 18, 0)),
    ],
    ids=["Z3xZ3", "Z2xZ2xZ2xZ2", "D4_klein"],
)
def test_applying_a_twist_checks_no_axiom(group, elements, products):
    # the premises of Twist.proves_hopf run when the axioms are asked for,
    # not in apply_twist: products holds the tensor2_mul and mul_vec calls
    # that check J and build Delta^J, S^J and R^J, which multiply integer
    # numerators, and the CycScalar products left: on a commutative host,
    # those of Algebra.witnesses, which decide that J^-1 Delta J = Delta.
    # No echelon runs behind J^-1: it is the closed form (S (x) id)(J),
    # certified by the one multiply-back J J^-1 = 1.  A commutative host
    # forms no Q: S^J = S by the uniqueness of the antipode, so no
    # mul_vec certifies Q^-1.  The contractions m(S (x) id)(J) and
    # m(id (x) S)(J^-1) on D4, the counit slants of J, and the counit
    # and 1 (x) 1 in the structural check multiply none (76
    # and 80 while the counit multiplied CycScalars); J^-1 is multiplied
    # back on one side (25 and 38 tensor2_mul calls while it was
    # multiplied back on both)
    g = group()
    h = group_algebra(g)
    sub = AbelianSubgroup(g, range(g.order) if elements is None else elements)
    j = build_bicharacter_twist(sub, half_bicharacter(alternating_nondegenerate_bicharacters(sub.factors)[0]))
    r = r_u(h, Vec.basis(h.dim, g.identity))
    out = []
    counts = _calls(
        lambda: out.extend(apply_twist(h, j, r=r)),
        tensor2_mul, hopf.HopfData.mul_vec, CycScalar.__mul__,
    )
    assert counts == products
    # with H's axioms proved, those of H^J compare its maps with the
    # twist's and multiply nothing
    h2 = out[0]
    assert "axioms" not in vars(h2) and h.axioms.ok
    assert _calls(lambda: h2.axioms, tensor2_mul, hopf.HopfData.mul_vec) == (0, 0)
    assert h2.axioms.ok
