"""Quasitriangularity, the Drinfeld element, structural theorem checks."""

import copy
import sys
from dataclasses import asdict

import pytest

from trihopf import atlas, constructions, hopf, serialize, tensor, triangular
from trihopf.atlas import (
    _build_and_write,
    analysis_report,
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
from trihopf.hopf import is_cocommutative, verify_hopf
from trihopf.scalars import CycScalar
from trihopf.tensor import (
    Tensor2,
    Vec,
    embed13_23_12,
    flip,
    tensor2_mul,
    tensor3_mul,
    unit_tensor2,
)
from trihopf.triangular import (
    certify_twisted_triangular,
    check_structure_theorems,
    drinfeld_element,
    modify_r,
    r_matrix_rank,
    r_u,
    verify_triangular,
)

from _oracles import exhaustive_triangular, sweedler_r

ONE, ZERO = CycScalar.one(), CycScalar.zero()


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
    assert verify_hopf(h).ok and is_cocommutative(h)
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
    a = z3.abelian_subgroup(range(3))
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
    a = z2z2.abelian_subgroup(range(4))
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
    twisted, r_tw = semisimple_triangular(z2z2, z2z2.abelian_subgroup(range(4)), gamma, u=1)
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
    a = z3z3.abelian_subgroup(range(9))
    gamma = alternating_nondegenerate_bicharacters((3, 3))[1]
    h, r = semisimple_triangular(z3z3, a, gamma, u=0)
    rep = check_structure_theorems(h, r)
    assert rep.ok
    assert rep.u == h.unit and rep.odd_dim_forces_u1_semisimple


def test_drinfeld_element_twist_invariant():
    # compute u before and after twisting: it must not move
    z2z2 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    h = group_algebra(z2z2)
    a = z2z2.abelian_subgroup(range(4))
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
    """A copy of a Twist with fields swapped in after its checks ran."""
    out = copy.copy(twist)
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
        cocommutative = is_cocommutative(h)
        noncommuting += not cocommutative
        # one R^J entry perturbed
        assert not certify_twisted_triangular(h, _perturbed(r, k), tw)
        # one J entry perturbed: the Twist refuses it, and on a
        # non-cocommutative host a record forged past that check fails the
        # multiply-back
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
        if not is_cocommutative(tw.host):
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
    monkeypatch.setattr("trihopf.atlas.certify_twisted_triangular", lambda h, r, tw: certified)
    monkeypatch.setattr("trihopf.atlas.verify_triangular", lambda h, r: calls.append(1) or True)
    tw = instance_twist(enumerate_instances(8)[5])
    h, r = tw.apply()
    assert analysis_report(h, r, tw)["triangular"]["triangular"]
    assert len(calls) == (0 if certified else 1)
    # without a twist the exhaustive check decides
    assert analysis_report(h, r)["triangular"]["triangular"]
    assert len(calls) == (1 if certified else 2)


def _atlas_files(specs, out):
    out.mkdir()
    for spec in specs:
        _build_and_write((asdict(spec), str(out)))
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_wrong_closed_form_inverses_fall_back_to_the_solve(monkeypatch, tmp_path):
    # the closed forms Q^-1 = m(id (x) S)(J^-1) and u^-1 = sum b_i S^2(a_i)
    # replaced by twice themselves: each fails the multiply-back, the
    # solve answers, and every dumped byte stays the same
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
    assert len(solved) == 2 * len(specs)


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


def test_host_proof_is_kept_per_r_not_per_host():
    # R_u is proved triangular on the cached host once; 1 (x) 1 on the same
    # host is proved afresh and refused, and R_u is then proved again
    spec = next(s for s in enumerate_instances(8) if s.name == "Z2xZ2_u1_V2_A0-1-2-3_g0")
    tw = instance_twist(spec)
    assert not is_cocommutative(tw.host)
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
    # every host fact runs once per distinct (group, W, u), not per instance
    specs = enumerate_instances(9)
    hosts = {(s.group, s.v_chars, s.u) for s in specs}
    twists = {(s.group, s.subgroup, s.gamma_index, s.dim) for s in specs}
    assert (len(specs), len(hosts), len(twists)) == (119, 43, 33)
    calls = {}
    for module, name in (
        (constructions, "_smash_product"),
        (hopf, "_associativity_witness"),
        (hopf, "jacobson_radical"),
        (triangular, "_triangular"),
        (hopf, "_bialgebra_witness"),
        (constructions, "build_bicharacter_twist"),
        (serialize, "_mult_obj"),
    ):
        original = getattr(module, name)

        def counting(*args, name=name, original=original):
            calls.setdefault(name, []).append(args)
            return original(*args)

        monkeypatch.setattr(module, name, counting)
    atlas._host.cache_clear()
    atlas._twist_pair.cache_clear()
    files: dict = {}
    muls, algebra_scans = _calls(
        lambda: files.update(_atlas_files(specs, tmp_path / "atlas")),
        CycScalar.__mul__,
        hopf.Algebra.malformation.func,
    )
    assert len(files) == 3 * 119
    # S, S^2, rho(g), Delta, the contractions by S and the associativity
    # rows multiply integer numerators (tensor.apply_map); the CycScalar
    # products left are those of Echelon, the trace form, the counit, the
    # bicharacter twists and the exterior expansion.  45,548 while those
    # maps multiplied CycScalars.
    assert muls == 19372
    # the algebra half of the structural check, once per host: every H^J
    # holds its host's very Algebra
    assert algebra_scans == 43
    assert {name: len(args) for name, args in calls.items()} == {
        "_smash_product": 43,
        "_associativity_witness": 43,
        "jacobson_radical": 43,
        "_triangular": 43,
        # the axioms of H, once per host; every H^J's follow from them
        "_bialgebra_witness": 43,
        # J and J^-1, once per (group, A, gamma, dim)
        "build_bicharacter_twist": 2 * len(twists),
        # the text of each host's mult, once per host
        "_mult_obj": 43,
    }
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
        cell = dict(h.mult[i][0])
        cell[0] = cell.get(0, ZERO) + ONE
        row = h.mult[i][:0] + (tuple(sorted(cell.items())),) + h.mult[i][1:]
        bad = h.replace(mult=h.mult[:i] + (row,) + h.mult[i + 1:])
        assert bad.algebra is not h.algebra and bad.algebra != h.algebra
        assert bad.twist is tw and not tw.proves_hopf(bad)
        report = bad.axioms
        assert checked[-1] is bad and report.to_obj() == verify_hopf(bad).to_obj()
        mutants += 1
        # an equal product in a fresh Algebra still meets the premise
        same = h.replace(mult=tuple(map(tuple, h.mult)))
        assert same.algebra is not h.algebra and same.algebra == h.algebra
        assert tw.proves_hopf(same) and same.axioms.ok and checked[-1] is not same
    assert mutants == 3 * 119


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
    "orders, products", [((3, 3), (25, 20, 76)), ((2, 2, 2, 2), (38, 34, 80))]
)
def test_applying_a_twist_checks_no_axiom(orders, products):
    # the premises of Twist.proves_hopf run when the axioms are asked for,
    # not in apply_twist: products holds the tensor2_mul and mul_vec calls
    # that check J and build Delta^J, S^J and R^J, which multiply integer
    # numerators, and the CycScalar products left: those of the
    # elimination behind J^-1 (its echelon and the combination of powers),
    # the counit slants of J, and the counit and 1 (x) 1 in the structural
    # check; the contractions m(S (x) id)(J) and m(id (x) S)(J^-1)
    # multiply none
    g = FiniteGroup.direct_product(*(FiniteGroup.cyclic(n) for n in orders))
    h = group_algebra(g)
    sub = AbelianSubgroup(g, range(g.order))
    j = build_bicharacter_twist(sub, half_bicharacter(alternating_nondegenerate_bicharacters(sub.factors)[0]))
    r = r_u(h, Vec.basis(h.dim, g.identity))
    out = []
    counts = _calls(
        lambda: out.extend(apply_twist(h, j, r=r)),
        tensor2_mul, hopf.HopfData.mul_vec, CycScalar.__mul__,
    )
    assert counts == products
    h2 = out[0]
    assert "axioms" not in vars(h2) and "_intertwined" not in vars(h2)
    assert h2.axioms.ok and vars(h2)["_intertwined"]
