"""Acceptance criteria, one test per criterion, one pass/fail line each.

Everything here is exact: expected values are hand-derived tables,
independent oracles, or structural identities; there are no numeric
tolerances anywhere.
"""

import time
from itertools import combinations_with_replacement
from pathlib import Path

from trihopf.atlas import CATALOG, build_instance, enumerate_instances, run_atlas
from trihopf.constructions import (
    apply_twist,
    build_bicharacter_twist,
    group_algebra,
    exterior_algebra,
    modified_supergroup_algebra,
    semisimple_triangular,
    supergroup_algebra,
    verify_twist,
)
from trihopf.groups import (
    AbelianSubgroup,
    FiniteGroup,
    GroupRep,
    alternating_nondegenerate_bicharacters,
    half_bicharacter,
    sign_characters,
)
from trihopf.hopf import (
    dual_hopf,
    is_chevalley,
    is_semisimple,
    jacobson_radical,
    verify_hopf,
)
from trihopf.scalars import CycScalar
from trihopf.serialize import dumps, hopf_to_obj
from trihopf.tensor import Tensor2, Vec
from trihopf.triangular import check_structure_theorems, r_matrix_rank, verify_triangular

from _oracles import bruteforce_radical, mult_cell, same_span, subgroup_as_group

ONE = CycScalar.one()
ZERO = CycScalar.zero()


def _report(num, name, failures):
    status = "PASS" if not failures else f"FAIL ({len(failures)} problems)"
    print(f"acceptance {num} [{name}]: {status}")
    assert not failures, failures[:10]


def _supergroup_pairs():
    """All (G, V) with |G| <= 8 and dim V <= 2 over the sign characters."""
    for gname, build in CATALOG.items():
        g = build()
        if g.order > 8:
            continue
        chars = sign_characters(g)
        options = [()]
        options += [(i,) for i in range(len(chars))]
        options += list(combinations_with_replacement(range(len(chars)), 2))
        for combo in options:
            if combo:
                v = GroupRep.from_sign_characters(g, [chars[i] for i in combo])
            else:
                v = GroupRep.zero(g)
            yield gname, g, combo, v


def _modifier_candidates(g, chars, combo):
    return [
        u
        for u in g.central_involutions()
        if all(chars[i][u] == -1 for i in combo)
    ]


def test_acceptance_1_axiom_suite():
    failures = []
    t0 = time.perf_counter()
    for gname, build in CATALOG.items():
        g = build()
        if g.order <= 16 and not verify_hopf(group_algebra(g)).ok:
            failures.append(f"group_algebra({gname})")
    for n in range(4):
        if not verify_hopf(exterior_algebra(n)).ok:
            failures.append(f"exterior_algebra({n})")
    count = 0
    for gname, g, combo, v in _supergroup_pairs():
        if not verify_hopf(supergroup_algebra(g, v)).ok:
            failures.append(f"supergroup({gname},{combo})")
        count += 1
        chars = sign_characters(g)
        for u in _modifier_candidates(g, chars, combo):
            h, _ = modified_supergroup_algebra(g, v, u)
            if not verify_hopf(h).ok:
                failures.append(f"modified({gname},{combo},u={u})")
            count += 1
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    print(f"  axiom suite: {count} smash-product instances in {elapsed:.1f}s")
    _report(1, "axiom suite", failures)


def test_acceptance_2_sweedler_equivalence():
    failures = []
    z2 = FiniteGroup.cyclic(2)
    sign = GroupRep.from_sign_characters(z2, [(1, -1)])
    h, _ = modified_supergroup_algebra(z2, sign, u=1)
    # independent hand-built table: basis 1, x, g, gx with x^2 = 0,
    # g^2 = 1, x g = -g x, Delta(x) = x (x) 1 + g (x) x, S(x) = -gx
    mult = {
        (0, 0): {0: ONE}, (0, 1): {1: ONE}, (0, 2): {2: ONE}, (0, 3): {3: ONE},
        (1, 0): {1: ONE}, (1, 1): {}, (1, 2): {3: -ONE}, (1, 3): {},
        (2, 0): {2: ONE}, (2, 1): {3: ONE}, (2, 2): {0: ONE}, (2, 3): {1: ONE},
        (3, 0): {3: ONE}, (3, 1): {}, (3, 2): {1: -ONE}, (3, 3): {},
    }
    comult = [
        {(0, 0): ONE},
        {(1, 0): ONE, (2, 1): ONE},
        {(2, 2): ONE},
        {(3, 2): ONE, (0, 3): ONE},
    ]
    counit = [ONE, ZERO, ONE, ZERO]
    antipode = (((0, ONE),), ((3, -ONE),), ((2, ONE),), ((1, ONE),))  # S(e_i), as columns
    for (i, j), cell in mult.items():
        if dict(mult_cell(h, i, j)) != cell:
            failures.append(f"mult[{i}][{j}]")
    for i, cell in enumerate(comult):
        if h.comult[i] != Tensor2.from_dict(4, cell):
            failures.append(f"comult[{i}]")
    if list(h.counit.entries) != counit:
        failures.append("counit")
    if tuple(v.nonzeros for v in h.antipode) != antipode:
        failures.append("antipode")
    if h.unit != Vec.basis(4, 0):
        failures.append("unit")
    golden = Path(__file__).parent / "golden" / "sweedler.hopf.json"
    if dumps(hopf_to_obj(h)) != golden.read_text():
        failures.append("golden dump drifted")
    _report(2, "Sweedler equivalence", failures)


_ATLAS_CACHE: dict = {}


def _atlas_instances(max_order):
    if max_order not in _ATLAS_CACHE:
        _ATLAS_CACHE[max_order] = [
            (spec, *build_instance(spec)) for spec in enumerate_instances(max_order)
        ]
    return _ATLAS_CACHE[max_order]


def test_acceptance_3_structure_theorem_suite():
    failures = []
    odd_seen = set()
    count = 0
    for spec, h, r in _atlas_instances(9):
        count += 1
        if not verify_triangular(h, r):
            failures.append(f"{spec.name}: not triangular")
            continue
        rep = check_structure_theorems(h, r)
        for key in ("u_squared_is_one", "u_grouplike", "s4_is_id", "s2_is_ad_u"):
            if not getattr(rep, key):
                failures.append(f"{spec.name}: {key}")
        if h.coalgebra.antipode_order not in (1, 2, 4):
            failures.append(f"{spec.name}: antipode order does not divide 4")
        if h.dim % 2 == 1:
            odd_seen.add(spec.dim)
            if rep.u != h.unit or not is_semisimple(h):
                failures.append(f"{spec.name}: odd-dim branch")
    for wanted in (3, 5, 7, 9):
        if wanted not in odd_seen:
            failures.append(f"odd dimension {wanted} missing from the atlas")
    print(f"  theorem suite: {count} triangular instances checked")
    _report(3, "triangular structure theorems", failures)


def test_acceptance_4_chevalley_everywhere():
    failures = []
    non_ss = 0
    for spec, h, r in _atlas_instances(9):
        if not is_chevalley(h):
            failures.append(spec.name)
        if not is_semisimple(h):
            non_ss += 1
    if non_ss == 0:
        failures.append("no non-semisimple instances exercised")
    print(f"  chevalley: checked incl. {non_ss} non-semisimple instances")
    _report(4, "Chevalley property", failures)


def test_acceptance_5_twist_contract():
    failures = []
    count = 0
    for gname, build in CATALOG.items():
        g = build()
        if g.order > 9:
            continue
        for elements in g.all_subgroups():
            n = len(elements)
            if n == 1 or int(n ** 0.5) ** 2 != n:
                continue
            if any(g.table[a][b] != g.table[b][a] for a in elements for b in elements):
                continue
            sub = AbelianSubgroup(g, elements)
            for gamma in alternating_nondegenerate_bicharacters(sub.factors):
                count += 1
                tag = f"{gname}/A{elements}"
                beta = half_bicharacter(gamma)
                h = group_algebra(g)
                j = build_bicharacter_twist(sub, beta)
                j_inv = build_bicharacter_twist(sub, beta.inverse())
                if not verify_twist(h, j):
                    failures.append(f"{tag}: verify_twist")
                    continue
                h2, _ = apply_twist(h, j, j_inv=j_inv)
                if not verify_hopf(h2).ok:
                    failures.append(f"{tag}: twisted axioms")
                h3, _ = apply_twist(h2, j_inv, j_inv=j)
                if dumps(hopf_to_obj(h3)) != dumps(hopf_to_obj(h)):
                    failures.append(f"{tag}: roundtrip not byte-identical")
                # (k[A]^J, J21^-1 J) is triangular
                a_group = subgroup_as_group(sub)
                a_full = AbelianSubgroup(a_group, range(a_group.order))
                ha, ra = semisimple_triangular(a_group, a_full, gamma, a_group.identity)
                if not verify_triangular(ha, ra):
                    failures.append(f"{tag}: (k[A]^J, J21^-1 J) not triangular")
    if count == 0:
        failures.append("no twists enumerated")
    print(f"  twist contract: {count} bicharacter twists checked")
    _report(5, "twist contract", failures)


def test_acceptance_6_rank_bound():
    failures = []
    count = 0
    for gname, g, combo, v in _supergroup_pairs():
        chars = sign_characters(g)
        for u in _modifier_candidates(g, chars, combo):
            _, ru = modified_supergroup_algebra(g, v, u)
            rank = r_matrix_rank(ru)
            count += 1
            if rank > 2:
                failures.append(f"{gname},{combo},u={u}: rank {rank}")
            if u != g.identity and rank != 2:
                failures.append(f"{gname},{combo},u={u}: expected rank 2, got {rank}")
            if u == g.identity and rank != 1:
                failures.append(f"{gname},{combo},u={u}: expected rank 1, got {rank}")
    print(f"  rank bound: {count} modified instances checked")
    _report(6, "R_u rank bound", failures)


def test_acceptance_7_radical_oracle():
    failures = []
    pool = []
    for gname, build in CATALOG.items():
        g = build()
        if g.order <= 8:
            pool.append((f"k[{gname}]", group_algebra(g)))
    for n in range(4):
        pool.append((f"ext({n})", exterior_algebra(n)))
    z2 = FiniteGroup.cyclic(2)
    sign = GroupRep.from_sign_characters(z2, [(1, -1)])
    pool.append(("supergroup(Z2,sign)", supergroup_algebra(z2, sign)))
    sweedler, _ = modified_supergroup_algebra(z2, sign, u=1)
    pool.append(("sweedler", sweedler))
    pool.append(("dual(k[S3])", dual_hopf(group_algebra(FiniteGroup.symmetric3()))))
    sign2 = GroupRep.from_sign_characters(z2, [(1, -1), (1, -1)])
    pool.append(("supergroup(Z2,sign+sign)", supergroup_algebra(z2, sign2)))
    h8, _ = modified_supergroup_algebra(z2, sign2, u=1)
    pool.append(("modified(Z2,2)", h8))
    for name, h in pool:
        if h.dim > 8:
            continue
        if not same_span(jacobson_radical(h), bruteforce_radical(h)):
            failures.append(f"{name}: oracle disagreement")
    # exact radical-dimension formula |G| (2**dimV - 1)
    for gname, g, combo, v in _supergroup_pairs():
        h = supergroup_algebra(g, v)
        expected = g.order * (2 ** len(combo) - 1)
        if len(jacobson_radical(h)) != expected:
            failures.append(f"supergroup({gname},{combo}): radical dim")
    _report(7, "radical oracle equivalence", failures)


def test_acceptance_8_atlas_determinism(tmp_path):
    failures = []
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    ok1, _ = run_atlas(8, out1, workers=1)
    ok2, _ = run_atlas(8, out2, workers=2)
    if not (ok1 and ok2):
        failures.append("atlas verification failed")
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    if names1 != names2 or not names1:
        failures.append("file trees differ in names")
    else:
        for name in names1:
            if (out1 / name).read_bytes() != (out2 / name).read_bytes():
                failures.append(f"{name}: bytes differ")
    print(f"  determinism: {len(names1)} files compared across worker counts")
    _report(8, "atlas determinism", failures)
