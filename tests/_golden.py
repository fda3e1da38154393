"""Builder dumps pinned by tests/golden/builders.sha256.

Every (group, W, u) host of the atlas up to order 32 gives the
supergroup algebra k[G] x Lambda(W) (one per (group, W)) and the
modified supergroup algebra with its R_u; exterior_algebra(0..5) and
three smash products whose W is not diagonal complete the set.  Two of
those W are signed permutations; the Z6 rotation is not, so rho(g) v_S
has more than one term there.

tests/golden/semisimple.sha256 pins semisimple_triangular: the twisted
group algebra and its R for every semisimple (W = 0) instance of the
atlas up to order 16, one (group, A, gamma, u) each.

tests/golden/twists.sha256 pins build_bicharacter_twist: J over k[G]
for every (group, A, gamma) of the atlas up to order 32, with
beta = half_bicharacter(gamma) and its inverse, for beta = half(gamma)
of each of the 28 alternating nondegenerate gamma on Z2^4, and for the
non-alternating beta(s, t) = i**(st) on Z4.

Running this file prints the digests in `sha256sum` format:

    PYTHONPATH=src python tests/_golden.py > tests/golden/builders.sha256
    PYTHONPATH=src python tests/_golden.py semisimple > tests/golden/semisimple.sha256
    PYTHONPATH=src python tests/_golden.py twists > tests/golden/twists.sha256
"""

import hashlib
import sys

from trihopf.atlas import _bicharacters, _group_tables, _sign_rep, enumerate_instances
from trihopf.constructions import (
    build_bicharacter_twist,
    exterior_algebra,
    modified_supergroup_algebra,
    semisimple_triangular,
    supergroup_algebra,
)
from trihopf.groups import (
    AbelianSubgroup,
    Bicharacter,
    FiniteGroup,
    GroupRep,
    half_bicharacter,
)
from trihopf.scalars import CycScalar
from trihopf.serialize import dumps, hopf_to_obj, tensor2_to_obj

ONE, ZERO = CycScalar.one(), CycScalar.zero()
IDENTITY = ((ONE, ZERO), (ZERO, ONE))
QUARTER_TURN = ((ZERO, -ONE), (ONE, ZERO))
REFLECTION = ((ONE, ZERO), (ZERO, -ONE))
SIXTH_TURN = ((ONE, -ONE), (ONE, ZERO))


def _product(a, b):
    """The product of two 2 x 2 matrices given by their rows."""
    return tuple(
        tuple(sum((x * b[j][col] for j, x in enumerate(row)), ZERO) for col in range(2))
        for row in a
    )


def _power(m, k: int):
    out = IDENTITY
    for _ in range(k):
        out = _product(out, m)
    return out


def z4_quarter_turn() -> tuple[FiniteGroup, GroupRep, int]:
    """Z4 turning the plane by 90 degrees; u = 2 acts by -1 (dim 16)."""
    z4 = FiniteGroup.cyclic(4)
    return z4, GroupRep(z4, 2, [_power(QUARTER_TURN, k) for k in range(4)]), 2


def d4_plane() -> tuple[FiniteGroup, GroupRep, int]:
    """D4 on the plane, r a quarter turn and s a reflection; u = r^2
    acts by -1 (dim 32).  Element r^i s^j has index i + 4j."""
    d4 = FiniteGroup.dihedral4()
    mats = [_product(_power(QUARTER_TURN, x % 4), _power(REFLECTION, x // 4)) for x in range(8)]
    return d4, GroupRep(d4, 2, mats), 2


def z6_sixth_turn() -> tuple[FiniteGroup, GroupRep, int]:
    """Z6 turning the plane by 60 degrees, rho(1) = [[1, -1], [1, 0]];
    u = 3 acts by -1 (dim 24).  rho(g) is not monomial for g != 0, 3."""
    z6 = FiniteGroup.cyclic(6)
    return z6, GroupRep(z6, 2, [_power(SIXTH_TURN, k) for k in range(6)]), 3


NON_DIAGONAL = {"Z4rot": z4_quarter_turn, "D4plane": d4_plane, "Z6rot": z6_sixth_turn}


def atlas_hosts(max_order: int = 32):
    """(label, group, W, u) per distinct host of the atlas, in its order."""
    seen = set()
    for spec in enumerate_instances(max_order):
        key = (spec.group, spec.u, spec.v_chars)
        if key in seen:
            continue
        seen.add(key)
        sig_v = "-".join(str(i) for i in spec.v_chars) or "0"
        g, _ = _group_tables(spec.group)
        yield f"{spec.group}_V{sig_v}", g, _sign_rep(spec.group, spec.v_chars), spec.u


def builder_dumps():
    """(file name, dumped text) for every pinned builder output."""
    hosts = list(atlas_hosts())
    hosts += [(name, *build()) for name, build in NON_DIAGONAL.items()]
    supers = set()
    for label, g, w, u in hosts:
        if label not in supers:
            supers.add(label)
            yield f"{label}.super.hopf.json", dumps(hopf_to_obj(supergroup_algebra(g, w)))
        h, r = modified_supergroup_algebra(g, w, u)
        yield f"{label}_u{u}.modified.hopf.json", dumps(hopf_to_obj(h))
        yield f"{label}_u{u}.modified.r.json", dumps(tensor2_to_obj(r))
    for n in range(6):
        yield f"exterior{n}.hopf.json", dumps(hopf_to_obj(exterior_algebra(n)))


def semisimple_dumps(max_order: int = 16):
    """(file name, dumped text) of semisimple_triangular's (H, R) for every
    W = 0 instance of the atlas up to max_order."""
    for spec in enumerate_instances(max_order):
        if spec.v_chars:
            continue
        g, _ = _group_tables(spec.group)
        sub = AbelianSubgroup(g, spec.subgroup)
        gamma = _bicharacters(sub.factors)[spec.gamma_index]
        h, r = semisimple_triangular(g, sub, gamma, spec.u)
        yield f"{spec.name}.hopf.json", dumps(hopf_to_obj(h))
        yield f"{spec.name}.r.json", dumps(tensor2_to_obj(r))


def twist_cases(max_order: int = 32):
    """(label, A, beta) for every bicharacter twist pinned by twists.sha256."""
    seen = set()
    for spec in enumerate_instances(max_order):
        key = (spec.group, spec.subgroup, spec.gamma_index)
        if key in seen:
            continue
        seen.add(key)
        g, _ = _group_tables(spec.group)
        sub = AbelianSubgroup(g, spec.subgroup)
        beta = half_bicharacter(_bicharacters(sub.factors)[spec.gamma_index])
        label = f"{spec.group}_A{'-'.join(map(str, spec.subgroup))}_g{spec.gamma_index}"
        yield label, sub, beta
        yield f"{label}_inverse", sub, beta.inverse()
    z2e4 = FiniteGroup.direct_product(*[FiniteGroup.cyclic(2)] * 4)
    for k, gamma in enumerate(_bicharacters((2, 2, 2, 2))):
        yield f"Z2^4_g{k}", AbelianSubgroup(z2e4, range(16)), half_bicharacter(gamma)
    z4 = FiniteGroup.cyclic(4)
    yield "Z4_i^st", AbelianSubgroup(z4, range(4)), Bicharacter.from_exponent_matrix((4,), [[1]])


def twist_dumps():
    """(file name, dumped text) of J for every case of twist_cases."""
    for label, sub, beta in twist_cases():
        yield f"{label}.j.json", dumps(tensor2_to_obj(build_bicharacter_twist(sub, beta)))


def _digests(dumps_) -> dict:
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in dumps_}


def builder_digests() -> dict:
    return _digests(builder_dumps())


def semisimple_digests() -> dict:
    return _digests(semisimple_dumps())


def twist_digests() -> dict:
    return _digests(twist_dumps())


if __name__ == "__main__":
    which = sys.argv[1] if len(sys.argv) > 1 else "builders"
    digests = {
        "builders": builder_digests,
        "semisimple": semisimple_digests,
        "twists": twist_digests,
    }[which]()
    for name, digest in sorted(digests.items()):
        print(f"{digest}  {name}")
