"""Builder dumps pinned by tests/golden/builders.sha256.

Every (group, W, u) host of the atlas up to order 32 gives the
supergroup algebra k[G] x Lambda(W) (one per (group, W)) and the
modified supergroup algebra with its R_u; exterior_algebra(0..5) and
two smash products whose W is not diagonal complete the set.  Running
this file prints the digests in `sha256sum` format:

    PYTHONPATH=src python tests/_golden.py > tests/golden/builders.sha256
"""

import hashlib

from trihopf.atlas import _group_tables, _sign_rep, enumerate_instances
from trihopf.constructions import (
    exterior_algebra,
    modified_supergroup_algebra,
    supergroup_algebra,
)
from trihopf.groups import FiniteGroup, GroupRep
from trihopf.scalars import CycScalar
from trihopf.serialize import dumps, hopf_to_obj, tensor2_to_obj
from trihopf.tensor import Mat

ONE, ZERO = CycScalar.one(), CycScalar.zero()
QUARTER_TURN = Mat([[ZERO, -ONE], [ONE, ZERO]])
REFLECTION = Mat([[ONE, ZERO], [ZERO, -ONE]])


def _power(m: Mat, k: int) -> Mat:
    out = Mat.identity(m.nrows)
    for _ in range(k):
        out = out @ m
    return out


def z4_quarter_turn() -> tuple[FiniteGroup, GroupRep, int]:
    """Z4 turning the plane by 90 degrees; u = 2 acts by -1 (dim 16)."""
    z4 = FiniteGroup.cyclic(4)
    return z4, GroupRep(z4, 2, [_power(QUARTER_TURN, k) for k in range(4)]), 2


def d4_plane() -> tuple[FiniteGroup, GroupRep, int]:
    """D4 on the plane, r a quarter turn and s a reflection; u = r^2
    acts by -1 (dim 32).  Element r^i s^j has index i + 4j."""
    d4 = FiniteGroup.dihedral4()
    mats = [_power(QUARTER_TURN, x % 4) @ _power(REFLECTION, x // 4) for x in range(8)]
    return d4, GroupRep(d4, 2, mats), 2


NON_DIAGONAL = {"Z4rot": z4_quarter_turn, "D4plane": d4_plane}


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


def builder_digests() -> dict:
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in builder_dumps()}


if __name__ == "__main__":
    for name, digest in sorted(builder_digests().items()):
        print(f"{digest}  {name}")
