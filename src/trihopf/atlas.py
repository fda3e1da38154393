"""The catalog and its runner: every triangular instance the builders
reach, built, verified and written.

The group catalog is a fixed, documented list (cyclic groups up to
order 16, the elementary-abelian and mixed 2-groups, Z3xZ3, S3, D4,
Q8).  For each group the atlas walks all central order-<=2 modifiers u,
all sign representations of dimension <= 2 on which u acts by -1 (none
for the semisimple stratum), all square-order abelian subgroups and all
nondegenerate alternating bicharacters on them, and emits one verified
instance per combination with output dimension bounded by max_order.

Instances rebuild purely from their parameter tuple, so output trees
are byte-identical for any worker count.  Each instance's files are its
H^J, its R^J and their report, triangular.analysis_report, which the
analyze command prints for the same pair read back from those files.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path

from .constructions import (
    Septuple,
    _modify,
    _smash_product,
    bicharacter_twist,
    septuple_twist,
)
from .groups import (
    AbelianSubgroup,
    FiniteGroup,
    GroupRep,
    alternating_nondegenerate_bicharacters,
    sign_characters,
)
from .hopf import HopfData
from .serialize import dumps, hopf_dumps, tensor2_dumps
from .tensor import Tensor2
from .triangular import analysis_report, theorems_hold


def _cyclic_product(*orders: int):
    return lambda: FiniteGroup.direct_product(*(FiniteGroup.cyclic(n) for n in orders))


# the catalog, name -> constructor, in enumeration order
CATALOG = {
    **{f"Z{n}": (lambda n=n: FiniteGroup.cyclic(n)) for n in range(1, 17)},
    "Z2xZ2": _cyclic_product(2, 2),
    "Z2xZ2xZ2": _cyclic_product(2, 2, 2),
    "Z4xZ2": _cyclic_product(4, 2),
    "Z3xZ3": _cyclic_product(3, 3),
    "S3": lambda: FiniteGroup.symmetric3(),
    "D4": lambda: FiniteGroup.dihedral4(),
    "Q8": lambda: FiniteGroup.quaternion8(),
}


def catalog_group(name: str) -> FiniteGroup:
    """Build one catalog group, and only that one."""
    build = CATALOG.get(name)
    if build is None:
        raise KeyError(f"unknown catalog group {name!r}")
    return build()


# Per-process tables, built once per catalog group, representation,
# smash product, host, twist J or factor tuple instead of once
# per instance; the keys range over the finite catalog.  Nothing built
# for one instance alone (H^J, R^J, a report) is kept.

@lru_cache(maxsize=None)
def _group_tables(name: str) -> tuple[FiniteGroup, tuple]:
    """A catalog group and its sign characters."""
    g = catalog_group(name)
    return g, tuple(sign_characters(g))


@lru_cache(maxsize=None)
def _sign_rep(name: str, v_chars: tuple[int, ...]) -> GroupRep:
    """W on a catalog group, from indices into its sign characters."""
    g, chars = _group_tables(name)
    if not v_chars:
        return GroupRep.zero(g)
    return GroupRep.from_sign_characters(g, [chars[i] for i in v_chars])


@lru_cache(maxsize=None)
def _smash(name: str, v_chars: tuple[int, ...]):
    """constructions._smash_product(G, W) of a catalog (group, W): its
    Algebra and super Coalgebra."""
    return _smash_product(_group_tables(name)[0], _sign_rep(name, v_chars))


@lru_cache(maxsize=None)
def _host(name: str, v_chars: tuple[int, ...], u: int) -> tuple[HopfData, Tensor2]:
    """The untwisted host (H, R_u) = modified_supergroup_algebra(G, W, u)
    of a catalog (group, W, u), made by its modification step from the
    one smash product of (G, W): every host of one (G, W), and every H^J
    twisted from them, holds one Algebra, whose facts (generators,
    radical, witnesses, mult text) are made once.  H's Coalgebra keeps
    its structural check, S^2 and S^4, for H and every H^J that keeps
    it (an abelian G with W = 0); with W = 0 it is the smash product's
    own, so the hosts of one group share it whatever their u.  H keeps
    its axioms and the proof that R_u is triangular."""
    return _modify(_group_tables(name)[0], _smash(name, v_chars), u)


@lru_cache(maxsize=None)
def _bicharacters(factors: tuple[int, ...]) -> tuple:
    """alternating_nondegenerate_bicharacters(factors), in its order."""
    return tuple(alternating_nondegenerate_bicharacters(factors))


def _gamma(name: str, subgroup: tuple[int, ...], gamma_index: int):
    """A catalog subgroup A and the datum gamma at gamma_index on it."""
    sub = AbelianSubgroup(_group_tables(name)[0], subgroup)
    return sub, _bicharacters(sub.factors)[gamma_index]


@lru_cache(maxsize=None)
def _twist(name: str, subgroup: tuple[int, ...], gamma_index: int, dim: int):
    """bicharacter_twist(A, gamma, dim) of a catalog (group, A, gamma),
    dim = |G| 2^|W|; each Twist made from it checks it again."""
    return bicharacter_twist(*_gamma(name, subgroup, gamma_index), dim)


@dataclass(frozen=True)
class InstanceSpec:
    """Rebuildable parameters of one atlas instance."""

    name: str
    group: str
    dim: int
    u: int
    v_chars: tuple[int, ...]  # indices into sign_characters; empty means W = 0
    subgroup: tuple[int, ...]
    gamma_index: int  # index into the alternating nondegenerate enumeration


def _square_subgroup_strata(g: FiniteGroup):
    """(elements, gamma list) per abelian square-order subgroup with twists."""
    strata = []
    for elements in g.all_subgroups():
        n = len(elements)
        root = math.isqrt(n)
        if root * root != n:
            continue
        elem_set = set(elements)
        if any(g.table[a][b] != g.table[b][a] for a in elem_set for b in elem_set):
            continue
        sub = AbelianSubgroup(g, elements)
        gammas = _bicharacters(sub.factors)
        if gammas:
            strata.append((elements, gammas))
    return strata


def enumerate_instances(max_order: int) -> list[InstanceSpec]:
    specs = []
    for gname in CATALOG:
        g, chars = _group_tables(gname)
        strata = _square_subgroup_strata(g)
        for u in g.central_involutions():
            v_options: list[tuple[int, ...]] = [()]
            if u != g.identity:
                neg = [i for i, chi in enumerate(chars) if chi[u] == -1]
                v_options += [(i,) for i in neg]
                v_options += [(i, j) for i in neg for j in neg if i <= j]
            for v_chars in v_options:
                dim = g.order * (1 << len(v_chars))
                if dim > max_order:
                    continue
                for a_elements, gammas in strata:
                    for bi in range(len(gammas)):
                        sig_v = "-".join(str(i) for i in v_chars) or "0"
                        sig_a = "-".join(str(a) for a in a_elements)
                        name = f"{gname}_u{u}_V{sig_v}_A{sig_a}_g{bi}"
                        specs.append(
                            InstanceSpec(
                                name=name,
                                group=gname,
                                dim=dim,
                                u=u,
                                v_chars=tuple(v_chars),
                                subgroup=tuple(a_elements),
                                gamma_index=bi,
                            )
                        )
    return specs


def instance_twist(spec: InstanceSpec):
    """The checked constructions.Twist (H, J, R_u) an instance spec
    twists, on the per-process host of its (group, W, u); the septuple is
    validated for every instance."""
    g, _ = _group_tables(spec.group)
    _, gamma = _gamma(spec.group, spec.subgroup, spec.gamma_index)
    septuple = Septuple(
        group=g,
        w=_sign_rep(spec.group, tuple(spec.v_chars)),
        a_elements=spec.subgroup,
        y_basis=(),
        b=None,
        v_beta=gamma,
        v_dim=math.isqrt(len(spec.subgroup)),
        u=spec.u,
    )
    host = _host(spec.group, tuple(spec.v_chars), spec.u)
    j = _twist(spec.group, tuple(spec.subgroup), spec.gamma_index, spec.dim)
    return septuple_twist(septuple, host, j)


def build_instance(spec: InstanceSpec):
    """Rebuild (HopfData, R) from an instance spec."""
    return instance_twist(spec).apply()


def _atomic_write(path: Path, text: str):
    """Write text to path through a temporary file, which is removed if
    the write or the rename fails, so none joins the output tree."""
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _build_and_write(args):
    spec_fields, out_dir = args
    spec = InstanceSpec(**spec_fields)
    h, r = build_instance(spec)
    axioms = h.axioms
    report = analysis_report(h, r)
    out = Path(out_dir)
    _atomic_write(out / f"{spec.name}.hopf.json", hopf_dumps(h))
    _atomic_write(out / f"{spec.name}.r.json", tensor2_dumps(r))
    _atomic_write(out / f"{spec.name}.report.json", dumps(report))
    return spec.name, axioms.ok and report["chevalley"] and theorems_hold(report)


def run_atlas(max_order: int, out_dir, workers: int = 1):
    """Build, verify and dump every catalog instance; returns (ok, manifest).

    The jobs run in a process pool of min(workers, jobs) processes when
    that is above 1, else in this process; the files are the same.  The
    pool's modules (multiprocessing and its kin) are imported only then."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    specs = enumerate_instances(max_order)
    jobs = [(asdict(s), str(out)) for s in specs]
    workers = min(workers, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_build_and_write, jobs))
    else:
        results = [_build_and_write(j) for j in jobs]
    status = dict(results)
    manifest = {
        "max_order": max_order,
        "instances": [
            {
                "name": s.name,
                "kind": "modified" if s.v_chars else "semisimple",
                "group": s.group,
                "dim": s.dim,
                "u": s.u,
                "v_chars": list(s.v_chars),
                "subgroup": list(s.subgroup),
                "gamma_index": s.gamma_index,
                "verified": status[s.name],
            }
            for s in sorted(specs, key=lambda s: s.name)
        ],
    }
    _atomic_write(out / "manifest.json", dumps(manifest))
    return all(status.values()), manifest
