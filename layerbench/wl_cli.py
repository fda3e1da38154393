"""Workload ``cli``: one fresh ``python -m trihopf.cli`` process per command.

A pass is a fixed list of slots.  The seed picks each slot's input
among inputs of the same size and kind, so every seed runs the same
mix of commands.  Later commands read the files earlier ones wrote in
the same pass, as a user's session would.  Expected exit codes follow
the exit-code contract (0 ok, 1 verification failure, 2 malformed
input, 3 unsupported stratum) and are fixed here, before any run.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from program import SRC, digest

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 170


@dataclass(frozen=True)
class Command:
    key: str
    argv: tuple[str, ...]
    expect: int
    outputs: tuple[str, ...] = ()
    fault: str | None = None  # a known defect that makes the exit code differ
    fault_code: int | None = None  # the exit code the defect gives, pinned


@dataclass(frozen=True)
class Result:
    code: int
    seconds: float
    digest: str
    started: float  # perf_counter() just before the process was spawned


def _groups(prog):
    fg = prog.groups.FiniteGroup
    cat = prog.atlas.catalog_group
    z2, z4, z8 = fg.cyclic(2), fg.cyclic(4), fg.cyclic(8)
    out = {name: cat(name) for name in ("Z4", "Z2xZ2", "Z2xZ2xZ2", "Z4xZ2", "D4", "Q8", "Z16")}
    out.update(
        {
            "Z4xZ4": fg.direct_product(z4, z4),
            "Z8xZ2": fg.direct_product(z8, z2),
            "Z4xZ2xZ2": fg.direct_product(z4, z2, z2),
            "Z2xZ2xZ2xZ2": fg.direct_product(z2, z2, z2, z2),
            "D4xZ2": fg.direct_product(cat("D4"), z2),
            "Q8xZ2": fg.direct_product(cat("Q8"), z2),
        }
    )
    return out


ORDER16 = ("Z16", "Z4xZ4", "Z8xZ2", "Z4xZ2xZ2", "Z2xZ2xZ2xZ2", "D4xZ2", "Q8xZ2")
ORDER4 = ("Z4", "Z2xZ2")
ORDER8 = ("Z2xZ2xZ2", "Z4xZ2", "D4", "Q8")


def choices(prog, groups, specs) -> dict:
    """Every pick a seed can make, per slot; picks are JSON-able tuples."""
    chars = {n: prog.groups.sign_characters(groups[n]) for n in ORDER4 + ("Z2xZ2xZ2",)}

    def pairs(n):
        k = len(chars[n])
        return [(i, j) for i in range(k) for j in range(i, k)]

    def neg(n, u):
        return [i for i, chi in enumerate(chars[n]) if chi[u] == -1]

    g8 = "Z2xZ2xZ2"
    mod32 = [
        (u, (i, j))
        for u in groups[g8].central_involutions(include_identity=False)
        for i in neg(g8, u)
        for j in neg(g8, u)
        if i <= j
    ]
    mod8 = [
        (n, u, i, g)
        for n in ORDER4
        for u in groups[n].central_involutions(include_identity=False)
        for i in neg(n, u)
        for g in range(groups[n].order)
        if groups[n].table[g][g] == groups[n].identity
    ]
    sept = [name for name, s in specs.items() if s.group in ORDER8 and len(s.subgroup) == 4]
    return {
        "ga16": [(n,) for n in ORDER16],
        "ext5": [(5,)],
        "super16": [(n, p) for n in ORDER4 for p in pairs(n)],
        "mod32": mod32,
        "mod8": mod8,
        "sept": [(n,) for n in sept],
        "corrupt": [()],
        "badjson": [()],
        "stratum": [()],
        "ext9": [(9,)],
        "negidx": [()],
        "zeroden": [()],
    }


SLOTS = (
    "ga16", "ext5", "super16", "mod32", "mod8", "sept",
    "corrupt", "badjson", "stratum", "ext9", "negidx", "zeroden",
)


def _write(work: Path, rel: str, obj) -> str:
    path = work / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return rel


def _sweedler_dump(prog) -> dict:
    grp = prog.groups.FiniteGroup.cyclic(2)
    rep = prog.groups.GroupRep.from_sign_characters(grp, [(1, -1)])
    h, _ = prog.constructions.modified_supergroup_algebra(grp, rep, 1)
    return prog.serialize.hopf_to_obj(h)


def slot_commands(prog, groups, specs, work: Path, slot: str, pick) -> list[Command]:
    """Write the slot's input files under work/in and return its commands."""
    label = "-".join(str(x) for x in _flat(pick)) or "0"
    tag = f"{slot}/{label}"
    cli = lambda *a: tuple(str(x) for x in a)  # noqa: E731
    if slot == "ga16":
        inp = _write(work, f"in/{pick[0]}.group.json", groups[pick[0]].to_obj())
        return [
            Command(f"{tag}/build", cli("build", inp, "--kind", "group-algebra", "-o", "out/ga.json"), 0, ("out/ga.json",)),
            Command(f"{tag}/verify", cli("verify", "out/ga.json"), 0),
        ]
    if slot in ("ext5", "ext9"):
        inp = _write(work, f"in/ext{pick[0]}.json", {"n": pick[0]})
        expect = 0 if pick[0] <= 5 else 2  # 2**9 exceeds the default HOPF_MAX_DIM
        return [Command(f"{tag}/build", cli("build", inp, "--kind", "exterior", "-o", f"out/ext{pick[0]}.json"), expect, (f"out/ext{pick[0]}.json",))]
    if slot == "super16":
        name, (i, j) = pick
        chars = prog.groups.sign_characters(groups[name])
        rep = prog.groups.GroupRep.from_sign_characters(groups[name], [chars[i], chars[j]])
        inp = _write(work, f"in/super-{label}.json", rep.to_obj())
        return [
            Command(f"{tag}/build", cli("build", inp, "--kind", "supergroup", "-o", "out/super.json"), 0, ("out/super.json",)),
            Command(f"{tag}/verify", cli("verify", "out/super.json", "--super"), 0),
        ]
    if slot in ("mod32", "mod8"):
        if slot == "mod32":
            name, u, idx, g = "Z2xZ2xZ2", pick[0], list(pick[1]), None
        else:
            name, u, i, g = pick
            idx = [i]
        chars = prog.groups.sign_characters(groups[name])
        rep = prog.groups.GroupRep.from_sign_characters(groups[name], [chars[k] for k in idx])
        inp = _write(work, f"in/{slot}-{label}.json", {"rep": rep.to_obj(), "u": u})
        dump, r = f"out/{slot}.json", f"out/{slot}.r.json"
        cmds = [Command(f"{tag}/build", cli("build", inp, "--kind", "modified-supergroup", "-o", dump), 0, (dump, r))]
        if slot == "mod32":
            return cmds + [Command(f"{tag}/verify", cli("verify", dump, "--r", r), 0)]
        u_index = g * (1 << len(idx))  # smash basis: index = g * 2**dim(V) + mask
        return cmds + [
            Command(f"{tag}/analyze", cli("analyze", dump, "--r", r), 0),
            Command(f"{tag}/modify", cli("modify", dump, "--r", r, "--u", u_index, "-o", "out/mod.r.json"), 0, ("out/mod.r.json",)),
        ]
    if slot == "sept":
        spec = specs[pick[0]]
        grp = groups[spec.group]
        chars = prog.groups.sign_characters(grp)
        rep = prog.groups.GroupRep.from_sign_characters(grp, [chars[k] for k in spec.v_chars])
        sub = prog.groups.AbelianSubgroup(grp, spec.subgroup)
        gamma = prog.groups.alternating_nondegenerate_bicharacters(sub.factors)[spec.gamma_index]
        obj = {
            "group": grp.to_obj(),
            "rep": {k: v for k, v in rep.to_obj().items() if k != "group"},
            "subgroup": list(spec.subgroup),
            "bicharacter": gamma.to_obj(),
            "v_dim": math.isqrt(len(spec.subgroup)),
            "u": spec.u,
        }
        inp = _write(work, f"in/sept-{label}.json", obj)
        return [Command(f"{tag}/validate", cli("septuple", "validate", inp), 0)]
    if slot == "badjson":
        inp = _write(work, "in/bad.json", "{nope")
        return [Command(f"{tag}/build", cli("build", inp, "--kind", "group-algebra", "-o", "out/bad.json"), 2)]
    if slot == "stratum":
        z2 = prog.groups.FiniteGroup.cyclic(2).to_obj()
        inp = _write(
            work,
            "in/stratum.json",
            {
                "group": z2,
                "rep": {"degree": 1, "matrices": [[[1]], [[-1]]]},
                "subgroup": [0],
                "y_basis": [[1]],
                "b": [[1]],
                "bicharacter": {"factors": [1], "values": [[0]]},
                "v_dim": 1,
                "u": 1,
            },
        )
        return [Command(f"{tag}/build", cli("build", inp, "--kind", "septuple-pipeline", "-o", "out/stratum.json"), 3)]
    # corrupted copies of the Sweedler dump, all for the verify command
    dump = _sweedler_dump(prog)
    if slot == "corrupt":
        zero = {"n": 1, "c": [["0", "1"]]}
        dump["antipode"] = [[zero] * dump["dim"] for _ in range(dump["dim"])]
        expect, fault, fault_code = 1, None, None
    elif slot == "negidx":
        dump["mult"][0][:3] = [-1, -2, -3]
        expect, fault, fault_code = 2, "mult entry with negative indices loads through Python negative indexing", 1
    elif slot == "zeroden":
        dump["counit"][0] = {"n": 1, "c": [["1", "0"]]}
        expect, fault, fault_code = 2, "denominator 0 escapes as an uncaught ZeroDivisionError", 1
    else:
        raise KeyError(slot)
    inp = _write(work, f"in/{slot}.json", dump)
    return [Command(f"{tag}/verify", cli("verify", inp), expect, fault=fault, fault_code=fault_code)]


def _flat(pick):
    for x in pick:
        if isinstance(x, (tuple, list)):
            yield from _flat(x)
        else:
            yield x


def _catalog(prog):
    return _groups(prog), {s.name: s for s in prog.atlas.enumerate_instances(16)}


def sample(prog, work: Path, seed: int) -> list[Command]:
    """One pass: every slot once, each with a seeded pick."""
    rng = random.Random(seed)
    groups, specs = _catalog(prog)
    options = choices(prog, groups, specs)
    cmds = []
    for slot in SLOTS:
        cmds += slot_commands(prog, groups, specs, work, slot, rng.choice(options[slot]))
    return cmds


def population(prog, work: Path):
    """Every pick of every slot, as command chains that run in order."""
    groups, specs = _catalog(prog)
    for slot, picks in choices(prog, groups, specs).items():
        for pick in picks:
            yield slot_commands(prog, groups, specs, work, slot, pick)


def fresh_out_dir(work: Path) -> Path:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    return out


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run(cmd: Command, work: Path, trace_file: Path | None = None, op: int = -1) -> Result:
    """Run one command in a fresh interpreter; digest stdout and outputs."""
    if trace_file is None:
        argv = [sys.executable, "-m", "trihopf.cli", *cmd.argv]
    else:
        argv = [sys.executable, str(HERE / "cli_child.py"), str(trace_file), str(op), *cmd.argv]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=work, env=child_env(), capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:  # the child has been killed and reaped
        return Result(-1, time.perf_counter() - t0, "<timeout>", t0)
    seconds = time.perf_counter() - t0
    texts = [proc.stdout.decode()]
    for rel in cmd.outputs:
        path = work / rel
        texts.append(path.read_text() if path.is_file() else "<missing>")
    return Result(proc.returncode, seconds, digest(*texts), t0)
