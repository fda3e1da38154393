#!/usr/bin/env python3
"""Compare the compiled arithmetic kernel against the pure-Python one.

Micro section: raw kernel ops, both modules imported side by side.
End-to-end section: a fixed verification workload run in a subprocess
with HOPF_PURE=1 and, when it is built, again with the compiled kernel,
since the kernel is bound at import time.

Usage: python benchmarks/bench_kernels.py [--skip-e2e]
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

# import trihopf from this checkout, not from an installed copy
SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))


def bench(fn, *args, repeat=5):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def micro_suite(kernel, n=20000):
    pairs = [((i % 97) - 48, (i % 31) + 1) for i in range(n)]
    rats = [kernel.rat_norm(a, b) for a, b in pairs]

    def run_norm():
        for a, b in pairs:
            kernel.rat_norm(a, b)

    def run_addmul():
        acc = (0, 1)
        for r in rats:
            acc = kernel.rat_add(acc, r)
            kernel.rat_mul(r, r)
        return acc

    from trihopf.scalars import _reduction_rows, euler_phi

    red = _reduction_rows(12)
    phi = euler_phi(12)
    vecs = [
        tuple(kernel.rat_norm(i + j, (j % 5) + 1) for j in range(phi))
        for i in range(200)
    ]

    def run_cyc():
        for u in vecs:
            for v in vecs[:50]:
                kernel.cyc_mul_reduce(u, v, red)

    return {
        "rat_norm x20k": bench(run_norm),
        "rat_add/mul x20k": bench(run_addmul),
        "cyc_mul_reduce(12) x10k": bench(run_cyc),
    }


WORKLOAD = r"""
import time
from trihopf.scalars import kernel_name
from trihopf.groups import FiniteGroup, GroupRep, sign_characters, \
    alternating_nondegenerate_bicharacters, half_bicharacter
from trihopf.constructions import modified_supergroup_algebra, group_algebra, \
    build_bicharacter_twist, apply_twist, verify_twist
from trihopf.hopf import verify_hopf, jacobson_radical, is_chevalley
from trihopf.triangular import verify_triangular, check_structure_theorems

t0 = time.perf_counter()
g = FiniteGroup.direct_product(*[FiniteGroup.cyclic(2)] * 3)
chars = sign_characters(g)
neg = [i for i, c in enumerate(chars) if c[1] == -1]
v = GroupRep.from_sign_characters(g, [chars[neg[0]], chars[neg[1]]])
h, ru = modified_supergroup_algebra(g, v, u=1)   # dim 32
assert verify_hopf(h).ok
assert verify_triangular(h, ru)
assert is_chevalley(h)

z3z3 = FiniteGroup.direct_product(FiniteGroup.cyclic(3), FiniteGroup.cyclic(3))
hk = group_algebra(z3z3)
sub = z3z3.abelian_subgroup(range(9))
gamma = alternating_nondegenerate_bicharacters((3, 3))[0]
j = build_bicharacter_twist(sub, half_bicharacter(gamma))
assert verify_twist(hk, j)
h2, _ = apply_twist(hk, j)
assert verify_hopf(h2).ok
print(f"{kernel_name()}: {time.perf_counter() - t0:.2f}s")
"""


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--skip-e2e", action="store_true")
    args = parser.parse_args()

    from trihopf import _pykernel

    try:
        from trihopf import _ckernel
    except ImportError:
        _ckernel = None
        print("compiled kernel not built; both sections limited to pure")

    print("== micro benchmarks (best of 5) ==")
    pure = micro_suite(_pykernel)
    comp = micro_suite(_ckernel) if _ckernel else {}
    for name, t_pure in pure.items():
        if comp:
            t_c = comp[name]
            print(f"{name:28s} pure {t_pure*1e3:8.1f} ms   compiled {t_c*1e3:8.1f} ms   x{t_pure/t_c:.1f}")
        else:
            print(f"{name:28s} pure {t_pure*1e3:8.1f} ms")

    if args.skip_e2e:
        return
    print("== end-to-end workload (dim-32 axiom suite + Z3xZ3 twist) ==")
    # without the compiled kernel a second run would measure pure again
    envs = [{"HOPF_PURE": "1"}, {}] if _ckernel else [{"HOPF_PURE": "1"}]
    for env_extra in envs:
        env = dict(os.environ)
        env.pop("HOPF_PURE", None)
        env.update(env_extra)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", WORKLOAD], env=env, check=True,
            capture_output=True, text=True,
        )
        print(out.stdout, end="")


if __name__ == "__main__":
    main()
