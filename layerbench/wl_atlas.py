"""Workload ``atlas``: a seeded sample of the dimension-16 atlas catalog.

One op is one catalog instance, run through the atlas command's own
per-instance job, ``atlas._build_and_write``: build_instance,
verify_hopf, analysis_report, then serialize and write the three files.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import asdict

from program import digest

MAX_ORDER = 16  # the atlas command's default catalog bound
# share of each stratum drawn per pass; every stratum gives at least one
FRACTION = 1 / 8
SUFFIXES = ("hopf", "r", "report")  # the files written per instance


def population(prog):
    return prog.atlas.enumerate_instances(MAX_ORDER)


def stratum(spec):
    """Instances of one stratum cost about the same.

    The key is the group, the output dimension, the order of the
    twisting subgroup A, whether u lies in A, and u.  Measured at the
    commit that introduced the benchmark, whether u lies in A alone
    changed an instance's cost up to tenfold.
    """
    return (spec.group, spec.dim, len(spec.subgroup), spec.u in spec.subgroup, spec.u)


def sample(specs, seed: int):
    """Seeded systematic sample of FRACTION of every stratum.

    Each stratum gives the same number of instances for every seed,
    spread evenly over its members in name order from a seeded offset, so
    the cost of a pass barely depends on the seed.
    """
    strata = defaultdict(list)
    for s in specs:
        strata[stratum(s)].append(s)
    rng = random.Random(seed)
    picked = []
    for key in sorted(strata):
        members = sorted(strata[key], key=lambda s: s.name)
        count = max(1, round(FRACTION * len(members)))
        step = len(members) / count
        offset = rng.random() * step
        picked += [members[int(offset + i * step)] for i in range(count)]
    rng.shuffle(picked)
    return picked


def run(prog, spec, out_dir) -> bool:
    """One op; returns the verified flag the atlas command records."""
    _, ok = prog.atlas._build_and_write((asdict(spec), str(out_dir)))
    return ok


def outputs_digest(spec, out_dir) -> str:
    """Digest of the three files run() wrote for spec."""
    return digest(*((out_dir / f"{spec.name}.{suffix}.json").read_text() for suffix in SUFFIXES))


def key(spec) -> str:
    return spec.name
