#!/usr/bin/env python3
"""Layered benchmark of trihopf: one command, three workloads.

Usage (from the root of a checkout):

    python3 layerbench/run.py --workload atlas|twist|cli --seed N \\
        --seconds S --trace 0|1

Each workload is one closed-loop client in one process, one thread,
workers=1: the next op starts when the previous one has finished.  The
run, and every process it starts, is pinned to one core.  A run sets the
workload up SETUP_REPEATS times (imports, catalog enumeration, input
generation from the seed) and reports the median as setup_s.  It then
runs whole passes over the seeded inputs until --seconds have gone by
and at least MIN_OPS ops have run, checks every op's output against the
stored references in oracle/, and prints the end-to-end metrics.  Times
are normalized to a reference core speed by the probe in speed.py; the
wall-clock figures are printed too.

--trace 1 runs one untraced pass, then one pass under the tracer, and
prints the per-layer metrics instead; the spans are written to
.bench_work/trace-<workload>-<seed>.json.  The last line of standard
output is always the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import wl_atlas  # noqa: E402
import wl_cli  # noqa: E402
import wl_twist  # noqa: E402
from program import WORK, MissingProgram, check_sources, digest, load_program  # noqa: E402
from speed import Speedometer  # noqa: E402

SETUP_REPEATS = 5
# A run measures at least this many ops, so that op_tail_s, the latency
# with ten ops above it, is at least the 83rd percentile.
MIN_OPS = 60
ORACLE = HERE / "oracle"


class OpOutcome:
    """Latency and verdict of one op.

    failed: the output, verdict or exit code differs from the reference,
    or the op raised.  unexpected: it failed, and not as a known fault
    with its pinned exit code.
    """

    def __init__(self, started, seconds, failed, unexpected=False, code=None):
        self.started = started  # perf_counter() at the start
        self.seconds = seconds  # wall time
        self.norm = seconds  # wall time at the reference core speed, see speed.py
        self.failed = failed
        self.unexpected = unexpected
        self.code = code


# --- workloads: setup returns the pass; execute runs one op -----------------


class InProcess:
    """An op that calls the library in this process.

    run() is the timed op; check() then returns (digest, verdict) of its
    outputs, untimed.  The reference holds the expected pair.
    """

    def start_pass(self, work):
        pass

    def execute(self, prog, item, ref, work, trace_dir=None, op=-1):
        t0 = time.perf_counter()
        seconds = None
        try:
            out = self.run(prog, item)
            seconds = time.perf_counter() - t0
            dig, ok = self.check(item, out)
        except Exception as exc:  # an op that raises counts as failed
            print(f"op {self.key(item)} raised {exc!r}", file=sys.stderr)
            if seconds is None:
                seconds = time.perf_counter() - t0
            return OpOutcome(t0, seconds, True, True)
        bad = (dig, ok) != (ref["digest"], ref["ok"])
        return OpOutcome(t0, seconds, bad, bad)


class Atlas(InProcess):
    name = "atlas"

    def setup(self, prog, seed, work, refs):
        return wl_atlas.sample(wl_atlas.population(prog), seed)

    def start_pass(self, work):
        self.out = _fresh(work / "out")

    def run(self, prog, spec):
        return wl_atlas.run(prog, spec, self.out)

    def check(self, spec, ok):
        return wl_atlas.outputs_digest(spec, self.out), ok

    def key(self, spec):
        return wl_atlas.key(spec)


class Twist(InProcess):
    name = "twist"

    def setup(self, prog, seed, work, refs):
        # the references list every case a seed can draw
        cases = [wl_twist.Case.from_obj(ref["case"]) for _, ref in sorted(refs.items())]
        return wl_twist.inputs(prog, wl_twist.sample(cases, seed))

    def run(self, prog, inp):
        return wl_twist.run(prog, inp)

    def check(self, inp, out):
        texts, ok = out
        return digest(*texts), ok

    def key(self, inp):
        return inp.case.key


class Cli:
    name = "cli"

    def setup(self, prog, seed, work, refs):
        return wl_cli.sample(prog, work, seed)

    def start_pass(self, work):
        wl_cli.fresh_out_dir(work)

    def execute(self, prog, cmd, ref, work, trace_dir=None, op=-1):
        trace_file = None if trace_dir is None else trace_dir / f"op{op}.json"
        res = wl_cli.run(cmd, work, trace_file, op)
        bad = res.code != cmd.expect or (cmd.expect == 0 and res.digest != ref["digest"])
        # a known fault is expected only with the exit code it had when pinned
        known = cmd.fault is not None and res.code == cmd.fault_code
        return OpOutcome(res.started, res.seconds, bad, bad and not known, res.code)

    def key(self, cmd):
        return cmd.key


WORKLOADS = {w.name: w for w in (Atlas, Twist, Cli)}


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def load_refs(name):
    return json.loads((ORACLE / f"{name}.json").read_text())


# --- measurement -------------------------------------------------------------


def run_pass(wl, prog, items, refs, work, speed, trace_dir=None, tr=None):
    wl.start_pass(work)
    outcomes = []
    for i, item in enumerate(items):
        if tr is not None:
            tr.op = i
        outcomes.append(wl.execute(prog, item, refs[wl.key(item)], work, trace_dir, i))
    norms = speed.normalized([(o.started, o.started + o.seconds) for o in outcomes])
    for o, norm in zip(outcomes, norms):
        o.norm = norm
    return outcomes


def tail(latencies):
    """Latency with ten samples above it, and its percentile."""
    lat = sorted(latencies)
    n = len(lat)
    if n < 11:
        return lat[-1], 100.0
    return lat[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def context(prog) -> dict:
    return {
        "kernel": prog.scalars.kernel_name(),
        "HOPF_PURE": os.environ.get("HOPF_PURE", ""),
        "HOPF_MAX_DIM": os.environ.get("HOPF_MAX_DIM", ""),
        "max_dim": prog.cli.max_dim(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def end_to_end(wl, outcomes, setup_s):
    lat = [o.norm for o in outcomes]
    t, pct = tail(lat)
    failed = sum(o.failed for o in outcomes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(outcomes) / sum(lat), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (t, "s"),
        "ok_share": ((len(outcomes) - failed) / len(outcomes), "share"),
        "peak_rss_mb": (peak_rss_mb(wl.name == "cli"), "MB"),
    }
    notes = {
        "op_tail_s": f"p{pct:.1f} of n={len(lat)} ops (10 ops above it)",
        "fail_share": f"{failed / len(outcomes):.4f} ({failed} of {len(outcomes)} ops)",
        "wall": "unnormalized ops_per_s {:.4g}, op_p50_s {:.4g}, op_tail_s {:.4g}".format(
            len(outcomes) / sum(o.seconds for o in outcomes),
            statistics.median(o.seconds for o in outcomes),
            tail([o.seconds for o in outcomes])[0],
        ),
    }
    return metrics, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        check_sources()
    except MissingProgram as exc:
        print(f"layerbench: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    refs = load_refs(wl.name)
    work = WORK / f"{wl.name}-{os.getpid()}"
    try:
        return measure(wl, args, refs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(wl, args, refs, work):
    # One core for the run and the processes it starts: the speed probe
    # then runs on the core whose speed the timed work sees.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with Speedometer() as speed:
        setups = []
        for _ in range(SETUP_REPEATS):
            _fresh(work)
            t0 = time.perf_counter()
            prog = load_program()
            items = wl.setup(prog, args.seed, work, refs)
            setups.append((t0, time.perf_counter()))
        setup_s = statistics.median(speed.normalized(setups))
        print("context: " + json.dumps(context(prog), sort_keys=True))

        outcomes = []
        t0 = time.perf_counter()
        while True:
            outcomes += run_pass(wl, prog, items, refs, work, speed)
            if args.trace or (time.perf_counter() - t0 >= args.seconds and len(outcomes) >= MIN_OPS):
                break

        if args.trace:
            metrics, notes = traced(wl, prog, items, refs, work, args, outcomes, speed)
        else:
            metrics, notes = end_to_end(wl, outcomes, setup_s)
    for name, (value, unit) in metrics.items():
        print(f"{wl.name:6s} {name:40s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    for name, note in notes.items():
        if name not in metrics:
            print(f"{wl.name:6s} {name:40s} {note}")
    result = {
        "correct": not any(o.unexpected for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


# --- traced run -------------------------------------------------------------

SELF_S = {
    "triangular.verify_triangular.self_s": ("triangular.verify_triangular",),
    "triangular.verify_quasitriangular.self_s": ("triangular.verify_quasitriangular",),
    "tensor.tensor2_inv.self_s": ("tensor.tensor2_inv",),
    "tensor.elim.self_s": tuple(f"tensor.{n}" for n in tracing.ELIM),
    "tensor.tensor2_mul.self_s": ("tensor.tensor2_mul",),
    "tensor.tensor3_mul.self_s": ("tensor.tensor3_mul",),
    "tensor.embed.self_s": ("tensor.embed13_23_12",),
    "hopf.verify_hopf.self_s": ("hopf.verify_hopf",),
    "hopf.radical.self_s": ("hopf.jacobson_radical",),
    "hopf.chevalley.self_s": ("hopf.is_chevalley",),
    "hopf.antipode_order.self_s": ("hopf.antipode_order",),
    "hopf.algebra_inverse.self_s": ("hopf.algebra_inverse",),
    "triangular.theorems.self_s": ("triangular.check_structure_theorems",),
    "triangular.drinfeld.self_s": ("triangular.drinfeld_element",),
    "triangular.rank.self_s": ("triangular.r_matrix_rank",),
    "constructions.verify_twist.self_s": ("constructions.verify_twist",),
    "constructions.apply_twist.self_s": ("constructions.apply_twist",),
    "constructions.validate_septuple.self_s": ("constructions.validate_septuple",),
    "atlas.build_instance.self_s": ("atlas.build_instance",),
    "atlas.analysis_report.self_s": ("atlas.analysis_report",),
    "serialize.dump.self_s": (
        "serialize.dumps", "serialize.save", "serialize.hopf_to_obj", "serialize.tensor2_to_obj",
        "serialize.scalar_to_obj", "serialize.vec_to_obj", "serialize.mat_to_obj",
    ),
    "serialize.load.self_s": (
        "serialize.load", "serialize.hopf_from_obj", "serialize.tensor2_from_obj",
        "serialize.scalar_from_obj", "serialize.vec_from_obj", "serialize.mat_from_obj",
        "serialize.group_from_file_obj", "serialize.rep_from_file_obj",
        "serialize.bicharacter_from_file_obj", "serialize.septuple_from_file_obj",
    ),
    "cli.main.self_s": ("cli.main",),
}
NOT_BUILDERS = {"constructions.verify_twist", "constructions.apply_twist", "constructions.validate_septuple"}
CALLS = {
    "tensor.tensor2_inv.calls": ("tensor.tensor2_inv",),
    "tensor.elim.calls": tuple(f"tensor.{n}" for n in tracing.ELIM),
}
COUNTS = (
    "tensor.elim.cells",
    "tensor.elim.max_rows",
    "scalars.inv_calls",
    "scalars.mul_calls",
    "tensor.tensor2_mul.terms",
    "tensor.tensor3_mul.terms",
    "serialize.dump.bytes",
    "serialize.load.bytes",
)


def trace_pass(wl, prog, items, refs, work, speed):
    """Run the items once under the tracer.

    Returns (outcomes, spans, counts, startup seconds per cli command).
    For cli the spans come from the child processes.
    """
    trace_dir = _fresh(work / "trace") if wl.name == "cli" else None
    tr = tracing.Tracer()
    tr.install(prog)
    try:
        outcomes = run_pass(wl, prog, items, refs, work, speed, trace_dir, tr)
    finally:
        tr.uninstall()
    spans, counts = tr.spans, tr.counts
    startups = []
    if trace_dir is not None:
        for i, o in enumerate(outcomes):
            path = trace_dir / f"op{i}.json"
            if not path.is_file():  # the child was killed before writing it
                continue
            child_spans, child_counts = tracing.load(path)
            offset = len(spans)
            spans += [[s[0] + offset, s[1] + offset if s[1] >= 0 else -1, *s[2:]] for s in child_spans]
            rows = max(counts["tensor.elim.max_rows"], child_counts["tensor.elim.max_rows"])
            counts.update(child_counts)
            counts["tensor.elim.max_rows"] = rows
            # perf_counter is CLOCK_MONOTONIC, shared by parent and child
            main_t0 = next((s[3] for s in child_spans if s[2] == "cli.main"), None)
            if main_t0 is not None:
                startups.append(main_t0 - o.started)
    return outcomes, spans, counts, startups


def layer_metrics(wl, items, outcomes, spans, counts) -> dict:
    """Per-layer metrics of one traced pass: (value, unit) by name."""
    stats = tracing.span_stats(spans)

    def sum_of(names, field):
        return sum(stats[n][field] for n in names if n in stats)

    m = {}
    for name, names in SELF_S.items():
        m[name] = (sum_of(names, "self_s"), "s")
    builders = [n for n in stats if n.startswith("constructions.") and n not in NOT_BUILDERS]
    m["constructions.build.self_s"] = (sum_of(builders, "self_s"), "s")
    m["groups.self_s"] = (sum_of([n for n in stats if n.startswith("groups.")], "self_s"), "s")
    for name, names in CALLS.items():
        m[name] = (sum_of(names, "calls"), "count")
    for name in COUNTS:
        m[name] = (counts[name], "count")
    m["scalars.cyc_mul_share"] = (counts["scalars.cyc_mul_calls"] / max(counts["scalars.mul_calls"], 1), "share")
    m["scalars.cyc_inv_share"] = (counts["scalars.cyc_inv_calls"] / max(counts["scalars.inv_calls"], 1), "share")
    op_s = sum(o.seconds for o in outcomes)
    m["tensor.tensor2_inv.op_share"] = (sum_of(["tensor.tensor2_inv"], "total_s") / op_s, "share")
    m["cli.exit_mismatches"] = (
        sum(o.code != c.expect for o, c in zip(outcomes, items)) if wl.name == "cli" else 0,
        "count",
    )
    return m


def traced(wl, prog, items, refs, work, args, untraced, speed):
    """One pass under the tracer; returns the per-layer metrics and notes."""
    t0 = time.perf_counter()
    prog.atlas.enumerate_instances(wl_atlas.MAX_ORDER)
    enumerate_s = time.perf_counter() - t0
    outcomes, spans, counts, startups = trace_pass(wl, prog, items, refs, work, speed)
    trace_file = WORK / f"trace-{wl.name}-{args.seed}.json"
    trace_file.write_text(json.dumps({"spans": spans, "counts": counts}))
    m = layer_metrics(wl, items, outcomes, spans, counts)
    m["atlas.enumerate_s"] = (enumerate_s, "s")
    m["cli.startup_s"] = (statistics.median(startups) if startups else 0.0, "s")
    base = len(untraced) / sum(o.norm for o in untraced)
    m["trace.untraced_ops_per_s"] = (base, "1/s")
    m["trace.ops_per_s_ratio"] = ((len(outcomes) / sum(o.norm for o in outcomes)) / base, "ratio")
    notes = {
        "trace.ops_per_s_ratio": f"traced over untraced ops_per_s; base: untraced pass of the same {len(items)} ops, same run",
        "trace.spans": f"{len(spans)} spans written to {trace_file.relative_to(WORK.parent)}",
    }
    untraced += outcomes
    return m, notes


if __name__ == "__main__":
    sys.exit(main())
