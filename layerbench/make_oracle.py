#!/usr/bin/env python3
"""Write the reference outputs every benchmark op is checked against.

Runs every input a seed can draw, once, and stores per input the
digest of its serialized outputs and its verdict or exit code, in
``layerbench/oracle/<workload>.json``.  The references were generated
at the commit that introduced the benchmark; regenerate them only when
a change is meant to alter outputs, and say so in CHANGES.md.

Usage: python3 layerbench/make_oracle.py [atlas] [twist] [cli]
Per-input timings go to standard error.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import wl_atlas  # noqa: E402
import wl_cli  # noqa: E402
import wl_twist  # noqa: E402
from program import WORK, digest, load_program  # noqa: E402

ORACLE = HERE / "oracle"


def _timed(label, fn):
    t0 = time.perf_counter()
    out = fn()
    print(f"{time.perf_counter() - t0:9.3f}s  {label}", file=sys.stderr, flush=True)
    return out


def atlas_refs(prog, work):
    refs = {}
    for spec in wl_atlas.population(prog):
        ok = _timed(spec.name, lambda: wl_atlas.run(prog, spec, work))
        refs[wl_atlas.key(spec)] = {"digest": wl_atlas.outputs_digest(spec, work), "ok": ok}
    return refs


def twist_refs(prog, work):
    refs = {}
    for inp in wl_twist.inputs(prog, wl_twist.population(prog)):
        case = inp.case
        texts, ok = _timed(case.key, lambda: wl_twist.run(prog, inp))
        refs[case.key] = {"digest": digest(*texts), "ok": ok, "case": asdict(case)}
    return refs


def cli_refs(prog, work):
    refs = {}
    for cmds in wl_cli.population(prog, work):
        wl_cli.fresh_out_dir(work)
        for cmd in cmds:
            res = _timed(cmd.key, lambda: wl_cli.run(cmd, work))
            refs[cmd.key] = {"exit": cmd.expect, "digest": res.digest if cmd.expect == 0 else None}
            if res.code not in (cmd.expect, cmd.fault_code):
                raise SystemExit(f"{cmd.key}: exit {res.code}, expected {cmd.expect}")
    return refs


BUILDERS = {"atlas": atlas_refs, "twist": twist_refs, "cli": cli_refs}


def main(argv):
    names = argv or list(BUILDERS)
    prog = load_program()
    ORACLE.mkdir(exist_ok=True)
    for name in names:
        work = WORK / f"oracle-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            refs = BUILDERS[name](prog, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        path = ORACLE / f"{name}.json"
        path.write_text(json.dumps(refs, sort_keys=True, indent=1) + "\n")
        print(f"wrote {len(refs)} references to {path}", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
