"""Tests of the benchmark itself.

Run from the root of a checkout: python3 -m pytest -q layerbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import wl_cli  # noqa: E402

# counters that must repeat exactly for the same seed
COUNTER_SUFFIXES = (".calls", ".terms", ".cells", ".bytes", ".max_rows", ".exit_mismatches")

# a few ops per workload keep the test short; the traced run uses the same code
PROBE = r"""
import json, shutil, sys
sys.path.insert(0, {here!r})
import run
from program import WORK, load_program
from speed import Speedometer
wl = run.WORKLOADS[{workload!r}]()
work = WORK / "test-{workload}"
shutil.rmtree(work, ignore_errors=True)
work.mkdir(parents=True)
try:
    prog = load_program()
    refs = run.load_refs(wl.name)
    items = wl.setup(prog, {seed}, work, refs)
    # the Z2^4 twist case alone takes seconds
    items = [i for i in items if getattr(getattr(i, "case", None), "kind", "") != "z2e4"][:{n}]
    with Speedometer() as speed:
        outcomes, spans, counts, _ = run.trace_pass(wl, prog, items, refs, work, speed)
    m = run.layer_metrics(wl, items, outcomes, spans, counts)
    print(json.dumps({{k: v for k, (v, _) in m.items()}}))
finally:
    shutil.rmtree(work, ignore_errors=True)
"""


def _probe(workload, seed, n=6):
    code = PROBE.format(here=str(HERE), workload=workload, seed=seed, n=n)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=600, check=True
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["atlas", "twist", "cli"])
def test_counters_repeat_for_the_same_seed(workload):
    first, second = _probe(workload, 7), _probe(workload, 7)
    counters = {
        k for k in first if k.startswith("scalars.") or k.endswith(COUNTER_SUFFIXES)
    }
    assert {k: first[k] for k in counters} == {k: second[k] for k in counters}
    assert first["scalars.mul_calls"] > 0


@pytest.mark.parametrize(
    "code, failed, unexpected",
    [
        (1, True, False),  # the pinned fault
        (2, False, False),  # the fault fixed
        (0, True, True),  # the bad input accepted
        (-1, True, True),  # a timeout
        (3, True, True),
    ],
)
def test_known_fault_only_with_its_pinned_code(monkeypatch, code, failed, unexpected):
    cmd = wl_cli.Command("negidx/0/verify", ("verify", "in/negidx.json"), 2, fault="known", fault_code=1)
    monkeypatch.setattr(wl_cli, "run", lambda *a: wl_cli.Result(code, 0.1, "x", 0.0))
    outcome = run.Cli().execute(None, cmd, {"exit": 2, "digest": None}, Path("."))
    assert (outcome.failed, outcome.unexpected) == (failed, unexpected)


def test_tail_has_ten_samples_above():
    lat = [float(i) for i in range(40)]
    value, pct = run.tail(lat)
    assert sum(x > value for x in lat) == 10
    assert pct == 75.0


def test_compare_refuses_different_kernels(tmp_path):
    result = json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {"x": {"value": 1.0, "unit": "s"}}})
    logs = []
    for i, kernel in enumerate(("pure", "compiled")):
        p = tmp_path / f"{i}.log"
        p.write_text(f'context: {{"kernel": "{kernel}"}}\natlas x 1.0 s\n{result}\n')
        logs.append(str(p))
    assert compare.main([logs[0], "--", logs[1]]) == 2
    assert compare.main([logs[0], "--", logs[0]]) == 0


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "layerbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "cli", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
