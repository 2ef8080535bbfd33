"""Tests of the benchmark harness itself, on a tiny workload.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import ast
import json
import re
import subprocess
import sys
from dataclasses import dataclass

import numpy as np
import pytest

import harness
import spec
from conftest import BENCH
from repro.sn.turbulence import make_turbulent_box
from workloads import WORKLOADS, Workload

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _tiny_ic(seed: int):
    return make_turbulent_box(n_per_side=6, side=60.0, mach=2.0, seed=seed)


TINY = Workload("tiny", _tiny_ic, timed_steps=3)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_ic_is_a_function_of_the_seed(name):
    wl = WORKLOADS[name]
    a, b, c = wl.make_ic(3), wl.make_ic(3), wl.make_ic(4)
    assert a.pack().tobytes() == b.pack().tobytes()
    assert a.pack().tobytes() != c.pack().tobytes()


def test_metric_names_and_units_are_well_formed():
    names = [m[0] for m in spec.END_TO_END] + [m[0] for m in spec.PER_LAYER]
    names += list(spec.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    units = [m[1] for m in spec.END_TO_END] + [m[1] for m in spec.PER_LAYER]
    assert all(UNIT.match(u) for u in units)
    assert all(0 < m[3] <= 0.25 for m in spec.END_TO_END)
    assert max(spec.END_TO_END, key=lambda m: m[3])[0] == "setup_s"


def test_committed_manifest_matches_spec():
    committed = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert committed == spec.manifest()


def test_reference_kernel_imports_nothing_from_the_program():
    tree = ast.parse((BENCH / "refkernel.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported <= {"__future__", "statistics", "time", "numpy"}
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import refkernel; "
        "k = refkernel.RefKernel(); assert k.measure() > 0; "
        "assert not [m for m in sys.modules if m.split('.')[0] == 'repro']"
    )
    subprocess.run([sys.executable, "-c", code, str(BENCH)], check=True)


def test_tiny_run_passes_every_check_and_reports_the_spec_metrics():
    res = harness.measure(TINY, seed=1, seconds=10, trace=False)
    assert res.correct, res.gates
    assert res.failed == 0 and res.attempted > 0
    assert sorted(res.metrics) == sorted(m[0] for m in spec.END_TO_END)
    assert all(v > 0 for v, _unit in res.metrics.values())
    traced = harness.measure(TINY, seed=1, seconds=10, trace=True)
    assert traced.correct, traced.gates
    assert sorted(traced.metrics) == sorted(m[0] for m in spec.PER_LAYER)


def test_broken_gravity_gate_is_reported_failed(monkeypatch):
    monkeypatch.setattr(harness, "GRAV_ERR_P99_MAX", 0.0)
    res = harness.measure(TINY, seed=1, seconds=10, trace=False)
    gates = {name: ok for name, ok, _ in res.gates}
    assert gates["grav_rel_err_p99"] is False
    assert not res.correct
    assert res.failed > 0
    assert res.metrics["success_frac"][0] < 1.0


@dataclass(frozen=True)
class _PoisonedWorkload(Workload):
    """Leaves a NaN in the state after its third step."""

    def make_sim(self, ps, seed):
        sim = super().make_sim(ps, seed)
        run = sim.run

        def poisoned(n):
            run(n)
            if sim.step_count == 3:
                sim.ps.u[0] = np.nan

        sim.run = poisoned
        return sim


def test_non_finite_state_fails_its_step():
    wl = _PoisonedWorkload("poisoned", _tiny_ic, timed_steps=3)
    res = harness.measure(wl, seed=1, seconds=10, trace=False)
    gates = {name: (ok, detail) for name, ok, detail in res.gates}
    ok, detail = gates["main_state"]
    assert not ok and "non-finite u" in detail
    assert not res.correct and res.failed > 0
