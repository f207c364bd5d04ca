"""Tests of the host-time benchmark itself.

Each output check is broken on purpose and must fail; every metric must
be validly named and carry a unit; the smoke mode of every workload must
run end to end in seconds.  Run from the repository root::

    python -m pytest hostbench/tests -q
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as hostbench  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

from repro.serve import RunRequest, ServeSession  # noqa: E402
from repro.serve.matrix import cell_label  # noqa: E402
from repro.tempest.config import ClusterConfig  # noqa: E402
from repro.tempest.faults import FaultConfig, PartitionScenario  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMOKE_JACOBI = wl.SMOKE["cli-jacobi-paper"]


def _repro(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "repro", *args], cwd=ROOT,
                          env=env, capture_output=True, text=True)


def _bench(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "hostbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _cells(served) -> list[dict]:
    """``repro sweep --json`` cells for served results."""
    return [{
        "app": sr.request.app, "cell": cell_label(sr.request), "key": sr.key,
        "elapsed_ms": sr.result.elapsed_ms, "comm_ms": sr.result.comm_ms,
        "misses_per_node": sr.result.misses_per_node,
        "completed": sr.result.completed, "source": sr.source,
        "where": sr.where,
    } for sr in served]


def _smoke_sweep_cells() -> list[dict]:
    ref = wl.load_references()["sweep-fault-matrix/smoke"]
    return [dict(row, key=f"k{i}", source="computed", where="inline")
            for i, row in enumerate(ref["rows"])]


# --------------------------------------------------------------------- #
# every check can fail
# --------------------------------------------------------------------- #
def test_cli_check_fails_on_a_perturbed_reference():
    proc = _repro(SMOKE_JACOBI.argv(1))
    ref = wl.load_references()["cli-jacobi-paper/smoke"]
    assert wl.check_cli_run(proc.returncode, proc.stdout, ref) == []
    for field in wl.CLI_FIELDS:
        bad = dict(ref, **{field: ref[field] + "1"})
        failures = wl.check_cli_run(proc.returncode, proc.stdout, bad)
        assert len(failures) == 1 and failures[0].startswith(field)


def test_benchmark_reports_incorrect_on_a_perturbed_reference(tmp_path):
    refs = wl.load_references()
    refs["cli-jacobi-paper/smoke"]["messages"] = "1"
    path = tmp_path / "refs.json"
    path.write_text(json.dumps(refs))
    proc = _bench(["--workload", "cli-jacobi-paper", "--seed", "1",
                   "--seconds", "1", "--trace", "0", "--smoke",
                   "--references", str(path)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 2
    assert "messages" in proc.stderr


def test_sweep_check_fails_on_a_perturbed_reference():
    cells = _smoke_sweep_cells()
    expected = wl.result_rows(cells)
    assert wl.check_sweep_cold(cells, expected, len(cells)) == ([], set())
    bad = copy.deepcopy(expected)
    bad[2]["elapsed_ms"] += 0.001
    failures, cells_bad = wl.check_sweep_cold(cells, bad, len(cells))
    assert cells_bad == {2} and "differ from the reference" in failures[0]
    failures, cells_bad = wl.check_sweep_cold(cells[:-1], expected, len(cells))
    assert failures and cells_bad == set(range(len(cells)))


def test_degraded_cell_fails_the_sweep_check():
    never_heals = FaultConfig(partitions=(
        PartitionScenario("cut", frozenset({1}), 0, None),))
    requests = [
        RunRequest(app="jacobi", params={"n": 64, "iters": 2},
                   config=ClusterConfig(n_nodes=4, faults=faults))
        for faults in (FaultConfig(), never_heals)
    ]
    with ServeSession() as sess:
        cells = _cells(sess.run_batch(requests))
    assert [c["completed"] for c in cells] == [True, False]
    failures, bad = wl.check_sweep_cold(cells, None, 2)
    assert bad == {1} and "degraded" in failures[0]


def test_degraded_cli_run_fails_the_cli_check():
    proc = _repro(SMOKE_JACOBI.argv(1) + ["--fault-partition", "1:0:never"])
    assert proc.returncode == 4
    ref = wl.load_references()["cli-jacobi-paper/smoke"]
    failures = wl.check_cli_run(proc.returncode, proc.stdout, ref)
    assert "exit code 4" in failures
    assert "no clean coherence-audit line" in failures


def test_warm_row_differing_from_cold_fails():
    cold = _smoke_sweep_cells()
    warm = [dict(c, source="cache") for c in cold]
    assert wl.check_sweep_warm(cold, warm, 1.0) == ([], set())
    warm[1]["misses_per_node"] += 1
    failures, bad = wl.check_sweep_warm(cold, warm, 1.0)
    assert bad == {1} and "warm row" in failures[0]
    failures, bad = wl.check_sweep_warm(cold, cold, 0.75)
    assert "hit rate" in failures[0] and bad == set(range(len(cold)))


def test_other_seeds_compare_against_the_sets_first_run(tmp_path, monkeypatch):
    monkeypatch.setattr(wl, "OUT", tmp_path)
    w = wl.SMOKE["sweep-fault-matrix"]
    refs = wl.load_references()
    expected, record_to = wl.expected_sweep_rows(refs, w, True, 1, "d")
    assert expected == refs["sweep-fault-matrix/smoke"]["rows"]
    assert record_to is None
    expected, record_to = wl.expected_sweep_rows(refs, w, True, 7, "d")
    assert expected is None and record_to is not None
    wl.record_rows(record_to, [{"row": 1}])
    assert wl.expected_sweep_rows(refs, w, True, 7, "d") == ([{"row": 1}], None)


# --------------------------------------------------------------------- #
# metric names and units
# --------------------------------------------------------------------- #
def test_every_metric_is_validly_named_with_a_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == hostbench.END_TO_END
    assert layers == hostbench.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS)
    for name, unit in {**e2e, **layers}.items():
        assert NAME.match(name), name
        assert UNIT.match(unit), (name, unit)
    assert len(set(e2e) | set(layers)) == len(e2e) + len(layers)


def test_tracer_finds_every_layer_and_restores_it():
    import repro.cli  # noqa: F401
    import repro.runtime.phases as phases
    import repro.serve.cli  # noqa: F401
    from repro.sim.engine import Engine

    orig_eval, orig_run = phases.eval_parallel_assign, Engine.__dict__["run"]
    t = tracer.Tracer()
    t.install()
    try:
        assert t.missing == set()
        assert phases.eval_parallel_assign is not orig_eval
        assert Engine.__dict__["run"] is not orig_run
    finally:
        t.restore()
    assert phases.eval_parallel_assign is orig_eval
    assert Engine.__dict__["run"] is orig_run


def test_self_time_subtracts_direct_children():
    t = tracer.Tracer()
    t.spans = [["a", 0.0, 10.0, -1, "x"], ["b", 1.0, 4.0, 0, "x"],
               ["c", 2.0, 3.0, 1, "x"], ["d", 5.0, 9.0, 0, "x"]]
    assert t.self_times() == [3.0, 2.0, 1.0, 4.0]


# --------------------------------------------------------------------- #
# smoke mode: every workload end to end, in seconds
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_smoke_run(workload, trace):
    t0 = time.perf_counter()
    proc = _bench(["--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - t0 < 60
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    units = hostbench.PER_LAYER if trace else hostbench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(["--workload", "cli-pde-paper", "--seed", "1",
                   "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
