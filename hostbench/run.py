#!/usr/bin/env python3
"""Layered host-time benchmark of the simulator's user-facing commands.

Usage (from the root of a checkout)::

    python3 hostbench/run.py --workload cli-jacobi-paper --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` runs the workload's command as a user would, in fresh
subprocesses, and reports the end-to-end metrics (wall, warm wall,
set-up, peak RSS).  ``--trace 1`` runs it once untraced and once traced
in-process (see ``tracer.py``) and reports the per-layer metrics.  Every
run's outputs are checked; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the
run (host provenance, every sample, quartiles) is written under
``.hostbench_out/runs/``.  ``--smoke`` runs tiny versions of each
workload; ``--record`` rewrites the workload's entry in
``references.json`` from one fresh run.  See ``hostbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl

#: end-to-end metrics (untraced runs) -> unit
END_TO_END = {
    "wall_s": "s",
    "warm_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (traced runs) -> unit; 0 marks a layer the workload
#: does not exercise
PER_LAYER = {
    "apps.program_s": "s",
    "cli.import_s": "s",
    "hpf.eval_s": "s",
    "hpf.eval_calls": "count",
    "core.access_s": "s",
    "core.plan_s": "s",
    "runtime.uniproc_s": "s",
    "runtime.emit_s": "s",
    "runtime.execute_self_s": "s",
    "runtime.check_s": "s",
    "sim.engine_s": "s",
    "sim.events": "count",
    "sim.host_ns_per_event": "ns",
    "sim.max_queue_depth": "count",
    "tempest.audit_s": "s",
    "tempest.transport_ratio": "ratio",
    "tempest.retransmits": "count",
    "tempest.sim_elapsed_ms": "ms",
    "tempest.messages": "count",
    "tempest.misses": "count",
    "tempest.wire_bytes": "bytes",
    "obs.overhead_ratio": "ratio",
    "obs.self_s": "s",
    "serve.key_s": "s",
    "serve.store_get_s": "s",
    "serve.store_put_s": "s",
    "serve.store_bytes": "bytes",
    "serve.plan_build_s": "s",
    "serve.plans_built": "count",
    "serve.plan_hits": "count",
    "serve.pool_efficiency": "ratio",
    "serve.warm_hit_rate": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
    "failed_frac": "ratio",
}

SETUP_STARTS = 9        # interpreter starts per set-up measurement
WARM_SWEEPS = 8         # warm re-runs per cold sweep (each ~1 s)
BUDGET_S = 165.0        # a run must end within 180 s

_PROBE = """\
import importlib, json, sys, time
modules, programs = json.loads(sys.argv[1])
t0 = time.perf_counter()
for m in modules:
    importlib.import_module(m)
t1 = time.perf_counter()
from repro.apps import APPS
for app, scale, params in programs:
    APPS[app].program(scale, **params)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "program_s": t2 - t1}))
"""


# --------------------------------------------------------------------- #
# processes
# --------------------------------------------------------------------- #
@dataclass
class Proc:
    returncode: int
    stdout: str
    wall_s: float
    rss_mb: float


class Budget:
    def __init__(self, seconds: float) -> None:
        self.deadline = time.perf_counter() + seconds

    def left(self) -> float:
        return self.deadline - time.perf_counter()


def run_python(args: list[str], cwd: Path, budget: Budget) -> Proc:
    """Run ``python <args>`` with the simulator importable; wall + peak RSS.

    The child leads its own process group so a timeout kills its pool
    workers too.  ``wait4`` reports the peak RSS of the child and of the
    descendants it waited for, i.e. of the largest process of the command.
    """
    cwd.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(wl.SRC))
    out_path = cwd / "stdout.txt"
    with open(out_path, "w") as out, open(cwd / "stderr.txt", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                                stdout=out, stderr=err, start_new_session=True)
        timer = threading.Timer(max(1.0, budget.left()), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            wall = time.perf_counter() - t0
            timer.cancel()
            _kill_group(proc.pid)       # stragglers, if any
            proc.returncode = 0         # reaped above; stop Popen waiting
    return Proc(os.waitstatus_to_exitcode(status), out_path.read_text(),
                wall, usage.ru_maxrss / 1024)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def setup_probe(workload: wl.Workload, cwd: Path, budget: Budget) -> tuple[float, dict]:
    """One fresh interpreter: import the entry modules, build the Programs."""
    modules = ["repro.cli"] + (["repro.serve.cli"] if workload.kind == "sweep" else [])
    arg = json.dumps([modules, workload.programs()])
    proc = run_python(["-c", _PROBE, arg], cwd, budget)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: exit {proc.returncode}")
    return proc.wall_s, json.loads(proc.stdout.splitlines()[-1])


# --------------------------------------------------------------------- #
# units: one CLI run, or one sweep (whose units are its cells)
# --------------------------------------------------------------------- #
@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    samples: list[dict] = field(default_factory=list)

    def add(self, label: str, units: int, bad: int, failures: list[str],
            proc: Proc | None = None) -> None:
        self.attempted += units
        self.failed += bad
        self.failures += [f"{label}: {f}" for f in failures]
        if proc is not None:
            self.samples.append({"unit": label, "wall_s": proc.wall_s,
                                 "rss_mb": proc.rss_mb, "exit": proc.returncode,
                                 "failures": failures})


class Runner:
    """Runs and checks the units of one workload inside ``work``."""

    def __init__(self, workload: wl.Workload, seed: int, smoke: bool,
                 references_path: str, work: Path, budget: Budget) -> None:
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.references_path = references_path
        self.references = wl.load_references(references_path)
        self.work = work
        self.budget = budget
        self.tally = Tally()
        self._n = 0

    def fresh_dir(self, label: str) -> Path:
        self._n += 1
        return self.work / f"{self._n:02d}-{label}"

    def cli(self, label: str, cwd: Path) -> Proc:
        proc = run_python(["-m", "repro", *self.workload.argv(self.seed)],
                          cwd, self.budget)
        ref = self.references.get(wl.reference_key(self.workload, self.smoke))
        failures = wl.check_cli_run(proc.returncode, proc.stdout, ref)
        self.tally.add(label, 1, 1 if failures else 0, failures, proc)
        return proc

    def sweep(self, label: str, cache: Path) -> tuple[Proc, list, dict]:
        """One ``repro sweep`` over ``cache``; its process and JSON output."""
        json_path = cache.parent / f"{label}.json"
        argv = self.workload.argv(self.seed, cache_dir=str(cache),
                                  json_path=str(json_path))
        proc = run_python(["-m", "repro", *argv], cache.parent / label,
                          self.budget)
        cells, stats = ([], {})
        if json_path.exists():
            cells, stats = wl.load_sweep_json(json_path)
        return proc, cells, stats

    def _count(self, label, proc, failures, bad) -> None:
        n = self.workload.n_cells()
        if proc.returncode not in (0, 4):   # 4: degraded, rows still written
            failures = [f"exit code {proc.returncode}", *failures]
            bad = set(range(n))
        self.tally.add(label, n, len(bad), failures, proc)

    def sweep_pair(self, warm_runs: int) -> tuple[Proc, list[Proc], list, dict]:
        """Cold sweep into an empty cache, then ``warm_runs`` warm re-runs.

        The cold cells must equal the recorded rows for the recorded seed,
        or the first run of their seed on this source tree otherwise.
        """
        cache = self.fresh_dir("sweep") / "cache"
        cold_proc, cold, _ = self.sweep("cold", cache)
        expected, record_to = wl.expected_sweep_rows(
            self.references, self.workload, self.smoke, self.seed,
            wl.source_digest())
        failures, bad = wl.check_sweep_cold(cold, expected,
                                            self.workload.n_cells())
        self._count("cold sweep", cold_proc, failures, bad)
        if record_to is not None and not failures and cold_proc.returncode == 0:
            wl.record_rows(record_to, wl.result_rows(cold))
        serve = {"store_bytes": _dir_bytes(cache), "warm_hit_rate": 0.0}
        warm_procs = []
        for i in range(warm_runs):
            proc, warm, stats = self.sweep(f"warm{i}", cache)
            serve["warm_hit_rate"] = stats.get("hit_rate", 0.0)
            failures, bad = wl.check_sweep_warm(cold, warm, serve["warm_hit_rate"])
            self._count(f"warm sweep {i}", proc, failures, bad)
            warm_procs.append(proc)
        return cold_proc, warm_procs, cold, serve


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


# --------------------------------------------------------------------- #
# the two kinds of run
# --------------------------------------------------------------------- #
def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Untraced: set-up starts, then cold/warm pairs for ``seconds``."""
    w = runner.workload
    setup = [setup_probe(w, runner.fresh_dir("setup"), runner.budget)[0]
             for _ in range(SETUP_STARTS)]
    walls, warm_walls, peaks = [], [], []
    t_end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        if w.kind == "cli":
            cwd = runner.fresh_dir("cli")
            cold = runner.cli("cold", cwd)
            warm = [runner.cli("warm", cwd)]
        else:
            cold, warm, _, _ = runner.sweep_pair(WARM_SWEEPS)
        walls.append(cold.wall_s)
        warm_walls.append(statistics.median(p.wall_s for p in warm))
        peaks.append(max(p.rss_mb for p in [cold, *warm]))
        now = time.perf_counter()
        pair = now - t0
        if now + pair > t_end or runner.budget.left() < 1.5 * pair:
            break
    stats = {
        "wall_s": _quartiles(walls),
        "warm_wall_s": _quartiles(warm_walls),
        "setup_s": _quartiles(setup),
        "peak_rss_mb": _quartiles(peaks),
    }
    return {name: s["median"] for name, s in stats.items()}, stats


def traced(runner: Runner, spans_path: Path) -> tuple[dict, dict]:
    """One untraced and one traced execution; per-layer metrics."""
    w = runner.workload
    probes = [setup_probe(w, runner.fresh_dir("setup"), runner.budget)[1]
              for _ in range(3)]
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
    if w.kind == "cli":
        untraced = runner.cli("untraced", runner.fresh_dir("cli"))
        reference_outputs = wl.parse_cli_output(untraced.stdout)
        base_wall = untraced.wall_s
    else:
        cold, _, cold_cells, serve = runner.sweep_pair(1)
        base_wall = cold.wall_s
    work = runner.fresh_dir("traced")
    args = ["--workload", w.name, "--seed", str(runner.seed),
            "--references", str(runner.references_path),
            "--work", str(work), "--out", str(work / "report.json"),
            "--spans", str(spans_path)] + (["--smoke"] if runner.smoke else [])
    proc = run_python([str(wl.HERE / "tracer.py"), *args], work, runner.budget)
    report_path = work / "report.json"
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    units = 1 if w.kind == "cli" else w.n_cells()
    if proc.returncode != 0 or report is None:
        runner.tally.add("traced", units, units,
                         [f"traced run exit {proc.returncode}"], proc)
        report = {"layers": {}, "missing_entry_points": []}
    else:
        layers = report["layers"]
        failures = list(report["failures"])
        if w.kind == "cli":
            if report["outputs"] != reference_outputs:
                failures.append("traced outputs differ from the untraced run's")
            metrics["trace.overhead_ratio"] = proc.wall_s / base_wall
        else:
            if report["rows"] != wl.result_rows(cold_cells):
                failures.append("traced rows differ from the untraced run's")
            metrics["trace.overhead_ratio"] = report["warm_overhead_ratio"]
            metrics["serve.store_bytes"] = serve["store_bytes"]
            metrics["serve.warm_hit_rate"] = serve["warm_hit_rate"]
            metrics["serve.pool_efficiency"] = (layers["serve.cell_s"]
                                                / (w.jobs * base_wall))
        runner.tally.add("traced", units, units if failures else 0, failures, proc)
        metrics.update({k: v for k, v in layers.items() if k in PER_LAYER})
    t = runner.tally
    metrics["failed_frac"] = t.failed / t.attempted
    return metrics, {"missing_entry_points": report["missing_entry_points"],
                     "untraced_wall_s": base_wall, "traced_wall_s": proc.wall_s}


# --------------------------------------------------------------------- #
# provenance and main
# --------------------------------------------------------------------- #
def provenance() -> dict:
    """Host facts recorded with every run, so sets from different hosts
    are never compared blindly."""
    import numpy

    sys.path.insert(0, str(wl.ROOT))
    from benchmarks.bench_engine_speed import calibration_s

    commit = None
    if (wl.ROOT / ".git").exists() and shutil.which("git"):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT,
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit,
        "source_digest": wl.source_digest(),
        "calibration_s": calibration_s(),
    }


def record_references(workload, smoke, seed, references_path, work) -> int:
    """Rewrite ``workload``'s reference from one fresh run of its command."""
    runner = Runner(workload, seed, smoke, references_path, work, Budget(BUDGET_S))
    references = runner.references
    key = wl.reference_key(workload, smoke)
    if workload.kind == "cli":
        proc = runner.cli("record", runner.fresh_dir("cli"))
        if proc.returncode != 0:
            print(f"record: command failed (exit {proc.returncode})", file=sys.stderr)
            return 1
        references[key] = wl.parse_cli_output(proc.stdout)
    else:
        proc, cells, _ = runner.sweep("record", runner.fresh_dir("sweep") / "cache")
        if proc.returncode != 0 or not all(c["completed"] for c in cells):
            print(f"record: sweep failed (exit {proc.returncode})", file=sys.stderr)
            return 1
        references[key] = {"seed": seed, "rows": wl.result_rows(cells)}
    with open(references_path, "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {key} into {references_path}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs: every code path, seconds per run")
    p.add_argument("--references", default=str(wl.REFERENCES))
    p.add_argument("--record", action="store_true",
                   help="rewrite this workload's reference from one run")
    args = p.parse_args(argv)

    missing = [str(path) for path in (wl.SRC / "repro" / "cli.py",
                                      wl.ROOT / "benchmarks" / "bench_engine_speed.py")
               if not path.exists()]
    if missing:
        print(f"hostbench: not a checkout of the simulator (missing "
              f"{', '.join(missing)})", file=sys.stderr)
        return 2

    workload = wl.get_workload(args.workload, args.smoke)
    tag = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
           f"{'-smoke' if args.smoke else ''}")
    work = wl.OUT / "work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    if args.record:
        code = record_references(workload, args.smoke, args.seed,
                                 args.references, work)
        shutil.rmtree(work, ignore_errors=True)
        return code
    prov = provenance()
    runner = Runner(workload, args.seed, args.smoke, args.references,
                    work, Budget(BUDGET_S))
    if args.trace:
        spans = wl.OUT / "spans" / f"{tag}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        metrics, detail = traced(runner, spans)
        units = PER_LAYER
    else:
        metrics, detail = measure(runner, args.seconds)
        units = END_TO_END
    tally = runner.tally
    correct = tally.failed == 0 and not tally.failures
    if correct:     # a failed run keeps its outputs and caches for diagnosis
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "seconds": args.seconds, "provenance": prov,
        "metrics": metrics, "detail": detail, "attempted": tally.attempted,
        "failed": tally.failed, "failures": tally.failures,
        "samples": tally.samples,
    }
    runs = wl.OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{tag}.json").write_text(json.dumps(record, indent=1))
    for line in tally.failures:
        print(f"FAILED {line}", file=sys.stderr)
    for name in detail.get("missing_entry_points", []):
        print(f"warning: layer entry point {name} not found; its spans "
              "are missing", file=sys.stderr)
    print(f"hostbench {tag}: calibration {prov['calibration_s']:.3f}s, "
          f"nproc {prov['nproc']}, python {prov['python']}, numpy "
          f"{prov['numpy']}, commit {prov['commit'] or prov['source_digest']}",
          file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
