"""The traced run: per-layer spans from wrappers around layer entry points.

The wrappers live here, in the benchmark, not in the simulator.  For the
duration of one traced workload, :meth:`Tracer.install` replaces each
function in :data:`LAYERS` with a wrapper that records a span (name,
start, end, parent, run id), and :meth:`Tracer.restore` puts the
originals back.  A module
function is replaced everywhere a ``repro`` module holds it, so
``from x import f`` aliases are traced too.  A layer's self time is its
spans' durations minus the part their child spans cover.

Run as a script, this module is the traced child process::

    python hostbench/tracer.py --workload cli-pde-paper --seed 1 \\
        --work DIR --out result.json --spans spans.json

It runs the workload in-process through ``repro.cli.main`` (a sweep with
``--jobs 1``: wrappers in forked pool workers would lose their spans),
checks its outputs like the untraced runs, and writes the per-layer
aggregates to ``--out`` and every span to ``--spans``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads as wl  # noqa: E402  (sibling module; see sys.path above)

#: (span name, module, attribute) — the public entry point of each layer
LAYERS = (
    ("cli.main", "repro.cli", "main"),
    ("apps.program", "repro.apps", "AppSpec.program"),
    ("hpf.eval", "repro.hpf.eval", "eval_parallel_assign"),
    ("hpf.eval", "repro.hpf.eval", "eval_reduce"),
    ("hpf.eval", "repro.hpf.eval", "eval_scalar_assign"),
    ("core.access", "repro.core.access", "analyze_loop"),
    ("core.access", "repro.core.access", "LoopAccess.instantiate"),
    ("core.plan", "repro.core.planner", "plan_loop"),
    ("core.plan", "repro.core.contract", "check_plan"),
    ("runtime.uniproc", "repro.runtime.uniproc", "run_uniproc"),
    ("runtime.run_shmem", "repro.runtime.shmem", "run_shmem"),
    ("runtime.emit", "repro.runtime.shmem", "build_shmem_plan"),
    ("runtime.execute", "repro.runtime.shmem", "execute_shmem_plan"),
    ("runtime.check", "repro.runtime.results", "RunResult.assert_same_numerics"),
    ("sim.engine", "repro.sim.engine", "Engine.run"),
    ("sim.engine", "repro.sim.engine", "_HeapEngine.run"),
    ("tempest.audit", "repro.tempest.cluster", "Cluster.audit"),
    ("serve.submit", "repro.serve.runner", "ServeSession.submit"),
    ("serve.execute", "repro.serve.runner", "execute_request"),
    ("serve.plan", "repro.serve.runner", "PlanCache.get_or_build"),
    ("serve.key", "repro.serve.keys", "request_key"),
    ("serve.key", "repro.serve.keys", "plan_key"),
    ("serve.store_get", "repro.serve.store", "ResultStore.get"),
    ("serve.store_put", "repro.serve.store", "ResultStore.put"),
)

#: spans whose return value (a RunResult) is kept for its simulated outputs
CAPTURE = "runtime.execute"


class Tracer:
    """In-memory span recorder: one list, one parent stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, start, end, parent, run]
        self.results: list[tuple[str, object]] = []
        self.run = "main"
        self.phase = "main"
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.spans)
            saved_run = tracer.run
            if name == "serve.submit":
                tracer.run = f"{tracer.phase}:{_cell_id(args[1])}"
            span = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.run]
            tracer.spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                tracer.run = saved_run
            if name == CAPTURE:
                tracer.results.append((span[4], out))
            return out

        return traced

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap every layer entry point; ``missing`` names any not found."""
        for name, module_name, attr in LAYERS:
            try:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    self._set(cls, meth, self.wrap(name, orig))
                else:
                    orig = getattr(module, attr)
                    wrapper = self.wrap(name, orig)
                    for mod_name, mod in list(sys.modules.items()):
                        if mod_name.split(".")[0] != "repro" or mod is None:
                            continue
                        for key, value in list(vars(mod).items()):
                            if value is orig:
                                self._set(mod, key, wrapper)
            except (ImportError, AttributeError, KeyError):
                self.missing.add(f"{module_name}.{attr}")

    def _set(self, target, attr: str, value) -> None:
        self._undo.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def restore(self) -> None:
        while self._undo:
            target, attr, orig = self._undo.pop()
            setattr(target, attr, orig)

    # ------------------------------------------------------------------ #
    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def dump(self, path: str | Path) -> None:
        keys = ("name", "start", "end", "parent", "run")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def _cell_id(request) -> str:
    from repro.serve.matrix import cell_label

    return f"{request.app}|{cell_label(request)}"


# --------------------------------------------------------------------- #
# per-layer aggregation
# --------------------------------------------------------------------- #
def layer_metrics(tracer: Tracer, cold: str, warm: str | None) -> dict:
    """Per-layer metrics from the spans of phase ``cold`` (and ``warm``).

    ``cold`` is the phase holding the computing pass (the CLI call, or
    the cold sweep); ``warm`` the traced warm sweep, whose keying and
    store reads are the serve layer's warm-path cost.
    """
    selfs = tracer.self_times()
    spans = tracer.spans

    def in_phase(run, phase):
        return run == phase or run.startswith(phase + ":")

    def total(name, phase=cold, inclusive=False):
        return sum((s[2] - s[1]) if inclusive else selfs[i]
                   for i, s in enumerate(spans)
                   if s[0] == name and in_phase(s[4], phase))

    def count(name, phase=cold):
        return sum(1 for s in spans if s[0] == name and in_phase(s[4], phase))

    cells = [(run, r) for run, r in tracer.results if in_phase(run, cold)]
    results = [r for _run, r in cells]
    stats = [r.stats for r in results if r.stats is not None]
    events = sum(s.events_dispatched for s in stats)
    engine_s = total("sim.engine")

    # Root spans are the in-process workload calls (repro.cli.main); the
    # coverage is the share of their wall their direct children account for.
    roots = {i for i, s in enumerate(spans) if s[3] < 0 and in_phase(s[4], cold)}
    root_wall = sum(spans[i][2] - spans[i][1] for i in roots)
    covered = sum(s[2] - s[1] for s in spans if s[3] in roots)

    # Sweep cells: replay seconds of drop / profile cells over their pairs.
    replay = {}
    for s in spans:
        if s[0] == "runtime.execute" and in_phase(s[4], cold):
            replay[s[4]] = replay.get(s[4], 0.0) + (s[2] - s[1])

    def split(token):
        on = sum(v for run, v in replay.items() if token in run)
        off = sum(v for run, v in replay.items() if token not in run)
        return on, off

    drop_on, drop_off = split("drop=")
    prof_on, prof_off = split(" profile")
    retransmits = sum(
        r.stats.reliability_summary()["retransmits"]
        for run, r in cells if "drop=" in run
    )
    plans = {i for i, s in enumerate(spans)
             if s[0] == "serve.plan" and in_phase(s[4], cold)}
    built = sum(1 for s in spans if s[0] == "runtime.emit" and s[3] in plans)
    return {
        "apps.program_s": total("apps.program"),
        "hpf.eval_s": total("hpf.eval"),
        "hpf.eval_calls": count("hpf.eval"),
        "core.access_s": total("core.access"),
        "core.plan_s": total("core.plan"),
        "runtime.uniproc_s": total("runtime.uniproc"),
        "runtime.emit_s": total("runtime.emit"),
        "runtime.execute_self_s": total("runtime.execute"),
        "runtime.check_s": total("runtime.check"),
        "sim.engine_s": engine_s,
        "sim.events": events,
        "sim.host_ns_per_event": engine_s * 1e9 / events if events else 0.0,
        "sim.max_queue_depth": max((s.max_queue_depth for s in stats), default=0),
        "tempest.audit_s": total("tempest.audit"),
        "tempest.transport_ratio": drop_on / drop_off if drop_on and drop_off else 0.0,
        "tempest.retransmits": retransmits,
        "tempest.sim_elapsed_ms": sum(r.elapsed_ns for r in results) / 1e6,
        "tempest.messages": sum(s.total_messages for s in stats),
        "tempest.misses": sum(s.total_misses for s in stats),
        "tempest.wire_bytes": sum(s.total_bytes for s in stats),
        "obs.overhead_ratio": prof_on / prof_off if prof_on and prof_off else 0.0,
        "obs.self_s": prof_on - prof_off if prof_on and prof_off else 0.0,
        "serve.key_s": total("serve.key", warm) if warm else 0.0,
        "serve.store_get_s": total("serve.store_get", warm) if warm else 0.0,
        "serve.store_put_s": total("serve.store_put"),
        "serve.plan_build_s": total("serve.plan", inclusive=True),
        "serve.plans_built": built,
        "serve.plan_hits": len(plans) - built,
        "serve.cell_s": total("serve.execute", inclusive=True),
        "trace.coverage": covered / root_wall if root_wall else 0.0,
    }


# --------------------------------------------------------------------- #
# the traced child process
# --------------------------------------------------------------------- #
def _call_main(argv: list[str]) -> tuple[int, str]:
    """``repro.cli.main(argv)`` in-process, stdout captured."""
    import repro.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = repro.cli.main(argv)
        except SystemExit as e:  # argparse errors
            code = e.code if isinstance(e.code, int) else 2
    return code, buf.getvalue()


def trace_cli(tracer, workload, references, key) -> dict:
    tracer.phase = tracer.run = "cli"
    code, stdout = _call_main(workload.argv(0))
    failures = wl.check_cli_run(code, stdout, references.get(key))
    return {"failures": failures, "outputs": wl.parse_cli_output(stdout)}


def trace_sweep(tracer, workload, seed, work: Path) -> dict:
    """Cold sweep traced, then alternating untraced / traced warm sweeps."""
    cache = work / "cache"

    def sweep(phase: str, traced: bool):
        if traced:
            tracer.install()
        tracer.phase = tracer.run = phase
        path = work / f"{phase}.json"
        t0 = time.perf_counter()
        code, _ = _call_main(
            workload.argv(seed, jobs=1, cache_dir=str(cache), json_path=str(path))
        )
        wall = time.perf_counter() - t0
        if traced:
            tracer.restore()
        cells, stats = wl.load_sweep_json(path) if path.exists() else ([], {})
        return code, cells, stats, wall

    code, cold, _, _ = sweep("cold", True)
    walls = {True: [], False: []}
    warm = []
    for i, traced in enumerate((False, True, False, True)):
        phase = "warm" if i == 1 else f"warm{i}"
        wcode, cells, stats, wall = sweep(phase, traced)
        walls[traced].append(wall)
        code = code or wcode
        if i == 1:
            warm, warm_stats = cells, stats
    failures = [f"exit code {code}"] if code else []
    failures += wl.check_sweep_cold(cold, None, workload.n_cells())[0]
    failures += wl.check_sweep_warm(cold, warm, warm_stats.get("hit_rate", 0.0))[0]
    return {
        "failures": failures,
        "rows": wl.result_rows(cold),
        "warm_overhead_ratio": (statistics.median(walls[True])
                                / statistics.median(walls[False])),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--references", default=str(wl.REFERENCES))
    p.add_argument("--work", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans", required=True)
    args = p.parse_args(argv)
    workload = wl.get_workload(args.workload, args.smoke)
    references = wl.load_references(args.references)
    key = wl.reference_key(workload, args.smoke)
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)

    import repro.cli  # noqa: F401  (load every layer before wrapping)
    import repro.serve.cli  # noqa: F401

    tracer = Tracer()
    if workload.kind == "cli":
        tracer.install()
        try:
            report = trace_cli(tracer, workload, references, key)
        finally:
            tracer.restore()
        report["layers"] = layer_metrics(tracer, "cli", None)
    else:
        report = trace_sweep(tracer, workload, args.seed, work)
        report["layers"] = layer_metrics(tracer, "cold", "warm")
    report["missing_entry_points"] = sorted(tracer.missing)
    tracer.dump(args.spans)
    with open(args.out, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
