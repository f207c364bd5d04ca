"""Uniprocessor reference run — the speedup denominator.

Takes the program's numerics from the shared evaluation
(:func:`repro.runtime.phases.start_evaluation`, joined when the result is
built) and charges the full single-processor
compute-model cost with zero communication, matching the paper's
"speedups are calculated relative to a uniprocessor run".  (The paper's
uniprocessor baselines are *not* cache-blocked, which is where its
superlinear speedups come from; our compute model is cache-less, so
speedup ceilings equal the node count — see DESIGN.md.)
"""

from __future__ import annotations

from repro.hpf.ast import Program
from repro.runtime.phases import ProgramAnalysis, start_evaluation, walk_phases
from repro.runtime.results import RunResult
from repro.tempest.config import ClusterConfig

__all__ = ["run_uniproc"]


def run_uniproc(program: Program, config: ClusterConfig | None = None) -> RunResult:
    config = config or ClusterConfig()
    evaluation = start_evaluation(program)
    # The time is the 1-proc compute model alone: no communication.
    total_ns = 0
    phases = 0
    for rec in walk_phases(ProgramAnalysis(program, n_procs=1)):
        phases += 1
        total_ns += rec.compute_units(0) * config.compute_ns_per_unit
        if rec.kind != "scalar":
            total_ns += config.loop_overhead_ns
    arrays, scalars = evaluation.result()
    return RunResult(
        program.name, "uniproc", total_ns, None, arrays, scalars, {"phases": phases}
    )
