"""SPMD runtimes that execute mini-HPF programs on the simulated cluster.

Four backends, matching the paper's evaluation matrix:

``run_shmem(optimize=False)``  transparent shared memory — every remote
    access goes through the default coherence protocol (the *unoptimized*
    bars of Figure 3);
``run_shmem(optimize=True)``   compiler-orchestrated incoherence — the
    planner's call schedules bypass the protocol for analyzed sections,
    with the ``bulk`` / ``rt_elim`` / ``pre`` knobs of Sections 4.2-4.3;
``run_msgpass``                owner-computes message passing (the
    ``pghpf``-MP comparator): exact sections move as point-to-point
    messages, no coherence at all;
``run_uniproc``                single-workstation reference run — the
    speedup denominator.

Numerics are evaluated once per program per process:
:func:`repro.runtime.phases.start_evaluation` runs every statement as
vectorized NumPy against a single backing store and memoizes the read-only
result on the Program, and every backend reports those arrays — so all
backends produce identical numerics by construction.  The evaluation runs
on a background thread, concurrently with the simulation below (which
never reads a value), and a backend joins it only when it builds its
:class:`RunResult`; while any evaluation is in flight the interpreter's
switch interval is lowered to 1 ms.  Execution is then two-pass:
a numerics-free *functional* pass walks the program in order, emitting
per-node access traces; a *timing* pass replays those traces as node
processes against the discrete-event cluster, where the protocol state
machines, version validators and contract checks run for real.  The
protocol's oracles are those version-checked sends, the end-of-run
coherence audit and the differential tests, not the numerics.
"""

from repro.runtime.results import RunResult
from repro.runtime.shmem import run_shmem
from repro.runtime.msgpass import run_msgpass
from repro.runtime.uniproc import run_uniproc

__all__ = ["RunResult", "run_msgpass", "run_shmem", "run_uniproc"]
