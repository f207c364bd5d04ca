"""Program walking: the numerics-free phase walk and the one evaluation.

A *phase* is one dynamic execution of a parallel statement (a parallel
loop instance, a reduction, or a replicated scalar update).  Sequential
loops unroll here; their variables feed the environment against which
symbolic bounds and access sets instantiate.

Two consumers share one traversal of the dynamic statement sequence:

:func:`walk_phases`
    yields one :class:`PhaseRecord` per phase for trace generation and
    the compute model.  Loop bounds and access sets depend only on
    sequential-loop variables — never on scalar or array values — so the
    walk runs no numerics at all.
:func:`start_evaluation` / :func:`evaluate`
    run the program's numerics (vectorized NumPy, in program order) and
    produce the final arrays and scalars.  Evaluation is global and
    independent of partitioning, so every backend takes its numerics from
    here; the result is memoized per :class:`Program` object, which makes
    a program's numerics run once per process however many backends (or
    node counts) replay it.

The two are independent — the walk never reads a value, the evaluation
never touches the simulator — so they run side by side: the first
request for a program's numerics starts a background thread, and the
backends walk, plan and replay while it runs (NumPy releases the GIL
inside its kernels).  A backend joins the evaluation only when it builds
its :class:`~repro.runtime.results.RunResult`.  While any evaluation is in
flight the interpreter's switch interval is lowered to 1 ms, so the
evaluation thread wins the GIL back between kernels promptly; the last
evaluation to finish restores it.
"""

from __future__ import annotations

import sys
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.access import LoopAccess, LoopInstance, analyze_loop
from repro.hpf.ast import (
    ParallelAssign,
    Program,
    Reduce,
    ScalarAssign,
    SeqLoop,
    Stmt,
)
from repro.hpf.eval import eval_parallel_assign, eval_reduce, eval_scalar_assign

__all__ = [
    "Evaluation",
    "PhaseRecord",
    "ProgramAnalysis",
    "apply_initializers",
    "evaluate",
    "start_evaluation",
    "walk_phases",
]

#: compute-model weight of a replicated scalar statement (work units)
SCALAR_UNITS = 20


def apply_initializers(program: Program, arrays: dict[str, np.ndarray]) -> None:
    """Fill arrays from the program's initializers (untimed input loading)."""
    for name, fn in program.initializers.items():
        data = np.asarray(fn(program.arrays[name].shape), dtype=np.float64)
        if data.shape != program.arrays[name].shape:
            raise ValueError(
                f"initializer for {name!r} produced shape {data.shape}, "
                f"expected {program.arrays[name].shape}"
            )
        arrays[name][...] = data


@dataclass
class PhaseRecord:
    """One dynamic phase, ready for trace generation."""

    index: int                      # 1-based phase number (the version clock)
    stmt: Stmt
    env: dict[str, int]
    inst: LoopInstance | None       # None for ScalarAssign

    @property
    def kind(self) -> str:
        if isinstance(self.stmt, ParallelAssign):
            return "loop"
        if isinstance(self.stmt, Reduce):
            return "reduce"
        return "scalar"

    def compute_units(self, proc: int, default_inner: int = 1) -> int:
        """Work units this processor contributes to the phase."""
        if isinstance(self.stmt, ScalarAssign):
            return SCALAR_UNITS
        assert self.inst is not None
        weight = self.stmt.rhs.op_count() + 1
        if isinstance(self.stmt, ParallelAssign):
            elements = sum(sec.count() for _a, sec in self.inst.writes[proc])
        else:  # Reduce: dominated by the largest section it scans
            secs = [sec.count() for _a, sec in self.inst.reads[proc]]
            elements = max(secs) if secs else 0
        return elements * weight


class ProgramAnalysis:
    """Per-statement :class:`LoopAccess` cache for one program."""

    def __init__(self, program: Program, n_procs: int) -> None:
        self.program = program
        self.n_procs = n_procs
        self._access: dict[int, LoopAccess] = {}

    def access(self, stmt: ParallelAssign | Reduce) -> LoopAccess:
        key = id(stmt)
        hit = self._access.get(key)
        if hit is None:
            hit = analyze_loop(stmt, self.program, self.n_procs)
            self._access[key] = hit
        return hit


def _dynamic_statements(program: Program) -> Iterator[tuple[Stmt, dict[str, int]]]:
    """Each dynamic statement in program order, with the live environment.

    The environment dict is updated in place as sequential loops advance;
    consumers that keep it must copy it.
    """

    def visit(body, env: dict[str, int]):
        for stmt in body:
            if isinstance(stmt, SeqLoop):
                lo = stmt.lo.eval(env)
                hi = stmt.hi.eval(env)
                for v in range(lo, hi + 1):
                    env[stmt.var] = v
                    yield from visit(stmt.body, env)
                env.pop(stmt.var, None)
            elif isinstance(stmt, (ParallelAssign, Reduce, ScalarAssign)):
                yield stmt, env
            else:  # pragma: no cover
                raise TypeError(f"unknown statement {stmt!r}")

    yield from visit(program.body, {})


def walk_phases(analysis: ProgramAnalysis) -> Iterator[PhaseRecord]:
    """Yield one record per phase of ``analysis.program``; no numerics."""
    for index, (stmt, env) in enumerate(_dynamic_statements(analysis.program), 1):
        inst = (
            None
            if isinstance(stmt, ScalarAssign)
            else analysis.access(stmt).instantiate(env)
        )
        yield PhaseRecord(index, stmt, dict(env), inst)


# --------------------------------------------------------------------- #
# the one numerics evaluation
# --------------------------------------------------------------------- #
#: how many programs' numerics stay memoized at once
_MEMO_SIZE = 4
#: GIL switch interval (s) while any evaluation runs in the background.
#: NumPy drops the GIL inside its kernels, but between two kernels the
#: evaluation thread must win the GIL back from a main thread that is
#: busy replaying; at CPython's default 5 ms it loses most of that race.
_EVAL_SWITCH_INTERVAL = 0.001

#: guards the memo and the switch-interval refcount; reentrant because a
#: weakref callback (a Program dying) may fire while it is held
_lock = threading.RLock()
#: id(program) -> (weakref to the program, its Evaluation).  Weak: an
#: entry dies with its Program, so the memo never keeps numerics alive on
#: its own; it lives outside the Program, so it never travels when a
#: Program is pickled or content-keyed.
_memo: OrderedDict[int, tuple[weakref.ref, "Evaluation"]] = OrderedDict()
_running = 0
_saved_interval = 0.0


def _forget(key: int, ref: weakref.ref) -> None:
    with _lock:
        entry = _memo.get(key)
        if entry is not None and entry[0] is ref:
            del _memo[key]


def _hold_switch_interval() -> None:
    global _running, _saved_interval
    with _lock:
        if _running == 0:
            _saved_interval = sys.getswitchinterval()
            sys.setswitchinterval(min(_saved_interval, _EVAL_SWITCH_INTERVAL))
        _running += 1


def _release_switch_interval() -> None:
    global _running
    with _lock:
        _running -= 1
        if _running == 0:
            sys.setswitchinterval(_saved_interval)


def _evaluate_now(program: Program) -> tuple[dict[str, np.ndarray], dict[str, float]]:
    arrays = {
        decl.name: np.zeros(decl.shape, order="F") for decl in program.arrays.values()
    }
    apply_initializers(program, arrays)
    scalars = dict(program.scalars)
    for stmt, env in _dynamic_statements(program):
        if isinstance(stmt, ParallelAssign):
            eval_parallel_assign(stmt, arrays, scalars, env)
        elif isinstance(stmt, Reduce):
            eval_reduce(stmt, arrays, scalars, env)
        else:
            eval_scalar_assign(stmt, scalars)
    for arr in arrays.values():
        arr.flags.writeable = False
    return arrays, scalars


class Evaluation:
    """One program's numerics, computed on a background daemon thread.

    Created (and started) by :func:`start_evaluation`.  :meth:`result`
    joins the thread — the thread itself, so no evaluation thread outlives
    a joined result — and returns ``(arrays, scalars)`` or re-raises
    whatever the evaluation raised, with its type and message.
    """

    def __init__(self, program: Program, key: int) -> None:
        self._key = key
        self._arrays: dict[str, np.ndarray] = {}
        self._scalars: dict[str, float] = {}
        self._error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run,
            args=(program,),
            name=f"repro-evaluate-{program.name}",
            daemon=True,
        )

    def _run(self, program: Program) -> None:
        try:
            self._arrays, self._scalars = _evaluate_now(program)
        except BaseException as exc:  # re-raised by result(), in the joiner
            self._error = exc
            with _lock:  # a failure is not memoized
                entry = _memo.get(self._key)
                if entry is not None and entry[1] is self:
                    del _memo[self._key]
        finally:
            _release_switch_interval()

    def join(self) -> None:
        """Wait for the evaluation thread to finish; never raises."""
        self._thread.join()

    def result(self) -> tuple[dict[str, np.ndarray], dict[str, float]]:
        """Join, then the final ``(arrays, scalars)`` (see :func:`evaluate`)."""
        self.join()
        if self._error is not None:
            raise self._error
        return dict(self._arrays), dict(self._scalars)


def start_evaluation(program: Program) -> Evaluation:
    """The program's :class:`Evaluation`, started if it is not memoized.

    Returns at once: the numerics run on their own thread while the caller
    walks, plans and replays the program, which never reads a value.
    While any evaluation is in flight the interpreter's switch interval is
    lowered to 1 ms (refcounted; the last one to finish restores it).
    """
    key = id(program)
    with _lock:
        entry = _memo.get(key)
        if entry is not None and entry[0]() is program:
            _memo.move_to_end(key)
            return entry[1]
        evaluation = Evaluation(program, key)
        ref = weakref.ref(program, lambda r, key=key: _forget(key, r))
        _memo[key] = (ref, evaluation)
        while len(_memo) > _MEMO_SIZE:
            _memo.popitem(last=False)
        _hold_switch_interval()  # released by the thread as it finishes
        evaluation._thread.start()
    return evaluation


def evaluate(program: Program) -> tuple[dict[str, np.ndarray], dict[str, float]]:
    """The program's final numerics: ``(arrays, scalars)``.

    Arrays are Fortran-order float64 — the layout of
    ``GlobalArray.data`` — filled by the initializers, then updated by
    every dynamic statement in program order.  They come back read-only
    and are shared between callers (they are the memo's own arrays, never
    a copy); the scalars dict is the caller's own.  Repeat calls with the
    same Program object return the memoized result without evaluating;
    this call joins :func:`start_evaluation`'s thread.
    """
    return start_evaluation(program).result()
