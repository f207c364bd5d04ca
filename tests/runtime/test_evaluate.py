"""The one numerics evaluation: call counts, the memo, the numerics-free walk,
and the background thread it runs on."""

import dataclasses
import gc
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest

import repro.hpf.eval as hpf_eval
from repro.apps import APPS
from repro.cli import main
from repro.hpf.ast import ScalarRef, SeqLoop
from repro.hpf.dsl import I, ProgramBuilder, S
from repro.hpf.eval import EvalError
from repro.report import evaluate_app
from repro.runtime import run_msgpass, run_shmem, run_uniproc
from repro.runtime import phases
from repro.runtime.phases import (
    ProgramAnalysis,
    evaluate,
    start_evaluation,
    walk_phases,
)
from repro.runtime.shmem import ShmemPlan, build_shmem_plan, execute_shmem_plan
from repro.serve.keys import program_fingerprint
from tests.runtime.conftest import jacobi_program

ENTRY_POINTS = ("eval_parallel_assign", "eval_reduce", "eval_scalar_assign")


@pytest.fixture
def eval_calls(monkeypatch):
    """Statements handed to the per-statement evaluator entry points.

    Each entry point is wrapped wherever a ``repro`` module holds it, so
    the count does not depend on how the caller imported it.
    """
    calls = []
    for name in ENTRY_POINTS:
        orig = getattr(hpf_eval, name)

        def counted(stmt, *args, _orig=orig, **kwargs):
            calls.append(stmt)
            return _orig(stmt, *args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "repro":
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, key, counted)
    return calls


def dynamic_statements(body, env=None) -> int:
    """How many statements one execution of ``body`` runs."""
    env = {} if env is None else env
    count = 0
    for stmt in body:
        if isinstance(stmt, SeqLoop):
            for v in range(stmt.lo.eval(env), stmt.hi.eval(env) + 1):
                count += dynamic_statements(stmt.body, {**env, stmt.var: v})
        else:
            count += 1
    return count


class TestOneEvaluation:
    PARAMS = {"n": 64, "iters": 2}

    def test_cli_run_evaluates_each_statement_once(self, eval_calls, capsys):
        argv = ["jacobi", "--nodes", "4"]
        for k, v in self.PARAMS.items():
            argv += ["--param", f"{k}={v}"]
        assert main(argv) == 0
        prog = APPS["jacobi"].program("default", **self.PARAMS)
        assert len(eval_calls) == dynamic_statements(prog.body) > 0

    def test_report_app_evaluates_each_statement_once(self, eval_calls):
        ev = evaluate_app("jacobi", n_nodes=4, **self.PARAMS)
        prog = APPS["jacobi"].program("default", **self.PARAMS)
        assert len(eval_calls) == dynamic_statements(prog.body) > 0
        # all nine backend runs share that one evaluation
        for r in (ev.unopt_dual, ev.opt_dual, ev.msgpass, ev.opt_single):
            for name, arr in r.arrays.items():
                assert np.shares_memory(arr, ev.uni.arrays[name])

    def test_walk_phases_runs_no_numerics(self, eval_calls):
        prog = jacobi_program(n=16, iters=2)
        records = list(walk_phases(ProgramAnalysis(prog, n_procs=4)))
        assert eval_calls == []
        assert [r.index for r in records] == list(
            range(1, dynamic_statements(prog.body) + 1)
        )


class TestMemo:
    def test_repeat_calls_reuse_the_evaluation(self, eval_calls):
        prog = jacobi_program(n=16, iters=2)
        a1, s1 = evaluate(prog)
        n = len(eval_calls)
        a2, s2 = evaluate(prog)
        assert len(eval_calls) == n
        assert all(a1[k] is a2[k] for k in a1)
        assert s1 == s2 and s1 is not s2

    def test_arrays_are_read_only_fortran_float64(self):
        prog = jacobi_program(n=16, iters=1)
        arrays, _ = evaluate(prog)
        for backend in (run_uniproc, run_msgpass, run_shmem):
            result = backend(prog)
            for arr in result.arrays.values():
                with pytest.raises(ValueError):
                    arr[0, 0] = 1.0
        for arr in arrays.values():
            assert arr.dtype == np.float64 and arr.flags.f_contiguous

    def test_entry_dies_with_its_program(self):
        prog = jacobi_program(n=16, iters=1)
        arrays, _ = evaluate(prog)
        ref = weakref.ref(arrays["a"])
        del arrays, prog
        gc.collect()
        assert ref() is None

    def test_memo_is_bounded(self, eval_calls):
        progs = [jacobi_program(n=16, iters=1) for _ in range(phases._MEMO_SIZE + 1)]
        for p in progs:
            evaluate(p)
        n = len(eval_calls)
        evaluate(progs[-1])  # most recent: still memoized
        assert len(eval_calls) == n
        evaluate(progs[0])  # oldest: evicted, evaluated again
        assert len(eval_calls) > n

    def test_memo_does_not_travel_with_the_program(self):
        prog = jacobi_program(n=16, iters=1)
        blob, key = pickle.dumps(prog), program_fingerprint(prog)
        evaluate(prog)
        assert pickle.dumps(prog) == blob
        assert program_fingerprint(prog) == key
        # an unpickled copy is a different object: evaluated afresh, same bits
        copy = pickle.loads(blob)
        a, _ = evaluate(prog)
        b, _ = evaluate(copy)
        assert all(a[k] is not b[k] and np.array_equal(a[k], b[k]) for k in a)


def gated_program(gate: threading.Event, n: int = 16):
    """A jacobi program whose evaluation blocks until ``gate`` is set.

    The gate sits in an initializer, which runs on the evaluation thread
    and nowhere else (the walk, plan and replay never read values).
    """
    def init(shape):
        assert gate.wait(timeout=60)
        return np.arange(np.prod(shape), dtype=float).reshape(shape) % 5

    b = ProgramBuilder("gated")
    a = b.array("a", (n, n), init=init)
    new = b.array("new", (n, n))
    with b.timesteps(2):
        b.forall(1, n - 2, new[S(1, n - 2), I],
                 (a[S(1, n - 2), I - 1] + a[S(1, n - 2), I + 1]) * 0.5)
        b.forall(1, n - 2, a[S(1, n - 2), I], new[S(1, n - 2), I])
    return b.build()


def broken_program(**_params):
    """Walks, plans and replays fine; its numerics raise an EvalError."""
    b = ProgramBuilder("broken")
    u = b.array("u", (16, 16), init=lambda shape: np.ones(shape))
    v = b.array("v", (16, 16))
    b.forall(1, 14, v[S(0, 15), I], u[S(0, 15), I - 1] * ScalarRef("missing"))
    return b.build()


def evaluation_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("repro-evaluate")]


class TestBackgroundEvaluation:
    def test_eval_error_surfaces_from_every_backend(self):
        for backend in (run_shmem, run_msgpass, run_uniproc):
            with pytest.raises(EvalError, match="undefined scalar 'missing'"):
                backend(broken_program())

    def test_eval_error_surfaces_from_cli_main(self, monkeypatch, capsys):
        spec = dataclasses.replace(APPS["jacobi"], build=broken_program)
        monkeypatch.setitem(APPS, "jacobi", spec)
        with pytest.raises(EvalError, match="undefined scalar 'missing'"):
            main(["jacobi", "--nodes", "4"])
        assert evaluation_threads() == []

    def test_switch_interval_restored_after_one_evaluation(self):
        before = sys.getswitchinterval()
        gate = threading.Event()
        evaluation = start_evaluation(gated_program(gate))
        assert sys.getswitchinterval() == pytest.approx(min(before, 0.001))
        gate.set()
        evaluation.result()
        assert sys.getswitchinterval() == before

    def test_switch_interval_restored_after_overlapping_evaluations(self):
        before = sys.getswitchinterval()
        gates = [threading.Event(), threading.Event()]
        progs = [gated_program(g) for g in gates]
        first, second = (start_evaluation(p) for p in progs)
        gates[0].set()
        first.result()
        # the second is still running: the interval stays lowered
        assert sys.getswitchinterval() == pytest.approx(min(before, 0.001))
        gates[1].set()
        second.result()
        assert sys.getswitchinterval() == before

    def test_concurrent_requests_share_one_evaluation_each(self, eval_calls):
        # More requesting threads than cores, a very short switch interval:
        # a lost update to the memo would evaluate a program twice, one to
        # the refcount would leave the interval lowered.
        progs = [jacobi_program(n=16, iters=2, name=f"p{i}") for i in range(3)]
        per_program = len(list(phases._dynamic_statements(progs[0])))
        got = [[] for _ in range(8)]

        def request(k):
            got[k] = [evaluate(progs[(k + j) % 3])[0]["a"] for j in range(3)]

        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=request, args=(k,)) for k in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
            assert not any(w.is_alive() for w in workers)
            assert sys.getswitchinterval() == pytest.approx(1e-5)
        finally:
            sys.setswitchinterval(saved)
        assert len(eval_calls) == 3 * per_program
        arrays = [a for per_worker in got for a in per_worker]
        assert len(arrays) == 24 and len({id(a) for a in arrays}) == 3

    def test_no_evaluation_thread_outlives_cli_main(self, capsys):
        small = ["jacobi", "--nodes", "4", "--param", "n=32", "--param", "iters=2"]
        assert main(small) == 0
        assert evaluation_threads() == []
        assert main(small + ["--fault-partition", "1:100:never",
                             "--fault-retries", "3"]) == 4
        assert "RUN DEGRADED" in capsys.readouterr().out
        assert evaluation_threads() == []

    def test_plan_pickled_mid_evaluation_round_trips(self):
        gate = threading.Event()
        prog = gated_program(gate)
        plan = build_shmem_plan(prog, optimize=True)
        assert plan.arrays is None  # still evaluating: the plan did not block
        threading.Timer(0.05, gate.set).start()
        copy = pickle.loads(pickle.dumps(plan))  # pickling joins
        assert "_pending" not in vars(copy)
        assert set(vars(copy)) == {f.name for f in dataclasses.fields(ShmemPlan)}
        assert execute_shmem_plan(copy).exact_equal(execute_shmem_plan(plan))
        assert execute_shmem_plan(copy).exact_equal(run_shmem(prog, optimize=True))
