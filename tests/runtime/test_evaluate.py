"""The one numerics evaluation: call counts, the memo, the numerics-free walk."""

import gc
import pickle
import sys
import weakref

import numpy as np
import pytest

import repro.hpf.eval as hpf_eval
from repro.apps import APPS
from repro.cli import main
from repro.hpf.ast import SeqLoop
from repro.report import evaluate_app
from repro.runtime import run_msgpass, run_shmem, run_uniproc
from repro.runtime import phases
from repro.runtime.phases import ProgramAnalysis, evaluate, walk_phases
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
