"""End-to-end fuzz: random mini-HPF programs through every backend.

Hypothesis generates small random programs — random array shapes, random
stencil offsets and coefficients, random loop bounds, optional reductions
and time-step loops — and asserts the system-level invariants:

* every backend (unopt, optimized with every knob, msgpass) computes
  numerics identical to the uniprocessor reference;
* the shared evaluation (``repro.runtime.phases.evaluate``) matches a
  per-element reference interpreter — bit for bit on arrays no reduction
  feeds.  Once every backend takes its numerics from that one evaluation,
  the cross-backend check alone could no longer catch an evaluator bug;
* no stale read, contract violation or deadlock occurs anywhere;
* the optimized run never takes more demand misses than the unoptimized.

This is the widest net over the whole pipeline: analysis, planning,
contract, protocol and executors all under one generator.
"""

import operator

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.hpf.eval as hpf_eval
from repro.hpf.dsl import I, ProgramBuilder, S
from repro.runtime import RunResult, run_msgpass, run_shmem, run_uniproc
from repro.runtime.phases import evaluate
from repro.tempest.config import ClusterConfig
from tests.reference_interp import interpret


@st.composite
def stencil_programs(draw):
    rows = draw(st.sampled_from([8, 20, 32]))        # 20 => unaligned columns
    cols = draw(st.sampled_from([16, 24, 33]))
    dist = draw(st.sampled_from(["block", "cyclic"]))
    n_sweeps = draw(st.integers(1, 2))
    timesteps = draw(st.integers(1, 3))
    max_off = draw(st.integers(1, 2))
    with_reduce = draw(st.booleans())

    b = ProgramBuilder("fuzz")
    seed = draw(st.integers(0, 2**16))

    def init(shape, seed=seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(shape)

    u = b.array("u", (rows, cols), dist=dist, init=init)
    v = b.array("v", (rows, cols), dist=dist)
    full = S(0, rows - 1)
    lo = max_off
    hi = cols - 1 - max_off

    with b.timesteps(timesteps):
        for s in range(n_sweeps):
            offsets = draw(
                st.lists(st.integers(-max_off, max_off), min_size=1, max_size=3)
            )
            coeffs = draw(
                st.lists(
                    st.floats(-2, 2, allow_nan=False, width=32),
                    min_size=len(offsets),
                    max_size=len(offsets),
                )
            )
            expr = None
            for off, c in zip(offsets, coeffs):
                term = u[full, I + off] * float(c)
                expr = term if expr is None else expr + term
            b.forall(lo, hi, v[full, I], expr, label=f"sweep{s}")
            b.forall(lo, hi, u[full, I], v[full, I] * 0.5 + u[full, I] * 0.5,
                     label=f"mix{s}")
        if with_reduce:
            b.reduce("norm", 0, cols - 1, u[full, I] * u[full, I])
    return b.build()


CFG = ClusterConfig(n_nodes=4)


@given(prog=stencil_programs())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_random_programs_all_backends_agree(prog):
    uni = run_uniproc(prog, CFG)
    unopt = run_shmem(prog, CFG)
    opt = run_shmem(prog, CFG, optimize=True)
    rte = run_shmem(prog, CFG, optimize=True, rt_elim=True)
    pre = run_shmem(prog, CFG, optimize=True, pre=True)
    adv = run_shmem(prog, CFG, optimize=True, advisory="prefetch")
    mp = run_msgpass(prog, CFG)
    for r in (unopt, opt, rte, pre, adv, mp):
        r.assert_same_numerics(uni)
    assert opt.total_misses <= unopt.total_misses


@given(prog=stencil_programs())
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_random_programs_update_protocol_agrees(prog):
    uni = run_uniproc(prog, CFG)
    upd = run_shmem(prog, CFG, protocol="update")
    upd.assert_same_numerics(uni)


def _bits(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr).view(np.uint64)


def assert_matches_reference(prog) -> None:
    """``evaluate(prog)`` against the per-element reference interpreter."""
    arrays, scalars = evaluate(prog)
    ref_arrays, ref_scalars, exact = interpret(prog)
    for name in sorted(exact):
        assert arrays[name].shape == ref_arrays[name].shape
        assert np.array_equal(_bits(arrays[name]), _bits(ref_arrays[name])), (
            f"array {name!r} differs bitwise from the reference"
        )
    got = RunResult(prog.name, "evaluate", 0, None, arrays, scalars)
    ref = RunResult(prog.name, "reference", 0, None, ref_arrays, ref_scalars)
    got.assert_same_numerics(ref)


@given(prog=stencil_programs())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_random_programs_evaluate_matches_reference(prog):
    assert_matches_reference(prog)


def _fixed_program():
    b = ProgramBuilder("fixed")
    u = b.array("u", (8, 16), init=lambda shape: np.arange(128.0).reshape(shape))
    v = b.array("v", (8, 16))
    with b.timesteps(2):
        b.forall(1, 14, v[S(0, 7), I], (u[S(0, 7), I - 1] + u[S(0, 7), I + 1]) * 0.5)
        b.forall(1, 14, u[S(0, 7), I], v[S(0, 7), I] * 0.5 + u[S(0, 7), I] * 0.5)
    b.reduce("norm", 0, 15, u[S(0, 7), I] * u[S(0, 7), I])
    return b.build()


def test_reference_check_passes_on_fixed_program():
    assert_matches_reference(_fixed_program())


def test_reference_check_catches_a_broken_evaluator(monkeypatch):
    # An evaluator that subtracts where it should add: every backend would
    # still agree with every other, but not with the reference.
    monkeypatch.setitem(hpf_eval._BIN_OPS, "+", (operator.sub, np.subtract))
    with pytest.raises(AssertionError):
        assert_matches_reference(_fixed_program())


def test_self_reading_statements_match_reference():
    # Right-hand sides that read their own destination array through
    # shifted views: they must be evaluated into a temporary before the
    # assignment lands, or later terms would read already-written values.
    b = ProgramBuilder("alias")
    u = b.array("u", (8, 16), init=lambda shape: np.arange(128.0).reshape(shape) % 7)
    v = b.array("v", (8, 16), init=lambda shape: np.ones(shape))
    with b.timesteps(2):
        b.forall(1, 14, u[S(0, 7), I],
                 (u[S(0, 7), I - 1] + u[S(0, 7), I + 1]) * 0.5 + u[S(0, 7), I])
        b.forall(1, 14, u[S(0, 7), I],
                 v[S(0, 7), I] * 0.25 + u[S(0, 7), I - 1] + u[S(0, 7), I + 1])
        b.forall(1, 14, v[S(0, 7), I], u[S(0, 7), I - 1] * 0.5 + u[S(0, 7), I])
    assert_matches_reference(b.build())
