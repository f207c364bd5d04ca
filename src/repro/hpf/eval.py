"""Numeric evaluation of mini-HPF statements (vectorized NumPy).

Evaluation is *global* and functional: a parallel loop's full iteration
space is computed in one vectorized step against the single backing store,
independent of the processor partitioning.  This matches INDEPENDENT-loop
semantics (no cross-iteration dependences), because NumPy fully
materializes the right-hand side before the assignment lands.

Every subscript keeps its axis (``At`` becomes a length-1 slice), so mixed
subscripts broadcast naturally — e.g. the LU rank-1 update
``a[i, j] -= a[i, k] * a[k, j]`` evaluates as a (rows, 1) × (1, cols)
outer product without special cases.

A temporary that one operation produced is reused, via ufunc ``out=``, as
the output of the operation consuming it whenever it already has that
operation's result shape.  Each element still sees the same operations
in the same order, so the results are bit-identical to out-of-place
evaluation; only the allocations go.
"""

from __future__ import annotations

import operator
from typing import Mapping

import numpy as np

from repro.core.symbolic import Env
from repro.hpf.ast import (
    At,
    Bin,
    Dot,
    Expr,
    Lit,
    LoopIdx,
    ParallelAssign,
    Reduce,
    Ref,
    ScalarAssign,
    ScalarRef,
    Un,
)

__all__ = ["eval_expr", "eval_parallel_assign", "eval_reduce", "eval_scalar_assign"]

Arrays = Mapping[str, np.ndarray]
Scalars = dict[str, float]


#: expressions whose value is a temporary nobody else holds: a Bin, Un or
#: Dot result may be overwritten in place by the operation consuming it
_FRESH = (Bin, Un, Dot)
_BIN_OPS = {
    "+": (operator.add, np.add),
    "-": (operator.sub, np.subtract),
    "*": (operator.mul, np.multiply),
    "/": (operator.truediv, np.true_divide),
}
_UN_UFUNCS = {"neg": np.negative, "abs": np.abs, "sqrt": np.sqrt, "exp": np.exp}


def _has_result_shape(temp, other) -> bool:
    """True iff ``temp`` is an array already shaped like ``temp op other``.

    Only then can the operation write into it: a (rows, 1) temporary
    meeting a (1, cols) operand (the LU rank-1 update) broadcasts to a
    larger result and must stay out of place.
    """
    return isinstance(temp, np.ndarray) and temp.shape == np.broadcast_shapes(
        temp.shape, np.shape(other)
    )


class EvalError(RuntimeError):
    """Out-of-bounds subscript or malformed statement at evaluation time."""


def _ref_key(
    ref: Ref, arrays: Arrays, env: Env, loop_lo: int, loop_hi: int, loop_step: int = 1
):
    """NumPy index tuple for a reference; every axis kept (len-1 for At).

    ``loop_step`` strides the loop-indexed axis (red-black orderings).
    """
    data = arrays[ref.array]
    key = []
    for axis, sub in enumerate(ref.subs):
        n = data.shape[axis]
        step = 1
        if isinstance(sub, LoopIdx):
            lo = loop_lo + sub.offset.eval(env)
            hi = loop_hi + sub.offset.eval(env)
            step = loop_step
        elif isinstance(sub, At):
            lo = hi = sub.index.eval(env)
        else:  # Slice
            lo = sub.lo.eval(env)
            hi = sub.hi.eval(env)
        if lo < 0 or hi >= n:
            raise EvalError(
                f"{ref.array} axis {axis}: [{lo}, {hi}] outside [0, {n})"
            )
        key.append(slice(lo, hi + 1, step))
    return tuple(key)


def eval_expr(
    expr: Expr,
    arrays: Arrays,
    scalars: Scalars,
    env: Env,
    loop_lo: int,
    loop_hi: int,
    loop_step: int = 1,
):
    """Evaluate an expression over a concrete parallel-loop range."""
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, ScalarRef):
        try:
            return scalars[expr.name]
        except KeyError:
            raise EvalError(f"undefined scalar {expr.name!r}") from None
    if isinstance(expr, Ref):
        return arrays[expr.array][
            _ref_key(expr, arrays, env, loop_lo, loop_hi, loop_step)
        ]
    if isinstance(expr, Bin):
        lhs = eval_expr(expr.lhs, arrays, scalars, env, loop_lo, loop_hi, loop_step)
        rhs = eval_expr(expr.rhs, arrays, scalars, env, loop_lo, loop_hi, loop_step)
        op, ufunc = _BIN_OPS[expr.op]
        if isinstance(expr.lhs, _FRESH) and _has_result_shape(lhs, rhs):
            return ufunc(lhs, rhs, out=lhs)
        if isinstance(expr.rhs, _FRESH) and _has_result_shape(rhs, lhs):
            return ufunc(lhs, rhs, out=rhs)
        return op(lhs, rhs)
    if isinstance(expr, Dot):
        mat = arrays[expr.mat.array][
            _ref_key(expr.mat, arrays, env, loop_lo, loop_hi, loop_step)
        ]
        vec = arrays[expr.vec.array][
            _ref_key(expr.vec, arrays, env, loop_lo, loop_hi, loop_step)
        ]
        if mat.ndim != 2 or vec.ndim != 1 or mat.shape[0] != vec.shape[0]:
            raise EvalError(
                f"Dot shape mismatch: mat {mat.shape} vs vec {vec.shape}"
            )
        return vec @ mat
    if isinstance(expr, Un):
        val = eval_expr(expr.operand, arrays, scalars, env, loop_lo, loop_hi, loop_step)
        ufunc = _UN_UFUNCS[expr.op]
        if isinstance(expr.operand, _FRESH) and isinstance(val, np.ndarray):
            return ufunc(val, out=val)
        if expr.op == "neg":
            return -val
        return ufunc(val)
    raise EvalError(f"cannot evaluate {expr!r}")


def loop_bounds(stmt: ParallelAssign | Reduce, env: Env) -> tuple[int, int, int]:
    """Concrete inclusive loop bounds + step; hi < lo when empty."""
    if stmt.loop is None:
        # Single-owner statement: the "loop" is the single LHS column.
        assert isinstance(stmt, ParallelAssign)
        col = stmt.lhs.last.index.eval(env)  # type: ignore[union-attr]
        return col, col, 1
    lo = stmt.loop.lo.eval(env)
    hi = stmt.loop.hi.eval(env)
    step = stmt.loop.step
    if hi >= lo:
        hi = lo + (hi - lo) // step * step  # snap to the last iteration
    return lo, hi, step


def eval_parallel_assign(
    stmt: ParallelAssign, arrays: Arrays, scalars: Scalars, env: Env
) -> None:
    """Execute the full loop (all processors' work) in one step."""
    lo, hi, step = loop_bounds(stmt, env)
    if hi < lo:
        return
    value = eval_expr(stmt.rhs, arrays, scalars, env, lo, hi, step)
    key = _ref_key(stmt.lhs, arrays, env, lo, hi, step)
    arrays[stmt.lhs.array][key] = value


def eval_reduce(stmt: Reduce, arrays: Arrays, scalars: Scalars, env: Env) -> float:
    """Evaluate a global reduction; returns (and stores) the scalar."""
    lo, hi, step = loop_bounds(stmt, env)
    if hi < lo:
        value = 0.0
    else:
        data = eval_expr(stmt.rhs, arrays, scalars, env, lo, hi, step)
        if stmt.op == "sum":
            value = float(np.sum(data))
        elif stmt.op == "max":
            value = float(np.max(data))
        else:
            value = float(np.min(data))
    scalars[stmt.target] = value
    return value


def eval_scalar_assign(stmt: ScalarAssign, scalars: Scalars) -> float:
    value = eval_expr(stmt.rhs, {}, scalars, {}, 0, 0)
    scalars[stmt.target] = float(value)
    return scalars[stmt.target]
