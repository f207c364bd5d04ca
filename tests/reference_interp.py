"""A per-element reference interpreter for mini-HPF programs.

The runtime evaluates each statement as one vectorized NumPy step
(``repro.hpf.eval``, driven by ``repro.runtime.phases.evaluate``).  This
interpreter shares none of that code: it walks every statement element by
element in plain Python floats, reading a snapshot of the arrays taken
before the statement (INDEPENDENT-loop semantics: every right-hand side
sees the pre-loop values).

Elementwise ``+ - * /``, negation, ``abs`` and ``sqrt`` are correctly
rounded in IEEE arithmetic, so values built only from them must match the
vectorized evaluation bit for bit.  Reductions, ``Dot`` and ``exp`` are
not: their order or their libm differs.  :func:`interpret` therefore
reports which arrays are *exact* — never fed, directly or through another
array or scalar, by one of those.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.hpf.ast import (
    At,
    Bin,
    Dot,
    Lit,
    LoopIdx,
    ParallelAssign,
    Program,
    Reduce,
    Ref,
    ScalarAssign,
    ScalarRef,
    SeqLoop,
    Un,
)

__all__ = ["interpret"]


def _div(a: float, b: float) -> float:
    if b == 0.0:  # IEEE, where Python would raise
        if a == 0.0 or math.isnan(a):
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)
    return a / b


_BIN = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _div,
}
_UN = {
    "neg": lambda x: -x,
    "abs": abs,
    "sqrt": lambda x: float(np.sqrt(x)),
    "exp": lambda x: float(np.exp(x)),
}


class _Interp:
    def __init__(self, program: Program) -> None:
        self.program = program
        self.arrays = {
            name: np.zeros(decl.shape) for name, decl in program.arrays.items()
        }
        for name, fn in program.initializers.items():
            shape = program.arrays[name].shape
            self.arrays[name][...] = np.asarray(fn(shape), dtype=np.float64)
        self.scalars = {k: float(v) for k, v in program.scalars.items()}
        self.inexact_arrays: set[str] = set()
        self.inexact_scalars: set[str] = set()

    # -- static exactness ------------------------------------------- #
    def _inexact(self, expr) -> bool:
        if isinstance(expr, Dot):
            return True
        if isinstance(expr, Un):
            return expr.op == "exp" or self._inexact(expr.operand)
        if isinstance(expr, Bin):
            return self._inexact(expr.lhs) or self._inexact(expr.rhs)
        if isinstance(expr, Ref):
            return expr.array in self.inexact_arrays
        if isinstance(expr, ScalarRef):
            return expr.name in self.inexact_scalars
        return False

    # -- iteration spaces ------------------------------------------- #
    @staticmethod
    def _columns(stmt, env) -> list[int]:
        if stmt.loop is None:  # single-owner statement: the LHS column
            return [stmt.lhs.subs[-1].index.eval(env)]
        lo = stmt.loop.lo.eval(env)
        hi = stmt.loop.hi.eval(env)
        return list(range(lo, hi + 1, stmt.loop.step))

    @staticmethod
    def _axis(sub, columns: list[int], env) -> list[int]:
        """The indices one subscript selects along its axis."""
        if isinstance(sub, LoopIdx):
            off = sub.offset.eval(env)
            return [c + off for c in columns]
        if isinstance(sub, At):
            return [sub.index.eval(env)]
        return list(range(sub.lo.eval(env), sub.hi.eval(env) + 1))

    # -- per-element expression evaluation --------------------------- #
    def _elem(self, expr, snap, pos, columns, env) -> float:
        if isinstance(expr, Lit):
            return float(expr.value)
        if isinstance(expr, ScalarRef):
            return self.scalars[expr.name]
        if isinstance(expr, Ref):
            idx = []
            base = len(pos) - len(expr.subs)  # NumPy aligns trailing axes
            for axis, sub in enumerate(expr.subs):
                along = self._axis(sub, columns, env)
                # a length-1 axis broadcasts against the result shape
                idx.append(along[0] if len(along) == 1 else along[pos[base + axis]])
            return float(snap[expr.array][tuple(idx)])
        if isinstance(expr, Bin):
            return _BIN[expr.op](
                self._elem(expr.lhs, snap, pos, columns, env),
                self._elem(expr.rhs, snap, pos, columns, env),
            )
        if isinstance(expr, Un):
            return _UN[expr.op](self._elem(expr.operand, snap, pos, columns, env))
        if isinstance(expr, Dot):
            # result[j] = sum_i mat[i, j] * vec[i] over the mat's row range
            rows = self._axis(expr.mat.subs[0], columns, env)
            col = self._axis(expr.mat.subs[-1], columns, env)[pos[-1]]
            vec_rows = self._axis(expr.vec.subs[0], columns, env)
            acc = 0.0
            for r, v in zip(rows, vec_rows):
                acc += float(snap[expr.mat.array][r, col]) * float(
                    snap[expr.vec.array][v]
                )
            return acc
        raise TypeError(f"cannot interpret {expr!r}")

    def _shape(self, refs, columns, env) -> tuple[int, ...]:
        """Broadcast result shape of a set of references."""
        rank = max(len(r.subs) for r in refs)
        shape = [1] * rank
        for r in refs:
            base = rank - len(r.subs)
            for axis, sub in enumerate(r.subs):
                n = len(self._axis(sub, columns, env))
                shape[base + axis] = max(shape[base + axis], n)
        return tuple(shape)

    # -- statements -------------------------------------------------- #
    def run(self, body, env: dict[str, int]) -> None:
        for stmt in body:
            if isinstance(stmt, SeqLoop):
                for v in range(stmt.lo.eval(env), stmt.hi.eval(env) + 1):
                    env[stmt.var] = v
                    self.run(stmt.body, env)
                env.pop(stmt.var, None)
            elif isinstance(stmt, ParallelAssign):
                self._assign(stmt, env)
            elif isinstance(stmt, Reduce):
                self._reduce(stmt, env)
            elif isinstance(stmt, ScalarAssign):
                inexact = self._inexact(stmt.rhs)
                self.scalars[stmt.target] = self._elem(stmt.rhs, {}, (), [], env)
                if inexact:
                    self.inexact_scalars.add(stmt.target)
                else:
                    self.inexact_scalars.discard(stmt.target)
            else:
                raise TypeError(f"unknown statement {stmt!r}")

    def _assign(self, stmt: ParallelAssign, env) -> None:
        columns = self._columns(stmt, env)
        if not columns:
            return
        snap = {name: arr.copy() for name, arr in self.arrays.items()}
        axes = [self._axis(sub, columns, env) for sub in stmt.lhs.subs]
        target = self.arrays[stmt.lhs.array]
        for pos in itertools.product(*(range(len(a)) for a in axes)):
            idx = tuple(a[p] for a, p in zip(axes, pos))
            target[idx] = self._elem(stmt.rhs, snap, pos, columns, env)
        if self._inexact(stmt.rhs):
            self.inexact_arrays.add(stmt.lhs.array)

    def _reduce(self, stmt: Reduce, env) -> None:
        columns = self._columns(stmt, env)
        value = 0.0
        if columns:
            refs = list(stmt.rhs.refs())
            shape = self._shape(refs, columns, env) if refs else (1,)
            values = [
                self._elem(stmt.rhs, self.arrays, pos, columns, env)
                for pos in itertools.product(*(range(n) for n in shape))
            ]
            if stmt.op == "sum":
                value = math.fsum(values)
            elif stmt.op == "max":
                value = max(values)
            else:
                value = min(values)
        self.scalars[stmt.target] = value
        self.inexact_scalars.add(stmt.target)


def interpret(program: Program):
    """Run ``program`` element by element.

    Returns ``(arrays, scalars, exact)``: the final values and the set of
    array names whose values must match a vectorized evaluation exactly.
    """
    interp = _Interp(program)
    interp.run(program.body, {})
    exact = set(program.arrays) - interp.inexact_arrays
    return interp.arrays, interp.scalars, exact
