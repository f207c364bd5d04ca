"""Numeric evaluation tests: the DSL must compute what NumPy computes."""

import numpy as np
import pytest

from repro.core.symbolic import Sym
from repro.hpf.dsl import ABS, I, ProgramBuilder, S, sqrt
from repro.hpf.eval import (
    EvalError,
    eval_expr,
    eval_parallel_assign,
    eval_reduce,
    eval_scalar_assign,
)


def farray(*shape):
    rng = np.random.default_rng(42 + len(shape))
    return np.asfortranarray(rng.random(shape))


class TestEvalParallelAssign:
    def test_1d_stencil(self):
        b = ProgramBuilder("p")
        a = b.array("a", (16,))
        out = b.array("out", (16,))
        stmt = b.forall(1, 14, out[I], (a[I - 1] + a[I + 1]) * 0.5)
        arrays = {"a": farray(16), "out": np.zeros(16, order="F")}
        eval_parallel_assign(stmt, arrays, {}, {})
        expect = (arrays["a"][0:14] + arrays["a"][2:16]) * 0.5
        np.testing.assert_allclose(arrays["out"][1:15], expect)
        assert arrays["out"][0] == 0 and arrays["out"][15] == 0

    def test_2d_five_point_stencil(self):
        b = ProgramBuilder("p")
        u = b.array("u", (8, 8))
        v = b.array("v", (8, 8))
        stmt = b.forall(
            1,
            6,
            v[S(1, 6), I],
            (u[S(0, 5), I] + u[S(2, 7), I] + u[S(1, 6), I - 1] + u[S(1, 6), I + 1]) * 0.25,
        )
        U = farray(8, 8)
        V = np.zeros((8, 8), order="F")
        eval_parallel_assign(stmt, {"u": U, "v": V}, {}, {})
        expect = (U[0:6, 1:7] + U[2:8, 1:7] + U[1:7, 0:6] + U[1:7, 2:8]) * 0.25
        np.testing.assert_allclose(V[1:7, 1:7], expect)

    def test_broadcast_outer_product(self):
        # LU-style rank-1 update: a[i, j] -= a[i, k] * a[k, j]
        b = ProgramBuilder("p")
        a = b.array("a", (6, 6))
        k = Sym("k")
        n = 6
        stmt = b.forall(
            k + 1,
            n - 1,
            a[S(k + 1, n - 1), I],
            a[S(k + 1, n - 1), I] - a[S(k + 1, n - 1), k] * a[k, I],
        )
        A = farray(6, 6)
        ref = A.copy()
        eval_parallel_assign(stmt, {"a": A}, {}, {"k": 1})
        ref[2:, 2:] -= np.outer(ref[2:, 1], ref[1, 2:])
        np.testing.assert_allclose(A, ref)

    def test_single_owner_column_statement(self):
        b = ProgramBuilder("p")
        a = b.array("a", (6, 6))
        k = Sym("k")
        stmt = b.assign_at(a[S(2, 5), k], a[S(2, 5), k] / a[1, k])
        A = farray(6, 6)
        ref = A.copy()
        eval_parallel_assign(stmt, {"a": A}, {}, {"k": 1})
        ref[2:, 1] /= ref[1, 1]
        np.testing.assert_allclose(A, ref)

    def test_scalar_in_expression(self):
        b = ProgramBuilder("p")
        a = b.array("a", (8,))
        out = b.array("out", (8,))
        from repro.hpf.ast import ScalarRef

        stmt = b.forall(0, 7, out[I], a[I] * ScalarRef("alpha"))
        A = farray(8)
        OUT = np.zeros(8, order="F")
        eval_parallel_assign(stmt, {"a": A, "out": OUT}, {"alpha": 2.5}, {})
        np.testing.assert_allclose(OUT, A * 2.5)

    def test_empty_loop_is_noop(self):
        b = ProgramBuilder("p")
        a = b.array("a", (8,))
        k = Sym("k")
        stmt = b.forall(k + 1, 7, a[I], 99.0)
        A = np.zeros(8, order="F")
        eval_parallel_assign(stmt, {"a": A}, {}, {"k": 7})
        assert (A == 0).all()

    def test_out_of_bounds_detected(self):
        b = ProgramBuilder("p")
        a = b.array("a", (8,))
        stmt = b.forall(0, 7, a[I], Sym  # placeholder, replaced below
                        if False else a[I + 1])
        with pytest.raises(EvalError, match="outside"):
            eval_parallel_assign(stmt, {"a": np.zeros(8, order="F")}, {}, {})

    def test_undefined_scalar_raises(self):
        from repro.hpf.ast import ScalarRef

        with pytest.raises(EvalError, match="undefined scalar"):
            eval_expr(ScalarRef("nope"), {}, {}, {}, 0, 0)

    def test_unary_functions(self):
        b = ProgramBuilder("p")
        a = b.array("a", (8,))
        out = b.array("out", (8,))
        stmt = b.forall(0, 7, out[I], sqrt(a[I]))
        A = farray(8)
        OUT = np.zeros(8, order="F")
        eval_parallel_assign(stmt, {"a": A, "out": OUT}, {}, {})
        np.testing.assert_allclose(OUT, np.sqrt(A))


class TestInPlaceTemporaries:
    """Fresh temporaries are reused with ``out=``; the bits never change."""

    def test_stencil_bitwise_equal_to_out_of_place(self):
        b = ProgramBuilder("p")
        u = b.array("u", (8, 8))
        expr = (
            u[S(0, 5), I] + u[S(2, 7), I] + u[S(1, 6), I - 1] + u[S(1, 6), I + 1]
        ) * 0.25 - u[S(1, 6), I] / 3.0
        U = farray(8, 8)
        before = U.copy()
        got = eval_expr(expr, {"u": U}, {}, {}, 1, 6)
        want = (U[0:6, 1:7] + U[2:8, 1:7] + U[1:7, 0:6] + U[1:7, 2:8]) * 0.25 - (
            U[1:7, 1:7] / 3.0
        )
        assert got.tobytes() == want.tobytes()
        assert U.tobytes() == before.tobytes()  # operands are never written

    def test_unary_chain_bitwise_equal(self):
        b = ProgramBuilder("p")
        u = b.array("u", (8, 8))
        v = b.array("v", (8, 8))
        expr = -sqrt(ABS(u[S(0, 7), I] - v[S(0, 7), I]))
        U, V = farray(8, 8), farray(8, 8) * 2
        got = eval_expr(expr, {"u": U, "v": V}, {}, {}, 0, 7)
        assert got.tobytes() == (-np.sqrt(np.abs(U - V))).tobytes()

    def test_broadcasting_temporary_stays_out_of_place(self):
        # A fresh (rows, 1) temporary meeting a (1, cols) operand broadcasts
        # to a larger result, so it cannot hold it.
        b = ProgramBuilder("p")
        a = b.array("a", (6, 6))
        k = Sym("k")
        expr = (a[S(2, 5), k] * 2.0) * a[k, I]
        A = farray(6, 6)
        got = eval_expr(expr, {"a": A}, {}, {"k": 1}, 2, 5)
        assert got.shape == (4, 4)
        assert got.tobytes() == ((A[2:6, 1:2] * 2.0) * A[1:2, 2:6]).tobytes()


class TestEvalReduce:
    def test_sum_over_section(self):
        b = ProgramBuilder("p")
        a = b.array("a", (8, 8))
        stmt = b.reduce("total", 0, 7, a[S(0, 7), I])
        A = farray(8, 8)
        scalars = {"total": 0.0}
        got = eval_reduce(stmt, {"a": A}, scalars, {})
        assert got == pytest.approx(A.sum())
        assert scalars["total"] == got

    def test_sum_of_squares(self):
        b = ProgramBuilder("p")
        a = b.array("a", (8,))
        stmt = b.reduce("ss", 0, 7, a[I] * a[I])
        A = farray(8)
        assert eval_reduce(stmt, {"a": A}, {}, {}) == pytest.approx((A * A).sum())

    def test_max_reduction(self):
        b = ProgramBuilder("p")
        a = b.array("a", (8,))
        stmt = b.reduce("m", 0, 7, a[I], op="max")
        A = farray(8)
        assert eval_reduce(stmt, {"a": A}, {}, {}) == pytest.approx(A.max())

    def test_empty_reduce_is_zero(self):
        b = ProgramBuilder("p")
        a = b.array("a", (8,))
        k = Sym("k")
        stmt = b.reduce("s", k, 0, a[I])
        assert eval_reduce(stmt, {"a": farray(8)}, {}, {"k": 5}) == 0.0


class TestEvalScalar:
    def test_scalar_arithmetic(self):
        from repro.hpf.ast import ScalarRef

        b = ProgramBuilder("p")
        stmt = b.scalar("beta", ScalarRef("rho") / ScalarRef("rho_old"))
        scalars = {"rho": 6.0, "rho_old": 2.0, "beta": 0.0}
        assert eval_scalar_assign(stmt, scalars) == 3.0
        assert scalars["beta"] == 3.0
