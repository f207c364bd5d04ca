"""Behavioral tests of ServeSession: caching, dedup, pool, async, plans."""

import asyncio
import dataclasses

import pytest

from repro.apps import get_app
from repro.runtime.shmem import run_shmem
from repro.serve import (
    RunRequest,
    ServeSession,
    execute_request,
    results_equal,
)
from repro.tempest.config import small_config

from tests.serve.conftest import jacobi_request


class TestRequestValidation:
    def test_needs_exactly_one_program_spec(self):
        with pytest.raises(ValueError, match="exactly one"):
            RunRequest()
        with pytest.raises(ValueError, match="exactly one"):
            RunRequest(
                app="jacobi", program=get_app("jacobi").program(n=32, iters=2)
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            RunRequest(app="jacobi", backend="quantum")

    def test_params_accept_dict_or_tuple(self):
        a = RunRequest(app="jacobi", params={"n": 32, "iters": 2})
        b = RunRequest(app="jacobi", params=(("iters", 2), ("n", 32)))
        assert a.params == b.params == (("iters", 2), ("n", 32))


class TestInlineServing:
    def test_equal_to_direct_run(self, cfg):
        req = jacobi_request(cfg, optimize=True)
        direct = run_shmem(req.build_program(), cfg, optimize=True)
        with ServeSession() as sess:
            served = sess.run(req)
        assert served.source == "computed" and served.where == "inline"
        assert results_equal(direct, served.result)

    def test_no_cache_dir_always_computes(self, cfg):
        req = jacobi_request(cfg)
        with ServeSession() as sess:
            a, b = sess.run(req), sess.run(req)
        assert a.source == b.source == "computed"
        assert results_equal(a.result, b.result)

    def test_warm_cache_hit(self, cfg, store_dir):
        req = jacobi_request(cfg)
        with ServeSession(cache_dir=store_dir) as sess:
            cold = sess.run(req)
            warm = sess.run(req)
            assert sess.stats()["hit_rate"] == 0.5
        assert cold.source == "computed" and warm.source == "cache"
        assert results_equal(cold.result, warm.result)

    def test_cache_persists_across_sessions(self, cfg, store_dir):
        req = jacobi_request(cfg)
        with ServeSession(cache_dir=store_dir) as sess:
            cold = sess.run(req)
        with ServeSession(cache_dir=store_dir) as sess2:
            warm = sess2.run(req)
        assert warm.source == "cache"
        assert results_equal(cold.result, warm.result)

    def test_provenance_never_pollutes_run_result(self, cfg, store_dir):
        """Cache metadata lives on ServeResult; RunResult must stay
        dataclass-equal to a direct run even after a round trip."""
        req = jacobi_request(cfg)
        with ServeSession(cache_dir=store_dir) as sess:
            sess.run(req)
            warm = sess.run(req)
        direct = run_shmem(req.build_program(), cfg)
        assert results_equal(direct, warm.result)
        assert "cache" not in warm.result.extra
        assert warm.key and warm.source == "cache"


class TestPlanMemoization:
    def test_wire_variants_share_one_plan(self, cfg):
        from repro.tempest.faults import FaultConfig

        reqs = [
            jacobi_request(cfg, optimize=True),
            jacobi_request(
                cfg.scaled(faults=FaultConfig(drop_prob=0.05, seed=1)),
                optimize=True,
            ),
            jacobi_request(
                cfg.scaled(faults=FaultConfig(drop_prob=0.05, seed=2)),
                optimize=True,
            ),
        ]
        with ServeSession() as sess:
            sess.run_batch(reqs)
            stats = sess.stats()
        assert stats["plans_built"] == 1
        assert stats["plan_memo_hits"] == 2

    def test_plan_disk_cache_across_sessions(self, cfg, store_dir):
        req = jacobi_request(cfg, optimize=True)
        with ServeSession(cache_dir=store_dir) as sess:
            sess.run(req)
            assert sess.plans.built == 1
        # New session, result entries wiped: the plan comes from disk.
        with ServeSession(cache_dir=store_dir) as sess2:
            for e in sess2.store.entries(sess2.store.RESULTS):
                e.unlink()
            sess2.run(req)
            assert sess2.plans.built == 0
            assert sess2.plans.disk_hits == 1

    def test_memo_lru_eviction(self, cfg):
        sizes = [16, 24, 32, 40, 48]
        reqs = [
            RunRequest(app="jacobi", params={"n": n, "iters": 1}, config=cfg)
            for n in sizes
        ]
        with ServeSession(plan_memo_size=2) as sess:
            sess.run_batch(reqs)
            assert len(sess.plans._memo) == 2
            # Re-running the oldest rebuilds (it was evicted)...
            sess.run(reqs[0])
            assert sess.plans.built == len(sizes) + 1
            # ...while the newest is still memoized.
            sess.run(reqs[0])
            assert sess.plans.memo_hits == 1


class TestPool:
    def test_pool_results_equal_inline(self, cfg):
        reqs = [
            jacobi_request(cfg),
            jacobi_request(cfg, optimize=True),
        ]
        with ServeSession() as inline_sess:
            inline = inline_sess.run_batch(reqs)
        with ServeSession(jobs=2) as pool_sess:
            pooled = pool_sess.run_batch(reqs)
        assert all(p.where == "pool" for p in pooled)
        for i, p in zip(inline, pooled):
            assert results_equal(i.result, p.result)

    def test_inflight_dedup_on_pool(self, cfg):
        req = jacobi_request(cfg)
        with ServeSession(jobs=2) as sess:
            futures = [sess.submit(req) for _ in range(3)]
            served = [f.result() for f in futures]
            stats = sess.stats()
        assert stats["computed"] == 1 and stats["deduped"] == 2
        sources = sorted(s.source for s in served)
        assert sources == ["computed", "deduped", "deduped"]
        assert results_equal(served[0].result, served[1].result)
        assert results_equal(served[0].result, served[2].result)

    def test_inline_program_falls_back_in_process(self, cfg):
        prog = get_app("jacobi").program(n=32, iters=2)
        req = RunRequest(program=prog, config=cfg)
        assert not req.picklable
        with ServeSession(jobs=2) as sess:
            served = sess.run(req)
        assert served.where == "inline"
        direct = run_shmem(prog, cfg)
        assert results_equal(direct, served.result)

    def test_workers_publish_to_shared_store(self, cfg, store_dir):
        req = jacobi_request(cfg)
        with ServeSession(jobs=2, cache_dir=store_dir) as sess:
            sess.run(req)
        # A fresh serial session reads what the worker wrote.
        with ServeSession(cache_dir=store_dir) as sess2:
            warm = sess2.run(req)
        assert warm.source == "cache"


class TestBatchAndAsync:
    def test_run_batch_preserves_order_and_mixes_backends(self, cfg):
        reqs = [
            jacobi_request(cfg, backend="uniproc"),
            jacobi_request(cfg),
            jacobi_request(cfg, backend="msgpass"),
        ]
        with ServeSession() as sess:
            served = sess.run_batch(reqs)
        assert [s.result.backend for s in served] == [
            "uniproc", "shmem", "msgpass",
        ]
        for req, s in zip(reqs, served):
            assert results_equal(execute_request(req), s.result)

    def test_async_gather(self, cfg, store_dir):
        reqs = [jacobi_request(cfg), jacobi_request(cfg, optimize=True)]
        with ServeSession(jobs=2, cache_dir=store_dir) as sess:
            cold = asyncio.run(sess.gather(reqs))
            warm = asyncio.run(sess.gather(reqs))
        assert [s.source for s in cold] == ["computed", "computed"]
        assert [s.source for s in warm] == ["cache", "cache"]
        for c, w in zip(cold, warm):
            assert results_equal(c.result, w.result)

    def test_submit_propagates_compute_errors(self, cfg):
        req = dataclasses.replace(
            jacobi_request(cfg), optimize=True, protocol="update"
        )
        with ServeSession() as sess:
            with pytest.raises(ValueError, match="invalidate"):
                sess.submit(req).result()
        # The failed key is not stuck in the in-flight table.
        assert sess._inflight == {}


class TestProgramBuiltOnce:
    def test_shmem_cell_builds_its_program_once(self, cfg, monkeypatch):
        from repro.apps import AppSpec

        builds = []
        orig = AppSpec.program

        def counted(self, *args, **kwargs):
            builds.append(self.name)
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(AppSpec, "program", counted)
        req = jacobi_request(cfg, optimize=True)
        result = execute_request(req)
        assert builds == ["jacobi"]
        monkeypatch.setattr(AppSpec, "program", orig)
        # serving from the bound Program computes what a direct run does
        direct = run_shmem(req.build_program(), cfg, optimize=True)
        assert results_equal(result, direct)
