"""The message-passing comparator backend (pghpf-MP over Tempest messages).

The same access analysis drives a classic owner-computes message-passing
schedule: before each loop, owners send the exact non-owner sections
(element-precise, no block rounding) as point-to-point messages; receivers
block until their expected messages arrive.  No coherence protocol, no
access control, no barriers — exactly the paper's "directly porting the
PGI's message-passing run-time to use Tempest messages" comparator.

Non-owner writes invert: the writer computes privately and returns the
written section to its owner after the loop.
"""

from __future__ import annotations

from repro.hpf.ast import ParallelAssign, Program, Reduce, ScalarAssign
from repro.runtime.phases import ProgramAnalysis, start_evaluation, walk_phases
from repro.runtime.results import RunResult
from repro.runtime.shmem import allocate_segment
from repro.runtime.traces import NodeTrace, replay
from repro.tempest.cluster import Cluster
from repro.tempest.config import ClusterConfig
from repro.tempest.memory import HomePolicy

__all__ = ["run_msgpass"]


def run_msgpass(program: Program, config: ClusterConfig | None = None) -> RunResult:
    config = config or ClusterConfig()
    evaluation = start_evaluation(program)  # joined for the result
    # A shared segment is still allocated (the nodes' memories), but no
    # coherence traffic ever touches it — data moves by explicit messages.
    mem = allocate_segment(program.arrays.values(), config, HomePolicy.ALIGNED)
    analysis = ProgramAnalysis(program, config.n_nodes)
    traces = [NodeTrace(n) for n in range(config.n_nodes)]
    itemsize = 8
    total_msgs = 0
    total_bytes = 0

    for rec in walk_phases(analysis):
        if isinstance(rec.stmt, ScalarAssign):
            for t in traces:
                t.compute(rec.compute_units(t.node) * config.compute_ns_per_unit)
            continue
        if isinstance(rec.stmt, Reduce):
            for p, t in enumerate(traces):
                t.compute(rec.compute_units(p) * config.compute_ns_per_unit)
                t.reduce(1)
            continue

        assert isinstance(rec.stmt, ParallelAssign) and rec.inst is not None
        # Merge transfers per (src, dst); one packed message per pair.
        pre_bytes: dict[tuple[int, int], int] = {}
        post_bytes: dict[tuple[int, int], int] = {}
        for t in rec.inst.transfers:
            nbytes = t.section.count() * itemsize
            if t.kind == "read":
                key = (t.src, t.dst)
                pre_bytes[key] = pre_bytes.get(key, 0) + nbytes
            else:
                # Non-owner write: result returns writer -> owner post-loop.
                key = (t.dst, t.src)
                post_bytes[key] = post_bytes.get(key, 0) + nbytes

        pre_expected: dict[int, tuple[int, int]] = {}
        for (src, dst), nbytes in sorted(pre_bytes.items()):
            # Section gather into the pack buffer, then the send.
            traces[src].compute(nbytes * config.mp_pack_ns_per_byte)
            traces[src].mp_send(dst, nbytes)
            count, rbytes = pre_expected.get(dst, (0, 0))
            pre_expected[dst] = (count + 1, rbytes + nbytes)
            total_msgs += 1
            total_bytes += nbytes
        for dst, (count, rbytes) in sorted(pre_expected.items()):
            traces[dst].mp_recv(count)
            traces[dst].compute(rbytes * config.mp_pack_ns_per_byte)  # scatter

        for p, t in enumerate(traces):
            units = rec.compute_units(p)
            if units or not rec.inst.iterations[p].is_empty:
                t.compute(units * config.compute_ns_per_unit + config.loop_overhead_ns)

        post_expected: dict[int, tuple[int, int]] = {}
        for (src, dst), nbytes in sorted(post_bytes.items()):
            traces[src].compute(nbytes * config.mp_pack_ns_per_byte)
            traces[src].mp_send(dst, nbytes)
            count, rbytes = post_expected.get(dst, (0, 0))
            post_expected[dst] = (count + 1, rbytes + nbytes)
            total_msgs += 1
            total_bytes += nbytes
        for dst, (count, rbytes) in sorted(post_expected.items()):
            traces[dst].mp_recv(count)
            traces[dst].compute(rbytes * config.mp_pack_ns_per_byte)

    cluster = Cluster(config, mem)
    stats = cluster.run({n: replay(cluster, n, traces[n].ops) for n in range(config.n_nodes)})
    arrays, scalars = evaluation.result()
    return RunResult(
        program.name,
        "msgpass",
        stats.elapsed_ns,
        stats,
        arrays,
        scalars,
        {"mp_messages": total_msgs, "mp_bytes": total_bytes, "dual_cpu": config.dual_cpu},
    )
