"""Command-line interface: ``python -m repro <app> [options]``.

Runs one of the paper's applications on the simulated cluster and reports
the evaluation metrics.  ``examples/app_suite.py`` is a thin wrapper over
this module; see its docstring for usage examples.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.apps import APPS
from repro.runtime import run_msgpass, run_shmem, run_uniproc
from repro.runtime.phases import start_evaluation
from repro.tempest.config import ClusterConfig, CombineConfig, SwitchConfig
from repro.tempest.faults import (
    CrashScenario,
    FaultConfig,
    LinkFaultConfig,
    PartitionScenario,
)
from repro.tempest.stats import COHERENCE_KINDS, MsgKind

__all__ = ["build_parser", "main"]

#: --fault-link KEY=VAL keys -> LinkFaultConfig fields (+ unit scaling)
_LINK_KEYS = {
    "drop": ("drop_prob", float),
    "dup": ("dup_prob", float),
    "jitter_us": ("jitter_ns", lambda v: int(float(v) * 1000)),
    "stall": ("stall_prob", float),
    "stall_us": ("stall_ns", lambda v: int(float(v) * 1000)),
}


def _parse_link_fault(spec: str) -> LinkFaultConfig:
    """``SRC:DST:KEY=VAL[,KEY=VAL...]`` -> LinkFaultConfig."""
    parts = spec.split(":", 2)
    if len(parts) != 3:
        raise ValueError("expected SRC:DST:KEY=VAL[,KEY=VAL...]")
    src, dst = int(parts[0]), int(parts[1])
    kwargs = {}
    for item in parts[2].split(","):
        key, sep, val = item.partition("=")
        if not sep:
            raise ValueError(f"bad override {item!r}; expected KEY=VAL")
        if key not in _LINK_KEYS:
            raise ValueError(
                f"unknown key {key!r}; choose from {sorted(_LINK_KEYS)}"
            )
        field, conv = _LINK_KEYS[key]
        kwargs[field] = conv(val)
    if not kwargs:
        raise ValueError("no overrides given")
    return LinkFaultConfig(src, dst, **kwargs)


def _parse_partition(spec: str, index: int) -> PartitionScenario:
    """``NODES:START_US:DUR_US`` (DUR_US may be ``never``) -> scenario."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError("expected NODES:START_US:DUR_US")
    nodes = frozenset(int(n) for n in parts[0].split(","))
    start_ns = int(float(parts[1]) * 1000)
    dur = parts[2].strip().lower()
    duration_ns = None if dur in ("never", "inf") else int(float(dur) * 1000)
    return PartitionScenario(
        name=f"cli-partition-{index}",
        nodes=nodes,
        t_start_ns=start_ns,
        duration_ns=duration_ns,
    )


def _parse_crash(spec: str) -> CrashScenario:
    """``NODE:T_US[:RESTART_DELAY_US|never]`` -> CrashScenario."""
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ValueError("expected NODE:T_US[:RESTART_DELAY_US|never]")
    node = int(parts[0])
    t_ns = int(float(parts[1]) * 1000)
    restart_ns = None
    if len(parts) == 3:
        restart = parts[2].strip().lower()
        if restart not in ("never", "inf"):
            restart_ns = int(float(restart) * 1000)
    return CrashScenario(node=node, t_ns=t_ns, restart_delay_ns=restart_ns)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Run a paper-suite application on simulated fine-grain DSM.",
    )
    p.add_argument("app", choices=sorted(APPS), help="application to run")
    p.add_argument("--scale", choices=["default", "paper"], default="default")
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--backend", choices=["shmem", "msgpass"], default="shmem")
    p.add_argument("--no-opt", action="store_true",
                   help="shmem: skip the compiler optimization")
    p.add_argument("--single-cpu", action="store_true",
                   help="interleave protocol handling with computation")
    p.add_argument("--no-bulk", action="store_true")
    p.add_argument("--rt-elim", action="store_true")
    p.add_argument("--pre", action="store_true",
                   help="PRE redundant-communication elimination")
    p.add_argument("--advisory", choices=["prefetch", "full"], default=None,
                   help="advisory primitives on boundary blocks")
    p.add_argument("--protocol", choices=["invalidate", "update"],
                   default="invalidate")
    p.add_argument("--param", action="append", default=[], metavar="KEY=VAL",
                   help="override an app parameter (repeatable)")
    c = p.add_argument_group("communication fast path")
    c.add_argument("--combine", action=argparse.BooleanOptionalAction,
                   default=False,
                   help="coalesce header-only control messages per channel "
                        "(--no-combine restores the one-frame-per-message "
                        "wire model)")
    c.add_argument("--combine-max-msgs", type=int, default=None, metavar="N",
                   help="most sub-messages per combined frame (default 8)")
    c.add_argument("--combine-wait", type=float, default=None, metavar="US",
                   help="combine-buffer hold window in microseconds "
                        "(default 40)")
    c.add_argument("--rto-adaptive", action="store_true",
                   help="per-channel Jacobson RTT estimator for the reliable "
                        "transport's retransmit timer (needs fault injection)")
    c.add_argument("--rto-max-us", type=float, default=None, metavar="US",
                   help="ceiling for the retransmit timer in microseconds, "
                        "applied to both the exponential backoff and the "
                        "adaptive-RTO clamp (default 2000; raise it when "
                        "bulk bursts queue behind the wire for longer than "
                        "the cap, or every deep-queued frame retransmits "
                        "spuriously; needs fault injection)")
    s = p.add_argument_group("shared-switch contention model")
    s.add_argument("--switch", action=argparse.BooleanOptionalAction,
                   default=False,
                   help="route every frame through a shared switch fabric: "
                        "frames to one destination queue on its output port "
                        "and backpressure their senders (--no-switch keeps "
                        "the independent-link wire model)")
    s.add_argument("--switch-ports", type=int, default=None, metavar="N",
                   help="output ports on the switch, destination = dst mod N "
                        "(default: one port per node)")
    s.add_argument("--switch-bw", type=float, default=None, metavar="MBPS",
                   help="aggregate switch forwarding bandwidth in MB/s, split "
                        "evenly across ports (default: every port forwards "
                        "at the link rate)")
    g = p.add_argument_group("fault injection (engages the reliable transport)")
    g.add_argument("--fault-drop", type=float, default=0.0, metavar="P",
                   help="per-message drop probability in [0, 1)")
    g.add_argument("--fault-dup", type=float, default=0.0, metavar="P",
                   help="per-message duplication probability in [0, 1)")
    g.add_argument("--fault-jitter", type=float, default=0.0, metavar="US",
                   help="max extra per-message latency jitter (microseconds)")
    g.add_argument("--fault-stall", type=float, default=0.0, metavar="P",
                   help="per-delivery protocol-CPU stall probability in "
                        "[0, 1); needs --fault-stall-us")
    g.add_argument("--fault-stall-us", type=float, default=0.0, metavar="US",
                   help="length of one protocol-CPU stall window "
                        "(microseconds)")
    g.add_argument("--fault-seed", type=int, default=0,
                   help="fault-injection PRNG seed (same seed => same run)")
    g.add_argument("--fault-retries", type=int, default=None, metavar="N",
                   help="retransmit budget per frame before the channel "
                        "gives up and parks its traffic (default 32)")
    g.add_argument("--fault-link", action="append", default=[],
                   metavar="SRC:DST:KEY=VAL[,KEY=VAL...]",
                   help="per-link fault profile overriding the uniform rates "
                        "for one directed link; keys: drop, dup, jitter_us, "
                        "stall, stall_us (repeatable, one per link)")
    g.add_argument("--fault-partition", action="append", default=[],
                   metavar="NODES:START_US:DUR_US",
                   help="partition scenario: comma-separated NODES become "
                        "unreachable at START_US for DUR_US microseconds "
                        "('never' = the partition never heals and the run "
                        "finishes degraded); repeatable")
    g.add_argument("--fault-crash", action="append", default=[],
                   metavar="NODE:T_US[:RESTART_US|never]",
                   help="fail-stop NODE at T_US; peers detect the death via "
                        "transport keepalives.  With a restart delay and "
                        "--checkpoint-every, the cluster rolls back to the "
                        "last barrier checkpoint and re-executes to "
                        "completion; with 'never' (the default) or no "
                        "checkpoint the run finishes degraded (exit 4); "
                        "repeatable, one crash per node")
    g.add_argument("--checkpoint-every", type=int, default=0, metavar="K",
                   help="snapshot coherence state and replay cursors every "
                        "K global barriers (a barrier is a consistent cut); "
                        "enables rollback-recovery for restarting crashes; "
                        "needs --fault-crash")
    g.add_argument("--heartbeat-us", type=float, default=None, metavar="US",
                   help="keepalive probe interval for crash detection "
                        "(default 500); smaller detects faster but probes "
                        "more; needs --fault-crash")
    p.add_argument("--audit", action="store_true",
                   help="shmem: also audit coherence at every barrier "
                        "(the end-of-run audit always runs)")
    o = p.add_argument_group("observability (shmem backend)")
    o.add_argument("--trace-out", metavar="FILE", default=None,
                   help="write a Chrome trace-event JSON of the run (one "
                        "track per node plus transport/switch tracks); load "
                        "it in Perfetto or chrome://tracing")
    o.add_argument("--trace-kinds", default=None, metavar="PREFIXES",
                   help="comma-separated event-kind prefixes retained by "
                        "--trace-out (e.g. 'miss,barrier,frame'); "
                        "default: all kinds")
    o.add_argument("--trace-cap", type=int, default=1_000_000, metavar="N",
                   help="ring-buffer cap on retained trace events; the "
                        "oldest are dropped past it (default 1000000)")
    o.add_argument("--profile-phases", action="store_true",
                   help="attribute each node's time to compute / read-miss / "
                        "write-miss / barrier-wait / protocol-overhead / "
                        "transport-recovery buckets per parallel phase and "
                        "print the breakdown table")
    o.add_argument("--critical-path", action="store_true",
                   help="thread causal lineage through the run, walk the "
                        "event dependency DAG backward from the finish and "
                        "print the critical path decomposed into cost "
                        "classes (sums to elapsed time exactly)")
    o.add_argument("--whatif", choices=["barrier", "wire", "retransmit"],
                   default=None,
                   help="with the critical path: report the lower bound on "
                        "elapsed time if the named cost class cost zero "
                        "(barrier = perfect-overlap bound; implies "
                        "--critical-path)")
    o.add_argument("--trace-messages", nargs="?", const="all", default=None,
                   metavar="KINDS",
                   help="print a message-sequence chart after the run; "
                        "optional comma-separated message kinds to keep "
                        "(e.g. 'read_req,read_resp'); default: all")
    return p


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "sweep":
        # ``repro sweep`` — matrix runs through the caching/parallel serve
        # layer; see repro.serve.cli for the axis vocabulary.
        from repro.serve.cli import sweep_main

        return sweep_main(argv[1:])
    if argv and argv[0] == "diff":
        # ``repro diff A B`` — cross-run regression attribution over two
        # served cells; see repro.serve.cli for the cell-spec syntax.
        from repro.serve.cli import diff_main

        return diff_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    want_critical = args.critical_path or args.whatif is not None
    overrides = {}
    for item in args.param:
        key, sep, val = item.partition("=")
        if not sep:
            print(f"bad --param {item!r}; expected KEY=VAL", file=sys.stderr)
            return 2
        overrides[key] = int(val)
    spec = APPS[args.app]
    prog = spec.program(args.scale, **overrides)
    link_faults = []
    for lf_spec in args.fault_link:
        try:
            link_faults.append(_parse_link_fault(lf_spec))
        except ValueError as e:
            parser.error(f"--fault-link {lf_spec!r}: {e}")
    partitions = []
    for i, pt_spec in enumerate(args.fault_partition):
        try:
            partitions.append(_parse_partition(pt_spec, i))
        except ValueError as e:
            parser.error(f"--fault-partition {pt_spec!r}: {e}")
    for s in partitions:
        if any(n >= args.nodes for n in s.nodes):
            parser.error(
                f"--fault-partition names node(s) "
                f"{sorted(n for n in s.nodes if n >= args.nodes)} "
                f"outside the {args.nodes}-node cluster"
            )
    crashes = []
    for cr_spec in args.fault_crash:
        try:
            crashes.append(_parse_crash(cr_spec))
        except ValueError as e:
            parser.error(f"--fault-crash {cr_spec!r}: {e}")
    for c in crashes:
        if c.node >= args.nodes:
            parser.error(
                f"--fault-crash names node {c.node} outside the "
                f"{args.nodes}-node cluster"
            )
    if args.checkpoint_every and not crashes:
        parser.error(
            "--checkpoint-every takes barrier-consistent checkpoints for "
            "crash rollback-recovery; add --fault-crash NODE:T_US:RESTART_US"
        )
    if args.heartbeat_us is not None and not crashes:
        parser.error(
            "--heartbeat-us tunes the crash-detection keepalive interval; "
            "add --fault-crash"
        )
    fault_kwargs = {}
    if args.fault_retries is not None:
        fault_kwargs["max_retries"] = args.fault_retries
    if args.heartbeat_us is not None:
        fault_kwargs["heartbeat_interval_ns"] = int(args.heartbeat_us * 1000)
    if args.rto_max_us is not None:
        cap = int(args.rto_max_us * 1000)
        fault_kwargs["max_backoff_ns"] = cap
        fault_kwargs["rto_max_ns"] = cap
    try:
        faults = FaultConfig(
            drop_prob=args.fault_drop,
            dup_prob=args.fault_dup,
            jitter_ns=int(args.fault_jitter * 1000),
            stall_prob=args.fault_stall,
            stall_ns=int(args.fault_stall_us * 1000),
            seed=args.fault_seed,
            adaptive_rto=args.rto_adaptive,
            link_faults=tuple(link_faults),
            partitions=tuple(partitions),
            crashes=tuple(crashes),
            checkpoint_every=args.checkpoint_every,
            **fault_kwargs,
        )
    except ValueError as e:
        parser.error(str(e))
    if (args.rto_adaptive or args.rto_max_us is not None) and not faults.enabled:
        # Historically this was silently ignored (the transport is bypassed
        # on a perfect wire); fail fast instead.
        flag = "--rto-adaptive" if args.rto_adaptive else "--rto-max-us"
        parser.error(
            f"{flag} tunes the reliable transport's retransmit "
            "timer, which only runs under fault injection; add a --fault-* "
            "flag (e.g. --fault-drop)"
        )
    combine_kwargs = {}
    if args.combine_max_msgs is not None:
        combine_kwargs["max_msgs"] = args.combine_max_msgs
    if args.combine_wait is not None:
        combine_kwargs["max_wait_ns"] = int(args.combine_wait * 1000)
    combine = CombineConfig(enabled=args.combine, **combine_kwargs)
    switch = SwitchConfig(
        enabled=args.switch,
        ports=args.switch_ports,
        bandwidth_bytes_per_us=args.switch_bw,
    )
    cfg = ClusterConfig(
        n_nodes=args.nodes, dual_cpu=not args.single_cpu, faults=faults,
        combine=combine, switch=switch,
    )

    bus = exporter = tracer = None
    if args.trace_out or args.profile_phases or args.trace_messages or want_critical:
        if args.backend != "shmem":
            parser.error(
                "--trace-out/--profile-phases/--trace-messages/"
                "--critical-path instrument the shmem backend; they are "
                "not available with --backend msgpass"
            )
        from repro.obs import ChromeTraceExporter, EventBus

        bus = EventBus()
        if args.trace_out:
            kinds = None
            if args.trace_kinds:
                kinds = [k.strip() for k in args.trace_kinds.split(",") if k.strip()]
            exporter = ChromeTraceExporter(
                bus, kinds=kinds, max_events=args.trace_cap, n_nodes=args.nodes
            )
        if args.trace_messages:
            from repro.tempest.tracing import MessageTracer

            mkinds = None
            if args.trace_messages != "all":
                try:
                    mkinds = {
                        MsgKind(k.strip())
                        for k in args.trace_messages.split(",")
                        if k.strip()
                    }
                except ValueError as e:
                    parser.error(f"--trace-messages: {e}")
            tracer = MessageTracer.on_bus(bus, args.nodes, kinds=mkinds)

    print(f"{spec.name}: {spec.description}")
    print(f"paper problem: {spec.paper['problem']}")
    print(
        f"this run: scale={args.scale} {overrides or ''} nodes={args.nodes} "
        f"{'single' if args.single_cpu else 'dual'}-cpu "
        f"arrays={prog.total_bytes() / 1e6:.1f} MB\n"
    )

    # The numerics run on a background thread while the backend plans and
    # replays; the backend joins them when it builds its result, and every
    # exit path joins them, so no evaluation thread outlives main().
    evaluation = start_evaluation(prog)
    try:
        if args.backend == "msgpass":
            result = run_msgpass(prog, cfg)
        else:
            result = run_shmem(
                prog,
                cfg,
                optimize=not args.no_opt,
                bulk=not args.no_bulk,
                rt_elim=args.rt_elim,
                pre=args.pre,
                advisory=args.advisory or False,
                protocol=args.protocol,
                audit_each_barrier=args.audit,
                obs=bus,
                profile_phases=args.profile_phases,
                critical_path=want_critical,
            )
    finally:
        evaluation.join()
    if not result.completed:
        # Degraded run: the partition never healed.  Partial stats and a
        # failure report instead of a traceback, and no uniproc
        # cross-check.  The trace is still written — it is exactly the
        # artifact for dissecting the failure.
        _print_degraded(result, cfg)
        if exporter is not None:
            retained = exporter.write(args.trace_out)
            print(f"trace:            {args.trace_out} ({retained} events, "
                  "up to the give-up point)")
        return 4
    # Both runs share one evaluation, so this holds by construction; the
    # protocol's oracles are the version-checked sends and the audit.
    uni = run_uniproc(prog, cfg)
    result.assert_same_numerics(uni)

    print(f"backend:          {result.backend}")
    print(
        f"simulated time:   {result.elapsed_ms:.1f} ms "
        f"(uniproc {uni.elapsed_ms:.1f} ms, "
        f"speedup {uni.elapsed_ns / result.elapsed_ns:.2f})"
    )
    print(f"compute time:     {result.compute_ms:.1f} ms/node")
    print(f"comm time:        {result.comm_ms:.1f} ms/node")
    print(f"misses:           {result.misses_per_node:.0f}/node")
    kinds = result.stats.messages_by_kind()
    coh = sum(v for k, v in kinds.items() if k in COHERENCE_KINDS)
    print(
        f"messages:         {result.stats.total_messages} total "
        f"({coh} coherence, {kinds.get(MsgKind.DATA, 0)} data pushes, "
        f"{kinds.get(MsgKind.MP_DATA, 0)} mp)"
    )
    print(f"bytes on wire:    {result.stats.total_bytes / 1e6:.2f} MB")
    if cfg.combine.enabled:
        comb = result.stats.combining_summary()
        print(
            f"combining:        {comb['msgs_combined']} messages rode "
            f"{comb['combine_flushes']} combined frames "
            f"(cap {cfg.combine.max_msgs}, wait {cfg.combine.max_wait_ns / 1000:.0f} us)"
        )
    if cfg.switch.enabled:
        sw = result.stats.switch_summary()
        agg = cfg.switch.bandwidth_bytes_per_us
        print(
            f"switch:           {sw['switch_frames']} frames through "
            f"{cfg.switch_ports} ports, {sw['switch_wait_ms']:.2f} ms queued "
            f"(max depth {sw['max_port_depth']}, "
            f"{'link-rate ports' if agg is None else f'{agg:.0f} MB/s aggregate'})"
        )
    if cfg.faults.enabled:
        rel = result.stats.reliability_summary()
        rto = "adaptive" if cfg.faults.adaptive_rto else "fixed"
        print(
            f"reliability:      {rel['drops']} drops, {rel['dups']} dups, "
            f"{rel['retransmits']} retransmits "
            f"({rel['spurious_retransmits']} spurious, {rto} RTO), "
            f"{rel['backoffs']} backoffs (seed {cfg.faults.seed})"
        )
        if cfg.faults.link_faults:
            keys = ", ".join(
                f"{lf.src}->{lf.dst}" for lf in cfg.faults.link_faults
            )
            print(f"link profiles:    {keys}")
        events = result.stats.partition_events
        if events:
            healed = sum(1 for e in events if e.get("healed"))
            print(
                f"partitions:       {len(events)} channel give-up(s), "
                f"{healed} healed and drained"
            )
        if result.stats.crash_events or result.stats.recovery_checkpoints:
            rec = result.stats.recovery_summary()
            crashed = ", ".join(
                f"node {e['node']}" for e in result.stats.crash_events
            )
            print(
                f"fail-stop:        {rec['crashes']} crash(es)"
                f"{f' ({crashed})' if crashed else ''}, "
                f"{rec['checkpoints']} checkpoint(s) "
                f"({rec['checkpoint_mbytes']:.2f} MB), "
                f"{rec['rollbacks']} rollback(s), "
                f"{rec['recovery_ms']:.2f} ms outage recovered"
            )
    if args.backend == "shmem":
        scope = "end of run + every barrier" if args.audit else "end of run"
        if result.stats.partition_events:
            scope = f"post-heal, {scope}"
        print(f"coherence audit:  clean ({scope})")
    if exporter is not None:
        retained = exporter.write(args.trace_out)
        dropped = f", {exporter.dropped} dropped past cap" if exporter.dropped else ""
        print(f"trace:            {args.trace_out} ({retained} events{dropped})")
    if result.phase_breakdown is not None:
        from repro.obs import render_breakdown

        print("\nper-phase time breakdown (per-node average):")
        print(render_breakdown(result.phase_breakdown))
    if result.critical_path is not None:
        from repro.obs import render_critical_path

        print()
        print(render_critical_path(result.critical_path, whatif=args.whatif))
    if tracer is not None:
        print(f"\nmessage trace:    {tracer.summary()}")
        print(tracer.sequence_chart())
    return 0


def _print_degraded(result, cfg) -> None:
    """The failure-report section for a run that finished degraded."""
    failure = result.extra.get("failure") or {}
    rel = result.stats.reliability_summary()
    print(f"backend:          {result.backend}")
    crashed = failure.get("crashed_nodes", [])
    if crashed:
        names = ", ".join(f"node {n}" for n in crashed)
        print(f"RUN DEGRADED:     {names} fail-stopped and never came back "
              "(no checkpoint to roll back to)")
    else:
        print("RUN DEGRADED:     the interconnect partitioned and never healed")
    print(
        f"simulated time:   {result.elapsed_ms:.1f} ms "
        "(up to the give-up point; no uniproc cross-check)"
    )
    print(f"stuck programs:   {', '.join(failure.get('stuck', [])) or 'none'}")
    chans = failure.get("partitioned_channels", [])
    chan_desc = ", ".join(
        f"{c['src']}->{c['dst']} ({c['parked']} parked)" for c in chans
    )
    print(f"dead channels:    {chan_desc or 'none'}")
    print(
        f"unreachable:      nodes "
        f"{failure.get('unreachable_nodes', []) or '[]'}"
    )
    print(
        f"reliability:      {rel['drops']} drops, "
        f"{rel['retransmits']} retransmits, {rel['gave_up']} give-ups "
        f"(seed {cfg.faults.seed})"
    )
    print(f"partial stats:    {result.stats.total_messages} messages, "
          f"{result.stats.total_misses} misses recorded before give-up")
    residual = failure.get("residual_violations", [])
    if residual:
        print(f"residual damage:  {len(residual)} coherence violation(s) "
              "among surviving nodes:")
        for line in residual[:6]:
            print(f"  - {line}")
        if len(residual) > 6:
            print(f"  ... and {len(residual) - 6} more")
    else:
        print("residual damage:  none among surviving nodes")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
