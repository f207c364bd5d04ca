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
from repro.serve.matrix import OBS_GROUP, add_options, request_from_args
# The overlay spec parsers, under the names this module has always had.
from repro.serve.matrix import parse_crash as _parse_crash  # noqa: F401
from repro.serve.matrix import parse_link_fault as _parse_link_fault  # noqa: F401
from repro.serve.matrix import parse_partition as _parse_partition  # noqa: F401
from repro.tempest.stats import COHERENCE_KINDS, MsgKind

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The run options come from :data:`repro.serve.matrix.OPTIONS`; the
    flags added here only choose what the CLI prints or writes."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="Run a paper-suite application on simulated fine-grain DSM.",
    )
    p.add_argument("app", choices=sorted(APPS), help="application to run")
    o = add_options(p)[OBS_GROUP]
    o.add_argument("--trace-out", metavar="FILE", default=None,
                   help="write a Chrome trace-event JSON of the run (one track per "
                        "node plus transport/switch tracks); load it in Perfetto or "
                        "chrome://tracing")
    o.add_argument("--trace-kinds", default=None, metavar="PREFIXES",
                   help="comma-separated event-kind prefixes retained by --trace-out "
                        "(e.g. 'miss,barrier,frame'); default: all kinds")
    o.add_argument("--trace-cap", type=int, default=1_000_000, metavar="N",
                   help="ring-buffer cap on retained trace events; the oldest are "
                        "dropped past it (default 1000000)")
    o.add_argument("--trace-messages", nargs="?", const="all", default=None,
                   metavar="KINDS",
                   help="print a message-sequence chart after the run; optional "
                        "comma-separated message kinds to keep (e.g. "
                        "'read_req,read_resp'); default: all")
    return p


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in ("sweep", "diff"):
        # ``repro sweep`` — matrix runs through the caching/parallel serve
        # layer; ``repro diff A B`` — cross-run regression attribution over
        # two served cells.  See repro.serve.cli for both.
        from repro.serve import cli as serve_cli

        return getattr(serve_cli, f"{argv[0]}_main")(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    keys = []
    for item in args.param:
        key, sep, _ = item.partition("=")
        if not sep:
            print(f"bad --param {item!r}; expected KEY=VAL", file=sys.stderr)
            return 2
        keys.append(key)
    # A run is a one-cell matrix: the same fold builds sweep cells.
    try:
        request = request_from_args(args.app, args)
    except ValueError as e:
        parser.error(str(e))
    try:
        prog = request.build_program()
    except (ValueError, TypeError) as e:
        parser.error(f"--param: {e}")
    cfg = request.config
    faults = cfg.faults
    for s in faults.partitions:
        if outside := sorted(n for n in s.nodes if n >= cfg.n_nodes):
            parser.error(f"--fault-partition names node(s) {outside} outside "
                         f"the {cfg.n_nodes}-node cluster")
    for c in faults.crashes:
        if c.node >= cfg.n_nodes:
            parser.error(f"--fault-crash names node {c.node} outside the "
                         f"{cfg.n_nodes}-node cluster")
    if faults.checkpoint_every and not faults.crashes:
        parser.error("--checkpoint-every takes barrier-consistent checkpoints for "
                     "crash rollback-recovery; add --fault-crash NODE:T_US:RESTART_US")
    if args.heartbeat_us is not None and not faults.crashes:
        parser.error("--heartbeat-us tunes the crash-detection keepalive interval; "
                     "add --fault-crash")
    if (args.rto_adaptive or args.rto_max_us is not None) and not faults.enabled:
        # Historically this was silently ignored (the transport is bypassed
        # on a perfect wire); fail fast instead.
        flag = "--rto-adaptive" if args.rto_adaptive else "--rto-max-us"
        parser.error(
            f"{flag} tunes the reliable transport's retransmit "
            "timer, which only runs under fault injection; add a --fault-* "
            "flag (e.g. --fault-drop)"
        )

    bus = exporter = tracer = None
    if (args.trace_out or args.trace_messages or request.profile_phases
            or request.critical_path):
        if request.backend != "shmem":
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
                bus, kinds=kinds, max_events=args.trace_cap, n_nodes=cfg.n_nodes
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
            tracer = MessageTracer.on_bus(bus, cfg.n_nodes, kinds=mkinds)

    spec = APPS[args.app]
    print(f"{spec.name}: {spec.description}")
    print(f"paper problem: {spec.paper['problem']}")
    params = dict(request.params)
    overrides = {key: params[key] for key in keys}  # in the order given
    print(
        f"this run: scale={request.scale} {overrides or ''} nodes={cfg.n_nodes} "
        f"{'dual' if cfg.dual_cpu else 'single'}-cpu "
        f"arrays={prog.total_bytes() / 1e6:.1f} MB\n"
    )

    # The numerics run on a background thread while the backend plans and
    # replays; the backend joins them when it builds its result, and every
    # exit path joins them, so no evaluation thread outlives main().
    evaluation = start_evaluation(prog)
    try:
        if request.backend == "msgpass":
            result = run_msgpass(prog, cfg)
        else:
            result = run_shmem(prog, cfg, obs=bus, **request.run_options())
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
    if request.backend == "shmem":
        scope = ("end of run + every barrier" if request.audit_each_barrier
                 else "end of run")
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
