"""The run-option table, and matrix specs → RunRequest lists.

Each run option is one row of :data:`OPTIONS`: its run-CLI flag, its
sweep-axis name if it has one, its parser and unit conversion, and the
:class:`~repro.serve.request.RunRequest` or config field(s) it sets.
The run CLI's flags (:func:`add_options`), the sweep axes (:data:`AXES`,
:func:`parse_axis_specs`) and ``repro diff``'s cell specs are generated
from it, and all of them build requests through :func:`fold`, the one
place an option value becomes a field value: a CLI run is a one-cell
matrix (:func:`request_from_args`), a sweep the cross product of an app
list and its axes (:func:`expand_matrix`).  Adding an option means
adding one row.

Axes: ``optimize bulk rt_elim pre combine switch profile`` take
``off``/``on`` (``profile`` = per-phase breakdown + critical path);
``protocol`` a protocol name; ``drop``/``dup`` a probability;
``jitter_us`` microseconds; ``seed``/``nodes`` integers; ``scale``
``default``/``paper``.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
from typing import Any, Callable, Mapping

from repro.tempest.config import US, ClusterConfig
from repro.tempest.faults import CrashScenario, LinkFaultConfig, PartitionScenario

from repro.serve.request import RunRequest

__all__ = [
    "AXES",
    "OBS_GROUP",
    "OPTIONS",
    "Option",
    "add_options",
    "expand_matrix",
    "fold",
    "parse_axis_specs",
    "request_from_args",
]

_BOOL = {"on": True, "off": False, "true": True, "false": False, "1": True, "0": False}


def _bool(value: Any) -> bool:
    if not isinstance(value, str):
        return bool(value)
    try:
        return _BOOL[value.strip().lower()]
    except KeyError:
        raise ValueError(f"expected on/off, got {value!r}") from None


def _ns(us: Any) -> int:
    """Microseconds, as a user types them -> integral nanoseconds."""
    return int(float(us) * US)


def _ns_or_never(text: str) -> int | None:
    text = text.strip().lower()
    return None if text in ("never", "inf") else _ns(text)


# --------------------------------------------------------------------- #
# parsers of the repeatable flags
# --------------------------------------------------------------------- #
def parse_link_fault(spec: str) -> LinkFaultConfig:
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
            raise ValueError(f"unknown key {key!r}; choose from {sorted(_LINK_KEYS)}")
        opt = _LINK_KEYS[key]
        kwargs[opt.sets[0].partition(".")[2]] = opt.convert(opt.parse(val))
    if not kwargs:
        raise ValueError("no overrides given")
    return LinkFaultConfig(src, dst, **kwargs)


def parse_partition(spec: str, index: int) -> PartitionScenario:
    """``NODES:START_US:DUR_US`` (DUR_US may be ``never``) -> scenario."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError("expected NODES:START_US:DUR_US")
    return PartitionScenario(
        name=f"cli-partition-{index}",
        nodes=frozenset(int(n) for n in parts[0].split(",")),
        t_start_ns=_ns(parts[1]),
        duration_ns=_ns_or_never(parts[2]),
    )


def parse_crash(spec: str) -> CrashScenario:
    """``NODE:T_US[:RESTART_DELAY_US|never]`` -> CrashScenario."""
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ValueError("expected NODE:T_US[:RESTART_DELAY_US|never]")
    node, t_ns = int(parts[0]), _ns(parts[1])
    restart_ns = _ns_or_never(parts[2]) if len(parts) == 3 else None
    return CrashScenario(node=node, t_ns=t_ns, restart_delay_ns=restart_ns)


def _param(item: str, _index: int) -> tuple[str, int]:
    key, sep, val = item.partition("=")
    if not sep:
        raise ValueError("expected KEY=VAL")
    return key, int(val)


def _each(parse: Callable[[str, int], Any]) -> Callable[[list], tuple]:
    """The converter of a repeatable flag: parse each item, quoting a bad one."""
    def convert(items: list) -> tuple:
        out = []
        for index, item in enumerate(items):
            try:
                out.append(parse(item, index))
            except (ValueError, TypeError) as e:
                raise ValueError(f"{item!r}: {e}") from None
        return tuple(out)
    return convert


# --------------------------------------------------------------------- #
# the table
# --------------------------------------------------------------------- #
class Option:
    """One run option.  ``sets``: the field(s) it sets, ``request.F``,
    ``config.F`` or ``faults|combine|switch.F``; ``axis``: its sweep-axis
    name; ``parse``: text (or a typed value) -> value in the user's units;
    ``convert``: value -> field value; ``negate``: the flag says the
    opposite (``--no-opt``); ``link``: its ``--fault-link`` key.  The rest
    goes to argparse."""

    def __init__(self, flag: str | None, sets: str, *, axis: str | None = None,
                 parse: Callable[[Any], Any] = str,
                 convert: Callable[[Any], Any] | None = None, negate: bool = False,
                 link: str | None = None, group: str | None = None, **cli: Any):
        self.flag, self.axis, self.negate = flag, axis, negate
        self.link, self.group, self.sets = link, group, tuple(sets.split())
        self.dest = flag and flag.lstrip("-").replace("-", "_")
        self.name = axis or self.dest
        self.parse, self.convert = parse, convert or (lambda value: value)
        if "action" not in cli and parse is not str:
            cli["type"] = parse
        self.cli = cli


_FAST = "communication fast path"
_SWITCH = "shared-switch contention model"
_FAULTS = "fault injection (engages the reliable transport)"
OBS_GROUP = "observability (shmem backend)"
_ON = dict(parse=_bool, action="store_true")
_ON_OFF = dict(parse=_bool, action=argparse.BooleanOptionalAction, default=False)

#: Every run option, in the run CLI's ``--help`` order.
OPTIONS: tuple[Option, ...] = (
    Option("--scale", "request.scale", axis="scale", choices=["default", "paper"],
           default="default"),
    Option("--nodes", "config.n_nodes", axis="nodes", parse=int, default=8),
    Option("--backend", "request.backend", choices=["shmem", "msgpass"],
           default="shmem"),
    Option("--no-opt", "request.optimize", axis="optimize", negate=True, **_ON,
           help="shmem: skip the compiler optimization"),
    Option("--single-cpu", "config.dual_cpu", negate=True, **_ON,
           help="interleave protocol handling with computation"),
    Option("--no-bulk", "request.bulk", axis="bulk", negate=True, **_ON),
    Option("--rt-elim", "request.rt_elim", axis="rt_elim", **_ON),
    Option("--pre", "request.pre", axis="pre", **_ON,
           help="PRE redundant-communication elimination"),
    Option("--advisory", "request.advisory", choices=["prefetch", "full"],
           default=None, help="advisory primitives on boundary blocks"),
    Option("--protocol", "request.protocol", axis="protocol",
           choices=["invalidate", "update"], default="invalidate"),
    Option("--param", "request.params", convert=lambda v: dict(_each(_param)(v)),
           action="append", default=[], metavar="KEY=VAL",
           help="override an app parameter (repeatable)"),
    Option("--combine", "combine.enabled", axis="combine", group=_FAST, **_ON_OFF,
           help="coalesce header-only control messages per channel (--no-combine "
                "restores the one-frame-per-message wire model)"),
    Option("--combine-max-msgs", "combine.max_msgs", parse=int, group=_FAST,
           default=None, metavar="N",
           help="most sub-messages per combined frame (default 8)"),
    Option("--combine-wait", "combine.max_wait_ns", parse=float, convert=_ns,
           group=_FAST, default=None, metavar="US",
           help="combine-buffer hold window in microseconds (default 40)"),
    Option("--rto-adaptive", "faults.adaptive_rto", group=_FAST, **_ON,
           help="per-channel Jacobson RTT estimator for the reliable transport's "
                "retransmit timer (needs fault injection)"),
    Option("--rto-max-us", "faults.max_backoff_ns faults.rto_max_ns", parse=float,
           convert=_ns, group=_FAST, default=None, metavar="US",
           help="ceiling for the retransmit timer in microseconds, applied to both "
                "the exponential backoff and the adaptive-RTO clamp (default 2000; "
                "raise it when bulk bursts queue behind the wire for longer than the "
                "cap, or every deep-queued frame retransmits spuriously; needs fault "
                "injection)"),
    Option("--switch", "switch.enabled", axis="switch", group=_SWITCH, **_ON_OFF,
           help="route every frame through a shared switch fabric: frames to one "
                "destination queue on its output port and backpressure their "
                "senders (--no-switch keeps the independent-link wire model)"),
    Option("--switch-ports", "switch.ports", parse=int, group=_SWITCH, default=None,
           metavar="N", help="output ports on the switch, destination = dst mod N "
                             "(default: one port per node)"),
    Option("--switch-bw", "switch.bandwidth_bytes_per_us", parse=float,
           group=_SWITCH, default=None, metavar="MBPS",
           help="aggregate switch forwarding bandwidth in MB/s, split evenly across "
                "ports (default: every port forwards at the link rate)"),
    Option("--fault-drop", "faults.drop_prob", axis="drop", link="drop", parse=float,
           group=_FAULTS, default=0.0, metavar="P",
           help="per-message drop probability in [0, 1)"),
    Option("--fault-dup", "faults.dup_prob", axis="dup", link="dup", parse=float,
           group=_FAULTS, default=0.0, metavar="P",
           help="per-message duplication probability in [0, 1)"),
    Option("--fault-jitter", "faults.jitter_ns", axis="jitter_us", link="jitter_us",
           parse=float, convert=_ns, group=_FAULTS, default=0.0, metavar="US",
           help="max extra per-message latency jitter (microseconds)"),
    Option("--fault-stall", "faults.stall_prob", link="stall", parse=float,
           group=_FAULTS, default=0.0, metavar="P",
           help="per-delivery protocol-CPU stall probability in [0, 1); needs "
                "--fault-stall-us"),
    Option("--fault-stall-us", "faults.stall_ns", link="stall_us", parse=float,
           convert=_ns, group=_FAULTS, default=0.0, metavar="US",
           help="length of one protocol-CPU stall window (microseconds)"),
    Option("--fault-seed", "faults.seed", axis="seed", parse=int, group=_FAULTS,
           default=0, help="fault-injection PRNG seed (same seed => same run)"),
    Option("--fault-retries", "faults.max_retries", parse=int, group=_FAULTS,
           default=None, metavar="N",
           help="retransmit budget per frame before the channel gives up and parks "
                "its traffic (default 32)"),
    Option("--fault-link", "faults.link_faults", group=_FAULTS,
           convert=_each(lambda spec, _: parse_link_fault(spec)),
           action="append", default=[], metavar="SRC:DST:KEY=VAL[,KEY=VAL...]",
           help="per-link fault profile overriding the uniform rates for one "
                "directed link; keys: drop, dup, jitter_us, stall, stall_us "
                "(repeatable, one per link)"),
    Option("--fault-partition", "faults.partitions", group=_FAULTS,
           convert=_each(parse_partition), action="append", default=[],
           metavar="NODES:START_US:DUR_US",
           help="partition scenario: comma-separated NODES become unreachable at "
                "START_US for DUR_US microseconds ('never' = the partition never "
                "heals and the run finishes degraded); repeatable"),
    Option("--fault-crash", "faults.crashes", group=_FAULTS,
           convert=_each(lambda spec, _: parse_crash(spec)),
           action="append", default=[], metavar="NODE:T_US[:RESTART_US|never]",
           help="fail-stop NODE at T_US; peers detect the death via transport "
                "keepalives.  With a restart delay and --checkpoint-every, the "
                "cluster rolls back to the last barrier checkpoint and re-executes "
                "to completion; with 'never' (the default) or no checkpoint the run "
                "finishes degraded (exit 4); repeatable, one crash per node"),
    Option("--checkpoint-every", "faults.checkpoint_every", parse=int,
           group=_FAULTS, default=0, metavar="K",
           help="snapshot coherence state and replay cursors every K global "
                "barriers (a barrier is a consistent cut); enables rollback-recovery "
                "for restarting crashes; needs --fault-crash"),
    Option("--heartbeat-us", "faults.heartbeat_interval_ns", parse=float,
           convert=_ns, group=_FAULTS, default=None, metavar="US",
           help="keepalive probe interval for crash detection (default 500); "
                "smaller detects faster but probes more; needs --fault-crash"),
    Option("--audit", "request.audit_each_barrier", action="store_true",
           help="shmem: also audit coherence at every barrier (the end-of-run audit "
                "always runs)"),
    Option("--profile-phases", "request.profile_phases", group=OBS_GROUP,
           action="store_true",
           help="attribute each node's time to compute / read-miss / write-miss / "
                "barrier-wait / protocol-overhead / transport-recovery buckets per "
                "parallel phase and print the breakdown table"),
    Option("--critical-path", "request.critical_path", group=OBS_GROUP,
           action="store_true",
           help="thread causal lineage through the run, walk the event dependency "
                "DAG backward from the finish and print the critical path decomposed "
                "into cost classes (sums to elapsed time exactly)"),
    Option("--whatif", "request.critical_path", convert=lambda kind: True,
           group=OBS_GROUP, choices=["barrier", "wire", "retransmit"], default=None,
           help="with the critical path: report the lower bound on elapsed time if "
                "the named cost class cost zero (barrier = perfect-overlap bound; "
                "implies --critical-path)"),
    Option(None, "request.profile_phases request.critical_path", axis="profile",
           parse=_bool),
)

#: axis name -> value parser (CLI passes strings; API may pass typed values)
AXES: dict[str, Callable[[Any], Any]] = {o.axis: o.parse for o in OPTIONS if o.axis}
#: --fault-link KEY=VAL keys -> the uniform fault options they override
_LINK_KEYS = {o.link: o for o in OPTIONS if o.link}


def add_options(parser: argparse.ArgumentParser, names: tuple[str, ...] | None = None,
                **help: str) -> dict[str | None, Any]:
    """Add the flag of every option (or of those ``names``) to ``parser``;
    ``help`` rewords some by option name.  Returns the argparse group of
    each group title (None: the parser itself)."""
    groups: dict[str | None, Any] = {None: parser}
    for opt in OPTIONS:
        if opt.flag is None or names is not None and opt.name not in names:
            continue
        if opt.group not in groups:
            groups[opt.group] = parser.add_argument_group(opt.group)
        kwargs = {**opt.cli, "help": help.get(opt.name, opt.cli.get("help"))}
        groups[opt.group].add_argument(opt.flag, **kwargs)
    return groups


# --------------------------------------------------------------------- #
# the fold: option values -> RunRequest
# --------------------------------------------------------------------- #
_SUBS = ("faults", "combine", "switch")


def fold(settings: Mapping[str, Any], base: RunRequest,
         label: Callable[[Option], str] = lambda opt: f"axis {opt.name!r}",
         ) -> RunRequest:
    """Apply typed option values to ``base`` (None changes nothing).

    Each config object is rebuilt once, after every value is in, so its
    cross-field checks see the final combination; a ``ValueError`` names
    (by ``label``) the options that changed the object that refused it.
    """
    objects = {"request": base, "config": base.config}
    objects.update((sub, getattr(base.config, sub)) for sub in _SUBS)
    changes: dict[str, dict] = {obj: {} for obj in objects}
    named: dict[str, dict] = {obj: {} for obj in objects}
    for opt in OPTIONS:
        raw = settings.get(opt.name)
        if raw is None:
            continue
        try:
            value = opt.convert(raw)
        except (ValueError, TypeError) as e:
            sep = " " if isinstance(raw, list) else ": "
            raise ValueError(f"{label(opt)}{sep}{e}") from None
        for obj, _, name in (target.partition(".") for target in opt.sets):
            changes[obj][name] = value
            if value != getattr(objects[obj], name):
                named[obj][label(opt)] = None

    def rebuild(obj: str, **extra: Any) -> Any:
        try:
            return dataclasses.replace(objects[obj], **changes[obj], **extra)
        except (ValueError, TypeError) as e:
            raise ValueError(f"{', '.join(named[obj])}: {e}") from None

    subs = {sub: rebuild(sub) for sub in _SUBS}
    return rebuild("request", config=rebuild("config", **subs))


def request_from_args(app: str, args: argparse.Namespace) -> RunRequest:
    """Fold a front end's parsed flags into the request for ``app``.

    Options whose flag the parser lacks keep their ``RunRequest`` defaults.
    """
    settings = {}
    for opt in OPTIONS:
        value = getattr(args, opt.dest, None) if opt.flag else None
        if value is not None:
            settings[opt.name] = (not value) if opt.negate else value
    return fold(settings, RunRequest(app=app), label=lambda opt: opt.flag)


# --------------------------------------------------------------------- #
# sweep axes
# --------------------------------------------------------------------- #
def _axis_value(name: str, raw: Any) -> Any:
    if name not in AXES:
        raise ValueError(f"unknown axis {name!r}; choose from {sorted(AXES)}")
    try:
        return AXES[name](raw)
    except (ValueError, TypeError) as e:
        raise ValueError(f"axis {name!r}: {e}") from None


def parse_axis_specs(specs: list[str]) -> dict[str, list]:
    """Parse CLI ``name=v1,v2,...`` strings into typed axis values."""
    axes: dict[str, list] = {}
    for spec in specs:
        name, _, values = spec.partition("=")
        name = name.strip()
        if name in AXES and not values:
            raise ValueError(f"axis {spec!r} needs =v1,v2,...")
        if name in axes:
            raise ValueError(f"axis {name!r} given twice; list its values once")
        axes[name] = [_axis_value(name, v.strip()) for v in values.split(",")]
    return axes


def expand_matrix(
    apps: list[str],
    axes: dict[str, list] | None = None,
    scale: str = "default",
    base_config: ClusterConfig | None = None,
) -> list[RunRequest]:
    """Cross apps with every axis combination; returns one request/cell."""
    axes = {name: [_axis_value(name, v) for v in values]
            for name, values in (axes or {}).items()}
    names = sorted(axes)
    requests = []
    for app in apps:
        base = RunRequest(app=app, scale=scale, config=base_config or ClusterConfig())
        for combo in itertools.product(*(axes[n] for n in names)):
            requests.append(fold(dict(zip(names, combo)), base))
    return requests


def cell_label(request: RunRequest) -> str:
    """Stable column describing one cell's axis settings for the table."""
    bits = []
    bits.append("opt" if request.optimize else "unopt")
    if request.config.combine.enabled:
        bits.append("combine")
    if request.config.switch.enabled:
        bits.append("switch")
    f = request.config.faults
    if f.drop_prob:
        bits.append(f"drop={f.drop_prob:g}")
    if f.dup_prob:
        bits.append(f"dup={f.dup_prob:g}")
    if f.jitter_ns:
        bits.append(f"jitter={f.jitter_ns / 1000:g}us")
    if f.seed:
        bits.append(f"seed={f.seed}")
    if request.critical_path or request.profile_phases:
        bits.append("profile")
    bits.append(f"n={request.config.n_nodes}")
    return " ".join(bits)
