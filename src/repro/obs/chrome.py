"""Chrome trace-event JSON export (Perfetto / ``chrome://tracing``).

Events are laid out on two processes:

* pid 1 ``cluster`` — one thread per node; spans (miss resolutions,
  barriers, replayed trace ops) and node-charged instants land here.
* pid 2 ``fabric`` — ``transport`` (frame lifecycle, channel cut/heal),
  ``switch`` (port traversals), and ``global`` (node-less events)
  threads.

Timestamps convert from simulated nanoseconds to the format's
microseconds; ``displayTimeUnit: "ns"`` keeps Perfetto's cursor honest.
A bounded ring buffer (``max_events``) caps memory on long runs; the
oldest events are dropped first and counted in :attr:`dropped`.

Each frame's wire departure is paired with its delivery as a Perfetto
flow arrow (``ph: "s"``/``"f"`` with a shared id), and every exported
event carries its lineage ``seq``/``parent`` in ``args`` so causal
chains can be followed in the UI.
"""

from __future__ import annotations

import enum
import json
from collections import deque
from typing import Iterable, Optional

from repro.obs.bus import Event, EventBus

_PID_CLUSTER = 1
_PID_FABRIC = 2
_TID_TRANSPORT = 0
_TID_SWITCH = 1
_TID_GLOBAL = 2


def _json_safe(value):
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(_json_safe(v) for v in value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


class ChromeTraceExporter:
    """Bus subscriber that renders retained events as a Chrome trace."""

    def __init__(
        self,
        bus: EventBus,
        kinds: Optional[Iterable[str]] = None,
        max_events: int = 1_000_000,
        n_nodes: Optional[int] = None,
    ):
        # ``kinds`` are prefix filters: "miss" keeps "miss.read" and
        # "miss.write"; "frame.drop" keeps exactly that kind.
        self.kinds = tuple(kinds) if kinds else None
        self.events: deque[Event] = deque(maxlen=max(1, max_events))
        self.dropped = 0
        self.n_nodes = n_nodes
        self._sub = bus.subscribe(self._on_event)

    def _on_event(self, ev: Event) -> None:
        if self.kinds is not None and not any(
            ev.kind == k or ev.kind.startswith(k + ".") for k in self.kinds
        ):
            return
        if len(self.events) == self.events.maxlen:
            self.dropped += 1
        self.events.append(ev)

    @staticmethod
    def _track(ev: Event):
        cat = ev.kind.split(".", 1)[0]
        if cat in ("frame", "channel"):
            return _PID_FABRIC, _TID_TRANSPORT
        if cat == "switch":
            return _PID_FABRIC, _TID_SWITCH
        if ev.node is None:
            return _PID_FABRIC, _TID_GLOBAL
        return _PID_CLUSTER, ev.node

    @staticmethod
    def _name(ev: Event) -> str:
        # Readability in Perfetto: replayed ops and sends surface the
        # specific op / message kind instead of the generic event kind.
        if ev.kind == "op":
            return f"op:{ev.args.get('op', '?')}"
        if ev.kind == "msg.send":
            msg = ev.args.get("msg")
            return f"send:{_json_safe(msg)}"
        return ev.kind

    def to_chrome(self) -> dict:
        records = []
        node_tids = set()
        fabric_tids = set()
        # Flow arrows (ph "s"/"f") pair each frame's wire departure with
        # its delivery.  Pending sends are keyed by (src, dst, frame seq):
        # a retransmitted frame overwrites its earlier send (the arrow
        # tracks the copy that arrived), and transport resets that reuse
        # sequence spaces overwrite stale entries the same way.  Pairs are
        # emitted only when both endpoints were retained in the ring, so
        # eviction can never leave a dangling flow id.
        pending: dict[tuple, float] = {}
        flows = []
        next_flow_id = 1
        for ev in self.events:
            pid, tid = self._track(ev)
            if pid == _PID_CLUSTER:
                node_tids.add(tid)
            else:
                fabric_tids.add(tid)
            ts = ev.t_ns / 1000.0
            rec = {
                "name": self._name(ev),
                "cat": ev.kind.split(".", 1)[0],
                "pid": pid,
                "tid": tid,
                "ts": ts,
            }
            if ev.dur_ns > 0:
                rec["ph"] = "X"
                rec["dur"] = ev.dur_ns / 1000.0
            else:
                rec["ph"] = "i"
                rec["s"] = "t"
            args = {k: _json_safe(v) for k, v in ev.args.items()}
            args["kind"] = ev.kind
            args["seq"] = ev.seq
            if ev.parent is not None:
                args["parent"] = ev.parent
            if ev.node is not None:
                args["node"] = ev.node
            rec["args"] = args
            records.append(rec)
            if ev.kind == "frame.send":
                pending[(ev.node, ev.args["dst"], ev.args["seq"])] = ts
            elif ev.kind == "frame.deliver":
                sent_ts = pending.pop(
                    (ev.args["src"], ev.node, ev.args["seq"]), None
                )
                if sent_ts is not None:
                    flow = {
                        "name": "frame",
                        "cat": "flow",
                        "id": next_flow_id,
                        "pid": _PID_FABRIC,
                        "tid": _TID_TRANSPORT,
                    }
                    flows.append({**flow, "ph": "s", "ts": sent_ts})
                    flows.append({**flow, "ph": "f", "bp": "e", "ts": ts})
                    next_flow_id += 1
        records.extend(flows)

        meta = []

        def _meta(name: str, pid: int, label: str, tid=None):
            rec = {"name": name, "ph": "M", "pid": pid, "args": {"name": label}}
            if tid is not None:
                rec["tid"] = tid
            meta.append(rec)

        _meta("process_name", _PID_CLUSTER, "cluster")
        if self.n_nodes is not None:
            node_tids.update(range(self.n_nodes))
        for tid in sorted(node_tids):
            _meta("thread_name", _PID_CLUSTER, f"node {tid}", tid)
        _meta("process_name", _PID_FABRIC, "fabric")
        for tid, label in (
            (_TID_TRANSPORT, "transport"),
            (_TID_SWITCH, "switch"),
            (_TID_GLOBAL, "global"),
        ):
            if tid in fabric_tids:
                _meta("thread_name", _PID_FABRIC, label, tid)

        return {
            "traceEvents": meta + records,
            "displayTimeUnit": "ns",
            "otherData": {
                "generator": "repro.obs",
                "retained_events": len(records) - len(flows),
                "flow_pairs": len(flows) // 2,
                "dropped_events": self.dropped,
            },
        }

    def write(self, path) -> int:
        """Write the trace to ``path``; returns the retained event count."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome(), fh)
        return len(self.events)
