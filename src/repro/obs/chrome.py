"""Export traces to Chrome's ``trace_event`` JSON format.

The output opens directly in ``chrome://tracing`` and in Perfetto's
legacy-trace importer (https://ui.perfetto.dev), giving a zoomable
timeline of a run: one *process* row per DSM system, one *thread* row per
component (MCS-process, IS-process, channel, link), and **flow arrows**
connecting each message send to its receive — which, for IS traffic, are
exactly the causal edges the paper's interconnecting protocol creates.

Mapping:

* virtual time → microseconds at ``TIME_SCALE`` (1 sim unit = 1 ms, so
  sub-unit delays stay visible);
* ``phase="X"`` events (e.g. a completed operation with its latency)
  → complete events with ``dur``;
* ``phase="B"``/``"E"`` → duration begin/end pairs;
* instant events → ``ph: "i"`` with thread scope;
* ``msg.send``/``msg.recv`` carrying the same ``(channel, n)`` — and
  ``is.pair_send``/``is.pair_recv`` carrying the same ``(link, seq)`` —
  → a flow ``s``/``f`` pair;
* vector-clock annotations are surfaced in each event's ``args`` so the
  causal position is one click away in the UI.

Chrome requires integer ``pid``/``tid``; names are attached via ``M``
(metadata) records, as the format specifies.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Union

from repro.obs.tracer import TraceEvent, _encode_arg

#: Microseconds per unit of virtual time (1 sim unit renders as 1 ms).
TIME_SCALE = 1000.0

#: (send kind, recv kind) -> arg keys whose values pair the two ends.
_FLOW_KINDS = {
    ("msg.send", "msg.recv"): ("channel", "n"),
    ("is.pair_send", "is.pair_recv"): ("link", "seq"),
}


def _flow_key(event: TraceEvent) -> tuple[Any, ...] | None:
    for (send_kind, recv_kind), arg_keys in _FLOW_KINDS.items():
        if event.kind == send_kind:
            return ("s", send_kind) + tuple(event.arg(key) for key in arg_keys)
        if event.kind == recv_kind:
            return ("f", send_kind) + tuple(event.arg(key) for key in arg_keys)
    return None


def _event_args(event: TraceEvent) -> dict[str, Any]:
    args: dict[str, Any] = {key: _encode_arg(value) for key, value in event.args}
    if event.clock is not None:
        args["vector_clock"] = " ".join(f"p{proc}:{count}" for proc, count in event.clock)
    args["virtual_ts"] = event.ts
    return args


def to_chrome(events: Iterable[TraceEvent]) -> dict[str, Any]:
    """Convert an event stream to a Chrome ``trace_event`` document."""
    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}
    records: list[dict[str, Any]] = []
    # Flow ids must pair a send with exactly one receive; a (channel, n)
    # key repeats across retransmissions, so track open sends explicitly.
    flow_ids: dict[tuple[Any, ...], list[int]] = {}
    next_flow_id = 1

    def pid_of(system: str) -> int:
        label = system or "sim"
        if label not in pids:
            pids[label] = len(pids) + 1
            records.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pids[label],
                    "tid": 0,
                    "args": {"name": label},
                }
            )
        return pids[label]

    def tid_of(system: str, component: str) -> int:
        pid = pid_of(system)
        key = (system or "sim", component)
        if key not in tids:
            tids[key] = len(tids) + 1
            records.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tids[key],
                    "args": {"name": component},
                }
            )
        return tids[key]

    for event in events:
        pid = pid_of(event.system)
        tid = tid_of(event.system, event.component)
        ts = event.ts * TIME_SCALE
        record: dict[str, Any] = {
            "name": event.kind,
            "cat": event.kind.split(".", 1)[0],
            "ph": event.phase,
            "ts": ts,
            "pid": pid,
            "tid": tid,
            "args": _event_args(event),
        }
        if event.phase == "X":
            record["dur"] = (event.dur or 0.0) * TIME_SCALE
        elif event.phase == "i":
            record["s"] = "t"
        records.append(record)

        flow = _flow_key(event)
        if flow is None:
            continue
        direction, *key_parts = flow
        key = tuple(key_parts)
        if direction == "s":
            flow_id = next_flow_id
            next_flow_id += 1
            flow_ids.setdefault(key, []).append(flow_id)
            records.append(
                {
                    "name": key[0],
                    "cat": "flow",
                    "ph": "s",
                    "ts": ts,
                    "pid": pid,
                    "tid": tid,
                    "id": flow_id,
                }
            )
        else:
            pending = flow_ids.get(key)
            if pending:
                records.append(
                    {
                        "name": key[0],
                        "cat": "flow",
                        "ph": "f",
                        "bp": "e",
                        "ts": ts,
                        "pid": pid,
                        "tid": tid,
                        "id": pending.pop(0),
                    }
                )

    return {
        "traceEvents": records,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs.chrome",
            "time_scale_us_per_virtual_unit": TIME_SCALE,
        },
    }


def write_chrome(events: Iterable[TraceEvent], path: Union[str, Path]) -> int:
    """Write the Chrome-format document for *events* to *path*.

    Returns the number of trace records written (including metadata and
    flow records).
    """
    document = to_chrome(events)
    Path(path).write_text(json.dumps(document), encoding="utf-8")
    return len(document["traceEvents"])


__all__ = ["TIME_SCALE", "to_chrome", "write_chrome"]
