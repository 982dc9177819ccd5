"""In-memory spans for the benchmark's own calls into each layer.

A :class:`Tracer` records one span per call the benchmark makes into a
layer's public API (``with tracer.span("faults.battery"):``) plus one
``py.gc`` span per garbage-collector pass, fed by :data:`gc.callbacks`.
Nothing inside ``src/`` is patched: the layer boundaries are the benchmark's
call sites.  Spans stay in memory and are written out as JSON lines when the
run ends.

A disabled tracer's ``span`` returns a shared no-op context manager, so the
untraced runs that produce the end-to-end metrics pay one attribute lookup
and one method call per span site.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

#: Name of the spans recorded from garbage-collector callbacks.
GC_SPAN = "py.gc"


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.record: Optional[list] = None

    def __enter__(self) -> None:
        tracer = self.tracer
        stack = tracer._stack
        # Building the record may run a collection, whose span is appended
        # first; the id is therefore the position the record lands at.
        record = [0, self.name, 0, 0, stack[-1][0] if stack else None, tracer._phase]
        spans = tracer.spans
        spans.append(record)
        record[0] = len(spans) - 1
        stack.append(record)
        self.record = record
        record[2] = tracer.now_ns()

    def __exit__(self, *exc_info) -> None:
        self.record[3] = self.tracer.now_ns()
        self.tracer._stack.pop()


class Tracer:
    """Span recorder for one benchmark run.

    Each span is kept as ``[id, name, start_ns, end_ns, parent_id, phase]``;
    ``phase`` names the set-up repetition or pass the span belongs to (for
    example ``"setup:0"`` or ``"pass:3"``) so per-pass totals can be formed
    afterwards.  :meth:`enable` turns recording on for the following spans;
    a tracer that was never enabled records nothing.  Times come from
    ``clock`` (seconds), by default :func:`time.perf_counter`.
    """

    def __init__(self, workload: str, run_id: str, clock=time.perf_counter) -> None:
        self.workload = workload
        self.run_id = run_id
        self._clock = clock
        self.spans: List[list] = []
        #: Host speed factor of each set-up or pass (see ``hostspeed``).
        self.factors: Dict[str, float] = {}
        self._stack: List[list] = []
        self._phase = ""
        self._enabled = False
        self._gc_open: Optional[list] = None

    def enable(self, on: bool) -> None:
        if on and not self._enabled:
            gc.callbacks.append(self._on_gc)
        elif not on and self._enabled:
            gc.callbacks.remove(self._on_gc)
        self._enabled = on

    def now_ns(self) -> int:
        return int(self._clock() * 1e9)

    @property
    def phase(self) -> str:
        return self._phase

    def set_phase(self, phase: str) -> None:
        self._phase = phase

    def span(self, name: str):
        if not self._enabled:
            return _NULL_SPAN
        return _Span(self, name)

    def _on_gc(self, event: str, info: Mapping[str, int]) -> None:
        if event == "start":
            stack = self._stack
            self._gc_open = [
                len(self.spans),
                GC_SPAN,
                self.now_ns(),
                0,
                stack[-1][0] if stack else None,
                self._phase,
            ]
        elif self._gc_open is not None:
            record = self._gc_open
            record[3] = self.now_ns()
            self.spans.append(record)
            self._gc_open = None

    def close(self) -> None:
        self.enable(False)

    def span_records(self) -> List[Dict[str, object]]:
        """The recorded spans as dicts (the JSON-lines ``span`` records)."""
        return [
            {
                "type": "span",
                "id": span_id,
                "name": name,
                "start_ns": start,
                "end_ns": end,
                "parent": parent,
                "phase": phase,
                "workload": self.workload,
                "run": self.run_id,
            }
            for span_id, name, start, end, parent, phase in self.spans
        ]

    def factor_table(self) -> Dict[Tuple[str, str], float]:
        return {(self.run_id, phase): factor for phase, factor in self.factors.items()}

    def write_jsonl(self, path: str, header: Mapping[str, object]) -> None:
        """Write a header line, one line per phase factor, then the spans."""
        with open(path, "w", encoding="utf-8") as handle:
            lines = [{"type": "header", "workload": self.workload, "run": self.run_id, **header}]
            lines += [
                {"type": "phase", "phase": phase, "factor": factor, "run": self.run_id}
                for phase, factor in self.factors.items()
            ]
            lines += self.span_records()
            for line in lines:
                handle.write(json.dumps(line, sort_keys=True))
                handle.write("\n")


def read_trace(path: str):
    """Read a JSON-lines trace: ``(span records, {(run, phase): factor})``."""
    spans, factors = [], {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["type"] == "span":
                spans.append(record)
            elif record["type"] == "phase":
                factors[(record["run"], record["phase"])] = record["factor"]
    return spans, factors


def layer_table(
    spans: Iterable[Mapping[str, object]],
    phase_prefix: str = "pass:",
    factors: Optional[Mapping[Tuple[str, str], float]] = None,
):
    """Per span name: median total, self time and count per phase.

    ``spans`` are dict records (see :meth:`Tracer.span_records`).  Self time
    is a span's duration minus the part of it its direct children cover (the
    children of one span never overlap: the benchmark is single-threaded).
    Only spans whose phase starts with ``phase_prefix`` count; durations are
    scaled by their phase's host speed factor when ``factors`` has one;
    per-phase sums are reduced to their median over the phases seen, and a
    name missing from a phase counts as zero there.  Returns ``{name:
    {"total_s", "self_s", "count"}}`` plus the number of phases.
    """
    factors = factors or {}
    spans = [span for span in spans if str(span["phase"]).startswith(phase_prefix)]
    child_time: Dict[object, int] = {}
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            child_time[(span["run"], parent)] = child_time.get(
                (span["run"], parent), 0
            ) + (span["end_ns"] - span["start_ns"])
    phases = sorted({(span["run"], span["phase"]) for span in spans})
    per_phase: Dict[str, Dict[object, List[float]]] = {}
    for span in spans:
        key = (span["run"], span["phase"])
        scale = factors.get(key, 1.0) / 1e9
        duration = span["end_ns"] - span["start_ns"]
        own = duration - child_time.get((span["run"], span["id"]), 0)
        slot = per_phase.setdefault(span["name"], {}).setdefault(key, [0.0, 0.0, 0])
        slot[0] += duration * scale
        slot[1] += own * scale
        slot[2] += 1
    table = {}
    for name, by_phase in per_phase.items():
        rows = [by_phase.get(phase, [0.0, 0.0, 0]) for phase in phases]
        table[name] = {
            "total_s": statistics.median(row[0] for row in rows),
            "self_s": statistics.median(row[1] for row in rows),
            "count": statistics.median(row[2] for row in rows),
        }
    return table, len(phases)


def render_layer_table(
    table: Mapping[str, Mapping[str, float]], pass_s: float, title: str
) -> List[str]:
    """Format a :func:`layer_table` result as aligned text lines."""
    lines = [
        title,
        f"  {'span':<28} {'total s':>10} {'self s':>10} {'count':>8} {'share':>7}",
    ]
    for name in sorted(table, key=lambda key: -table[key]["total_s"]):
        row = table[name]
        share = row["total_s"] / pass_s if pass_s else 0.0
        lines.append(
            f"  {name:<28} {row['total_s']:>10.4f} {row['self_s']:>10.4f} "
            f"{row['count']:>8g} {share:>7.1%}"
        )
    return lines
