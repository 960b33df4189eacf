"""Benchmark-side spans, server span trees and self time.

Every span belongs to one of the repository's modules (its *layer*). A
span's self time is its duration minus the part of its interval that its
children cover (their union, so overlapping children count once).

Modeled FPGA device time is not wall time: spans marked `modeled` are kept
for the Chrome export but never enter wall-time self time.
"""
import json
import threading
import time

# Server-side span names (src/obs trace output) -> layer. `run` minus its
# `map_records` child is the registry acquire (and the load, when the index
# was not resident), so its self time belongs to the store.
SERVER_LAYER = {
    "queue_wait": "jobs",
    "run": "store",
    "map_records": "mapper",
    "shard": "mapper",
    "seed": "mapper",
    "search": "fmindex",
    "locate": "mapper",
    "sam": "mapper",
}


def server_layer(name):
    if name.startswith("job:"):
        return "jobs"
    if name.startswith("build:"):
        return "build"
    if name.startswith("fpga:"):
        return "fpga"
    return SERVER_LAYER.get(name, "unattributed")


class Span:
    __slots__ = ("sid", "parent", "name", "layer", "start_ms", "dur_ms", "trace_id",
                 "modeled", "args")

    def __init__(self, sid, parent, name, layer, start_ms, dur_ms, trace_id="",
                 modeled=False, args=None):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.layer = layer
        self.start_ms = start_ms
        self.dur_ms = dur_ms
        self.trace_id = trace_id
        self.modeled = modeled
        self.args = args or {}

    @property
    def end_ms(self):
        return self.start_ms + self.dur_ms


def union_length(intervals, lo, hi):
    """Length of the union of [a, b) intervals, clipped to [lo, hi)."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """{sid: self time in ms} for every wall-time span (modeled spans and
    their subtrees are skipped)."""
    children = {}
    for span in spans:
        if not span.modeled:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        if span.modeled:
            continue
        kids = [(c.start_ms, c.end_ms) for c in children.get(span.sid, ())]
        out[span.sid] = span.dur_ms - union_length(kids, span.start_ms, span.end_ms)
    return out


def unattributed_ms(parent_ms, child_ms):
    """What a parent span's named children leave unexplained (never negative:
    summed per-shard CPU can exceed the parent's wall)."""
    return max(0.0, parent_ms - sum(child_ms))


class Recorder:
    """Thread-safe span store for the benchmark's own spans (kept in memory,
    written out once at the end)."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._next = 1
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()

    def now_ms(self):
        return (time.perf_counter() - self._epoch) * 1e3

    def ms_of(self, perf_seconds):
        return (perf_seconds - self._epoch) * 1e3

    def add(self, name, layer, start_ms, dur_ms, parent=0, trace_id="", modeled=False,
            args=None):
        if not self.enabled:
            return 0
        with self._lock:
            sid = self._next
            self._next += 1
            self.spans.append(Span(sid, parent, name, layer, start_ms, dur_ms, trace_id,
                                   modeled, args))
        return sid

    def graft(self, server_spans, parent, start_ms, dur_ms, trace_id, modeled_names=()):
        """Attach one server trace (the `spans` list of a /trace/recent or
        --profile trace) under a benchmark span. The server clock is not the
        client's, so the tree is end-aligned inside [start_ms, start_ms+dur_ms]
        (the response leaves the server after the job finishes)."""
        if not self.enabled or not server_spans:
            return
        root_end = max(s["start_ms"] + max(s["dur_ms"], 0.0) for s in server_spans)
        shift = start_ms + dur_ms - root_end
        ids = {}
        with self._lock:
            for s in server_spans:
                ids[s["id"]] = self._next
                self._next += 1
            modeled_ids = set()
            # Server span ids grow parent-first, so one pass marks the
            # descendants of a modeled span as modeled too.
            for s in sorted(server_spans, key=lambda s: s["id"]):
                name = s["name"]
                modeled = (name in modeled_names or name.startswith("fpga:")
                           or s["parent"] in modeled_ids)
                if modeled:
                    modeled_ids.add(s["id"])
                pid = ids.get(s["parent"], parent) if s["parent"] else parent
                self.spans.append(Span(ids[s["id"]], pid, name, server_layer(name),
                                       s["start_ms"] + shift, max(s["dur_ms"], 0.0),
                                       trace_id, modeled))

    def chrome(self):
        """Chrome trace_event JSON (complete events, microseconds)."""
        events = []
        for s in self.spans:
            events.append({"name": s.name, "cat": s.layer + (",modeled" if s.modeled else ""),
                           "ph": "X", "ts": round(s.start_ms * 1e3, 3),
                           "dur": round(s.dur_ms * 1e3, 3), "pid": 1,
                           "tid": s.trace_id or "bench",
                           "args": dict(s.args, id=s.sid, parent=s.parent)})
        return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
