"""In-memory spans around the calls one matchgames module makes into another.

``installed(tracer)`` rebinds the public names listed in ``TARGETS`` to
timing wrappers for the length of a ``with`` block and restores the
originals afterwards.  Private names are never wrapped and nothing in
the package is edited, so the untraced run executes exactly the shipped
code.  Each span records its name, start, end, parent span and op id;
the counts each layer reports are read from the wrapped calls' results
once the op has ended, outside every timed interval.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import inspect
import json
import time
from array import array
from typing import Dict, List, Optional

# (module, public name, span name).  A name is wrapped where the caller
# looks it up, so a function bound in two modules is listed twice.
GAME_CLASSES = (
    "BimatrixGame",
    "PotentialGame",
    "ZeroSumGame",
    "StrictlyCompetitiveGame",
    "TransferGame",
    "RepeatedGame",
)
TARGETS = (
    ("matchgames.serde", "load_json", "serde.load"),
    ("matchgames.serde", "parse_instance", "serde.parse"),
    *(("matchgames.serde", cls, "games.build") for cls in GAME_CLASSES),
    ("matchgames.cli", "run_propose_dispose", "propose.run"),
    ("matchgames.propose", "run_propose_dispose", "propose.run"),
    ("matchgames.cli", "refine", "refine.refine"),
    ("matchgames.refine", "refine", "refine.refine"),
    ("matchgames.refine", "outside_options", "cne.outside_options"),
    ("matchgames.refine", "find_blocking_pair", "stability.blocking"),
    ("matchgames.stability", "find_blocking_pair", "stability.blocking"),
    ("matchgames.cli", "is_externally_stable", "stability.external"),
    ("matchgames.stability", "is_externally_stable", "stability.external"),
    ("matchgames.oracle", "is_externally_stable", "stability.external"),
    ("matchgames.cli", "is_internally_stable", "stability.internal"),
    ("matchgames.oracle", "is_internally_stable", "stability.internal"),
    ("matchgames.oracle", "enumerate_stable", "oracle.enumerate"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "args", "result", "attrs")

    def __init__(self, name: str, start: int, parent: Optional[int], op: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.args = None
        self.result = None
        self.attrs: Dict[str, object] = {}


class Tracer:
    """Spans of the current op; ``parent`` is an index into ``spans``."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: List[Span] = []
        self.op = 0
        self._stack: List[int] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.clock(), parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        if self.spans[self._stack.pop()] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def take_op(self) -> List[Span]:
        """Hand over the finished op's spans and start the next op."""
        if self._stack:
            raise RuntimeError("op ended with open spans")
        spans, self.spans = self.spans, []
        self.op += 1
        return spans


def _wrap(tracer: Tracer, fn, name: str):
    if inspect.isgeneratorfunction(fn):

        def traced_gen(*args, **kwargs):
            span = tracer.begin(name)
            span.args = args + tuple(kwargs.values())
            yielded = 0
            try:
                for item in fn(*args, **kwargs):
                    yielded += 1
                    yield item
            finally:
                tracer.end(span)
                span.attrs["yielded"] = yielded

        return traced_gen

    def traced(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        span.args = args + tuple(kwargs.values())
        span.result = result
        return result

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, original, span_name))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def annotate(spans: List[Span]) -> None:
    """Read each layer's counts from the results its spans kept, then drop them.

    Runs after the op has ended, so none of this is timed.
    """
    count_profiles = importlib.import_module("matchgames.oracle").count_profiles
    for span in spans:
        result, args = span.result, span.args
        if span.name == "propose.run":
            state = result[1]
            span.attrs.update(
                iterations=state.iterations,
                bound=state.iteration_bound,
                competes=sum(1 for line in state.trace if line.startswith("event=compete ")),
            )
        elif span.name == "refine.refine":
            events = [line.split(" ", 1)[0] for line in result.trace]
            span.attrs.update(
                passes=result.passes,
                converged=result.status.value == "Converged",
                visits=sum(e in ("event=visit", "event=replace", "event=stuck") for e in events),
                replacements=events.count("event=replace"),
            )
        elif span.name == "games.build":
            span.attrs["menu"] = len(result.menu())
        elif span.name == "oracle.enumerate":
            span.attrs.update(profiles=count_profiles(args[0]), notion=args[2])
        span.args = span.result = None


def self_times(spans: List[Span]) -> List[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def op_summary(spans: List[Span]) -> dict:
    """Per-layer self time, calls and counts of one op's spans.

    ``total_ns`` is the root span's duration; the self times of all
    spans add up to it exactly, which the caller checks.
    """
    own = self_times(spans)
    roots = [s for s in spans if s.parent is None]
    if len(roots) != 1:
        raise RuntimeError(f"op has {len(roots)} root spans")
    layers: Dict[str, dict] = {}
    for span, ns in zip(spans, own):
        entry = layers.setdefault(span.name, {"self_ns": 0, "calls": 0})
        entry["self_ns"] += ns
        entry["calls"] += 1
    counts: Dict[str, int] = {
        "propose.iterations": 0,
        "propose.bound": 0,
        "propose.competes": 0,
        "refine.calls": 0,
        "refine.converged": 0,
        "refine.passes": 0,
        "refine.visits": 0,
        "refine.replacements": 0,
        "games.menu_contracts": 0,
        "games.menu_max": 0,
        "oracle.profiles": 0,
        "oracle.stable_external": 0,
        "oracle.stable_internal": 0,
        "stability.internal_deviations": 0,
    }
    for span in spans:
        a = span.attrs
        if span.name == "propose.run":
            counts["propose.iterations"] += a["iterations"]
            counts["propose.bound"] += a["bound"]
            counts["propose.competes"] += a["competes"]
        elif span.name == "refine.refine":
            counts["refine.calls"] += 1
            counts["refine.converged"] += a["converged"]
            for key in ("passes", "visits", "replacements"):
                counts["refine." + key] += a[key]
        elif span.name == "games.build":
            counts["games.menu_contracts"] += a["menu"]
            counts["games.menu_max"] = max(counts["games.menu_max"], a["menu"])
        elif span.name == "oracle.enumerate":
            counts["oracle.profiles"] += a["profiles"]
            counts["oracle.stable_" + a["notion"]] += a["yielded"]
        elif span.name == "stability.blocking" and span.parent is not None:
            if spans[span.parent].name == "stability.internal":
                counts["stability.internal_deviations"] += 1
    return {
        "root": roots[0].name,
        "total_ns": roots[0].end - roots[0].start,
        "self_sum_ns": sum(own),
        "layers": layers,
        "counts": counts,
    }


class SpanLog:
    """Every traced op's spans, kept in memory in compact columns until the run ends.

    An oracle-crosscheck op makes thousands of spans, so each is kept as
    five machine integers rather than as an object.
    """

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.columns = {key: array("q") for key in ("name", "start", "end", "parent", "op")}

    def __len__(self) -> int:
        return len(self.columns["op"])

    def extend(self, spans: List[Span]) -> None:
        cols = self.columns
        for s in spans:
            if s.name not in self._name_ids:
                self._name_ids[s.name] = len(self.names)
                self.names.append(s.name)
            cols["name"].append(self._name_ids[s.name])
            cols["start"].append(s.start)
            cols["end"].append(s.end)
            cols["parent"].append(-1 if s.parent is None else s.parent)
            cols["op"].append(s.op)

    def rows(self):
        """One ``[name, start_ns, end_ns, parent, op]`` per span; ``parent`` is
        the index of the parent among its op's spans, or None for the op's root."""
        cols = self.columns
        for name, start, end, parent, op in zip(*(cols[k] for k in ("name", "start", "end", "parent", "op"))):
            yield [self.names[name], start, end, None if parent < 0 else parent, op]

    def write(self, path) -> None:
        """Write the spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for row in self.rows():
                fh.write(json.dumps(row) + "\n")
