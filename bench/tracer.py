"""Per-layer spans recorded from outside the library.

``Tracer.install()`` temporarily replaces the layer functions that
``solscout.pipeline`` calls (and a few below it) with wrappers that
record a span per call, and ``restore()`` puts every original back. Spans are kept
in memory as ``(id, parent, name, start, end)`` and written out once the
scan is over. Each thread keeps its own parent stack; a worker thread
with an empty stack hangs its spans under the main thread's open span,
so the per-rule thread pool of a record-mode scan nests correctly.
Garbage-collector pauses are charged, through ``gc.callbacks``, to the
innermost span open on the collecting thread.
"""

from __future__ import annotations

import gc
import itertools
import json
import threading
from collections import Counter, defaultdict
from time import perf_counter

class Tracer:
    def __init__(self):
        self.spans: list = []  # (id, parent, name, start, end)
        self.gc_pause: dict = defaultdict(float)  # span id -> seconds
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._main_ident = threading.get_ident()
        self._main_stack: list = []
        self._local = threading.local()
        self._patches: list = []

    # -- spans ---------------------------------------------------------

    def _stack(self) -> list:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self, stack: list) -> int:
        if stack:
            return stack[-1]
        try:
            return self._main_stack[-1]
        except IndexError:  # the main thread closed its last span meanwhile
            return 0

    def open(self) -> tuple:
        stack = self._stack()
        parent = self._current(stack)
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, stack

    def close(self, handle: tuple, name: str, start: float) -> None:
        sid, parent, stack = handle
        end = perf_counter()
        stack.pop()
        self.spans.append((sid, parent, name, start, end))

    def count(self, **deltas) -> None:
        with self._lock:
            self.counters.update(deltas)

    def wrap(self, func, name: str, counter=None):
        """``func`` recording a span ``name``; ``counter(tracer, result)`` counts."""
        tracer = self

        def traced(*args, **kwargs):
            handle = tracer.open()
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(handle, name, start)
            if counter is not None:
                counter(tracer, result)
            return result

        traced.__wrapped__ = func
        return traced

    # -- garbage collector -------------------------------------------

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._local.gc_start = perf_counter()
            return
        start = getattr(self._local, "gc_start", None)
        if start is None:
            return
        self._local.gc_start = None
        # No lock: collections never overlap, and one may start while
        # this thread holds ``_lock`` in ``count()``.
        self.gc_pause[self._current(self._stack())] += perf_counter() - start

    # -- install / restore --------------------------------------------

    def patch(self, owner, attr: str, name: str, counter=None) -> None:
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(original.__func__, name, counter))
        else:
            replacement = self.wrap(original, name, counter)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def install(self) -> None:
        """Wrap the layer boundaries of one ``solscout.pipeline.scan``."""
        from solscout import confirm, pipeline
        from solscout.frontend import parser
        from solscout.gateway import LlmGateway, Transcript

        try:
            for attr, name, counter in (
                ("prepare_scan", "pipeline.prepare", None),
                ("_process_candidate", "pipeline.candidate", None),
                ("discover_sources", "project.discover", None),
                ("parse_source", "frontend.parse", None),
                ("load_signature_set", "project.whitelist", None),
                ("filter_openzeppelin", "project.whitelist", None),
                ("build_call_graph", "callgraph.build", _count_graph),
                ("compute_reachability", "callgraph.reach", _count_reach),
                ("load_rules", "rules.load", None),
                ("candidates_for_rule", "filters.filter", None),
                ("assemble_context", "callgraph.context", None),
                ("build_scenario_prompt", "gateway.prompt_build", None),
                ("build_property_prompt", "gateway.prompt_build", None),
                ("build_recognition_prompt", "gateway.prompt_build", None),
                ("confirm_candidate", "confirm.candidate", _count_confirm),
            ):
                self.patch(pipeline, attr, name, counter)
            self.patch(parser, "strip_comments", "frontend.lex")
            self.patch(parser, "tokenize", "frontend.lex", _count_tokens)
            self.patch(confirm, "build_def_use", "confirm.defuse")
            self.patch(LlmGateway, "ask", "gateway.ask")
            self.patch(LlmGateway, "complete", "gateway.complete", _count_exchange)
            self.patch(Transcript, "load", "gateway.transcript_io")
            self._trace_record_file(LlmGateway)
            gc.callbacks.append(self._on_gc)
        except BaseException:
            self.restore()
            raise

    def _trace_record_file(self, gateway_class) -> None:
        """Span the record-mode gateway's transcript writes and flushes."""
        original = vars(gateway_class)["__init__"]
        tracer = self

        def init(gateway, *args, **kwargs):
            original(gateway, *args, **kwargs)
            if gateway._record_fh is not None:
                gateway._record_fh = _TracedFile(gateway._record_fh, tracer)

        self._patches.append((gateway_class, "__init__", original))
        gateway_class.__init__ = init

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "spans": self.spans,
                "gc_pause": {str(k): v for k, v in self.gc_pause.items()},
                "counters": dict(self.counters),
            }, fh)


class _TracedFile:
    def __init__(self, fh, tracer: Tracer):
        self.write = tracer.wrap(fh.write, "gateway.transcript_io")
        self.flush = tracer.wrap(fh.flush, "gateway.transcript_io")
        self.close = fh.close


def _count_graph(tracer, graph) -> None:
    tracer.count(edges=len(graph.edges), unresolved=len(graph.unresolved))


def _count_reach(tracer, reach) -> None:
    tracer.count(reachable=len(reach.reachable))


def _count_confirm(tracer, finding) -> None:
    tracer.count(confirmed=finding.verdict == "confirmed")


def _count_tokens(tracer, tokens) -> None:
    tracer.count(tokens=len(tokens))


def _count_exchange(tracer, exchange) -> None:
    tracer.count(tokens_in=exchange.tokens_in, tokens_out=exchange.tokens_out)


# ----------------------------------------------------------------------
# arithmetic on recorded spans


def covered(start: float, end: float, intervals: list) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list) -> dict:
    """Span id -> duration minus the part its children cover.

    Children may overlap (worker threads), so their union is subtracted,
    never their sum.
    """
    children = defaultdict(list)
    for _sid, parent, _name, start, end in spans:
        children[parent].append((start, end))
    return {
        sid: (end - start) - covered(start, end, children.get(sid, ()))
        for sid, _parent, _name, start, end in spans
    }


def layer_totals(spans: list) -> tuple:
    """Per span name: (calls, summed duration, summed self time)."""
    own = self_times(spans)
    calls, total, selfs = Counter(), defaultdict(float), defaultdict(float)
    for sid, _parent, name, start, end in spans:
        calls[name] += 1
        total[name] += end - start
        selfs[name] += own[sid]
    return calls, total, selfs


def layer_metrics(trace: dict, stats: dict, rules: int,
                  service_s: float = 0.0, slots: int = 1) -> dict:
    """Per-layer metric name -> value for one traced scan.

    ``stats`` is the scan's ``meta.stats``; ``service_s`` is the fake
    provider's summed service time during the scan (0 on replay) and
    ``slots`` the client's in-flight limit.
    """
    spans = trace["spans"]
    calls, total, selfs = layer_totals(spans)
    names = {sid: name for sid, _p, name, _s, _e in spans}
    counters = Counter(trace["counters"])
    gc_frontend = gc_other = 0.0
    for sid, pause in trace["gc_pause"].items():
        if names.get(int(sid), "").startswith("frontend."):
            gc_frontend += pause
        else:
            gc_other += pause

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    queries = calls["gateway.complete"]
    scan_wall = total["pipeline.scan"]
    return {
        "frontend.parse_s": total["frontend.parse"],
        "frontend.lex_s": total["frontend.lex"],
        "frontend.parse_self_s": selfs["frontend.parse"],
        "frontend.tokens": counters["tokens"],
        "frontend.tokens_per_s": per(counters["tokens"], total["frontend.parse"]),
        "frontend.parse_failures": stats["parse_failures"],
        "frontend.gc_pause_s": gc_frontend,
        "pipeline.gc_pause_s": gc_other,
        "project.discover_s": total["project.discover"],
        "project.files": stats["files_included"],
        "project.whitelist_s": total["project.whitelist"],
        "project.whitelist_kept_frac": per(stats["functions_after_whitelist"],
                                           stats["functions_total"]),
        "rules.load_s": total["rules.load"],
        "callgraph.build_s": total["callgraph.build"],
        "callgraph.edges": counters["edges"],
        "callgraph.unresolved": counters["unresolved"],
        "callgraph.reach_s": total["callgraph.reach"],
        "callgraph.reachable_frac": per(counters["reachable"],
                                        stats["functions_after_whitelist"]),
        "callgraph.context_s": total["callgraph.context"],
        "callgraph.context_ms_per_candidate": per(total["callgraph.context"],
                                                  calls["callgraph.context"], 1e3),
        "filters.filter_s": total["filters.filter"],
        "filters.pass_frac": per(stats["candidates_filtered"],
                                 stats["functions_reachable"] * rules),
        "confirm.defuse_s": total["confirm.defuse"],
        "confirm.check_s": selfs["confirm.candidate"],
        "confirm.ms_per_candidate": per(total["confirm.candidate"],
                                        calls["confirm.candidate"], 1e3),
        "confirm.confirmed_frac": per(counters["confirmed"], calls["confirm.candidate"]),
        "gateway.queries": queries,
        "gateway.retries": queries - calls["gateway.ask"],
        "gateway.tokens_in": counters["tokens_in"],
        "gateway.tokens_out": counters["tokens_out"],
        "gateway.prompt_build_s": total["gateway.prompt_build"],
        "gateway.transcript_io_s": total["gateway.transcript_io"],
        "gateway.complete_s": total["gateway.complete"],
        "gateway.transport_ms_per_query": per(total["gateway.complete"] - service_s,
                                              queries, 1e3),
        "gateway.provider_busy_frac": per(service_s, scan_wall * slots),
        "report.emit_s": total["report.emit"],
        "pipeline.prepare_s": total["pipeline.prepare"],
        "pipeline.self_s": sum(v for k, v in selfs.items() if k.startswith("pipeline.")),
        "pipeline.candidates": stats["candidates_filtered"],
    }


def layer_shares(spans: list) -> dict:
    """Layer (name prefix) -> share of all self time inside the scan."""
    _calls, _total, selfs = layer_totals(spans)
    by_layer = defaultdict(float)
    for name, seconds in selfs.items():
        if name != "bench.scan":
            by_layer[name.split(".")[0]] += seconds
    whole = sum(by_layer.values())
    return {layer: seconds / whole for layer, seconds in by_layer.items()} if whole else {}
