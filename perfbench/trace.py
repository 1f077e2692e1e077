"""In-memory spans around calls into the repository's public functions.

The traced run patches a fixed set of public functions and methods —
one or more per layer — with thin wrappers that open a span on entry
and close it on exit, then restores the originals.  Nothing inside
``src/`` records time; the wrappers live here.  Spans nest by call
stack (the serving and solving paths run in one thread), so a span's
parent is the span open when it started, and each layer's self time
is its spans' durations minus their children's.

Spans are kept in memory and exported once, at the end, in the Chrome
``trace_event`` format that
:func:`repro.telemetry.export.validate_chrome_trace` accepts.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .clock import now
from .stats import self_times

__all__ = ["LAYERS", "Tracer"]

#: The layers spans are attributed to, in report order.
LAYERS = ("gateway", "serve", "trees", "core", "simulator", "executors")

#: Request ids a span belongs to (``None``: inherit the parent's).
Req = Optional[Tuple[int, ...]]
#: Maps a wrapped call's positional arguments to (span name, layer).
Classify = Callable[[Sequence[Any]], Tuple[str, str]]


class Tracer:
    """Collects nested spans and free-standing per-request intervals."""

    def __init__(self) -> None:
        #: [name, layer, start, end, parent index or -1, request ids]
        self.spans: List[List[Any]] = []
        #: (name, start, end, request id) intervals that overlap each
        #: other (a request's queue wait, its whole life); exported on
        #: their own tracks and left out of self time.
        self.intervals: List[Tuple[str, float, float, int]] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------
    def begin(self, name: str, layer: str, req: Req = None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, now(), 0.0, parent, req])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][3] = now()
        self._stack.pop()

    def interval(self, name: str, start: float, end: float, rid: int) -> None:
        self.intervals.append((name, start, end, rid))

    def call(
        self,
        fn: Callable[..., Any],
        name: str,
        layer: str,
        *args: Any,
        req: Req = None,
        **kwargs: Any,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` inside one span."""
        index = self.begin(name, layer, req)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    # -- patching -------------------------------------------------------------
    def patch(
        self,
        owner: Any,
        attr: str,
        classify: Classify,
        req_of: Optional[Callable[[Sequence[Any]], Req]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            name, layer = classify(args)
            req = req_of(args) if req_of is not None else None
            index = tracer.begin(name, layer, req)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(index)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def instrument(self) -> Iterator["Tracer"]:
        """Patch the public entry points of every layer for one block."""
        from repro.core.arena import alphabeta as arena_alphabeta
        from repro.core.arena import boolean as arena_boolean
        from repro.core.arena import policies as arena_policies
        from repro.core.shm import engine as shm_engine
        from repro.core.shm import pool as shm_pool
        from repro.gateway import gateway as gateway_mod
        from repro.models import executors
        from repro.serve import cache, engines, service
        from repro.serve import request as request_mod

        def fixed(name: str, layer: str) -> Classify:
            return lambda args: (name, layer)

        def engine(args: Sequence[Any]) -> Tuple[str, str]:
            algo = str(args[0])
            layer = "simulator" if algo == "machine" else "core"
            return f"run_algorithm:{algo}", layer

        def batch_ids(args: Sequence[Any]) -> Req:
            return tuple(req.request_id for req in args[1])

        def one_id(args: Sequence[Any]) -> Req:
            return (args[0].request_id,)

        targets: List[Tuple[Any, str, Classify, Any]] = [
            (gateway_mod.Gateway, "step",
             fixed("Gateway.step", "gateway"), None),
            (service.ShardedBatchService, "serve",
             fixed("ShardedBatchService.serve", "serve"), batch_ids),
            (service.ShardedBatchService, "probe_shard",
             fixed("ShardedBatchService.probe_shard", "serve"), None),
            (cache.ResultCache, "get", fixed("ResultCache.get", "serve"), None),
            (cache.ResultCache, "put", fixed("ResultCache.put", "serve"), None),
            (service, "request_key", fixed("request_key", "trees"), one_id),
            (request_mod, "canonical_hash",
             fixed("canonical_hash", "trees"), None),
            (engines, "tree_from_dict", fixed("tree_from_dict", "trees"), None),
            (engines, "run_algorithm", engine, None),
            (executors.OracleRuntime, "evaluate",
             fixed("OracleRuntime.evaluate", "executors"), None),
            (shm_pool.ShmPool, "evaluate_batch",
             fixed("ShmPool.evaluate_batch", "executors"), None),
            (shm_engine.ShmSession, "__init__",
             fixed("ShmSession.__init__", "executors"), None),
            (shm_engine.ShmSession, "close",
             fixed("ShmSession.close", "executors"), None),
        ]
        # canonical_arrays is imported by name into each arena module.
        for module in (shm_engine, arena_boolean, arena_alphabeta,
                       arena_policies):
            targets.append((module, "canonical_arrays",
                            fixed("canonical_arrays", "trees"), None))
        try:
            for owner, attr, classify, req_of in targets:
                self.patch(owner, attr, classify, req_of)
            yield self
        finally:
            self.restore()

    # -- reading ------------------------------------------------------------
    def durations(self, start: int = 0, stop: Optional[int] = None
                  ) -> Dict[str, List[float]]:
        """Span durations in seconds, grouped by span name."""
        out: Dict[str, List[float]] = {}
        for name, _layer, s, e, _parent, _req in self.spans[start:stop]:
            out.setdefault(name, []).append(e - s)
        return out

    def layer_self_times(
        self, first: int, wall_start: float, wall_end: float
    ) -> Tuple[Dict[str, float], float]:
        """Self seconds per layer over ``spans[first:]`` and the seconds
        of ``[wall_start, wall_end]`` they leave uncovered.  No span may
        be open at ``first``, so parents never point before it."""
        per_layer, uncovered = self_times(
            [(s[1], s[2], s[3], s[4] - first if s[4] >= 0 else -1)
             for s in self.spans[first:]],
            wall_start, wall_end,
        )
        return {layer: per_layer.get(layer, 0.0) for layer in LAYERS}, uncovered

    def chrome(self, origin: float) -> Dict[str, object]:
        """The spans as a Chrome ``trace_event`` document.

        One process per layer (plus one per interval kind); a span's
        ``args`` carry its index, its parent's index and the request
        ids it served, inherited from the nearest ancestor that knows
        them.
        """
        tracks = list(LAYERS) + sorted({i[0] for i in self.intervals})
        pids = {track: n + 1 for n, track in enumerate(tracks)}
        events: List[Dict[str, object]] = [
            {"ph": "M", "name": "process_name", "pid": pid,
             "args": {"name": track}}
            for track, pid in pids.items()
        ]
        inherited: List[Req] = []
        for index, (name, layer, s, e, parent, req) in enumerate(self.spans):
            if req is None and parent >= 0:
                req = inherited[parent]
            inherited.append(req)
            args: Dict[str, object] = {"span": index, "parent": parent}
            if req is not None:
                args["req"] = list(req)
            events.append({
                "ph": "X", "name": name, "pid": pids[layer], "tid": 0,
                "ts": (s - origin) * 1e6, "dur": (e - s) * 1e6,
                "args": args,
            })
        for name, s, e, rid in self.intervals:
            events.append({
                "ph": "X", "name": name, "pid": pids[name], "tid": rid % 64,
                "ts": (s - origin) * 1e6, "dur": (e - s) * 1e6,
                "args": {"req": [rid]},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}
