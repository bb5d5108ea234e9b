"""Span recorders installed around the program's layer entry points.

The traced run of the benchmark wraps a fixed list of functions and
methods (:data:`LAYERS`) with :class:`Tracer` recorders.  Nothing in the
program knows about them: a wrapper replaces the attribute where callers
look the function up, and :meth:`Tracer.uninstall` puts every original
back.

Three ways a wrapper can miss its calls, and how this module avoids them:

* a name imported with ``from x import f`` is a second reference, so a
  module-level function is replaced in *every* loaded ``repro`` module that
  holds the same object, not only in the module that defines it;
* ``repro.core.estimate`` resolves to the dispatcher function, not the
  module, so modules are always reached through :data:`sys.modules`;
* work done inside a sharded walk engine's worker process is invisible
  here; it shows up only as the parent's ``walks.parallel.map_shards``
  span.

A layer's self time is its span's duration minus the time covered by the
spans it caused.  Spans nest through one stack.  That stays correct under
the service's event loop because the program runs one epoch at a time and
every span a crawl coroutine opens closes before the next layer begins.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers whose self time belongs to an entry point rather than to a layer
#: below it; reported separately so a large unexplained share stays visible.
ENTRY_LAYERS = ("core.dispatch.estimate", "service.server.step")


# ----------------------------------------------------------------------
# Counters: work counts measured at the same boundaries as the spans.
# ``before(instance, args, kwargs)`` runs before the call;
# ``counts(parent, instance, args, kwargs, result, before)`` after it
# returns {count name: amount}.  *parent* is the enclosing span's layer.
# ----------------------------------------------------------------------
def _api_before(instance, args, kwargs):
    return instance.counter.unique_nodes


def _api_counts(parent, instance, args, kwargs, result, before):
    # degrees_batch calls neighbors_batch and degree calls neighbors: count
    # a request once, at the outermost API span.
    if parent == "osn.api":
        return {}
    nodes = args[0] if args else next(iter(kwargs.values()))
    return {
        "nodes_requested": len(nodes) if hasattr(nodes, "__len__") else 1,
        "nodes_charged": instance.counter.unique_nodes - before,
    }


def _resilience_before(instance, args, kwargs):
    return instance.retries, instance.failed_attempts


def _resilience_counts(parent, instance, args, kwargs, result, before):
    if parent == "osn.resilience":
        return {}
    return {
        "retries": instance.retries - before[0],
        "failed_attempts": instance.failed_attempts - before[1],
    }


def _walks_counts(parent, instance, args, kwargs, result, before):
    # unbiased_estimate_batch(graph, design, nodes, start, t, seed, repetitions)
    nodes = args[2] if len(args) > 2 else kwargs["nodes"]
    repetitions = args[6] if len(args) > 6 else kwargs.get("repetitions", 1)
    return {"walks": len(nodes) * repetitions}


def _steps_counts(parent, instance, args, kwargs, result, before):
    # run_walk_batch(graph, design, starts, steps, ...)
    starts = args[2] if len(args) > 2 else kwargs["starts"]
    steps = args[3] if len(args) > 3 else kwargs["steps"]
    return {"steps": len(starts) * steps}


def _accept_counts(parent, instance, args, kwargs, result, before):
    accepted, _ = result
    return {"accepted": int(accepted.sum()), "candidates": int(accepted.size)}


def _crawl_before(instance, args, kwargs):
    return instance.clock.now


def _crawl_counts(parent, instance, args, kwargs, result, before):
    return {"rows": result.new_rows, "sim_wait_s": instance.clock.now - before}


def _compact_counts(parent, instance, args, kwargs, result, before):
    return {"rows": int(result.fetched.sum())}


def _checkpoint_counts(parent, instance, args, kwargs, result, before):
    return {"bytes": os.path.getsize(result)}


@dataclass(frozen=True)
class Layer:
    """One wrapped entry point: where it lives and what it counts."""

    name: str
    module: str
    attribute: str
    owner: Optional[str] = None
    counts: Optional[Callable] = None
    before: Optional[Callable] = None


def _methods(name, module, owner, attributes, **kwargs) -> List[Layer]:
    return [Layer(name, module, a, owner=owner, **kwargs) for a in attributes]


_API_METHODS = ["neighbors_batch", "degrees_batch", "neighbors", "degree"]

#: Every layer the traced run records, named after the program's modules.
LAYERS: Tuple[Layer, ...] = (
    Layer("core.dispatch.estimate", "repro.core.dispatch", "estimate"),
    *_methods(
        "service.server.step", "repro.service.server", "SamplingService", ["step"]
    ),
    Layer(
        "core.unbiased.unbiased_estimate_batch",
        "repro.core.unbiased",
        "unbiased_estimate_batch",
        counts=_walks_counts,
    ),
    Layer(
        "walks.batch.run_walk_batch",
        "repro.walks.batch",
        "run_walk_batch",
        counts=_steps_counts,
    ),
    *_methods(
        "core.rejection.accept_batch",
        "repro.core.rejection",
        "RejectionSampler",
        ["accept_batch"],
        counts=_accept_counts,
    ),
    *_methods(
        "osn.api",
        "repro.osn.api",
        "SocialNetworkAPI",
        _API_METHODS,
        counts=_api_counts,
        before=_api_before,
    ),
    *_methods(
        "osn.resilience",
        "repro.osn.resilience",
        "ResilientAPI",
        _API_METHODS,
        counts=_resilience_counts,
        before=_resilience_before,
    ),
    *_methods(
        "core.estimate",
        "repro.core.estimate",
        "ProbabilityEstimator",
        ["estimate", "refine"],
    ),
    Layer("core.weighted.ws_bw_batch", "repro.core.weighted", "ws_bw_batch"),
    Layer(
        "core.weighted.weighted_backward_estimate",
        "repro.core.weighted",
        "weighted_backward_estimate",
    ),
    *_methods(
        "core.crawl",
        "repro.core.crawl",
        "InitialCrawl",
        ["__init__", "probability", "probabilities_batch"],
    ),
    Layer("walks.walker.run_walk", "repro.walks.walker", "run_walk"),
    *_methods(
        "crawl.crawler.crawl_chunk",
        "repro.crawl.crawler",
        "AsyncCrawler",
        ["crawl_chunk"],
        counts=_crawl_counts,
        before=_crawl_before,
    ),
    *_methods(
        "graphs.discovered.compact",
        "repro.graphs.discovered",
        "DiscoveredGraph",
        ["compact"],
        counts=_compact_counts,
    ),
    *_methods(
        "crawl.publisher.publish",
        "repro.crawl.publisher",
        "TopologyPublisher",
        ["publish"],
    ),
    *_methods(
        "service.jobs", "repro.service.jobs", "Job", ["absorb", "current_estimate"]
    ),
    *_methods(
        "walks.parallel.map_shards",
        "repro.walks.parallel",
        "ShardedWalkEngine",
        ["map_shards"],
    ),
    Layer(
        "service.checkpoint.write",
        "repro.service.checkpoint",
        "write",
        counts=_checkpoint_counts,
    ),
    *_methods("graphs.csr.compile", "repro.graphs.graph", "Graph", ["compile"]),
)

#: The counts each layer reports besides ``calls`` and ``self_s``, with units.
LAYER_COUNTS: Dict[str, Dict[str, str]] = {
    "core.unbiased.unbiased_estimate_batch": {"walks": "count"},
    "walks.batch.run_walk_batch": {"steps": "count"},
    "osn.api": {"nodes_requested": "count", "nodes_charged": "count"},
    "osn.resilience": {"retries": "count", "failed_attempts": "count"},
    "crawl.crawler.crawl_chunk": {"rows": "count", "sim_wait_s": "sim_s"},
    "graphs.discovered.compact": {"rows": "count"},
    "service.checkpoint.write": {"bytes": "B"},
}

#: Metrics derived from the counts, with their units.
DERIVED_UNITS: Dict[str, str] = {
    "osn.api.cache_hit_ratio": "ratio",
    "core.rejection.accept_batch.accept_ratio": "ratio",
    "walks.parallel.map_shards.self_s_per_call": "s",
    "walks.parallel.spawn_s": "s",
}


def layer_names() -> List[str]:
    """Distinct layer names, in declaration order."""
    return list(dict.fromkeys(layer.name for layer in LAYERS))


@dataclass
class LayerStats:
    """Totals one layer accumulated over a traced run."""

    calls: int = 0
    self_s: float = 0.0
    counts: Dict[str, float] = field(default_factory=lambda: defaultdict(float))


class Tracer:
    """Installs span recorders, accumulates per-layer totals, removes them.

    Spans are kept as running totals in memory and read by :meth:`report`
    when the traced run ends.  Self time of spans that close inside a
    timed op (between :meth:`begin_op` and :meth:`end_op`) is also kept
    per layer, so :meth:`coverage` can say how much of op time the named
    layers explain.
    """

    def __init__(self) -> None:
        self.stats: Dict[str, LayerStats] = defaultdict(LayerStats)
        self.op_self_s: Dict[str, float] = defaultdict(float)
        self.spawn_s = 0.0
        self._stack: List[List[Any]] = []  # [layer, seconds in child spans]
        self._in_op = False
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        self._forked_engines: weakref.WeakSet = weakref.WeakSet()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _enter(self, layer: str) -> Optional[str]:
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([layer, 0.0])
        return parent

    def _exit(self, layer: str, elapsed: float) -> None:
        _, child_s = self._stack.pop()
        stats = self.stats[layer]
        stats.calls += 1
        stats.self_s += elapsed - child_s
        if self._in_op:
            self.op_self_s[layer] += elapsed - child_s
        if self._stack:
            self._stack[-1][1] += elapsed

    def _wrap(self, spec: Layer, original: Callable, bound: bool) -> Callable:
        tracer = self
        layer = spec.name

        def start(args, kwargs):
            instance, rest = (args[0], args[1:]) if bound else (None, args)
            state = spec.before(instance, rest, kwargs) if spec.before else None
            return instance, rest, state, tracer._enter(layer), time.perf_counter()

        def finish(began, instance, rest, kwargs, result, state, parent):
            elapsed = time.perf_counter() - began
            tracer._exit(layer, elapsed)
            if spec.counts is not None:
                totals = tracer.stats[layer].counts
                found = spec.counts(parent, instance, rest, kwargs, result, state)
                for key, amount in found.items():
                    totals[key] += amount
            if layer == "walks.parallel.map_shards":
                # The first round of an engine forks its worker pool.
                if instance not in tracer._forked_engines:
                    tracer._forked_engines.add(instance)
                    tracer.spawn_s += elapsed

        @functools.wraps(original)
        async def async_wrapper(*args, **kwargs):
            instance, rest, state, parent, began = start(args, kwargs)
            try:
                result = await original(*args, **kwargs)
            except BaseException:
                tracer._exit(layer, time.perf_counter() - began)
                raise
            finish(began, instance, rest, kwargs, result, state, parent)
            return result

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            instance, rest, state, parent, began = start(args, kwargs)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._exit(layer, time.perf_counter() - began)
                raise
            finish(began, instance, rest, kwargs, result, state, parent)
            return result

        return async_wrapper if inspect.iscoroutinefunction(original) else wrapper

    def begin_op(self) -> None:
        """Mark the start of a timed op."""
        self._in_op = True

    def end_op(self) -> None:
        """Mark the end of a timed op."""
        self._in_op = False

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer entry point, importing its module if needed."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for spec in LAYERS:
            __import__(spec.module)
            module = sys.modules[spec.module]
            if spec.owner is not None:
                owner = getattr(module, spec.owner)
                original = vars(owner)[spec.attribute]
                wrapper = self._wrap(spec, original, bound=True)
                self._patch(owner, spec.attribute, original, wrapper)
                continue
            original = getattr(module, spec.attribute)
            wrapper = self._wrap(spec, original, bound=False)
            # Every module that imported the function by name holds its own
            # reference; replace each one.
            for loaded in list(sys.modules.values()):
                name = getattr(loaded, "__name__", None)
                if not isinstance(name, str) or name.split(".")[0] != "repro":
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, attr, original, wrapper)

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, wrapper))

    def uninstall(self) -> None:
        """Restore every original; raise if something else replaced one."""
        for owner, attr, original, wrapper in reversed(self._patches):
            if vars(owner).get(attr) is not wrapper:
                raise RuntimeError(f"{owner!r}.{attr} was changed while traced")
            setattr(owner, attr, original)
        self._patches.clear()

    @property
    def installed(self) -> int:
        """Number of attributes currently replaced by a wrapper."""
        return len(self._patches)

    # ------------------------------------------------------------------
    # Report
    # ------------------------------------------------------------------
    def report(self) -> Dict[str, float]:
        """Flat per-layer metrics: ``<layer>.calls``, ``<layer>.self_s``,
        the layer's counts, and the metrics derived from them."""
        out: Dict[str, float] = {}
        for name in layer_names():
            stats = self.stats.get(name, LayerStats())
            out[f"{name}.calls"] = stats.calls
            out[f"{name}.self_s"] = stats.self_s
            for key in LAYER_COUNTS.get(name, {}):
                out[f"{name}.{key}"] = stats.counts.get(key, 0)
        api = self.stats.get("osn.api", LayerStats()).counts
        requested = api.get("nodes_requested", 0)
        charged = api.get("nodes_charged", 0)
        out["osn.api.cache_hit_ratio"] = 1 - charged / requested if requested else 0
        accept = self.stats.get("core.rejection.accept_batch", LayerStats()).counts
        candidates = accept.get("candidates", 0)
        accepted = accept.get("accepted", 0)
        ratio = accepted / candidates if candidates else 0
        out["core.rejection.accept_batch.accept_ratio"] = ratio
        shards = self.stats.get("walks.parallel.map_shards", LayerStats())
        per_call = shards.self_s / shards.calls if shards.calls else 0
        out["walks.parallel.map_shards.self_s_per_call"] = per_call
        out["walks.parallel.spawn_s"] = self.spawn_s
        return out

    def coverage(self, op_seconds: float) -> Tuple[float, float]:
        """Share of *op_seconds* explained by the named layers' self time,
        with and without the entry points' own self time."""
        if op_seconds <= 0:
            return 0.0, 0.0
        total = sum(self.op_self_s.values())
        entry = sum(self.op_self_s.get(name, 0.0) for name in ENTRY_LAYERS)
        return total / op_seconds, (total - entry) / op_seconds
