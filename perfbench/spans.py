"""In-memory spans around the program's public functions, and their sums.

The traced run installs wrappers from this module around the layer
boundaries listed in :data:`TARGETS`, patching each name where its
caller looks it up (a module attribute read at call time, or a class
attribute), so the program's own code is unchanged and ``repro.obs``'s
tracer stays disabled: enabling that tracer would push barrier shards
off the numpy kernel and so trace a different program.

A span records its layer, start, end, parent span and the plan or job
it ran for.  A layer's self time is its spans' durations minus the part
of each span that its child spans cover; its busy time is the summed
duration of its outermost spans (those with no ancestor of the same
layer), so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class Span:
    __slots__ = ("sid", "layer", "start", "end", "parent", "context")

    def __init__(
        self,
        sid: int,
        layer: str,
        start: float,
        end: float,
        parent: Optional[int],
        context: Optional[str],
    ) -> None:
        self.sid = sid
        self.layer = layer
        self.start = start
        self.end = end
        self.parent = parent
        self.context = context

    def as_dict(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in self.__slots__}


class Recorder:
    """Collects spans from any thread; each thread keeps its own stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def context(self) -> Optional[str]:
        return getattr(self._local, "context", None)

    @context.setter
    def context(self, value: Optional[str]) -> None:
        self._local.context = value

    def wrap(
        self, layer: Any, fn: Callable, context: Optional[Callable] = None
    ) -> Callable:
        """``fn`` recording one span per call.

        ``layer`` may be a callable of the call's arguments returning the
        layer name; ``context``, a callable of the same arguments, sets
        the plan or job id recorded on this span and its descendants.
        """
        name_of = layer if callable(layer) else (lambda *a, **k: layer)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            outer = self.context
            if context is not None:
                self.context = context(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
                span = Span(
                    sid, name_of(*args, **kwargs), start, end, parent, self.context
                )
                with self._lock:
                    self.spans.append(span)
                self.context = outer

        return wrapper

    # -- patching --------------------------------------------------------

    def patch(
        self, owner: Any, attr: str, layer: Any, context: Optional[Callable] = None
    ) -> None:
        # A class's own attribute, not one looked up through its bases, so
        # uninstall restores exactly what was there.
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(layer, original, context))

    def install(self, targets: Iterable[Tuple[str, str, Any]]) -> None:
        """Patch every ``(module[:Class], attribute, layer)`` target."""
        for where, attr, layer in targets:
            module_name, __, class_name = where.partition(":")
            owner: Any = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            self.patch(owner, attr, layer)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span.as_dict() for span in self.spans], handle)


def _coherence_layer(simulator: Any, *args: Any, **kwargs: Any) -> str:
    if simulator.config.cache_sync:
        return "memory.coherence.cached_sync"
    return "memory.coherence.uncached_sync"


#: Every layer boundary the traced run wraps: (module[:Class], name,
#: layer).  Module attributes are patched in each module that looks the
#: name up, because ``from x import f`` binds a copy at import time.
TARGETS: Sequence[Tuple[str, str, Any]] = (
    ("repro.exec.plan", "execute", "exec.plan"),
    ("repro.serve.app", "execute", "exec.plan"),
    ("repro.scenario.runner", "execute", "exec.plan"),
    ("repro.exec.plan:RunPlan", "validate", "exec.plan"),
    ("repro.exec.plan", "plan_from_json", "exec.plan"),
    ("repro.serve.app", "plan_from_json", "exec.plan"),
    ("repro.exec.plan", "plan_cache_key", "exec.plan"),
    ("repro.serve.app", "plan_cache_key", "exec.plan"),
    ("repro.registry.runner", "run", "registry.runner"),
    ("repro.exec.engine", "execute_barrier_points", "exec.engine"),
    ("repro.exec.engine", "execute_experiment_points", "exec.engine"),
    ("repro.exec.cache:ResultCache", "get", "exec.cache.get"),
    ("repro.exec.cache:ResultCache", "put", "exec.cache.put"),
    ("repro.exec.cache", "cache_key", "exec.cache.key"),
    ("repro.exec.cache", "payload_digest", "exec.cache.key"),
    ("repro.exec.engine", "cache_key", "exec.cache.key"),
    ("repro.exec.engine", "canonical_payload", "exec.cache.key"),
    ("repro.registry.runner", "canonical_payload", "exec.cache.key"),
    ("repro.faults.runner", "cache_key", "exec.cache.key"),
    ("repro.exec.plan", "payload_digest", "exec.cache.key"),
    ("repro.serve.app", "payload_digest", "exec.cache.key"),
    ("repro.faults.runner", "run_plan_resilient", "faults.runner"),
    ("repro.barrier.kernel_numpy", "shard_summaries", "barrier.kernel_numpy"),
    ("repro.barrier.kernel_tree_numpy", "shard_summaries", "barrier.kernel_tree_numpy"),
    ("repro.barrier.simulator:BarrierSimulator", "run", "barrier.simulator"),
    ("repro.barrier.simulator:BarrierSimulator", "run_shard", "barrier.simulator"),
    ("repro.barrier.tree:TreeBarrierSimulator", "run", "barrier.simulator"),
    ("repro.barrier.tree:TreeBarrierSimulator", "run_shard", "barrier.simulator"),
    ("repro.trace.scheduler:PostMortemScheduler", "run", "trace.scheduler"),
    ("repro.memory.coherence:CoherenceSimulator", "run", _coherence_layer),
    ("repro.network.multistage:MultistageNetwork", "run", "network.multistage"),
    ("repro.network.packet:PacketSwitchedNetwork", "run", "network.packet"),
)


def install_point_spans(recorder: Recorder) -> None:
    """Wrap every registered spec's ``run_point`` as ``registry.point``.

    Point work is the registry runner's child: its span lets the
    runner's self time exclude it (dispatch plus aggregate only).
    """
    from repro.registry import all_specs

    for spec in all_specs():
        recorder.patch(spec, "run_point", "registry.point")


# -- arithmetic -----------------------------------------------------------


def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, s), min(end, e)) for s, e in intervals if e > start and s < end
    )
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for s, e in clipped:
        if cur_start is None or s > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.sid: (span.end - span.start)
        - covered(span.start, span.end, children.get(span.sid, ()))
        for span in spans
    }


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per layer: ``calls``, ``busy_s`` (outermost spans) and ``self_s``."""
    by_id = {span.sid: span for span in spans}
    own = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(
            span.layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        entry["calls"] += 1
        entry["self_s"] += own[span.sid]
        ancestor = by_id.get(span.parent) if span.parent is not None else None
        nested = False
        while ancestor is not None:
            if ancestor.layer == span.layer:
                nested = True
                break
            ancestor = by_id.get(ancestor.parent) if ancestor.parent is not None else None
        if not nested:
            entry["busy_s"] += span.end - span.start
    return totals
