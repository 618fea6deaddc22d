"""In-memory span tracer wrapped around the simulator's public layer calls.

The benchmark measures from outside the program: :meth:`Tracer.install`
replaces each public function named in :data:`WRAPS` (module functions
at every module that imported them, methods on the defining class and
on every loaded subclass that overrides them) with a wrapper that
records one span per call.  A span's parent is the innermost open span
of the calling thread; a span opened on another thread (the sweep
daemon's request handlers) takes as parent the innermost open span of
the thread that installed the tracer, i.e. the client call that caused
it.  :meth:`Tracer.uninstall` puts every original back.

Spans live in flat arrays until :meth:`Tracer.dump` writes them out at
the end of a run.  :meth:`Tracer.rows` folds them into per-function
call counts and self times (span duration minus the time its child
spans cover) plus an ``other`` row: traced wall time that no top-level
span covers.  The rows sum to the wall time, and every self time is
non-negative, when the spans form a forest in time: each child span lies
within its parent and spans with the same parent (top-level spans
included) do not overlap.  :meth:`Tracer.nesting_problems` checks
exactly that, so a cross-thread span that outlives the call it was
parented to is reported rather than folded into a negative self time.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: (metric prefix, defining module, qualified name, extra measurement).
#: The measurement, when given, maps a call's return value to
#: ``(counter name, amount)`` summed over the run.
WRAPS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("scene.cached_scene", "repro.session.spec", "cached_scene", None),
    (
        "pipeline.DrawCharacterizer.characterize_frame",
        "repro.pipeline.characterize",
        "DrawCharacterizer.characterize_frame",
        None,
    ),
    (
        "core.OOMiddleware.build_batches",
        "repro.core.middleware",
        "OOMiddleware.build_batches",
        None,
    ),
    ("engine.ExecutionEngine.bind", "repro.engine.base", "ExecutionEngine.bind", None),
    (
        "memory.PagePlacement.owner_fractions",
        "repro.memory.placement",
        "PagePlacement.owner_fractions",
        None,
    ),
    (
        "gpu.StagingManager.stage_unit",
        "repro.gpu.staging",
        "StagingManager.stage_unit",
        None,
    ),
    (
        "engine.ExecutionEngine.stage_flow",
        "repro.engine.base",
        "ExecutionEngine.stage_flow",
        None,
    ),
    (
        "engine.ExecutionEngine.execute",
        "repro.engine.base",
        "ExecutionEngine.execute",
        None,
    ),
    (
        "core.DistributionEngine.dispatch",
        "repro.core.distribution",
        "DistributionEngine.dispatch",
        None,
    ),
    (
        "core.RenderingTimePredictor.observe",
        "repro.core.predictor",
        "RenderingTimePredictor.observe",
        None,
    ),
    (
        "gpu.MultiGPUSystem.frame_result",
        "repro.gpu.system",
        "MultiGPUSystem.frame_result",
        None,
    ),
    (
        "engine.ExecutionEngine.finish_frame",
        "repro.engine.base",
        "ExecutionEngine.finish_frame",
        None,
    ),
    ("gpu.compose_distributed", "repro.gpu.composition", "compose_distributed", None),
    ("gpu.compose_master", "repro.gpu.composition", "compose_master", None),
    (
        "engine.ExecutionEngine.composition_phase",
        "repro.engine.base",
        "ExecutionEngine.composition_phase",
        None,
    ),
    ("session.ResultCache.put", "repro.session.cache", "ResultCache.put", None),
    (
        "session.ResultCache.get",
        "repro.session.cache",
        "ResultCache.get",
        lambda found: ("session.ResultCache.hits", found is not None),
    ),
    ("session.spec_key", "repro.session.cache", "spec_key", None),
    (
        "service.ServiceClient.submit",
        "repro.service.client",
        "ServiceClient.submit",
        None,
    ),
    (
        "service.ServiceClient.events",
        "repro.service.client",
        "ServiceClient.events",
        None,
    ),
    (
        "service.ServiceClient.fetch",
        "repro.service.client",
        "ServiceClient.fetch",
        lambda payloads: (
            "service.fetched_bytes",
            sum(len(payload) for payload in payloads.values()),
        ),
    ),
)

#: Loaded before wrapping: the engines, so each one's ``finish_frame``
#: override is wrapped too, and the service package, so its own
#: ``spec_key`` references are rebound.
_PRELOAD = ("repro.engine.analytic", "repro.engine.event", "repro.service")


class Tracer:
    """Spans in flat arrays: name id, parent index, start, end."""

    def __init__(self) -> None:
        self.names: List[str] = [name for name, _, _, _ in WRAPS]
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name_id: int, fn: Callable, measure: Optional[Callable]):
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                home = self._home_stack
                parent = home[-1] if home else -1
            with self._lock:
                index = len(self.start)
                self.name_of.append(name_id)
                self.parent.append(parent)
                self.end.append(0.0)
                self.start.append(time.perf_counter())
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = time.perf_counter()
                stack.pop()
            if measure is not None:
                counter, amount = measure(result)
                with self._lock:
                    self.counters[counter] = (
                        self.counters.get(counter, 0.0) + amount
                    )
            return result

        return traced

    def install(self) -> "Tracer":
        """Wrap every :data:`WRAPS` target; returns ``self``."""
        for module_name in _PRELOAD:
            importlib.import_module(module_name)
        for name_id, (_, module_name, qualname, measure) in enumerate(WRAPS):
            module = importlib.import_module(module_name)
            if "." in qualname:
                class_name, method = qualname.split(".")
                self._wrap_method(
                    getattr(module, class_name), method, name_id, measure
                )
            else:
                self._wrap_function(module, qualname, name_id, measure)
        return self

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_function(self, module, attr, name_id, measure) -> None:
        original = getattr(module, attr)
        wrapper = self._wrap(name_id, original, measure)
        # Every module that did ``from <module> import <attr>`` holds
        # its own reference; rebind each one.
        for loaded in list(sys.modules.values()):
            if (
                getattr(loaded, "__name__", "").startswith("repro")
                and loaded.__dict__.get(attr) is original
            ):
                self._patch(loaded, attr, wrapper)

    def _wrap_method(self, cls, attr, name_id, measure) -> None:
        pending = [cls]
        while pending:
            klass = pending.pop()
            pending.extend(klass.__subclasses__())
            if attr in klass.__dict__:
                original = klass.__dict__[attr]
                self._patch(klass, attr, self._wrap(name_id, original, measure))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------

    def rows(self, wall_start: float, wall_end: float) -> Dict[str, float]:
        """Per-function ``.calls``/``.self_s`` plus ``trace.other_s``."""
        count = len(self.start)
        covered = [0.0] * count
        roots: List[Tuple[float, float]] = []
        for index in range(count):
            duration = self.end[index] - self.start[index]
            parent = self.parent[index]
            if parent >= 0:
                covered[parent] += duration
            else:
                roots.append((self.start[index], self.end[index]))
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for index in range(count):
            name_id = self.name_of[index]
            calls[name_id] += 1
            self_s[name_id] += (
                self.end[index] - self.start[index] - covered[index]
            )
        # Wall time no top-level span covers (their union, subtracted).
        union = 0.0
        reach = wall_start
        for begin, finish in sorted(roots):
            begin = max(begin, reach)
            if finish > begin:
                union += finish - begin
                reach = finish
        wall = wall_end - wall_start
        out: Dict[str, float] = {}
        for name_id, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[name_id]
            out[f"{name}.self_s"] = self_s[name_id]
        out["trace.other_s"] = wall - union
        return out

    def nesting_problems(self, limit: int = 5) -> List[str]:
        """Spans that end outside their parent or overlap a sibling
        (at most ``limit`` of them); empty when the spans form a forest."""
        problems: List[str] = []
        children: Dict[int, List[int]] = {}
        for index in range(len(self.start)):
            parent = self.parent[index]
            children.setdefault(parent, []).append(index)
            if parent >= 0 and not (
                self.start[parent] <= self.start[index]
                and self.end[index] <= self.end[parent]
            ):
                problems.append(
                    f"{self.names[self.name_of[index]]} span {index} ends "
                    f"outside its parent {self.names[self.name_of[parent]]}"
                )
        for parent, group in children.items():
            group.sort(key=self.start.__getitem__)
            for before, after in zip(group, group[1:]):
                if self.start[after] < self.end[before]:
                    problems.append(
                        f"{self.names[self.name_of[after]]} span {after} "
                        f"overlaps its sibling "
                        f"{self.names[self.name_of[before]]} span {before}"
                    )
        return problems[:limit]

    def dump(self, path: Path) -> None:
        """Write the spans as columnar JSON (times in microseconds
        from the first span)."""
        origin = self.start[0] if len(self.start) else 0.0
        document = {
            "names": self.names,
            "name": self.name_of.tolist(),
            "parent": self.parent.tolist(),
            "start_us": [round((t - origin) * 1e6, 3) for t in self.start],
            "dur_us": [
                round((e - s) * 1e6, 3) for s, e in zip(self.start, self.end)
            ],
            "counters": self.counters,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, separators=(",", ":")))


def traced(body: Callable[[], object], trace: bool = True):
    """Run and time ``body()``; when ``trace``, under a :class:`Tracer` and
    a phase capture (for the event engine's window counters).

    Returns ``(value, start, end, tracer, profile)`` on the
    ``perf_counter`` clock; ``tracer`` and ``profile`` are None untraced.
    """
    if not trace:
        start = time.perf_counter()
        value = body()
        return value, start, time.perf_counter(), None, None
    from repro.profiling import PhaseProfile, capture

    profile = PhaseProfile()
    with Tracer() as tracer, capture(profile):
        start = time.perf_counter()
        value = body()
        end = time.perf_counter()
    return value, start, end, tracer, profile
