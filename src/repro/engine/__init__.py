"""Pluggable execution engines for the multi-GPU simulator.

The engine layer separates *what the machine is* (GPMs, DRAMs, links,
placement — :class:`~repro.gpu.system.MultiGPUSystem`) from *when
things happen on it*:

- :class:`~repro.engine.analytic.AnalyticEngine` (``"analytic"``, the
  default) — the paper-reproducing per-unit roofline; numerically
  identical to the original in-system timing;
- :class:`~repro.engine.event.EventEngine` (``"event"``) — a
  discrete-event simulation that time-shares link and DRAM bandwidth
  across concurrently active flows and emits a real
  :class:`~repro.engine.trace.FrameTrace`.

Engines are selected end-to-end by name: ``SystemConfig(engine=...)``,
``RunSpec(engine=...)``, ``Session/Sweep.engine(...)``, the framework
variant grammar (``oo-vr:engine=event``) and ``oovr sweep --engine``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple, Type

from repro.engine.analytic import AnalyticEngine
from repro.engine.base import (
    CompositionSchedule,
    CompositionTransfer,
    EngineError,
    ExecutionEngine,
    LinkFlow,
    ResolvedUnit,
    StageOutcome,
    classify_bottleneck,
)
from repro.engine.event import EventEngine
from repro.engine.trace import PHASES, FrameTrace, LinkUsage, TraceInterval

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpu.system import MultiGPUSystem

__all__ = [
    "ENGINE_DEFAULT",
    "ENGINE_NAMES",
    "PHASES",
    "AnalyticEngine",
    "CompositionSchedule",
    "CompositionTransfer",
    "EngineError",
    "EventEngine",
    "ExecutionEngine",
    "FrameTrace",
    "LinkFlow",
    "LinkUsage",
    "ResolvedUnit",
    "StageOutcome",
    "TraceInterval",
    "build_engine",
    "classify_bottleneck",
    "validate_engine_name",
]

_ENGINES: Dict[str, Type[ExecutionEngine]] = {
    AnalyticEngine.name: AnalyticEngine,
    EventEngine.name: EventEngine,
}

#: The behaviour-preserving default every figure is calibrated under.
ENGINE_DEFAULT = AnalyticEngine.name

#: Selectable engine names, in stable order.
ENGINE_NAMES: Tuple[str, ...] = tuple(sorted(_ENGINES))


def validate_engine_name(name: str) -> None:
    """Raise :class:`EngineError` unless ``name`` is a known engine."""
    if name not in _ENGINES:
        raise EngineError(
            f"unknown execution engine {name!r}; have {list(ENGINE_NAMES)}"
        )


def build_engine(name: str, system: "MultiGPUSystem") -> ExecutionEngine:
    """Instantiate the engine ``name`` for ``system``."""
    validate_engine_name(name)
    return _ENGINES[name](system)
