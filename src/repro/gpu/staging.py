"""Software data staging: distributing data along with the work.

Every object-level scheme in the paper moves *data to the renderer*
rather than reading it through the links during shading:

- classic **object-level SFR** "distributes the rendering object along
  with its required data per GPM" (Section 1);
- **tile-level SFR** inherits the distributed-memory habit of cluster
  frameworks: each strip's working set is (re-)staged into its GPM's
  memory segment every frame;
- **OO_APP** stages per batch, which is cheaper because TSL grouping
  co-locates sharers and SMP halves the per-object footprint;
- **OO-VR**'s PA units stage the same bytes but *ahead of time*, so the
  copy latency hides behind the previous batch (Section 5.2).

The :class:`StagingManager` resolves those copies: per frame and per
(resource, GPM) pair it tracks how much has been staged, replicates the
pages locally (so render-time reads hit local DRAM) and computes the
shortfall each touch still has to move.  The copy itself — byte
accounting *and* pricing — is the execution engine's job: the manager
emits one staging flow per unit
(:meth:`~repro.engine.base.ExecutionEngine.stage_flow`): a single
(source, destination) pair and traffic type carrying the shortfalls as
byte chunks in touch order, and the engine decides what the copy costs
(the analytic overlap stall, or a contention-replayed wire flow under
the event engine).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Tuple

from repro.engine.base import StageOutcome
from repro.gpu.system import MultiGPUSystem
from repro.memory.address import Touch
from repro.memory.link import TrafficType
from repro.memory.placement import Holding
from repro.pipeline.workunit import WorkUnit
from repro.profiling import phase

# Enum member lookups cost a descriptor call each; _stage_touch runs
# per touch.
_PLACED, _HOME = Holding.PLACED, Holding.HOME
#: The ``stage`` profiling phase (one shared timer; stage_unit runs
#: per dispatched unit).
_STAGE_PHASE = phase("stage")


@dataclass
class StagingManager:
    """Per-frame staging bookkeeping for one rendering framework."""

    system: MultiGPUSystem
    #: Staged bytes per unique touched byte (page/mip overfetch).
    factor: float = 1.0
    #: Effective parallelism of the copy (incoming links x overlap with
    #: rendering); the stall a GPM sees is ``bytes / (link_bw x this)``.
    parallelism: float = 6.0
    #: When True the copy is fully prefetched (OO-VR's PA units): the
    #: traffic is accounted but no stall is charged.
    prefetched: bool = False
    traffic_type: TrafficType = TrafficType.TEXTURE
    _staged: Dict[Tuple[Tuple[str, int], int], float] = field(default_factory=dict)
    #: Total bytes copied this frame (tests and reports read this).
    staged_bytes: float = 0.0

    def begin_frame(self) -> None:
        """Segmented memories refill each frame: forget what was staged."""
        self._staged.clear()
        self.staged_bytes = 0.0

    def _stage_touch(self, touch: Touch, gpm: int, scale: float = 1.0) -> float:
        """Resolve one touch's placement; returns the copy shortfall.

        Pure placement bookkeeping — the returned bytes still have to
        be moved, which the engine does when :meth:`stage_unit` emits
        the collected shortfalls as the chunks of one staging flow.
        """
        resource = touch.resource
        holding = self.system.placement.hold(resource, gpm)
        if holding is _HOME:
            # The resource's home DRAM: nothing to move, ever.
            return 0.0
        key = (resource.resource_id, gpm)
        if holding is _PLACED:
            # First toucher: pages land local for free (first touch by
            # the staging copy itself).
            self._staged[key] = float(resource.size_bytes)
            return 0.0
        # ``hold`` replicated the resource, so render-time reads go to
        # local DRAM; the copy bytes accumulate with use, capped at the
        # footprint.
        factor = self.factor * scale
        staged = self._staged.get(key, 0.0)
        wanted = min(
            float(resource.size_bytes) * max(factor, 1.0),
            staged + touch.unique_bytes * factor,
        )
        shortfall = wanted - staged
        if shortfall <= 0:
            return 0.0
        self._staged[key] = wanted
        return shortfall

    def stage_unit(
        self,
        unit: WorkUnit,
        gpm: int,
        factor_scale: float = 1.0,
        overlap_from: Optional[float] = None,
    ) -> StageOutcome:
        """Stage everything ``unit`` needs on ``gpm``.

        Render-time texture reads are redirected to local DRAM by
        recording the staged copy; vertex buffers are tiny and stage
        along with the command stream.  Afterwards ``gpm`` holds every
        touched resource whole, so binding the unit there reads no
        texture or vertex bytes over the links.  The copy is one
        staging flow from the neighbouring GPM ``(gpm + 1) % n`` in
        this manager's traffic type, carrying one byte chunk per touch
        that still had a shortfall, in touch order; touches with
        nothing to move emit none.  ``factor_scale`` lets callers stage
        per view (tile-SFR copies each eye region's data even though
        SMP shares the cached footprint).  ``overlap_from``
        is the PA path: the copy streams from that point in time and
        the returned outcome carries when it lands.  All pricing — the
        stall charged on a software copy, the overlapped arrival of a
        prefetched one — is the engine's
        (:meth:`~repro.engine.base.ExecutionEngine.stage_flow`).
        """
        with _STAGE_PHASE:
            src = (gpm + 1) % self.system.num_gpms
            chunks: List[float] = []
            for touch in chain(unit.texture_touches, unit.vertex_touches):
                shortfall = self._stage_touch(touch, gpm, factor_scale)
                if shortfall:
                    chunks.append(shortfall)
            outcome = self.system.engine.stage_flow(
                gpm,
                src,
                chunks,
                self.traffic_type,
                parallelism=self.parallelism,
                prefetched=self.prefetched,
                overlap_from=overlap_from,
                staged_before=self.staged_bytes,
            )
            self.staged_bytes += outcome.copied_bytes
            return outcome
