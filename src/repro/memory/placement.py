"""Page placement: who owns which page of which resource.

Implements the placement policies the paper evaluates:

- **first touch** (the MCM-GPU baseline the paper adopts): a page is
  placed in the DRAM of the first GPM that touches it;
- **interleaved**: pages round-robin across GPMs (the framebuffer of the
  naive single-programming-model baseline);
- **fixed**: all pages on one GPM (master-node framebuffer of classic
  object-level SFR);
- **replicated**: a copy on several GPMs (AFR's duplicated working set);
- **pre-allocation**: the OO-VR PA unit moves a resource's pages to a
  target GPM *before* rendering touches them, turning would-be remote
  reads into local ones at the price of one copy over the links.

Every query is a function of how many of a resource's pages each GPM
owns, never of which pages, so a resource is stored as a run-length map
from owner to page count (in first-page order) next to its cached
owner fractions.  No operation walks a resource's pages: lookups,
fixed placement and replication are O(1), while interleaving, striping
and migration cost O(GPMs or stripes).
"""

from __future__ import annotations

import enum
from types import MappingProxyType
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.memory.address import Resource


class PlacementPolicy(enum.Enum):
    """Default policy applied when a page is first touched."""

    FIRST_TOUCH = "first-touch"
    INTERLEAVED = "interleaved"


class Holding(enum.Enum):
    """How :meth:`PagePlacement.hold` left a GPM holding a resource."""

    #: The resource was unplaced and is now homed on the GPM (free).
    PLACED = "placed"
    #: Every page already lived on the GPM.
    HOME = "home"
    #: The GPM holds a full replica (added by this call or earlier).
    REPLICA = "replica"


# Plain names for the per-touch path: an enum member lookup costs a
# descriptor call (~0.1 us on CPython 3.11) per use.
_PLACED, _HOME, _REPLICA = Holding.PLACED, Holding.HOME, Holding.REPLICA


class _Entry:
    """Placement record of one resource."""

    __slots__ = ("pages", "runs", "fractions", "home", "replicas")

    def __init__(
        self,
        pages: int,
        runs: Dict[int, int],
        fractions: Mapping[int, float],
        home: Optional[int],
    ) -> None:
        self.pages = pages
        #: Pages owned per GPM, keyed in first-page order.
        self.runs = runs
        #: Read-only ``{gpm: pages owned / pages}`` in the same order.
        self.fractions = fractions
        #: The single owner of every page; ``None`` when pages are spread.
        self.home = home
        #: GPMs holding a full replica (local reads everywhere in the set).
        self.replicas: Set[int] = set()


class PagePlacement:
    """Tracks page ownership for every resource in the system."""

    def __init__(
        self,
        num_gpms: int,
        page_bytes: int,
        policy: PlacementPolicy = PlacementPolicy.FIRST_TOUCH,
    ) -> None:
        if num_gpms <= 0:
            raise ValueError("need at least one GPM")
        if page_bytes <= 0:
            raise ValueError("page size must be positive")
        self.num_gpms = num_gpms
        self.page_bytes = page_bytes
        self.policy = policy
        self._entries: Dict[Tuple[str, int], _Entry] = {}
        self._interleave_cursor = 0
        #: The fractions of a resource wholly local to each GPM, shared
        #: by every such resource.
        self._whole: Tuple[Mapping[int, float], ...] = tuple(
            MappingProxyType({gpm: 1.0}) for gpm in range(num_gpms)
        )
        #: Bytes resident per GPM (replicas counted once per holder).
        self.resident_bytes: List[float] = [0.0] * num_gpms

    # -- internal -----------------------------------------------------------

    def _check_gpm(self, gpm: int) -> None:
        if not 0 <= gpm < self.num_gpms:
            raise ValueError(f"GPM {gpm} out of range")

    def _install(self, resource: Resource, runs: Dict[int, int]) -> _Entry:
        """Record ``resource`` as owning ``runs`` pages per GPM."""
        pages = resource.num_pages(self.page_bytes)
        if len(runs) == 1:
            (home,) = runs
            entry = _Entry(pages, runs, self._whole[home], home)
        else:
            fractions = MappingProxyType(
                {gpm: count / pages for gpm, count in runs.items()}
            )
            entry = _Entry(pages, runs, fractions, None)
        self._entries[resource.resource_id] = entry
        return entry

    def _place_whole(self, resource: Resource, gpm: int) -> _Entry:
        """Home every page of ``resource`` on ``gpm`` (validated)."""
        self._check_gpm(gpm)
        entry = self._install(
            resource, {gpm: resource.num_pages(self.page_bytes)}
        )
        self.resident_bytes[gpm] += resource.size_bytes
        return entry

    def _interleave(self, resource: Resource) -> _Entry:
        """Deal ``resource``'s pages round-robin from the cursor."""
        pages = resource.num_pages(self.page_bytes)
        rounds, extra = divmod(pages, self.num_gpms)
        runs: Dict[int, int] = {}
        for offset in range(min(pages, self.num_gpms)):
            owner = (self._interleave_cursor + offset) % self.num_gpms
            count = rounds + (1 if offset < extra else 0)
            runs[owner] = count
            self.resident_bytes[owner] += count * self.page_bytes
        self._interleave_cursor += pages
        return self._install(resource, runs)

    def _place_new(self, resource: Resource, toucher: int) -> _Entry:
        self._check_gpm(toucher)
        if self.policy is PlacementPolicy.FIRST_TOUCH:
            return self._place_whole(resource, toucher)
        return self._interleave(resource)

    # -- queries ---------------------------------------------------------

    def is_placed(self, resource: Resource) -> bool:
        return resource.resource_id in self._entries

    def owner_fractions(
        self, resource: Resource, toucher: int
    ) -> Mapping[int, float]:
        """Fraction of the resource's pages owned by each GPM.

        Touching an unplaced resource places it first (first touch).  If
        ``toucher`` holds a replica, the resource is fully local to it.
        Owners appear in the order of their first page.  The returned
        mapping is cached and shared, hence read-only.
        """
        entry = self._entries.get(resource.resource_id)
        if entry is None:
            entry = self._place_new(resource, toucher)
        if toucher in entry.replicas:
            return self._whole[toucher]
        return entry.fractions

    def local_fraction(self, resource: Resource, gpm: int) -> float:
        """Fraction of the resource local to ``gpm`` (places if needed)."""
        return self.owner_fractions(resource, gpm).get(gpm, 0.0)

    def is_home(self, resource: Resource, gpm: int) -> bool:
        """Whether every page of ``resource`` *originally* lives on ``gpm``.

        Distinguishes the home DRAM from replicas: staging managers skip
        copies for resources homed on the renderer but re-stage replicas
        each frame (segmented memories are refilled per frame).
        """
        entry = self._entries.get(resource.resource_id)
        return entry is not None and entry.home == gpm

    # -- explicit placement ------------------------------------------------

    def place_fixed(self, resource: Resource, gpm: int) -> None:
        """Place every page of ``resource`` on ``gpm`` (master node)."""
        self._require_unplaced(resource)
        self._place_whole(resource, gpm)

    def place_interleaved(self, resource: Resource) -> None:
        """Round-robin ``resource``'s pages across all GPMs."""
        self._require_unplaced(resource)
        self._interleave(resource)

    def place_striped(self, resource: Resource, stripes: Sequence[int]) -> None:
        """Partition pages contiguously across ``stripes`` (DHC layout).

        Page ``i`` goes to ``stripes[i * len(stripes) // pages]`` — i.e.
        equal contiguous spans, matching the vertical framebuffer split
        of the distributed hardware composition unit (Fig. 14).
        """
        self._require_unplaced(resource)
        if not stripes:
            raise ValueError("need at least one stripe owner")
        for gpm in stripes:
            self._check_gpm(gpm)
        pages = resource.num_pages(self.page_bytes)
        width = len(stripes)
        runs: Dict[int, int] = {}
        first = 0
        for index, owner in enumerate(stripes):
            # Stripe ``index`` gets pages [first, end): every i with
            # i * width // pages == index, so end = ceil((index+1)p/w).
            end = -(-(index + 1) * pages // width)
            if end > first:
                runs[owner] = runs.get(owner, 0) + end - first
                self.resident_bytes[owner] += (end - first) * self.page_bytes
            first = end
        self._install(resource, runs)

    def hold(self, resource: Resource, gpm: int) -> Holding:
        """Make ``resource`` wholly local to ``gpm`` with one lookup.

        An unplaced resource is homed on ``gpm`` as by
        :meth:`place_fixed`; one homed elsewhere gains a replica on
        ``gpm`` as by :meth:`replicate`.  The staging managers' per-touch
        step.
        """
        entry = self._entries.get(resource.resource_id)
        if entry is None:
            self._place_whole(resource, gpm)
            return _PLACED
        if entry.home == gpm:
            return _HOME
        if gpm not in entry.replicas:
            self._check_gpm(gpm)
            entry.replicas.add(gpm)
            self.resident_bytes[gpm] += resource.size_bytes
        return _REPLICA

    def replicate(self, resource: Resource, gpms: Iterable[int]) -> None:
        """Add full replicas of ``resource`` on ``gpms`` (AFR duplication)."""
        gpm_list = list(gpms)
        for gpm in gpm_list:
            self._check_gpm(gpm)
        entry = self._entries.get(resource.resource_id)
        if entry is None:
            if not gpm_list:
                raise ValueError("replicate needs at least one GPM")
            entry = self._place_whole(resource, gpm_list[0])
        for gpm in gpm_list:
            if gpm not in entry.replicas:
                entry.replicas.add(gpm)
                self.resident_bytes[gpm] += resource.size_bytes

    def preallocate(self, resource: Resource, gpm: int) -> float:
        """PA-unit copy: make ``resource`` local to ``gpm``.

        Returns the bytes that must be copied over the links.  Never-
        touched resources are simply placed on ``gpm`` (first touch by
        the PA unit itself — free).  Already-placed resources gain a
        *replica*: render assets are read-only, so the PA duplicates
        pages instead of migrating them, and a resource shared by
        batches on several GPMs ends up resident on each — subsequent
        frames pay nothing.  The caller accounts the copy on the
        fabric; the distribution engine overlaps it with rendering of
        the previous batch.
        """
        self._check_gpm(gpm)
        entry = self._entries.get(resource.resource_id)
        if entry is None:
            # Never touched: first touch will land it locally for free.
            self._place_new(resource, gpm)
            return 0.0
        if gpm in entry.replicas or entry.home == gpm:
            return 0.0
        missing_bytes = float(
            (entry.pages - entry.runs.get(gpm, 0)) * self.page_bytes
        )
        entry.replicas.add(gpm)
        self.resident_bytes[gpm] += missing_bytes
        return missing_bytes

    def migrate(self, resource: Resource, gpm: int) -> float:
        """Re-home every page of ``resource`` onto ``gpm``.

        Unlike :meth:`preallocate` (which replicates read-only assets),
        migration *moves* ownership — the policy studied by the NUMA-GPU
        line of work the paper builds on.  Returns the bytes that cross
        the links for the move; unplaced resources place directly on
        ``gpm`` for free.  Existing replicas are dropped (they would be
        stale under a writable-page model).
        """
        self._check_gpm(gpm)
        entry = self._entries.get(resource.resource_id)
        if entry is None:
            self._place_new(resource, gpm)
            return 0.0
        moved_pages = 0
        for owner, count in entry.runs.items():
            if owner != gpm:
                self.resident_bytes[owner] -= count * self.page_bytes
                self.resident_bytes[gpm] += count * self.page_bytes
                moved_pages += count
        for replica in entry.replicas:
            if replica != gpm:
                self.resident_bytes[replica] -= resource.size_bytes
        self._install(resource, {gpm: entry.pages})
        return float(moved_pages * self.page_bytes)

    # -- maintenance -----------------------------------------------------

    def _require_unplaced(self, resource: Resource) -> None:
        if resource.resource_id in self._entries:
            raise ValueError(f"resource {resource.resource_id} already placed")

    def reset(self) -> None:
        """Forget all placements (new frame in a fresh memory image)."""
        self._entries.clear()
        self._interleave_cursor = 0
        self.resident_bytes = [0.0] * self.num_gpms

    @property
    def total_resident_bytes(self) -> float:
        """Memory footprint across all GPMs, replicas included."""
        return sum(self.resident_bytes)
