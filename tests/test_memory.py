"""Memory substrate: pages, placement, caches, DRAM, links, remote cache."""

import pytest

from repro.memory.address import (
    Resource,
    ResourceKind,
    Touch,
    texture_resource,
    vertex_resource,
)
from repro.memory.cache import (
    CacheStats,
    SetAssociativeCache,
    miss_bytes,
    working_set_hit_rate,
)
from repro.memory.dram import DramTracker, make_trackers
from repro.memory.link import LinkFabric, TrafficType
from repro.memory.placement import Holding, PagePlacement, PlacementPolicy
from repro.memory.remote_cache import RemoteCache

KB = 1024
MB = 1024 * KB
PAGE = 64 * KB


class TestResourcesAndTouches:
    def test_num_pages_rounds_up(self):
        r = texture_resource(0, PAGE + 1)
        assert r.num_pages(PAGE) == 2

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Resource(("tex", 0), ResourceKind.TEXTURE, 0)

    def test_touch_stream_floored_at_unique(self):
        touch = Touch(texture_resource(0, MB), unique_bytes=100.0, stream_bytes=10.0)
        assert touch.stream_bytes == 100.0

    def test_touch_scaling(self):
        touch = Touch(texture_resource(0, MB), unique_bytes=100.0, stream_bytes=400.0)
        half = touch.scaled(0.5)
        assert half.unique_bytes == 50.0
        assert half.stream_bytes == 200.0

    def test_negative_touch_rejected(self):
        with pytest.raises(ValueError):
            Touch(texture_resource(0, MB), unique_bytes=-1.0)


class TestPlacement:
    def test_first_touch_places_on_toucher(self):
        placement = PagePlacement(4, PAGE, PlacementPolicy.FIRST_TOUCH)
        r = texture_resource(0, 4 * PAGE)
        fractions = placement.owner_fractions(r, toucher=2)
        assert fractions == {2: 1.0}

    def test_first_touch_sticky(self):
        placement = PagePlacement(4, PAGE)
        r = texture_resource(0, 4 * PAGE)
        placement.owner_fractions(r, toucher=2)
        assert placement.owner_fractions(r, toucher=3) == {2: 1.0}

    def test_interleaved_spreads_pages(self):
        placement = PagePlacement(4, PAGE, PlacementPolicy.INTERLEAVED)
        r = texture_resource(0, 8 * PAGE)
        fractions = placement.owner_fractions(r, toucher=0)
        assert fractions == {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25}

    def test_place_fixed(self):
        placement = PagePlacement(4, PAGE)
        r = texture_resource(0, 2 * PAGE)
        placement.place_fixed(r, 1)
        assert placement.local_fraction(r, 1) == 1.0
        assert placement.local_fraction(r, 0) == 0.0

    def test_double_place_rejected(self):
        placement = PagePlacement(4, PAGE)
        r = texture_resource(0, PAGE)
        placement.place_fixed(r, 0)
        with pytest.raises(ValueError):
            placement.place_fixed(r, 1)

    def test_striped_placement(self):
        placement = PagePlacement(4, PAGE)
        r = texture_resource(0, 8 * PAGE)
        placement.place_striped(r, [0, 1, 2, 3])
        fractions = placement.owner_fractions(r, toucher=0)
        assert fractions == {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25}

    def test_replica_makes_local(self):
        placement = PagePlacement(4, PAGE)
        r = texture_resource(0, 4 * PAGE)
        placement.place_fixed(r, 0)
        placement.replicate(r, [3])
        assert placement.local_fraction(r, 3) == 1.0
        # Original owner still local too.
        assert placement.local_fraction(r, 0) == 1.0

    def test_replication_counts_resident_bytes(self):
        placement = PagePlacement(4, PAGE)
        r = texture_resource(0, 4 * PAGE)
        placement.place_fixed(r, 0)
        before = placement.total_resident_bytes
        placement.replicate(r, [1, 2])
        assert placement.total_resident_bytes == before + 2 * r.size_bytes

    def test_is_home_true_only_for_owner(self):
        placement = PagePlacement(4, PAGE)
        r = texture_resource(0, 2 * PAGE)
        placement.place_fixed(r, 1)
        placement.replicate(r, [2])
        assert placement.is_home(r, 1)
        assert not placement.is_home(r, 2)
        assert not placement.is_home(r, 0)

    def test_preallocate_unplaced_is_free(self):
        placement = PagePlacement(4, PAGE)
        r = texture_resource(0, 4 * PAGE)
        assert placement.preallocate(r, 2) == 0.0
        assert placement.local_fraction(r, 2) == 1.0

    def test_preallocate_copies_missing_pages(self):
        placement = PagePlacement(4, PAGE)
        r = texture_resource(0, 4 * PAGE)
        placement.place_fixed(r, 0)
        copied = placement.preallocate(r, 1)
        assert copied == 4 * PAGE
        assert placement.local_fraction(r, 1) == 1.0

    def test_preallocate_idempotent(self):
        placement = PagePlacement(4, PAGE)
        r = texture_resource(0, 4 * PAGE)
        placement.place_fixed(r, 0)
        placement.preallocate(r, 1)
        assert placement.preallocate(r, 1) == 0.0

    def test_reset_forgets(self):
        placement = PagePlacement(4, PAGE)
        r = texture_resource(0, PAGE)
        placement.place_fixed(r, 0)
        placement.reset()
        assert not placement.is_placed(r)
        assert placement.total_resident_bytes == 0.0

    @pytest.mark.parametrize("gpm", [-1, -4, 4, 7])
    def test_out_of_range_gpm_rejected_where_state_is_created(self, gpm):
        """Negative ids must not alias real GPMs in ``resident_bytes``."""
        placement = PagePlacement(4, PAGE)
        r = texture_resource(0, 2 * PAGE)
        placed = texture_resource(1, 2 * PAGE)
        placement.place_fixed(placed, 0)
        attempts = [
            lambda: placement.place_fixed(r, gpm),
            lambda: placement.place_striped(r, [0, gpm]),
            lambda: placement.replicate(r, [gpm]),
            lambda: placement.replicate(placed, [1, gpm]),
            lambda: placement.preallocate(r, gpm),
            lambda: placement.preallocate(placed, gpm),
            lambda: placement.owner_fractions(r, gpm),
            lambda: placement.hold(r, gpm),
            lambda: placement.hold(placed, gpm),
            lambda: placement.migrate(placed, gpm),
        ]
        for attempt in attempts:
            with pytest.raises(ValueError, match="out of range"):
                attempt()
            assert not placement.is_placed(r)
            assert placement.resident_bytes == [2.0 * PAGE, 0.0, 0.0, 0.0]
            assert placement.owner_fractions(placed, 1) == {0: 1.0}

    def test_interleaved_first_touch_validates_toucher(self):
        placement = PagePlacement(4, PAGE, PlacementPolicy.INTERLEAVED)
        r = texture_resource(0, 8 * PAGE)
        with pytest.raises(ValueError):
            placement.owner_fractions(r, -2)
        assert not placement.is_placed(r)

    def test_owner_fractions_are_read_only(self):
        placement = PagePlacement(4, PAGE)
        whole = texture_resource(0, 2 * PAGE)
        other = texture_resource(1, 2 * PAGE)
        spread = texture_resource(2, 8 * PAGE)
        placement.place_fixed(whole, 1)
        placement.place_fixed(other, 1)
        placement.place_interleaved(spread)
        for resource in (whole, spread):
            fractions = placement.owner_fractions(resource, 1)
            with pytest.raises(TypeError):
                fractions[1] = 0.5  # type: ignore[index]
            with pytest.raises(TypeError):
                del fractions[1]  # type: ignore[attr-defined]
        # The shared single-owner mapping is untouched for every holder.
        assert placement.owner_fractions(whole, 1) == {1: 1.0}
        assert placement.owner_fractions(other, 0) == {1: 1.0}
        assert placement.owner_fractions(spread, 0) == {
            0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25
        }

    def test_hold_places_then_replicates(self):
        placement = PagePlacement(4, PAGE)
        r = texture_resource(0, 2 * PAGE)
        assert placement.hold(r, 1) is Holding.PLACED
        assert placement.hold(r, 1) is Holding.HOME
        assert placement.hold(r, 2) is Holding.REPLICA
        assert placement.hold(r, 2) is Holding.REPLICA
        assert placement.resident_bytes == [0.0, 2.0 * PAGE, 2.0 * PAGE, 0.0]
        assert placement.is_home(r, 1) and not placement.is_home(r, 2)
        assert placement.local_fraction(r, 2) == 1.0


class _PerPagePlacement:
    """Reference model: one owner entry per page, every query a scan.

    The page-by-page semantics :class:`PagePlacement` must reproduce
    from its run-length records, with the same range checks.
    """

    def __init__(self, num_gpms, page_bytes, policy):
        self.num_gpms = num_gpms
        self.page_bytes = page_bytes
        self.policy = policy
        self.owners = {}
        self.replicas = {}
        self.cursor = 0
        self.resident_bytes = [0.0] * num_gpms

    def _check(self, gpm):
        if not 0 <= gpm < self.num_gpms:
            raise ValueError(f"GPM {gpm} out of range")

    def _set(self, resource, owners):
        self.owners[resource.resource_id] = owners
        self.replicas[resource.resource_id] = set()

    def _deal(self, resource):
        owners = []
        for _ in range(resource.num_pages(self.page_bytes)):
            owner = self.cursor % self.num_gpms
            self.cursor += 1
            owners.append(owner)
            self.resident_bytes[owner] += self.page_bytes
        self._set(resource, owners)

    def _place_new(self, resource, toucher):
        self._check(toucher)
        if self.policy is PlacementPolicy.FIRST_TOUCH:
            self._fixed(resource, toucher)
        else:
            self._deal(resource)

    def _fixed(self, resource, gpm):
        self._check(gpm)
        self._set(resource, [gpm] * resource.num_pages(self.page_bytes))
        self.resident_bytes[gpm] += resource.size_bytes

    def _unplaced(self, resource):
        if resource.resource_id in self.owners:
            raise ValueError("already placed")

    def is_placed(self, resource):
        return resource.resource_id in self.owners

    def owner_fractions(self, resource, toucher):
        if resource.resource_id not in self.owners:
            self._place_new(resource, toucher)
        if toucher in self.replicas[resource.resource_id]:
            return {toucher: 1.0}
        owners = self.owners[resource.resource_id]
        counts = {}
        for owner in owners:
            counts[owner] = counts.get(owner, 0.0) + 1.0
        return {gpm: count / len(owners) for gpm, count in counts.items()}

    def local_fraction(self, resource, gpm):
        return self.owner_fractions(resource, gpm).get(gpm, 0.0)

    def is_home(self, resource, gpm):
        owners = self.owners.get(resource.resource_id)
        return owners is not None and all(o == gpm for o in owners)

    def place_fixed(self, resource, gpm):
        self._unplaced(resource)
        self._fixed(resource, gpm)

    def place_interleaved(self, resource):
        self._unplaced(resource)
        self._deal(resource)

    def place_striped(self, resource, stripes):
        self._unplaced(resource)
        if not stripes:
            raise ValueError("need at least one stripe owner")
        for gpm in stripes:
            self._check(gpm)
        pages = resource.num_pages(self.page_bytes)
        owners = [stripes[i * len(stripes) // pages] for i in range(pages)]
        for owner in owners:
            self.resident_bytes[owner] += self.page_bytes
        self._set(resource, owners)

    def hold(self, resource, gpm):
        if not self.is_placed(resource):
            self.place_fixed(resource, gpm)
            return Holding.PLACED
        if self.is_home(resource, gpm):
            return Holding.HOME
        self.replicate(resource, [gpm])
        return Holding.REPLICA

    def replicate(self, resource, gpms):
        gpms = list(gpms)
        for gpm in gpms:
            self._check(gpm)
        if resource.resource_id not in self.owners:
            if not gpms:
                raise ValueError("replicate needs at least one GPM")
            self._fixed(resource, gpms[0])
        replicas = self.replicas[resource.resource_id]
        for gpm in gpms:
            if gpm not in replicas:
                replicas.add(gpm)
                self.resident_bytes[gpm] += resource.size_bytes

    def preallocate(self, resource, gpm):
        self._check(gpm)
        if resource.resource_id not in self.owners:
            self._place_new(resource, gpm)
            return 0.0
        owners = self.owners[resource.resource_id]
        replicas = self.replicas[resource.resource_id]
        local = sum(1 for owner in owners if owner == gpm)
        if gpm in replicas or local == len(owners):
            return 0.0
        missing = float((len(owners) - local) * self.page_bytes)
        replicas.add(gpm)
        self.resident_bytes[gpm] += missing
        return missing

    def migrate(self, resource, gpm):
        self._check(gpm)
        if resource.resource_id not in self.owners:
            self._place_new(resource, gpm)
            return 0.0
        owners = self.owners[resource.resource_id]
        moved = 0
        for index, owner in enumerate(owners):
            if owner != gpm:
                self.resident_bytes[owner] -= self.page_bytes
                self.resident_bytes[gpm] += self.page_bytes
                owners[index] = gpm
                moved += 1
        for replica in self.replicas[resource.resource_id]:
            if replica != gpm:
                self.resident_bytes[replica] -= resource.size_bytes
        self.replicas[resource.resource_id] = set()
        return float(moved * self.page_bytes)

    def reset(self):
        self.owners.clear()
        self.replicas.clear()
        self.cursor = 0
        self.resident_bytes = [0.0] * self.num_gpms


def _random_operation(rng, resources, num_gpms):
    """One ``(method, args)`` call, now and then with a bad GPM id."""
    resource = rng.choice(resources)

    def gpm():
        return rng.randrange(-1, num_gpms + 1) if rng.random() < 0.05 \
            else rng.randrange(num_gpms)

    choice = rng.randrange(11)
    if choice == 0:
        return "place_fixed", (resource, gpm())
    if choice == 1:
        return "place_interleaved", (resource,)
    if choice == 2:
        stripes = [gpm() for _ in range(rng.randrange(0, 2 * num_gpms + 2))]
        return "place_striped", (resource, stripes)
    if choice == 3:
        return "replicate", (resource, [gpm() for _ in range(rng.randrange(3))])
    if choice == 4:
        return "preallocate", (resource, gpm())
    if choice == 5:
        return "migrate", (resource, gpm())
    if choice == 6:
        return "hold", (resource, gpm())
    if choice == 7:
        return "local_fraction", (resource, gpm())
    if choice == 8 and rng.random() < 0.1:
        return "reset", ()
    return "owner_fractions", (resource, gpm())


class TestPlacementOracle:
    """The run-length placement against the per-page reference."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_operation_sequences_match(self, seed):
        import random

        rng = random.Random(seed)
        num_gpms = rng.randrange(1, 6)
        page_bytes = rng.choice([4 * KB, PAGE])
        policy = rng.choice(list(PlacementPolicy))
        resources = [
            texture_resource(i, rng.randrange(1, 11 * page_bytes))
            for i in range(6)
        ] + [vertex_resource(0, page_bytes)]
        fast = PagePlacement(num_gpms, page_bytes, policy)
        reference = _PerPagePlacement(num_gpms, page_bytes, policy)

        def call(model, method, args):
            try:
                value = getattr(model, method)(*args)
            except ValueError:
                return ValueError
            if method == "owner_fractions":
                return list(value.items())  # key order counts
            return value

        for _ in range(120):
            method, args = _random_operation(rng, resources, num_gpms)
            assert call(fast, method, args) == call(reference, method, args), (
                method, args
            )
            assert fast.resident_bytes == reference.resident_bytes
            for resource in resources:
                assert fast.is_placed(resource) == reference.is_placed(resource)
                if not reference.is_placed(resource):
                    continue
                for g in range(num_gpms):
                    assert fast.is_home(resource, g) == reference.is_home(
                        resource, g
                    )
                    assert list(fast.owner_fractions(resource, g).items()) == (
                        list(reference.owner_fractions(resource, g).items())
                    )
                    assert fast.local_fraction(resource, g) == (
                        reference.local_fraction(resource, g)
                    )


class TestSetAssociativeCache:
    def test_first_access_misses_then_hits(self):
        cache = SetAssociativeCache(1024, 2, 64)
        assert not cache.access(0)
        assert cache.access(0)

    def test_same_line_hits(self):
        cache = SetAssociativeCache(1024, 2, 64)
        cache.access(0)
        assert cache.access(63)

    def test_lru_eviction(self):
        # 2 ways, 1 set: third distinct line evicts the least recent.
        cache = SetAssociativeCache(128, 2, 64)
        cache.access(0)
        cache.access(64)
        cache.access(128)  # evicts line 0
        assert not cache.access(0)

    def test_lru_order_updated_on_hit(self):
        cache = SetAssociativeCache(128, 2, 64)
        cache.access(0)
        cache.access(64)
        cache.access(0)  # 0 becomes MRU
        cache.access(128)  # evicts 64, not 0
        assert cache.access(0)

    def test_access_range_counts_lines(self):
        cache = SetAssociativeCache(8 * KB, 4, 64)
        misses = cache.access_range(0, 640)
        assert misses == 10

    def test_working_set_fits_no_capacity_misses(self):
        cache = SetAssociativeCache(8 * KB, 8, 64)
        cache.access_range(0, 4 * KB)
        cache.reset_stats()
        cache.access_range(0, 4 * KB)
        assert cache.misses == 0

    def test_thrash_when_oversized(self):
        cache = SetAssociativeCache(1 * KB, 4, 64)
        for _ in range(3):
            cache.access_range(0, 8 * KB)
        assert cache.hit_rate < 0.2

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(1000, 3, 64)

    def test_flush(self):
        cache = SetAssociativeCache(1024, 2, 64)
        cache.access(0)
        cache.flush()
        assert cache.resident_lines == 0


class TestAnalyticCacheModel:
    def test_fits_means_compulsory_only(self):
        # Working set fits: hit rate = 1 - 1/reuse.
        assert working_set_hit_rate(1000, 10_000, reuse_factor=4) == pytest.approx(
            0.75
        )

    def test_oversized_decays(self):
        fits = working_set_hit_rate(1000, 10_000, 4)
        thrash = working_set_hit_rate(100_000, 10_000, 4)
        assert thrash < fits

    def test_zero_cache_never_hits(self):
        assert working_set_hit_rate(1000, 0, 4) == 0.0

    def test_empty_stream_hits(self):
        assert working_set_hit_rate(0, 1024, 4) == 1.0

    def test_miss_bytes_bounded(self):
        stream, unique, cache = 10_000.0, 2_000.0, 4_000.0
        out = miss_bytes(stream, unique, cache)
        assert unique <= out <= stream

    def test_miss_bytes_equals_unique_when_fits(self):
        assert miss_bytes(8_000.0, 2_000.0, 1e9) == pytest.approx(2_000.0)

    def test_miss_bytes_matches_min_max_formula(self):
        """The branch clamps return exactly what min/max would."""
        import math
        import random

        def reference(stream, unique, cache):
            if stream <= 0 or unique <= 0:
                return 0.0
            reuse = max(1.0, stream / unique)
            hit = 0.0 if cache <= 0 else (
                (1.0 - 1.0 / reuse) * min(1.0, cache / unique)
            )
            out = stream * (1.0 - hit)
            return min(stream, max(out, min(unique, stream)))

        rng = random.Random(7)
        special = [0.0, 1.0, 3, 64.0, 1e9, math.inf, math.nan]
        values = special + [rng.lognormvariate(8, 4) for _ in range(40)]
        for _ in range(20_000):
            args = [rng.choice(values) for _ in range(3)]
            got, want = miss_bytes(*args), reference(*args)
            assert repr(got) == repr(want) and type(got) is type(want), args

    def test_analytic_matches_exact_direction(self):
        """The analytic curve agrees with the exact simulator's ordering."""
        small = SetAssociativeCache(2 * KB, 4, 64)
        large = SetAssociativeCache(64 * KB, 4, 64)
        for cache in (small, large):
            for _ in range(4):
                cache.access_range(0, 16 * KB)
        assert large.hit_rate > small.hit_rate
        analytic_small = working_set_hit_rate(16 * KB, 2 * KB, 4)
        analytic_large = working_set_hit_rate(16 * KB, 64 * KB, 4)
        assert analytic_large > analytic_small

    def test_cache_stats_accumulate(self):
        stats = CacheStats()
        stats.record(100, 0.8)
        stats.record(100, 0.6)
        assert stats.hit_rate == pytest.approx(0.7)


class TestDram:
    def test_read_time(self):
        dram = DramTracker(bytes_per_cycle=1000.0)
        assert dram.read(5000.0) == pytest.approx(5.0)

    def test_totals(self):
        dram = DramTracker(1000.0)
        dram.read(100.0)
        dram.write(200.0)
        dram.serve_remote(300.0)
        assert dram.total_bytes == 600.0
        assert dram.busy_cycles() == pytest.approx(0.6)

    def test_reset(self):
        dram = DramTracker(1000.0)
        dram.read(100.0)
        dram.reset()
        assert dram.total_bytes == 0.0

    def test_make_trackers(self):
        assert len(make_trackers(4, 1000.0)) == 4


class TestLinkFabric:
    def test_transfer_time_includes_latency(self):
        fabric = LinkFabric(4, 64.0, latency_cycles=120)
        cycles = fabric.transfer(0, 1, 6400.0, TrafficType.TEXTURE)
        assert cycles == pytest.approx(100.0 + 120.0)

    def test_self_transfer_free(self):
        fabric = LinkFabric(4, 64.0)
        assert fabric.transfer(1, 1, 1e6, TrafficType.TEXTURE) == 0.0
        assert fabric.total_bytes == 0.0

    def test_traffic_taxonomy(self):
        fabric = LinkFabric(4, 64.0)
        fabric.transfer(0, 1, 100.0, TrafficType.TEXTURE)
        fabric.transfer(0, 1, 50.0, TrafficType.COMPOSITION)
        by_type = fabric.bytes_by_type()
        assert by_type[TrafficType.TEXTURE] == 100.0
        assert by_type[TrafficType.COMPOSITION] == 50.0

    def test_directional_accounting(self):
        fabric = LinkFabric(4, 64.0)
        fabric.transfer(0, 1, 100.0, TrafficType.TEXTURE)
        assert fabric.bytes_between(0, 1) == 100.0
        assert fabric.bytes_between(1, 0) == 0.0

    def test_incoming_outgoing(self):
        fabric = LinkFabric(4, 64.0)
        fabric.transfer(0, 1, 100.0, TrafficType.TEXTURE)
        fabric.transfer(2, 1, 50.0, TrafficType.TEXTURE)
        assert fabric.incoming_bytes(1) == 150.0
        assert fabric.outgoing_bytes(0) == 100.0

    def test_busiest_pair(self):
        fabric = LinkFabric(4, 64.0)
        fabric.transfer(0, 1, 640.0, TrafficType.TEXTURE)
        fabric.transfer(0, 2, 64.0, TrafficType.TEXTURE)
        assert fabric.busiest_pair_cycles() == pytest.approx(10.0)

    def test_energy(self):
        fabric = LinkFabric(4, 64.0)
        fabric.transfer(0, 1, 1000.0, TrafficType.TEXTURE)
        assert fabric.energy_picojoules(10.0) == pytest.approx(80_000.0)

    def test_out_of_range_gpm_rejected(self):
        fabric = LinkFabric(2, 64.0)
        with pytest.raises(ValueError):
            fabric.transfer(0, 5, 10.0, TrafficType.TEXTURE)


class TestRemoteCache:
    def test_compulsory_bytes_always_cross(self):
        cache = RemoteCache(512 * KB)
        crossing = cache.filter(stream_bytes=1000.0, unique_bytes=1000.0)
        assert crossing == pytest.approx(1000.0)

    def test_zero_capacity_passthrough(self):
        cache = RemoteCache(0.0)
        assert cache.filter(5000.0, 100.0) == 5000.0

    def test_reuse_filtered_when_fits(self):
        cache = RemoteCache(512 * KB, effectiveness=1.0)
        crossing = cache.filter(stream_bytes=64 * KB, unique_bytes=8 * KB)
        assert crossing < 64 * KB

    def test_large_working_set_not_filtered(self):
        cache = RemoteCache(512 * KB, effectiveness=0.06)
        stream = 64.0 * MB
        crossing = cache.filter(stream, 16.0 * MB)
        assert crossing > 0.9 * stream

    def test_hit_rate_tracking(self):
        cache = RemoteCache(512 * KB, effectiveness=1.0)
        cache.filter(64 * KB, 8 * KB)
        assert 0.0 < cache.hit_rate < 1.0
        cache.reset()
        assert cache.hit_rate == 0.0
