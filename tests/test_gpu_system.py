"""The multi-GPU machine: NUMA resolution, execution, composition, staging."""

import pytest

from repro.config import baseline_system
from repro.gpu.composition import compose_distributed, compose_master
from repro.gpu.staging import StagingManager
from repro.gpu.system import MultiGPUSystem
from repro.memory.link import TrafficType
from repro.memory.placement import PlacementPolicy
from repro.pipeline.characterize import DrawCharacterizer
from repro.pipeline.smp import SMPMode
from tests.conftest import MB, make_object


@pytest.fixture
def system(config):
    sys_ = MultiGPUSystem(config)
    sys_.begin_frame()
    return sys_


@pytest.fixture
def characterizer(config):
    return DrawCharacterizer(config)


def unit_for(characterizer, pool, object_id=0, **kwargs):
    return characterizer.characterize(
        make_object(object_id, pool, **kwargs).multiview_draw(),
        mode=SMPMode.SIMULTANEOUS,
    )


class TestExecuteUnit:
    def test_local_execution_no_link_traffic(self, system, characterizer, pool):
        unit = unit_for(characterizer, pool)
        system.execute_unit(unit, 0, fb_targets={0: 1.0}, command_source=0)
        assert system.fabric.total_bytes == 0.0

    def test_remote_texture_crosses_link(self, system, characterizer, pool):
        unit = unit_for(characterizer, pool)
        for touch in unit.texture_touches:
            system.placement.place_fixed(touch.resource, 1)
        system.execute_unit(unit, 0, fb_targets={0: 1.0}, command_source=0)
        assert system.fabric.bytes_between(1, 0) > 0
        assert system.drams[1].remote_served_bytes > 0

    def test_remote_slower_than_local(self, config, characterizer, pool):
        def run(place_remote: bool) -> float:
            system = MultiGPUSystem(config)
            system.begin_frame()
            unit = unit_for(characterizer, pool, w=800, h=600)
            if place_remote:
                for touch in unit.texture_touches:
                    system.placement.place_fixed(touch.resource, 1)
            execution = system.execute_unit(unit, 0, fb_targets={0: 1.0})
            return execution.cycles

        assert run(place_remote=True) > run(place_remote=False)

    def test_first_touch_places_on_renderer(self, system, characterizer, pool):
        unit = unit_for(characterizer, pool)
        system.execute_unit(unit, 2, fb_targets={2: 1.0}, command_source=2)
        for touch in unit.texture_touches:
            assert system.placement.local_fraction(touch.resource, 2) == 1.0

    def test_fb_targets_route_writes(self, system, characterizer, pool):
        unit = unit_for(characterizer, pool)
        system.execute_unit(unit, 0, fb_targets={1: 1.0}, command_source=0)
        fb_bytes = system.fabric.bytes_by_type().get(TrafficType.FRAMEBUFFER, 0.0)
        assert fb_bytes > 0

    def test_command_traffic_from_master(self, system, characterizer, pool):
        unit = unit_for(characterizer, pool)
        system.execute_unit(unit, 3, fb_targets={3: 1.0}, command_source=0)
        assert system.fabric.bytes_by_type().get(TrafficType.COMMAND, 0.0) > 0

    def test_counters_advance(self, system, characterizer, pool):
        unit = unit_for(characterizer, pool)
        system.execute_unit(unit, 1, fb_targets={1: 1.0})
        gpm = system.gpms[1]
        assert gpm.transformed_vertices == pytest.approx(unit.vertices)
        assert gpm.rendered_pixels == pytest.approx(unit.pixels_out)

    def test_start_at_delays(self, system, characterizer, pool):
        unit = unit_for(characterizer, pool)
        execution = system.execute_unit(
            unit, 0, fb_targets={0: 1.0}, start_at=5000.0
        )
        assert system.gpms[0].ready_at == pytest.approx(5000.0 + execution.cycles)
        # Busy time excludes the idle wait.
        assert system.gpms[0].busy_cycles == pytest.approx(execution.cycles)

    def test_invalid_gpm_rejected(self, system, characterizer, pool):
        unit = unit_for(characterizer, pool)
        with pytest.raises(ValueError):
            system.execute_unit(unit, 9)

    def test_cycles_at_least_compute(self, system, characterizer, pool):
        unit = unit_for(characterizer, pool)
        execution = system.execute_unit(unit, 0, fb_targets={0: 1.0})
        assert execution.cycles >= execution.compute_cycles


class TestRunQueuesAndResult:
    def test_queue_count_checked(self, system, characterizer, pool):
        with pytest.raises(ValueError):
            system.run_queues([[]])

    def test_frame_result_rolls_up(self, system, characterizer, pool):
        units = [unit_for(characterizer, pool, i) for i in range(4)]
        system.run_queues([[units[0]], [units[1]], [units[2]], [units[3]]])
        result = system.frame_result("test", "wl")
        assert result.cycles > 0
        assert len(result.gpm_busy_cycles) == 4
        assert all(b > 0 for b in result.gpm_busy_cycles)

    def test_composition_adds_to_latency(self, system, characterizer, pool):
        from repro.engine.base import CompositionSchedule

        unit = unit_for(characterizer, pool)
        system.execute_unit(unit, 0, fb_targets={0: 1.0})
        before = system.frame_result("t", "w").cycles
        system.engine.composition_phase(
            CompositionSchedule(label="compose", rop_cycles={0: 12_345.0})
        )
        after = system.frame_result("t", "w").cycles
        assert after == pytest.approx(before + 12_345.0)
        trace = system.last_trace
        assert trace.composition_cycles == pytest.approx(12_345.0)
        assert trace.frame_cycles == pytest.approx(after)
        kinds = [span.kind for span in trace.intervals]
        assert "compose" in kinds

    def test_begin_frame_resets(self, system, characterizer, pool):
        unit = unit_for(characterizer, pool)
        system.execute_unit(unit, 0, fb_targets={0: 1.0})
        system.begin_frame()
        assert system.gpms[0].busy_cycles == 0.0
        assert system.fabric.total_bytes == 0.0

    def test_placement_persists_across_frames(self, system, characterizer, pool):
        unit = unit_for(characterizer, pool)
        system.execute_unit(unit, 2, fb_targets={2: 1.0})
        system.begin_frame(keep_placement=True)
        for touch in unit.texture_touches:
            assert system.placement.is_placed(touch.resource)

    def test_placement_reset_on_request(self, system, characterizer, pool):
        unit = unit_for(characterizer, pool)
        system.execute_unit(unit, 2, fb_targets={2: 1.0})
        system.begin_frame(keep_placement=False)
        for touch in unit.texture_touches:
            assert not system.placement.is_placed(touch.resource)


class TestComposition:
    def test_master_traffic_from_workers_only(self, system):
        compose_master(system, [1000.0, 1000.0, 1000.0, 1000.0], root=0)
        assert system.fabric.bytes_between(1, 0) > 0
        assert system.fabric.bytes_between(0, 1) == 0.0

    def test_master_composition_cycles_recorded(self, system):
        cycles = compose_master(system, [8000.0, 8000.0, 8000.0, 8000.0])
        result = system.frame_result("t", "w")
        assert result.composition_cycles == pytest.approx(cycles)

    def test_distributed_faster_than_master(self, config):
        pixels = [4_000_000.0] * 4

        sys_a = MultiGPUSystem(config)
        sys_a.begin_frame()
        master = compose_master(sys_a, pixels)

        sys_b = MultiGPUSystem(config)
        sys_b.begin_frame()
        distributed = compose_distributed(sys_b, pixels)
        assert distributed < master

    def test_distributed_spreads_traffic(self, system):
        compose_distributed(system, [1000.0] * 4)
        pairs = [
            (s, d)
            for s in range(4)
            for d in range(4)
            if s != d
        ]
        used = [system.fabric.bytes_between(s, d) > 0 for s, d in pairs]
        assert all(used)

    def test_composition_traffic_type(self, system):
        compose_master(system, [1000.0] * 4)
        assert system.fabric.bytes_by_type().get(TrafficType.COMPOSITION, 0) > 0

    def test_pixel_count_mismatch_rejected(self, system):
        with pytest.raises(ValueError):
            compose_master(system, [1000.0, 1000.0])


class TestStagingManager:
    def test_first_touch_stage_is_free(self, system, characterizer, pool):
        staging = StagingManager(system)
        unit = unit_for(characterizer, pool)
        outcome = staging.stage_unit(unit, 1)
        assert outcome.stall_cycles == 0.0
        assert outcome.copied_bytes == 0.0
        assert staging.staged_bytes == 0.0
        assert system.fabric.total_bytes == 0.0

    def test_restaging_elsewhere_costs(self, system, characterizer, pool):
        staging = StagingManager(system)
        unit = unit_for(characterizer, pool)
        staging.stage_unit(unit, 1)  # home
        outcome = staging.stage_unit(unit, 2)  # copy to another GPM
        assert staging.staged_bytes > 0
        assert outcome.stall_cycles > 0
        assert outcome.copied_bytes == pytest.approx(staging.staged_bytes)
        assert system.fabric.total_bytes == pytest.approx(staging.staged_bytes)

    def test_staged_reads_become_local(self, system, characterizer, pool):
        staging = StagingManager(system)
        unit = unit_for(characterizer, pool)
        staging.stage_unit(unit, 1)
        staging.stage_unit(unit, 2)
        for touch in unit.texture_touches:
            assert system.placement.local_fraction(touch.resource, 2) == 1.0

    def test_staging_saturates_at_footprint(self, system, characterizer, pool):
        staging = StagingManager(system, factor=1.0)
        unit = unit_for(characterizer, pool)
        staging.stage_unit(unit, 1)  # home placement
        for _ in range(50):  # repeated use accumulates, then saturates
            staging.stage_unit(unit, 2)
        cap = sum(t.resource.size_bytes for t in unit.texture_touches)
        cap += sum(t.resource.size_bytes for t in unit.vertex_touches)
        assert staging.staged_bytes <= cap + 1.0

    def test_new_frame_restages(self, system, characterizer, pool):
        staging = StagingManager(system)
        unit = unit_for(characterizer, pool)
        staging.stage_unit(unit, 1)
        staging.stage_unit(unit, 2)
        first = staging.staged_bytes
        staging.begin_frame()
        staging.stage_unit(unit, 2)
        assert staging.staged_bytes == pytest.approx(first)

    def test_home_never_staged(self, system, characterizer, pool):
        staging = StagingManager(system)
        unit = unit_for(characterizer, pool)
        staging.stage_unit(unit, 3)
        staging.begin_frame()
        outcome = staging.stage_unit(unit, 3)
        assert outcome.stall_cycles == 0.0
        assert staging.staged_bytes == 0.0

    def test_prefetched_no_stall(self, system, characterizer, pool):
        staging = StagingManager(system, prefetched=True)
        unit = unit_for(characterizer, pool)
        staging.stage_unit(unit, 1)
        busy_before = system.gpms[2].busy_cycles
        outcome = staging.stage_unit(unit, 2)
        assert outcome.stall_cycles == 0.0
        assert system.gpms[2].busy_cycles == busy_before
        assert staging.staged_bytes > 0

    def test_factor_scales_bytes(self, config, characterizer, pool):
        def staged(factor):
            system = MultiGPUSystem(config)
            system.begin_frame()
            staging = StagingManager(system, factor=factor)
            unit = unit_for(characterizer, pool)
            staging.stage_unit(unit, 0)
            staging.stage_unit(unit, 1)
            return staging.staged_bytes

        assert staged(2.0) > staged(0.5)

    def test_traffic_type_label(self, system, characterizer, pool):
        staging = StagingManager(
            system, prefetched=True, traffic_type=TrafficType.PREALLOC
        )
        unit = unit_for(characterizer, pool)
        staging.stage_unit(unit, 0)
        staging.stage_unit(unit, 1)
        assert system.fabric.bytes_by_type().get(TrafficType.PREALLOC, 0) > 0

    @pytest.mark.parametrize("engine", ["analytic", "event"])
    @pytest.mark.parametrize("prefetched", [False, True])
    def test_staged_unit_binds_locally_and_copies_only_shortfalls(
        self, config, characterizer, pool, engine, prefetched
    ):
        system = MultiGPUSystem(config.with_engine(engine))
        system.begin_frame()
        unit = unit_for(
            characterizer, pool,
            textures=(("stone", MB), ("moss", 2 * MB), ("sand", MB)),
        )
        stone, moss, _sand = (t.resource for t in unit.texture_touches)
        (vertex,) = (t.resource for t in unit.vertex_touches)
        system.placement.place_fixed(stone, 2)  # home on the renderer
        system.placement.place_fixed(moss, 1)  # must be copied
        system.placement.place_fixed(vertex, 3)  # must be copied
        # "sand" stays unplaced: the staging copy's first touch homes it.
        emitted = []
        stage_flow = system.engine.stage_flow

        def recording(gpm_id, src, chunks, traffic, **kwargs):
            emitted.append((gpm_id, src, list(chunks), traffic))
            return stage_flow(gpm_id, src, chunks, traffic, **kwargs)

        system.engine.stage_flow = recording
        staging = StagingManager(system, prefetched=prefetched)
        staging.stage_unit(
            unit, 2, overlap_from=0.0 if prefetched else None
        )
        shortfalls = [
            min(float(t.resource.size_bytes), t.unique_bytes)
            for t in (*unit.texture_touches, *unit.vertex_touches)
            if t.resource in (moss, vertex)
        ]
        assert shortfalls and all(nbytes > 0 for nbytes in shortfalls)
        # One flow: the neighbouring GPM's copy into the renderer, its
        # chunks exactly the nonzero shortfalls in touch order.
        assert emitted == [
            (2, (2 + 1) % system.num_gpms, shortfalls, TrafficType.TEXTURE)
        ]
        assert staging.staged_bytes == sum(shortfalls)

        resolved = system.engine.bind(unit, 2, fb_targets={2: 1.0})
        assert not [
            flow for flow in resolved.flows
            if flow.traffic in (TrafficType.TEXTURE, TrafficType.VERTEX)
        ]
        for touch in (*unit.texture_touches, *unit.vertex_touches):
            assert system.placement.owner_fractions(touch.resource, 2) == {
                2: 1.0
            }
