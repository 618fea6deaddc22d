"""The OO-VR hardware layer: predictor, distribution engine, overhead."""

import numpy as np
import pytest

from repro.config import baseline_system
from repro.core.distribution import BATCH_QUEUE_DEPTH, DistributionEngine
from repro.core.middleware import OOMiddleware
from repro.core.overhead import OverheadModel
from repro.core.oovr import _BatchBuilder, OOVRFramework
from repro.core.predictor import (
    CALIBRATION_BATCHES,
    BatchObservation,
    RenderingTimePredictor,
)
from repro.gpu.system import MultiGPUSystem
from tests.conftest import MB, make_object


def observation(triangles, cycles, tv=None, pixels=None):
    return BatchObservation(
        triangles=triangles,
        transformed_vertices=tv if tv is not None else triangles * 0.6,
        rendered_pixels=pixels if pixels is not None else triangles * 20.0,
        cycles=cycles,
    )


class TestPredictor:
    def test_not_calibrated_initially(self):
        predictor = RenderingTimePredictor()
        assert not predictor.is_calibrated
        with pytest.raises(RuntimeError):
            predictor.predict_total(100.0)

    def test_calibrates_after_eight_batches(self):
        predictor = RenderingTimePredictor()
        for i in range(CALIBRATION_BATCHES):
            predictor.observe(observation(1000.0 + i, 5000.0 + 5 * i))
        assert predictor.is_calibrated

    def test_c0_recovers_linear_rate(self):
        predictor = RenderingTimePredictor()
        for i in range(8):
            tris = 500.0 * (i + 1)
            predictor.observe(observation(tris, cycles=tris * 3.0))
        assert predictor.c0 == pytest.approx(3.0, rel=0.01)

    def test_total_prediction_linear_in_triangles(self):
        predictor = RenderingTimePredictor()
        for i in range(8):
            tris = 500.0 * (i + 1)
            predictor.observe(observation(tris, cycles=tris * 2.0))
        assert predictor.predict_total(1000.0) == pytest.approx(2000.0, rel=0.05)

    def test_elapsed_from_counters(self):
        predictor = RenderingTimePredictor()
        # cycles = 1.0 * tv + 0.05 * pixels exactly.
        for i in range(1, 9):
            tv, px = 600.0 * i, 10_000.0 * i
            predictor.observe(
                BatchObservation(
                    triangles=1000.0 * i,
                    transformed_vertices=tv,
                    rendered_pixels=px,
                    cycles=1.0 * tv + 0.05 * px,
                )
            )
        assert predictor.predict_elapsed(600.0, 10_000.0) == pytest.approx(
            1100.0, rel=0.15
        )

    def test_remaining_non_negative(self):
        predictor = RenderingTimePredictor()
        for i in range(1, 9):
            predictor.observe(observation(1000.0 * i, 3000.0 * i))
        remaining = predictor.remaining(
            predicted_total=100.0,
            transformed_vertices=1e9,
            rendered_pixels=1e9,
        )
        assert remaining == 0.0

    def test_rates_never_negative(self):
        predictor = RenderingTimePredictor()
        for i in range(1, 9):
            predictor.observe(
                BatchObservation(
                    triangles=100.0 * i,
                    transformed_vertices=60.0 * i,
                    rendered_pixels=2000.0 * i,
                    cycles=500.0 * i,
                )
            )
        assert predictor.c1 >= 0.0
        assert predictor.c2 >= 0.0

    def test_mae_reported(self):
        predictor = RenderingTimePredictor()
        for i in range(1, 9):
            predictor.observe(observation(1000.0 * i, 3000.0 * i))
        assert predictor.mean_absolute_error() < 0.05

    def test_invalid_observation_rejected(self):
        with pytest.raises(ValueError):
            BatchObservation(
                triangles=-1.0,
                transformed_vertices=0.0,
                rendered_pixels=0.0,
                cycles=1.0,
            )

    @pytest.mark.parametrize(
        "field",
        ["triangles", "transformed_vertices", "rendered_pixels", "cycles"],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_observation_rejected(self, field, value):
        """NaN compares false against every bound, so it needs its own
        check: one such row would poison c0/c1/c2 for every later fit."""
        fields = dict(
            triangles=10.0,
            transformed_vertices=1.0,
            rendered_pixels=1.0,
            cycles=5.0,
        )
        fields[field] = value
        with pytest.raises(ValueError, match=field):
            BatchObservation(**fields)


def reference_fit(rows):
    """Eq. 3 refit from scratch: mask, divide, mean, stack, lstsq.

    The formula :class:`RenderingTimePredictor` evaluated before it kept
    running columns; the predictor must reproduce it to the bit.
    """
    data = np.array(rows, dtype=np.float64).T
    triangles, tv, pixels, cycles = data
    valid = triangles > 0
    if valid.any():
        c0 = float(np.mean(cycles[valid] / triangles[valid]))
    else:
        c0 = float(np.mean(cycles))
    features = np.column_stack([tv, pixels])
    solution, *_ = np.linalg.lstsq(features, cycles, rcond=None)
    c1 = float(max(solution[0], 0.0))
    c2 = float(max(solution[1], 0.0))
    if c1 == 0.0 and c2 == 0.0:
        total_pixels = float(np.sum(features[:, 1]))
        c2 = float(np.sum(cycles) / total_pixels) if total_pixels else 0.0
    return c0, c1, c2


class TestPredictorRefitOracle:
    """The running-column refit equals the from-scratch formula (==)."""

    @staticmethod
    def _replay(rows, calibration=CALIBRATION_BATCHES):
        predictor = RenderingTimePredictor(calibration)
        for index, row in enumerate(rows):
            predictor.observe(BatchObservation(*row))
            if index + 1 < calibration:
                assert not predictor.is_calibrated
                continue
            want = reference_fit(rows[: index + 1])
            # == : bit-exact, not approx.
            assert (predictor.c0, predictor.c1, predictor.c2) == want
        return predictor

    @pytest.mark.parametrize("seed", range(8))
    def test_random_sequences_match_reference_exactly(self, seed):
        rng = np.random.default_rng(4242 + seed)
        rows = []
        # Past the initial 16-column buffer, so it grows (twice).
        for _ in range(int(rng.integers(40, 90))):
            triangles = (
                0.0 if rng.random() < 0.2 else float(rng.uniform(1.0, 5e4))
            )
            tv = float(rng.uniform(0.0, 3e4))
            pixels = float(rng.uniform(0.0, 1e6))
            cycles = float(
                0.7 * tv + 0.03 * pixels + rng.uniform(1.0, 5e3)
            )
            rows.append((triangles, tv, pixels, cycles))
        self._replay(rows, calibration=int(rng.integers(1, 12)))

    def test_zero_triangle_rows_fall_back_to_mean_cycles(self):
        rows = [(0.0, 10.0 * i, 300.0 * i, 50.0 * i + 7.0) for i in range(1, 20)]
        predictor = self._replay(rows)
        assert predictor.c0 == float(np.mean([row[3] for row in rows]))
        # Later rows with triangles join the packed ratio row.
        rows += [(40.0 * i, 5.0 * i, 90.0 * i, 33.0 * i) for i in range(1, 6)]
        self._replay(rows)

    def test_colinear_and_degenerate_sets(self):
        # Colinear features (pixels = 20 x tv): rank-deficient lstsq.
        rows = [
            (100.0 * i, 10.0 * i, 200.0 * i, 5000.0 - 150.0 * i)
            for i in range(1, 25)
        ]
        self._replay(rows)
        # All-zero features: lstsq returns (0, 0), so the degenerate
        # fallback runs (and, with no pixels, leaves c2 at 0).
        zero = [(10.0, 0.0, 0.0, 3.0 + i) for i in range(20)]
        predictor = self._replay(zero)
        assert (predictor.c1, predictor.c2) == (0.0, 0.0)


def build_batches(pool, count=16, triangles=800, materials=5):
    objects = [
        make_object(
            i,
            pool,
            textures=((f"mat{i % materials}", MB),),
            triangles=triangles,
            x=40.0 * (i % 20) + 10,
            y=30.0 * (i % 15) + 10,
            w=140.0,
            h=120.0,
        )
        for i in range(count)
    ]
    from repro.scene.scene import Frame

    return Frame(objects=tuple(objects), width=1280, height=1024)


class TestDistributionEngine:
    def _dispatch(self, pool, config=None, count=60, materials=20):
        cfg = config or baseline_system()
        system = MultiGPUSystem(cfg)
        system.begin_frame()
        framework = OOVRFramework(cfg)
        frame = build_batches(pool, count=count, materials=materials)
        engine = DistributionEngine(system)
        pairs = _BatchBuilder(framework).build(frame)
        pixels = engine.dispatch(pairs)
        return system, engine, pixels

    def test_first_batches_round_robin(self, pool):
        _system, engine, _pixels = self._dispatch(pool)
        calibration = [r for r in engine.records if r.calibration]
        assert len(calibration) >= 1
        gpms = [r.gpm for r in calibration]
        assert gpms == [i % 4 for i in range(len(gpms))]

    def test_prediction_enabled_after_calibration(self, pool):
        _system, engine, _pixels = self._dispatch(pool)
        predicted = [r for r in engine.records if not r.calibration]
        assert predicted, "prediction phase never engaged"
        assert all(r.predicted_cycles is not None for r in predicted)

    def test_all_gpms_participate(self, pool):
        _system, engine, _pixels = self._dispatch(pool)
        assert {r.gpm for r in engine.records} == {0, 1, 2, 3}

    def test_balances_better_than_round_robin(self, pool):
        cfg = baseline_system()
        frame = build_batches(pool, count=40)
        framework = OOVRFramework(cfg)
        pairs = _BatchBuilder(framework).build(frame)

        # Round-robin reference.
        system_rr = MultiGPUSystem(cfg)
        system_rr.begin_frame()
        for index, (_batch, unit) in enumerate(pairs):
            system_rr.execute_unit(unit, index % 4, fb_targets={index % 4: 1.0})
        rr = system_rr.frame_result("rr", "w").load_balance_ratio

        system_engine = MultiGPUSystem(cfg)
        system_engine.begin_frame()
        engine = DistributionEngine(system_engine)
        engine.dispatch(pairs)
        engine_ratio = system_engine.frame_result("eng", "w").load_balance_ratio
        assert engine_ratio <= rr * 1.05

    def test_queue_depth_validated(self, pool):
        system = MultiGPUSystem(baseline_system())
        with pytest.raises(ValueError):
            DistributionEngine(system, queue_depth=0)
        assert BATCH_QUEUE_DEPTH == 4

    def test_single_gpm_no_stealing(self, pool):
        cfg = baseline_system(num_gpms=1)
        system, engine, pixels = self._dispatch(pool, config=cfg)
        assert len(pixels) == 1
        assert pixels[0] > 0

    def test_pixels_conserved(self, pool):
        cfg = baseline_system()
        frame = build_batches(pool, count=24)
        framework = OOVRFramework(cfg)
        pairs = _BatchBuilder(framework).build(frame)
        expected = sum(unit.pixels_out for _b, unit in pairs)
        system = MultiGPUSystem(cfg)
        system.begin_frame()
        engine = DistributionEngine(system)
        pixels = engine.dispatch(pairs)
        assert sum(pixels) == pytest.approx(expected, rel=1e-6)


class TestOverheadModel:
    def test_paper_storage_bits(self):
        model = OverheadModel()
        # 4 GPMs x 2 counters x 64b + 4-entry queue x (16b + 64b)
        # + 12 x 32b registers = 512 + 320 + 384 = 1216 bits; the paper
        # rounds its accounting to 960 — we stay within 30%.
        assert model.counter_storage_bits == 512
        assert model.tracking_bits == 384
        assert 900 <= model.total_storage_bits <= 1300

    def test_area_scales_with_bits(self):
        small = OverheadModel(num_gpms=4)
        large = OverheadModel(num_gpms=8)
        assert large.area_mm2 > small.area_mm2

    def test_area_fraction_below_half_percent(self):
        assert OverheadModel().area_fraction_of_gtx1080 < 0.005

    def test_power_fraction_below_half_percent(self):
        assert OverheadModel().power_fraction_of_gtx1080_tdp < 0.005

    def test_report_mentions_bits(self):
        report = OverheadModel().report()
        assert "bits" in report
        assert "mm^2" in report

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            OverheadModel(num_gpms=0)
