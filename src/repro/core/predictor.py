"""The rendering-time predictor — Equation 3 (Section 5.2).

The distribution engine needs to know which GPM becomes idle first.  A
full analytic model (Eq. 2, after Wimmer & Wonka) would need geometry,
texture, hardware and stage state; the paper instead uses a simple
linear *memorisation* model::

    t(X) = c0 * #triangle_X = c1 * #tv_X + c2 * #pixel_X

- **total** rendering time of a batch is predicted from its triangle
  count (known before rendering, straight from the OO_Application);
- **elapsed** time is tracked by incrementing a counter by ``c1`` per
  transformed vertex and ``c2`` per rendered pixel, read from the GPM's
  runtime counters;
- the first 8 batches run round-robin to *calibrate* ``c0, c1, c2``
  from observed totals (least squares for the two-term form, ratio
  averaging for ``c0``).

The engine compares, per GPM, predicted total minus predicted elapsed
to find the earliest-available module.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import List, Optional

import numpy as np

from repro.profiling import phase

#: Batches used to initialise the model before prediction switches on.
CALIBRATION_BATCHES = 8

#: The ``predict`` profiling phase (one shared timer; observe runs per
#: completed batch).
_PREDICT_PHASE = phase("predict")

_FIELDS = ("triangles", "transformed_vertices", "rendered_pixels", "cycles")


@dataclass(frozen=True)
class BatchObservation:
    """One completed batch's measured workload and time."""

    triangles: float
    transformed_vertices: float
    rendered_pixels: float
    cycles: float

    def __post_init__(self) -> None:
        # NaN slips past every ordered comparison below, and one
        # non-finite row poisons every later fit.
        if not (
            isfinite(self.triangles)
            and isfinite(self.transformed_vertices)
            and isfinite(self.rendered_pixels)
            and isfinite(self.cycles)
        ):
            name = next(
                name for name in _FIELDS if not isfinite(getattr(self, name))
            )
            raise ValueError(f"{name} must be finite")
        if min(self.triangles, self.transformed_vertices, self.rendered_pixels) < 0:
            raise ValueError("negative workload counts")
        if self.cycles <= 0:
            raise ValueError("observed time must be positive")


class RenderingTimePredictor:
    """Linear memorisation model with online calibration."""

    def __init__(self, calibration_batches: int = CALIBRATION_BATCHES) -> None:
        if calibration_batches < 1:
            raise ValueError("need at least one calibration batch")
        self.calibration_batches = calibration_batches
        self._observations: List[BatchObservation] = []
        # Column buffers grown by doubling: rows 0-3 are (triangles, tv,
        # pixels, cycles) per observation; row 4 packs cycles/triangles
        # of the ``_ratio_count`` observations with triangles > 0, so a
        # refit reads every operand as a slice instead of rebuilding
        # masks and arrays on every observe() call.
        self._columns = np.zeros((5, 16), dtype=np.float64)
        self._count = 0
        self._ratio_count = 0
        self.c0: Optional[float] = None
        self.c1: Optional[float] = None
        self.c2: Optional[float] = None

    # -- calibration ------------------------------------------------------

    @property
    def is_calibrated(self) -> bool:
        return self.c0 is not None

    def observe(self, observation: BatchObservation) -> None:
        """Record a completed batch; fits the model once enough arrive."""
        with _PREDICT_PHASE:
            self._observations.append(observation)
            count = self._count
            columns = self._columns
            if count == columns.shape[1]:
                grown = np.zeros((5, count * 2), dtype=np.float64)
                grown[:, :count] = columns
                self._columns = columns = grown
            triangles = float(observation.triangles)
            cycles = float(observation.cycles)
            columns[0, count] = triangles
            columns[1, count] = observation.transformed_vertices
            columns[2, count] = observation.rendered_pixels
            columns[3, count] = cycles
            if triangles > 0:
                columns[4, self._ratio_count] = cycles / triangles
                self._ratio_count += 1
            self._count = count + 1
            if self._count >= self.calibration_batches or self.is_calibrated:
                self._fit()

    def _fit(self) -> None:
        """Fit c0 (triangle rate) and (c1, c2) by least squares."""
        count = self._count
        columns = self._columns
        cycles = columns[3, :count]
        # ``np.mean`` is ``add.reduce(x) / n``; reducing the packed
        # slices directly yields the same double.
        ratios = self._ratio_count
        if ratios:
            self.c0 = float(np.add.reduce(columns[4, :ratios]) / ratios)
        else:
            self.c0 = float(np.add.reduce(cycles) / count)
        # Non-negative-ish least squares: plain lstsq, floored at zero —
        # the hardware's c1/c2 are rates and cannot be negative.  lstsq
        # copies its operand into LAPACK order, so the transposed view
        # solves exactly as a stacked (count, 2) array would.
        solution, *_ = np.linalg.lstsq(
            columns[1:3, :count].T, cycles, rcond=None
        )
        self.c1 = float(max(solution[0], 0.0))
        self.c2 = float(max(solution[1], 0.0))
        if self.c1 == 0.0 and self.c2 == 0.0:
            # Degenerate fit (e.g. colinear calibration set): fall back
            # to attributing everything to pixels.
            total_pixels = float(np.sum(columns[2, :count]))
            self.c2 = float(np.sum(cycles) / total_pixels) if total_pixels else 0.0

    # -- prediction ---------------------------------------------------------

    def predict_total(self, triangles: float) -> float:
        """Predicted batch time from its triangle count (c0 form)."""
        if not self.is_calibrated:
            raise RuntimeError("predictor not calibrated yet")
        return max(0.0, self.c0 * triangles)

    def predict_elapsed(
        self, transformed_vertices: float, rendered_pixels: float
    ) -> float:
        """Predicted progress from the GPM's runtime counters (c1/c2)."""
        if not self.is_calibrated:
            raise RuntimeError("predictor not calibrated yet")
        return self.c1 * transformed_vertices + self.c2 * rendered_pixels

    def remaining(
        self,
        predicted_total: float,
        transformed_vertices: float,
        rendered_pixels: float,
    ) -> float:
        """Distance between the total and elapsed counters (Section 5.2)."""
        elapsed = self.predict_elapsed(transformed_vertices, rendered_pixels)
        return max(0.0, predicted_total - elapsed)

    # -- introspection -------------------------------------------------------

    @property
    def observation_count(self) -> int:
        return len(self._observations)

    def mean_absolute_error(self) -> float:
        """Model error over everything observed so far (for reports)."""
        if not self.is_calibrated or not self._observations:
            return float("nan")
        errors = [
            abs(self.predict_total(o.triangles) - o.cycles) / o.cycles
            for o in self._observations
            if o.cycles > 0
        ]
        return sum(errors) / len(errors)
