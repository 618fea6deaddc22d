"""The repository benchmark: what a user of the OO-VR simulator waits for.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cells-oovr --seed 2019 \
        --seconds 40 --trace 0

Workloads (each a closed loop driven by this one process, at most two
worker processes or threads; ``--seed`` is the scene seed of every cell):

``cells-oovr``
    12 cells at the ``--fast`` preset, {oo-app, oo-vr} x {HL2-1280,
    DM3-1600, WE} x {analytic, event}, for each of twelve scene seeds
    (``--seed`` and eleven drawn from it), in this process.  Set-up is
    each seed's first pass after the scene and work-plan memos are
    cleared.  One operation is one warm pass over a seed's 12 cells; the
    seeds are taken in turn.
``grid-resubmit``
    ``oovr fig 15 --fast`` plus ``oovr fig 17 --fast`` (162 cells) run
    once in a fresh interpreter on the ``process`` executor at
    ``jobs=2`` into an empty result cache (the cold fill), then an
    in-process ``oovr serve`` daemon holds that cache and one operation
    regenerates both figures through the ``remote`` executor, served
    entirely from disk.  A daemon keeps every job it was sent, so each
    one serves a fixed number of regenerations and is then replaced.
    Set-up is daemon start plus its first answered regeneration.

Every operation is checked before its time counts: figure texts against
the Fig. 15 golden and the pinned Fig. 17 digest (default seed), cell
records against a pinned digest (default seed), and at any seed:
resubmitted output equal to the cold output with every cell reported as
a daemon cache hit, warm passes equal to the first pass of their seed,
and the analytic and event engines agreeing on every byte counter.

With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are
reported, the same three on every workload:

- ``setup_s``: median of the run's set-ups;
- ``cells_per_s``: cells completed per second of timed operations;
- ``peak_rss_mb``: peak RSS of this process.

Each run also prints its operation count and the median and p90 wall
time of one operation, which are not bounded: on the shared two-vCPU
host this benchmark was tuned on, the host's own speed moves by up to 2x
over seconds to minutes, and a percentile of one run's operations
follows that more than a run's total throughput does.

With ``--trace 1`` a separate traced run reports the per-layer metrics:
call counts and self times of the public layer functions wrapped by
:mod:`tracer`, whose spans are checked to nest so that these rows and
``trace.other_s`` sum to the traced wall time.  ``grid-resubmit``
traces its cold grid (serially: pool workers are invisible to the
tracer) as well as its regenerations.  Every metric is printed by name
with its unit, and each per-layer metric with the end-to-end metric and
workload it should move; the last line of standard output is the JSON
result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import figgrid
from tracer import traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench"

#: SHA-256 of the 12 ``cells-oovr`` result documents at the default seed.
CELLS_SHA256 = "0431d563fec2cad5f79776cb8bb011fd07b5b75712951c3dd1fbb9ca91032a26"
CELL_FRAMEWORKS = ("oo-app", "oo-vr")
CELL_WORKLOADS = ("HL2-1280", "DM3-1600", "WE")
CELL_ENGINES = ("analytic", "event")
#: Cells in one figure-grid operation (Fig. 15: 6 x 9, Fig. 17: 3 x 4 x 9).
GRID_CELLS = 162
#: Regenerations one ``grid-resubmit`` daemon answers (the first is its
#: set-up) before it is replaced, so its job list, memory and GC pauses
#: are the same however many operations a run makes.
DAEMON_REGENERATIONS = 25
#: Fewest daemons a ``grid-resubmit`` run starts: five set-ups for the
#: ``setup_s`` median and 120 timed regenerations.
MIN_DAEMONS = 5
#: Deadline for one regeneration served from the daemon's cache.
REMOTE_TIMEOUT_S = 10
#: Scene seeds per ``cells-oovr`` run.  Pass time moves with the scene
#: seed (by about 6% at the fast preset, 15% at full scale, WE
#: dominating), so a run averages passes over many seeds.
CELL_SEEDS = 12
#: Fewest warm passes over each seed's cells a ``cells-oovr`` run times.
MIN_ROTATIONS = 2
#: Regenerations timed untraced and then traced on ``grid-resubmit``.
TRACED_REGENERATIONS = 12
#: Child-process deadline for one cold figure grid.
COLD_TIMEOUT_S = 60

#: Which end-to-end metric each per-layer metric should move, on which
#: workload, and the workload that bypasses it (prefix-matched in order).
#: The cold grid of ``grid-resubmit`` is its fill, printed but not bounded.
MOVES = (
    ("import.", "cold grid wall (printed)", "grid-resubmit cold fill", "cells-oovr"),
    ("scene.", "setup_s", "cells-oovr; grid-resubmit cold fill", "grid-resubmit regenerations"),
    ("pipeline.", "setup_s", "cells-oovr; grid-resubmit cold fill", "grid-resubmit regenerations"),
    ("core.OOMiddleware.", "setup_s", "cells-oovr; grid-resubmit cold fill", "grid-resubmit regenerations"),
    ("reuse.", "setup_s", "cells-oovr; grid-resubmit cold fill", "grid-resubmit regenerations"),
    ("engine.ExecutionEngine.bind", "cells_per_s", "cells-oovr; grid-resubmit cold fill", "grid-resubmit regenerations"),
    ("memory.", "cells_per_s", "cells-oovr; grid-resubmit cold fill", "grid-resubmit regenerations"),
    ("gpu.StagingManager.", "cells_per_s", "cells-oovr", "grid-resubmit regenerations"),
    ("engine.ExecutionEngine.stage_flow", "cells_per_s", "cells-oovr", "grid-resubmit regenerations"),
    ("engine.ExecutionEngine.execute", "cells_per_s", "cells-oovr", "grid-resubmit regenerations"),
    ("core.", "cells_per_s", "cells-oovr", "grid-resubmit regenerations"),
    ("gpu.MultiGPUSystem.", "cells_per_s", "cells-oovr (event half)", "grid-resubmit"),
    ("engine.ExecutionEngine.finish_frame", "cells_per_s", "cells-oovr (event half)", "grid-resubmit"),
    ("engine.event_", "cells_per_s", "cells-oovr (event half)", "grid-resubmit"),
    ("gpu.compose_", "cells_per_s", "cells-oovr", "grid-resubmit regenerations"),
    ("engine.ExecutionEngine.composition_phase", "cells_per_s", "cells-oovr", "grid-resubmit regenerations"),
    ("session.ResultCache.put", "cold grid wall (printed)", "grid-resubmit cold fill", "cells-oovr"),
    ("pool.", "cold grid wall (printed)", "grid-resubmit cold fill", "cells-oovr"),
    ("session.", "cells_per_s; setup_s", "grid-resubmit", "cells-oovr"),
    ("service.", "cells_per_s; setup_s", "grid-resubmit", "cells-oovr"),
    ("trace.", "- (tracing cost)", "all", "-"),
    ("fidelity.", "- (paper fidelity, seed-dependent)", "grid-resubmit cold fill", "cells-oovr"),
)


class Run:
    """Operations attempted and failed, metric values, report lines."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics = {}
        self.lines = []

    def check(self, label: str, problems, operations: int = 1) -> bool:
        """Count ``operations`` checked together; True when they passed."""
        self.attempted += operations
        if problems:
            self.failed += operations
            self.lines.extend(f"FAILED {label}: {problem}" for problem in problems)
        return not problems


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timing_metrics(run: Run, seconds, cells_per_op: int) -> None:
    """``cells_per_s`` from per-operation walls; the operation count,
    median and p90 are printed only."""
    run.metrics["cells_per_s"] = cells_per_op * len(seconds) / sum(seconds)
    run.lines.append(
        f"timed operations: {len(seconds)}, wall p50 "
        f"{percentile(seconds, 50) * 1e3:.1f} ms, p90 "
        f"{percentile(seconds, 90) * 1e3:.1f} ms (not bounded)"
    )


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Figure grids (grid-resubmit)
# ---------------------------------------------------------------------------


def cold_grid(seed: int, cache_dir: Path, jobs: int, trace=None):
    """One cold figure grid in a fresh interpreter: its JSON document."""
    command = [
        sys.executable,
        str(HERE / "figgrid.py"),
        "--seed",
        str(seed),
        "--cache",
        str(cache_dir),
        "--jobs",
        str(jobs),
    ]
    if trace is not None:
        command += ["--trace", str(trace)]
    # Its own session, so a timeout can stop the pool workers too.
    child = subprocess.Popen(
        command,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=COLD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    if child.returncode != 0:
        raise RuntimeError(
            f"figure grid exited {child.returncode}: {stderr[-2000:]}"
        )
    return json.loads(stdout.splitlines()[-1])


def grid_problems(document, seed: int, reference) -> list:
    problems = figgrid.check_texts(document["texts"], seed)
    if document["cache_entries"] != GRID_CELLS:
        problems.append(
            f"cache holds {document['cache_entries']} entries, "
            f"expected {GRID_CELLS}"
        )
    if reference is not None and document["texts"] != reference:
        problems.append("figure texts differ from the cold fill")
    return problems


def cold_operation(run: Run, label: str, seed: int, cache_dir: Path, jobs: int, reference=None, trace=None):
    """A checked cold grid; the document, or None when it failed."""
    try:
        document = cold_grid(seed, cache_dir, jobs, trace)
    except (RuntimeError, ValueError, KeyError, subprocess.TimeoutExpired) as error:
        run.check(label, [f"{type(error).__name__}: {error}"])
        return None
    if run.check(label, grid_problems(document, seed, reference)):
        return document
    return None


def fidelity_lines(claims) -> list:
    lines = ["paper fidelity (reproduced vs paper):"]
    for row in claims:
        lines.append(
            f"  {row['figure']}: {row['claim']}: {row['reproduced']:.3f} "
            f"vs {row['paper']:.3f}"
        )
    for name, gap in figgrid.paper_gaps(claims).items():
        lines.append(f"  {name}: {gap:.4f} ln-ratio")
    return lines


@contextlib.contextmanager
def daemon(cache_dir: Path):
    """An ``oovr serve`` daemon on a thread of this process, serving
    ``cache_dir``: yields a ``remote`` executor bound to it."""
    from repro.service import RemoteExecutor, serve

    server = serve(cache_dir)
    thread = threading.Thread(
        target=server.serve_forever, name="oovr-serve", daemon=True
    )
    thread.start()
    try:
        yield RemoteExecutor(server.url, timeout=REMOTE_TIMEOUT_S)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def grid_resubmit(args, work: Path) -> Run:
    from repro.service import ServiceError

    run = Run()
    cache_dir = work / "cache"
    fill = cold_operation(run, "cold fill (process, jobs=2)", args.seed, cache_dir, 2)
    if fill is None:
        return run
    cold = fill["texts"]
    errors = (ServiceError, ValueError, KeyError, OSError)

    def regenerate(label: str, executor):
        """One checked resubmission: its wall seconds, or None."""
        hits = []
        start = time.perf_counter()
        try:
            texts = figgrid.figure_texts(
                *figgrid.regenerate(
                    args.seed,
                    executor,
                    lambda spec, result, cached: hits.append(cached),
                )
            )
        except errors as error:
            run.check(label, [f"{type(error).__name__}: {error}"])
            return None
        wall = time.perf_counter() - start
        problems = [] if texts == cold else ["output differs from the cold grid"]
        if hits.count(True) != GRID_CELLS:
            problems.append(
                f"{hits.count(True)} of {len(hits)} cells were daemon cache "
                f"hits, expected all {GRID_CELLS}"
            )
        return wall if run.check(label, problems) else None

    run.lines.append(
        f"cold fill: {GRID_CELLS} cells in {fill['grid_s']:.3f} s after a "
        f"{fill['import_s']:.3f} s import of repro.cli (not bounded)"
    )
    run.lines += fidelity_lines(fill["claims"])
    if args.trace:
        traced_resubmit(run, args, work, fill, regenerate)
        return run
    setups, walls = [], []
    deadline = time.monotonic() + args.seconds
    daemons = 0
    while not run.failed and (daemons < MIN_DAEMONS or time.monotonic() < deadline):
        start = time.perf_counter()
        with daemon(cache_dir) as executor:
            if regenerate(f"daemon {daemons} set-up", executor) is not None:
                setups.append(time.perf_counter() - start)
            for index in range(1, DAEMON_REGENERATIONS):
                if run.failed:
                    break
                wall = regenerate(f"daemon {daemons} resubmission {index}", executor)
                if wall is not None:
                    walls.append(wall)
        daemons += 1
    if not walls or not setups:
        return run
    run.metrics["setup_s"] = statistics.median(setups)
    timing_metrics(run, walls, GRID_CELLS)
    run.metrics["peak_rss_mb"] = own_peak_rss_mb()
    return run


# ---------------------------------------------------------------------------
# OO-VR cells (cells-oovr)
# ---------------------------------------------------------------------------


def cell_seeds(seed: int):
    """The workload seed plus :data:`CELL_SEEDS` - 1 more drawn from it."""
    draw = random.Random(seed)
    return [seed] + [draw.randrange(1, 2**31) for _ in range(CELL_SEEDS - 1)]


def cell_specs(seed: int):
    from repro.session import FAST, RunSpec

    return [
        RunSpec(
            framework,
            workload,
            num_frames=FAST.num_frames,
            seed=seed,
            draw_scale=FAST.draw_scale,
            engine=engine,
        )
        for engine in CELL_ENGINES
        for framework in CELL_FRAMEWORKS
        for workload in CELL_WORKLOADS
    ]


def cell_problems(results, pinned: bool, reference) -> list:
    """Checks on one pass: pinned digest, determinism, engine bytes."""
    digest = hashlib.sha256(
        json.dumps([result.to_dict() for result in results], sort_keys=True).encode()
    ).hexdigest()
    problems = []
    if pinned and digest != CELLS_SHA256:
        problems.append(f"cell digest {digest} != pinned {CELLS_SHA256}")
    if reference is not None and digest != reference:
        problems.append("cell records differ from the first pass")
    half = len(results) // 2
    for analytic, event in zip(results[:half], results[half:]):
        for one, other in zip(analytic.frames, event.frames):
            if one.traffic != other.traffic or list(one.dram_bytes) != list(other.dram_bytes):
                problems.append(
                    f"{analytic.framework} {analytic.workload}: analytic and "
                    "event byte counters disagree"
                )
                break
    return problems, digest


class CellPasses:
    """Passes over the ``cells-oovr`` cells, one group per scene seed."""

    def __init__(self, run: Run, seed: int) -> None:
        self.run = run
        self.seeds = cell_seeds(seed)
        self.groups = [cell_specs(one) for one in self.seeds]
        self.references = [None] * len(self.groups)
        # Held before any tracer wraps the module attribute.
        from repro.session.spec import cached_scene

        self.scene_memo = cached_scene

    def one(self, label: str, index: int):
        """One checked pass over group ``index``, each cell counted as one
        operation: the cells' wall seconds, or None when the pass failed
        its checks."""
        results, walls = [], []
        for spec in self.groups[index]:
            start = time.perf_counter()
            results.append(spec.execute())
            walls.append(time.perf_counter() - start)
        pinned = index == 0 and self.seeds[0] == figgrid.DEFAULT_SEED
        problems, digest = cell_problems(results, pinned, self.references[index])
        self.references[index] = self.references[index] or digest
        label = f"{label} (seed {self.seeds[index]})"
        return walls if self.run.check(label, problems, len(walls)) else None

    def setup(self):
        """Clear the scene and work-plan memos, then one compiling pass
        per scene seed: the walls of the passes that passed their checks."""
        from repro import reuse

        self.scene_memo.cache_clear()
        reuse.get_cache().clear()
        passes = [self.one("set-up pass", index) for index in range(len(self.groups))]
        return [sum(walls) for walls in passes if walls is not None]

    def rotation(self, label: str) -> None:
        """One warm pass per scene seed."""
        for index in range(len(self.groups)):
            self.one(label, index)


def cells_oovr(args, work: Path) -> Run:
    run = Run()
    passes = CellPasses(run, args.seed)
    if args.trace:
        traced_cells(run, passes)
        return run
    setups = passes.setup()
    pass_walls = []
    deadline = time.monotonic() + args.seconds
    passes_made = 0
    # Whole rotations only, so that every scene seed weighs the same.
    while (
        passes_made < MIN_ROTATIONS * CELL_SEEDS
        or passes_made % CELL_SEEDS
        or time.monotonic() < deadline
    ):
        walls = passes.one(f"pass {passes_made}", passes_made % CELL_SEEDS)
        passes_made += 1
        if walls is not None:
            pass_walls.append(sum(walls))
    if not pass_walls or not setups:
        return run
    run.metrics["setup_s"] = statistics.median(setups)
    timing_metrics(run, pass_walls, len(passes.groups[0]))
    run.metrics["peak_rss_mb"] = own_peak_rss_mb()
    return run


# ---------------------------------------------------------------------------
# Traced runs
# ---------------------------------------------------------------------------


def layer_metrics(run: Run, rows, nesting, counters, untraced_s, traced_s, reuse_stats) -> None:
    """Fold one traced run into the per-layer metrics; the spans must nest
    (:meth:`tracer.Tracer.nesting_problems`) for the rows to add up."""
    metrics = run.metrics
    metrics.update(rows)
    run.check("trace nesting", nesting)
    hits, misses = reuse_stats
    gets = rows["session.ResultCache.get.calls"]
    metrics["reuse.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["session.ResultCache.hit_ratio"] = (
        counters.get("session.ResultCache.hits", 0.0) / gets if gets else 0.0
    )
    metrics["service.fetched_bytes"] = counters.get("service.fetched_bytes", 0.0)
    metrics["engine.event_windows"] = counters.get("event_windows", 0.0)
    metrics["engine.event_live_rows"] = counters.get("event_live_rows", 0.0)
    metrics["trace.wall_s"] = traced_s
    metrics["trace.untraced_wall_s"] = untraced_s
    metrics["trace.overhead"] = traced_s / untraced_s
    metrics.setdefault("pool.parent_wait_s", 0.0)
    metrics.setdefault("fidelity.paper_gap", 0.0)
    metrics.setdefault("fidelity.paper_gap_heldout", 0.0)


def dump_spans(tracer, workload: str) -> Path:
    path = WORK / "traces" / f"{workload}.json"
    tracer.dump(path)
    return path


def set_fidelity(run: Run, claims) -> None:
    for name, gap in figgrid.paper_gaps(claims).items():
        run.metrics[f"fidelity.{name}"] = gap


def traced_cells(run: Run, passes: CellPasses) -> None:
    """Set-up pass plus warm passes, untraced then traced."""
    from repro import reuse

    def sequence() -> None:
        passes.setup()
        passes.rotation("warm rotation")

    _, start, end, _, _ = traced(sequence, trace=False)
    untraced_s = end - start
    _, start, end, tracer, profile = traced(sequence)
    stats = reuse.get_cache().stats
    layer_metrics(
        run,
        tracer.rows(start, end),
        tracer.nesting_problems(),
        {**tracer.counters, **profile.counters},
        untraced_s,
        end - start,
        (stats.hits, stats.misses),
    )
    run.lines.append(f"spans written to {dump_spans(tracer, 'cells-oovr').relative_to(ROOT)}")


def traced_resubmit(run: Run, args, work: Path, fill, regenerate) -> None:
    """The cold fill's grid again serially, untraced and traced (pool
    workers are invisible to the tracer), then regenerations untraced
    and traced; the rows of the two traces are added together."""
    grids = []
    grid_spans = WORK / "traces" / "grid-resubmit-cold.json"
    for label, trace in (
        ("cold grid (serial, untraced)", None),
        ("cold grid (serial, traced)", grid_spans),
    ):
        cache_dir = work / f"serial-{len(grids)}"
        document = cold_operation(
            run, label, args.seed, cache_dir, 1, fill["texts"], trace
        )
        shutil.rmtree(cache_dir, ignore_errors=True)
        if document is None:
            return
        grids.append(document)
    untraced_grid, traced_grid = grids

    with daemon(work / "cache") as executor:
        def sequence() -> None:
            for index in range(TRACED_REGENERATIONS):
                regenerate(f"resubmission {index}", executor)

        regenerate("set-up", executor)
        _, start, end, _, _ = traced(sequence, trace=False)
        untraced_s = end - start
        _, start, end, tracer, profile = traced(sequence)

    rows = tracer.rows(start, end)
    counters = {**tracer.counters, **profile.counters}
    for name, value in traced_grid["rows"].items():
        rows[name] += value
    for name, value in traced_grid["counters"].items():
        counters[name] = counters.get(name, 0.0) + value
    run.metrics["pool.parent_wait_s"] = fill["pool_wait_s"]
    run.metrics["import.repro_cli_s"] = statistics.median(
        document["import_s"] for document in (fill, *grids)
    )
    set_fidelity(run, fill["claims"])
    layer_metrics(
        run,
        rows,
        tracer.nesting_problems() + traced_grid["nesting"],
        counters,
        untraced_grid["grid_s"] + untraced_s,
        traced_grid["grid_s"] + end - start,
        traced_grid["reuse"],
    )
    run.lines.append(
        f"traced: the cold grid serially (the pool hides workers from the "
        f"tracer), then {TRACED_REGENERATIONS} regenerations"
    )
    run.lines.append(f"spans written to {grid_spans.relative_to(ROOT)}")
    run.lines.append(f"spans written to {dump_spans(tracer, 'grid-resubmit').relative_to(ROOT)}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

WORKLOADS = {
    "cells-oovr": cells_oovr,
    "grid-resubmit": grid_resubmit,
}


def moves(name: str) -> str:
    for prefix, metric, workload, bypass in MOVES:
        if name.startswith(prefix):
            return f"moves {metric} on {workload} (bypassed by {bypass})"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="OO-VR simulator benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=figgrid.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(
            f"error: no simulator sources under {SRC} (run from a checkout "
            "of the repository)",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(SPEC.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import repro.cli  # noqa: F401

    import_s = time.perf_counter() - start
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        run = WORKLOADS[args.workload](args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        run.metrics.setdefault("import.repro_cli_s", import_s)

    for line in run.lines:
        print(line)
    missing = [item["name"] for item in declared if item["name"] not in run.metrics]
    if missing:
        print(
            f"error: {args.workload} produced no value for {', '.join(missing)} "
            f"({run.failed} of {run.attempted} operations failed)",
            file=sys.stderr,
        )
        return 1
    metrics = {}
    for item in declared:
        name, unit = item["name"], item["unit"]
        value = float(run.metrics[name])
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.6g} {unit}  {moves(name) if args.trace else ''}".rstrip())
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
