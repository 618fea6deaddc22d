"""The Fig. 15 + Fig. 17 ``--fast`` grid: 162 cells, two figure texts.

Shared by the ``grid-resubmit`` workload's regenerations, and the
program its cold fill runs in a fresh interpreter::

    python3 perfbench/figgrid.py --seed 2019 --cache DIR --jobs 2 \
        [--trace SPANS.json]

It times ``import repro.cli``, regenerates both figures through the
given executor into the (empty) result cache at ``DIR``, and prints one
JSON line: monotonic import-done time, import and grid wall, both
figure texts, the paper-fidelity claims, the cache entry count, peak
RSS (this process plus its pool workers) and, with ``--trace``, the
per-layer rows of :mod:`tracer`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
GOLDEN_FIG15 = ROOT / "benchmarks" / "golden" / "fig15_fast.txt"

#: The workload seed every figure golden and pinned digest is for.
DEFAULT_SEED = 2019
#: SHA-256 of the Fig. 17 ``--fast`` text at :data:`DEFAULT_SEED`.
FIG17_SHA256 = "14e76eb2ea2ebf6b98960149c4de48de9f83544a524f38cd72310a0faba1c847"

#: How each stated paper number is reproduced from a figure's series:
#: the ratio of ``Avg.`` rows (Fig. 15) or of bandwidth columns
#: (Fig. 17).  Fig. 15's claims are in-sample (``scripts/calibrate.py``
#: tunes on them); Fig. 17's is held out.
CLAIMS = {
    "Figure 15": {
        "OO_APP avg": lambda s: s["OO_APP"]["Avg."],
        "OOVR avg vs object-level": lambda s: s["OOVR"]["Avg."]
        / s["Object-Level"]["Avg."],
        "OOVR avg vs OO_APP": lambda s: s["OOVR"]["Avg."] / s["OO_APP"]["Avg."],
    },
    "Figure 17": {
        "OOVR insensitivity (256/32 ratio)": lambda s: s["OOVR"]["256GB/s"]
        / s["OOVR"]["32GB/s"],
    },
}


def regenerate(seed: int, executor, on_result=None):
    """Both figures at the fast preset for ``seed``: (fig15, fig17)."""
    from dataclasses import replace

    from repro.experiments import figures
    from repro.session import FAST

    experiment = replace(FAST, seed=seed)
    return (
        figures.fig15_oovr_speedup(
            experiment, executor=executor, on_result=on_result
        ),
        figures.fig17_link_bandwidth(
            experiment, executor=executor, on_result=on_result
        ),
    )


def figure_texts(fig15, fig17) -> dict:
    """The texts ``oovr fig 15 --fast`` / ``oovr fig 17 --fast`` print."""
    return {"fig15": fig15.to_text() + "\n", "fig17": fig17.to_text() + "\n"}


def claims(*figures) -> list:
    """One ``{figure, claim, paper, reproduced}`` row per paper claim."""
    rows = []
    for figure in figures:
        for claim, paper in figure.paper_reference.items():
            reproduced = CLAIMS[figure.figure][claim](figure.series)
            rows.append(
                {
                    "figure": figure.figure,
                    "claim": claim,
                    "paper": paper,
                    "reproduced": reproduced,
                }
            )
    return rows


def paper_gaps(rows: list) -> dict:
    """Mean ``|ln(reproduced / paper)|`` in-sample (Fig. 15) and
    held out (Fig. 17)."""

    def gap(figure: str) -> float:
        logs = [
            abs(math.log(row["reproduced"] / row["paper"]))
            for row in rows
            if row["figure"] == figure
        ]
        return sum(logs) / len(logs)

    return {
        "paper_gap": gap("Figure 15"),
        "paper_gap_heldout": gap("Figure 17"),
    }


def check_texts(texts: dict, seed: int) -> list:
    """Problems with the figure texts against the pinned outputs
    (checked only at :data:`DEFAULT_SEED`, the seed they exist for)."""
    if seed != DEFAULT_SEED:
        return []
    problems = []
    if texts["fig15"] != GOLDEN_FIG15.read_text():
        problems.append(f"Fig. 15 text differs from {GOLDEN_FIG15.name}")
    digest = hashlib.sha256(texts["fig17"].encode()).hexdigest()
    if digest != FIG17_SHA256:
        problems.append(f"Fig. 17 digest {digest} != pinned {FIG17_SHA256}")
    return problems


def _vm_hwm_kb(pid: int) -> int:
    """Peak RSS of a live process (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class GridExecutor:
    """Runs each figure's grid through ``inner`` into one result cache.

    Also measures what the parent does around the pool: time it waits
    (wall minus its own CPU time) and the summed peak RSS of the pool
    workers alive during one sweep, sampled as results arrive.
    """

    def __init__(self, inner, cache) -> None:
        self.inner = inner
        self.cache = cache
        self.name = inner.name
        self.wait_s = 0.0
        self.workers_peak_kb = 0

    def run(self, specs, cache=None, on_result=None):
        peaks = {}

        def sample(spec, result, cached):
            for child in multiprocessing.active_children():
                peaks[child.pid] = max(
                    peaks.get(child.pid, 0), _vm_hwm_kb(child.pid)
                )
            if on_result is not None:
                on_result(spec, result, cached)

        wall, cpu = time.monotonic(), time.process_time()
        results = self.inner.run(specs, cache=self.cache, on_result=sample)
        self.wait_s += (time.monotonic() - wall) - (time.process_time() - cpu)
        self.workers_peak_kb = max(self.workers_peak_kb, sum(peaks.values()))
        return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--cache", required=True, help="empty cache dir")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--trace", help="write spans here and report rows")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    begin = time.monotonic()
    import repro.cli  # noqa: F401  (the import a cold ``oovr`` pays)

    imported = time.monotonic()
    from repro.session import ProcessExecutor, ResultCache, SerialExecutor

    from tracer import traced

    cache = ResultCache(args.cache)
    inner = ProcessExecutor(args.jobs) if args.jobs > 1 else SerialExecutor()
    executor = GridExecutor(inner, cache)
    out = {"imported": imported, "import_s": imported - begin}
    (fig15, fig17), start, end, tracer, profile = traced(
        lambda: regenerate(args.seed, executor), trace=bool(args.trace)
    )
    out["grid_s"] = end - start
    if tracer is not None:
        from repro import reuse

        tracer.dump(Path(args.trace))
        stats = reuse.get_cache().stats
        out["rows"] = tracer.rows(start, end)
        out["nesting"] = tracer.nesting_problems()
        out["counters"] = {**tracer.counters, **profile.counters}
        out["reuse"] = [stats.hits, stats.misses]
    out["texts"] = figure_texts(fig15, fig17)
    out["claims"] = claims(fig15, fig17)
    out["cache_entries"] = len(cache)
    out["pool_wait_s"] = executor.wait_s
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["rss_mb"] = (own_kb + executor.workers_peak_kb) / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
