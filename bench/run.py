"""spreadlab benchmark.

    python3 bench/run.py --workload spectra|bounds|conjecture --seed N --seconds S --trace 0|1

Run from anywhere inside a spreadlab checkout; the package is imported from
the checkout's src/ directory and nowhere else. A single client calls items
back to back (a closed loop); only the conjecture workload uses a 2-worker
pool. Every output is checked against oracles that share no code with
spreadlab (bench/oracles.py).

--trace 0 prints the end-to-end metrics; --trace 1 runs the same work once
untraced and once with every public spreadlab function wrapped in a timing
span, and prints the per-layer metrics. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"  # checkpoints and span files; listed in .gitignore
SETUP_REPEATS = 11
WARMUP_ITEMS = 3
CONJECTURE_THREADS = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "linalg.eigensolve_ms": "ms",
    "linalg.eigensolve_calls": "count",
    "linalg.eigensolve_ns_per_n3": "ns",
    "spectral.matrix_build_ms": "ms",
    "spectral.self_ms": "ms",
    "spectral.spread_calls_per_item": "1/item",
    "graph.parse_ms": "ms",
    "graph.apd_ms": "ms",
    "graph.apd_calls_per_item": "1/item",
    "graph.self_ms": "ms",
    "quotient.calls": "count",
    "quotient.ms": "ms",
    "quotient.us_per_call": "us",
    "structures.enum_ms": "ms",
    "structures.witnesses": "count",
    "structures.truncated_items": "count",
    "bounds.self_ms": "ms",
    "search.canonical_ms": "ms",
    "search.canonical_calls": "count",
    "search.candidates": "count",
    "search.classes": "count",
    "search.eigensolves": "count",
    "search.eigensolves_per_class": "ratio",
    "search.self_ms": "ms",
    "search.chunks": "count",
    "search.checkpoint_bytes": "B",
    "search.parallel_efficiency": "ratio",
    "trace.spans": "count",
    "trace.wall_ms": "ms",
    "trace.untraced_wall_ms": "ms",
    "trace.overhead": "ratio",
    "trace.self_coverage": "ratio",
}


def load_spreadlab():
    """Import spreadlab from this checkout's src/, or exit non-zero."""
    init = SRC / "spreadlab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: {init} is missing; run from a spreadlab checkout")
    sys.path.insert(0, str(SRC))
    import spreadlab

    if Path(spreadlab.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench: imported spreadlab from {spreadlab.__file__}, not {init}")
    return spreadlab


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing spreadlab (numpy
    included). One unmeasured import first writes the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import spreadlab"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb(include_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


class Tally:
    """Attempted and failed operations; every failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, reason: str | None) -> None:
        self.attempted += 1
        if reason:
            self.failed += 1
            print(f"bench: FAIL {what}: {reason}", file=sys.stderr)


def more_passes(walls: list[float], seconds: float) -> bool:
    """Whole passes until the measured time is within half a pass of `seconds`."""
    return not walls or sum(walls) + walls[-1] / 2 <= seconds


def print_passes(walls: list[float], what: str) -> None:
    print(f"# {len(walls)} passes of {what}:", " ".join(f"{w:.3f}s" for w in walls))


# ---------------------------------------------------------------------------
# spectra and bounds: a batch of items, called back to back


def run_pass(items, call, check, tally: Tally, verified: dict, tracer=None) -> tuple[list[float], float]:
    """Call every item once and check the outputs after the timed loop: an
    item's first output against the oracle, later ones against that verified
    output. Returns the per-item latencies and the pass's wall time."""
    outputs, latencies = [], []
    start = perf_counter()
    for item in items:
        if tracer:
            tracer.item = item.index
        t0 = perf_counter()
        try:
            out = call(item)
        except Exception as exc:  # a failing item is counted, the run goes on
            out = exc
        latencies.append(perf_counter() - t0)
        outputs.append(out)
    wall = perf_counter() - start
    for item, out in zip(items, outputs):
        if isinstance(out, Exception):
            reason = "raised " + "".join(traceback.format_exception(out))
        elif item.index in verified:
            reason = None if out == verified[item.index] else "output differs from the verified first output"
        else:
            reason = check(item, out)
            if reason is None:
                verified[item.index] = out
        tally.record(f"item {item.index} ({item.family}, n={item.n}, {item.op})", reason)
    return latencies, wall


def warm_up(items, call) -> None:
    for item in items[:WARMUP_ITEMS]:
        try:
            call(item)
        except Exception:  # counted when the timed pass meets the item
            pass


def batch_metrics(items, call, check, tally: Tally, seconds: float) -> dict[str, float]:
    """Whole passes over the batch for about `seconds`. Pass times are
    reported as medians, which ignore a pass that falls into a spell of CPU
    contention on a shared host."""
    warm_up(items, call)
    latencies, walls, verified = [], [], {}
    while more_passes(walls, seconds):
        lat, wall = run_pass(items, call, check, tally, verified)
        latencies += lat
        walls.append(wall)
    deciles = statistics.quantiles(latencies, n=10)
    print_passes(walls, f"{len(items)} items")
    return {
        "wall_s": statistics.median(walls),
        "items_per_s": len(items) / statistics.median(walls),
        "item_p50_ms": 1e3 * statistics.median(latencies),
        "item_p90_ms": 1e3 * deciles[8],
        "peak_rss_mb": peak_rss_mb(include_children=False),
    }


def batch_trace(sl, items, call, check, tally: Tally, span_path: Path) -> dict[str, float]:
    """One untraced pass, then one traced pass of the same batch."""
    from spans import Tracer, layer_metrics

    warm_up(items, call)
    verified = {}
    _, untraced = run_pass(items, call, check, tally, verified)
    tracer = Tracer()
    tracer.install(sl)
    try:
        _, traced = run_pass(items, call, check, tally, verified, tracer)
    finally:
        tracer.uninstall()
    tracer.write(span_path)
    metrics = layer_metrics(tracer, len(items), traced)
    metrics["trace.untraced_wall_ms"] = 1e3 * untraced
    metrics["trace.overhead"] = traced / untraced - 1
    return metrics


def spectra(sl, args, tally: Tally, span_path: Path) -> dict[str, float]:
    import inputs
    import oracles

    items = inputs.spectra_items(args.seed)
    refs = {}

    def call(item):
        return sl.spread(sl.parse_graph6(item.g6), item.op)

    def check(item, report):
        if item.index not in refs:
            refs[item.index] = oracles.reference_spectrum(oracles.matrix_of(item.graph, item.op))
        return oracles.check_spread(report, refs[item.index])

    if args.trace:
        return batch_trace(sl, items, call, check, tally, span_path)
    return batch_metrics(items, call, check, tally, args.seconds)


def bounds(sl, args, tally: Tally, span_path: Path) -> dict[str, float]:
    import inputs
    import oracles

    tally.record("verify_tables", oracles.check_tables(sl.verify_tables()))
    items = inputs.bounds_items(args.seed)
    refs = {}

    def call(item):
        bound = getattr(sl, "bound_" + item.op)
        g = sl.parse_graph6(item.g6)
        return bound(g) if item.cap is None else bound(g, cap=item.cap)

    def check(item, report):
        if item.index not in refs:
            refs[item.index] = oracles.BoundOracle(item)
        return refs[item.index].check(report)

    if args.trace:
        return batch_trace(sl, items, call, check, tally, span_path)
    return batch_metrics(items, call, check, tally, args.seconds)


# ---------------------------------------------------------------------------
# conjecture: one exhaustive n = 9 search per pass


def conjecture_pass(sl, threads: int):
    """check_conjecture(9) with a fresh checkpoint; returns the report, its
    wall time, the checkpoint's lines and its size in bytes."""
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        checkpoint = Path(tmp) / "checkpoint.jsonl"
        t0 = perf_counter()
        report = sl.check_conjecture(9, threads=threads, checkpoint=str(checkpoint))
        wall = perf_counter() - t0
        return report, wall, checkpoint.read_text().splitlines(), checkpoint.stat().st_size


def check_passes(passes, tally: Tally) -> None:
    import oracles  # only now: networkx stays out of the pool workers' memory

    for report, _, lines, _ in passes:
        tally.record("check_conjecture(9)", oracles.check_conjecture(report, lines))


def conjecture(sl, args, tally: Tally, span_path: Path) -> dict[str, float]:
    if args.trace:
        return conjecture_trace(sl, tally, span_path)
    passes, walls = [], []
    while more_passes(walls, args.seconds):
        passes.append(conjecture_pass(sl, CONJECTURE_THREADS))
        walls.append(passes[-1][1])
    # read before any other child process runs: CHILDREN is the largest pool worker
    rss = peak_rss_mb(include_children=True)
    print_passes(walls, f"check_conjecture(9, threads={CONJECTURE_THREADS})")
    check_passes(passes, tally)
    wall = statistics.median(walls)
    candidates = passes[0][0].candidates or 1  # 0 already failed the oracle
    return {
        "wall_s": wall,
        "items_per_s": candidates / wall,
        # the pool gives no per-candidate timing: both percentiles are the
        # median pass's wall time per candidate
        "item_p50_ms": 1e3 * wall / candidates,
        "item_p90_ms": 1e3 * wall / candidates,
        "peak_rss_mb": rss,
    }


def conjecture_trace(sl, tally: Tally, span_path: Path) -> dict[str, float]:
    """Serial untraced pass, serial traced pass, then an untraced 2-worker
    pass for the parallel efficiency."""
    from spans import Tracer, layer_metrics

    serial = conjecture_pass(sl, 1)
    tracer = Tracer()
    tracer.install(sl)
    try:
        tracer.item = 0
        traced = conjecture_pass(sl, 1)
    finally:
        tracer.uninstall()
    parallel = conjecture_pass(sl, CONJECTURE_THREADS)
    check_passes([serial, traced, parallel], tally)
    tracer.write(span_path)
    report, wall, _, size = traced
    metrics = layer_metrics(tracer, report.candidates, wall)
    metrics.update({
        "search.candidates": report.candidates,
        "search.classes": report.graphs_checked,
        "search.eigensolves_per_class": metrics["search.eigensolves"] / max(report.graphs_checked, 1),
        "search.chunks": report.chunks,
        "search.checkpoint_bytes": size,
        "search.parallel_efficiency": serial[1] / (CONJECTURE_THREADS * parallel[1]),
        "trace.untraced_wall_ms": 1e3 * serial[1],
        "trace.overhead": wall / serial[1] - 1,
    })
    return metrics


WORKLOADS = {"spectra": spectra, "bounds": bounds, "conjecture": conjecture}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sl = load_spreadlab()
    WORK.mkdir(exist_ok=True)
    # temporary files of this process and its children stay in the checkout
    tempfile.tempdir = str(WORK)
    os.environ["TMPDIR"] = str(WORK)
    tally = Tally()
    span_path = WORK / f"spans-{args.workload}-{args.seed}.json.gz"
    print(f"# spreadlab bench: workload={args.workload} seed={args.seed} trace={args.trace}")
    measured = WORKLOADS[args.workload](sl, args, tally, span_path)

    wanted = PER_LAYER if args.trace else END_TO_END
    if not args.trace:
        measured["setup_s"] = measure_setup()
    metrics = {name: {"value": float(measured.get(name, 0.0)), "unit": unit} for name, unit in wanted.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio {tally.failed / tally.attempted:.6g} ratio ({tally.failed} of {tally.attempted})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
