"""Benchmark of the mmalg package: one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The program is imported from ``src/``;
with no ``src/mmalg`` next to this directory the command exits 2 without a
result.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics.  Host facts,
the tail percentile and, when tracing, the busiest span edges go to standard
error as JSON.  README.md in this directory describes the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

import tracing
from workloads import P61, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("exact_algebra", "bilinear_core", "generators", "transforms", "recursion", "cli")

# Set-up runs SETUP_REPS times before the first pass, and SETUPS_PER_PASS
# times after each pass of an untraced run.  Its median is reported: one slow
# import (say, the first bytecode compile in a fresh tree) does not decide
# the figure, and the samples span the whole run, as the pass samples do.
SETUP_REPS = 10
SETUPS_PER_PASS = 2
MIN_PASSES = 3
# The second seed of the seed-independence check is seed + this.
SECOND_SEED_OFFSET = 1_000_003
# Counts that depend only on shapes: they must not change with the seed.
SHAPE_COUNTS = ("recursion.additions", "recursion.bilinear_mults",
                "exact_algebra.classical_madd")
# Counts that follow the seeded equivalence transform: recorded per seed.
SEEDED_COUNTS = ("cli.bytes_written", "bilinear_core.verify_brent_terms")

# End-to-end times are in reference seconds: wall seconds times
# CALIB_REF_S over the mean time of the calibration loops run just before and
# just after the timed work, that is, seconds on a host where calibrate()
# takes CALIB_REF_S.  On a shared machine the speed of a core can swing by
# half within seconds; the ratio cancels that, where raw wall seconds keep it.
CALIB_REF_S = 0.05
# A calibration loop runs whenever this much timed work has gone by.
CALIB_EVERY_S = 1.0

END_TO_END = {
    "pass_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "exact_algebra.classical_calls": "count",
    "exact_algebra.classical_s": "s",
    "exact_algebra.classical_madd": "count",
    "exact_algebra.classical_madd_per_s": "1/s",
    "exact_algebra.elementwise_calls": "count",
    "exact_algebra.elementwise_s": "s",
    "exact_algebra.elementwise_entries": "count",
    "exact_algebra.block_calls": "count",
    "exact_algebra.block_s": "s",
    "exact_algebra.block_entries": "count",
    "exact_algebra.inverse_s": "s",
    "recursion.multiply_calls": "count",
    "recursion.multiply_s": "s",
    "recursion.self_s": "s",
    "recursion.bilinear_mults": "count",
    "recursion.additions": "count",
    "recursion.scalar_mults": "count",
    "recursion.model_match": "ratio",
    "recursion.padding_useful_ratio": "ratio",
    "recursion.invert_s": "s",
    "recursion.invert_self_s": "s",
    "bilinear_core.parse_s": "s",
    "bilinear_core.parse_lines_per_s": "1/s",
    "bilinear_core.format_s": "s",
    "bilinear_core.verify_brent_calls": "count",
    "bilinear_core.verify_brent_s": "s",
    "bilinear_core.verify_brent_terms": "count",
    "bilinear_core.verify_random_s": "s",
    "generators.gen_s": "s",
    "generators.products_per_s": "1/s",
    "transforms.dual_s": "s",
    "transforms.tensor_s": "s",
    "transforms.equiv_s": "s",
    "transforms.self_s": "s",
    "cli.gen_s": "s",
    "cli.verify_s": "s",
    "cli.dual_s": "s",
    "cli.product_s": "s",
    "cli.square_s": "s",
    "cli.equiv_s": "s",
    "cli.info_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.reverify_s": "s",
    "harness.trace_overhead": "ratio",
    "harness.calib_s": "s",
    "harness.cpu_over_wall": "ratio",
    "harness.failed_frac": "ratio",
}

_FAILED = object()


def import_program():
    """Import mmalg afresh, so every set-up repetition pays for the import."""
    for name in [n for n in sys.modules if n == "mmalg" or n.startswith("mmalg.")]:
        del sys.modules[name]
    importlib.import_module("mmalg")
    return types.SimpleNamespace(
        **{layer: importlib.import_module(f"mmalg.{layer}") for layer in LAYERS})


class _Box:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def calibrate() -> float:
    """Seconds for a fixed stdlib-only loop of the work mmalg does most --
    exact rational arithmetic, big-int modular products, small boxed objects,
    tuples and dict updates.  Its time tracks how fast the host runs right
    now, so a slow host can be told from a slow program.  The collector is
    off while it runs, so the program's heap does not change its time."""
    gc.disable()
    try:
        return _calibration_loop()
    finally:
        gc.enable()


def _calibration_loop() -> float:
    start = perf_counter()
    acc = Fraction(0)
    x = 1
    table = {}
    recent = []
    for i in range(1, 12001):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        box = _Box(x * (i + 12345) % P61)
        x = box.value
        recent.append((box, i))
        table[(i, x & 7)] = acc
        if len(recent) > 64:
            del recent[:32]
    return perf_counter() - start


def to_reference(seconds, calib_before, calib_after):
    return seconds * CALIB_REF_S / ((calib_before + calib_after) / 2)


def host_facts() -> dict:
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "git_commit": commit,
    }


def tail(samples):
    """(value, percentile): the highest order statistic with at least ten
    samples above it, or the smallest when there are ten or fewer."""
    ordered = sorted(samples)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def run_pass(workload, inp, calib):
    """Time one pass; returns (wall seconds, reference seconds, results).

    The operations are timed one by one.  Once a segment of them has taken
    CALIB_EVERY_S, a calibration loop runs, untimed, and the segment is scaled
    by the loops on either side of it; ``calib`` collects every loop time.
    A failing operation is recorded and the pass goes on.
    """
    results = []
    wall = reference = segment = 0.0
    for label, thunk in workload.ops(inp):
        start = perf_counter()
        try:
            results.append((label, thunk()))
        except Exception:
            traceback.print_exc()
            results.append((label, _FAILED))
        segment += perf_counter() - start
        if segment >= CALIB_EVERY_S:
            calib.append(calibrate())
            wall += segment
            reference += to_reference(segment, calib[-2], calib[-1])
            segment = 0.0
    if segment:
        calib.append(calibrate())
        wall += segment
        reference += to_reference(segment, calib[-2], calib[-1])
    return wall, reference, results


def check_pass(workload, inp, results):
    """(attempted, failed) for one pass, after its timing has ended."""
    failed = 0
    for label, result in results:
        ok = False
        if result is not _FAILED:
            try:
                ok = workload.check(inp, label, result)
            except Exception:
                traceback.print_exc()
        if not ok:
            failed += 1
            print(f"check failed: {workload.name} {label}", file=sys.stderr)
    return len(results), failed


class Run:
    def __init__(self, args, workdir):
        self.name = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.calib = [calibrate()]
        self.setup_wall = []
        self.setup = []
        for _ in range(SETUP_REPS):
            self.workload, self.first = self.set_up()

    def set_up(self):
        """Import mmalg afresh, build the first pass's inputs and warm up,
        timed between calibration loops; returns (workload, first inputs)."""
        gc.collect()
        start = perf_counter()
        workload = WORKLOADS[self.name](import_program(), self.workdir)
        first = workload.inputs(self.seed, 0)
        workload.warm_up(self.seed)
        took = perf_counter() - start
        self.calib.append(calibrate())
        self.setup_wall.append(took)
        self.setup.append(to_reference(took, self.calib[-2], self.calib[-1]))
        return workload, first

    def one_pass(self, inp, tracer=None):
        """Run and check one pass; returns (wall seconds, reference seconds,
        per-pass stats)."""
        # Garbage left by the previous pass and its checks is not this pass's.
        gc.collect()
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            took, reference, results = run_pass(self.workload, inp, self.calib)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.workload.stats.clear()
        attempted, failed = check_pass(self.workload, inp, results)
        self.attempted += attempted
        self.failed += failed
        return took, reference, dict(self.workload.stats)

    def loop(self, body):
        """Call body(inp, index) on fresh inputs until the time is spent."""
        start = perf_counter()
        cpu = process_time()
        index = 0
        inp = self.first
        while True:
            took = body(inp, index)
            index += 1
            elapsed = perf_counter() - start
            if index >= MIN_PASSES and elapsed + took > self.seconds:
                break
            inp = self.workload.inputs(self.seed, index)
        return (process_time() - cpu) / (perf_counter() - start)


def layer_row(tracer, stats):
    row = tracer.layer_metrics()
    row["cli.bytes_written"] = stats.get("bytes_written", 0)
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "mmalg" / "__init__.py").is_file():
        print(f"error: no mmalg package under {src}; run from a full source tree",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def end_to_end(run, info):
    passes, reference = [], []

    def body(inp, index):
        took, ref, _ = run.one_pass(inp)
        passes.append(took)
        reference.append(ref)
        for _ in range(SETUPS_PER_PASS):
            run.set_up()
        return took

    info["cpu_over_wall"] = run.loop(body)
    wall_tail, percentile = tail(passes)
    info.update(
        passes=len(passes),
        wall_pass_s_p50=statistics.median(passes),
        wall_setup_s=statistics.median(run.setup_wall),
        pass_tail={"s": tail(reference)[0], "wall_s": wall_tail,
                   "percentile": round(percentile, 1), "samples": len(passes)},
        wall_pass_s=passes,
        wall_setup_samples_s=run.setup_wall,
    )
    return {
        "pass_s_p50": statistics.median(reference),
        "setup_s": statistics.median(run.setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, True


def per_layer(run, info):
    tracer = tracing.Tracer()
    untraced, traced, rows = [], [], []
    model = Counter()

    def body(inp, index):
        # Alternate which of the pair runs first, so drift hits both alike.
        took_pair = 0.0
        for on in ((False, True) if index % 2 == 0 else (True, False)):
            took, ref, stats = run.one_pass(inp, tracer if on else None)
            took_pair += took
            if on:
                traced.append(ref)
                rows.append(layer_row(tracer, stats))
                model.update(stats)
            else:
                untraced.append(ref)
        return took_pair

    info["cpu_over_wall"] = run.loop(body)
    info["top_edges"] = tracer.top_edges()

    # Seed independence: one more traced pass, on the inputs of another seed.
    seed = run.seed
    other_seed = seed + SECOND_SEED_OFFSET
    _, _, stats = run.one_pass(run.workload.inputs(other_seed, 0), tracer)
    other = layer_row(tracer, stats)
    correct = all(row[k] == rows[0][k] for row in rows + [other] for k in SHAPE_COUNTS)
    if not correct:
        print("error: shape-only counts changed between passes or seeds", file=sys.stderr)
    info["seeded_counts"] = {
        str(seed): {k: rows[0][k] for k in SEEDED_COUNTS},
        str(other_seed): {k: other[k] for k in SEEDED_COUNTS},
    }
    if tracer.missing or tracer.hook_errors:
        info.update(trace_missing=tracer.missing, trace_hook_errors=tracer.hook_errors)
    info["passes"] = len(traced)

    values = {k: statistics.median(row[k] for row in rows) for k in rows[0]}
    eligible = model["model_eligible"]
    values.update({
        # Vacuously 1.0 on workloads with no threshold-1 power-of-side product.
        "recursion.model_match": model["model_match"] / eligible if eligible else 1.0,
        "harness.trace_overhead": statistics.median(traced) / statistics.median(untraced),
        "harness.calib_s": statistics.median(run.calib),
        "harness.cpu_over_wall": info["cpu_over_wall"],
        "harness.failed_frac": run.failed / run.attempted,
    })
    return values, correct


def measure(args, workdir) -> int:
    run = Run(args, workdir)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **host_facts()}
    if args.trace:
        values, correct = per_layer(run, info)
        units = PER_LAYER
    else:
        values, correct = end_to_end(run, info)
        units = END_TO_END
    info.update(calib_s=statistics.median(run.calib), attempted=run.attempted,
                failed=run.failed)
    print(json.dumps(info), file=sys.stderr)
    result = {
        "correct": correct and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
