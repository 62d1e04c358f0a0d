"""Time two source trees against each other in one process.

    python3 tools/ab.py PARENT_SRC CHANGE_SRC --workload NAME --passes N [--seed S]

Each SRC holds an ``mmalg`` package (a tree's ``src``), imported as a package
of its own.  After a warm-up and one untimed pass per side, each pass runs
the operations of ``bench/workloads.py``'s workload NAME on both sides, the
side that goes first alternating, and checks every result after the timing.
It prints each side's median wall time per operation and per pass, the
median of the pass-by-pass ratios (change over parent), and in how many
passes the change was lower; a failed check exits 1.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import sys
import tempfile
import types
from collections import defaultdict
from operator import truediv
from pathlib import Path
from statistics import median
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from run import LAYERS, WORKLOADS  # noqa: E402


def load(src: str, name: str) -> types.SimpleNamespace:
    """The layers of the mmalg package under src, imported as the package name."""
    package = Path(src, "mmalg")
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return types.SimpleNamespace(**{x: importlib.import_module(f"{name}.{x}") for x in LAYERS})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--passes", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    op_s, failed = (defaultdict(list), defaultdict(list)), 0  # per side: label -> seconds
    with tempfile.TemporaryDirectory() as workdir:
        sides = [WORKLOADS[args.workload](load(src, f"mmalg_{i}"), tempfile.mkdtemp(dir=workdir))
                 for i, src in enumerate((args.parent_src, args.change_src))]
        for workload in sides:
            workload.warm_up(args.seed)
            for _, thunk in workload.ops(workload.inputs(args.seed, args.passes)):
                thunk()
        for index in range(args.passes):
            for side in (0, 1) if index % 2 == 0 else (1, 0):
                workload, results = sides[side], []
                inp = workload.inputs(args.seed, index)
                gc.collect()
                for label, thunk in workload.ops(inp):
                    start = perf_counter()
                    results.append((label, thunk()))
                    op_s[side][label].append(perf_counter() - start)
                op_s[side]["pass"].append(sum(op_s[side][label][-1] for label, _ in results))
                failed += sum(not workload.check(inp, label, result) for label, result in results)
    print(f"{'operation':<24}{'parent ms':>12}{'change ms':>12}{'ratio':>8}")
    for label, parent in op_s[0].items():
        p, c, change = median(parent) * 1e3, median(op_s[1][label]) * 1e3, op_s[1][label]
        print(f"{label:<24}{p:>12.2f}{c:>12.2f}{median(map(truediv, change, parent)):>8.3f}")
    lower = sum(map(float.__lt__, op_s[1]["pass"], op_s[0]["pass"]))
    print(f"change lower in {lower} of {args.passes} passes; {failed} checks failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
