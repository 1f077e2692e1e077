"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 10 --trace 0

Workloads: ``serve-cold``, ``serve-hot``, ``solve-grid``, ``leaf-pool``
(see ``BENCHMARK.json`` for why each exists).  ``--trace 0`` measures
the end-to-end metrics; ``--trace 1`` runs an untraced half-length
phase, a traced full-length phase and another untraced half-length
phase, and reports the per-layer metrics and the tracing overhead.
A human-readable report goes to stderr, the full
run record (machine fingerprint, commit, seed, every metric, and the
Chrome trace when traced) to ``perfbench/out/``, and the last stdout
line is the JSON result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is 0 for a correct run, 1 for a run with wrong, refused
or raising operations, 2 when the ``repro`` sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("serve-cold", "serve-hot", "solve-grid", "leaf-pool")


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def use_sources() -> Optional[str]:
    """Put the checkout's ``src`` and root first on ``sys.path``.

    Returns a message when the checkout has no ``repro`` sources: the
    benchmark measures the program beside it and nothing else.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return f"no repro sources under {src}"
    sys.path[:0] = [str(src), str(ROOT)]
    return None


def factories() -> Dict[str, Callable[[int], Any]]:
    from perfbench.leaf_pool import LeafPool
    from perfbench.serving import COLD, HOT, ServeWorkload
    from perfbench.solve_grid import SolveGrid

    return {
        "serve-cold": lambda seed: ServeWorkload(seed, COLD),
        "serve-hot": lambda seed: ServeWorkload(seed, HOT),
        "solve-grid": SolveGrid,
        "leaf-pool": LeafPool,
    }


def commit() -> str:
    """The checkout's commit from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "unknown"
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return platform.processor() or platform.machine()
    return platform.processor() or platform.machine()


def fingerprint() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def stop_resource_tracker() -> None:
    """Stop and reap the stdlib's shared-memory resource tracker.

    The shm executor's first segment starts it as a child of this
    process; every segment is unlinked by now, so it has nothing left
    to clean up.  (It would exit on its own once this process ended,
    but the benchmark waits for every process it caused to start.)
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    missing = use_sources()
    if missing is not None:
        print(f"perfbench: {missing}", file=sys.stderr)
        return 2
    from perfbench.clock import now

    begin = now()
    from perfbench import imports  # noqa: F401  (the timed imports)
    import_s = now() - begin

    from perfbench.catalog import END_TO_END, PER_LAYER
    from perfbench.harness import run_workload
    from repro.telemetry.export import validate_chrome_trace

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    try:
        report = run_workload(
            factories()[args.workload], args.seed, args.seconds,
            bool(args.trace), import_s,
        )
    finally:
        stop_resource_tracker()
    units = {name: unit for name, unit, _b in END_TO_END + PER_LAYER}
    record: Dict[str, Any] = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "machine": fingerprint(),
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": report.metrics,
        **{k: v for k, v in report.details.items() if k != "chrome"},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        chrome = report.details["chrome"]
        problems = validate_chrome_trace(chrome)
        if problems:
            report.problems.append(f"chrome trace invalid: {problems[:3]}")
        (OUT / f"{stem}.chrome.json").write_text(json.dumps(chrome))
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"{args.workload} seed={args.seed} commit={record['commit']} "
          f"machine={record['machine']}", file=sys.stderr)
    print(f"  {report.attempted} attempted, {report.failed} failed, error_rate "
          f"{record['error_rate']:.4g}, tail quantile "
          f"{record['tail_quantile']}", file=sys.stderr)
    for name, value in report.metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}", file=sys.stderr)
    for message in record["failures"]:
        print(f"  FAILED {message}", file=sys.stderr)
    correct = report.correct
    print(json.dumps({
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in report.metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
