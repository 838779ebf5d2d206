"""Check that the exact per-layer counts repeat from run to run.

Usage (from the repository root):

    python3 bench/check_counts.py

For each workload the traced operation runs twice, with two
different hash seeds, and every count metric (`tracer.EXACT`: calls, cells,
matrix sizes, kept and merged quotients, orders skipped, coefficient bits,
span count) must be identical.  Exits 1 on any difference or failed check.
"""

from __future__ import annotations

import sys
from time import perf_counter

from run import OUT_DIR, RUN_LIMIT_S, WORKLOADS, problem_with, spawn
from tracer import EXACT, layer_metrics, load_spans


def exact_counts(name: str, seed: int) -> dict:
    wl = WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"counts-{name}-{seed}.jsonl"
    child = spawn("trace", wl, seed, perf_counter() + RUN_LIMIT_S, str(spans_file))
    problem = problem_with(wl, child)
    if problem:
        raise RuntimeError(f"{name}, seed {seed}: {problem}")
    wall = child.result["wall_s"]
    metrics = layer_metrics(load_spans(spans_file), wall, wall)
    return {key: metrics[key] for key in EXACT}


def main() -> int:
    ok = True
    for name in WORKLOADS:
        try:
            first, second = exact_counts(name, 1), exact_counts(name, 2)
        except RuntimeError as exc:
            print(f"FAILED {exc}")
            ok = False
            continue
        differ = [key for key in EXACT if first[key] != second[key]]
        for key in differ:
            print(f"MISMATCH {name} {key}: {first[key]} != {second[key]}")
        ok = ok and not differ
        print(f"{name}: {len(EXACT) - len(differ)}/{len(EXACT)} counts repeat")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
