"""fibrecheck benchmark: fixed CLI workloads, end to end and per layer.

Usage (from the repository root):

    python3 bench/run.py --workload scan-small --seed 1 --seconds 36 --trace 0

Every operation is one `fibrecheck.cli.main(argv, out)` call in a fresh child
interpreter (`bench/child.py`), started one at a time, never concurrently.
`--seed` sets PYTHONHASHSEED of every child: a seed fixes the interpreter's
hash order, and the output digest must not depend on it.  The command lines
themselves are fixed and pinned by the SHA-256 of their output.

With `--trace 0` the run repeats the operation, untraced, until `--seconds`
have passed, with two set-up probes (children that stop after set-up) before
each operation, and reports the end-to-end metrics `op_cal_s`, `peak_rss_mib`
and `setup_s`, each a median.  Times are CPU times calibrated by a reference
loop (`child.reference_s`) timed next to them: a shared host runs Python at a
speed that drifts by a third and more within a minute, and the reference loop
drifts with it.  With `--trace 1` it runs the operation once untraced and once
with layer spans (`bench/tracer.py`), and reports the per-layer metrics.  Every
operation's exit code, output digest and verdict are checked; a failed check
makes `correct` false and the exit code 1.  The last stdout line is the JSON
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

from tracer import PER_LAYER, layer_metrics, load_spans

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
OUT_DIR = ROOT / ".bench_out"

PROBES_PER_OP = 2  # set-up-only children before each operation
RUN_LIMIT_S = 165.0  # a run must end within 180 s; no child may outlive this
REFERENCE_NOMINAL_S = 0.25  # calibrated times are scaled to this reference time, about its median


def _scan_verdict(order: int) -> Callable[[str], bool]:
    line = f"verdict: NO OBSTRUCTION up to order {order}\n"
    return lambda text: line in text


def _untwist_equal(text: str) -> bool:
    try:
        return json.loads(text)["orders"]["equal"] is True
    except (ValueError, KeyError, TypeError):
        return False


@dataclass(frozen=True)
class Workload:
    fixture: str
    argv: tuple[str, ...]
    sha256: str  # digest of stdout, recorded when the benchmark was defined
    verdict: Callable[[str], bool]  # the result the output must state


WORKLOADS = {
    "scan-small": Workload(
        "f2xz",
        ("scan", "--fixture", "f2xz", "--max-quotient-order", "4", "--jobs", "1"),
        "4442d173e2d1b4b3c3bb5ec94e55ceb8a59ab5f4197a49ebe3b428abea84083d",
        _scan_verdict(4),
    ),
    "scan-s4-f3": Workload(
        "trefoil",
        ("scan", "--fixture", "trefoil", "--max-quotient-order", "24", "--fields", "f3",
         "--jobs", "1"),
        "707bbe73df43b997ec280e127c65aa5325a29381ac468d553a0303625318e432",
        _scan_verdict(24),
    ),
    "untwist-z12-q": Workload(
        "f2xz",
        ("untwist-check", "--fixture", "f2xz", "--quotient", "z12:1,1,0"),
        "fcf2d292b605a25881eff42fd1fc3f06b7c4d96bad0fb03b29af5b182c043ede",
        _untwist_equal,
    ),
}

END_TO_END = {"op_cal_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


@dataclass
class Child:
    setup_s: float | None  # CPU time from exec until `ready`; None if it never got there
    result: dict | None  # the child's last line, a JSON object
    problem: str | None  # why the child failed, if it did


def spawn(mode: str, wl: Workload, seed: int, deadline: float, spans_file: str = "-") -> Child:
    """Run one child to completion; kill it if it is still running at `deadline`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(seed % 2**32))
    cmd = [sys.executable, str(CHILD), mode, wl.fixture, spans_file, *wl.argv]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - perf_counter(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready, _, cpu = proc.stdout.readline().partition(" ")
        setup_s = float(cpu) if ready == "ready" else None
        out, err = proc.communicate()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if proc.returncode != 0 or setup_s is None:
        tail = (err.strip().splitlines() or ["no output"])[-1]
        return Child(setup_s, None, f"child exited with {proc.returncode}: {tail}")
    return Child(setup_s, json.loads(out.strip().splitlines()[-1]), None)


def setup_probe(wl: Workload, seed: int, deadline: float) -> tuple[float, float]:
    """Set-up time and reference time of one child that stops after set-up."""
    child = spawn("setup", wl, seed, deadline)
    if child.problem:
        raise RuntimeError(f"set-up failed: {child.problem}")
    return child.setup_s, child.result["ref_s"]


def problem_with(wl: Workload, child: Child) -> str | None:
    """Why an operation failed its correctness checks, or None if it passed."""
    if child.problem:
        return child.problem
    res = child.result
    if res["error"]:
        return "exception: " + res["error"].strip().splitlines()[-1]
    if res["rc"] != 0:
        return f"exit code {res['rc']}"
    digest = hashlib.sha256(res["stdout"].encode()).hexdigest()
    if digest != wl.sha256:
        return f"stdout digest {digest} differs from the recorded {wl.sha256}"
    if not wl.verdict(res["stdout"]):
        return "the expected verdict is missing from the output"
    return None


def _git_sha() -> str:
    # --git-dir keeps git from searching the directories above the checkout.
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(args) -> dict:
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "git_sha": _git_sha(), "loadavg": loadavg,
    }


def run_untraced(wl: Workload, args, deadline: float, failures: list[str]):
    """The operation repeated until `args.seconds` have passed, two set-up probes
    before each one.  Every time is calibrated by a reference time taken next to
    it: a probe's set-up by the probe's own reference loop, and an operation by
    the mean of the reference loops just before it and right after it."""
    setups: list[float] = []
    ops: list[dict] = []
    op_cal: list[float] = []
    attempted = 0
    start = perf_counter()
    walls = lambda: [op["wall_s"] for op in ops]
    calibrate = lambda t, ref_s: t * REFERENCE_NOMINAL_S / ref_s
    # Start another operation only while it is expected to end within the run.
    while not attempted or (
        perf_counter() - start + statistics.median(walls()) <= args.seconds
        and perf_counter() + 2 * max(walls()) < deadline
    ):
        for _ in range(PROBES_PER_OP):
            setup_s, ref_before = setup_probe(wl, args.seed, deadline)
            setups.append(calibrate(setup_s, ref_before))
        attempted += 1
        child = spawn("op", wl, args.seed, deadline)
        problem = problem_with(wl, child)
        if problem:
            failures.append(problem)
        if child.result is None:
            break
        ops.append(child.result)
        op_cal.append(calibrate(child.result["cpu_s"], (ref_before + child.result["ref_s"]) / 2))
    if not ops:
        raise RuntimeError(failures[-1])
    metrics = {
        "op_cal_s": statistics.median(op_cal),
        "peak_rss_mib": statistics.median(op["rss_kib"] / 1024 for op in ops),
        "setup_s": statistics.median(setups),
    }
    notes = [f"op_cal_s and peak_rss_mib: medians of {len(ops)} operations; "
             f"setup_s: median of {len(setups)} set-up probes",
             # A tail percentile needs at least ten samples beyond it.
             f"no tail percentile: {len(ops)} operations in the run",
             f"uncalibrated wall time: median {statistics.median(walls()):.4f} s",
             "operation wall_s: " + " ".join(f"{w:.3f}" for w in walls()),
             "operation cpu_s: " + " ".join(f"{op['cpu_s']:.3f}" for op in ops),
             "operation op_cal_s: " + " ".join(f"{c:.3f}" for c in op_cal),
             "setup_s samples: " + " ".join(f"{x:.3f}" for x in setups)]
    return metrics, notes, attempted


def run_traced(wl: Workload, args, deadline: float, failures: list[str]):
    """The operation once untraced and once traced; per-layer metrics from the spans."""
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    walls = {}
    for mode in ("op", "trace"):
        child = spawn(mode, wl, args.seed, deadline, str(spans_file))
        problem = problem_with(wl, child)
        if problem:
            failures.append(problem)
        if child.result is None:
            raise RuntimeError(problem)
        walls[mode] = child.result["wall_s"]
    metrics = layer_metrics(load_spans(spans_file), walls["trace"], walls["op"])
    metrics["error_rate"] = len(failures) / 2
    notes = [f"spans: {spans_file.relative_to(ROOT)}",
             f"untraced wall_s {walls['op']:.6f} s, traced {walls['trace']:.6f} s"]
    return metrics, notes, 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fibrecheck" / "cli.py").is_file():
        print(f"error: no fibrecheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    deadline = perf_counter() + RUN_LIMIT_S
    print("# env " + json.dumps(environment(args)), flush=True)

    failures: list[str] = []
    try:
        setup_probe(wl, args.seed, deadline)  # byte-compiles the sources; not timed
        if args.trace:
            metrics, notes, attempted = run_traced(wl, args, deadline, failures)
            units = PER_LAYER
        else:
            metrics, notes, attempted = run_untraced(wl, args, deadline, failures)
            units = END_TO_END
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for problem in failures:
        print(f"FAILED: {problem}", file=sys.stderr)
    for note in notes:
        print(f"# {note}")
    print(f"# {len(failures)} of {attempted} operations failed")
    if "error_rate" not in units:  # zero when all is well, so not a bounded metric
        print(f"error_rate {len(failures) / attempted:g} ratio")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
