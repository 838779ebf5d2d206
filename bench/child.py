"""One benchmark operation in a fresh interpreter.

Usage: python3 bench/child.py MODE FIXTURE SPANS_FILE CLI_ARG...

The child imports `fibrecheck.cli` and loads FIXTURE, and prints `ready` with
the CPU time this process has used so far: that is the set-up time.  MODE
`setup` then times the reference loop and prints `{"ref_s": ...}`.  MODE `op`
calls `fibrecheck.cli.main(CLI_ARGS, out)` once, and MODE `trace` does the same
with layer spans installed and writes them to SPANS_FILE.  Both then read the
peak RSS, time the reference loop, and print a JSON line with the exit code,
the wall and CPU time of the call, the peak RSS of this process, the reference
time, the captured output, and any exception.  The JSON line is the last line
of stdout.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time


class _Field:
    """Coefficients mod p, or in Q when p is None."""

    __slots__ = ("p",)

    def __init__(self, p: int | None):
        self.p = p

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def mul(self, a, b):
        return (a * b) % self.p if self.p else a * b

    def neg(self, a):
        return -a % self.p if self.p else -a


class _Poly:
    """A Laurent polynomial as a dict from exponent to nonzero coefficient."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: _Field, coeffs: dict):
        self.field, self.coeffs = field, coeffs

    def __add__(self, other: "_Poly") -> "_Poly":
        f, out = self.field, dict(self.coeffs)
        for e, c in other.coeffs.items():
            total = f.add(out.get(e, 0), c)
            if total:
                out[e] = total
            else:
                out.pop(e, None)
        return _Poly(f, out)

    def __mul__(self, other: "_Poly") -> "_Poly":
        f, out = self.field, {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = f.add(out.get(e1 + e2, 0), f.mul(c1, c2))
        return _Poly(f, {e: c for e, c in out.items() if c})

    def __neg__(self) -> "_Poly":
        f = self.field
        return _Poly(f, {e: f.neg(c) for e, c in self.coeffs.items()})


def _eliminate(p: int | None) -> int:
    """Two fraction-free elimination steps on a fixed 6x6 polynomial matrix."""
    field, seed, n = _Field(p), 7, 6
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            coeffs = {}
            for e in (-1, 0, 1):
                seed = (seed * 1103515245 + 12345) % 2**31
                if c := seed % 7 - 3:
                    coeffs[e] = Fraction(c) if p is None else c % p
            row.append(_Poly(field, coeffs))
        rows.append(row)
    for k in range(2):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = rows[i][j] * rows[k][k] + -(rows[i][k] * rows[k][j])
    return sum(len(x.coeffs) for row in rows for x in row)


def reference_s() -> float:
    """CPU time of fixed work shaped like the program's own: objects with slots
    and dict-backed Laurent polynomials, eliminated over Q and over F_3.  It
    uses no fibrecheck code, so a change to the program cannot change it; what
    changes it is how fast the host runs Python at the moment."""
    start = process_time()
    for _ in range(30):
        _eliminate(None)
        _eliminate(3)
    return process_time() - start


def main() -> int:
    mode, fixture, spans_file, *argv = sys.argv[1:]
    from fibrecheck import cli
    from fibrecheck.fixtures import load_fixture

    load_fixture(fixture)
    print(f"ready {process_time()!r}", flush=True)
    if mode == "setup":
        print(json.dumps({"ref_s": reference_s()}))
        return 0

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer(op_id=Path(spans_file).stem)
        tracer.install()
    out = io.StringIO()
    rc, error = None, None
    start, cpu_start = perf_counter(), process_time()
    try:
        rc = cli.main(argv, out)
    except Exception:
        error = traceback.format_exc()
    wall, cpu = perf_counter() - start, process_time() - cpu_start
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ref_s = reference_s()
    if tracer is not None:
        tracer.dump(spans_file)
    print(json.dumps({
        "rc": rc, "wall_s": wall, "cpu_s": cpu, "rss_kib": rss_kib, "ref_s": ref_s,
        "stdout": out.getvalue(), "error": error,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
