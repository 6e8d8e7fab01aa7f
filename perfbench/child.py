"""One benchmark pass in a fresh process.

Usage: python3 perfbench/child.py WORKLOAD SEED TRACE SPANS_PATH

Imports delegatebox from the checkout's ``src``, builds the workload's inputs,
runs one timed pass (exact block, then float block), checks the outputs
after the timed region and prints one JSON record on stdout. Before, between
and after the blocks it times ``calibrate``, a fixed stdlib loop that lets
the parent scale the block times to a reference speed. With TRACE=1
the library is wrapped by ``tracer.Tracer`` before the inputs are built, the
per-layer metrics are added to the record and the spans are written to
SPANS_PATH. The record's ``ready`` is the ``perf_counter`` reading when the
inputs were ready; on Linux that clock is CLOCK_MONOTONIC, shared by the
parent, which subtracts its own reading at spawn time to get ``setup_s``.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def calibrate() -> float:
    """Time a fixed stdlib loop (exact fractions, dicts, tuples).

    It imports nothing from delegatebox, so no change to the library moves
    it; only the speed the machine gives this process does.
    """
    from fractions import Fraction

    t0 = perf_counter()
    total = Fraction(0)
    table = {}
    for i in range(1, 20000):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
        table[(i % 101, i % 7)] = total
    return perf_counter() - t0


def main(argv: list[str]) -> int:
    workload, seed, trace, spans_path = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    sys.path.insert(0, str(ROOT / "src"))
    import delegatebox

    if not Path(delegatebox.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"delegatebox imported from {delegatebox.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2

    import workloads
    from tracer import Tracer

    setup, run_exact, run_float, check = workloads.WORKLOADS[workload]
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    inputs = setup(seed)
    ready = perf_counter()

    # The calibration runs sit next to each timed block, outside it.
    cal = [calibrate()]
    if tracer:
        tracer.mode = "exact"
    t0 = perf_counter()
    exact_out = run_exact(inputs)
    exact_s = perf_counter() - t0
    cal.append(calibrate())
    if tracer:
        tracer.mode = "float"
    t0 = perf_counter()
    float_out = run_float(inputs)
    float_s = perf_counter() - t0
    if tracer:
        tracer.uninstall()
    cal.append(calibrate())

    checks = workloads.Checks()
    check(inputs, exact_out, float_out, checks)
    record = {
        "ready": ready,
        "exact_s": exact_s,
        "float_s": float_s,
        "cal_s": cal,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "notes": sorted(checks.notes),
    }
    if tracer:
        record["layers"] = tracer.layer_metrics()
        tracer.write_spans(spans_path)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
