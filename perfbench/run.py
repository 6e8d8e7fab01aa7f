#!/usr/bin/env python3
"""The delegatebox benchmark: one workload, timed in fresh processes.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload repro --seed 7 --seconds 40 --trace 0

Workloads (see workloads.py): ``repro``, ``corpus_audit``, ``large_instances``.
Runs one child process at a time (the library is single-threaded) until
``--seconds`` have passed; every child builds its inputs from the seed, runs
one timed pass and checks its outputs. A fresh process per pass means a
cache that lives across passes cannot pass for a speed-up, and it is what
every CLI or script invocation pays.

With ``--trace 0`` the result holds the end-to-end metrics, each the median
over passes: ``setup_s`` (child start until inputs are ready), ``pass_s``,
``float_s`` (the float-mode block of the pass) and ``peak_rss_mb``. The
times are scaled to a reference speed: each block's wall time is multiplied
by CAL_REF_S over the time of the calibration loop run next to it in the same
child. On a VM whose speed swings by up to 1.8x within seconds, as its host
gets busy or idle, this holds run-to-run spread near 5% where raw medians
spread by 10-35%. The raw wall times are kept in the run record. With
``--trace 1`` traced and untraced passes alternate and the result holds the
per-layer metrics of ``tracer.LAYER_METRICS`` (counts from the traced passes,
which must agree; self times as medians) and ``trace.overhead_frac``, traced
against untraced ``pass_s``.

The last stdout line is the JSON result; ``failed`` / ``attempted`` is the
failed-check fraction. The lines before it are a readable summary; the full
record (machine, load average before and after, every pass) and the spans of
the last traced pass go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402

WORKLOADS = ("repro", "corpus_audit", "large_instances")
# No pass is started that would end after LAST_START_S, and none may run
# past DEADLINE_S, so a run ends within 180 s whatever --seconds says.
LAST_START_S = 120
DEADLINE_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("float_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Seconds child.calibrate takes at the reference speed: a 2-vCPU Intel Xeon
# VM, Python 3.11, while its host is busy. A scaled time is the wall time
# the block would take at that speed.
CAL_REF_S = 0.2


def scaled(p: dict) -> dict:
    """One pass's end-to-end metrics, times scaled to reference speed."""
    c0, c1, c2 = p["cal_s"]
    exact = p["exact_s"] * CAL_REF_S / ((c0 + c1) / 2)
    flt = p["float_s"] * CAL_REF_S / ((c1 + c2) / 2)
    return {
        "setup_s": p["setup_s"] * CAL_REF_S / c0,
        "pass_s": exact + flt,
        "float_s": flt,
        "peak_rss_mb": p["peak_rss_mb"],
    }


def machine_info(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """The checked-out commit, read from .git; None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    commit = head.read_text().strip()
    if commit.startswith("ref: ") and (ROOT / ".git" / commit[5:]).is_file():
        commit = (ROOT / ".git" / commit[5:]).read_text().strip()
    return commit


def run_child(
    workload: str, seed: int, trace: bool, spans_path: Path, timeout: float
) -> tuple[dict | None, str]:
    """One pass in a fresh interpreter; returns (record, error)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), "1" if trace else "0", str(spans_path)]
    spawned = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"pass timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"pass exited with code {proc.returncode}"
    try:
        record = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, "pass printed no record"
    record["setup_s"] = record.pop("ready") - spawned
    record["traced"] = trace
    return record, ""


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "delegatebox" / "__init__.py").is_file():
        print(f"no delegatebox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = OUT / f"spans-{tag}.json.gz"
    info = machine_info(args.seed)
    info["loadavg_before"] = os.getloadavg()

    passes: list[dict] = []
    errors: list[str] = []
    start = perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        began = perf_counter()
        timeout = DEADLINE_S - (began - start)
        record, error = run_child(args.workload, args.seed, traced, spans_path, timeout)
        if record is None:
            errors.append(error)
            print(error, file=sys.stderr)
            break
        passes.append(record)
        # Start another pass only if one more like the last ends in time.
        end_of_next = perf_counter() - start + (perf_counter() - began)
        enough = len(passes) >= (2 if args.trace else 1)
        if enough and end_of_next > min(args.seconds, LAST_START_S):
            break
    info["loadavg_after"] = os.getloadavg()

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if not plain or (args.trace and not traced):
        print("no complete pass; no result", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes) + len(errors)
    failed = sum(p["failed"] for p in passes) + len(errors)

    if args.trace:
        metrics = {}
        for name, unit in LAYER_METRICS:
            values = [p["layers"][name] for p in traced]
            if unit == "s":
                value = statistics.median(values)
            else:
                value = values[0]
                if any(v != value for v in values):
                    failed += 1
                    errors.append(f"{name} differs between traced passes: {values}")
                attempted += 1
            metrics[name] = {"value": value, "unit": unit}
        overhead = statistics.median(scaled(p)["pass_s"] for p in traced) / statistics.median(
            scaled(p)["pass_s"] for p in plain
        ) - 1
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    else:
        metrics = {
            name: {"value": statistics.median(scaled(p)[name] for p in plain), "unit": unit}
            for name, unit in END_TO_END
        }

    pass_times = [p["exact_s"] + p["float_s"] for p in plain]
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "machine": info,
        "passes": passes,
        "pass_wall_s_quartiles": quartiles(pass_times),
        "errors": errors,
        "metrics": metrics,
    }
    (OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(plain)} untraced and {len(traced)} traced passes, python {info['python']}, "
          f"nproc {info['nproc']}, cpu {info['cpu_model']}, commit {info['git_commit']}, "
          f"loadavg {info['loadavg_before'][0]:.2f} -> {info['loadavg_after'][0]:.2f}")
    q1, q2, q3 = quartiles([scaled(p)["pass_s"] for p in plain])
    print(f"pass_s quartiles {q1:.4f} {q2:.4f} {q3:.4f} s over {len(plain)} untraced passes")
    q1, q2, q3 = quartiles(pass_times)
    print(f"unscaled pass wall time quartiles {q1:.4f} {q2:.4f} {q3:.4f} s")
    print(f"failed checks {failed} of {attempted} (failed_frac {failed / attempted:.6g})")
    for note in sorted({n for p in passes for n in p["notes"]}):
        print(f"note: {note}")
    for failure in errors + [f for p in passes for f in p["failures"]][:20]:
        print(f"FAILED: {failure}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
