"""Record the exact-mode reference outputs the benchmark byte-compares against.

Usage: python3 perfbench/record_refs.py [WORKLOAD ...]

For every seed in SEEDS it builds the workload's inputs, runs the exact
block and stores what ``workloads.*_check`` compares:

- repro: the SHA-256 of the suite's JSON stdout;
- corpus_audit: an 8-hex-digit SHA-256 prefix of each instance's audit JSON;
- large_instances: every exact value as a format_number string, plus the
  exact optimum of the instance the float block solves with the DP.

References pin the library's output at the commit they were recorded at.
Re-record only when a change to the exact output is intended and explained.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from delegatebox import pandora  # noqa: E402
from delegatebox.core import format_number  # noqa: E402
from run import git_commit  # noqa: E402

SEEDS = range(24)


def record(name: str, seed: int) -> dict:
    setup, run_exact, _, _ = workloads.WORKLOADS[name]
    inputs = setup(seed)
    out = run_exact(inputs)
    if name == "repro":
        code, text = out
        if code != 0:
            raise SystemExit(f"repro seed {seed} exited {code}")
        return {"stdout_sha256": workloads.sha256(text)}
    if name == "corpus_audit":
        if not all(result.passed for result, _ in out):
            raise SystemExit(f"corpus_audit seed {seed} has a failing audit")
        return {"count": len(out), "audit_digests": workloads.corpus_audit_digests(out)}
    ref = {key: format_number(value) for key, value in out.items()}
    ref["float_dp_exact_pnoi"] = format_number(pandora.pnoi_optimal(inputs["float_dp_exact"])[0])
    return ref


def main(names: list[str]) -> int:
    commit = git_commit()
    for name in names or list(workloads.WORKLOADS):
        seeds = {str(seed): record(name, seed) for seed in SEEDS}
        path = workloads.REFS / f"{name}.json"
        path.write_text(json.dumps({"commit": commit, "seeds": seeds}, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path} ({len(seeds)} seeds)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
