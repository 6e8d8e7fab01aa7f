#!/usr/bin/env python3
"""Audit the costless composed mechanism over a seeded random corpus.

Prints the worst observed ratio against the upper bound, with the regime's
claimed factor as its ceiling, and fails loudly on any violation.

Usage: python scripts/audit_corpus.py [--seed N] [--count N]
"""

import argparse

from delegatebox.bounds import COSTLESS, REGIMES, audit
from delegatebox.core import format_number
from delegatebox.delegation import maximal_mechanism_costless
from delegatebox.instances import random_corpus


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--count", type=int, default=500)
    args = parser.parse_args()
    if args.count < 1:
        parser.error("--count must be at least 1")

    worst = None
    failures = 0
    for inst in random_corpus(args.seed, args.count):
        report = maximal_mechanism_costless(inst)
        result = audit(inst, report, COSTLESS)
        if not result.passed:
            failures += 1
            print(f"VIOLATION on {result.instance_digest}")
        if result.ratio is not None and (worst is None or result.ratio > worst):
            worst = result.ratio
    print(f"instances audited: {args.count}")
    print(f"worst ratio vs bound: {format_number(worst)} (ceiling {REGIMES[COSTLESS][1](1, None)})")
    print(f"violations: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
