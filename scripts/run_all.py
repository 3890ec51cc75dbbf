#!/usr/bin/env python3
"""Run the four experiment suites and collect their CSV artifacts.

Thin wrapper over the CLI: one subdirectory of --out per suite, worst
exit code wins (0 pass, 2 certificate failure, 3 infrastructure).
"""

import argparse
import sys

from logdiff.cli import main as cli_main

SUITES = ("exact-suite", "q-sweep", "uniqueness", "boundary-layer")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="out", help="artifact root, one subdir per suite")
    args = ap.parse_args()
    worst = 0
    for suite in SUITES:
        print(f"== {suite} ==")
        rc = cli_main([suite, "--out", f"{args.out}/{suite.replace('-', '_')}"])
        worst = max(worst, rc)
    return worst


if __name__ == "__main__":
    sys.exit(main())
