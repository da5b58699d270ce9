#!/usr/bin/env python3
"""Reproduce all five reference tables plus the verification report.

Writes table1.csv .. table5.csv and verify.csv into --outdir and prints a
one-line summary per artifact.  Exits nonzero if verification fails.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from dualpg.cli import main as dualpg_main


def run(argv: list[str]) -> int:
    start = time.perf_counter()
    code = dualpg_main(argv)
    print(f"  dualpg {' '.join(argv)}  ->  exit {code} ({time.perf_counter() - start:.1f}s)")
    return code


def write_tables(outdir: Path) -> int:
    """Write table1.csv .. table5.csv and verify.csv; the worst exit code."""
    worst = 0
    for command in ("table1", "table2", "table3", "table4", "table5"):
        worst = max(worst, run([command, "--out", str(outdir / f"{command}.csv")]))
    return max(worst, run(["verify", "--out", str(outdir / "verify.csv")]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="tables", help="output directory")
    args = parser.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    worst = write_tables(outdir)
    print(f"artifacts in {outdir}/")
    return worst


if __name__ == "__main__":
    sys.exit(main())
