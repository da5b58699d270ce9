#!/usr/bin/env python3
"""Write every byte-reproducible artifact of the solver into one directory.

Writes table1.csv .. table5.csv, verify.csv, the opcount_study.py report
at its default sizes and four solve CSVs into --outdir, so that the
outputs of two checkouts compare with one `diff -r`, and prints a one-line
summary per artifact.  Exits with the worst exit code of the commands it
ran (3 if verification fails).
"""
from __future__ import annotations

import argparse
import contextlib
import sys
import time
from pathlib import Path

import opcount_study
from dualpg.cli import main as dualpg_main

SOLVES = {
    "solve3_n16_example1.csv": "solve3 --n 16 --example 1 --j 1 --m 1 --coeffs 2,3,4",
    "solve5_n20_example2.csv": "solve5 --n 20 --example 2 --m 3 --coeffs 1,1,1,1,1",
    "solve3_n12_example3.csv": "solve3 --n 12 --example 3 --m 2 --coeffs 1,0,1",
    "solve3_n1024_rhs_poly.csv": "solve3 --n 1024 --rhs-poly 1 --coeffs 2,3,4",
}


def run(argv: list[str]) -> int:
    start = time.perf_counter()
    code = dualpg_main(argv)
    print(f"  dualpg {' '.join(argv)}  ->  exit {code} ({time.perf_counter() - start:.1f}s)")
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", required=True, help="output directory")
    args = parser.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    worst = 0
    for command in ("table1", "table2", "table3", "table4", "table5", "verify"):
        worst = max(worst, run([command, "--out", str(outdir / f"{command}.csv")]))
    report = outdir / "opcount_study.txt"
    with open(report, "w", encoding="utf-8", newline="") as fh:
        with contextlib.redirect_stdout(fh):
            opcount_study.main([])
    print(f"  opcount_study.py  ->  {report.name}")
    for name, command in SOLVES.items():
        worst = max(worst, run([*command.split(), "--out", str(outdir / name)]))
    print(f"artifacts in {outdir}/")
    return worst


if __name__ == "__main__":
    sys.exit(main())
