#!/usr/bin/env python3
"""Compare two write_outputs.py directories cell by cell.

    python scripts/diff_outputs.py DIR_A DIR_B

A CSV file's cells are its fields; any other file's cells are the
whitespace-separated words of each line.  Every numeric cell that differs
is printed with its file, row (line number), column (the name the first
row gives it), both values and |delta|.  Exits 1 if the two directories
hold different file names, if two files differ in their number of rows or
of cells in a row, if a non-numeric cell differs, or if a numeric cell
outside a `ratio` column moves by more than 1e-12 absolute; exits 0
otherwise.  A `ratio` cell is its row's computed cell over its reference
cell, so an ulp-level move of the computed cell can shift it by tenths; its
moves are printed but never fail, while the computed and reference cells
keep the 1e-12 bound.
"""
from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

MAX_DELTA = 1e-12
RATIO = "ratio"  # the column whose moves are printed but never fail


def read_cells(path: Path) -> list[list[str]]:
    """Rows of cells of one output file."""
    with open(path, encoding="utf-8", newline="") as fh:
        if path.suffix == ".csv":
            return list(csv.reader(fh))
        return [line.split() for line in fh]


def as_number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def compare(a: Path, b: Path) -> tuple[list[str], int, float]:
    """(failures, moved numeric cells, largest |delta|) of two directories."""
    names_a = {p.name for p in a.iterdir() if p.is_file()}
    names_b = {p.name for p in b.iterdir() if p.is_file()}
    failures = [f"only in {a}: {name}" for name in sorted(names_a - names_b)]
    failures += [f"only in {b}: {name}" for name in sorted(names_b - names_a)]
    moved, largest = 0, 0.0
    for name in sorted(names_a & names_b):
        rows_a, rows_b = read_cells(a / name), read_cells(b / name)
        if len(rows_a) != len(rows_b):
            failures.append(f"{name}: {len(rows_a)} rows against {len(rows_b)}")
            continue
        header = rows_a[0] if rows_a else []
        for line, (row_a, row_b) in enumerate(zip(rows_a, rows_b), start=1):
            if len(row_a) != len(row_b):
                failures.append(f"{name}:{line}: {len(row_a)} cells against {len(row_b)}")
                continue
            for col, (cell_a, cell_b) in enumerate(zip(row_a, row_b)):
                if cell_a == cell_b:
                    continue
                column = header[col] if col < len(header) else col + 1
                where = f"{name}:{line}:{column}"
                x, y = as_number(cell_a), as_number(cell_b)
                if x is None or y is None:
                    failures.append(f"{where}: {cell_a!r} against {cell_b!r}")
                    continue
                delta = abs(x - y)
                moved += 1
                largest = max(largest, delta)
                print(f"{where}  {cell_a} -> {cell_b}  |delta| = {delta:.3g}")
                if not delta <= MAX_DELTA and column != RATIO:
                    failures.append(f"{where}: moved by {delta:.3g} > {MAX_DELTA:g}")
    return failures, moved, largest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args(argv)
    failures, moved, largest = compare(args.dir_a, args.dir_b)
    print(f"{moved} numeric cells moved, largest |delta| = {largest:.3g}")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
