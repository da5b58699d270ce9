"""Command-line front end.

Commands reproduce the reference tables as CSV (table1 .. table5), solve
user-specified problems (solve3, solve5), and run the verification suites
(verify).  Table rows carry a computed/reference/ratio triple wherever a
reference value exists; reference cells known to be misprinted at the
source are still emitted so the ratio column makes the discrepancy visible.

Formatting is fixed (errors to 6 significant digits, condition ratios to 4)
so repeated runs on one machine produce byte-identical files.  Exit codes:
0 success, 1 usage error, 2 numerical failure, 3 verification failure.
"""
from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import dataclass, fields

import numpy as np

from .analysis import (
    condition_diagonal,
    condition_full,
    evaluate_solution,
    max_pointwise_error,
    residual_norm,
    solve,
    solve_system,
)
from .assembly import assemble
from .banded import SingularMatrixError
from .families import make_family
from .jacobi import ConvergenceError
from .orders import SPECS, order_spec

__all__ = ["RunConfig", "main", "run_table", "run_solve", "run_verify"]

TABLE_N_GRID = (16, 20, 24, 28, 32, 36, 40)
ERROR_N_GRID = (8, 12, 16, 20, 24)

TABLE1_REF = {
    (1, 16): 74.667, (1, 20): 120.0, (1, 24): 176.0, (1, 28): 242.667,
    (1, 32): 320.0, (1, 36): 408.0, (1, 40): 506.667,
    # n=2 references are the alpha_max/alpha_min ratios; two reference
    # cells (120 at N=20, 51984 at N=40) are inconsistent with those ratios
    # and carry the recomputed values
    (2, 16): 936.0, (2, 20): 2584.0, (2, 24): 5796.0, (2, 28): 11340.0,
    (2, 32): 20137.6, (2, 36): 33264.0, (2, 40): 51948.0,
}

TABLE2_REF = {
    (1, 16): 55.287, (1, 20): 88.679, (1, 24): 129.929, (1, 28): 179.037,
    (1, 32): 236.003, (1, 36): 300.826, (1, 40): 373.507,
    # the (2, 36) cell is printed as 2925.4, off the monotone trend
    (2, 16): 827.262, (2, 20): 2278.4, (2, 24): 5104.45, (2, 28): 9980.18,
    (2, 32): 17715.3, (2, 36): 2925.4, (2, 40): 45677.4,
}

# (j, m, coefficient spec, {N: reference error}); "var3a" = (N, N^2, N^3),
# "var3b" = (N^3, N^2, N)
TABLE3_BLOCKS = (
    (1, 1, (0.0, 0.0, 0.0),
     {8: 2.558e-3, 12: 1.909e-6, 16: 4.368e-10, 20: 2.811e-14, 24: 3.885e-16}),
    (1, 1, "var3a",
     {8: 2.872e-3, 12: 2.224e-6, 16: 4.122e-10, 20: 2.961e-14, 24: 2.220e-16}),
    (0, 1, (2.0, 3.0, 4.0),
     {8: 4.472e-3, 12: 3.687e-6, 16: 6.660e-10, 20: 4.529e-14, 24: 7.771e-16}),
    (0, 1, "var3b",
     {8: 9.409e-3, 12: 8.399e-6, 16: 2.178e-9, 20: 1.455e-13, 24: 6.106e-16}),
    (1, 2, (0.0, 1.0, 0.0),
     {8: 1.119e-1, 12: 2.060e-3, 16: 8.934e-6, 20: 1.009e-8, 24: 4.156e-12}),
    (1, 2, "var3a",
     {8: 1.341e-1, 12: 2.430e-3, 16: 8.459e-6, 20: 1.072e-8, 24: 4.746e-12}),
    (2, 1, (1.0, 0.0, 1.0),
     {8: 1.578e-2, 12: 3.749e-5, 16: 1.324e-8, 20: 1.539e-12, 24: 2.498e-16}),
    (2, 1, "var3b",
     {8: 3.927e-1, 12: 8.773e-3, 16: 4.369e-5, 20: 5.206e-8, 24: 2.417e-11}),
)

# (j, m, coefficients, {N: reference error}); families 2 and 3 have no j
TABLE4_BLOCKS = (
    (None, 3.0, (0.0, 0.0, 0.0, 0.0, 0.0),
     {8: 1.135e-1, 12: 2.464e-4, 16: 8.165e-8, 20: 1.098e-11, 24: 5.551e-16}),
    (None, 1.0, (1.0, 1.0, 1.0, 1.0, 1.0),
     {8: 1.102e-3, 12: 3.164e-8, 16: 1.312e-13, 20: 2.220e-16, 24: 2.220e-16}),
    (None, 2.0, (0.0, 1.0, 0.0, 1.0, 0.0),
     {8: 1.927e-2, 12: 8.652e-6, 16: 5.776e-10, 20: 1.598e-14, 24: 3.330e-16}),
    (None, 0.5, (1.0, 2.0, 1.0, 2.0, 1.0),
     {8: 6.658e-5, 12: 1.215e-10, 16: 6.661e-16, 20: 6.661e-16, 24: 6.661e-16}),
)

# the (m=2, N=8) cell is printed as "1545e-5"; 1.545e-5 is carried here
TABLE5_BLOCKS = (
    (None, 1.0, (0.0, 0.0, 0.0), {8: 2.804e-8, 12: 9.536e-14, 16: 1.110e-16}),
    (None, 1.0, (1.0, 1.0, 1.0), {8: 2.819e-8, 12: 9.736e-14, 16: 1.110e-16}),
    (None, 2.0, (0.0, 1.0, 0.0), {8: 1.545e-5, 12: 8.248e-10, 16: 1.310e-14}),
    (None, 3.0, (1.0, 0.0, 1.0), {8: 6.919e-4, 12: 1.808e-7, 16: 1.414e-11}),
)

# error table -> (family, N grid, j of a custom block or None, reference blocks)
ERROR_TABLES = {
    "table3": (1, ERROR_N_GRID, 1, TABLE3_BLOCKS),
    "table4": (2, ERROR_N_GRID, None, TABLE4_BLOCKS),
    "table5": (3, (8, 12, 16), None, TABLE5_BLOCKS),
}


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation of one CLI command."""

    command: str
    n: int | None = None
    coeffs: tuple[float, ...] | None = None
    example: int | None = None
    j: int | None = None
    m: float | None = None
    order: int | None = None
    rhs_poly: tuple[float, ...] | None = None
    out: str | None = None
    format: str = "csv"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1, not argparse's default 2
        raise UsageError(message)


def _fmt(x: float, digits: int) -> str:
    return format(float(x), f".{digits}g")


def _fmt_err(x: float) -> str:
    return _fmt(x, 6)


def _fmt_ratio(x: float) -> str:
    return _fmt(x, 4)


def _ref_cells(computed: float, reference: float | None) -> list[str]:
    if reference is None:
        return ["", ""]
    return [_fmt_err(reference), _fmt_ratio(computed / reference)]


def _resolve_coeffs(spec, N: int) -> tuple[float, ...]:
    if spec == "var3a":
        return (float(N), float(N) ** 2, float(N) ** 3)
    if spec == "var3b":
        return (float(N) ** 3, float(N) ** 2, float(N))
    return tuple(spec)


def run_table(config: RunConfig) -> tuple[list[str], list[list[str]]]:
    """Rows for one of the five reference tables."""
    orders = tuple(SPECS) if config.order is None else (config.order,)
    if config.command == "table1":
        header = ["n", "N", "alpha_min", "alpha_max", "cond", "cond_over_N2n",
                  "reference", "ratio"]
        rows = []
        for order in orders:
            label = order_spec(order).m
            for N in TABLE_N_GRID:
                rep = condition_diagonal(order, N)
                rows.append(
                    [str(label), str(N), _fmt(rep.eig_min, 6), _fmt(rep.eig_max, 6),
                     _fmt_err(rep.cond), _fmt_ratio(rep.cond_over_power)]
                    + _ref_cells(rep.cond, TABLE1_REF.get((label, N)))
                )
        return header, rows
    if config.command == "table2":
        header = ["n", "N", "cond", "cond_over_N2n", "reference", "ratio"]
        rows = []
        for order in orders:
            label = order_spec(order).m
            for N in TABLE_N_GRID:
                rep = condition_full(order, N)
                rows.append(
                    [str(label), str(N), _fmt_err(rep.cond),
                     _fmt_ratio(rep.cond_over_power)]
                    + _ref_cells(rep.cond, TABLE2_REF.get((label, N)))
                )
        return header, rows
    if config.command not in ERROR_TABLES:
        raise UsageError(f"unknown table command {config.command!r}")
    family_id, grid, default_j, blocks = ERROR_TABLES[config.command]
    spec = order_spec(make_family(family_id).order)
    j = config.j if default_j is not None else None  # only table3 takes --j
    if j is not None or config.m is not None or config.coeffs is not None:
        zeros = (0.0,) * spec.n_coefficients
        blocks = [(default_j if j is None else j,
                   1.0 if config.m is None else config.m,
                   zeros if config.coeffs is None else config.coeffs, {})]
    header = (["N"] + ([] if default_j is None else ["j"]) + ["m"]
              + [f.name for f in fields(spec.problem)[:spec.n_coefficients]]
              + ["error", "reference", "ratio"])
    rows = []
    for j, m, coeff_spec, refs in blocks:
        family = make_family(family_id, j=j, m=m)
        for N in grid:
            coeffs = _resolve_coeffs(coeff_spec, N)
            err = max_pointwise_error(solve(family.problem(coeffs), N), family.exact)
            rows.append(
                [str(N)] + ([] if j is None else [str(j)]) + [_fmt(m, 6)]
                + [_fmt(c, 6) for c in coeffs]
                + [_fmt_err(err)] + _ref_cells(err, refs.get(N))
            )
    return header, rows


def run_solve(config: RunConfig) -> tuple[list[str], list[list[str]]]:
    """Solve one problem; rows hold coefficients, samples, residual, condition."""
    order = int(config.command.removeprefix("solve"))
    spec = order_spec(order)
    N = config.n
    if N is None:
        raise UsageError(f"{config.command} requires --n")
    n_coeffs = spec.n_coefficients
    coeffs = config.coeffs if config.coeffs is not None else (0.0,) * n_coeffs
    if len(coeffs) != n_coeffs:
        raise UsageError(f"{config.command} needs {n_coeffs} operator coefficients")

    family = None
    if config.example is not None and config.rhs_poly is not None:
        raise UsageError(f"{config.command} takes --example or --rhs-poly, not both")
    if config.example is None and (config.j is not None or config.m is not None):
        raise UsageError(f"{config.command}: --j and --m set an --example family")
    if config.example is not None:
        family = make_family(config.example, j=config.j, m=config.m)
        if family.order != order:
            raise UsageError(
                f"example {config.example} is an order-{family.order} family"
            )
        problem = family.problem(coeffs)
    elif config.rhs_poly is not None:
        poly = np.asarray(config.rhs_poly, dtype=float)

        def rhs(x, _poly=poly):
            return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), _poly)

        problem = spec.problem(*coeffs, rhs=rhs)
    else:
        raise UsageError(f"{config.command} needs --example or --rhs-poly")

    system = assemble(problem, N)
    solution = solve_system(problem, N, system)
    residual = residual_norm(system, solution.coefficients)
    if all(c == 0.0 for c in coeffs):
        report = condition_diagonal(order, N)
    else:
        report = condition_full(order, N, coeffs)

    header = ["record", "key", "value"]
    rows: list[list[str]] = []
    for k, a in enumerate(solution.coefficients):
        rows.append(["coefficient", str(k), repr(float(a))])
    grid = np.linspace(-1.0, 1.0, 21)
    for x, u in zip(grid, evaluate_solution(solution, grid)):
        rows.append(["sample", _fmt(x, 6), _fmt_err(u)])
    rows.append(["residual_inf", "", _fmt_err(residual)])
    if family is not None:
        rows.append(["max_error", "", _fmt_err(max_pointwise_error(solution, family.exact))])
    rows.append(["condition", "cond", _fmt_err(report.cond)])
    rows.append(["condition", "eig_min", _fmt_err(report.eig_min)])
    rows.append(["condition", "eig_max", _fmt_err(report.eig_max)])
    rows.append(["condition", "cond_over_N2n", _fmt_ratio(report.cond_over_power)])
    return header, rows


def run_verify(config: RunConfig) -> tuple[list[str], list[list[str]], bool]:
    """Suite rows plus overall pass flag."""
    # imported here so that the table and solve commands load neither the
    # suites nor numpy.random, which they draw lift samples from at import
    from .verify import run_verification

    results = run_verification()
    header = ["suite", "status", "max_deviation", "tolerance", "detail"]
    rows = [
        [r.name, "pass" if r.passed else "FAIL", _fmt_err(r.max_deviation),
         _fmt_err(r.tolerance) if np.isfinite(r.tolerance) else "", r.detail]
        for r in results
    ]
    return header, rows, all(r.passed for r in results)


def _emit(header: list[str], rows: list[list[str]], config: RunConfig) -> None:
    buffer = io.StringIO()
    if config.format == "csv":
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        widths = [
            max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
            for i in range(len(header))
        ]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
        for r in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        buffer.write("\n".join(lines) + "\n")
    text = buffer.getvalue()
    if config.out:
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _coeff_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad coefficient list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dualpg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p):
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "text"), default="csv")

    for name in ("table1", "table2"):
        p = sub.add_parser(name, help=f"reproduce reference {name}")
        p.add_argument("--order", type=int, choices=tuple(SPECS))
        add_common(p)
    for name, has_j in (("table3", True), ("table4", False), ("table5", False)):
        p = sub.add_parser(name, help=f"reproduce reference {name}")
        if has_j:
            p.add_argument("--j", type=int)
        p.add_argument("--m", type=float)
        p.add_argument("--coeffs", type=_coeff_list)
        add_common(p)
    for order in SPECS:
        p = sub.add_parser(f"solve{order}", help=f"solve one order-{order} problem")
        p.add_argument("--n", type=int, required=True, help="truncation N")
        p.add_argument("--coeffs", type=_coeff_list)
        p.add_argument("--example", type=int, choices=(1, 2, 3))
        p.add_argument("--j", type=int)
        p.add_argument("--m", type=float)
        p.add_argument("--rhs-poly", type=_coeff_list, dest="rhs_poly")
        add_common(p)
    p = sub.add_parser("verify", help="run the verification suites")
    add_common(p)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        n=getattr(args, "n", None),
        coeffs=getattr(args, "coeffs", None),
        example=getattr(args, "example", None),
        j=getattr(args, "j", None),
        m=getattr(args, "m", None),
        order=getattr(args, "order", None),
        rhs_poly=getattr(args, "rhs_poly", None),
        out=args.out,
        format=args.format,
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
        if config.command.startswith("table"):
            header, rows = run_table(config)
            _emit(header, rows, config)
            return 0
        if config.command.startswith("solve"):
            header, rows = run_solve(config)
            _emit(header, rows, config)
            return 0
        header, rows, ok = run_verify(config)
        _emit(header, rows, config)
        return 0 if ok else 3
    except (UsageError, ValueError, OSError) as exc:
        print(f"dualpg: error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, SingularMatrixError, ArithmeticError) as exc:
        print(f"dualpg: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
