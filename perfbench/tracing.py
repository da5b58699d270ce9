"""In-memory spans and the per-layer metrics derived from them.

A span is (id, name, start, end, parent span, op id, attributes).  Spans
are recorded only by the benchmark's own code, around its calls into the
library's public functions, kept in memory and written out when the run
ends.  A layer's self time is its duration minus that of its child spans.
"""
from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    attrs: dict

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.op: int | None = None  # id shared by the spans of one operation

    @contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        self.spans.append(None)  # type: ignore[arg-type]  # filled on close
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        except Exception as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[sid] = Span(sid, name, start, end, parent, self.op, attrs)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps(asdict(s)) + "\n")


def _median_s(spans) -> float:
    return statistics.median(s.seconds for s in spans)


def _per_call_us(spans) -> float:
    return sum(s.seconds for s in spans) / sum(s.attrs["calls"] for s in spans) * 1e6


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit)."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def group(name: str, N: int | None = None) -> list[Span]:
        found = [s for s in by_name.get(name, []) if N is None or s.attrs.get("N") == N]
        if not found:
            raise LookupError(f"no {name} spans" + ("" if N is None else f" at N={N}"))
        return found

    out: dict[str, tuple[float, str]] = {}
    out["jacobi.rule_cold_ms"] = (group("jacobi.rule_cold")[0].seconds * 1e3, "ms")
    out["jacobi.rule_warm_us"] = (_per_call_us(group("jacobi.rule_lookup")), "us")
    out["families.rhs_eval.us"] = (_median_s(group("families.rhs_eval")) * 1e6, "us")
    projections = group("assembly.rhs_projection")
    out["assembly.rhs_projection.ms"] = (_median_s(projections) * 1e3, "ms")
    evals = sum(1 for s in by_name["families.rhs_eval"]
                if spans[s.parent].name == "assembly.rhs_projection")
    out["assembly.rhs_projection.evals_per_call"] = (evals / len(projections), "count")
    out["assembly.modified_rhs.us"] = (_median_s(group("assembly.modified_rhs")) * 1e6, "us")
    for N in (24, 256, 1024, 4096):
        out[f"assembly.operator_matrix.ms.n{N}"] = (
            _median_s(group("assembly.operator_matrix", N)) * 1e3, "ms")
    for N in (256, 1024, 4096):
        out[f"banded.lu_factor.ms.n{N}"] = (_median_s(group("banded.lu_factor", N)) * 1e3, "ms")
        out[f"banded.solve.ms.n{N}"] = (_median_s(group("banded.solve", N)) * 1e3, "ms")
    for N in (256, 4096):
        for kind, name in (("factor", "banded.lu_factor"), ("solve", "banded.solve")):
            g = group(name, N)
            rows = sum(s.attrs["n"] for s in g)
            out[f"banded.{kind}_us_per_row.n{N}"] = (
                sum(s.seconds for s in g) / rows * 1e6, "us/row")
    # exact OpCount per row: one factorization and one solve of each
    # (order, N) band_large_n size, so the value repeats exactly
    for kind, name in (("factor", "banded.lu_factor"), ("solve", "banded.solve")):
        first: dict[tuple[int, int], Span] = {}
        for N in (256, 1024, 4096):
            for s in group(name, N):
                first.setdefault((s.attrs["order"], N), s)
        ops = sum(s.attrs["ops"] for s in first.values())
        rows = sum(s.attrs["n"] for s in first.values())
        out[f"banded.{kind}_ops_per_row"] = (ops / rows, "ops/row")
    out["banded.solve_diagonal.us"] = (_median_s(group("banded.solve_diagonal")) * 1e6, "us")
    for call in ("solve", "solve_transpose", "matvec"):
        out[f"banded.{call}.us.small"] = (_per_call_us(group(f"banded.{call}.small")), "us")
    out["analysis.max_pointwise_error.ms"] = (
        _median_s(group("analysis.max_pointwise_error")) * 1e3, "ms")
    cond = group("analysis.condition_full")
    out["analysis.condition_full.ms"] = (_median_s(cond) * 1e3, "ms")
    # failures of the workload's ops plus those of the COND_OUTSIDE inputs
    out["analysis.condition_full.failed"] = (
        float(sum(1 for s in cond + group("analysis.condition_full.outside")
                  if "error" in s.attrs)), "count")
    return out


def self_time(spans: list[Span]) -> tuple[dict[str, float], list[float], list[float]]:
    """Self seconds per span name, plus per-op totals and per-op self seconds.

    Only spans inside an "op" span count, so the per-layer self times and
    the op's own self time add up to the op time.
    """
    child_total = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_total[s.parent] += s.seconds
    per_name: dict[str, float] = {}
    op_total, op_self = [], []
    for s in spans:
        if s.op is None:
            continue
        own = s.seconds - child_total[s.id]
        if s.name == "op":
            op_total.append(s.seconds)
            op_self.append(own)
        else:
            per_name[s.name] = per_name.get(s.name, 0.0) + own
    return per_name, op_total, op_self
