#!/usr/bin/env python
"""Gate the perf job: diff fresh bench results against committed ones.

Every bench writes a machine-readable ``benchmarks/results/<name>.json``
(schema ``repro.benchmarks/result``: ``metrics`` + ``params``).  This
tool compares a freshly generated results directory against the
committed baseline and **exits nonzero when any throughput or latency
metric regressed by more than the threshold** — turning
``pytest benchmarks -m bench`` from a log into a gate::

    PYTHONPATH=src python -m pytest benchmarks -m bench \
        --benchmark-disable -q    # writes fresh results in place, or
                                  # copy baselines aside first
    python benchmarks/compare.py <fresh-dir> \
        --baseline benchmarks/results --threshold 0.3

Two metric shapes gate, each with an unambiguous direction:
**throughput** (key paths containing ``per_second`` / ``per_sec`` —
docs/sec, tokens/sec), where lower is worse, and **latency** (paths
containing ``_seconds`` / ``latency`` — wall timings and p50/p95/p99
percentiles), where *higher* is worse; a path matching both markers
counts as throughput.  Quality metrics (accuracy, divergence,
perplexity) have their own asserts inside the benches.  Fresh files
missing a committed counterpart (new benches) and vice versa (retired
benches) are reported but never fail the gate; having **no**
comparable metric at all exits 2, so a misconfigured CI path cannot
masquerade as a pass.

Benches record ``null`` for throughput series they could not measure
in that run's configuration (an engine a kernel falls back from).  A
throughput path that is ``null`` on either side is **skipped with a
printed reason** — a null is "not measured here", never a zero, and
must not gate or crash the numeric diff.

Results are also stamped with the process's ``peak_rss_bytes``
(``benchmarks/_shared.record``).  Passing ``--memory-threshold``
additionally fails the gate when a bench's peak RSS *grew* by more
than that fraction; pairs where either side predates the stamp are
skipped.  The memory gate is opt-in because RSS is even noisier than
wall-clock (allocator reuse, import order) — use a generous threshold.

``--json <path>`` additionally writes the verdicts as machine-readable
JSON (schema ``repro.benchmarks/compare``: per-metric
``ok``/``regressed`` rows with both values and the ratio, skipped
results with their reasons, the memory rows when gated, and the exit
code) so CI consumes the gate structurally instead of parsing stdout.
The file is written on every outcome that reaches comparison — pass,
regression, and the no-comparable-metrics exit 2.  The report rides on
the shared verdict-report shape of :mod:`repro.analysis.report`, the
same skeleton ``python -m repro.analysis --json`` emits, so CI parses
one structure for both gates.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

try:
    from repro.analysis.report import (build_report as _shared_report,
                                       skipped_row, verdict_row,
                                       write_report)
except ImportError:  # run as a bare script without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repro.analysis.report import (build_report as _shared_report,
                                       skipped_row, verdict_row,
                                       write_report)

#: Metric key-path fragments treated as higher-is-better throughput.
THROUGHPUT_MARKERS = ("per_second", "per_sec")

#: Metric key-path fragments treated as lower-is-better latency (wall
#: timings, tail percentiles).  A path also matching a throughput
#: marker is throughput — ``per_second`` paths never gate as latency.
LATENCY_MARKERS = ("_seconds", "latency")

#: Default tolerated fractional drop (bench timings are noisy on
#: shared CI machines; sustained regressions larger than this are real).
DEFAULT_THRESHOLD = 0.30


def _flat_leaves(payload: dict,
                 prefix: str = "") -> dict[str, float | None]:
    """Flatten ``payload["metrics"]`` to every ``path -> leaf`` row:
    numeric leaves as floats, ``null`` leaves as ``None`` (the bench
    declared the series unmeasured in that run), everything else
    dropped."""
    tree = payload.get("metrics", {}) if not prefix else payload
    flat: dict[str, float | None] = {}
    if not isinstance(tree, dict):
        return flat
    for key, value in tree.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            flat.update(_flat_leaves(value, path))
        elif value is None:
            flat[path] = None
        elif isinstance(value, (int, float)) \
                and not isinstance(value, bool):
            flat[path] = float(value)
    return flat


def throughput_metrics(payload: dict) -> dict[str, float | None]:
    """``path -> value`` rows on a throughput-marked path (higher is
    better).  Null leaves are kept as ``None`` so the comparison can
    skip them with a reason instead of silently dropping them."""
    return {path: value
            for path, value in _flat_leaves(payload).items()
            if any(marker in path for marker in THROUGHPUT_MARKERS)}


def latency_metrics(payload: dict) -> dict[str, float | None]:
    """``path -> value`` rows on a latency-marked path (lower is
    better).  Throughput-marked paths are excluded — ``per_second``
    always gates as throughput, never as latency."""
    return {path: value
            for path, value in _flat_leaves(payload).items()
            if any(marker in path for marker in LATENCY_MARKERS)
            and not any(marker in path
                        for marker in THROUGHPUT_MARKERS)}


@dataclass(frozen=True)
class Comparison:
    """One baseline-vs-fresh gated metric.

    ``direction`` is ``"higher"`` for throughput rows (a drop beyond
    the threshold regresses) and ``"lower"`` for latency and memory
    rows (growth beyond the threshold regresses).
    """

    bench: str
    metric: str
    baseline: float
    fresh: float
    direction: str = "higher"

    @property
    def ratio(self) -> float:
        return self.fresh / self.baseline if self.baseline else float("inf")

    def regressed(self, threshold: float) -> bool:
        if self.baseline <= 0:
            return False
        if self.direction == "lower":
            return self.ratio > 1.0 + threshold
        return self.ratio < 1.0 - threshold


def load_result(path: Path) -> dict | None:
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def compare_dirs(baseline_dir: Path, fresh_dir: Path
                 ) -> tuple[list[Comparison], list[tuple[str, str]]]:
    """All gated comparisons (throughput, then latency) between two
    results directories, plus ``(name, reason)`` pairs for results
    skipped because one side is missing/unreadable."""
    comparisons: list[Comparison] = []
    skipped: list[tuple[str, str]] = []
    # Union of both sides: a result present only in one directory (a
    # new, retired or renamed bench) must show up as skipped, not
    # silently drop out of the gate.
    filenames = sorted({path.name
                        for directory in (baseline_dir, fresh_dir)
                        for path in directory.glob("*.json")})
    for filename in filenames:
        name = Path(filename).stem
        baseline_path = baseline_dir / filename
        fresh_path = fresh_dir / filename
        baseline = load_result(baseline_path) \
            if baseline_path.is_file() else None
        fresh = load_result(fresh_path) if fresh_path.is_file() else None
        if baseline is None or fresh is None:
            skipped.append((name, "missing or unreadable on one side"))
            continue
        for flatten, direction in ((throughput_metrics, "higher"),
                                   (latency_metrics, "lower")):
            base_metrics = flatten(baseline)
            fresh_metrics = flatten(fresh)
            for metric, value in sorted(base_metrics.items()):
                if metric not in fresh_metrics:
                    continue
                fresh_value = fresh_metrics[metric]
                null_sides = [side for side, leaf
                              in (("baseline", value),
                                  ("fresh", fresh_value))
                              if leaf is None]
                if null_sides:
                    skipped.append(
                        (f"{name}:{metric}",
                         f"null on {' and '.join(null_sides)} side — "
                         "not measured in that run's configuration"))
                    continue
                comparisons.append(Comparison(
                    bench=name, metric=metric, baseline=value,
                    fresh=fresh_value, direction=direction))
    return comparisons, skipped


def memory_comparisons(baseline_dir: Path, fresh_dir: Path
                       ) -> list[Comparison]:
    """``peak_rss_bytes`` pairs for results present (and stamped) on
    both sides.  Reuses :class:`Comparison` with the memory value in
    the metric slots and the lower-is-better direction (memory
    regressions are ratios above 1)."""
    rows: list[Comparison] = []
    for baseline_path in sorted(baseline_dir.glob("*.json")):
        fresh_path = fresh_dir / baseline_path.name
        if not fresh_path.is_file():
            continue
        baseline = load_result(baseline_path)
        fresh = load_result(fresh_path)
        if baseline is None or fresh is None:
            continue
        base_rss = baseline.get("peak_rss_bytes")
        fresh_rss = fresh.get("peak_rss_bytes")
        if all(isinstance(v, (int, float)) and not isinstance(v, bool)
               and v > 0 for v in (base_rss, fresh_rss)):
            rows.append(Comparison(
                bench=baseline_path.stem, metric="peak_rss_bytes",
                baseline=float(base_rss), fresh=float(fresh_rss),
                direction="lower"))
    return rows


#: Schema of the ``--json`` report; bump on layout changes.  Version 2
#: moved the rows onto the shared gate shape of
#: :mod:`repro.analysis.report` (``bench`` key renamed to ``name``) so
#: this gate and the invariant linter emit identically shaped verdicts.
#: Version 3 added latency (lower-is-better) rows and stamps every row
#: with its gating ``direction``.
COMPARE_SCHEMA = "repro.benchmarks/compare"
COMPARE_SCHEMA_VERSION = 3


def _comparison_row(comparison: Comparison,
                    regressions: list[Comparison]) -> dict:
    return verdict_row(
        name=comparison.bench, metric=comparison.metric,
        verdict="regressed" if comparison in regressions else "ok",
        baseline=comparison.baseline, fresh=comparison.fresh,
        ratio=comparison.ratio, direction=comparison.direction)


def build_report(comparisons: list[Comparison],
                 regressions: list[Comparison],
                 skipped: list[tuple[str, str]],
                 memory: list[Comparison],
                 memory_regressions: list[Comparison],
                 threshold: float,
                 memory_threshold: float | None,
                 exit_code: int) -> dict:
    """The machine-readable verdict structure behind ``--json``."""
    return _shared_report(
        COMPARE_SCHEMA, COMPARE_SCHEMA_VERSION,
        verdicts=[_comparison_row(c, regressions)
                  for c in comparisons],
        skipped=[skipped_row(name, reason)
                 for name, reason in skipped],
        exit_code=exit_code,
        threshold=threshold,
        memory_threshold=memory_threshold,
        memory=[_comparison_row(c, memory_regressions)
                for c in memory])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when fresh bench throughput or latency "
                    "regresses vs the committed baseline.")
    parser.add_argument("fresh", type=Path,
                        help="directory of freshly generated *.json "
                             "bench results")
    parser.add_argument("--baseline", type=Path,
                        default=Path(__file__).parent / "results",
                        help="committed results directory "
                             "(default: benchmarks/results)")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD,
                        help="tolerated fractional regression — "
                             "throughput drop or latency growth "
                             f"(default {DEFAULT_THRESHOLD})")
    parser.add_argument("--memory-threshold", type=float, default=None,
                        help="also fail when a bench's peak_rss_bytes "
                             "grew by more than this fraction "
                             "(default: memory does not gate)")
    parser.add_argument("--json", type=Path, default=None,
                        dest="json_path", metavar="PATH",
                        help="also write the verdicts as "
                             "machine-readable JSON to PATH")
    args = parser.parse_args(argv)
    if not args.baseline.is_dir():
        print(f"baseline directory {args.baseline} does not exist",
              file=sys.stderr)
        return 2
    if not args.fresh.is_dir():
        print(f"fresh directory {args.fresh} does not exist",
              file=sys.stderr)
        return 2
    comparisons, skipped = compare_dirs(args.baseline, args.fresh)
    regressions = [c for c in comparisons
                   if c.regressed(args.threshold)]
    memory: list[Comparison] = []
    memory_regressions: list[Comparison] = []
    if comparisons and args.memory_threshold is not None:
        memory = memory_comparisons(args.baseline, args.fresh)
        memory_regressions = [
            c for c in memory
            if c.regressed(args.memory_threshold)]
    if not comparisons:
        exit_code = 2
    elif regressions or memory_regressions:
        exit_code = 1
    else:
        exit_code = 0
    if args.json_path is not None:
        write_report(args.json_path,
                     build_report(comparisons, regressions, skipped,
                                  memory, memory_regressions,
                                  args.threshold,
                                  args.memory_threshold, exit_code))
    if not comparisons:
        for name, reason in skipped:
            print(f"{name}: skipped ({reason})", file=sys.stderr)
        print("no comparable throughput or latency metrics found — "
              "check the directories", file=sys.stderr)
        return exit_code
    width = max(len(f"{c.bench}:{c.metric}") for c in comparisons)
    for comparison in comparisons:
        flag = "REGRESSED" if comparison in regressions else "ok"
        print(f"{comparison.bench + ':' + comparison.metric:<{width}}  "
              f"base {comparison.baseline:>12.3f}  "
              f"fresh {comparison.fresh:>12.3f}  "
              f"x{comparison.ratio:.3f}  {flag}")
    for name, reason in skipped:
        print(f"{name}: skipped ({reason})")
    for comparison in memory:
        flag = ("REGRESSED" if comparison in memory_regressions
                else "ok")
        print(f"{comparison.bench}:peak_rss  "
              f"base {comparison.baseline / 2**20:>9.1f}M  "
              f"fresh {comparison.fresh / 2**20:>9.1f}M  "
              f"x{comparison.ratio:.3f}  {flag}")
    if regressions:
        slower = sum(1 for c in regressions if c.direction == "lower")
        faster = len(regressions) - slower
        kinds = ", ".join(part for part in (
            f"{faster} throughput" if faster else "",
            f"{slower} latency" if slower else "") if part)
        print(f"\n{len(regressions)} metric(s) regressed more than "
              f"{args.threshold:.0%} ({kinds})", file=sys.stderr)
        return exit_code
    if memory_regressions:
        print(f"\n{len(memory_regressions)} bench(es) grew peak RSS "
              f"more than {args.memory_threshold:.0%}", file=sys.stderr)
        return exit_code
    print(f"\nall {len(comparisons)} gated metrics within "
          f"{args.threshold:.0%} of baseline")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
