"""Tests for the bench regression gate (``benchmarks/compare.py``)."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_COMPARE_PATH = (Path(__file__).parent.parent / "benchmarks"
                 / "compare.py")


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("bench_compare",
                                                  _COMPARE_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the defining module through sys.modules.
    sys.modules["bench_compare"] = module
    spec.loader.exec_module(module)
    return module


def _write_result(directory: Path, name: str, metrics: dict,
                  backend: str | None = None,
                  peak_rss: int | None = None) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": "repro.benchmarks/result",
        "schema_version": 2,
        "name": name,
        "metrics": metrics,
        "params": {},
    }
    if backend is not None:
        payload["backend"] = backend
    if peak_rss is not None:
        payload["peak_rss_bytes"] = peak_rss
    (directory / f"{name}.json").write_text(json.dumps(payload))


class TestThroughputMetrics:
    def test_flattens_nested_throughput_only(self, compare):
        payload = {"metrics": {
            "docs_per_second": {"1": 100.0, "8": 250.0},
            "tokens_per_second": 4000,
            "accuracy": 0.93,                 # not throughput: ignored
            "flags": {"docs_per_second_ok": True},  # bool: ignored
            "ratio": None,                    # null off-path: ignored
        }}
        flat = compare.throughput_metrics(payload)
        assert flat == {"docs_per_second.1": 100.0,
                        "docs_per_second.8": 250.0,
                        "tokens_per_second": 4000.0}

    def test_null_throughput_leaf_is_kept_as_none(self, compare):
        # A null on a throughput path means "not measured in this
        # run" — it must surface as None so compare_dirs can skip it
        # with a reason, not vanish from the flattened view.
        payload = {"metrics": {
            "tokens_per_second": {"sparse": 900.0, "alias": None}}}
        flat = compare.throughput_metrics(payload)
        assert flat == {"tokens_per_second.sparse": 900.0,
                        "tokens_per_second.alias": None}


class TestCompareDirs:
    def test_detects_regression_beyond_threshold(self, compare,
                                                 tmp_path):
        _write_result(tmp_path / "base", "serving",
                      {"docs_per_second": {"1": 100.0, "8": 200.0}})
        _write_result(tmp_path / "fresh", "serving",
                      {"docs_per_second": {"1": 60.0, "8": 190.0}})
        comparisons, skipped = compare.compare_dirs(tmp_path / "base",
                                                    tmp_path / "fresh")
        assert skipped == []
        by_metric = {c.metric: c for c in comparisons}
        assert by_metric["docs_per_second.1"].regressed(0.3)
        assert not by_metric["docs_per_second.8"].regressed(0.3)
        # A looser gate tolerates the same drop.
        assert not by_metric["docs_per_second.1"].regressed(0.5)

    def test_improvements_and_noise_pass(self, compare, tmp_path):
        _write_result(tmp_path / "base", "sweep",
                      {"tokens_per_second": 1000.0})
        _write_result(tmp_path / "fresh", "sweep",
                      {"tokens_per_second": 1400.0})
        comparisons, _ = compare.compare_dirs(tmp_path / "base",
                                              tmp_path / "fresh")
        assert not any(c.regressed(0.3) for c in comparisons)

    def test_missing_fresh_file_is_skipped_not_fatal(self, compare,
                                                     tmp_path):
        _write_result(tmp_path / "base", "serving",
                      {"docs_per_second": 10.0})
        _write_result(tmp_path / "base", "retired",
                      {"docs_per_second": 5.0})
        _write_result(tmp_path / "fresh", "serving",
                      {"docs_per_second": 11.0})
        comparisons, skipped = compare.compare_dirs(tmp_path / "base",
                                                    tmp_path / "fresh")
        assert [c.bench for c in comparisons] == ["serving"]
        assert [name for name, _reason in skipped] == ["retired"]

    def test_fresh_only_file_is_skipped_not_silent(self, compare,
                                                   tmp_path):
        """A result present only in the fresh directory (a new bench,
        or a renamed baseline) must surface as skipped — not vanish
        from the gate's output entirely."""
        _write_result(tmp_path / "base", "serving",
                      {"docs_per_second": 10.0})
        _write_result(tmp_path / "fresh", "serving",
                      {"docs_per_second": 11.0})
        _write_result(tmp_path / "fresh", "brand_new",
                      {"docs_per_second": 7.0})
        comparisons, skipped = compare.compare_dirs(tmp_path / "base",
                                                    tmp_path / "fresh")
        assert [c.bench for c in comparisons] == ["serving"]
        assert [name for name, _reason in skipped] == ["brand_new"]

    def test_null_metric_is_skipped_with_reason(self, compare, tmp_path):
        """A throughput series that is null on either side (a series
        the bench could not measure in that run's configuration) must
        be skipped with a printed reason — not compared as a number
        and not silently dropped."""
        _write_result(tmp_path / "base", "sweep", {"tokens_per_second": {
            "sparse": 1000.0, "alias": None}})
        _write_result(tmp_path / "fresh", "sweep", {"tokens_per_second": {
            "sparse": 950.0, "alias": 4000.0}})
        comparisons, skipped = compare.compare_dirs(tmp_path / "base",
                                                    tmp_path / "fresh")
        assert [c.metric for c in comparisons] == [
            "tokens_per_second.sparse"]
        assert skipped == [("sweep:tokens_per_second.alias",
                            "null on baseline side — not measured in "
                            "that run's configuration")]

    def test_unstamped_baseline_still_gates(self, compare, tmp_path):
        """Results written before the token-loop "backend" stamp was
        dropped still carry it; the gate ignores the key, so stamped
        and unstamped runs keep gating against each other."""
        _write_result(tmp_path / "base", "sweep",
                      {"tokens_per_second": 1000.0})
        _write_result(tmp_path / "fresh", "sweep",
                      {"tokens_per_second": 500.0}, backend="python")
        comparisons, skipped = compare.compare_dirs(tmp_path / "base",
                                                    tmp_path / "fresh")
        assert skipped == []
        assert comparisons[0].regressed(0.3)


class TestLatencyGate:
    def test_latency_leaves_gate_lower_is_better(self, compare,
                                                 tmp_path):
        _write_result(tmp_path / "base", "elastic", {
            "latency_seconds": {"hedged": {"p50": 0.02, "p99": 0.10}}})
        _write_result(tmp_path / "fresh", "elastic", {
            "latency_seconds": {"hedged": {"p50": 0.02, "p99": 0.20}}})
        comparisons, skipped = compare.compare_dirs(tmp_path / "base",
                                                    tmp_path / "fresh")
        assert skipped == []
        by_metric = {c.metric: c for c in comparisons}
        p99 = by_metric["latency_seconds.hedged.p99"]
        assert p99.direction == "lower"
        assert p99.regressed(0.3)           # doubled: above threshold
        assert not p99.regressed(1.5)       # a looser gate tolerates it
        assert not by_metric["latency_seconds.hedged.p50"].regressed(0.3)

    def test_latency_improvement_never_regresses(self, compare,
                                                 tmp_path):
        _write_result(tmp_path / "base", "elastic",
                      {"request_latency": {"p99": 0.50}})
        _write_result(tmp_path / "fresh", "elastic",
                      {"request_latency": {"p99": 0.05}})
        comparisons, _ = compare.compare_dirs(tmp_path / "base",
                                              tmp_path / "fresh")
        (row,) = comparisons
        # The bare "latency" marker gates too, and a 10x drop is an
        # improvement in the lower-is-better direction, never a fail.
        assert row.direction == "lower"
        assert not row.regressed(0.3)

    def test_per_second_paths_never_gate_as_latency(self, compare):
        payload = {"metrics": {"docs_per_second": 100.0,
                               "batch_seconds": 1.5,
                               "accuracy": 0.9}}
        assert compare.latency_metrics(payload) == {
            "batch_seconds": 1.5}
        assert compare.throughput_metrics(payload) == {
            "docs_per_second": 100.0}

    def test_synthetic_p99_regression_exits_nonzero(self, compare,
                                                    tmp_path, capsys):
        """The acceptance gate: a fresh run whose p99 latency grew past
        the threshold must fail the CLI, with the verdict row carrying
        the lower-is-better direction."""
        _write_result(tmp_path / "base", "elastic_serving", {
            "docs_per_second": 100.0,
            "latency_seconds": {"unhedged": {"p99": 0.30},
                                "hedged": {"p99": 0.05}}})
        _write_result(tmp_path / "fresh", "elastic_serving", {
            "docs_per_second": 100.0,
            "latency_seconds": {"unhedged": {"p99": 0.30},
                                "hedged": {"p99": 0.25}}})
        report_path = tmp_path / "report.json"
        code = compare.main([str(tmp_path / "fresh"), "--baseline",
                             str(tmp_path / "base"), "--json",
                             str(report_path)])
        capsys.readouterr()
        assert code == 1
        report = json.loads(report_path.read_text())
        by_metric = {row["metric"]: row for row in report["verdicts"]}
        bad = by_metric["latency_seconds.hedged.p99"]
        assert bad["verdict"] == "regressed"
        assert bad["direction"] == "lower"
        assert by_metric["docs_per_second"]["verdict"] == "ok"
        assert by_metric["docs_per_second"]["direction"] == "higher"
        # Same numbers within the threshold pass.
        assert compare.main([str(tmp_path / "base"), "--baseline",
                             str(tmp_path / "base")]) == 0
        capsys.readouterr()


class TestMemoryGate:
    def test_pairs_require_stamps_on_both_sides(self, compare, tmp_path):
        _write_result(tmp_path / "base", "stamped",
                      {"docs_per_second": 10.0}, peak_rss=100 * 2**20)
        _write_result(tmp_path / "fresh", "stamped",
                      {"docs_per_second": 10.0}, peak_rss=150 * 2**20)
        _write_result(tmp_path / "base", "prestamp",
                      {"docs_per_second": 10.0})
        _write_result(tmp_path / "fresh", "prestamp",
                      {"docs_per_second": 10.0}, peak_rss=900 * 2**20)
        rows = compare.memory_comparisons(tmp_path / "base",
                                          tmp_path / "fresh")
        assert [c.bench for c in rows] == ["stamped"]
        assert rows[0].ratio == pytest.approx(1.5)

    def test_memory_gate_is_opt_in_and_directional(self, compare,
                                                   tmp_path, capsys):
        _write_result(tmp_path / "base", "serving",
                      {"docs_per_second": 100.0}, peak_rss=100 * 2**20)
        # Throughput fine, memory doubled.
        _write_result(tmp_path / "fresh", "serving",
                      {"docs_per_second": 101.0}, peak_rss=200 * 2**20)
        base = ["--baseline", str(tmp_path / "base")]
        fresh = str(tmp_path / "fresh")
        # Without the flag memory never gates.
        assert compare.main([fresh] + base) == 0
        # With it, growth beyond the threshold fails...
        assert compare.main([fresh, "--memory-threshold", "0.5"]
                            + base) == 1
        # ...tolerated growth passes, and shrinkage is never a failure.
        assert compare.main([fresh, "--memory-threshold", "1.5"]
                            + base) == 0
        _write_result(tmp_path / "fresh", "serving",
                      {"docs_per_second": 101.0}, peak_rss=50 * 2**20)
        assert compare.main([fresh, "--memory-threshold", "0.1"]
                            + base) == 0
        capsys.readouterr()  # swallow table output


class TestJsonReport:
    def _run(self, compare, tmp_path, capsys, *extra):
        report_path = tmp_path / "report.json"
        code = compare.main([str(tmp_path / "fresh"), "--baseline",
                             str(tmp_path / "base"), "--json",
                             str(report_path)] + list(extra))
        capsys.readouterr()  # swallow table output
        report = json.loads(report_path.read_text())
        assert report["schema"] == "repro.benchmarks/compare"
        assert report["schema_version"] == 3
        assert report["exit_code"] == code
        return code, report

    def test_ok_and_regressed_verdicts(self, compare, tmp_path, capsys):
        _write_result(tmp_path / "base", "serving",
                      {"docs_per_second": {"1": 100.0, "8": 200.0}})
        _write_result(tmp_path / "fresh", "serving",
                      {"docs_per_second": {"1": 40.0, "8": 195.0}})
        code, report = self._run(compare, tmp_path, capsys)
        assert code == 1
        by_metric = {row["metric"]: row for row in report["verdicts"]}
        bad = by_metric["docs_per_second.1"]
        assert bad["verdict"] == "regressed"
        assert bad["baseline"] == 100.0 and bad["fresh"] == 40.0
        assert bad["ratio"] == pytest.approx(0.4)
        assert by_metric["docs_per_second.8"]["verdict"] == "ok"
        # Schema v2: rows carry the shared gate shape's "name" key
        # (v1 called it "bench").
        assert all(row["name"] == "serving"
                   for row in report["verdicts"])
        assert report["threshold"] == pytest.approx(0.3)
        assert report["skipped"] == []
        assert report["memory"] == []

    def test_skipped_rows_carry_reasons(self, compare, tmp_path, capsys):
        _write_result(tmp_path / "base", "serving",
                      {"docs_per_second": 10.0})
        _write_result(tmp_path / "fresh", "serving",
                      {"docs_per_second": 11.0})
        _write_result(tmp_path / "base", "retired",
                      {"docs_per_second": 5.0})
        code, report = self._run(compare, tmp_path, capsys)
        assert code == 0
        skipped = {row["name"]: row["reason"]
                   for row in report["skipped"]}
        assert "missing or unreadable" in skipped["retired"]
        assert [row["verdict"] for row in report["verdicts"]] == ["ok"]

    def test_memory_rows_when_gated(self, compare, tmp_path, capsys):
        _write_result(tmp_path / "base", "serving",
                      {"docs_per_second": 100.0},
                      peak_rss=100 * 2**20)
        _write_result(tmp_path / "fresh", "serving",
                      {"docs_per_second": 101.0},
                      peak_rss=200 * 2**20)
        code, report = self._run(compare, tmp_path, capsys,
                                 "--memory-threshold", "0.5")
        assert code == 1
        assert report["memory_threshold"] == pytest.approx(0.5)
        (row,) = report["memory"]
        assert row["metric"] == "peak_rss_bytes"
        assert row["verdict"] == "regressed"
        assert row["ratio"] == pytest.approx(2.0)
        # Throughput itself was fine.
        assert all(r["verdict"] == "ok" for r in report["verdicts"])

    def test_written_even_when_nothing_is_comparable(self, compare,
                                                     tmp_path, capsys):
        """The exit-2 misconfiguration path must still leave a report —
        CI reads the file to learn *why* the gate did not run."""
        (tmp_path / "base").mkdir()
        (tmp_path / "fresh").mkdir()
        _write_result(tmp_path / "base", "only_here",
                      {"docs_per_second": 1.0})
        code, report = self._run(compare, tmp_path, capsys)
        assert code == 2
        assert report["verdicts"] == []
        assert [row["name"] for row in report["skipped"]] \
            == ["only_here"]

    def test_no_file_without_the_flag(self, compare, tmp_path, capsys):
        _write_result(tmp_path / "base", "serving",
                      {"docs_per_second": 10.0})
        _write_result(tmp_path / "fresh", "serving",
                      {"docs_per_second": 11.0})
        assert compare.main([str(tmp_path / "fresh"), "--baseline",
                             str(tmp_path / "base")]) == 0
        capsys.readouterr()
        assert not (tmp_path / "report.json").exists()


class TestMain:
    def test_exit_codes(self, compare, tmp_path, capsys):
        _write_result(tmp_path / "base", "serving",
                      {"docs_per_second": 100.0})
        _write_result(tmp_path / "fresh_ok", "serving",
                      {"docs_per_second": 95.0})
        _write_result(tmp_path / "fresh_bad", "serving",
                      {"docs_per_second": 40.0})
        base = ["--baseline", str(tmp_path / "base")]
        assert compare.main([str(tmp_path / "fresh_ok")] + base) == 0
        assert compare.main([str(tmp_path / "fresh_bad")] + base) == 1
        # A custom threshold can wave the same drop through.
        assert compare.main([str(tmp_path / "fresh_bad"),
                             "--threshold", "0.7"] + base) == 0
        # Nothing comparable (or missing dirs) exits 2, not 0.
        empty = tmp_path / "empty"
        empty.mkdir()
        assert compare.main([str(empty)] + base) == 2
        assert compare.main([str(tmp_path / "nowhere")] + base) == 2
        capsys.readouterr()  # swallow table output
