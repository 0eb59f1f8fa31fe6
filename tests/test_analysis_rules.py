"""Fixture-based tests for every invariant-linter rule.

Each rule gets minimal positive (violating) and negative (clean)
snippets, plus the cross-cutting machinery: ``noqa`` suppression with
justifications, multi-line call handling (a ``stacklevel`` on a
continuation line must not false-positive), rule selection, parse
errors, and the CLI's exit codes and ``--json`` report.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from textwrap import dedent

import pytest

from repro.analysis import (all_rules, lint_paths, lint_source,
                            resolve_rules)
from repro.analysis.cli import (ANALYSIS_SCHEMA,
                                ANALYSIS_SCHEMA_VERSION, main)
from repro.analysis.core import PARSE_ERROR_CODE
from repro.analysis.rules import FROZEN_CLASSES, WORKER_SPEC_CLASSES

SRC_REPRO = Path(__file__).resolve().parents[1] / "src" / "repro"


def codes(source: str, path: str = "src/repro/example.py") -> list[str]:
    """Rule codes of the standing violations in ``source``."""
    result = lint_source(dedent(source), path)
    return [violation.code for violation in result.violations]


# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_six_rules_registered(self):
        assert [rule.code for rule in all_rules()] == [
            "RPR001", "RPR002", "RPR003", "RPR005", "RPR006"]

    def test_resolve_subset_and_unknown(self):
        subset = resolve_rules(["RPR002", "RPR001"])
        assert [rule.code for rule in subset] == ["RPR001", "RPR002"]
        with pytest.raises(KeyError):
            resolve_rules(["RPR999"])


class TestClassRegistrations:
    def test_registered_classes_exist_in_tree(self):
        # A registration whose class was deleted silently checks
        # nothing; every name must still be a class under src/repro.
        defined = {node.name
                   for path in SRC_REPRO.rglob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.ClassDef)}
        registered = set(FROZEN_CLASSES) | WORKER_SPEC_CLASSES
        assert sorted(registered - defined) == []


# ----------------------------------------------------------------------
class TestGlobalRngRule:
    def test_stdlib_random_import_flagged(self):
        assert "RPR001" in codes("import random\n")
        assert "RPR001" in codes("from random import choice\n")

    def test_stdlib_random_call_flagged(self):
        found = codes("""
            import random
            x = random.random()
        """)
        assert found.count("RPR001") == 2  # the import and the call

    def test_numpy_global_state_flagged(self):
        assert codes("np.random.seed(0)\n") == ["RPR001"]
        assert codes("np.random.shuffle(items)\n") == ["RPR001"]
        assert codes("numpy.random.randint(0, 5)\n") == ["RPR001"]

    def test_seedless_default_rng_flagged(self):
        (violation,) = lint_source("rng = np.random.default_rng()\n",
                                   "src/repro/example.py").violations
        assert violation.code == "RPR001"
        assert "non-deterministic" in violation.message

    def test_seeded_default_rng_outside_helper_flagged(self):
        assert codes("rng = np.random.default_rng(3)\n") == ["RPR001"]
        assert codes("rng = default_rng(seed)\n") == ["RPR001"]

    def test_rng_helper_module_is_exempt(self):
        source = "rng = np.random.default_rng(seed)\n"
        assert codes(source, path="src/repro/sampling/rng.py") == []

    def test_clean_constructs_pass(self):
        assert codes("""
            def f(seed):
                rng = ensure_rng(seed)
                root = np.random.SeedSequence(0)
                return rng.permutation(4), root
        """) == []


# ----------------------------------------------------------------------
class TestWarningStacklevelRule:
    def test_missing_stacklevel_flagged(self):
        assert codes("""
            import warnings
            warnings.warn("drifted", RuntimeWarning)
        """) == ["RPR002"]

    def test_bare_warn_import_flagged(self):
        assert codes("""
            from warnings import warn
            warn("drifted", RuntimeWarning)
        """) == ["RPR002"]

    def test_explicit_stacklevel_passes(self):
        assert codes("""
            import warnings
            warnings.warn("drifted", RuntimeWarning, stacklevel=2)
        """) == []

    def test_stacklevel_on_continuation_line_passes(self):
        # The regex-linter trap: the keyword lives on a later physical
        # line than the call.  The AST check must not false-positive.
        assert codes("""
            import warnings
            warnings.warn(
                "phi row sums drift from 1 by more than tolerance, "
                "renormalizing rows",
                RuntimeWarning,
                stacklevel=3,
            )
        """) == []

    def test_kwargs_splat_passes(self):
        assert codes("""
            import warnings
            warnings.warn("drifted", **kwargs)
        """) == []

    def test_unrelated_warn_function_ignored(self):
        assert codes("""
            def warn(msg):
                return msg
            warn("not the warnings module")
        """) == []


# ----------------------------------------------------------------------
class TestFrozenEngineMutationRule:
    def test_post_init_assignment_flagged(self):
        assert codes("""
            class FoldInEngine:
                def __init__(self):
                    self._work = None
                def theta(self, docs):
                    self._work = allocate(docs)
        """) == ["RPR003"]

    def test_augmented_and_unpacked_assignments_flagged(self):
        found = codes("""
            class EngineSpec:
                def rebuild(self):
                    self.calls += 1
                    self.a, self.b = 1, 2
        """)
        assert found == ["RPR003", "RPR003", "RPR003"]

    def test_init_and_post_init_are_exempt(self):
        assert codes("""
            class FoldInEngine:
                def __init__(self):
                    self._table = build()
                def __post_init__(self):
                    self._mass = 1.0
        """) == []

    def test_allowed_mutable_attribute_passes(self):
        # FoldInEngine.recorder is the one documented mutable slot
        # (worker processes neutralize an inherited recorder).
        assert codes("""
            class FoldInEngine:
                def neutralize(self):
                    self.recorder = NULL_RECORDER
        """) == []

    def test_unregistered_class_ignored(self):
        assert codes("""
            class MutableScratch:
                def grow(self):
                    self.size += 1
        """) == []


# ----------------------------------------------------------------------
class TestTelemetryPurityRule:
    def test_bad_default_flagged(self):
        (violation,) = lint_source(dedent("""
            def serve(recorder=InMemoryRecorder()):
                recorder = ensure_recorder(recorder)
        """), "src/repro/example.py").violations
        assert violation.code == "RPR005"
        assert "default" in violation.message

    def test_unrouted_recorder_flagged(self):
        (violation,) = lint_source(dedent("""
            def serve(recorder=None):
                return recorder
        """), "src/repro/example.py").violations
        assert violation.code == "RPR005"
        assert "ensure_recorder" in violation.message

    def test_ensure_recorder_coercion_passes(self):
        assert codes("""
            def serve(recorder=None):
                recorder = ensure_recorder(recorder)
                return recorder
        """) == []

    def test_forwarding_wrapper_passes(self):
        assert codes("""
            def serve(docs, recorder=NULL_RECORDER):
                return engine(docs, recorder=recorder)
        """) == []

    def test_keyword_only_recorder_checked(self):
        assert codes("""
            def serve(*, recorder=None):
                return recorder
        """) == ["RPR005"]

    def test_protocol_stub_skipped(self):
        assert codes("""
            def record(recorder=None):
                \"\"\"Interface stub.\"\"\"
                raise NotImplementedError
        """) == []

    def test_recorder_call_in_rng_loop_flagged(self):
        (violation,) = lint_source(dedent("""
            def sample(rng, recorder):
                for token in range(100):
                    topic = rng.integers(10)
                    recorder.count("draws")
        """), "src/repro/example.py").violations
        assert violation.code == "RPR005"
        assert "loop" in violation.message

    def test_self_recorder_and_derived_rng_names_detected(self):
        assert codes("""
            def sample(self, doc_rng):
                while self.pending:
                    u = doc_rng.random()
                    self.recorder.observe("u", u)
        """) == ["RPR005"]

    def test_recording_outside_the_loop_passes(self):
        assert codes("""
            def sample(rng, recorder):
                total = 0
                for token in range(100):
                    total += rng.integers(10)
                recorder.count("draws", total)
        """) == []

    def test_recorder_loop_without_rng_passes(self):
        assert codes("""
            def merge(recorder, stats):
                for row in stats:
                    recorder.count("serving.worker.docs", row)
        """) == []

    def test_nested_function_scope_not_conflated(self):
        # The rng advance lives in a nested function (its own timing
        # domain); the loop itself only records.
        assert codes("""
            def schedule(recorder, tasks):
                for task in tasks:
                    def runner(rng):
                        return rng.random()
                    recorder.count("scheduled")
        """) == []


# ----------------------------------------------------------------------
class TestForkShippingRule:
    def test_open_handle_flagged(self):
        (violation,) = lint_source(dedent("""
            class EngineSpec:
                def __init__(self, path):
                    self.handle = open(path, "rb")
        """), "src/repro/example.py").violations
        assert violation.code == "RPR006"
        assert "open(...)" in violation.message

    def test_mmap_load_flagged(self):
        assert codes("""
            class ShardedPhi:
                def __init__(self, path):
                    self.block = np.load(path, mmap_mode="r")
        """) == ["RPR006"]
        assert codes("""
            class EngineSpec:
                def __init__(self, fileno):
                    self.map = mmap.mmap(fileno, 0)
        """) == ["RPR006"]

    def test_getstate_exempts(self):
        assert codes("""
            class ShardedPhi:
                def __init__(self, path):
                    self.block = np.load(path, mmap_mode="r")
                def __getstate__(self):
                    return {"path": self.path}
        """) == []

    def test_reduce_exempts(self):
        assert codes("""
            class ShardedPhi:
                def __init__(self, path):
                    self.block = np.load(path, mmap_mode="r")
                def __reduce__(self):
                    return (ShardedPhi, (self.path,))
        """) == []

    def test_plain_load_passes(self):
        assert codes("""
            class EngineSpec:
                def __init__(self, path):
                    self.phi = np.load(path)
                    self.other = np.load(path, mmap_mode=None)
        """) == []

    def test_unregistered_class_ignored(self):
        assert codes("""
            class LocalCache:
                def __init__(self, path):
                    self.handle = open(path, "rb")
        """) == []


# ----------------------------------------------------------------------
class TestSuppression:
    def test_noqa_waives_matching_code(self):
        result = lint_source(
            "np.random.seed(0)  # repro: noqa[RPR001] exactness oracle\n",
            "src/repro/example.py")
        assert result.violations == ()
        (entry,) = result.suppressed
        assert entry.violation.code == "RPR001"
        assert entry.reason == "exactness oracle"

    def test_noqa_requires_the_right_code(self):
        result = lint_source(
            "np.random.seed(0)  # repro: noqa[RPR002] wrong code\n",
            "src/repro/example.py")
        assert [v.code for v in result.violations] == ["RPR001"]

    def test_noqa_with_multiple_codes(self):
        source = ("import warnings\n"
                  "warnings.warn(np.random.rand())"
                  "  # repro: noqa[RPR001, RPR002] fixture\n")
        result = lint_source(source, "src/repro/example.py")
        assert result.violations == ()
        assert sorted(e.violation.code for e in result.suppressed) \
            == ["RPR001", "RPR002"]

    def test_justification_defaults_when_missing(self):
        result = lint_source(
            "np.random.seed(0)  # repro: noqa[RPR001]\n",
            "src/repro/example.py")
        (entry,) = result.suppressed
        assert entry.reason == "waived by pragma"

    def test_multiline_call_suppressed_on_reported_line(self):
        # The violation is reported at the call's first line; the
        # pragma belongs there, not on the continuation lines.
        result = lint_source(dedent("""
            import warnings
            warnings.warn(  # repro: noqa[RPR002] finalizer, no caller
                "unclosed resource",
                ResourceWarning,
            )
        """), "src/repro/example.py")
        assert result.violations == ()
        assert len(result.suppressed) == 1


# ----------------------------------------------------------------------
class TestParseErrors:
    def test_syntax_error_reported_not_raised(self):
        result = lint_source("def broken(:\n", "src/repro/bad.py")
        (violation,) = result.violations
        assert violation.code == PARSE_ERROR_CODE
        assert "does not parse" in violation.message


# ----------------------------------------------------------------------
class TestCli:
    def _tree(self, tmp_path, dirty: bool = True):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "clean.py").write_text(
            "def f(seed):\n    return ensure_rng(seed)\n")
        if dirty:
            (package / "dirty.py").write_text(
                "import warnings\n"
                "np.random.seed(0)\n"
                "warnings.warn('x', RuntimeWarning)"
                "  # repro: noqa[RPR002] fixture waiver\n")
        return package

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        package = self._tree(tmp_path, dirty=False)
        assert main([str(package)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_with_findings(self, tmp_path, capsys):
        package = self._tree(tmp_path)
        assert main([str(package)]) == 1
        out = capsys.readouterr().out
        assert "RPR001" in out and "dirty.py:2" in out

    def test_select_narrows_rules(self, tmp_path, capsys):
        package = self._tree(tmp_path)
        assert main([str(package), "--select", "RPR003"]) == 0
        assert main([str(package), "--select", "RPR999"]) == 2
        capsys.readouterr()

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nowhere")]) == 2
        capsys.readouterr()

    def test_no_python_files_exits_two(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main([str(empty)]) == 2
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.code in out

    def test_json_report_shape(self, tmp_path, capsys):
        package = self._tree(tmp_path)
        report_path = tmp_path / "report.json"
        code = main([str(package), "--json", str(report_path)])
        capsys.readouterr()
        report = json.loads(report_path.read_text())
        assert code == 1
        assert report["schema"] == ANALYSIS_SCHEMA
        assert report["schema_version"] == ANALYSIS_SCHEMA_VERSION
        assert report["exit_code"] == 1
        assert report["files"] == 2
        assert report["rules"] == [r.code for r in all_rules()]
        (row,) = report["verdicts"]
        # The shared gate shape: name / metric / verdict, like
        # compare.py --json rows.
        assert row["verdict"] == "violation"
        assert row["metric"] == "RPR001"
        assert row["name"].endswith("dirty.py:2:1")
        (skip,) = report["skipped"]
        assert skip["reason"] == "noqa[RPR002]: fixture waiver"

    def test_json_written_on_clean_run_too(self, tmp_path, capsys):
        package = self._tree(tmp_path, dirty=False)
        report_path = tmp_path / "report.json"
        assert main([str(package), "--json", str(report_path)]) == 0
        capsys.readouterr()
        report = json.loads(report_path.read_text())
        assert report["exit_code"] == 0
        assert report["verdicts"] == []


# ----------------------------------------------------------------------
class TestLintPaths:
    def test_pycache_and_hidden_dirs_skipped(self, tmp_path):
        package = tmp_path / "pkg"
        (package / "__pycache__").mkdir(parents=True)
        (package / ".hidden").mkdir()
        (package / "__pycache__" / "junk.py").write_text(
            "np.random.seed(0)\n")
        (package / ".hidden" / "junk.py").write_text(
            "np.random.seed(0)\n")
        (package / "real.py").write_text("np.random.seed(0)\n")
        result = lint_paths([package])
        assert result.files == 1
        assert [v.code for v in result.violations] == ["RPR001"]

    def test_explicit_file_paths_accepted(self, tmp_path):
        target = tmp_path / "one.py"
        target.write_text("import random\n")
        result = lint_paths([target])
        assert result.files == 1
        assert [v.code for v in result.violations] == ["RPR001"]
