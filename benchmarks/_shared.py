"""Shared scaffolding for the benchmark harness.

Each bench regenerates one table/figure of the paper at ``BENCH`` scale
(laptop-sized; see EXPERIMENTS.md for the paper-scale parameters), prints
the same rows/series the paper reports, and writes them to
``benchmarks/results/``:

* ``<name>.txt`` — the human-readable table, as before;
* ``<name>.json`` — a schema-versioned machine-readable record
  (``metrics`` + ``params``), so the perf trajectory can be diffed and
  plotted across PRs without parsing tables.

Expensive experiment runs are memoized so that figure pairs sharing a run
(8a/8d, 8b/8e) only pay for it once.
"""

from __future__ import annotations

import json
import resource
import sys
from functools import lru_cache
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.experiments import LAPTOP
from repro.experiments.wikipedia_corpus import (run_bijective_condition,
                                                run_mixed_condition)

RESULTS_DIR = Path(__file__).parent / "results"

#: Schema of the ``<name>.json`` records; bump on layout changes.
RESULTS_SCHEMA_VERSION = 2
RESULTS_SCHEMA = "repro.benchmarks/result"

#: The Fig. 8 experiment scale: long documents and a superset several
#: times larger than the generating set, mirroring the paper's B=578,
#: K=100, Davg=500 at laptop size.
FIG8_SCALE = LAPTOP.scaled(num_documents=120, iterations=40,
                           superset_size=60, generating_topics=10,
                           avg_document_length=200, article_length=400)

#: Scale for the medium-cost drivers (Figs. 6-7, Table I).
MEDIUM_SCALE = LAPTOP.scaled(num_documents=150, iterations=50)


def _jsonify(value: Any) -> Any:
    """Coerce benchmark values (numpy scalars/arrays, tuples) to JSON."""
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, float):
        # NaN/inf are not valid JSON; record them as null.
        return value if np.isfinite(value) else None
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in value.items()}
    return value


def record(name: str, text: str,
           metrics: Mapping[str, Any] | None = None,
           params: Mapping[str, Any] | None = None,
           telemetry: Mapping[str, Any] | None = None) -> None:
    """Print a bench's table and persist it under benchmarks/results/.

    ``metrics`` are the quantities the bench asserts on (its perf/quality
    trajectory); ``params`` the workload knobs that produced them.  Both
    land in ``<name>.json`` next to the ``.txt`` table.

    Every record is also stamped with the process's peak RSS
    (``peak_rss_bytes``, from ``getrusage``) at write time — a coarse
    memory trajectory alongside the throughput one.  It sits at the
    payload top level, not under ``metrics``, so throughput diffing
    ignores it; ``compare.py --memory-threshold`` gates on it.

    ``telemetry`` optionally attaches an
    ``InMemoryRecorder.snapshot()``-style dict at the payload top level
    (like ``peak_rss_bytes``): a per-run breakdown of where time and
    work went, for humans and dashboards.  Throughput diffing only
    reads ``metrics``, so the snapshot never affects the compare gate.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    # ru_maxrss is kilobytes on Linux but bytes on macOS (the BSD
    # getrusage lineage) — an unscaled read would inflate mac results
    # 1024x and trip every cross-platform memory gate.
    rss_scale = 1 if sys.platform == "darwin" else 1024
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
        * rss_scale
    payload = {
        "schema": RESULTS_SCHEMA,
        "schema_version": RESULTS_SCHEMA_VERSION,
        "name": name,
        "peak_rss_bytes": int(peak_rss),
        "metrics": _jsonify(dict(metrics or {})),
        "params": _jsonify(dict(params or {})),
    }
    if telemetry is not None:
        payload["telemetry"] = _jsonify(dict(telemetry))
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\n{text}\n")


@lru_cache(maxsize=1)
def mixed_condition_result():
    return run_mixed_condition(FIG8_SCALE, seed=3)


@lru_cache(maxsize=1)
def bijective_condition_result():
    return run_bijective_condition(FIG8_SCALE, seed=3)
