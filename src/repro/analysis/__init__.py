"""AST-based invariant linter for the repo's own contracts.

Eight PRs of determinism, telemetry and concurrency discipline live in
conventions no generic linter knows: RNG draws flow through the
chunked per-document streams of :mod:`repro.sampling.rng`, serving
warnings name their caller, engines freeze after ``__init__``,
telemetry never touches the RNG stream, and worker specs never pickle
OS resources.  This package machine-checks them:

======  ======================  =======================================
Code    Name                    Contract
======  ======================  =======================================
RPR001  global-rng-ban          no ``np.random.<fn>`` global state, no
                                stdlib ``random``, no direct
                                ``default_rng`` outside
                                ``repro.sampling.rng``
RPR002  warning-discipline      every ``warnings.warn`` passes an
                                explicit ``stacklevel=``
RPR003  frozen-engine-mutation  registered frozen classes never assign
                                ``self.<attr>`` outside ``__init__``
RPR005  telemetry-purity        ``recorder=`` defaults to ``None`` and
                                routes through ``ensure_recorder``; no
                                recorder call inside an RNG-advancing
                                loop
RPR006  fork-shipping-safety    worker-spec classes carry no OS-
                                resource attributes without
                                ``__getstate__``
======  ======================  =======================================

Run it with ``python -m repro.analysis src/repro`` (see
:mod:`repro.analysis.cli`); suppress a deliberate waiver with
``# repro: noqa[RPRxxx] justification`` on the flagged line.  The
tier-1 test ``tests/test_analysis_clean.py`` keeps ``src/repro`` at
zero violations.
"""

from repro.analysis.core import (LintResult, ModuleContext, Rule,
                                 Suppressed, Violation, all_rules,
                                 lint_file, lint_paths, lint_source,
                                 register_rule, resolve_rules)
# Importing the rules module populates the registry.
from repro.analysis import rules as _rules  # noqa: F401
from repro.analysis.rules import (FROZEN_CLASSES, RNG_HELPER_MODULE,
                                  WORKER_SPEC_CLASSES)

__all__ = [
    "FROZEN_CLASSES",
    "LintResult",
    "ModuleContext",
    "RNG_HELPER_MODULE",
    "Rule",
    "Suppressed",
    "Violation",
    "WORKER_SPEC_CLASSES",
    "all_rules",
    "lint_file",
    "lint_paths",
    "lint_source",
    "register_rule",
    "resolve_rules",
]
