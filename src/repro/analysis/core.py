"""Linter core: violations, the rule registry, ``noqa`` pragmas, runners.

The repo's correctness rests on a handful of hand-maintained contracts
(chunked per-document RNG streams, telemetry purity, frozen serving
engines, fork-safe worker specs) that historically were enforced
only by runtime tests and review.  :mod:`repro.analysis` turns them
into machine-checked invariants: each contract is a :class:`Rule` with
a stable ``RPRxxx`` code, registered in a module-level registry, run
over the AST of every file in scope.

Suppression
-----------
A violation is waived by a pragma on its reported line::

    warnings.warn(msg, ResourceWarning)  # repro: noqa[RPR002] reason

The pragma names the exact code(s) it waives (``noqa[RPR001,RPR002]``
for several); text after the bracket is the justification, surfaced in
the ``--json`` report's ``skipped`` section so waivers stay auditable.
A blanket, code-less ``noqa`` is deliberately not supported.
"""

from __future__ import annotations

import ast
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

#: Code reported for files that fail to parse (not a registered rule:
#: it cannot be suppressed or deselected — a syntax error in the tree
#: is never acceptable).
PARSE_ERROR_CODE = "RPR000"

#: ``# repro: noqa[RPR002]`` / ``# repro: noqa[RPR001, RPR003]``; any
#: trailing text is the waiver's justification.
_NOQA_PATTERN = re.compile(
    r"#\s*repro:\s*noqa\[(?P<codes>[A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)\]"
    r"\s*(?P<reason>.*)$")


@dataclass(frozen=True, order=True)
class Violation:
    """One finding: a contract broken at ``path:line:col``."""

    path: str
    line: int
    col: int
    code: str
    message: str

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def __str__(self) -> str:
        return f"{self.location}: {self.code} {self.message}"


@dataclass(frozen=True, order=True)
class Suppressed:
    """A violation waived by a ``noqa`` pragma, with its justification."""

    violation: Violation
    reason: str


@dataclass(frozen=True)
class ModuleContext:
    """Everything a rule sees for one file."""

    path: str
    tree: ast.Module
    lines: tuple[str, ...]

    def is_module(self, *tail: str) -> bool:
        """Whether this file is one of the given repo modules, named by
        trailing path parts (``ctx.is_module("sampling", "rng.py")``)."""
        parts = Path(self.path).parts
        return any(parts[-len(t):] == t
                   for t in (tuple(Path(piece).parts) for piece in tail))


class Rule(ABC):
    """One machine-checked invariant.

    Subclasses define the stable ``code`` (``RPRxxx``), a short
    ``name`` and one-line ``rationale``, and implement :meth:`check`
    yielding :class:`Violation` rows for one module.  Register
    instances with :func:`register_rule`.
    """

    code: str
    name: str
    rationale: str

    @abstractmethod
    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        ...

    def violation(self, ctx: ModuleContext, node: ast.AST,
                  message: str) -> Violation:
        return Violation(path=ctx.path, line=node.lineno,
                         col=node.col_offset + 1, code=self.code,
                         message=message)


_RULES: dict[str, Rule] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding one instance of ``cls`` to the registry."""
    rule = cls()
    if rule.code in _RULES:
        raise ValueError(f"duplicate rule code {rule.code}")
    _RULES[rule.code] = rule
    return cls


def all_rules() -> tuple[Rule, ...]:
    """Registered rules, ordered by code."""
    return tuple(rule for _, rule in sorted(_RULES.items()))


def resolve_rules(select: Iterable[str] | None = None) -> tuple[Rule, ...]:
    """The rules to run: all of them, or the ``select``-ed codes."""
    if select is None:
        return all_rules()
    codes = list(select)
    unknown = sorted(set(codes) - set(_RULES))
    if unknown:
        known = ", ".join(sorted(_RULES))
        raise KeyError(
            f"unknown rule code(s) {', '.join(unknown)}; known: {known}")
    return tuple(_RULES[code] for code in sorted(set(codes)))


def _noqa_on(line: str) -> tuple[frozenset[str], str]:
    """The codes waived on one physical line, plus the justification."""
    match = _NOQA_PATTERN.search(line)
    if match is None:
        return frozenset(), ""
    codes = frozenset(code.strip()
                      for code in match.group("codes").split(","))
    return codes, match.group("reason").strip(" -—#").strip()


@dataclass(frozen=True)
class LintResult:
    """Violations that stand, and the ones waived by pragmas."""

    violations: tuple[Violation, ...]
    suppressed: tuple[Suppressed, ...]
    files: int

    @property
    def clean(self) -> bool:
        return not self.violations


def lint_source(source: str, path: str,
                rules: Sequence[Rule] | None = None) -> LintResult:
    """Run ``rules`` (default: all registered) over one file's text."""
    if rules is None:
        rules = all_rules()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        violation = Violation(
            path=path, line=exc.lineno or 1, col=(exc.offset or 0) + 1,
            code=PARSE_ERROR_CODE,
            message=f"file does not parse: {exc.msg}")
        return LintResult((violation,), (), files=1)
    lines = tuple(source.splitlines())
    ctx = ModuleContext(path=path, tree=tree, lines=lines)
    kept: list[Violation] = []
    waived: list[Suppressed] = []
    for rule in rules:
        for violation in rule.check(ctx):
            line_text = (lines[violation.line - 1]
                         if 0 < violation.line <= len(lines) else "")
            codes, reason = _noqa_on(line_text)
            if violation.code in codes:
                waived.append(Suppressed(
                    violation, reason or "waived by pragma"))
            else:
                kept.append(violation)
    return LintResult(tuple(sorted(kept)), tuple(sorted(waived)), files=1)


def lint_file(path: Path,
              rules: Sequence[Rule] | None = None) -> LintResult:
    return lint_source(path.read_text(), str(path), rules)


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """The ``.py`` files under ``paths`` (files pass through; directories
    recurse), skipping hidden directories and ``__pycache__``."""
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        for candidate in sorted(path.rglob("*.py")):
            relative = candidate.relative_to(path)
            if any(part == "__pycache__" or part.startswith(".")
                   for part in relative.parts):
                continue
            yield candidate


def lint_paths(paths: Iterable[Path],
               rules: Sequence[Rule] | None = None) -> LintResult:
    """Lint every python file under ``paths``; one merged result."""
    violations: list[Violation] = []
    suppressed: list[Suppressed] = []
    files = 0
    for file_path in iter_python_files(paths):
        result = lint_file(file_path, rules)
        violations.extend(result.violations)
        suppressed.extend(result.suppressed)
        files += 1
    return LintResult(tuple(sorted(violations)),
                      tuple(sorted(suppressed)), files=files)
