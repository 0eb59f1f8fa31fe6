"""The repo's contract rules: ``RPR001``–``RPR003``, ``RPR005``, ``RPR006``.

Each rule encodes an invariant that has been violated at least once
(and caught only at runtime or in review) or that the ROADMAP's
multi-worker serving direction multiplies the blast radius of.  The
class registries below (:data:`FROZEN_CLASSES`,
:data:`WORKER_SPEC_CLASSES`) are the linter's knowledge of which
classes carry which contract — extend them when a new engine or worker
spec joins the serving path.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (ModuleContext, Rule, Violation,
                                 register_rule)

#: Classes that must stay frozen after construction: instances are
#: shared across threads and forked worker processes, so any
#: post-``__init__`` ``self.<attr>`` rebind is the PR 4 shared-scratch
#: bug class.  Maps class name -> attributes deliberately left mutable
#: (``FoldInEngine.recorder`` is reset to the null recorder in forked
#: workers — the one documented exception).
FROZEN_CLASSES: dict[str, frozenset[str]] = {
    "FoldInEngine": frozenset({"recorder"}),
    "EngineSpec": frozenset(),
    "FoldInTable": frozenset(),
    "AliasMHTable": frozenset(),
    "_LockstepExact": frozenset(),
    "_LockstepSparse": frozenset(),
}

#: Classes pickled into worker processes (pool initializers, specs).
#: They must not carry attributes bound to OS resources — open file
#: handles, ``mmap`` objects, ``np.load(..., mmap_mode=...)`` maps —
#: unless they define ``__getstate__``/``__reduce__`` to strip them,
#: or the fork-shipping path breaks for every non-fork start method.
WORKER_SPEC_CLASSES: frozenset[str] = frozenset({
    "EngineSpec",
    "ShardedPhi",
})

#: The one module allowed to construct generators directly; everything
#: else routes through its helpers so streams stay chunked and
#: per-document (the PR 4/6 bit-identity foundation).
RNG_HELPER_MODULE = "repro/sampling/rng.py"

#: Legacy stateful ``np.random.<fn>`` module-level API (global hidden
#: stream — one call silently breaks every pinned-seed contract).
_NP_STATEFUL = frozenset({
    "seed", "random", "rand", "randn", "randint", "random_sample",
    "ranf", "sample", "choice", "shuffle", "permutation", "uniform",
    "normal", "standard_normal", "beta", "gamma", "binomial",
    "poisson", "exponential", "multinomial", "dirichlet", "bytes",
    "random_integers", "get_state", "set_state",
})

#: Recorder methods whose presence inside a sampling loop is the
#: telemetry-granularity violation (instrumentation is per batch/sweep,
#: never per draw).
_RECORDER_METHODS = frozenset({"count", "gauge", "observe", "span"})

#: Generator methods that advance an RNG cursor.
_RNG_METHODS = frozenset({
    "random", "integers", "uniform", "normal", "standard_normal",
    "choice", "shuffle", "permutation", "exponential", "beta",
    "gamma", "binomial", "poisson", "multinomial", "dirichlet",
    "bytes", "spawn",
})

_INIT_METHODS = ("__init__", "__post_init__", "__new__")


def _attr_chain(node: ast.AST) -> tuple[str, ...] | None:
    """``a.b.c`` as ``("a", "b", "c")``; ``None`` for non-name bases."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _walk_outside_functions(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node`` without descending into nested function scopes."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def _self_assignments(method: ast.AST) -> Iterator[tuple[ast.stmt, str]]:
    """``(statement, attr)`` for every ``self.<attr>`` (re)bind in a
    method body, including tuple unpacking and augmented assignment."""
    for node in ast.walk(method):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for element in ast.walk(target):
                if (isinstance(element, ast.Attribute)
                        and isinstance(element.value, ast.Name)
                        and element.value.id == "self"):
                    yield node, element.attr


@register_rule
class GlobalRngRule(Rule):
    """RPR001: all randomness flows through ``repro.sampling.rng``."""

    code = "RPR001"
    name = "global-rng-ban"
    rationale = ("hidden module-level RNG state breaks the chunked "
                 "per-document stream bit-identity contract")

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        in_helper = ctx.is_module(RNG_HELPER_MODULE)
        imported_random = False
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "random":
                        imported_random = True
                        yield self.violation(
                            ctx, node,
                            "stdlib `random` is a global hidden stream; "
                            "draw through repro.sampling.rng helpers")
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".")[0] == "random":
                    imported_random = True
                    yield self.violation(
                        ctx, node,
                        "stdlib `random` is a global hidden stream; "
                        "draw through repro.sampling.rng helpers")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if chain is None:
                continue
            if (len(chain) == 3 and chain[0] in ("np", "numpy")
                    and chain[1] == "random"):
                fn = chain[2]
                if fn in _NP_STATEFUL:
                    yield self.violation(
                        ctx, node,
                        f"np.random.{fn} uses numpy's global stream; "
                        "take an explicit Generator (ensure_rng / "
                        "document_rng)")
                elif fn == "default_rng" and not in_helper:
                    yield self.violation(
                        ctx, node, self._default_rng_message(node))
            elif (chain == ("default_rng",) and not in_helper):
                yield self.violation(
                    ctx, node, self._default_rng_message(node))
            elif (len(chain) == 2 and chain[0] == "random"
                    and imported_random):
                yield self.violation(
                    ctx, node,
                    f"random.{chain[1]} draws from the stdlib global "
                    "stream; draw through repro.sampling.rng helpers")

    @staticmethod
    def _default_rng_message(node: ast.Call) -> str:
        if not node.args and not node.keywords:
            return ("seedless default_rng() is non-deterministic; "
                    "route through repro.sampling.rng.ensure_rng")
        return ("construct generators through repro.sampling.rng "
                "(ensure_rng / document_rng), not default_rng directly, "
                "so streams stay chunked and per-document")


@register_rule
class WarningStacklevelRule(Rule):
    """RPR002: every ``warnings.warn`` names its caller explicitly."""

    code = "RPR002"
    name = "warning-discipline"
    rationale = ("a warning without stacklevel points at library "
                 "internals instead of the operator's call site")

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        bare_warn = any(
            isinstance(node, ast.ImportFrom) and node.module == "warnings"
            and any(alias.name == "warn" for alias in node.names)
            for node in ast.walk(ctx.tree))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if chain == ("warnings", "warn") or \
                    (bare_warn and chain == ("warn",)):
                has_stacklevel = any(
                    keyword.arg == "stacklevel" or keyword.arg is None
                    for keyword in node.keywords)
                if not has_stacklevel:
                    yield self.violation(
                        ctx, node,
                        "warnings.warn without an explicit stacklevel=; "
                        "point the warning at the caller's line")


@register_rule
class FrozenEngineMutationRule(Rule):
    """RPR003: frozen serving classes never rebind state post-init."""

    code = "RPR003"
    name = "frozen-engine-mutation"
    rationale = ("engines and kernel tables are shared across threads "
                 "and forked workers; post-init mutation is the PR 4 "
                 "shared-scratch reentrancy bug class")

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.ClassDef)
                    and node.name in FROZEN_CLASSES):
                continue
            allowed = FROZEN_CLASSES[node.name]
            for method in node.body:
                if not isinstance(method, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                    continue
                if method.name in _INIT_METHODS:
                    continue
                for statement, attr in _self_assignments(method):
                    if attr in allowed:
                        continue
                    yield self.violation(
                        ctx, statement,
                        f"{node.name} is frozen after __init__ but "
                        f"{method.name} assigns self.{attr}; move the "
                        "state into per-caller scratch")


@register_rule
class TelemetryPurityRule(Rule):
    """RPR005: telemetry defaults to the null recorder and never rides
    inside an RNG-advancing loop."""

    code = "RPR005"
    name = "telemetry-purity"
    rationale = ("recording must be optional (None -> NULL_RECORDER "
                 "via ensure_recorder) and per-batch, never per-draw — "
                 "the bit-identity and <= 5% overhead contracts")

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_signature(ctx, node)
            elif isinstance(node, (ast.For, ast.While)):
                yield from self._check_loop(ctx, node)

    # -------------------------------------------------- recorder params
    def _check_signature(self, ctx: ModuleContext,
                         node: ast.FunctionDef) -> Iterator[Violation]:
        default = self._recorder_default(node.args)
        if default is None:
            return
        if not self._is_null_default(default):
            yield self.violation(
                ctx, default,
                f"{node.name}: recorder= must default to None or "
                "NULL_RECORDER so instrumentation stays opt-in")
        if self._is_stub(node):
            return
        if not self._routes_recorder(node):
            yield self.violation(
                ctx, node,
                f"{node.name}: recorder parameter is neither coerced "
                "via ensure_recorder nor forwarded to one that does")

    @staticmethod
    def _recorder_default(args: ast.arguments) -> ast.expr | None:
        positional = list(args.posonlyargs) + list(args.args)
        defaults = list(args.defaults)
        for arg, default in zip(reversed(positional),
                                reversed(defaults)):
            if arg.arg == "recorder":
                return default
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if arg.arg == "recorder" and default is not None:
                return default
        return None

    @staticmethod
    def _is_null_default(default: ast.expr) -> bool:
        if isinstance(default, ast.Constant) and default.value is None:
            return True
        chain = _attr_chain(default)
        return chain is not None and chain[-1] == "NULL_RECORDER"

    @staticmethod
    def _is_stub(node: ast.FunctionDef) -> bool:
        body = node.body
        if body and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        return all(isinstance(statement, (ast.Pass, ast.Raise))
                   or (isinstance(statement, ast.Expr)
                       and isinstance(statement.value, ast.Constant))
                   for statement in body) or not body

    @staticmethod
    def _routes_recorder(node: ast.FunctionDef) -> bool:
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            chain = _attr_chain(sub.func)
            if chain is not None and chain[-1] == "ensure_recorder":
                return True
            forwarded = any(isinstance(arg, ast.Name)
                            and arg.id == "recorder"
                            for arg in sub.args)
            forwarded = forwarded or any(
                isinstance(keyword.value, ast.Name)
                and keyword.value.id == "recorder"
                for keyword in sub.keywords)
            if forwarded:
                return True
        return False

    # ----------------------------------------------------- loop purity
    def _check_loop(self, ctx: ModuleContext,
                    loop: ast.For | ast.While) -> Iterator[Violation]:
        body = loop.body + loop.orelse
        recorder_calls: list[ast.Call] = []
        advances_rng = False
        for node in body:
            for sub in self._walk_statement(node):
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                if not isinstance(func, ast.Attribute):
                    continue
                base = _attr_chain(func.value)
                if base is None:
                    continue
                if (func.attr in _RECORDER_METHODS
                        and base[-1] == "recorder"):
                    recorder_calls.append(sub)
                elif (func.attr in _RNG_METHODS
                        and (base[-1] == "rng"
                             or base[-1].endswith("_rng"))):
                    advances_rng = True
        if advances_rng:
            for call in recorder_calls:
                yield self.violation(
                    ctx, call,
                    "recorder call inside a loop that advances an RNG "
                    "stream; hoist instrumentation out of the sampling "
                    "loop (record per batch/sweep)")

    @staticmethod
    def _walk_statement(node: ast.AST) -> Iterator[ast.AST]:
        yield node
        # A nested def/lambda is its own timing domain: an rng advance
        # inside it does not pair with recorder calls in this loop.
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            yield from _walk_outside_functions(node)


@register_rule
class ForkShippingRule(Rule):
    """RPR006: worker-spec classes never pickle OS resources."""

    code = "RPR006"
    name = "fork-shipping-safety"
    rationale = ("specs cross the process boundary; an attribute bound "
                 "to an open file / mmap breaks every non-fork start "
                 "method unless __getstate__ strips it")

    _PICKLE_HOOKS = frozenset({"__getstate__", "__reduce__",
                               "__reduce_ex__"})

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.ClassDef)
                    and node.name in WORKER_SPEC_CLASSES):
                continue
            if any(isinstance(method, (ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                   and method.name in self._PICKLE_HOOKS
                   for method in node.body):
                continue
            for method in node.body:
                if not isinstance(method, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                    continue
                for statement, attr in _self_assignments(method):
                    resource = self._resource_call(statement)
                    if resource is None:
                        continue
                    yield self.violation(
                        ctx, statement,
                        f"{node.name}.{attr} is assigned from "
                        f"{resource} but {node.name} defines no "
                        "__getstate__; the spec cannot cross a "
                        "non-fork process boundary")

    @staticmethod
    def _resource_call(statement: ast.stmt) -> str | None:
        for sub in ast.walk(statement):
            if not isinstance(sub, ast.Call):
                continue
            chain = _attr_chain(sub.func)
            if chain is None:
                continue
            if chain == ("open",):
                return "open(...)"
            if chain[0] == "mmap":
                return f"{'.'.join(chain)}(...)"
            if (len(chain) == 2 and chain[0] in ("np", "numpy")
                    and chain[1] == "load"):
                mmap_kw = next(
                    (keyword for keyword in sub.keywords
                     if keyword.arg == "mmap_mode"), None)
                if mmap_kw is not None and not (
                        isinstance(mmap_kw.value, ast.Constant)
                        and mmap_kw.value.value is None):
                    return "np.load(..., mmap_mode=...)"
        return None
