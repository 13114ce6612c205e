"""The simlint rule set (SIM001..SIM009).

Each rule targets a concrete way a change can silently break the
simulator's determinism or its virtual-time model.  SIM005
(``discarded-handle``) is retired with the engine's cancellable
handles; its id stays unused.

========  ======================  ==============================================
id        name                    hazard
========  ======================  ==============================================
SIM001    no-stdlib-random        unseeded stdlib RNG bypasses the stream
                                  registry in :mod:`repro.core.rng`
SIM002    no-wallclock            wall-clock reads leak host time into a
                                  virtual-time system
SIM003    ordered-iteration       iterating a set (or bare dict view) on a
                                  scheduling path makes event order depend on
                                  hash seeds / insertion history
SIM004    no-unpicklable-runspec  lambdas in ``RunSpec``/``Parameter`` break
                                  the process-pool sweep executor
SIM006    no-mutable-module-state module-level mutable containers persist
                                  across Simulations in one process
SIM007    no-float-time-literal   float delays break the integer-nanosecond
                                  virtual clock
SIM008    no-environ-in-sim       environment reads make runs machine-dependent
SIM009    no-id-ordering          ``id()``/``hash()`` as ordering keys vary
                                  between processes
========  ======================  ==============================================

Rules here are intentionally shallow: one ``ast`` pass, no type
inference beyond the same-file container-kind table in
:class:`repro.lint.framework.LintContext`.  False positives are handled
with a ``simlint: disable`` comment and a justification at the site.  The
cross-module dataflow rules (SIM010 and SIM012) live in
:mod:`repro.lint.rules_dataflow`; this module composes the registry.
"""

from __future__ import annotations

import ast
from types import MappingProxyType
from typing import Iterator, Optional

from repro.lint.framework import LintContext, Rule, Violation
from repro.lint.rules_dataflow import PROJECT_RULES

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _call_name(node: ast.Call) -> Optional[str]:
    """The trailing name of the called object: ``a.b.c()`` -> ``c``."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _dotted(node: ast.expr) -> Optional[str]:
    """``time.monotonic`` -> ``"time.monotonic"``; None when not a plain
    name/attribute chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# ---------------------------------------------------------------------------
# SIM001
# ---------------------------------------------------------------------------

class NoStdlibRandom(Rule):
    id = "SIM001"
    name = "no-stdlib-random"
    description = (
        "import of the stdlib `random` module (or numpy.random); use a named "
        "stream from repro.core.rng so draws are seeded and reproducible"
    )

    def check(self, context: LintContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root == "random" or alias.name == "numpy.random":
                        yield self.violation(
                            context,
                            node,
                            f"import of {alias.name!r}: draw from a named "
                            "RandomSource stream instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module == "random" or module.startswith("random.") or module == "numpy.random":
                    yield self.violation(
                        context,
                        node,
                        f"import from {module!r}: draw from a named "
                        "RandomSource stream instead",
                    )


# ---------------------------------------------------------------------------
# SIM002
# ---------------------------------------------------------------------------

_WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.localtime",
        "time.gmtime",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
        "date.today",
    }
)

_WALLCLOCK_BARE = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    }
)


class NoWallclock(Rule):
    id = "SIM002"
    name = "no-wallclock"
    description = (
        "wall-clock read (time.time, datetime.now, ...); the simulator runs "
        "in virtual time -- use sim.now"
    )

    def check(self, context: LintContext) -> Iterator[Violation]:
        wallclock_imports: set[str] = set()
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in _WALLCLOCK_BARE:
                        wallclock_imports.add(alias.asname or alias.name)
                        yield self.violation(
                            context,
                            node,
                            f"importing time.{alias.name}: virtual-time code "
                            "must use sim.now",
                        )
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted in _WALLCLOCK_CALLS:
                yield self.violation(
                    context, node, f"call to {dotted}(): use sim.now (virtual time)"
                )
            elif isinstance(node.func, ast.Name) and node.func.id in wallclock_imports:
                yield self.violation(
                    context,
                    node,
                    f"call to {node.func.id}(): use sim.now (virtual time)",
                )


# ---------------------------------------------------------------------------
# SIM003
# ---------------------------------------------------------------------------

#: Direct wrappers whose argument order still reaches the loop body.
_ORDER_PRESERVING = frozenset({"enumerate", "reversed", "list", "tuple", "iter"})
#: Reducers whose result does not depend on iteration order.
_ORDER_INSENSITIVE = frozenset(
    {"any", "all", "sum", "min", "max", "len", "sorted", "set", "frozenset", "dict", "Counter"}
)
_DICT_VIEWS = frozenset({"keys", "values", "items"})


class OrderedIteration(Rule):
    id = "SIM003"
    name = "ordered-iteration"
    description = (
        "iteration over a set or dict on a scheduling path; wrap in sorted() "
        "or justify with a suppression (dict insertion order must be argued)"
    )

    def _classify(self, context: LintContext, expr: ast.expr) -> Optional[str]:
        """Return a description of the unordered iterable, or None if safe."""
        # Unwrap order-preserving wrappers; sorted() anywhere makes it safe.
        while isinstance(expr, ast.Call):
            name = _call_name(expr)
            if name == "sorted":
                return None
            if name in _ORDER_PRESERVING and expr.args:
                expr = expr.args[0]
                continue
            break
        if isinstance(expr, ast.Call):
            name = _call_name(expr)
            if name in ("set", "frozenset"):
                return "a set built in place"
            if (
                name in _DICT_VIEWS
                and isinstance(expr.func, ast.Attribute)
                and not expr.args
            ):
                base_kind = context.container_kind(expr.func.value)
                if base_kind == "set":
                    return "a set"  # pragma: no cover - sets have no views
                return f"a dict .{name}() view"
            return None
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return "a set literal"
        kind = context.container_kind(expr)
        if kind == "set":
            return "a set"
        if kind == "dict":
            return "a dict"
        return None

    def _in_order_insensitive_reducer(
        self, context: LintContext, comp: ast.AST
    ) -> bool:
        parent = context.parent(comp)
        return (
            isinstance(parent, ast.Call)
            and _call_name(parent) in _ORDER_INSENSITIVE
            and comp in parent.args
        )

    def _materialization_is_covered(
        self, context: LintContext, node: ast.Call
    ) -> bool:
        """Whether a ``list()``/``tuple()`` materialization is either safe
        (feeding an order-insensitive reducer / ``sorted()``) or already
        flagged by the for-loop/comprehension branches."""
        current: ast.AST = node
        while True:
            parent = context.parent(current)
            if isinstance(parent, ast.Call):
                name = _call_name(parent)
                if name == "sorted" or name in _ORDER_INSENSITIVE:
                    return True
                if name in _ORDER_PRESERVING:
                    current = parent
                    continue
                return False
            if isinstance(parent, (ast.For, ast.AsyncFor)) and parent.iter is current:
                return True  # the for-loop branch flags this site
            if isinstance(parent, ast.comprehension) and parent.iter is current:
                return True  # the comprehension branch flags this site
            return False

    def check(self, context: LintContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                described = self._classify(context, node.iter)
                if described is not None:
                    yield self.violation(
                        context,
                        node,
                        f"for-loop iterates {described}; event order must not "
                        "depend on hash/insertion order -- wrap in sorted()",
                    )
            elif isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.DictComp)):
                # ast.SetComp is deliberately absent: the comprehension's
                # own result is a set, so its iteration order cannot leak.
                if self._in_order_insensitive_reducer(context, node):
                    continue
                for generator in node.generators:
                    described = self._classify(context, generator.iter)
                    if described is not None:
                        yield self.violation(
                            context,
                            node,
                            f"comprehension iterates {described}; wrap in "
                            "sorted() (or reduce with an order-insensitive "
                            "builtin)",
                        )
            elif isinstance(node, ast.Call) and _call_name(node) in ("list", "tuple"):
                # Standalone materialization: ``pending = list(d.keys())``
                # freezes hash/insertion order into a sequence whose order
                # then leaks wherever the list goes.
                if not node.args:
                    continue
                described = self._classify(context, node)
                if described is None:
                    continue
                if self._materialization_is_covered(context, node):
                    continue
                yield self.violation(
                    context,
                    node,
                    f"{_call_name(node)}() materializes {described} into an "
                    "ordered sequence; wrap the iterable in sorted() so the "
                    "order is deterministic",
                )


# ---------------------------------------------------------------------------
# SIM004
# ---------------------------------------------------------------------------

_SPEC_CONSTRUCTORS = frozenset({"RunSpec", "Parameter"})


class NoUnpicklableRunspec(Rule):
    id = "SIM004"
    name = "no-unpicklable-runspec"
    description = (
        "lambda passed to RunSpec/Parameter; sweep workers pickle specs, so "
        "use a module-level function"
    )

    def check(self, context: LintContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if not (isinstance(node, ast.Call) and _call_name(node) in _SPEC_CONSTRUCTORS):
                continue
            ctor = _call_name(node)
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(arg, ast.Lambda):
                    yield self.violation(
                        context,
                        arg,
                        f"lambda passed to {ctor}(): process-pool sweeps "
                        "pickle the spec -- use a module-level function",
                    )


# ---------------------------------------------------------------------------
# SIM006
# ---------------------------------------------------------------------------

_MUTABLE_FACTORIES = frozenset({"list", "dict", "set", "defaultdict", "deque", "count", "OrderedDict", "Counter"})


class NoMutableModuleState(Rule):
    id = "SIM006"
    name = "no-mutable-module-state"
    description = (
        "module-level mutable container; state that survives across "
        "Simulation instances breaks run isolation -- use a tuple/"
        "MappingProxyType or move it onto an object"
    )

    def _is_mutable_value(self, value: ast.expr) -> Optional[str]:
        if isinstance(value, (ast.List, ast.ListComp)):
            return "list"
        if isinstance(value, (ast.Dict, ast.DictComp)):
            return "dict"
        if isinstance(value, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(value, ast.Call):
            name = _call_name(value)
            if name in _MUTABLE_FACTORIES:
                return name
        return None

    def check(self, context: LintContext) -> Iterator[Violation]:
        for stmt in context.tree.body:
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            # Dunders (__all__ and friends) are interpreter protocol, not state.
            names = [n for n in names if not (n.startswith("__") and n.endswith("__"))]
            if not names:
                continue
            kind = self._is_mutable_value(value)
            if kind is None:
                continue
            yield self.violation(
                context,
                stmt,
                f"module-level {kind} {', '.join(names)!s} is mutable shared "
                "state; use a tuple/frozenset/MappingProxyType or move it "
                "into a class",
            )


# ---------------------------------------------------------------------------
# SIM007
# ---------------------------------------------------------------------------

#: ``schedule`` is ``ThreadContext.schedule``, which posts to the engine.
_TIME_ARG_CALLS = frozenset({"schedule", "post", "post_at"})


class NoFloatTimeLiteral(Rule):
    id = "SIM007"
    name = "no-float-time-literal"
    description = (
        "float literal passed as a delay/deadline to the event engine; the "
        "virtual clock is integer nanoseconds -- use repro.core.units"
    )

    def _is_float_literal(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, (ast.USub, ast.UAdd)):
            expr = expr.operand
        return isinstance(expr, ast.Constant) and isinstance(expr.value, float)

    def check(self, context: LintContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if not (isinstance(node, ast.Call) and _call_name(node) in _TIME_ARG_CALLS):
                continue
            if not node.args:
                continue
            first = node.args[0]
            if self._is_float_literal(first):
                yield self.violation(
                    context,
                    first,
                    f"float time literal in {_call_name(node)}(); the clock "
                    "is integer ns -- write units.microseconds(...) or an "
                    "int literal",
                )


# ---------------------------------------------------------------------------
# SIM008
# ---------------------------------------------------------------------------

class NoEnvironInSim(Rule):
    id = "SIM008"
    name = "no-environ-in-sim"
    description = (
        "environment variable read inside the simulator; config must flow "
        "through SimulationConfig so runs are machine-independent"
    )

    def check(self, context: LintContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            dotted = _dotted(node) if isinstance(node, (ast.Attribute, ast.Name)) else None
            if dotted == "os.environ":
                # Only flag the outermost Attribute, not its Name child.
                parent = context.parent(node)
                if isinstance(parent, ast.Attribute) and _dotted(parent) == "os.environ":
                    continue
                yield self.violation(
                    context, node, "os.environ access: route through SimulationConfig"
                )
            elif isinstance(node, ast.Call):
                name = _dotted(node.func)
                if name in ("os.getenv", "getenv"):
                    yield self.violation(
                        context, node, f"{name}() read: route through SimulationConfig"
                    )


# ---------------------------------------------------------------------------
# SIM009
# ---------------------------------------------------------------------------

_SORTING_CALLS = frozenset({"sorted", "min", "max"})
_UNSTABLE_KEYS = frozenset({"id", "hash"})


class NoIdOrdering(Rule):
    id = "SIM009"
    name = "no-id-ordering"
    description = (
        "id()/hash() used as an ordering key; object addresses and hash "
        "seeds vary between processes -- order by a stable field"
    )

    def check(self, context: LintContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if not (isinstance(node, ast.Call) and _call_name(node) in _SORTING_CALLS):
                continue
            for keyword in node.keywords:
                if keyword.arg != "key":
                    continue
                value = keyword.value
                # key=id / key=hash directly
                if isinstance(value, ast.Name) and value.id in _UNSTABLE_KEYS:
                    yield self.violation(
                        context,
                        value,
                        f"{_call_name(node)}(key={value.id}) orders by "
                        "process-specific values; use a stable field",
                    )
                    continue
                # key=lambda x: id(x) or any id()/hash() call inside the key
                for inner in ast.walk(value):
                    if (
                        isinstance(inner, ast.Call)
                        and isinstance(inner.func, ast.Name)
                        and inner.func.id in _UNSTABLE_KEYS
                    ):
                        yield self.violation(
                            context,
                            inner,
                            f"{inner.func.id}() inside a sort key is process-"
                            "specific; use a stable field",
                        )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

ALL_RULES: tuple[Rule, ...] = (
    NoStdlibRandom(),
    NoWallclock(),
    OrderedIteration(),
    NoUnpicklableRunspec(),
    NoMutableModuleState(),
    NoFloatTimeLiteral(),
    NoEnvironInSim(),
    NoIdOrdering(),
) + PROJECT_RULES

_RULES_BY_ID = MappingProxyType({rule.id: rule for rule in ALL_RULES})


def rule_by_id(rule_id: str) -> Rule:
    try:
        return _RULES_BY_ID[rule_id]
    except KeyError:
        raise KeyError(
            f"unknown rule {rule_id!r}; known: {', '.join(sorted(_RULES_BY_ID))}"
        ) from None
