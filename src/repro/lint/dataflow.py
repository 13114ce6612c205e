"""Intraprocedural def-use propagation and interprocedural summaries.

This is the engine behind SIM010 and SIM012.  For every function in
the project it runs a single flow-ordered pass over the body, tracking
an abstract :class:`Value` per local name:

* the *address domain* (``Lpn``/``Ppn``/``Pbn``/``LunIndex``) seeded
  from parameter/attribute annotations and propagated through
  assignments, calls and ``+``/``-`` arithmetic (``*``, ``//``, ``%``
  and unary minus deliberately kill the domain: they are how the
  simulator legitimately converts between spaces),
* the *class* of the object a name holds, resolved through the
  :class:`repro.lint.callgraph.Project` symbol table so attribute
  chains like ``self.controller.array.state`` type all the way down,
* *view taint*: whether the value aliases a live device-state buffer
  (a slice of a ``FlashState`` array, the result of ``block_words``
  on a state-owned bitmap, ...).

The pass emits a :class:`FunctionSummary` carrying the raw SIM010 and
SIM012 findings; :class:`ProjectAnalysis` runs the pass twice (the first
pass infers return domains of unannotated helpers, the second produces
final findings).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Union

from repro.lint.callgraph import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Project,
    Symbol,
    annotation_domain,
)
from repro.lint.domains import (
    ARRAY_ELEMENT_DOMAINS,
    ARRAY_INDEX_DOMAINS,
    ITER_ELEMENT_DOMAINS,
    MUTATING_ARRAY_METHODS,
    STATE_ARRAY_ATTRS,
    VIEW_RETURNING_METHODS,
    Domain,
)

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass(frozen=True)
class Value:
    """What the evaluator knows about one expression's result."""

    #: address domain of an int value, if known.
    domain: Optional[Domain] = None
    #: qualified name of the class this value is an instance of.
    cls: Optional[str] = None
    #: ``(class name, attr)`` when the value *is* a raw state array.
    array_of: Optional[tuple[str, str]] = None
    #: human-readable origin when the value is a live state view.
    view_origin: Optional[str] = None
    #: domain of the elements an iteration over this value yields.
    elem_domain: Optional[Domain] = None
    #: per-element domains when the value is a known tuple.
    domain_tuple: Optional[tuple[Optional[Domain], ...]] = None

    @property
    def is_state_buffer(self) -> bool:
        return self.array_of is not None or self.view_origin is not None

    def buffer_description(self) -> str:
        if self.array_of is not None:
            return f"{self.array_of[0]}.{self.array_of[1]}"
        return self.view_origin or "<buffer>"


_EMPTY = Value()


@dataclass
class Finding:
    """A raw rule hit, pre-Violation (the rule object adds id/name)."""

    path: str
    line: int
    col: int
    message: str


def _finding(path: str, node: ast.AST, message: str) -> Finding:
    return Finding(
        path=path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        message=message,
    )


@dataclass
class FunctionSummary:
    """Everything the project rules need to know about one function."""

    info: FunctionInfo
    domain_findings: list[Finding] = field(default_factory=list)
    view_findings: list[Finding] = field(default_factory=list)
    #: domains observed at ``return`` statements (None entries mean a
    #: return whose domain is unknown).
    return_domains: list[Optional[Domain]] = field(default_factory=list)

    def inferred_return_domain(self) -> Optional[Domain]:
        observed = {d for d in self.return_domains if d is not None}
        if len(observed) == 1 and all(
            d is not None for d in self.return_domains
        ):
            return next(iter(observed))
        return None


class _FunctionEvaluator:
    """One flow-ordered pass over a single function body."""

    def __init__(
        self, project: Project, module: ModuleInfo, info: FunctionInfo
    ) -> None:
        self.project = project
        self.module = module
        self.info = info
        self.summary = FunctionSummary(info=info)
        self.env: dict[str, Value] = {}
        self._seed_parameters()

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def _seed_parameters(self) -> None:
        args = self.info.node.args
        all_args = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        if args.vararg is not None:
            all_args.append(args.vararg)
        if args.kwarg is not None:
            all_args.append(args.kwarg)
        for index, arg in enumerate(all_args):
            value = Value(
                domain=self.info.param_domains.get(arg.arg),
                cls=self.info.param_classes.get(arg.arg),
            )
            if index == 0 and self.info.is_method and arg.arg in ("self", "cls"):
                owner = f"{self.info.module_name}.{self.info.class_name}"
                value = Value(cls=owner)
            self.env[arg.arg] = value

    def run(self) -> FunctionSummary:
        for stmt in self.info.node.body:
            self._exec(stmt)
        return self.summary

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _class_info(self, value: Value) -> Optional[ClassInfo]:
        if value.cls is None:
            return None
        return self.project.classes.get(value.cls)

    def _class_key(self, value: Value) -> Optional[str]:
        """The short class name used to key the domain tables."""
        if value.cls is None:
            return None
        info = self.project.classes.get(value.cls)
        if info is not None:
            return info.name
        return value.cls.rsplit(".", 1)[-1]

    def _report_domain(self, node: ast.AST, message: str) -> None:
        self.summary.domain_findings.append(
            _finding(self.info.path, node, message)
        )

    def _report_view(self, node: ast.AST, message: str) -> None:
        self.summary.view_findings.append(_finding(self.info.path, node, message))

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, value, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            value = self._eval(stmt.value) if stmt.value is not None else _EMPTY
            declared = annotation_domain(stmt.annotation)
            if (
                declared is not None
                and value.domain is not None
                and value.domain != declared
            ):
                self._report_domain(
                    stmt,
                    f"value in the {value.domain} domain assigned to a name "
                    f"annotated {declared}",
                )
            if declared is not None:
                value = replace(value, domain=declared)
            self._bind(stmt.target, value, stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            value = self._eval(stmt.value)
            self._bind_aug(stmt, value)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value = self._eval(stmt.value)
                if not (
                    isinstance(stmt.value, ast.Constant)
                    and stmt.value.value is None
                ):
                    self.summary.return_domains.append(value.domain)
                declared = self.info.return_domain
                if (
                    declared is not None
                    and value.domain is not None
                    and value.domain != declared
                ):
                    self._report_domain(
                        stmt,
                        f"returns a {value.domain}-domain value from a "
                        f"function annotated to return {declared}",
                    )
        elif isinstance(stmt, (ast.If, ast.While)):
            self._eval(stmt.test)
            for sub in stmt.body:
                self._exec(sub)
            for sub in stmt.orelse:
                self._exec(sub)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iterable = self._eval(stmt.iter)
            self._bind(stmt.target, Value(domain=iterable.elem_domain), None)
            for sub in stmt.body:
                self._exec(sub)
            for sub in stmt.orelse:
                self._exec(sub)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                value = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, value, item.context_expr)
            for sub in stmt.body:
                self._exec(sub)
        elif isinstance(stmt, ast.Try):
            for sub in stmt.body:
                self._exec(sub)
            for handler in stmt.handlers:
                if handler.name is not None:
                    self.env[handler.name] = _EMPTY
                for sub in handler.body:
                    self._exec(sub)
            for sub in stmt.orelse:
                self._exec(sub)
            for sub in stmt.finalbody:
                self._exec(sub)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs (closures used as continuations) are analysed
            # inline: their effects belong to the enclosing function.
            self._exec_nested(stmt)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test)
            if stmt.msg is not None:
                self._eval(stmt.msg)
        # Pass/Break/Continue/Import/Global/Nonlocal/Delete/ClassDef:
        # nothing to track.

    def _exec_nested(self, node: _FunctionNode) -> None:
        saved_env = dict(self.env)
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs:
            domain = annotation_domain(arg.annotation)
            self.env[arg.arg] = Value(domain=domain)
        for stmt in node.body:
            self._exec(stmt)
        self.env = saved_env
        # The nested function itself becomes referenceable by name.
        self.env[node.name] = _EMPTY

    # ------------------------------------------------------------------
    # stores
    # ------------------------------------------------------------------
    def _bind(
        self, target: ast.expr, value: Value, source: Optional[ast.expr]
    ) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            domains = value.domain_tuple
            for index, element in enumerate(target.elts):
                if domains is not None and index < len(domains):
                    self._bind(element, Value(domain=domains[index]), None)
                else:
                    self._bind(element, _EMPTY, None)
        elif isinstance(target, ast.Attribute):
            obj = self._eval(target.value)
            cls = self._class_info(obj)
            if cls is not None:
                declared = self.project.attr_domain_of(cls, target.attr)
                if (
                    declared is not None
                    and value.domain is not None
                    and value.domain != declared
                ):
                    self._report_domain(
                        target,
                        f"value in the {value.domain} domain stored in "
                        f"attribute {cls.name}.{target.attr} annotated "
                        f"{declared}",
                    )
        elif isinstance(target, ast.Subscript):
            self._store_subscript(target, value)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, _EMPTY, None)

    def _owns_buffer(self, obj: Value) -> bool:
        """True when the current function is a method of the class that
        owns the buffer -- the mutator API itself lives there and must
        be allowed to write."""
        owner = self.info.class_name
        if not owner:
            return False
        if obj.array_of is not None:
            return obj.array_of[0] == owner
        if obj.view_origin is not None:
            return obj.view_origin.split(".", 1)[0] == owner
        return False

    def _store_subscript(self, target: ast.Subscript, value: Value) -> None:
        obj = self._eval(target.value)
        self._check_index(target, obj, target.slice)
        self._eval(target.slice)
        if self._owns_buffer(obj):
            pass
        elif obj.array_of is not None:
            self._report_view(
                target,
                f"in-place write to state array {obj.buffer_description()}; "
                "go through the owning class's mutator API",
            )
        elif obj.view_origin is not None:
            self._report_view(
                target,
                f"write through a live view of {obj.view_origin}; views "
                "returned by state accessors are read-only by convention -- "
                "use the mutator API",
            )

    def _bind_aug(self, stmt: ast.AugAssign, value: Value) -> None:
        target = stmt.target
        if isinstance(target, ast.Name):
            self.env.setdefault(target.id, _EMPTY)
        elif isinstance(target, ast.Subscript):
            self._store_subscript(target, value)
        elif isinstance(target, ast.Attribute):
            self._eval(target.value)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def _eval(self, node: Optional[ast.expr]) -> Value:
        if node is None:
            return _EMPTY
        if isinstance(node, ast.Name):
            return self.env.get(node.id, _EMPTY)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node)
        if isinstance(node, ast.UnaryOp):
            self._eval(node.operand)
            return _EMPTY
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            body = self._eval(node.body)
            orelse = self._eval(node.orelse)
            if body.domain is not None and body.domain == orelse.domain:
                return Value(domain=body.domain)
            return _EMPTY
        if isinstance(node, ast.Tuple):
            values = [self._eval(element) for element in node.elts]
            return Value(domain_tuple=tuple(v.domain for v in values))
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            self._eval_comprehension(node.generators)
            self._eval(node.elt)
            return _EMPTY
        if isinstance(node, ast.DictComp):
            self._eval_comprehension(node.generators)
            self._eval(node.key)
            self._eval(node.value)
            return _EMPTY
        if isinstance(node, ast.Lambda):
            self._eval_lambda(node)
            return _EMPTY
        if isinstance(node, ast.NamedExpr):
            value = self._eval(node.value)
            self._bind(node.target, value, node.value)
            return value
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        # Constants, f-strings, bool ops, comparisons, containers: walk
        # children so nested calls are still recorded, carry no value.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._eval(child)
        return _EMPTY

    def _eval_comprehension(self, generators: list[ast.comprehension]) -> None:
        for generator in generators:
            iterable = self._eval(generator.iter)
            self._bind(generator.target, Value(domain=iterable.elem_domain), None)
            for condition in generator.ifs:
                self._eval(condition)

    def _eval_lambda(self, node: ast.Lambda) -> None:
        """Evaluate a lambda body inline, its parameters unknown."""
        saved_env = dict(self.env)
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs:
            self.env[arg.arg] = _EMPTY
        self._eval(node.body)
        self.env = saved_env

    def _eval_attribute(self, node: ast.Attribute) -> Value:
        obj = self._eval(node.value)
        cls = self._class_info(obj)
        key = self._class_key(obj)
        if key is not None and node.attr in STATE_ARRAY_ATTRS.get(key, frozenset()):
            return Value(array_of=(key, node.attr))
        if cls is not None:
            domain = self.project.attr_domain_of(cls, node.attr)
            attr_cls = self.project.attr_class_of(cls, node.attr)
            if domain is not None or attr_cls is not None:
                return Value(
                    domain=domain,
                    cls=attr_cls.qualname if attr_cls is not None else None,
                )
        if obj.is_state_buffer and node.attr == "T":
            return replace(obj, array_of=None, view_origin=obj.buffer_description())
        return _EMPTY

    def _check_index(
        self, node: ast.AST, obj: Value, index: ast.expr
    ) -> None:
        if obj.array_of is None:
            return
        class_key, attr = obj.array_of
        expected = ARRAY_INDEX_DOMAINS.get(class_key, {}).get(attr)
        if expected is None:
            return
        if isinstance(index, (ast.Slice, ast.Tuple)):
            return
        found = self._eval(index)
        if found.domain is not None and found.domain != expected:
            self._report_domain(
                node,
                f"{class_key}.{attr} is indexed by {expected} but the index "
                f"expression is in the {found.domain} domain",
            )

    def _eval_subscript(self, node: ast.Subscript) -> Value:
        obj = self._eval(node.value)
        self._check_index(node, obj, node.slice)
        if not isinstance(node.slice, (ast.Slice, ast.Tuple)):
            self._eval(node.slice)
        if obj.array_of is not None:
            class_key, attr = obj.array_of
            if isinstance(node.slice, ast.Slice) or (
                isinstance(node.slice, ast.Tuple)
                and any(isinstance(e, ast.Slice) for e in node.slice.elts)
            ):
                return Value(view_origin=f"{class_key}.{attr}")
            element = ARRAY_ELEMENT_DOMAINS.get(class_key, {}).get(attr)
            return Value(domain=element)
        if obj.view_origin is not None and isinstance(node.slice, ast.Slice):
            return obj
        return _EMPTY

    def _eval_binop(self, node: ast.BinOp) -> Value:
        left = self._eval(node.left)
        right = self._eval(node.right)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            if left.domain is not None and right.domain is None:
                return Value(domain=left.domain)
            if right.domain is not None and left.domain is None:
                return Value(domain=right.domain)
            if left.domain is not None and left.domain == right.domain:
                return Value(domain=left.domain)
        # Mult/FloorDiv/Mod/... legitimately convert between address
        # spaces (ppn = pbn * pages_per_block + page), so they erase it.
        return _EMPTY

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------
    def _eval_call(self, node: ast.Call) -> Value:
        func = node.func
        arg_values = [self._eval(arg) for arg in node.args]
        keyword_values = {
            kw.arg: self._eval(kw.value) for kw in node.keywords if kw.arg
        }
        for kw in node.keywords:
            if kw.arg is None:
                self._eval(kw.value)

        callee = self._resolve_callee(node, arg_values)
        if isinstance(callee, ClassInfo):
            init = self.project.method_of(callee, "__init__")
            if init is not None:
                self._check_call_domains(node, init, arg_values, keyword_values)
            return Value(cls=callee.qualname)
        if isinstance(callee, FunctionInfo):
            self._check_call_domains(node, callee, arg_values, keyword_values)
            return_cls = callee.return_class
            result = Value(
                domain=callee.effective_return_domain(),
                cls=return_cls,
                domain_tuple=callee.return_domain_tuple,
            )
            view_result = self._view_result(node, func, arg_values)
            if view_result is not None:
                return view_result
            iter_result = self._iter_result(func)
            if iter_result is not None:
                return iter_result
            return result

        builtin = self._eval_builtin_call(node, func, arg_values)
        if builtin is not None:
            return builtin
        view_result = self._view_result(node, func, arg_values)
        if view_result is not None:
            return view_result
        iter_result = self._iter_result(func)
        if iter_result is not None:
            return iter_result
        self._check_buffer_method(node, func)
        return _EMPTY

    def _resolve_callee(
        self, node: ast.Call, arg_values: list[Value]
    ) -> Optional[Symbol]:
        func = node.func
        resolved = self.project.resolve_call_target(self.module, func)
        if resolved is not None:
            # A plain name may be shadowed by a local.
            if isinstance(func, ast.Name) and func.id in self.env:
                return None
            return resolved
        if isinstance(func, ast.Attribute):
            obj = self._eval(func.value)
            cls = self._class_info(obj)
            if cls is not None:
                method = self.project.method_of(cls, func.attr)
                if method is not None:
                    return method
        return None

    def _check_call_domains(
        self,
        node: ast.Call,
        callee: FunctionInfo,
        arg_values: list[Value],
        keyword_values: dict[str, Value],
    ) -> None:
        params = callee.positional_params()
        for index, value in enumerate(arg_values):
            if index >= len(params):
                break
            expected = callee.param_domains.get(params[index])
            if (
                expected is not None
                and value.domain is not None
                and value.domain != expected
            ):
                self._report_domain(
                    node,
                    f"argument {index + 1} of {callee.name}() is declared "
                    f"{expected} but the value passed is in the "
                    f"{value.domain} domain",
                )
        for name, value in keyword_values.items():
            expected = callee.param_domains.get(name)
            if (
                expected is not None
                and value.domain is not None
                and value.domain != expected
            ):
                self._report_domain(
                    node,
                    f"keyword argument {name!r} of {callee.name}() is "
                    f"declared {expected} but the value passed is in the "
                    f"{value.domain} domain",
                )

    def _view_result(
        self, node: ast.Call, func: ast.expr, arg_values: list[Value]
    ) -> Optional[Value]:
        if not isinstance(func, ast.Attribute):
            return None
        obj = self._eval(func.value)
        key = self._class_key(obj)
        if key is None:
            return None
        mode = VIEW_RETURNING_METHODS.get(key, {}).get(func.attr)
        if mode is None:
            return None
        if mode == "receiver":
            return Value(view_origin=f"{key}.{func.attr}()")
        if mode == "argument" and arg_values:
            first = arg_values[0]
            if first.is_state_buffer:
                return Value(
                    view_origin=f"{key}.{func.attr}({first.buffer_description()})"
                )
        return _EMPTY

    def _iter_result(self, func: ast.expr) -> Optional[Value]:
        if not isinstance(func, ast.Attribute):
            return None
        obj = self._eval(func.value)
        key = self._class_key(obj)
        if key is None:
            return None
        domain = ITER_ELEMENT_DOMAINS.get(key, {}).get(func.attr)
        if domain is None:
            return None
        return Value(elem_domain=domain)

    def _eval_builtin_call(
        self, node: ast.Call, func: ast.expr, arg_values: list[Value]
    ) -> Optional[Value]:
        if not isinstance(func, ast.Name) or func.id in self.env:
            return None
        if func.id == "range" and arg_values:
            domains = {v.domain for v in arg_values[: min(len(arg_values), 2)]}
            if len(domains) == 1 and None not in domains:
                return Value(elem_domain=next(iter(domains)))
            return _EMPTY
        if func.id in ("sorted", "list", "tuple", "reversed") and arg_values:
            inner = arg_values[0]
            if inner.elem_domain is not None:
                return Value(elem_domain=inner.elem_domain)
            return _EMPTY
        return None

    def _check_buffer_method(self, node: ast.Call, func: ast.expr) -> None:
        if not isinstance(func, ast.Attribute):
            return
        obj = self._eval(func.value)
        if not obj.is_state_buffer or self._owns_buffer(obj):
            return
        if func.attr in MUTATING_ARRAY_METHODS:
            self._report_view(
                node,
                f".{func.attr}() mutates a live view of "
                f"{obj.buffer_description()} in place; use the mutator API",
            )


def evaluate_function(
    project: Project, module: ModuleInfo, info: FunctionInfo
) -> FunctionSummary:
    """Run the dataflow pass over one function."""
    return _FunctionEvaluator(project, module, info).run()


class ProjectAnalysis:
    """The two-pass whole-project analysis the SIM010 and SIM012 rules read."""

    def __init__(
        self, project: Project, summaries: dict[str, FunctionSummary]
    ) -> None:
        self.project = project
        self.summaries = summaries

    @classmethod
    def build(cls, entries: Iterable[tuple[str, ast.Module]]) -> "ProjectAnalysis":
        project = Project(entries)
        # Pass 1: infer return domains of unannotated helpers so pass 2
        # sees them at call sites (a one-step fixpoint is enough for the
        # accessor-wrapper chains in this codebase).
        for info in project.functions.values():
            module = project.modules.get(info.module_name)
            if module is None:
                continue
            summary = evaluate_function(project, module, info)
            if info.return_domain is None:
                info.inferred_return_domain = summary.inferred_return_domain()
        # Pass 2: final summaries with inferred domains visible.
        summaries: dict[str, FunctionSummary] = {}
        for qualname, info in project.functions.items():
            module = project.modules.get(info.module_name)
            if module is None:
                continue
            summaries[qualname] = evaluate_function(project, module, info)
        return cls(project, summaries)
