"""Project-wide symbol table for simlint.

The single-file rules (SIM001..SIM009) see one AST at a time.  The
dataflow rules (SIM010, SIM012) need to know, across module boundaries,
*what a name is*: which class a constructor call builds, which function
an attribute call dispatches to, which domain an annotated parameter
assigns.  This module builds that view:

* :class:`ModuleInfo` -- one parsed file: its import table (local alias
  -> dotted target), functions and classes.
* :class:`ClassInfo` -- methods, resolved base classes, and the
  *attribute type table* inferred from ``self.x = ClassName(...)``
  assignments and annotations (this is what lets the engine resolve
  ``self.controller.array.state`` to ``FlashState`` three modules away).
* :class:`FunctionInfo` -- the signature with parsed domain/class
  annotations (string annotations under ``from __future__ import
  annotations`` included).
* :class:`Project` -- the index over all of the above, plus name
  resolution and method lookup along base-class chains.

Calls on *objects* are resolved by the dataflow evaluator, which owns
the local environments needed to type call receivers.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Deque, Iterable, Optional, Union

from repro.lint.domains import Domain, domain_of_alias

#: Either kind of project symbol a dotted name can resolve to.
Symbol = Union["FunctionInfo", "ClassInfo"]


@dataclass
class FunctionInfo:
    """One module-level function or method."""

    qualname: str
    name: str
    module_name: str
    path: str
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    class_name: Optional[str] = None
    is_staticmethod: bool = False
    #: parameter name -> address domain, parsed from annotations.
    param_domains: dict[str, Domain] = field(default_factory=dict)
    #: parameter name -> qualified class name, parsed from annotations.
    param_classes: dict[str, str] = field(default_factory=dict)
    #: explicit return domain (``-> Ppn``), if annotated.
    return_domain: Optional[Domain] = None
    #: per-element domains of a ``tuple[...]`` return annotation.
    return_domain_tuple: Optional[tuple[Optional[Domain], ...]] = None
    #: qualified class name of the return annotation, if it names one.
    return_class: Optional[str] = None
    #: return domain inferred by the dataflow summary pass (used when no
    #: explicit annotation exists).
    inferred_return_domain: Optional[Domain] = None

    @property
    def is_method(self) -> bool:
        return self.class_name is not None and not self.is_staticmethod

    def positional_params(self) -> list[str]:
        """Positional parameter names, ``self``/``cls`` excluded for methods."""
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args]
        if self.is_method and names:
            names = names[1:]
        return names

    def effective_return_domain(self) -> Optional[Domain]:
        if self.return_domain is not None:
            return self.return_domain
        return self.inferred_return_domain


@dataclass
class ClassInfo:
    """One class definition with its inferred attribute types."""

    qualname: str
    name: str
    module_name: str
    path: str
    node: ast.ClassDef
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: base-class expressions, resolved lazily by :meth:`Project.bases_of`.
    base_names: list[ast.expr] = field(default_factory=list)
    #: ``self.attr`` -> qualified class name (from constructor
    #: assignments and annotations in any method).
    attr_classes: dict[str, str] = field(default_factory=dict)
    #: ``self.attr`` -> address domain (from annotations).
    attr_domains: dict[str, Domain] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed source file."""

    name: str
    path: str
    tree: ast.Module
    #: local alias -> dotted import target ("MappingTable" ->
    #: "repro.hardware.state.MappingTable", "np" -> "numpy").
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)


def module_name_for_path(path: str) -> str:
    """Dotted module name for a source path.

    Paths under a ``src/`` root map to their package name
    (``src/repro/core/engine.py`` -> ``repro.core.engine``); anything
    else falls back to the file stem, which keeps fixture files in
    temporary directories addressable.
    """
    normalised = path.replace("\\", "/")
    marker = "/src/"
    if normalised.startswith("src/"):
        tail = normalised[len("src/"):]
    elif marker in normalised:
        tail = normalised.rsplit(marker, 1)[1]
    else:
        tail = normalised.rsplit("/", 1)[-1]
    if tail.endswith(".py"):
        tail = tail[: -len(".py")]
    dotted = tail.replace("/", ".")
    if dotted.endswith(".__init__"):
        dotted = dotted[: -len(".__init__")]
    return dotted


def _annotation_tree(annotation: ast.expr) -> Optional[ast.expr]:
    """Resolve a string annotation (``"SsdController"``) to its AST."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            parsed = ast.parse(annotation.value, mode="eval")
        except SyntaxError:
            return None
        return parsed.body
    return annotation


def _unwrap_optional(annotation: ast.expr) -> ast.expr:
    """``Optional[X]`` -> ``X``; leaves other annotations untouched."""
    if isinstance(annotation, ast.Subscript):
        head = annotation.value
        head_name = head.attr if isinstance(head, ast.Attribute) else getattr(head, "id", None)
        if head_name == "Optional":
            return annotation.slice
    return annotation


def annotation_domain(annotation: Optional[ast.expr]) -> Optional[Domain]:
    """The address domain an annotation names, if any (handles string
    annotations and ``Optional[...]`` wrapping)."""
    if annotation is None:
        return None
    tree = _annotation_tree(annotation)
    if tree is None:
        return None
    tree = _unwrap_optional(tree)
    if isinstance(tree, ast.Name):
        return domain_of_alias(tree.id)
    if isinstance(tree, ast.Attribute):
        return domain_of_alias(tree.attr)
    return None


def annotation_domain_tuple(
    annotation: Optional[ast.expr],
) -> Optional[tuple[Optional[Domain], ...]]:
    """Per-element domains of a ``tuple[A, B]`` annotation, or None."""
    if annotation is None:
        return None
    tree = _annotation_tree(annotation)
    if tree is None:
        return None
    tree = _unwrap_optional(tree)
    if not isinstance(tree, ast.Subscript):
        return None
    head = tree.value
    head_name = head.attr if isinstance(head, ast.Attribute) else getattr(head, "id", None)
    if head_name not in ("tuple", "Tuple"):
        return None
    slice_node = tree.slice
    elements = slice_node.elts if isinstance(slice_node, ast.Tuple) else [slice_node]
    domains = tuple(
        domain_of_alias(e.id) if isinstance(e, ast.Name) else None for e in elements
    )
    if any(d is not None for d in domains):
        return domains
    return None


def _annotation_class_name(annotation: Optional[ast.expr]) -> Optional[str]:
    """The plain/dotted class name an annotation refers to, if any."""
    if annotation is None:
        return None
    tree = _annotation_tree(annotation)
    if tree is None:
        return None
    tree = _unwrap_optional(tree)
    parts: list[str] = []
    node = tree
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class Project:
    """The cross-module symbol index."""

    def __init__(self, entries: Iterable[tuple[str, ast.Module]]) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        for path, tree in entries:
            module = self._index_module(path, tree)
            self.modules[module.name] = module
        for module in self.modules.values():
            self._parse_signatures(module)
            self._infer_attribute_types(module)

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def _index_module(self, path: str, tree: ast.Module) -> ModuleInfo:
        module = ModuleInfo(name=module_name_for_path(path), path=path, tree=tree)
        # Imports anywhere in the file (TYPE_CHECKING blocks included).
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    module.imports[local] = target
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    module.imports[local] = f"{node.module}.{alias.name}"
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self._make_function(module, stmt, class_name=None)
                module.functions[stmt.name] = info
                self.functions[info.qualname] = info
            elif isinstance(stmt, ast.ClassDef):
                cls = self._make_class(module, stmt)
                module.classes[stmt.name] = cls
                self.classes[cls.qualname] = cls
        return module

    def _make_function(
        self,
        module: ModuleInfo,
        node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
        class_name: Optional[str],
    ) -> FunctionInfo:
        prefix = f"{module.name}.{class_name}." if class_name else f"{module.name}."
        is_static = any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
        )
        return FunctionInfo(
            qualname=f"{prefix}{node.name}",
            name=node.name,
            module_name=module.name,
            path=module.path,
            node=node,
            class_name=class_name,
            is_staticmethod=is_static,
        )

    def _make_class(self, module: ModuleInfo, node: ast.ClassDef) -> ClassInfo:
        cls = ClassInfo(
            qualname=f"{module.name}.{node.name}",
            name=node.name,
            module_name=module.name,
            path=module.path,
            node=node,
            base_names=list(node.bases),
        )
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self._make_function(module, stmt, class_name=node.name)
                cls.methods[stmt.name] = info
                self.functions[info.qualname] = info
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                domain = annotation_domain(stmt.annotation)
                if domain is not None:
                    cls.attr_domains[stmt.target.id] = domain
                class_name = _annotation_class_name(stmt.annotation)
                resolved = self._resolve_class_name(module, class_name)
                if resolved is not None:
                    cls.attr_classes[stmt.target.id] = resolved.qualname
        return cls

    # ------------------------------------------------------------------
    # Signature parsing
    # ------------------------------------------------------------------
    def _parse_signatures(self, module: ModuleInfo) -> None:
        functions = list(module.functions.values())
        for cls in module.classes.values():
            functions.extend(cls.methods.values())
        for info in functions:
            args = info.node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                domain = annotation_domain(arg.annotation)
                if domain is not None:
                    info.param_domains[arg.arg] = domain
                class_name = _annotation_class_name(arg.annotation)
                resolved = self._resolve_class_name(module, class_name)
                if resolved is not None:
                    info.param_classes[arg.arg] = resolved.qualname
            info.return_domain = annotation_domain(info.node.returns)
            info.return_domain_tuple = annotation_domain_tuple(info.node.returns)
            class_name = _annotation_class_name(info.node.returns)
            resolved = self._resolve_class_name(module, class_name)
            if resolved is not None:
                info.return_class = resolved.qualname

    def _infer_attribute_types(self, module: ModuleInfo) -> None:
        """``self.x = ClassName(...)`` / ``self.x = typed_param`` in any
        method binds the attribute's class for the whole project."""
        for cls in module.classes.values():
            for method in cls.methods.values():
                for node in ast.walk(method.node):
                    target: Optional[ast.expr] = None
                    value: Optional[ast.expr] = None
                    annotation: Optional[ast.expr] = None
                    if isinstance(node, ast.Assign) and len(node.targets) == 1:
                        target, value = node.targets[0], node.value
                    elif isinstance(node, ast.AnnAssign):
                        target, value, annotation = node.target, node.value, node.annotation
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    attr = target.attr
                    if annotation is not None:
                        domain = annotation_domain(annotation)
                        if domain is not None:
                            cls.attr_domains.setdefault(attr, domain)
                        resolved = self._resolve_class_name(
                            module, _annotation_class_name(annotation)
                        )
                        if resolved is not None:
                            self._record_attr_class(cls, attr, resolved.qualname)
                            continue
                    if value is None:
                        continue
                    inferred = self._value_class(module, method, value)
                    if inferred is not None:
                        self._record_attr_class(cls, attr, inferred.qualname)
                    if isinstance(value, ast.Name):
                        domain = method.param_domains.get(value.id)
                        if domain is not None:
                            cls.attr_domains.setdefault(attr, domain)

    def _record_attr_class(self, cls: ClassInfo, attr: str, qualname: str) -> None:
        existing = cls.attr_classes.get(attr)
        if existing is not None and existing != qualname:
            # Conflicting assignments: drop the binding rather than guess.
            cls.attr_classes[attr] = ""
            return
        cls.attr_classes[attr] = qualname

    def _value_class(
        self, module: ModuleInfo, method: FunctionInfo, value: ast.expr
    ) -> Optional[ClassInfo]:
        """The class a ``self.x = <value>`` assignment binds, if evident."""
        if isinstance(value, ast.Call):
            resolved = self.resolve_call_target(module, value.func)
            if isinstance(resolved, ClassInfo):
                return resolved
            return None
        if isinstance(value, ast.Name):
            qualname = method.param_classes.get(value.id)
            if qualname:
                return self.classes.get(qualname)
        return None

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def _resolve_class_name(
        self, module: ModuleInfo, name: Optional[str]
    ) -> Optional[ClassInfo]:
        if not name:
            return None
        head, _, rest = name.partition(".")
        if not rest and head in module.classes:
            return module.classes[head]
        target = module.imports.get(head)
        if target is None:
            return None
        dotted = f"{target}.{rest}" if rest else target
        return self.classes.get(dotted)

    def resolve_call_target(
        self, module: ModuleInfo, func: ast.expr
    ) -> Optional[Symbol]:
        """Resolve a call's function expression to a project symbol.

        Handles plain names (local defs, imports) and dotted module
        access (``addresses.lun_index``).  Attribute calls on *objects*
        are resolved by the dataflow evaluator, which knows receiver
        types.
        """
        if isinstance(func, ast.Name):
            name = func.id
            if name in module.functions:
                return module.functions[name]
            if name in module.classes:
                return module.classes[name]
            target = module.imports.get(name)
            if target is not None:
                if target in self.functions:
                    return self.functions[target]
                if target in self.classes:
                    return self.classes[target]
            return None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            target = module.imports.get(func.value.id)
            if target is not None:
                dotted = f"{target}.{func.attr}"
                if dotted in self.functions:
                    return self.functions[dotted]
                if dotted in self.classes:
                    return self.classes[dotted]
        return None

    def bases_of(self, cls: ClassInfo) -> list[ClassInfo]:
        module = self.modules.get(cls.module_name)
        if module is None:
            return []
        out: list[ClassInfo] = []
        for base in cls.base_names:
            name = _annotation_class_name(base)
            resolved = self._resolve_class_name(module, name)
            if resolved is not None:
                out.append(resolved)
        return out

    def method_of(self, cls: ClassInfo, name: str) -> Optional[FunctionInfo]:
        """Look a method up along the base-class chain."""
        seen: set[str] = set()
        queue: Deque[ClassInfo] = Deque([cls])
        while queue:
            current = queue.popleft()
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if name in current.methods:
                return current.methods[name]
            queue.extend(self.bases_of(current))
        return None

    def attr_class_of(self, cls: ClassInfo, attr: str) -> Optional[ClassInfo]:
        """The class of ``instance.attr``, along the base chain."""
        seen: set[str] = set()
        queue: Deque[ClassInfo] = Deque([cls])
        while queue:
            current = queue.popleft()
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            qualname = current.attr_classes.get(attr)
            if qualname is not None:
                return self.classes.get(qualname) if qualname else None
            queue.extend(self.bases_of(current))
        return None

    def attr_domain_of(self, cls: ClassInfo, attr: str) -> Optional[Domain]:
        seen: set[str] = set()
        queue: Deque[ClassInfo] = Deque([cls])
        while queue:
            current = queue.popleft()
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if attr in current.attr_domains:
                return current.attr_domains[attr]
            queue.extend(self.bases_of(current))
        return None
