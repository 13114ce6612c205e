"""Core machinery of simlint: violations, rules, per-file context.

The checker is a single :func:`ast.parse` pass per file.  A
:class:`LintContext` wraps the parsed tree with everything rules need:

* parent links on every node (``ast`` does not provide them),
* the suppression table parsed from ``# simlint: disable=...`` comments,
* a cheap symbol table mapping names and attributes to ``"set"`` or
  ``"dict"`` when an assignment or annotation in the same file reveals
  the container type (used by the ordered-iteration rule).

Rules are small classes with a stable id (``SIM001``...), a kebab-case
name, and a ``check(context)`` generator yielding :class:`Violation`
objects.  Path scoping (which rules apply to which files) lives in
:mod:`repro.lint.config`, not in the rules themselves.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

if TYPE_CHECKING:
    from repro.lint.dataflow import ProjectAnalysis


@dataclass(frozen=True)
class Violation:
    """One finding: a rule fired at a location."""

    path: str
    line: int
    col: int
    rule_id: str
    rule_name: str
    message: str

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)

    def as_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "name": self.rule_name,
            "message": self.message,
        }


class Rule:
    """Base class for simlint rules.

    Subclasses set ``id`` (stable, ``SIMxxx``), ``name`` (kebab-case)
    and ``description`` and implement :meth:`check`.
    """

    id: str = "SIM000"
    name: str = "abstract-rule"
    description: str = ""

    def check(self, context: "LintContext") -> Iterator[Violation]:
        raise NotImplementedError

    def violation(
        self, context: "LintContext", node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            path=context.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.id,
            rule_name=self.name,
            message=message,
        )


class ProjectRule(Rule):
    """A rule that needs the whole-project dataflow analysis.

    Project rules run once per lint invocation, after every file has
    been parsed, against the :class:`repro.lint.dataflow.ProjectAnalysis`
    built over all in-scope files.  Their findings still go through the
    same per-file suppression and path-scoping machinery as single-file
    rules (keyed on the *finding's* path).  ``check()`` is a no-op so a
    project rule is inert when applied file-at-a-time.
    """

    def check(self, context: "LintContext") -> Iterator[Violation]:
        return iter(())

    def check_project(self, analysis: "ProjectAnalysis") -> Iterator[Violation]:
        raise NotImplementedError

    def violation_at(
        self, path: str, line: int, col: int, message: str
    ) -> Violation:
        return Violation(
            path=path.replace("\\", "/"),
            line=line,
            col=col,
            rule_id=self.id,
            rule_name=self.name,
            message=message,
        )


#: Matches a suppression comment: a hash, then ``simlint: disable=`` (one
#: line) or ``simlint: disable-file=`` (the whole file), comma-separated
#: rule ids and an optional ``-- justification``.
_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*(disable|disable-file)\s*=\s*([A-Za-z0-9_,\s]+?)(?:\s*--.*)?$"
)

_SET_TYPE_NAMES = frozenset({"set", "Set", "frozenset", "FrozenSet", "MutableSet"})
_DICT_TYPE_NAMES = frozenset(
    {"dict", "Dict", "defaultdict", "DefaultDict", "OrderedDict", "Counter", "Mapping", "MutableMapping"}
)


def _root_type_name(annotation: ast.expr) -> Optional[str]:
    """``set[int]`` -> ``set``; ``typing.Dict[str, int]`` -> ``Dict``."""
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _value_container_kind(value: ast.expr) -> Optional[str]:
    """Classify an assigned value expression as ``"set"``/``"dict"``."""
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, ast.Call):
        func = value.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("set", "frozenset"):
            return "set"
        if name in ("dict", "defaultdict", "OrderedDict", "Counter"):
            return "dict"
    return None


class LintContext:
    """Everything a rule needs to inspect one source file."""

    def __init__(self, path: str, source: str, tree: Optional[ast.Module] = None) -> None:
        #: Normalised, forward-slash path used for reporting and scoping.
        self.path = path.replace("\\", "/")
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree if tree is not None else ast.parse(source, filename=path)
        self._link_parents()
        #: line number -> set of suppressed rule ids on that line.
        self.line_suppressions: dict[int, set[str]] = {}
        #: rule ids suppressed for the whole file.
        self.file_suppressions: set[str] = set()
        self._parse_suppressions()
        #: plain name  -> "set" | "dict"  (module/function locals alike).
        self.name_kinds: dict[str, str] = {}
        #: attribute name -> "set" | "dict" (from ``self.x = set()`` etc).
        self.attr_kinds: dict[str, str] = {}
        self._infer_container_kinds()

    # -- construction helpers -----------------------------------------
    def _link_parents(self) -> None:
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                child.simlint_parent = node  # type: ignore[attr-defined]

    def _parse_suppressions(self) -> None:
        # A trailing comment suppresses its own line.  A standalone
        # comment line suppresses the next code line (the justification
        # may continue over further comment lines).  Decorator lines
        # both receive and propagate the carry, so a comment above
        # ``@decorator`` reaches the ``def`` line where function-level
        # findings are reported.
        carry: set[str] = set()
        for lineno, text in enumerate(self.lines, start=1):
            stripped = text.strip()
            match = _SUPPRESS_RE.search(text)
            if match is not None:
                kind, ids = match.group(1), match.group(2)
                rule_ids = {part.strip() for part in ids.split(",") if part.strip()}
                if kind == "disable-file":
                    self.file_suppressions |= rule_ids
                    continue
                self.line_suppressions.setdefault(lineno, set()).update(rule_ids)
                if stripped.startswith("#"):
                    carry |= rule_ids
                elif carry:
                    self.line_suppressions[lineno] |= carry
                    if not stripped.startswith("@"):
                        carry = set()
                continue
            if stripped.startswith("#") or not stripped:
                continue  # comment/blank continuation keeps the carry
            if carry:
                self.line_suppressions.setdefault(lineno, set()).update(carry)
                if not stripped.startswith("@"):
                    carry = set()

    def _record_kind(self, target: ast.expr, kind: str) -> None:
        if isinstance(target, ast.Name):
            self.name_kinds[target.id] = kind
        elif isinstance(target, ast.Attribute):
            self.attr_kinds[target.attr] = kind

    def _infer_container_kinds(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Assign):
                kind = _value_container_kind(node.value)
                if kind is not None:
                    for target in node.targets:
                        self._record_kind(target, kind)
            elif isinstance(node, ast.AnnAssign):
                root = _root_type_name(node.annotation)
                if root in _SET_TYPE_NAMES:
                    self._record_kind(node.target, "set")
                elif root in _DICT_TYPE_NAMES:
                    self._record_kind(node.target, "dict")
                elif node.value is not None:
                    kind = _value_container_kind(node.value)
                    if kind is not None:
                        self._record_kind(node.target, kind)
            elif isinstance(node, ast.arg) and node.annotation is not None:
                root = _root_type_name(node.annotation)
                if root in _SET_TYPE_NAMES:
                    self.name_kinds[node.arg] = "set"
                elif root in _DICT_TYPE_NAMES:
                    self.name_kinds[node.arg] = "dict"

    # -- query API used by rules --------------------------------------
    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return getattr(node, "simlint_parent", None)

    def container_kind(self, expr: ast.expr) -> Optional[str]:
        """``"set"``/``"dict"`` when the file reveals the container type."""
        direct = _value_container_kind(expr)
        if direct is not None:
            return direct
        if isinstance(expr, ast.Name):
            return self.name_kinds.get(expr.id)
        if isinstance(expr, ast.Attribute):
            return self.attr_kinds.get(expr.attr)
        return None

    def is_suppressed(self, violation: Violation) -> bool:
        if violation.rule_id in self.file_suppressions or "all" in self.file_suppressions:
            return True
        on_line = self.line_suppressions.get(violation.line, set())
        return violation.rule_id in on_line or "all" in on_line


def run_rules(
    context: LintContext, rules: Iterable[Rule]
) -> tuple[list[Violation], int]:
    """Apply ``rules`` to one file; returns (violations, suppressed)."""
    kept: list[Violation] = []
    suppressed = 0
    for rule in rules:
        for violation in rule.check(context):
            if context.is_suppressed(violation):
                suppressed += 1
            else:
                kept.append(violation)
    kept.sort(key=Violation.sort_key)
    return kept, suppressed
