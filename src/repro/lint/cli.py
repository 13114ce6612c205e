"""The ``python -m repro.lint`` command line.

Usage::

    python -m repro.lint src/                    # lint a tree
    python -m repro.lint --format json src/      # machine-readable
    python -m repro.lint --format sarif src/     # SARIF 2.1.0 log
    python -m repro.lint --select SIM003 src/    # one rule only
    python -m repro.lint --ignore SIM006 src/    # all but one
    python -m repro.lint --list-rules            # rule table
    python -m repro.lint src/ --sarif-file simlint.sarif  # text + SARIF

Each readable file is parsed once; the single-file rules run on it,
then the project rules run once over every parsed file.

Exit codes: ``0`` no violations, ``1`` violations found, ``2`` bad
usage or an unreadable/unparsable input file (unparsable files are also
reported as structured ``E999`` findings).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.lint.config import path_is_globally_exempt, rule_applies
from repro.lint.dataflow import ProjectAnalysis
from repro.lint.framework import LintContext, ProjectRule, Rule, Violation, run_rules
from repro.lint.reporting import format_json, format_sarif, format_text
from repro.lint.rules import ALL_RULES, rule_by_id


def iter_python_files(paths: Iterable[str]) -> Iterable[str]:
    """Expand files/directories into a sorted stream of ``*.py`` paths."""
    collected: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in ("__pycache__", ".git")
                )
                collected.extend(
                    os.path.join(dirpath, name)
                    for name in filenames
                    if name.endswith(".py")
                )
        else:
            collected.append(path)
    return sorted(set(collected))


def _select_rules(
    select: Optional[Sequence[str]], ignore: Optional[Sequence[str]]
) -> tuple[Rule, ...]:
    if select:
        rules = tuple(rule_by_id(rule_id) for rule_id in select)
    else:
        rules = ALL_RULES
    if ignore:
        dropped = {rule_by_id(rule_id).id for rule_id in ignore}
        rules = tuple(rule for rule in rules if rule.id not in dropped)
    return rules


def _parse_failure(
    path: str, exc: Exception
) -> Tuple[Violation, str]:
    """Structured ``E999`` finding + stderr line for an unparsable file."""
    if isinstance(exc, SyntaxError):
        line = exc.lineno or 1
        col = exc.offset or 1
        detail = exc.msg or "invalid syntax"
    else:  # ValueError (null bytes), UnicodeDecodeError
        line, col = 1, 1
        detail = str(exc)
    violation = Violation(
        path=path,
        line=line,
        col=col,
        rule_id="E999",
        rule_name="syntax-error",
        message=f"cannot parse file: {detail}",
    )
    return violation, f"{path}:{line}: syntax error: {detail}"


def lint_paths(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    respect_scoping: bool = True,
) -> tuple[list[Violation], int, int, list[str]]:
    """Lint ``paths``; returns (violations, files_checked, suppressed, errors).

    ``respect_scoping=False`` applies every rule to every file (used by
    the fixture tests, where paths are temp files outside the tree).
    """
    rules = _select_rules(select, ignore)
    file_rules = tuple(r for r in rules if not isinstance(r, ProjectRule))
    project_rules = tuple(r for r in rules if isinstance(r, ProjectRule))
    violations: list[Violation] = []
    errors: list[str] = []
    suppressed = 0
    contexts: dict[str, LintContext] = {}
    for filename in iter_python_files(paths):
        path = filename.replace("\\", "/")
        if respect_scoping and path_is_globally_exempt(path):
            continue
        try:
            with open(filename, "r", encoding="utf-8") as handle:
                context = LintContext(path, handle.read())
        except OSError as exc:
            errors.append(f"{path}: {exc}")
            continue
        except (SyntaxError, ValueError) as exc:  # incl. UnicodeDecodeError
            violation, error = _parse_failure(path, exc)
            violations.append(violation)
            errors.append(error)
            continue
        contexts[path] = context
        in_scope = tuple(
            r for r in file_rules if not respect_scoping or rule_applies(r, path)
        )
        found, file_suppressed = run_rules(context, in_scope)
        violations.extend(found)
        suppressed += file_suppressed

    if project_rules:
        analysis = ProjectAnalysis.build(
            (path, context.tree) for path, context in contexts.items()
        )
        for rule in project_rules:
            for violation in rule.check_project(analysis):
                if respect_scoping and not rule_applies(rule, violation.path):
                    continue
                owner = contexts.get(violation.path)
                if owner is not None and owner.is_suppressed(violation):
                    suppressed += 1
                else:
                    violations.append(violation)
    violations.sort(key=Violation.sort_key)
    return violations, len(contexts), suppressed, errors


def _print_rule_table() -> None:
    width = max(len(rule.name) for rule in ALL_RULES)
    for rule in ALL_RULES:
        print(f"{rule.id}  {rule.name:<{width}}  {rule.description}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="simulator-invariant static analysis for the repro codebase",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        dest="output_format",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="SIMxxx",
        help="run only these rule ids (repeatable)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="SIMxxx",
        help="skip these rule ids (repeatable)",
    )
    parser.add_argument(
        "--no-scoping",
        action="store_true",
        help="apply every rule to every file, ignoring path scoping",
    )
    parser.add_argument(
        "--sarif-file",
        metavar="PATH",
        help="additionally write a SARIF 2.1.0 log to PATH",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        _print_rule_table()
        return 0

    paths: List[str] = list(args.paths)
    if not paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given (or use --list-rules)", file=sys.stderr)
        return 2

    try:
        violations, files_checked, suppressed, errors = lint_paths(
            paths,
            select=args.select,
            ignore=args.ignore,
            respect_scoping=not args.no_scoping,
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    rules = _select_rules(args.select, args.ignore)
    if args.sarif_file:
        with open(args.sarif_file, "w", encoding="utf-8") as handle:
            handle.write(format_sarif(violations, rules))
            handle.write("\n")

    if args.output_format == "sarif":
        print(format_sarif(violations, rules))
    elif args.output_format == "json":
        print(format_json(violations, files_checked, suppressed))
    else:
        print(format_text(violations, files_checked, suppressed))

    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    if errors:
        return 2
    return 1 if violations else 0
