"""simlint: simulator-invariant static analysis for the repro codebase.

A deterministic discrete-event simulator has failure modes no generic
linter looks for: a stray ``random.random()`` that bypasses the seeded
stream registry, a ``time.time()`` that leaks wall-clock into virtual
time, iteration over a ``set`` on a scheduling path whose order feeds
the event calendar.  Each of those compiles, runs, and silently breaks
bit-identical reproducibility -- the property the whole framework is
built on (PAPER Section 2.1).

``repro.lint`` is an AST-based checker for exactly those hazards.
Rules SIM001-SIM009 are single-file pattern rules; SIM010 and SIM012
run a cross-module dataflow analysis (project-wide symbol table,
address-domain and view taint tracking -- see
:mod:`repro.lint.dataflow`)::

    python -m repro.lint src/            # human-readable report
    python -m repro.lint --format json src/
    python -m repro.lint --format sarif src/
    python -m repro.lint --list-rules

Rules carry stable ``SIMxxx`` identifiers (see :mod:`repro.lint.rules`)
and individual findings can be suppressed in the source with a trailing
comment::

    import random  # simlint: disable=SIM001 -- sanctioned wrapper module

Exit codes: 0 clean, 1 violations found, 2 usage/crash.
"""

from repro.lint.cli import lint_paths, main
from repro.lint.framework import LintContext, ProjectRule, Rule, Violation
from repro.lint.rules import ALL_RULES, rule_by_id

__all__ = [
    "ALL_RULES",
    "LintContext",
    "ProjectRule",
    "Rule",
    "Violation",
    "lint_paths",
    "main",
    "rule_by_id",
]
