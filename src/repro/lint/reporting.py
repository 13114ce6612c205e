"""Output formatting for simlint: text, JSON, and SARIF 2.1.0 reports."""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from repro.lint.framework import Rule, Violation


def format_text(
    violations: Iterable[Violation], files_checked: int, suppressed: int
) -> str:
    """The human-readable report: one ``path:line:col`` line per finding."""
    lines = [
        f"{v.path}:{v.line}:{v.col}: {v.rule_id} ({v.rule_name}) {v.message}"
        for v in violations
    ]
    count = len(lines)
    noun = "violation" if count == 1 else "violations"
    summary = f"simlint: {count} {noun} in {files_checked} files"
    if suppressed:
        summary += f" ({suppressed} suppressed)"
    lines.append(summary)
    return "\n".join(lines)


def format_json(
    violations: Iterable[Violation], files_checked: int, suppressed: int
) -> str:
    """Machine-readable report (stable schema, one object)."""
    materialised = list(violations)
    payload = {
        "violations": [v.as_dict() for v in materialised],
        "files_checked": files_checked,
        "suppressed": suppressed,
        "count": len(materialised),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def format_sarif(violations: Iterable[Violation], rules: Sequence[Rule]) -> str:
    """SARIF 2.1.0 log (one run), as consumed by
    ``github/codeql-action/upload-sarif`` to annotate PR diffs."""
    rule_descriptors = [
        {
            "id": rule.id,
            "name": rule.name,
            "shortDescription": {"text": rule.name},
            "fullDescription": {"text": rule.description},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in rules
    ]
    rule_index = {rule.id: index for index, rule in enumerate(rules)}
    results = []
    for violation in violations:
        result: dict[str, object] = {
            "ruleId": violation.rule_id,
            "level": "error",
            "message": {"text": violation.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": violation.path,
                            "uriBaseId": "%SRCROOT%",
                        },
                        "region": {
                            "startLine": violation.line,
                            "startColumn": violation.col,
                        },
                    }
                }
            ],
        }
        if violation.rule_id in rule_index:
            result["ruleIndex"] = rule_index[violation.rule_id]
        results.append(result)
    log = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "simlint",
                        "rules": rule_descriptors,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(log, indent=2, sort_keys=True)
