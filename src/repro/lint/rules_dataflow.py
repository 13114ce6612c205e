"""The cross-module dataflow rules (SIM010 and SIM012).

========  ========================  ============================================
id        name                      hazard
========  ========================  ============================================
SIM010    address-domain-confusion  an LPN/PPN/PBN/LUN-index int crossing into
                                    the wrong address space (wrong argument,
                                    wrong array index, wrong return) corrupts
                                    the device silently -- all four are plain
                                    ``int64`` since the PR-7 flattening
SIM012    leaked-array-view         mutating a live numpy view of device state
                                    (instead of the owning class's mutator API)
                                    bypasses bit-identity accounting
========  ========================  ============================================

These are :class:`repro.lint.framework.ProjectRule` subclasses: they run
once per lint invocation against the
:class:`repro.lint.dataflow.ProjectAnalysis` built over every in-scope
file, and their findings flow through the same suppression/scoping
machinery as the single-file rules.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.dataflow import ProjectAnalysis
from repro.lint.framework import ProjectRule, Violation


class AddressDomainConfusion(ProjectRule):
    id = "SIM010"
    name = "address-domain-confusion"
    description = (
        "a value from one address domain (Lpn/Ppn/Pbn/LunIndex) used where "
        "another is declared; annotate with the hardware.addresses aliases "
        "and convert explicitly"
    )

    def check_project(self, analysis: ProjectAnalysis) -> Iterator[Violation]:
        for qualname in sorted(analysis.summaries):
            summary = analysis.summaries[qualname]
            for finding in summary.domain_findings:
                yield self.violation_at(
                    finding.path, finding.line, finding.col, finding.message
                )


class LeakedArrayView(ProjectRule):
    id = "SIM012"
    name = "leaked-array-view"
    description = (
        "in-place mutation of a numpy view of device state (FlashState "
        "arrays, bitmap words, mapping tables); route writes through the "
        "owning class's mutator API"
    )

    def check_project(self, analysis: ProjectAnalysis) -> Iterator[Violation]:
        for qualname in sorted(analysis.summaries):
            summary = analysis.summaries[qualname]
            for finding in summary.view_findings:
                yield self.violation_at(
                    finding.path, finding.line, finding.col, finding.message
                )


PROJECT_RULES: tuple[ProjectRule, ...] = (
    AddressDomainConfusion(),
    LeakedArrayView(),
)
