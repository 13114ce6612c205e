"""Path scoping: which rules apply to which files.

Two mechanisms, both matched against the normalised forward-slash path:

* :data:`GLOBAL_EXEMPT_FRAGMENTS` -- files no rule applies to (tests,
  benchmarks, examples, docs: they run outside the simulator and may
  use wall clocks, ad-hoc randomness, whatever they like).
* per-rule scoping -- a rule either applies everywhere except listed
  exemptions (:data:`RULE_EXEMPT_FRAGMENTS`) or *only* under listed
  fragments (:data:`RULE_ONLY_FRAGMENTS`).

The scoping is deliberately data, not code, so the rule table in
``docs/GUIDE.md`` can state it verbatim.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

from repro.lint.framework import Rule

#: No rule fires in these trees: they are host-side tooling, not simulator.
GLOBAL_EXEMPT_FRAGMENTS: tuple[str, ...] = (
    "/tests/",
    "tests/",
    "/benchmarks/",
    "benchmarks/",
    "/examples/",
    "examples/",
    "/docs/",
    "docs/",
)

#: Rules that apply everywhere *except* under these fragments.
RULE_EXEMPT_FRAGMENTS: Mapping[str, tuple[str, ...]] = MappingProxyType({
    # core/rng.py is the sanctioned wrapper; it carries an inline
    # suppression anyway, this keeps the intent in one visible place.
    "SIM001": (),
    # The sweep executor runs on the host side of the process boundary:
    # wall-clock timeouts and progress reporting are its job.  The
    # experiment service is entirely host-side (job timing, dashboard
    # polling).
    "SIM002": ("core/parallel.py", "service/"),
    "SIM004": (),
    "SIM006": (),
    "SIM007": (),
    # Host-side entry points may read the environment; the simulator
    # proper must not.  The parallel executor sizes its worker pool;
    # the service locates its cache directory ($REPRO_CACHE_DIR).
    "SIM008": ("core/parallel.py", "analysis/", "service/"),
    "SIM009": (),
    "SIM010": (),
    # The hardware layer *is* the mutator API: FlashState/MappingTable/
    # VersionTable methods legitimately write their own arrays.
    "SIM012": ("hardware/",),
})

#: Rules that apply *only* under these fragments (scheduling paths).
RULE_ONLY_FRAGMENTS: Mapping[str, tuple[str, ...]] = MappingProxyType({
    "SIM003": ("controller/", "host/", "core/engine.py"),
})


def path_is_globally_exempt(path: str) -> bool:
    normalised = path.replace("\\", "/")
    return any(fragment in normalised for fragment in GLOBAL_EXEMPT_FRAGMENTS)


def rule_applies(rule: Rule, path: str) -> bool:
    """Whether ``rule`` is in scope for ``path`` (already non-exempt)."""
    normalised = path.replace("\\", "/")
    only = RULE_ONLY_FRAGMENTS.get(rule.id)
    if only is not None:
        return any(fragment in normalised for fragment in only)
    exempt = RULE_EXEMPT_FRAGMENTS.get(rule.id, ())
    return not any(fragment in normalised for fragment in exempt)
