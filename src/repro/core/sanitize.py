"""The runtime sanitizer: cheap invariant checks behind one switch.

``SimulationConfig(sanitize=True)`` arms extra machine checks in the
engine, the RNG streams and the flash state machines.  The checks are
pure observers -- a sanitized run is bit-identical to an unsanitized one
(same events, same virtual times, same random draws); they only convert
silent corruption into a loud :class:`SanitizerError` that names the
offending event or component.

What is guarded, and where:

* **virtual-time monotonicity** -- the engine verifies that no event
  fires before the current virtual time (``repro.core.engine``);
* **erase-before-program page state machine** -- blocks verify their
  page states and live/dead counters stay consistent on every program,
  invalidate and erase (``repro.hardware.flash``);
* **per-stream RNG integrity** -- a named random stream may only
  advance through its own drawing methods; re-seeding or out-of-band
  state perturbation (one component contaminating another's stream)
  trips the guard (``repro.core.rng``).

The static companion of this module is :mod:`repro.lint`, which catches
the same classes of mistake at review time instead of run time.
"""

from __future__ import annotations

from typing import Any, Optional


class SanitizerError(RuntimeError):
    """A simulator invariant was violated while ``sanitize=True``.

    Carries the invariant name and whatever context the checking layer
    could attach (the offending event callable, virtual times, block
    identity, stream name, ...), so the failure is actionable without a
    debugger.
    """

    def __init__(self, invariant: str, message: str, context: Optional[dict[str, Any]] = None) -> None:
        self.invariant = invariant
        self.context = dict(context) if context else {}
        detail = ""
        if self.context:
            detail = " [" + ", ".join(
                f"{key}={value!r}" for key, value in sorted(self.context.items())
            ) + "]"
        super().__init__(f"{invariant}: {message}{detail}")
