"""The open OS<->SSD interface (paper Section 2.2, Open Interface).

"EagleTree takes a departure from the traditional block device interface
by basing communication between the OS and the SSD on an extensible
messaging framework that allows the operating system and SSD to
communicate as peers.  Users are able to create new types of messages
[...] conveying any amount of information or instructions."

Two mechanisms are provided:

* **Per-IO hints** -- small dictionaries attached to
  :class:`~repro.core.events.IoRequest` objects.  The standard
  vocabulary matches the paper's three examples: ``priority``,
  ``locality`` (update-locality group) and ``temperature``.  The helper
  functions below build them.  When the open interface is *disabled*
  (the classic block device), hints still travel to the device but the
  controller ignores them (``SsdController.hints_of``), exactly like
  metadata stripped at a block layer.

* **Standalone messages** -- :class:`Message` objects sent through
  :class:`OpenInterface`, dispatched to handlers registered by the SSD
  (or by user extensions).  Sending on a closed interface raises
  :class:`InterfaceClosedError` -- the demo's "red lock".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.events import WriteHints


class InterfaceClosedError(RuntimeError):
    """A message was sent while the interface is the plain block device."""


@dataclass(frozen=True)
class Message:
    """One OS->SSD (or SSD->OS) message on the open interface."""

    kind: str
    payload: dict[str, Any] = field(default_factory=dict)


def priority_hint(level: int) -> WriteHints:
    """Per-IO priority (lower is more urgent); the SSD scheduler can
    honour it when ``scheduler.use_priority_hints`` is set."""
    return {"priority": int(level)}


def locality_hint(group: int) -> WriteHints:
    """Update-locality group: pages sharing a group are expected to be
    updated together, so the SSD co-locates them in one block."""
    return {"locality": int(group)}


def temperature_hint(hot: bool) -> WriteHints:
    """Whether the written page is likely to be updated soon."""
    return {"temperature": "hot" if hot else "cold"}


class OpenInterface:
    """Extensible message bus between the OS and the SSD.

    The SSD registers handlers for the message kinds it understands;
    users may register additional kinds to prototype new protocols
    without touching the framework.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self._handlers: dict[str, list[Callable[[Message], Any]]] = {}
        self.sent_messages = 0

    def register(self, kind: str, handler: Callable[[Message], Any]) -> None:
        """Subscribe ``handler`` to messages of ``kind``."""
        self._handlers.setdefault(kind, []).append(handler)

    def unregister(self, kind: str) -> None:
        """Drop every handler of ``kind`` (used when the device-side
        endpoint is replaced, e.g. at a post-crash remount)."""
        self._handlers.pop(kind, None)

    def send(self, message: Message) -> list:
        """Deliver a message to all handlers of its kind.

        Returns the handlers' return values (a protocol may use them as
        replies).  Raises :class:`InterfaceClosedError` when the
        interface is the locked block device, and ``LookupError`` when
        nobody understands the message kind (protocol error).
        """
        if not self.enabled:
            raise InterfaceClosedError(
                "the block device interface is locked; enable "
                "host.open_interface to send messages"
            )
        handlers = self._handlers.get(message.kind)
        if not handlers:
            raise LookupError(f"no handler registered for message kind {message.kind!r}")
        self.sent_messages += 1
        return [handler(message) for handler in handlers]


def install_standard_handlers(interface: OpenInterface, controller) -> None:
    """Register the SSD-side handlers for the standard message kinds.

    * ``set_temperature`` -- payload ``{"lpns": iterable, "hot": bool}``;
      feeds the HINT temperature detector.
    * ``get_statistics`` -- returns the controller's statistics summary
      (an example of SSD->OS information flow).
    """

    def set_temperature(message: Message):
        for lpn in message.payload["lpns"]:
            controller.temperature.hint(int(lpn), bool(message.payload["hot"]))

    def get_statistics(message: Message):
        return controller.stats.summary()

    interface.register("set_temperature", set_temperature)
    interface.register("get_statistics", get_statistics)
