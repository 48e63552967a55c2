"""Bracha's reliable broadcast (the substrate of his agreement protocol).

Bracha's 1984 asynchronous agreement protocol achieves the optimal
resilience ``t < n/3`` against Byzantine failures by filtering every value
through a *reliable broadcast* primitive: a Byzantine sender cannot make two
honest processors accept different values from the same broadcast, and if
the sender is honest every honest processor eventually accepts its value.

The classic echo/ready implementation, per broadcast instance (identified by
the originator and an application-level tag such as ``(round, phase)``):

* the originator sends ``INIT v`` to everyone;
* on receiving the first ``INIT v`` from the originator, a processor sends
  ``ECHO v`` to everyone;
* on receiving ``ECHO v`` from more than ``(n + t) / 2`` distinct
  processors, or ``READY v`` from ``t + 1`` distinct processors, a processor
  sends ``READY v`` (once);
* on receiving ``READY v`` from ``2t + 1`` distinct processors, it *accepts*
  (delivers) ``v`` for this instance.

This module implements the per-processor state machine
(:class:`BroadcastInstance`) and a manager (:class:`ReliableBroadcastLayer`)
that multiplexes many concurrent instances, producing outgoing payloads and
reporting accepted deliveries to the protocol that uses it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

RBC_INIT = "RBC_INIT"
"""Payload tag of the originator's initial send."""

RBC_ECHO = "RBC_ECHO"
"""Payload tag of echo messages."""

RBC_READY = "RBC_READY"
"""Payload tag of ready messages."""


@dataclass
class Acceptance:
    """A value accepted (delivered) by the reliable-broadcast layer.

    Attributes:
        originator: the processor whose broadcast was accepted.
        tag: the application-level instance tag (e.g. ``(round, phase)``).
        value: the accepted value.
    """

    originator: int
    tag: Hashable
    value: Any


class BroadcastInstance:
    """One processor's view of a single reliable-broadcast instance."""

    def __init__(self, n: int, t: int, originator: int,
                 tag: Hashable) -> None:
        self.n = n
        self.t = t
        self.originator = originator
        self.tag = tag
        self.echo_sent = False
        self.ready_sent = False
        self.accepted_value: Optional[Any] = None
        self._echoes: Dict[Any, Set[int]] = defaultdict(set)
        self._readies: Dict[Any, Set[int]] = defaultdict(set)

    # Quorum sizes from Bracha's protocol.
    @property
    def echo_quorum(self) -> int:
        """Echoes needed before sending READY: strictly more than (n+t)/2."""
        return (self.n + self.t) // 2 + 1

    @property
    def ready_amplify(self) -> int:
        """Readies from distinct processors that trigger our own READY."""
        return self.t + 1

    @property
    def accept_quorum(self) -> int:
        """Readies needed to accept the value."""
        return 2 * self.t + 1

    # ------------------------------------------------------------------
    def on_init(self, sender: int, value: Any) -> List[Tuple[str, Any]]:
        """Handle the originator's INIT; returns payload actions to send."""
        actions: List[Tuple[str, Any]] = []
        if sender != self.originator:
            return actions
        if not self.echo_sent:
            self.echo_sent = True
            actions.append((RBC_ECHO, value))
        return actions

    def on_echo(self, sender: int, value: Any) -> List[Tuple[str, Any]]:
        """Handle an ECHO from ``sender``; returns payload actions to send."""
        actions: List[Tuple[str, Any]] = []
        self._echoes[value].add(sender)
        if not self.ready_sent and \
                len(self._echoes[value]) >= self.echo_quorum:
            self.ready_sent = True
            actions.append((RBC_READY, value))
        return actions

    def on_ready(self, sender: int, value: Any) -> List[Tuple[str, Any]]:
        """Handle a READY from ``sender``; returns payload actions to send."""
        actions: List[Tuple[str, Any]] = []
        self._readies[value].add(sender)
        if not self.ready_sent and \
                len(self._readies[value]) >= self.ready_amplify:
            self.ready_sent = True
            actions.append((RBC_READY, value))
        if self.accepted_value is None and \
                len(self._readies[value]) >= self.accept_quorum:
            self.accepted_value = value
        return actions

    def state_view(self) -> Tuple:
        """Hashable snapshot for configuration fingerprints."""
        echoes = tuple(sorted(((value, tuple(sorted(senders)))
                               for value, senders in self._echoes.items()),
                              key=repr))
        readies = tuple(sorted(((value, tuple(sorted(senders)))
                                for value, senders in self._readies.items()),
                               key=repr))
        return (self.originator, self.tag, self.echo_sent, self.ready_sent,
                self.accepted_value, echoes, readies)


class ReliableBroadcastLayer:
    """Multiplexes concurrent reliable-broadcast instances for one processor.

    The owning protocol calls :meth:`broadcast` to start its own broadcasts,
    feeds every incoming RBC payload to :meth:`handle`, which returns the
    values that payload got accepted, and periodically drains
    :meth:`take_outgoing` into its own outbox.
    """

    def __init__(self, pid: int, n: int, t: int) -> None:
        self.pid = pid
        self.n = n
        self.t = t
        self._instances: Dict[Tuple[int, Hashable], BroadcastInstance] = {}
        self._outgoing: List[Tuple[str, int, Hashable, Any]] = []
        self._delivered: Set[Tuple[int, Hashable]] = set()

    # ------------------------------------------------------------------
    def _instance(self, originator: int, tag: Hashable) -> BroadcastInstance:
        key = (originator, tag)
        if key not in self._instances:
            self._instances[key] = BroadcastInstance(self.n, self.t,
                                                     originator, tag)
        return self._instances[key]

    # ------------------------------------------------------------------
    def broadcast(self, tag: Hashable, value: Any) -> None:
        """Start a reliable broadcast of ``value`` under ``tag``."""
        self._outgoing.append((RBC_INIT, self.pid, tag, value))

    def handle(self, sender: int, payload: Any) -> List[Acceptance]:
        """Process one incoming RBC payload.

        Args:
            sender: the processor the message channel attributes it to.
            payload: a tuple ``(kind, originator, tag, value)`` where kind is
                one of the RBC tags.

        Returns:
            Newly accepted deliveries (at most one per call).
        """
        if not (isinstance(payload, tuple) and len(payload) == 4
                and payload[0] in (RBC_INIT, RBC_ECHO, RBC_READY)):
            return []
        kind, originator, tag, value = payload
        if not isinstance(originator, int) or not 0 <= originator < self.n:
            return []
        instance = self._instance(originator, tag)
        if kind == RBC_INIT:
            actions = instance.on_init(sender, value)
        elif kind == RBC_ECHO:
            actions = instance.on_echo(sender, value)
        else:
            actions = instance.on_ready(sender, value)
        for action_kind, action_value in actions:
            self._outgoing.append((action_kind, originator, tag,
                                   action_value))
        key = (originator, tag)
        if instance.accepted_value is not None and key not in self._delivered:
            self._delivered.add(key)
            return [Acceptance(originator=originator, tag=tag,
                               value=instance.accepted_value)]
        return []

    def take_outgoing(self) -> List[Tuple[str, int, Hashable, Any]]:
        """Drain the queue of RBC payloads to broadcast to all processors."""
        outgoing = self._outgoing
        self._outgoing = []
        return outgoing

    def state_view(self) -> Tuple:
        """Hashable snapshot for configuration fingerprints."""
        return tuple(sorted(
            ((key, instance.state_view())
             for key, instance in self._instances.items()),
            key=repr))


__all__ = [
    "RBC_INIT",
    "RBC_ECHO",
    "RBC_READY",
    "Acceptance",
    "BroadcastInstance",
    "ReliableBroadcastLayer",
]
