"""A small registry mapping protocol names to classes.

Experiments, examples and the benchmark harness refer to protocols by name
("reset-tolerant", "ben-or", "bracha"); this registry centralises the
mapping together with each protocol's resilience requirement, so sweeps can
derive the maximum admissible ``t`` for a given ``n`` uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Type

from repro.core.reset_tolerant import ResetTolerantAgreement
from repro.protocols.base import Protocol
from repro.protocols.ben_or import BenOrAgreement
from repro.protocols.bracha import BrachaAgreement


@dataclass(frozen=True)
class ProtocolInfo:
    """Registry entry for a message-passing agreement protocol.

    Attributes:
        name: registry key.
        protocol_cls: the protocol class.
        max_faults: function mapping ``n`` to the largest tolerated ``t``.
        fault_model: short description of the failure model.
    """

    name: str
    protocol_cls: Type[Protocol]
    max_faults: Callable[[int], int]
    fault_model: str


_REGISTRY: Dict[str, ProtocolInfo] = {
    "reset-tolerant": ProtocolInfo(
        name="reset-tolerant",
        protocol_cls=ResetTolerantAgreement,
        max_faults=lambda n: max(0, (n - 1) // 6),
        fault_model="strongly adaptive resetting failures (t < n/6)",
    ),
    "ben-or": ProtocolInfo(
        name="ben-or",
        protocol_cls=BenOrAgreement,
        max_faults=lambda n: max(0, (n - 1) // 2),
        fault_model="asynchronous crash failures (t < n/2)",
    ),
    "bracha": ProtocolInfo(
        name="bracha",
        protocol_cls=BrachaAgreement,
        max_faults=lambda n: max(0, (n - 1) // 3),
        fault_model="asynchronous Byzantine failures (t < n/3)",
    ),
}


def get_protocol(name: str) -> ProtocolInfo:
    """Look up a protocol by name.

    Raises:
        KeyError: with the list of known names, when the name is unknown.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown protocol {name!r}; known protocols: {known}")


def available_protocols() -> Dict[str, ProtocolInfo]:
    """All registered protocols, keyed by name."""
    return dict(_REGISTRY)


def resolve_fault_bound(protocol: str, n: int, t: Optional[int]) -> int:
    """Validate a campaign's ``(protocol, n, t)`` and return the bound ``t``.

    ``t=None`` means the protocol's maximum for ``n``.  Raises
    ``KeyError`` for an unknown protocol and ``ValueError`` for a system
    the protocol cannot run with any fault, or a bound with ``t >= n``.
    """
    info = get_protocol(protocol)
    if n <= 1:
        raise ValueError(f"n must be at least 2, got {n}")
    if t is None:
        t = info.max_faults(n)
    if t <= 0:
        raise ValueError(
            f"protocol {protocol!r} tolerates no faults at n={n}; "
            f"choose a larger n")
    if t >= n:
        raise ValueError(f"fault bound t={t} must satisfy t < n={n}")
    return t


__all__ = ["ProtocolInfo", "get_protocol", "available_protocols",
           "resolve_fault_bound"]
