"""Shared pytest fixtures and path setup.

The path manipulation keeps the test suite runnable even when the package
has not been installed (e.g. a fresh checkout without network access for an
editable install); when ``repro`` is already importable it is a no-op.
"""

from __future__ import annotations

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")
if _SRC not in sys.path:  # pragma: no cover - environment-dependent
    sys.path.insert(0, _SRC)


@pytest.fixture
def rng_seed() -> int:
    """A fixed master seed so stochastic tests are reproducible."""
    return 20130612


@pytest.fixture
def small_system() -> dict:
    """A small (n, t) pair satisfying the Theorem 4 constraints."""
    return {"n": 13, "t": 2}


@pytest.fixture
def buggy_protocol():
    """Registers a deliberately broken protocol under ``"eager-bug"``.

    The bug: each processor decides *its own input* as soon as it has
    heard from ``n - t`` processors, so split inputs yield conflicting
    decisions within a window or two.  Used by the verification tests to
    prove the invariant checker and the fuzz campaign catch real
    violations; unregistered again on teardown so no other test sees it.
    """
    from repro.protocols import registry as protocol_registry
    from repro.protocols.base import Protocol
    from repro.protocols.registry import ProtocolInfo

    class EagerBugAgreement(Protocol):
        def __init__(self, pid, n, t, input_bit, rng=None):
            super().__init__(pid=pid, n=n, t=t, input_bit=input_bit,
                             rng=rng)
            self._heard = set()

        def _compose_payloads(self):
            return [("VOTE", self.input_bit)]

        def _handle_message(self, message):
            self._heard.add(message.sender)
            if len(self._heard) >= self.n - self.t and not self.decided:
                self.decide(self.input_bit)

        def _on_reset(self):
            self._heard = set()

        def volatile_state(self):
            return (tuple(sorted(self._heard)),)

    name = "eager-bug"
    protocol_registry._REGISTRY[name] = ProtocolInfo(
        name=name, protocol_cls=EagerBugAgreement,
        max_faults=lambda n: max(0, (n - 1) // 6),
        fault_model="test-only injected bug")
    try:
        yield name
    finally:
        protocol_registry._REGISTRY.pop(name, None)
