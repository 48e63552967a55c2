"""The deterministic fault injector behind chaos runs.

A :class:`ChaosConfig` describes a *fault pattern*: per-kind firing
probabilities plus one chaos seed.  Whether a given trial is faulted — and
with which fault — is a pure function of ``(chaos seed, trial spec)``:
the spec is fingerprinted (:func:`spec_fingerprint`), the fingerprint is
hashed together with the chaos seed, and the resulting stream drives one
draw against the cumulative kind probabilities.  No wall clock, no OS
entropy, no per-process state: the same config faults the same trials on
any worker count, after any resume, in any process — which is what makes
chaos runs replayable and lets the tests pin the keystone property
(surviving results bit-identical to a fault-free serial run).

Fault kinds:

* ``crash`` — the worker process dies via ``os._exit`` mid-chunk
  (``BrokenProcessPool`` in the supervisor).  Transient: fires on a
  trial's first attempt only.
* ``hang`` — the trial sleeps past the supervisor's watchdog window.
  Transient.
* ``raise`` — the trial raises :class:`InjectedFault` instead of
  executing.  Transient.
* ``poison`` — like ``raise`` but *persistent*: it fires on every
  attempt, modelling a deterministically failing trial.  The supervisor's
  serial quarantine converts it into a recorded failure row.
* ``torn`` — the results store writes a torn (truncated, unparseable)
  line into ``rows.jsonl`` immediately before the real record, modelling
  a kill mid-write.  The JSONL loader skips torn lines, so the row
  survives; fires once per cell key per store lifetime.

In worker scope the kinds manifest literally (``os._exit``, a real
sleep).  In the serial (``workers=0``) and quarantine scopes a process
suicide or a sleep would take the supervisor down with it, so ``crash``
and ``hang`` degrade to a raised :class:`InjectedFault` — recorded and
retried exactly like ``raise`` — which is the graceful-degradation
contract of the resilient execution layer.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional, Set

from repro.runner.spec import TrialSpec, execute_trial

CRASH = "crash"
HANG = "hang"
RAISE = "raise"
POISON = "poison"
TORN = "torn"

FAULT_KINDS = (CRASH, HANG, RAISE, POISON)
"""Trial-level fault kinds, in cumulative-draw order."""

WORKER_SCOPE = "worker"
SERIAL_SCOPE = "serial"
QUARANTINE_SCOPE = "quarantine"

CHAOS_ENV = "REPRO_CHAOS"
"""Environment variable the CLI reads as the default ``--chaos`` spec."""

_EXIT_CODE = 23
"""The injected worker-suicide exit code (recognisable in core dumps)."""


class InjectedFault(RuntimeError):
    """An exception raised (or degraded to) by the fault injector."""


@dataclass(frozen=True)
class ChaosConfig:
    """One replayable fault pattern: kind probabilities plus a seed.

    Attributes:
        seed: the chaos seed; together with a trial's fingerprint it
            fully determines whether (and how) the trial is faulted.
        crash: probability a trial kills its worker process.
        hang: probability a trial sleeps for ``hang_seconds``.
        raise_: probability a trial raises on its first attempt.
        poison: probability a trial raises on *every* attempt.
        torn: probability a cell's first row write is torn.
        hang_seconds: how long an injected hang sleeps.
    """

    seed: int = 0
    crash: float = 0.0
    hang: float = 0.0
    raise_: float = 0.0
    poison: float = 0.0
    torn: float = 0.0
    hang_seconds: float = 3600.0

    def __post_init__(self) -> None:
        for name in (CRASH, HANG, "raise_", POISON, TORN):
            probability = getattr(self, name)
            if not 0.0 <= probability <= 1.0:
                raise ValueError(
                    f"chaos {name.rstrip('_')} probability must be in "
                    f"[0, 1], got {probability}")
        total = self.crash + self.hang + self.raise_ + self.poison
        if total > 1.0:
            raise ValueError(
                f"chaos kind probabilities must sum to <= 1, got {total}")
        if self.hang_seconds <= 0:
            raise ValueError(
                f"hang_seconds must be positive, got {self.hang_seconds}")

    @property
    def active(self) -> bool:
        """Whether any fault can ever fire under this config."""
        return any(getattr(self, name) > 0.0
                   for name in (CRASH, HANG, "raise_", POISON, TORN))

    def probability(self, kind: str) -> float:
        return getattr(self, "raise_" if kind == RAISE else kind)

    def to_spec(self) -> str:
        """The canonical ``--chaos`` spec string (parse round-trips)."""
        rendered = [f"seed={self.seed}"]
        for spec_field in fields(self):
            if spec_field.name == "seed":
                continue
            value = getattr(self, spec_field.name)
            if value != spec_field.default:
                key = spec_field.name.rstrip("_").replace("_", "-")
                rendered.append(f"{key}={value}")
        return ",".join(rendered)


_SPEC_KEYS = {
    "seed": "seed",
    "crash": "crash",
    "hang": "hang",
    "raise": "raise_",
    "poison": "poison",
    "torn": "torn",
    "hang-seconds": "hang_seconds",
    "hang_seconds": "hang_seconds",
}


def parse_chaos_spec(raw: Optional[str]) -> Optional[ChaosConfig]:
    """Parse a ``--chaos`` spec string into a :class:`ChaosConfig`.

    The grammar is ``key=value`` pairs separated by commas, e.g.
    ``crash=0.2,hang=0.1,raise=0.1,seed=7``.  Keys: the fault kinds
    (``crash``, ``hang``, ``raise``, ``poison``, ``torn``), ``seed``
    and ``hang-seconds``.  ``None``/empty input returns ``None``
    (chaos off).

    Raises:
        ValueError: on an unknown key, an unparseable value, or
            probabilities the config itself rejects.
    """
    if raw is None or not raw.strip():
        return None
    values: Dict[str, Any] = {}
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        key, separator, value = token.partition("=")
        key = key.strip().lower()
        if not separator or key not in _SPEC_KEYS:
            known = ", ".join(sorted(set(_SPEC_KEYS) - {"hang_seconds"}))
            raise ValueError(
                f"bad chaos token {token!r}; expected key=value with key "
                f"in: {known}")
        attribute = _SPEC_KEYS[key]
        try:
            parsed: Any = int(value) if attribute == "seed" \
                else float(value)
        except ValueError:
            raise ValueError(
                f"chaos {key} expects a number, got {value!r}") from None
        values[attribute] = parsed
    return ChaosConfig(**values)


def spec_fingerprint(spec: TrialSpec) -> str:
    """A stable, content-based identity of one trial spec.

    Built from the spec's plain-data fields via :func:`repr` (stable for
    ints, strings, tuples and plain containers) and hashed, so it is
    identical across processes, worker counts and resumes — the property
    the injector needs for replayable fault decisions.
    """
    payload = repr((
        spec.protocol, spec.adversary, spec.n, spec.t, spec.inputs,
        spec.seed, sorted(spec.adversary_kwargs.items()),
        sorted(spec.protocol_kwargs.items()), spec.engine,
        spec.max_windows, spec.max_steps, spec.stop_when, spec.tag))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class FaultInjector:
    """Applies one :class:`ChaosConfig` deterministically to trials.

    The injector itself is cheap, picklable plain state (the config plus
    an in-memory torn-write ledger), so the supervisor ships it to worker
    processes alongside each chunk.
    """

    def __init__(self, chaos: ChaosConfig) -> None:
        self.chaos = chaos
        self._torn_fired: Set[str] = set()

    def __getstate__(self) -> Dict[str, Any]:
        # The torn ledger is supervisor-side state; workers only make
        # trial-level decisions, which are pure functions of the config.
        return {"chaos": self.chaos}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.chaos = state["chaos"]
        self._torn_fired = set()

    # -- decisions (pure) ---------------------------------------------
    def _stream(self, namespace: str, identity: str) -> random.Random:
        digest = hashlib.sha256(
            f"{self.chaos.seed}:{namespace}:{identity}"
            .encode("utf-8")).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def decide(self, spec: TrialSpec) -> Optional[str]:
        """The fault kind injected into ``spec``, or ``None``.

        A pure function of (chaos seed, spec): one uniform draw against
        the cumulative kind probabilities.
        """
        draw = self._stream("trial", spec_fingerprint(spec)).random()
        cumulative = 0.0
        for kind in FAULT_KINDS:
            cumulative += self.chaos.probability(kind)
            if draw < cumulative:
                return kind
        return None

    @staticmethod
    def fires(kind: Optional[str], attempt: int) -> bool:
        """Whether ``kind`` manifests on this (0-based) attempt.

        Poison faults are persistent; every other kind is transient and
        fires on the first attempt only — a retry recovers it.
        """
        if kind is None:
            return False
        return True if kind == POISON else attempt == 0

    def decide_torn(self, key_id: str) -> bool:
        """Whether to tear the next row write for this cell key.

        Fires at most once per key per store lifetime, so the recovery
        write that follows always lands intact.
        """
        if self.chaos.torn <= 0.0 or key_id in self._torn_fired:
            return False
        self._torn_fired.add(key_id)
        return self._stream("torn", key_id).random() < self.chaos.torn

    # -- application --------------------------------------------------
    def fire(self, spec: TrialSpec, attempt: int,
             scope: str = WORKER_SCOPE) -> None:
        """Manifest this config's fault for ``spec`` without executing it.

        A batched chunk fires every member's fault before it runs the
        engine.  In :data:`WORKER_SCOPE` crashes and hangs manifest
        literally; in :data:`SERIAL_SCOPE`/:data:`QUARANTINE_SCOPE` they
        degrade to a raised :class:`InjectedFault` so the supervising
        process survives to record them.
        """
        kind = self.decide(spec)
        if self.fires(kind, attempt):
            if kind == POISON or kind == RAISE or scope != WORKER_SCOPE:
                raise InjectedFault(
                    f"injected {kind} fault "
                    f"(attempt {attempt}, scope {scope}, "
                    f"spec {spec_fingerprint(spec)})")
            if kind == CRASH:
                os._exit(_EXIT_CODE)
            if kind == HANG:
                # The watchdog terminates the worker mid-sleep; if the
                # budget is generous the trial simply completes late.
                time.sleep(self.chaos.hang_seconds)

    def apply(self, spec: TrialSpec, attempt: int,
              scope: str = WORKER_SCOPE):
        """Execute ``spec`` after firing its fault (see :meth:`fire`)."""
        self.fire(spec, attempt, scope)
        return execute_trial(spec)


def build_injector(chaos: Optional[ChaosConfig]) -> Optional[FaultInjector]:
    """An injector for ``chaos``, or ``None`` when chaos is off/inert."""
    if chaos is None or not chaos.active:
        return None
    return FaultInjector(chaos)


__all__ = [
    "CHAOS_ENV",
    "CRASH",
    "HANG",
    "RAISE",
    "POISON",
    "TORN",
    "FAULT_KINDS",
    "WORKER_SCOPE",
    "SERIAL_SCOPE",
    "QUARANTINE_SCOPE",
    "ChaosConfig",
    "FaultInjector",
    "InjectedFault",
    "build_injector",
    "parse_chaos_spec",
    "spec_fingerprint",
]
