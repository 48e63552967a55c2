"""Picklable trial specifications and the worker-side executor.

A :class:`TrialSpec` is a plain-data description of one Monte Carlo trial:
which protocol (by :mod:`repro.protocols.registry` name), which adversary
(by :mod:`repro.adversaries.registry` name, plus constructor kwargs), the
system size, the inputs, and the per-trial seeds.  Because a spec is plain
data it pickles cheaply across process boundaries, and because every source
of randomness is pinned by explicit seeds, executing the same spec anywhere
— in-process or in a worker — produces the identical
:class:`~repro.simulation.trace.ExecutionResult`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.adversaries.registry import build_adversary
from repro.protocols.base import ProtocolFactory
from repro.protocols.registry import get_protocol
from repro.simulation.engine import Engine
from repro.simulation.trace import ExecutionResult

WINDOW_ENGINE = "window"
STEP_ENGINE = "step"


def derive_seed(master_seed: int, index: int) -> int:
    """A deterministic, platform-independent 64-bit per-trial seed.

    Hash-derived so that distinct trial indices get statistically
    independent streams while the whole experiment stays reproducible from
    one master seed.  (The experiment functions predating the runner draw
    their seeds from a ``random.Random(master_seed)`` stream instead, to
    preserve their historical outputs; new runner users should prefer this.)
    """
    digest = hashlib.sha256(f"{master_seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class TrialSpec:
    """One trial of one experiment, as plain picklable data.

    Attributes:
        protocol: protocol registry name (see
            :func:`repro.protocols.registry.get_protocol`).
        adversary: adversary registry name (see
            :data:`repro.adversaries.registry.ADVERSARIES`).
        n: number of processors.
        t: fault bound.
        inputs: the ``n`` input bits.
        seed: master seed for the engine's processor randomness.
        adversary_kwargs: constructor kwargs for the adversary; must be
            picklable plain data (a Byzantine ``strategy`` may be given as
            a registry name string).
        protocol_kwargs: extra kwargs forwarded to the protocol constructor
            (e.g. a ``ThresholdConfig`` for the ablation experiment).
        engine: ``"window"`` to schedule acceptable windows (the paper's
            strongly adaptive model) or ``"step"`` to schedule fine-grained
            asynchronous steps.
        max_windows: window cap (window scheduling).
        max_steps: step cap (step scheduling).
        stop_when: ``"first"`` or ``"all"``, as in ``Engine.run``.
        record_configurations: keep per-window configuration snapshots
            (window scheduling only).
        record_trace: attach a full
            :class:`~repro.simulation.trace.ExecutionTrace` to the result,
            for the invariant checker and the differential replayer
            (:mod:`repro.verification`).
        tag: opaque grouping key used by the aggregation helpers; trials of
            the same experiment cell share a tag.
    """

    protocol: str
    adversary: str
    n: int
    t: int
    inputs: Tuple[int, ...]
    seed: Optional[int] = None
    adversary_kwargs: Dict[str, Any] = field(default_factory=dict)
    protocol_kwargs: Dict[str, Any] = field(default_factory=dict)
    engine: str = WINDOW_ENGINE
    max_windows: int = 10000
    max_steps: int = 400000
    stop_when: str = "all"
    record_configurations: bool = False
    record_trace: bool = False
    tag: Any = None

    def __post_init__(self) -> None:
        if self.engine not in (WINDOW_ENGINE, STEP_ENGINE):
            raise ValueError(
                f"engine must be {WINDOW_ENGINE!r} or {STEP_ENGINE!r}, "
                f"got {self.engine!r}")
        if self.stop_when not in ("first", "all"):
            raise ValueError("stop_when must be 'first' or 'all'")
        object.__setattr__(self, "inputs", tuple(self.inputs))


def build_engine(spec: TrialSpec) -> Engine:
    """A fresh engine for ``spec``: its protocol, size, inputs and seed.

    This is the one place a spec becomes an
    :class:`~repro.simulation.engine.Engine`; configuration snapshots are
    recorded on the window engine only.
    """
    info = get_protocol(spec.protocol)
    factory = ProtocolFactory(info.protocol_cls, n=spec.n, t=spec.t,
                              **spec.protocol_kwargs)
    return Engine(factory, list(spec.inputs), seed=spec.seed,
                  record_configurations=spec.engine == WINDOW_ENGINE and
                  spec.record_configurations,
                  record_trace=spec.record_trace)


def execute_trial(spec: TrialSpec) -> ExecutionResult:
    """Run one trial described by ``spec`` and return its result.

    This is the worker-side entry point of the parallel runner; it is also
    the serial fallback, so results are bit-identical regardless of where a
    spec executes.  The adversary is built before the engine: an unseeded
    adversary draws from the global stream ahead of the engine.
    """
    adversary = build_adversary(spec.adversary, **spec.adversary_kwargs)
    engine = build_engine(spec)
    if spec.engine == WINDOW_ENGINE:
        return engine.run(adversary, max_windows=spec.max_windows,
                          stop_when=spec.stop_when)
    return engine.run(adversary, max_steps=spec.max_steps,
                      stop_when=spec.stop_when)


__all__ = ["TrialSpec", "build_engine", "execute_trial", "derive_seed",
           "WINDOW_ENGINE", "STEP_ENGINE"]
