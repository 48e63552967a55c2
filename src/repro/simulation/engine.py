"""The execution engine: one core for steps and acceptable windows.

An execution is a sequence of the model's steps — sending, receiving,
resetting, plus the crash failures of Sections 1 and 5.  :class:`Engine`
owns the processors, the network, the trace and the decision bookkeeping,
and exposes one primitive per step kind: :meth:`Engine.send`,
:meth:`Engine.receive`, :meth:`Engine.reset` and :meth:`Engine.crash`.  Two
scheduling policies sit on top of them:

* :meth:`Engine.apply_step` applies one fine-grained step chosen by a
  :class:`StepAdversary`.  The classical asynchronous adversaries (crash
  and Byzantine) need this granularity; Byzantine message corruption needs
  per-message control.
* :meth:`Engine.run_window` applies one acceptable window chosen by a
  :class:`~repro.simulation.windows.WindowAdversary`: by Definition 1 a
  window is just a particular arrangement of the same steps, which is what
  the strongly adaptive adversary schedules and what the running-time
  measure of Theorems 4 and 5 counts.

:meth:`Engine.run` drives either kind of adversary; the unit (windows or
steps) follows from the cap keyword it is given.
"""

from __future__ import annotations

import copy
import random
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from repro.simulation.configuration import Configuration
from repro.simulation.errors import AdversaryBudgetError, InvalidStepError
from repro.simulation.events import Step, StepType
from repro.simulation.message import Message
from repro.simulation.network import Network
from repro.simulation.processor import Processor
from repro.simulation.trace import ExecutionResult, ExecutionTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.protocols.base import ProtocolFactory
    from repro.simulation.windows import WindowAdversary, WindowSpec


class StepAdversary:
    """Interface for adversaries that schedule one step at a time.

    The adversary is full-information: it can inspect the engine (all
    processor states, all pending messages) before choosing each step.
    """

    def bind(self, engine: "Engine") -> None:
        """Called once before the execution starts."""

    def next_step(self, engine: "Engine") -> Optional[Step]:
        """Return the next step to schedule, or ``None`` to stop."""
        raise NotImplementedError


class Engine:
    """Executes a protocol step by step or window by window."""

    def __init__(self, factory: "ProtocolFactory", inputs: Sequence[int],
                 seed: Optional[int] = None,
                 crash_budget: Optional[int] = None,
                 reset_budget: Optional[int] = None,
                 record_configurations: bool = False,
                 record_trace: bool = False) -> None:
        """Build the engine.

        Args:
            factory: builds the per-processor protocol instances.
            inputs: the ``n`` initial input bits.
            seed: master seed for all processor randomness.
            crash_budget: maximum number of crash failures over the whole
                execution (defaults to ``t``, the crash model's bound).
            reset_budget: cap on the total number of resetting steps
                (defaults to unlimited; windows already bound resets to
                ``t`` per window).
            record_configurations: keep the initial configuration and a
                snapshot after every window (needed by the lower-bound
                machinery, off by default to keep long executions cheap).
            record_trace: keep a full :class:`ExecutionTrace` of every
                window, send, delivery, reset, crash and decision for the
                verification layer (off by default).
        """
        self.factory = factory
        self.n = factory.n
        self.t = factory.t
        self.inputs = tuple(inputs)
        self.crash_budget = self.t if crash_budget is None else crash_budget
        self.reset_budget = reset_budget
        self.record_configurations = record_configurations
        self.trace: Optional[ExecutionTrace] = None
        if record_trace:
            self.trace = ExecutionTrace(
                engine="step", n=self.n, t=self.t, inputs=self.inputs,
                seed=seed, crash_budget=self.crash_budget,
                reset_budget=reset_budget)
        self.network = Network(self.n)
        protocols = factory.build(list(inputs), seed=seed)
        self.processors: List[Processor] = [Processor(p) for p in protocols]
        # Only Engine.crash marks a processor crashed, so it alone
        # rebuilds this tuple; adversaries read it on every step.
        self._live_pids: Tuple[int, ...] = tuple(
            proc.pid for proc in self.processors)
        self.window_index = 0
        self.steps_taken = 0
        self.total_crashes = 0
        self.total_resets = 0
        self._first_decision_window: Optional[int] = None
        self._first_decision_step: Optional[int] = None
        self._configurations: List[Configuration] = []
        # Decision bookkeeping, maintained incrementally so that the stop
        # checks before every step or window are O(1) instead of scanning
        # all processors.
        self._decided_count = sum(1 for proc in self.processors
                                  if proc.decided)
        self._live_undecided = sum(1 for proc in self.processors
                                   if not proc.crashed and not proc.decided)
        if record_configurations:
            self._configurations.append(self.configuration())

    # ------------------------------------------------------------------
    # Inspection (what a full-information adversary can see).
    # ------------------------------------------------------------------
    def configuration(self) -> Configuration:
        """Snapshot the joint processor state."""
        return Configuration(states=tuple(
            proc.state_fingerprint() for proc in self.processors))

    def live_processors(self) -> Tuple[int, ...]:
        """Identities of processors that have not crashed."""
        return self._live_pids

    def crashed_processors(self) -> List[int]:
        """Identities of crashed processors."""
        return [proc.pid for proc in self.processors if proc.crashed]

    def current_estimates(self) -> List[Optional[int]]:
        """Each processor's current estimate, as exposed by the protocol."""
        return [proc.protocol.current_estimate() for proc in self.processors]

    def pending_messages(self) -> List[Message]:
        """All undelivered messages."""
        return self.network.all_pending()

    def outputs(self) -> Tuple[Optional[int], ...]:
        """Current output bits."""
        return tuple(proc.output for proc in self.processors)

    def any_decided(self) -> bool:
        """Whether some processor has decided."""
        return self._decided_count > 0

    def all_live_decided(self) -> bool:
        """Whether every non-crashed processor has decided."""
        return self._live_undecided == 0

    @property
    def configurations(self) -> List[Configuration]:
        """Recorded per-window configurations (if recording was enabled)."""
        return list(self._configurations)

    # ------------------------------------------------------------------
    # Cloning (used by lookahead adversaries and the lower-bound
    # machinery, which must explore alternative continuations of the same
    # partial execution).
    # ------------------------------------------------------------------
    def clone(self) -> "Engine":
        """A deep copy of the engine, sharing no mutable state."""
        return copy.deepcopy(self)

    def reseed(self, seed: int) -> None:
        """Replace every processor's randomness stream.

        Cloned engines carry cloned random-number generators, which would
        make repeated Monte-Carlo continuations identical; reseeding with
        distinct values restores independent local randomness, matching the
        model's assumption that each processor's source is fresh and
        independent.
        """
        master = random.Random(seed)
        for proc in self.processors:
            proc.protocol.rng.seed(master.getrandbits(64))

    # ------------------------------------------------------------------
    # The four primitives.  ``window`` is the index of the window the
    # event belongs to, recorded in the trace (``None`` for single steps).
    # ------------------------------------------------------------------
    def send(self, pid: int, window: Optional[int] = None) -> None:
        """Processor ``pid`` takes a sending step."""
        proc = self.processors[pid]
        if proc.crashed:
            raise InvalidStepError(
                f"crashed processor {pid} cannot take a sending step")
        was_decided = proc.decided
        messages = proc.send_step()
        if messages:
            messages = self.network.submit(
                messages, chain_depth=proc.outgoing_chain_depth)
        if self.trace is not None:
            self.trace.record_send(pid, messages, window=window)
        if not was_decided and proc.decided:
            self._note_decision(proc, window)

    def receive(self, pid: int, messages: Sequence[Message],
                window: Optional[int] = None,
                corrupted: bool = False) -> None:
        """Processor ``pid`` receives a batch of already-removed messages.

        Decision bookkeeping runs once per batch, so a window's deliveries
        to one receiver cost one decision check, not one per message.
        """
        proc = self.processors[pid]
        was_decided = proc.decided
        trace = self.trace
        receive_step = proc.receive_step
        for message in messages:
            if trace is not None:
                trace.record_deliver(message, window=window,
                                     corrupted=corrupted)
            receive_step(message)
        if not was_decided and proc.decided:
            self._note_decision(proc, window)

    def reset(self, pid: int, window: Optional[int] = None) -> None:
        """Processor ``pid`` suffers a resetting failure."""
        if self.reset_budget is not None and \
                self.total_resets >= self.reset_budget:
            raise AdversaryBudgetError("reset budget exhausted")
        proc = self.processors[pid]
        was_decided = proc.decided
        proc.reset()
        self.total_resets += 1
        if self.trace is not None:
            self.trace.record_reset(pid, window=window)
        if not was_decided and proc.decided:
            self._note_decision(proc, window)

    def crash(self, pid: int, window: Optional[int] = None) -> None:
        """Processor ``pid`` crashes (a no-op if it already has)."""
        proc = self.processors[pid]
        if proc.crashed:
            return
        if self.total_crashes >= self.crash_budget:
            raise AdversaryBudgetError(
                f"adversary exceeded crash budget of {self.crash_budget}")
        if not proc.decided:
            self._live_undecided -= 1
        proc.crash()
        self._live_pids = tuple(p for p in self._live_pids if p != pid)
        self.total_crashes += 1
        if self.trace is not None:
            self.trace.record_crash(pid, window=window)

    def _note_decision(self, proc: Processor, window: Optional[int]) -> None:
        """Count a processor's first decision and trace it."""
        self._decided_count += 1
        if not proc.crashed:
            self._live_undecided -= 1
        if self.trace is not None:
            self.trace.record_decide(proc.pid, proc.output, window=window)

    # ------------------------------------------------------------------
    # Scheduling policies.
    # ------------------------------------------------------------------
    def apply_step(self, step: Step) -> None:
        """Apply one step chosen by a step adversary."""
        kind = step.step_type
        if kind is StepType.SEND:
            self.send(step.pid)
        elif kind is StepType.RECEIVE:
            if step.message is None:
                raise InvalidStepError("receive step carries no message")
            message = self.network.deliver(step.message)
            if self.processors[message.receiver].crashed:
                # Deliveries to crashed processors are silently lost: the
                # model only requires delivery to processors taking
                # infinitely many steps.
                if self.trace is not None:
                    self.trace.record_deliver(message, lost=True)
            else:
                corrupted = step.corrupted_payload is not None
                if corrupted:
                    message = message.corrupted(step.corrupted_payload)
                self.receive(message.receiver, (message,),
                             corrupted=corrupted)
        elif kind is StepType.RESET:
            self.reset(step.pid)
        elif kind is StepType.CRASH:
            self.crash(step.pid)
        else:  # pragma: no cover - enum is exhaustive
            raise InvalidStepError(f"unknown step type {kind}")
        self.steps_taken += 1
        if self._first_decision_step is None and self._decided_count:
            self._first_decision_step = self.steps_taken

    def run_window(self, spec: "WindowSpec") -> None:
        """Execute one acceptable window.

        The window applies the primitives in the order Definition 1
        prescribes: crashes (when used in the crash model) take effect
        first, then all live processors take sending steps in identity
        order, then each live processor receives the freshly sent messages
        from its sender set (``deliver_last`` senders stably last), and
        finally the non-crashed processors of ``R`` are reset.
        """
        spec.validate(self.n, self.t)
        window = self.window_index
        trace = self.trace
        if trace is not None:
            # The trace is labelled by the policy that filled it.
            trace.engine = "window"
            trace.record_window(spec)
        for pid in sorted(spec.crashes):
            self.crash(pid, window)

        live = [proc.pid for proc in self.processors if not proc.crashed]
        for pid in live:
            self.send(pid, window)

        # The adversary controls the order of receiving steps within the
        # window; deprioritised senders are delivered last.
        take = self.network.take_window_deliveries
        senders_for = spec.senders_for
        deliver_last = spec.deliver_last
        for pid in live:
            deliveries = take(pid, senders_for[pid])
            if deliver_last:
                # Stable partition: deliveries arrive sorted by sender, so
                # this equals sorting by (sender in deliver_last, sender)
                # without the per-message key calls.
                deliveries = (
                    [m for m in deliveries if m.sender not in deliver_last]
                    + [m for m in deliveries if m.sender in deliver_last])
            self.receive(pid, deliveries, window)

        for pid in sorted(spec.resets):
            if not self.processors[pid].crashed:
                self.reset(pid, window)

        self.window_index = window + 1
        if self._first_decision_window is None and self._decided_count:
            self._first_decision_window = self.window_index
        if self.record_configurations:
            self._configurations.append(self.configuration())

    def run(self, adversary: Union["WindowAdversary", StepAdversary],
            max_windows: Optional[int] = None,
            max_steps: Optional[int] = None,
            stop_when: str = "all") -> ExecutionResult:
        """Run ``adversary`` until a stop condition or the cap.

        Args:
            adversary: a window adversary (``next_window``) when
                ``max_windows`` is given, a step adversary (``next_step``,
                which may return ``None`` to stop) when ``max_steps`` is.
            max_windows: hard cap on windows (the caller's stand-in for
                "the adversary gave up"); executions that hit the cap are
                reported undecided-so-far rather than erroring.
            max_steps: hard cap on steps.
            stop_when: ``"first"`` stops as soon as any processor decides
                (the paper's running-time measure), ``"all"`` keeps going
                until every live processor has decided.

        Returns:
            An :class:`ExecutionResult` for the (partial) execution.
        """
        if stop_when not in ("first", "all"):
            raise ValueError("stop_when must be 'first' or 'all'")
        if (max_windows is None) == (max_steps is None):
            raise ValueError("give exactly one of max_windows or max_steps")
        done = self.any_decided if stop_when == "first" \
            else self.all_live_decided
        adversary.bind(self)
        if max_windows is not None:
            next_window = adversary.next_window
            while self.window_index < max_windows and not done():
                self.run_window(next_window(self))
        else:
            next_step = adversary.next_step
            while self.steps_taken < max_steps and not done():
                step = next_step(self)
                if step is None:
                    break
                self.apply_step(step)
        return self.result()

    def result(self) -> ExecutionResult:
        """Summarise the execution so far."""
        outputs = self.outputs()
        chain_depths = [proc.deciding_chain_depth for proc in self.processors
                        if proc.deciding_chain_depth is not None]
        decided_values = {o for o in outputs if o is not None}
        return ExecutionResult(
            n=self.n,
            t=self.t,
            inputs=self.inputs,
            outputs=outputs,
            crashed=tuple(self.crashed_processors()),
            windows_elapsed=self.window_index,
            steps_elapsed=self.steps_taken,
            first_decision_window=self._first_decision_window,
            first_decision_step=self._first_decision_step,
            message_chain_length=min(chain_depths) if chain_depths else None,
            messages_sent=self.network.sent_count,
            messages_delivered=self.network.delivered_count,
            total_resets=self.total_resets,
            total_coin_flips=sum(proc.protocol.coin_flips
                                 for proc in self.processors),
            agreement_violated=len(decided_values) > 1,
            validity_violated=bool(decided_values) and
            not decided_values.issubset(set(self.inputs)),
            configurations=self.configurations,
            trace=self.trace,
        )


__all__ = ["Engine", "StepAdversary"]
