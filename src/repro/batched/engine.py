"""The vectorized window engine: many trials of one cell in one process.

:class:`BatchedWindowEngine` executes a batch of same-shaped
:class:`~repro.runner.spec.TrialSpec` objects (the reset-tolerant protocol,
one adversary class, one ``(n, t)``) with every piece of per-processor
state laid out as numpy arrays over ``trials x processors``.  It is a
*re-implementation* of the per-trial window pipeline —
:meth:`~repro.simulation.engine.Engine.run_window`,
:class:`~repro.simulation.network.Network`,
:class:`~repro.simulation.processor.Processor` and the protocol objects —
under one hard contract: **bit identity**.  Every
:class:`~repro.simulation.trace.ExecutionResult` field must equal what
:func:`~repro.runner.spec.execute_trial` produces for the same spec, which
the differential harness in :mod:`repro.verification.batched_diff` and the
engine tests enforce continuously.

Bit identity dictates the design:

* **Randomness** comes from real ``random.Random`` replicas, derived
  exactly as ``ProtocolFactory.build`` derives them (one master stream per
  trial, one 64-bit spawn per processor in pid order).  Each stream feeds
  nothing but its processor's coin flips, drawn on demand with one
  ``getrandbits(1)`` call per flip — exactly how the per-trial protocols
  advance the same streams.  A replica is built from its seed on its
  processor's first flip; most processors never flip one.  Split-vote adversaries likewise hold
  per-trial ``seeded_rng`` replicas and call ``Random.sample`` on the same
  pid-ordered lists the oracle samples from.
* **Channels** are fixed-depth LIFO rings per directed processor pair.
  The per-trial network keeps unbounded per-channel deques but acceptable
  windows only ever *pop the newest* message per channel, so a depth-
  ``CHANNEL_DEPTH`` ring with absolute push positions is exact as long as
  no pop reaches below the ring's high-water mark; a pop that would read
  an overwritten slot **quarantines** the trial (see below).
* **Vote bookkeeping** uses one ``uint64`` sender bitmask per (trial,
  processor, round-slot): insertion, duplicate-sender overwrite and tally
  counts (``np.bitwise_count``) are all O(1) array ops.  Round slots
  form a ring of ``RING_SLOTS`` future rounds; a message further ahead
  than the ring covers also quarantines its trial.
* **Delivery order** is the oracle's per-receiver order: the senders not
  marked ``deliver_last`` ascending, then the marked ones ascending.
  Receivers are independent within a window (every send precedes every
  delivery), so the general window pops all its channels at once and
  then inserts the votes in ``n`` delivery-position steps: at step ``k``
  every (trial, receiver) pair takes its trial's ``k``-th sender.
* **Closed-form windows** skip those steps.  When every synchronised
  processor of every active trial shares one round with an empty vote
  ring, and every processor a reset left resyncing holds an empty ring
  (see "Synchronized fast path" below), each receiver's window is one
  tally of its first ``T1`` votes.  That covers the steady state of all
  four adversaries, resetting windows included; the general window runs
  only for states outside it (stale channels, sub-``T1`` resync tallies,
  buffered future rounds), which non-default thresholds reach.

**Quarantine** is the batch's escape hatch: a trial whose execution
leaves the vectorizable envelope (deep channel backlog, far-future
round) is dropped from the batch *without a result* and reported back
to the caller; :func:`run_group` re-runs it through the per-trial
oracle.  Quarantine therefore affects speed, never values.

The engine stops per trial exactly like ``Engine.run`` with a window cap:
the stop predicate (``stop_when``) is evaluated *before* each window, and a
trial also stops once ``window_index`` reaches its ``max_windows``.  When the
active fraction of the batch drops below half (common under the
exponential window spreads of the E2 workload), the batch *compacts*,
gathering all live state down to the surviving trials.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.batched.support import effective_thresholds
from repro.determinism import seeded_rng
from repro.runner.spec import TrialSpec, execute_trial
from repro.simulation.trace import ExecutionResult

RING_SLOTS = 8
"""Future rounds buffered per processor before a trial quarantines."""

CHANNEL_DEPTH = 8
"""Messages retained per directed channel before old entries may evict."""

# One channel message is packed into a single int64 —
# [round:24][chain:24][value+1:2] — so a push is one scatter and a pop one
# gather instead of three of each.  support.py caps max_windows far below
# the 24-bit field widths.
_ROUND_SHIFT = 26
_CHAIN_SHIFT = 2
_CHAIN_MASK = 0xFFFFFF


def _popcount(mask: np.ndarray) -> np.ndarray:
    return np.bitwise_count(mask).astype(np.int64)


PHASES = ("deliver", "tally", "decide")
"""The window phases the engine times (see :class:`BatchedWindowEngine`)."""


def run_group(specs: Sequence[TrialSpec]
              ) -> Tuple[List[ExecutionResult], int, Dict[str, float]]:
    """One batched chunk, complete: ``(results, quarantined_count,
    stats)``.

    Trials the engine quarantines mid-batch are re-executed here on the
    per-trial oracle, so every position holds a result.  ``stats`` holds
    the fields of the batch's telemetry span: this batch's engine seconds
    per :data:`PHASES` entry (``deliver_s``...), the ``windows`` the
    engine ran and how many of them were ``general_windows``.
    """
    engine = BatchedWindowEngine(specs)
    # The timer dict may be a long-lived one that a profiling hook
    # injected (perfbench's ``--trace 1``): report this batch's share.
    before = dict(engine.phase_timers)
    results, quarantined = engine.run()
    stats: Dict[str, float] = {
        f"{name}_s": engine.phase_timers[name] - before[name]
        for name in PHASES}
    stats["windows"] = engine.windows
    stats["general_windows"] = engine.general_windows
    for index in quarantined:
        results[index] = execute_trial(specs[index])
    return results, len(quarantined), stats


class BatchedWindowEngine:
    """Vectorized execution of one batch of same-signature trials.

    Args:
        specs: trial specs sharing one
            :func:`~repro.batched.support.batch_signature`; every spec
            must have passed
            :func:`~repro.batched.support.unsupported_reason`.
        phase_timers: the dict the engine adds its seconds per window
            phase (:data:`PHASES`) into, exposed as ``self.phase_timers``;
            ``None`` makes a fresh one.  ``perf_counter`` intervals only,
            never read by the engine, so results stay bit-identical.

    Use :meth:`run`; it returns ``(results, quarantined)`` where
    ``results`` holds one :class:`ExecutionResult` per input spec (``None``
    at quarantined positions) and ``quarantined`` lists the indices that
    need the per-trial oracle.
    """

    _COMPACT = ("orig", "active", "window", "max_windows", "pending",
                "output", "max_chain", "deciding_chain", "first_decision",
                "sent", "delivered", "resets_total", "coin_total", "ch_pack",
                "ch_pos")

    def __init__(self, specs: Sequence[TrialSpec],
                 phase_timers: Optional[Dict[str, float]] = None) -> None:
        self.specs: List[TrialSpec] = list(specs)
        self.phase_timers = {} if phase_timers is None else phase_timers
        for name in PHASES:
            self.phase_timers.setdefault(name, 0.0)
        if not self.specs:
            raise ValueError("empty batch")
        first = self.specs[0]
        self.n = first.n
        self.t = first.t
        self.stop_first = first.stop_when == "first"
        self.size = len(self.specs)
        trials, n = self.size, self.n

        self.orig = np.arange(trials, dtype=np.int64)
        self.active = np.ones(trials, dtype=bool)
        self.window = np.zeros(trials, dtype=np.int64)
        self.max_windows = np.array([spec.max_windows for spec in self.specs],
                                    dtype=np.int64)
        self.first_decision = np.full(trials, -1, dtype=np.int64)
        self.sent = np.zeros(trials, dtype=np.int64)
        self.delivered = np.zeros(trials, dtype=np.int64)
        self.resets_total = np.zeros(trials, dtype=np.int64)
        self.coin_total = np.zeros(trials, dtype=np.int64)

        self.pending = np.ones((trials, n), dtype=bool)
        self.output = np.full((trials, n), -1, dtype=np.int8)
        self.max_chain = np.zeros((trials, n), dtype=np.int32)
        self.deciding_chain = np.full((trials, n), -1, dtype=np.int32)

        self.ch_pack = np.zeros((trials, n, n, CHANNEL_DEPTH),
                                dtype=np.int64)
        # Per-channel cursor state, one int64 per (trial, receiver,
        # sender): [high-water:32][top:32].  One gather/scatter moves both.
        self.ch_pos = np.zeros((trials, n, n), dtype=np.int64)

        # Per-(trial, processor) RNG replicas, derived exactly as
        # ProtocolFactory.build derives them.  Each stream feeds nothing
        # but that processor's coin flips, so drawing on demand keeps it
        # bit-identical to the per-trial protocol object's stream.  The
        # 64-bit seeds are drawn here, in pid order; an entry stays that
        # int until its processor's first flip builds the Random (most
        # processors never flip a coin).
        self.rngs: List[List[Union[int, random.Random]]] = []
        for spec in self.specs:
            master = seeded_rng(spec.seed)
            self.rngs.append([master.getrandbits(64) for _ in range(n)])

        self.results: List[Optional[ExecutionResult]] = [None] * trials
        self.quarantined: List[int] = []
        # Windows run, and how many of them took the general path.
        self.windows = 0
        self.general_windows = 0

        self.kernel = _ResetTolerantKernel(self, effective_thresholds(first))

        adversary = first.adversary
        if adversary == "benign":
            self.driver: Any = _BenignDriver()
        elif adversary == "silencing":
            self.driver = _SilencingDriver(self)
        else:
            self.driver = _SplitVoteDriver(
                self, adaptive=(adversary == "adaptive-resetting"))

    # ------------------------------------------------------------------
    # Main loop.
    # ------------------------------------------------------------------
    def run(self) -> Tuple[List[Optional[ExecutionResult]], List[int]]:
        """Execute the batch; returns ``(results, quarantined_indices)``."""
        timers = self.phase_timers
        while True:
            start = time.perf_counter()
            self._finish_ready()
            timers["decide"] += time.perf_counter() - start
            remaining = int(self.active.sum())
            if remaining == 0:
                break
            if remaining * 2 <= self.active.shape[0]:
                self._compact()
            senders, deliver_last, resets = self.driver.next_window(self)
            self._run_window(senders, deliver_last, resets)
        return self.results, self.quarantined

    def _finish_ready(self) -> None:
        """Build results for trials whose stop predicate now holds.

        Mirrors ``Engine.run``: the stop check precedes each window,
        and the window cap ends a trial regardless of decisions.
        """
        decided = self.output >= 0
        if self.stop_first:
            stopped = decided.any(axis=1)
        else:
            # "all": every processor decided (no supported adversary
            # crashes one).
            stopped = decided.all(axis=1)
        done = self.active & (stopped | (self.window >= self.max_windows))
        if not done.any():
            return
        for index in np.flatnonzero(done):
            i = int(index)
            self.results[int(self.orig[i])] = self._build_result(i)
        self.active &= ~done

    def _build_result(self, i: int) -> ExecutionResult:
        spec = self.specs[i]
        outputs = tuple(None if bit < 0 else int(bit)
                        for bit in self.output[i].tolist())
        decided_values = {bit for bit in outputs if bit is not None}
        chains = self.deciding_chain[i]
        deciding = chains[chains >= 0]
        first_decision = int(self.first_decision[i])
        return ExecutionResult(
            n=self.n,
            t=self.t,
            inputs=tuple(spec.inputs),
            outputs=outputs,
            crashed=(),
            windows_elapsed=int(self.window[i]),
            first_decision_window=(None if first_decision < 0
                                   else first_decision),
            message_chain_length=(int(deciding.min()) if deciding.size
                                  else None),
            messages_sent=int(self.sent[i]),
            messages_delivered=int(self.delivered[i]),
            total_resets=int(self.resets_total[i]),
            total_coin_flips=int(self.coin_total[i]),
            agreement_violated=len(decided_values) > 1,
            validity_violated=(not decided_values <= set(spec.inputs)
                               if decided_values else False),
        )

    def _quarantine(self, trial_mask: np.ndarray) -> None:
        """Drop trials from the batch; the runner re-runs them per trial."""
        fresh = trial_mask & self.active
        if not fresh.any():
            return
        for index in np.flatnonzero(fresh):
            self.quarantined.append(int(self.orig[int(index)]))
        self.active &= ~fresh

    def _quarantine_trials(self, trial_indices: np.ndarray) -> None:
        """Quarantine by (possibly repeated) trial index."""
        mask = np.zeros(self.active.shape, dtype=bool)
        mask[trial_indices] = True
        self._quarantine(mask)

    def _compact(self) -> None:
        """Gather all state down to the still-active trials."""
        keep = np.flatnonzero(self.active)
        if keep.size == self.active.shape[0]:
            return
        for name in self._COMPACT:
            setattr(self, name, getattr(self, name)[keep])
        keep_list = [int(i) for i in keep]
        self.specs = [self.specs[i] for i in keep_list]
        self.rngs = [self.rngs[i] for i in keep_list]
        self.kernel.gather(keep)
        self.driver.gather(keep)

    # ------------------------------------------------------------------
    # One acceptable window (mirrors Engine.run_window phase order).
    # ------------------------------------------------------------------
    def _run_window(self, senders: np.ndarray,
                    deliver_last: Optional[np.ndarray],
                    resets: Optional[np.ndarray]) -> None:
        self.windows += 1
        if self._fast_ready(senders):
            self._fast_window(senders, deliver_last, resets)
            return
        # The general path interleaves sending/delivery/reset work too
        # tightly to split; it all books under "deliver".
        self.general_windows += 1
        start = time.perf_counter()
        self._slow_window(senders, deliver_last, resets)
        self.phase_timers["deliver"] += time.perf_counter() - start

    def _slow_window(self, senders: np.ndarray,
                     deliver_last: Optional[np.ndarray],
                     resets: Optional[np.ndarray]) -> None:
        act = self.active.copy()
        act_procs = np.broadcast_to(act[:, None], self.pending.shape)
        kernel = self.kernel

        # Phase 1: every active processor takes its sending step.  The
        # pending flag is consumed for all of them; only those that are
        # synchronised and hold an estimate actually broadcast.
        sending = act_procs & self.pending & ~kernel.resync \
            & (kernel.round >= 0) & (kernel.est >= 0)
        self.pending &= ~act_procs
        if sending.any():
            self.sent += sending.sum(axis=1, dtype=np.int64) * self.n
            self._push(sending, kernel.round, kernel.est,
                       (self.max_chain + 1).astype(np.int32))

        # Phase 2: receiving steps.  Receivers are mutually independent
        # within a window (all sends precede all deliveries), so one sweep
        # by delivery position serves them all: at step k every permitted
        # (trial, receiver) pair takes its trial's k-th sender in the
        # oracle's per-receiver order.  Each channel pops at most once per
        # window, so all the pops happen up front.
        bounds, tt, rr, ss, msg_round, msg_chain, msg_value = \
            self._deliver(act, senders, self._delivery_order(deliver_last))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if lo == hi:
                continue
            t, r, chain = tt[lo:hi], rr[lo:hi], msg_chain[lo:hi]
            # Step by step: a quorum firing mid-window records the chain
            # seen so far as its deciding chain.
            growing = chain > self.max_chain[t, r]
            if growing.any():
                self.max_chain[t[growing], r[growing]] = chain[growing]
            kernel.insert(ss[lo:hi], t, r, msg_round[lo:hi],
                          msg_value[lo:hi])

        self._end_window(act, resets)

    def _end_window(self, act: np.ndarray,
                    resets: Optional[np.ndarray]) -> None:
        """Phase 3 (resets, in any order: each touches only its own
        state), then the window count and first-decision bookkeeping."""
        if resets is not None:
            to_reset = resets & act[:, None]
            if to_reset.any():
                self.resets_total += to_reset.sum(axis=1, dtype=np.int64)
                self.pending |= to_reset
                self.kernel.reset(to_reset)
        self.window += act
        newly = act & (self.first_decision < 0) & (self.output >= 0).any(axis=1)
        if newly.any():
            self.first_decision[newly] = self.window[newly]

    # ------------------------------------------------------------------
    # Synchronized fast path.
    #
    # In the steady state of every vectorized workload each synchronised
    # processor sits at one common round with an empty vote ring and a
    # pending receive flag, and each resyncing one (reset, silent until it
    # adopts a round) holds an empty ring with no anchor.  Only the
    # synchronised processors send, and every receiver of a trial gets the
    # same senders in the same order, so a whole window has a closed form
    # per trial: every delivery is a common-round vote, and a receiver
    # fires exactly when its T1-th vote (in delivery order) arrives.  A
    # resyncing receiver does the same: the oracle's T1-th resync vote
    # adopts the round and runs ``_finish_round`` on those T1 votes.  The
    # fired tally is precisely the first T1 votes — later ones are for a
    # past round and are skipped — and the advanced slot 0 is empty, so no
    # cascade follows.  The gate leaves two states this cannot express to
    # the general path: a silent sender's stale channel message, and a
    # resyncing receiver left with a sub-T1 tally (which anchors its ring).
    # One vectorized pass over (trial, sender) then replaces the general
    # path's ``n`` delivery-position steps, bit-identically; the window's
    # resets follow as in the general path's phase 3, timed as "decide".
    # ------------------------------------------------------------------
    def _fast_ready(self, senders: np.ndarray) -> bool:
        """Whether every active trial is in the closed-form state."""
        act_procs = self.active[:, None]
        kernel = self.kernel
        if (kernel.vmask.any(axis=2) & act_procs).any():
            return False
        synced = act_procs & ~kernel.resync
        if (synced & ~self.pending).any():
            return False
        if (synced & (kernel.est < 0)).any():
            return False
        # Resyncing processors hold round -1, below every common round.
        common = kernel.round.max(axis=1, keepdims=True)
        if (synced & (kernel.round != common)).any():
            return False
        resync = act_procs & kernel.resync
        if not resync.any():
            return True
        if (resync & kernel.base_set).any():
            return False
        silent_t, silent_s = np.nonzero(resync & senders)
        if (self.ch_pos[silent_t, :, silent_s] & 0xFFFFFFFF).any():
            return False
        voters = (synced & senders).sum(axis=1)
        short = resync.any(axis=1) & (voters > 0) & (voters < kernel.t1)
        return not short.any()

    def _fast_window(self, senders: np.ndarray,
                     deliver_last: Optional[np.ndarray],
                     resets: Optional[np.ndarray]) -> None:
        timers = self.phase_timers
        mark = time.perf_counter()
        kernel = self.kernel
        n = self.n
        t1, t2, t3 = kernel.t1, kernel.t2, kernel.t3
        act = self.active
        act_procs = act[:, None]

        # Phase 1: every synchronised processor broadcasts
        # (round, est, chain+1); resyncing ones stay silent.
        sending = act_procs & ~kernel.resync
        self.pending &= ~act_procs
        self.sent += sending.sum(axis=1, dtype=np.int64) * n
        est_sent = kernel.est
        chain_sent = (self.max_chain + 1).astype(np.int32)
        packed = (kernel.round.astype(np.int64) << _ROUND_SHIFT) \
            | (chain_sent.astype(np.int64) << _CHAIN_SHIFT) \
            | (est_sent.astype(np.int64) + 1)
        send3 = sending[:, None, :]
        pos = self.ch_pos
        top = pos & 0xFFFFFFFF
        slot = (top % CHANNEL_DEPTH)[..., None]
        current = np.take_along_axis(self.ch_pack, slot, axis=3)
        np.put_along_axis(
            self.ch_pack, slot,
            np.where(send3[..., None],
                     np.broadcast_to(packed[:, None, :, None], current.shape),
                     current),
            axis=3)
        new_top = top + 1
        np.copyto(self.ch_pos,
                  (np.maximum(pos >> 32, new_top) << 32) | new_top,
                  where=send3)

        # Phase 2: every receiver of a trial pops this window's vote from
        # the same permitted senders (silent ones' channels are empty).
        voting = sending & senders
        self.ch_pos -= voting[:, None, :]
        got = voting.sum(axis=1)
        self.delivered += got * n
        self.pending |= act_procs & (got > 0)[:, None]

        # Delivery order: non-deliver-last senders ascending, then the
        # deliver-last ones ascending (the oracle's per-receiver order).
        if deliver_last is not None:
            perm = self._delivery_order(deliver_last)
            voting_o = np.take_along_axis(voting, perm, axis=1)
            val_o = np.take_along_axis(est_sent, perm, axis=1)
            chain_o = np.take_along_axis(chain_sent, perm, axis=1)
        else:
            voting_o, val_o, chain_o = voting, est_sent, chain_sent
        now = time.perf_counter()
        timers["deliver"] += now - mark
        mark = now

        # The first T1 votes in delivery order are the fired tally.
        selected = voting_o & (np.cumsum(voting_o, axis=1) <= t1)
        count = np.minimum(got, t1)
        ones = (selected & (val_o == 1)).sum(axis=1)
        zeros = count - ones

        # Chain bookkeeping: the deciding chain sees only the first T1
        # deliveries (recorded at fire time); max_chain sees them all.
        pre_chain = self.max_chain
        sel_chain = np.where(selected, chain_o, 0).max(axis=1)
        all_chain = np.where(voting, chain_sent, 0).max(axis=1)
        self.max_chain = np.maximum(pre_chain, all_chain[:, None])
        decide_chain = np.maximum(pre_chain, sel_chain[:, None])
        now = time.perf_counter()
        timers["tally"] += now - mark
        mark = now

        # Fire: majority/decide/estimate, exactly _finish_round.  A firing
        # resyncing receiver adopts the common round first.
        fire = np.broadcast_to((act & (got >= t1))[:, None],
                               self.pending.shape)
        majority_zero = zeros >= ones
        majority_value = np.where(majority_zero, 0, 1).astype(np.int8)
        majority_count = np.where(majority_zero, zeros, ones)
        deciding = fire & (majority_count >= t2)[:, None] & (self.output < 0)
        if deciding.any():
            self.output = np.where(deciding, majority_value[:, None],
                                   self.output)
            self.deciding_chain = np.where(deciding, decide_chain,
                                           self.deciding_chain)
        new_est = np.where(fire, majority_value[:, None], est_sent)
        flipping = fire & (majority_count < t3)[:, None]
        if flipping.any():
            ft, fp = np.nonzero(flipping)
            new_est[ft, fp] = self._draw_coins(ft, fp)
        # Sub-T1 tallies buffer in slot 0 (ring was empty, so writing
        # zeros elsewhere is a no-op); fired rings stay empty.  The gate
        # leaves no resyncing receiver in a trial with such a tally.
        tally = act & (got > 0) & (got < t1)
        if tally.any():
            weights = np.uint64(1) << np.arange(n, dtype=np.uint64)
            vm = (voting * weights).sum(axis=1, dtype=np.uint64)
            vo = ((voting & (est_sent == 1)) * weights).sum(
                axis=1, dtype=np.uint64)
            sl0 = kernel.slot_base[..., None]
            tally_procs = tally[:, None, None]
            np.put_along_axis(kernel.vmask, sl0,
                              np.where(tally_procs, vm[:, None, None], 0),
                              axis=2)
            np.put_along_axis(kernel.vones, sl0,
                              np.where(tally_procs, vo[:, None, None], 0),
                              axis=2)
        kernel.est = new_est
        common = kernel.round.max(axis=1, keepdims=True)
        kernel.round = np.where(fire, common + 1, kernel.round)
        kernel.base_round = np.where(fire, kernel.round, kernel.base_round)
        kernel.resync &= ~fire
        kernel.slot_base = ((kernel.slot_base + fire)
                            % RING_SLOTS).astype(np.int32)

        self._end_window(act, resets)
        timers["decide"] += time.perf_counter() - mark

    def _push(self, sending: np.ndarray, rounds: np.ndarray,
              values: np.ndarray, chains: np.ndarray) -> None:
        """Broadcast each sender's message onto all n channel rings."""
        tt, ss = np.nonzero(sending)
        if not tt.size:
            return
        tcol = tt[:, None]
        scol = ss[:, None]
        rrow = np.arange(self.n)[None, :]
        pos = self.ch_pos[tcol, rrow, scol]
        top = pos & 0xFFFFFFFF
        slot = top % CHANNEL_DEPTH
        packed = (rounds[tt, ss].astype(np.int64) << _ROUND_SHIFT) \
            | (chains[tt, ss].astype(np.int64) << _CHAIN_SHIFT) \
            | (values[tt, ss].astype(np.int64) + 1)
        self.ch_pack[tcol, rrow, scol, slot] = packed[:, None]
        new_top = top + 1
        self.ch_pos[tcol, rrow, scol] = \
            np.maximum(pos >> 32, new_top) << 32 | new_top

    def _delivery_order(self, deliver_last: Optional[np.ndarray]
                        ) -> np.ndarray:
        """Each trial's per-receiver delivery order, as sender pids.

        The oracle delivers the non-deliver-last senders ascending, then
        the deliver-last ones ascending: a stable argsort of the flags.
        """
        if deliver_last is None:
            return np.broadcast_to(np.arange(self.n), self.pending.shape)
        return np.argsort(deliver_last, axis=1, kind="stable")

    def _deliver(self, act: np.ndarray, senders: np.ndarray,
                 order: np.ndarray) -> tuple:
        """Pop the newest message on every permitted non-empty channel.

        Returns ``(bounds, trial, receiver, sender, round, chain, value)``:
        flat per-message arrays sorted by delivery position, where
        ``bounds[k]:bounds[k + 1]`` holds the messages at step ``k``.
        """
        trials, n = order.shape
        rows = np.arange(trials)[:, None]
        permitted = act[:, None] & senders[rows, order]
        # (step, trial, receiver): the channel each step pops.
        pos = self.ch_pos[rows, np.arange(n)[None, None, :],
                          order.T[:, :, None]]
        has = permitted.T[:, :, None] & ((pos & 0xFFFFFFFF) > 0)
        kk, tt, rr = np.nonzero(has)
        ss = order[tt, kk]
        pos = pos[kk, tt, rr]
        position = (pos & 0xFFFFFFFF) - 1
        evicted = position < (pos >> 32) - CHANNEL_DEPTH
        if evicted.any():
            # The ring no longer holds this message; the per-trial oracle
            # (with its unbounded deques) must run this trial instead.
            self._quarantine_trials(tt[evicted])
        packed = self.ch_pack[tt, rr, ss, position % CHANNEL_DEPTH]
        self.ch_pos[tt, rr, ss] = (pos & ~np.int64(0xFFFFFFFF)) | position
        self.delivered += np.bincount(tt, minlength=trials)
        self.pending[tt, rr] = True
        bounds = [0] + np.cumsum(np.bincount(kk, minlength=n)).tolist()
        return (bounds, tt, rr, ss,
                (packed >> _ROUND_SHIFT).astype(np.int32),
                ((packed >> _CHAIN_SHIFT) & _CHAIN_MASK).astype(np.int32),
                ((packed & 3) - 1).astype(np.int8))

    def _draw_coins(self, tt: np.ndarray, pp: np.ndarray) -> np.ndarray:
        """One coin flip per (trial, processor) pair, drawn on demand.

        Each per-(trial, processor) stream feeds nothing but that
        processor's coin flips, so a direct ``getrandbits(1)`` here
        advances it exactly as the per-trial protocol object would.
        """
        rngs = self.rngs
        flips = []
        for trial, pid in zip(tt.tolist(), pp.tolist()):
            row = rngs[trial]
            rng = row[pid]
            if type(rng) is int:
                rng = row[pid] = random.Random(rng)
            flips.append(rng.getrandbits(1))
        np.add.at(self.coin_total, tt, 1)
        return np.array(flips, dtype=np.int8)


# ----------------------------------------------------------------------
# Protocol kernel.
# ----------------------------------------------------------------------
class _ResetTolerantKernel:
    """Vectorized ``ResetTolerantAgreement`` state machine.

    Vote tallies live in a ring of ``RING_SLOTS`` round slots per
    processor; slot ``(slot_base + (r - base_round)) % RING_SLOTS`` holds
    round ``r``'s sender bitmask.  For a synchronised processor
    ``base_round == round`` and slot 0 is the current round.  A *resyncing*
    processor (post-reset) anchors the ring two rounds below its first
    buffered vote and, on adoption (``t1`` votes for one round), rebases
    the ring to the adopted round — buffered future votes survive, votes
    for dropped lower rounds are discarded exactly as the oracle never
    revisits them.
    """

    _FIELDS = ("round", "est", "resync", "base_set", "base_round",
               "slot_base", "vmask", "vones")

    def __init__(self, eng: BatchedWindowEngine, thresholds) -> None:
        self.eng = eng
        self.t1 = thresholds.t1
        self.t2 = thresholds.t2
        self.t3 = thresholds.t3
        trials, n = eng.size, eng.n
        self.round = np.ones((trials, n), dtype=np.int32)
        self.est = np.array([spec.inputs for spec in eng.specs],
                            dtype=np.int8)
        self.resync = np.zeros((trials, n), dtype=bool)
        self.base_set = np.zeros((trials, n), dtype=bool)
        self.base_round = np.ones((trials, n), dtype=np.int32)
        self.slot_base = np.zeros((trials, n), dtype=np.int32)
        self.vmask = np.zeros((trials, n, RING_SLOTS), dtype=np.uint64)
        self.vones = np.zeros((trials, n, RING_SLOTS), dtype=np.uint64)

    def gather(self, keep: np.ndarray) -> None:
        for name in self._FIELDS:
            setattr(self, name, getattr(self, name)[keep])

    def insert(self, sender: np.ndarray, tt: np.ndarray, pp: np.ndarray,
               msg_round: np.ndarray, msg_value: np.ndarray) -> None:
        """Record one vote per element: ``sender[i]``'s message at
        processor ``pp[i]`` of trial ``tt[i]``."""
        bit = np.uint64(1) << sender.astype(np.uint64)
        current = self.round[tt, pp]
        resync = self.resync[tt, pp]
        any_resync = bool(resync.any())
        if any_resync:
            first = resync & ~self.base_set[tt, pp]
            base = self.base_round[tt, pp]
            if first.any():
                base = np.where(first, msg_round - 2, base)
                self.base_round[tt[first], pp[first]] = base[first]
                self.base_set[tt[first], pp[first]] = True
            offset = np.where(resync, msg_round - base, msg_round - current)
            # Normal-mode past rounds are a silent skip; a resyncing
            # processor buffers *every* round, so one below the anchor
            # (or beyond the ring, in either mode) leaves the envelope.
            bad = (offset >= RING_SLOTS) | (resync & (offset < 0))
        else:
            offset = msg_round - current
            bad = offset >= RING_SLOTS
        if bad.any():
            self.eng._quarantine_trials(tt[bad])
        keep = (offset >= 0) & (offset < RING_SLOTS)
        if keep.all():
            value = msg_value
        else:
            if not keep.any():
                return
            tt, pp, bit = tt[keep], pp[keep], bit[keep]
            offset = offset[keep]
            value = msg_value[keep]
            msg_round = msg_round[keep]
            resync = resync[keep]
        sl = (self.slot_base[tt, pp] + offset) % RING_SLOTS
        mask0 = self.vmask[tt, pp, sl] | bit
        self.vmask[tt, pp, sl] = mask0
        ones0 = self.vones[tt, pp, sl]
        self.vones[tt, pp, sl] = np.where(value == 1, ones0 | bit,
                                          ones0 & ~bit)
        quorum = _popcount(mask0) >= self.t1
        if not quorum.any():
            return
        if not any_resync:
            firing = quorum & (offset == 0)
            if firing.any():
                self._finish_cascade(tt[firing], pp[firing])
            return
        fire_now = quorum & ~resync & (offset == 0)
        adopt = quorum & resync
        if adopt.any():
            at, ap = tt[adopt], pp[adopt]
            adopted_offset = offset[adopt]
            adopted_round = msg_round[adopt]
            old_base = self.slot_base[at, ap]
            # Discard slots for the rounds below the adopted one: the
            # oracle leaves those votes unread forever.
            for k in range(RING_SLOTS):
                drop = adopted_offset > k
                if not drop.any():
                    break
                self.vmask[at[drop], ap[drop],
                           (old_base[drop] + k) % RING_SLOTS] = np.uint64(0)
                self.vones[at[drop], ap[drop],
                           (old_base[drop] + k) % RING_SLOTS] = np.uint64(0)
            self.slot_base[at, ap] = \
                ((old_base + adopted_offset) % RING_SLOTS).astype(np.int32)
            self.round[at, ap] = adopted_round
            self.base_round[at, ap] = adopted_round
            self.resync[at, ap] = False
            self.base_set[at, ap] = False
            self.est[at, ap] = -1  # _finish_round assigns it next
        firing = fire_now | adopt
        if firing.any():
            self._finish_cascade(tt[firing], pp[firing])

    def _finish_cascade(self, tt: np.ndarray, pp: np.ndarray) -> None:
        """``_finish_round`` plus its buffered-round cascade, vectorized."""
        eng = self.eng
        while tt.size:
            sl0 = self.slot_base[tt, pp]
            count = _popcount(self.vmask[tt, pp, sl0])
            go = count >= self.t1
            if not go.any():
                return
            tt, pp = tt[go], pp[go]
            sl0, count = sl0[go], count[go]
            ones = _popcount(self.vones[tt, pp, sl0])
            zeros = count - ones
            majority_zero = zeros >= ones
            majority_value = np.where(majority_zero, 0, 1).astype(np.int8)
            majority_count = np.where(majority_zero, zeros, ones)
            deciding = (majority_count >= self.t2) & (eng.output[tt, pp] < 0)
            if deciding.any():
                dt, dp = tt[deciding], pp[deciding]
                eng.output[dt, dp] = majority_value[deciding]
                eng.deciding_chain[dt, dp] = eng.max_chain[dt, dp]
            adopting = majority_count >= self.t3
            estimate = majority_value.copy()
            flipping = ~adopting
            if flipping.any():
                estimate[flipping] = eng._draw_coins(tt[flipping],
                                                     pp[flipping])
            self.est[tt, pp] = estimate
            self.vmask[tt, pp, sl0] = np.uint64(0)
            self.vones[tt, pp, sl0] = np.uint64(0)
            self.slot_base[tt, pp] = ((sl0 + 1) % RING_SLOTS).astype(np.int32)
            self.round[tt, pp] += 1
            self.base_round[tt, pp] += 1
            # Loop: the advanced slot 0 may already hold >= t1 buffered
            # votes (the oracle's recursive cascade).

    def reset(self, resetting: np.ndarray) -> None:
        self.round[resetting] = -1
        self.est[resetting] = -1
        self.resync[resetting] = True
        self.base_set[resetting] = False
        self.base_round[resetting] = 0
        self.slot_base[resetting] = 0
        self.vmask[resetting] = np.uint64(0)
        self.vones[resetting] = np.uint64(0)


# ----------------------------------------------------------------------
# Adversary drivers.
# ----------------------------------------------------------------------
class _BenignDriver:
    """Full delivery, no faults."""

    def next_window(self, eng: BatchedWindowEngine):
        return np.ones(eng.pending.shape, dtype=bool), None, None

    def gather(self, keep: np.ndarray) -> None:
        pass


class _SilencingDriver:
    """Constant sender exclusion (``silenced`` defaults to ``range(t)``)."""

    def __init__(self, eng: BatchedWindowEngine) -> None:
        self.smask = np.ones((eng.size, eng.n), dtype=bool)
        for i, spec in enumerate(eng.specs):
            silenced = spec.adversary_kwargs.get("silenced")
            if silenced is None:
                silenced = range(eng.t)
            for pid in silenced:
                if 0 <= pid < eng.n:
                    self.smask[i, pid] = False

    def next_window(self, eng: BatchedWindowEngine):
        return self.smask, None, None

    def gather(self, keep: np.ndarray) -> None:
        self.smask = self.smask[keep]


class _SplitVoteDriver:
    """Vectorized split-vote (and adaptive-resetting) adversary.

    The ordering-block and lost-control paths are pure array math; only
    the exclusion path consumes adversary randomness, and there the
    driver calls the *real* per-trial ``Random.sample`` on the same
    pid-ordered voter lists the oracle builds, so the streams stay
    bit-identical.
    """

    def __init__(self, eng: BatchedWindowEngine, adaptive: bool) -> None:
        self.adaptive = adaptive
        self.rngs = [seeded_rng(spec.adversary_kwargs["seed"])
                     for spec in eng.specs]
        self.block_threshold = np.array(
            [-1 if spec.adversary_kwargs.get("block_threshold") is None
             else spec.adversary_kwargs["block_threshold"]
             for spec in eng.specs], dtype=np.int64)
        self.budget = None
        if adaptive:
            self.budget = np.array(
                [int(eng.t * spec.adversary_kwargs.get("reset_fraction", 1.0))
                 for spec in eng.specs], dtype=np.int64)

    def next_window(self, eng: BatchedWindowEngine):
        kernel = eng.kernel
        estimate = kernel.est
        zeros_mask = estimate == 0
        ones_mask = estimate == 1
        num_zeros = zeros_mask.sum(axis=1, dtype=np.int64)
        num_ones = ones_mask.sum(axis=1, dtype=np.int64)
        threshold = np.where(self.block_threshold >= 0, self.block_threshold,
                             kernel.t3)
        waiting = kernel.t1
        senders_total = (~kernel.resync & (kernel.round >= 0)).sum(
            axis=1, dtype=np.int64)
        majority_is_zero = num_zeros >= num_ones
        majority_count = np.where(majority_is_zero, num_zeros, num_ones)
        minority_count = num_zeros + num_ones - majority_count
        majority_pool = np.where(majority_is_zero[:, None], zeros_mask,
                                 ones_mask)
        majority_in_prefix = np.maximum(
            0, waiting - (senders_total - majority_count))
        minority_in_prefix = np.minimum(minority_count, waiting)
        blocked = (majority_in_prefix <= threshold - 1) \
            & (minority_in_prefix <= threshold - 1)

        smask = np.ones(estimate.shape, dtype=bool)
        deliver_last = np.zeros(estimate.shape, dtype=bool)
        deliver_last[blocked] = majority_pool[blocked]

        need_hide_zero = np.maximum(0, num_zeros - (threshold - 1))
        need_hide_one = np.maximum(0, num_ones - (threshold - 1))
        feasible = need_hide_zero + need_hide_one <= eng.t
        # Infeasible (~blocked & ~feasible) is the lost-control window:
        # full delivery, and — exactly like the oracle — no RNG consumed.
        excluding = ~blocked & feasible & eng.active
        for index in np.flatnonzero(excluding):
            i = int(index)
            rng = self.rngs[i]
            hidden = (rng.sample(np.flatnonzero(zeros_mask[i]).tolist(),
                                 int(need_hide_zero[i]))
                      + rng.sample(np.flatnonzero(ones_mask[i]).tolist(),
                                   int(need_hide_one[i])))
            smask[i, hidden] = False

        resets = None
        if self.adaptive:
            in_pool_rank = np.cumsum(majority_pool, axis=1)
            resets = majority_pool & (in_pool_rank <= self.budget[:, None])
        return smask, (deliver_last if deliver_last.any() else None), resets

    def gather(self, keep: np.ndarray) -> None:
        keep_list = [int(i) for i in keep]
        self.rngs = [self.rngs[i] for i in keep_list]
        self.block_threshold = self.block_threshold[keep]
        if self.budget is not None:
            self.budget = self.budget[keep]


__all__ = ["BatchedWindowEngine", "CHANNEL_DEPTH", "PHASES", "RING_SLOTS",
           "run_group"]
