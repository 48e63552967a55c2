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
  nothing but its processor's coin flips, which the per-trial protocols
  draw with one ``getrandbits(1)`` call each: the top bit of the stream's
  next 32-bit word.  The engine draws them 64 at a time, as the words of
  one ``getrandbits(2048)`` (least significant first), so each flip is
  the one the oracle would draw.  A replica is built from its seed on its
  processor's first flip; most processors never flip one.  Split-vote adversaries likewise hold
  per-trial ``seeded_rng`` replicas and call ``Random.sample`` on the same
  pid-ordered lists the oracle samples from.
* **Every window has a closed form.**  Each synchronised processor
  broadcasts its vote for the common round; each processor a reset left
  resyncing stays silent until it adopts a round.  Every receiver of a
  trial gets the same permitted senders in the same order — the senders
  not marked ``deliver_last`` ascending, then the marked ones ascending —
  so a receiver fires exactly when its ``T1``-th vote arrives, resyncing
  receivers included (the oracle's ``T1``-th resync vote adopts the round
  and finishes it on those ``T1`` votes).  Later votes are for a past
  round and are skipped, so no vote is ever buffered, every processor
  fires every window, and the window is one vectorized pass over
  (trial, sender).
* **Channels** reduce to one backlog count per (trial, sender): a
  sender's broadcast reaches all ``n`` receivers, and each receiver pops
  only the newest message from the same permitted senders, so the
  per-trial network's channels from one sender all hold the votes that
  sender cast in windows that excluded it.

**Quarantine** keeps the closed form exact.  Before each window the
engine drops from the batch, *without a result*, every trial whose
window falls outside it: fewer than ``T1`` (at least 1) permitted
synchronised voters, which would leave receivers holding a partial
tally, or a permitted resyncing sender with a backlog, whose channels
would deliver a stale vote.  :func:`run_group` re-runs those trials
through the per-trial oracle, so quarantine affects speed, never values.
Default thresholds never quarantine on the registered workloads; the
``T1 > n - 2t`` shape in the engine tests does.

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

from repro.core.thresholds import resolve_thresholds
from repro.determinism import seeded_rng
from repro.runner.spec import TrialSpec, execute_trial
from repro.simulation.trace import ExecutionResult

COIN_BLOCK = 64
"""Coin flips pre-drawn per stream at once: one ``getrandbits(2048)``."""

PHASES = ("deliver", "tally", "decide")
"""The window phases the engine times (see :class:`BatchedWindowEngine`)."""


def run_group(specs: Sequence[TrialSpec]
              ) -> Tuple[List[ExecutionResult], Dict[str, float]]:
    """One batched chunk, complete: ``(results, stats)``.

    Trials the engine quarantines mid-batch are re-executed here on the
    per-trial oracle, so every position holds a result.  ``stats`` holds
    the fields of the batch's telemetry span: this batch's engine seconds
    per :data:`PHASES` entry (``deliver_s``...), the ``windows`` the
    engine ran and the number of trials it ``quarantined``.
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
    stats["quarantined"] = len(quarantined)
    for index in quarantined:
        results[index] = execute_trial(specs[index])
    return results, stats


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

    _COMPACT = ("orig", "active", "window", "max_windows", "output",
                "max_chain", "deciding_chain", "first_decision", "sent",
                "delivered", "resets_total", "coin_total", "est", "resync",
                "backlog", "coins", "coin_next")

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
        thresholds = resolve_thresholds(first.n, first.t,
                                        **first.protocol_kwargs)
        self.t1 = thresholds.t1
        self.t2 = thresholds.t2
        self.t3 = thresholds.t3
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

        self.output = np.full((trials, n), -1, dtype=np.int8)
        self.max_chain = np.zeros((trials, n), dtype=np.int32)
        self.deciding_chain = np.full((trials, n), -1, dtype=np.int32)
        # Protocol state: each processor's estimate (-1 while it
        # resyncs) and whether a reset left it resyncing.
        self.est = np.array([spec.inputs for spec in self.specs],
                            dtype=np.int8)
        self.resync = np.zeros((trials, n), dtype=bool)
        # Votes each sender cast in windows that excluded it, still
        # queued on its channels.
        self.backlog = np.zeros((trials, n), dtype=np.int32)

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
        # Each stream's pre-drawn flips and the index of its next unused
        # one (COIN_BLOCK: none left).
        self.coins = np.zeros((trials, n, COIN_BLOCK), dtype=np.int8)
        self.coin_next = np.full((trials, n), COIN_BLOCK, dtype=np.int64)

        self.results: List[Optional[ExecutionResult]] = [None] * trials
        self.quarantined: List[int] = []
        self.windows = 0

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
            outside = self.active & ~self._fast_ready(senders)
            if outside.any():
                # Dropped without a result; run_group re-runs them on
                # the per-trial oracle.
                self.quarantined += self.orig[outside].tolist()
                self.active &= ~outside
                if not self.active.any():
                    break
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
        self.driver.gather(keep)

    # ------------------------------------------------------------------
    # One acceptable window in closed form (see the module docstring),
    # in Engine.run_window's phase order.
    # ------------------------------------------------------------------
    def _fast_ready(self, senders: np.ndarray) -> np.ndarray:
        """Per trial: whether this window has the closed form.

        It does unless the permitted synchronised voters number fewer
        than ``T1`` (receivers would be left holding a partial tally;
        with no vote at all they would also skip their next send), or a
        permitted resyncing sender has a backlog (its channels would
        deliver that stale vote).
        """
        voters = (senders & ~self.resync).sum(axis=1)
        stale = (senders & self.resync & (self.backlog > 0)).any(axis=1)
        return (voters >= self.t1) & ~stale

    def _run_window(self, senders: np.ndarray,
                    deliver_last: Optional[np.ndarray],
                    resets: Optional[np.ndarray]) -> None:
        self.windows += 1
        timers = self.phase_timers
        mark = time.perf_counter()
        n, t1 = self.n, self.t1
        act = self.active
        act_procs = act[:, None]

        # Phase 1: every synchronised processor broadcasts its estimate
        # for the common round, with chain+1; resyncing ones stay silent.
        sending = act_procs & ~self.resync
        self.sent += sending.sum(axis=1, dtype=np.int64) * n
        est_sent = self.est
        chain_sent = self.max_chain + 1

        # Phase 2: every receiver of a trial pops this window's vote from
        # the same permitted senders; an excluded sender's vote stays
        # queued.
        voting = sending & senders
        self.backlog += sending & ~senders
        got = voting.sum(axis=1)
        self.delivered += got * n

        # Delivery order: non-deliver-last senders ascending, then the
        # deliver-last ones ascending (the oracle's per-receiver order):
        # a stable argsort of the flags.
        if deliver_last is not None:
            perm = np.argsort(deliver_last, axis=1, kind="stable")
            voting_o = np.take_along_axis(voting, perm, axis=1)
            val_o = np.take_along_axis(est_sent, perm, axis=1)
            chain_o = np.take_along_axis(chain_sent, perm, axis=1)
        else:
            voting_o, val_o, chain_o = voting, est_sent, chain_sent
        now = time.perf_counter()
        timers["deliver"] += now - mark
        mark = now

        # The first T1 votes in delivery order are the fired tally (every
        # active trial delivers at least T1).
        selected = voting_o & (np.cumsum(voting_o, axis=1) <= t1)
        ones = (selected & (val_o == 1)).sum(axis=1)
        zeros = t1 - ones

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

        # Fire: every processor of every active trial runs exactly
        # _finish_round's majority/decide/estimate step.
        fire = np.broadcast_to(act_procs, self.est.shape)
        majority_zero = zeros >= ones
        majority_value = np.where(majority_zero, 0, 1).astype(np.int8)
        majority_count = np.where(majority_zero, zeros, ones)
        deciding = fire & (majority_count >= self.t2)[:, None] \
            & (self.output < 0)
        if deciding.any():
            self.output = np.where(deciding, majority_value[:, None],
                                   self.output)
            self.deciding_chain = np.where(deciding, decide_chain,
                                           self.deciding_chain)
        new_est = np.where(fire, majority_value[:, None], est_sent)
        flipping = fire & (majority_count < self.t3)[:, None]
        if flipping.any():
            ft, fp = np.nonzero(flipping)
            new_est[ft, fp] = self._draw_coins(ft, fp)
        self.est = new_est
        self.resync &= ~fire

        # Phase 3: resets, in any order (each touches only its own
        # state); then the window count and first-decision bookkeeping.
        if resets is not None:
            to_reset = resets & act_procs
            if to_reset.any():
                self.resets_total += to_reset.sum(axis=1, dtype=np.int64)
                self.est[to_reset] = -1
                self.resync |= to_reset
        self.window += act
        newly = act & (self.first_decision < 0) & (self.output >= 0).any(axis=1)
        if newly.any():
            self.first_decision[newly] = self.window[newly]
        timers["decide"] += time.perf_counter() - mark

    def _draw_coins(self, tt: np.ndarray, pp: np.ndarray) -> np.ndarray:
        """One coin flip per distinct (trial, processor) pair.

        Each per-(trial, processor) stream feeds nothing but that
        processor's coin flips, so its next ``COIN_BLOCK`` flips can be
        drawn ahead in one ``getrandbits(2048)``: word ``k`` of it is the
        ``k``-th next 32-bit output, and a ``getrandbits(1)`` flip is an
        output's top bit.  Only exhausted streams are refilled.
        """
        cursor = self.coin_next[tt, pp]
        empty = np.flatnonzero(cursor == COIN_BLOCK)
        if empty.size:
            et, ep = tt[empty], pp[empty]
            rngs = self.rngs
            blocks = []
            for trial, pid in zip(et.tolist(), ep.tolist()):
                row = rngs[trial]
                rng = row[pid]
                if type(rng) is int:
                    rng = row[pid] = random.Random(rng)
                blocks.append(rng.getrandbits(32 * COIN_BLOCK)
                              .to_bytes(4 * COIN_BLOCK, "little"))
            words = np.frombuffer(b"".join(blocks), "<u4")
            self.coins[et, ep] = (words >> 31).reshape(-1, COIN_BLOCK)
            cursor[empty] = 0
        self.coin_next[tt, pp] = cursor + 1
        np.add.at(self.coin_total, tt, 1)
        return self.coins[tt, pp, cursor]


# ----------------------------------------------------------------------
# Adversary drivers.
# ----------------------------------------------------------------------
class _BenignDriver:
    """Full delivery, no faults."""

    def next_window(self, eng: BatchedWindowEngine):
        return np.ones(eng.est.shape, dtype=bool), None, None

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
        estimate = eng.est
        zeros_mask = estimate == 0
        ones_mask = estimate == 1
        num_zeros = zeros_mask.sum(axis=1, dtype=np.int64)
        num_ones = ones_mask.sum(axis=1, dtype=np.int64)
        threshold = np.where(self.block_threshold >= 0, self.block_threshold,
                             eng.t3)
        waiting = eng.t1
        senders_total = (~eng.resync).sum(axis=1, dtype=np.int64)
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


__all__ = ["BatchedWindowEngine", "PHASES", "run_group"]
