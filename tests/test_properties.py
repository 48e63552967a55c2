"""Property-based tests (hypothesis) for core data structures and invariants."""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversaries.fuzzing import StepFuzzer
from repro.analysis.product_measure import (ProductDistribution, hamming,
                                            verify_talagrand)
from repro.analysis.statistics import fit_exponential, summarize_trials
from repro.core.talagrand import (lower_bound_constants, talagrand_bound,
                                  two_set_bound)
from repro.core.thresholds import ThresholdConfig, default_thresholds
from repro.protocols.base import ProtocolFactory
from repro.protocols.ben_or import PROPOSE, REPORT, BenOrAgreement
from repro.protocols.registry import get_protocol
from repro.simulation.configuration import Configuration
from repro.simulation.engine import Engine
from repro.simulation.errors import InvalidWindowError
from repro.simulation.message import Message
from repro.simulation.network import Network
from repro.simulation.windows import WindowSpec
from repro.verification.shrink import (schedule_from_jsonable,
                                       schedule_to_jsonable)


# ----------------------------------------------------------------------
# Hamming distance is a metric on configurations.
# ----------------------------------------------------------------------
state_strategy = st.tuples(st.integers(0, 1),
                           st.sampled_from([None, 0, 1]),
                           st.integers(0, 3),
                           st.integers(0, 5))


def configurations(n):
    return st.lists(state_strategy, min_size=n, max_size=n).map(
        lambda states: Configuration(states=tuple(states)))


@given(st.integers(2, 8).flatmap(
    lambda n: st.tuples(configurations(n), configurations(n),
                        configurations(n))))
def test_hamming_distance_is_a_metric(triple):
    a, b, c = triple
    assert a.hamming_distance(b) == b.hamming_distance(a)
    assert a.hamming_distance(a) == 0
    assert 0 <= a.hamming_distance(b) <= a.n
    # Triangle inequality.
    assert a.hamming_distance(c) <= \
        a.hamming_distance(b) + b.hamming_distance(c)
    # Identity of indiscernibles.
    if a.hamming_distance(b) == 0:
        assert a.states == b.states


# ----------------------------------------------------------------------
# Threshold constraints: Theorem 4's default settings are always valid for
# any admissible (n, t), and the constraint checker is consistent.
# ----------------------------------------------------------------------
@given(st.integers(7, 200))
def test_default_thresholds_valid_whenever_t_positive(n):
    t = (n - 1) // 6
    if t <= 0:
        return
    config = default_thresholds(n, t)
    assert config.valid
    assert config.t1 >= config.t2 >= config.t3 + t
    assert 2 * config.t3 > n


@given(st.integers(6, 60), st.integers(1, 9), st.integers(1, 60),
       st.integers(1, 60), st.integers(1, 60))
def test_violations_and_valid_agree(n, t, t1, t2, t3):
    if t >= n:
        return
    config = ThresholdConfig(n=n, t=t, t1=t1, t2=t2, t3=t3)
    assert config.valid == (config.violations() == [])


# ----------------------------------------------------------------------
# Window specifications: the full-delivery window is always acceptable, and
# validation accepts exactly the windows within the fault budget.
# ----------------------------------------------------------------------
@given(st.integers(2, 20), st.data())
def test_uniform_windows_validate_iff_within_budget(n, data):
    t = data.draw(st.integers(0, n - 1))
    excluded_size = data.draw(st.integers(0, n - 1))
    excluded = frozenset(range(excluded_size))
    senders = frozenset(range(n)) - excluded
    spec = WindowSpec.uniform(n, senders)
    if excluded_size <= t:
        spec.validate(n, t)
    else:
        try:
            spec.validate(n, t)
            assert False, "expected an InvalidWindowError"
        except Exception:
            pass
    WindowSpec.full_delivery(n).validate(n, t)


# ----------------------------------------------------------------------
# Arbitrary admissible window specifications: anything built within the
# Definition 1 budgets validates, any budget violation is rejected, and
# the counterexample JSON encoding round-trips exactly.
# ----------------------------------------------------------------------
@st.composite
def admissible_window_specs(draw):
    """(n, t, spec) with per-processor sender sets inside the budgets."""
    n = draw(st.integers(3, 12))
    t = draw(st.integers(0, n - 1))
    everyone = frozenset(range(n))
    senders_for = []
    for _ in range(n):
        excluded = draw(st.sets(st.integers(0, n - 1), max_size=t))
        senders_for.append(everyone - frozenset(excluded))
    resets = frozenset(draw(st.sets(st.integers(0, n - 1), max_size=t)))
    deliver_last = frozenset(draw(st.sets(st.integers(0, n - 1),
                                          max_size=n)))
    crashes = frozenset(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    return n, t, WindowSpec(senders_for=tuple(senders_for), resets=resets,
                            crashes=crashes, deliver_last=deliver_last)


@given(admissible_window_specs())
def test_admissible_window_specs_validate(drawn):
    n, t, spec = drawn
    spec.validate(n, t)
    for senders in spec.senders_for:
        assert len(senders) >= n - t
    assert len(spec.resets) <= t


@given(admissible_window_specs(), st.data())
def test_budget_violations_are_rejected(drawn, data):
    n, t, spec = drawn
    mutation = data.draw(st.sampled_from(["starve", "over-reset",
                                          "alien-sender"]))
    if mutation == "starve":
        # Shrink one sender set below n - t.
        if n - t - 1 < 0:
            return
        victim = data.draw(st.integers(0, n - 1))
        starved = frozenset(range(n - t - 1))
        senders_for = list(spec.senders_for)
        senders_for[victim] = starved
        bad = WindowSpec(senders_for=tuple(senders_for))
    elif mutation == "over-reset":
        if t + 1 > n:
            return
        bad = WindowSpec(senders_for=spec.senders_for,
                         resets=frozenset(range(t + 1)))
    else:
        senders_for = list(spec.senders_for)
        senders_for[0] = senders_for[0] | {n + 3}
        bad = WindowSpec(senders_for=tuple(senders_for))
    with pytest.raises(InvalidWindowError):
        bad.validate(n, t)


@given(st.lists(admissible_window_specs(), min_size=0, max_size=5))
def test_schedule_json_encoding_round_trips(drawn):
    schedule = [spec for _, _, spec in drawn]
    assert schedule_from_jsonable(schedule_to_jsonable(schedule)) \
        == schedule


# ----------------------------------------------------------------------
# Protocol state machines: round counters never go backwards and the
# write-once output bit is never retracted — under arbitrary (even
# malformed) message streams for Ben-Or, and under arbitrary admissible
# step schedules for Bracha.
# ----------------------------------------------------------------------
_ben_or_payloads = st.one_of(
    st.tuples(st.sampled_from([REPORT, PROPOSE]), st.integers(1, 4),
              st.sampled_from([0, 1, None])),
    st.tuples(st.sampled_from([REPORT, PROPOSE]), st.text(max_size=2),
              st.integers(0, 1)),
    st.text(max_size=3),
    st.integers(-2, 2),
)


@given(st.integers(0, 1),
       st.lists(st.tuples(st.integers(0, 8), _ben_or_payloads),
                min_size=0, max_size=60))
def test_ben_or_rounds_monotone_and_decision_stable(input_bit, stream):
    protocol = BenOrAgreement(pid=0, n=9, t=4, input_bit=input_bit,
                              rng=random.Random(0))
    previous_round, previous_phase = protocol.round, protocol.phase
    output = protocol.output
    for sender, payload in stream:
        protocol.send_step()
        protocol.receive_step(Message(sender=sender, receiver=0,
                                      payload=payload))
        # Round counter is monotone, and within a round the phase only
        # moves forward (REPORT before PROPOSE).
        assert protocol.round >= previous_round
        if protocol.round == previous_round:
            assert not (previous_phase == PROPOSE
                        and protocol.phase == REPORT)
        # The write-once output bit is never retracted or overwritten.
        if output is not None:
            assert protocol.decided and protocol.output == output
        output = protocol.output
        previous_round, previous_phase = protocol.round, protocol.phase


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2 ** 32 - 1))
def test_bracha_rounds_monotone_under_fuzzed_schedules(seed):
    info = get_protocol("bracha")
    n, t = 7, 2
    factory = ProtocolFactory(info.protocol_cls, n=n, t=t)
    engine = Engine(factory, [pid % 2 for pid in range(n)], seed=seed)
    adversary = StepFuzzer(seed=seed)
    adversary.bind(engine)
    rounds = [proc.protocol.current_round()
              for proc in engine.processors]
    outputs = list(engine.outputs())
    for _ in range(1500):
        if engine.all_live_decided():
            break
        step = adversary.next_step(engine)
        if step is None:
            break
        engine.apply_step(step)
        for pid, proc in enumerate(engine.processors):
            assert proc.protocol.current_round() >= rounds[pid]
            if outputs[pid] is not None:
                assert proc.output == outputs[pid]
            rounds[pid] = proc.protocol.current_round()
            outputs[pid] = proc.output


# ----------------------------------------------------------------------
# Network conservation: messages are never created or destroyed by the
# buffer — sent = delivered + pending (in the absence of explicit drops).
# ----------------------------------------------------------------------
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                min_size=0, max_size=40),
       st.integers(0, 1000))
def test_network_conserves_messages(channel_pairs, seed):
    n = 6
    network = Network(n)
    rng = random.Random(seed)
    for sender, receiver in channel_pairs:
        network.broadcast(sender, [("m", sender, receiver)])
    # Deliver a random subset of pending messages.
    pending = network.all_pending()
    rng.shuffle(pending)
    for message in pending[:len(pending) // 2]:
        network.deliver(message)
    assert network.sent_count == \
        network.delivered_count + network.pending_count()


# ----------------------------------------------------------------------
# Talagrand's inequality holds for every sub-level set of the uniform cube.
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(2, 9), st.data())
def test_talagrand_inequality_on_sublevel_sets(n, data):
    k = data.draw(st.integers(0, n))
    d = data.draw(st.integers(0, n))
    distribution = ProductDistribution.uniform_bits(n)
    points = [point for point, _ in distribution.enumerate_support()
              if sum(point) <= k]
    check = verify_talagrand(distribution, points, radius=d, exact=True)
    assert check.satisfied


@given(st.integers(1, 400), st.integers(0, 400))
def test_talagrand_bound_bounds_and_monotonicity(n, d):
    bound = talagrand_bound(d, n)
    # The bound is a probability (it may underflow to 0.0 for huge d/n).
    assert 0.0 <= bound <= 1.0
    assert two_set_bound(d, n) >= bound
    if d >= 1:
        assert talagrand_bound(d - 1, n) >= bound


# ----------------------------------------------------------------------
# Theorem 5 constants: for every fault fraction the adversary's success
# probability stays at least one half on every system size.
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(st.floats(0.01, 0.45), st.integers(1, 2000))
def test_lower_bound_success_probability_at_least_half(c, n):
    constants = lower_bound_constants(c)
    assert constants.success_probability(n) >= 0.5 - 1e-9
    assert constants.alpha == (c * c) / 9.0


# ----------------------------------------------------------------------
# Statistics helpers.
# ----------------------------------------------------------------------
@given(st.lists(st.floats(0.1, 1e6), min_size=1, max_size=50))
def test_summary_bounds_contain_mean_and_median(values):
    summary = summarize_trials(values)
    tolerance = 1e-9 * max(abs(summary.minimum), abs(summary.maximum), 1.0)
    assert summary.minimum <= summary.median <= summary.maximum
    assert summary.minimum - tolerance <= summary.mean \
        <= summary.maximum + tolerance
    assert summary.count == len(values)


@given(st.floats(0.05, 5.0), st.floats(-0.3, 0.5),
       st.lists(st.integers(1, 60), min_size=3, max_size=10, unique=True))
def test_exponential_fit_recovers_exact_data(a, b, xs):
    xs = sorted(xs)
    ys = [a * math.exp(b * x) for x in xs]
    if any(y <= 0 or not math.isfinite(y) for y in ys):
        return
    fit = fit_exponential(xs, ys)
    assert math.isclose(fit.a, a, rel_tol=1e-4, abs_tol=1e-6)
    assert math.isclose(fit.b, b, rel_tol=1e-4, abs_tol=1e-6)
