"""Benchmark the step path behind Byzantine fuzzing (`repro fuzz`).

Runs the 80 trials of ``repro fuzz --protocol bracha --seed 1`` serially
on the step engine, each recording its full trace, and asserts the
sha256 of every trace event and result field against a pinned digest, so
a speed-up only counts while every event stays the same.  Besides wall
time it records ``trials_per_sec`` and ``steps_per_sec`` as
``extra_info`` for the performance trajectory (`scripts/bench_record.py`,
``BENCH_<n>.json``).
"""

import dataclasses
import hashlib

import pytest

from repro.runner import execute_trial
from repro.verification import resolve_fuzz_params
from repro.verification.fuzzer import fuzz_trial_spec

TRIALS = 80

EVENT_FIELDS = ("kind", "pid", "window", "value", "sequence", "sender",
                "sequences", "corrupted", "lost")

PINNED_DIGEST = \
    "40e515af409a29478ab25b7bd3f1657dc9e1abf4978d5545b7b2cc7f0999d99b"
"""The digest of the 80 trials when TraceEvent and Step were frozen
dataclasses and Bracha scanned after every message."""


def _run_campaign(params):
    """(digest over every event and result field, total steps)."""
    digest = hashlib.sha256()
    steps = 0
    for index in range(params["trials"]):
        result = execute_trial(fuzz_trial_spec(params, index))
        steps += result.steps_elapsed
        for event in result.trace.events:
            digest.update(repr(tuple(getattr(event, name)
                                     for name in EVENT_FIELDS)).encode())
        digest.update(repr(tuple(
            getattr(result, field.name)
            for field in dataclasses.fields(result)
            if field.name != "trace")).encode())
    return digest.hexdigest(), steps


@pytest.mark.benchmark(group="step-fuzz")
def test_bench_bracha_step_fuzz(benchmark):
    params = resolve_fuzz_params(protocol="bracha", trials=TRIALS, seed=1)

    digest, steps = benchmark.pedantic(_run_campaign, args=(params,),
                                       iterations=1, rounds=3)

    assert digest == PINNED_DIGEST
    mean = benchmark.stats.stats.mean
    benchmark.extra_info["trials"] = TRIALS
    benchmark.extra_info["steps"] = steps
    benchmark.extra_info["trials_per_sec"] = TRIALS / mean
    benchmark.extra_info["steps_per_sec"] = steps / mean
