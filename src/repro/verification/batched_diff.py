"""Differential harness: the batched backend against the per-trial oracle.

The vectorized engine (:mod:`repro.batched.engine`) is fast precisely
because it re-implements the per-trial window semantics in array form —
which is also why it must never be trusted on its own.  The per-trial
path (:func:`repro.runner.spec.execute_trial`) is the bit-identity
oracle, and this module is the harness that holds the engine to it:

* :func:`diff_specs` — run a spec list exactly as the batched backend
  would (same grouping, same fallback gating), then replay a sampled
  subset of every batch through ``execute_trial`` and compare the full
  :class:`~repro.simulation.trace.ExecutionResult` field by field.
* :func:`diff_experiment_cells` — build the harness input from an
  experiment's (quick) cell grid, so CI can differential-test the real
  E1/E2/E7/E9 workloads rather than synthetic specs.

Sampling is seed-deterministic (``sample_seed``), so a CI failure
reproduces locally with the same command line.  ``sample=1.0`` replays
everything — that is the configuration the test suite uses on small
grids.

Run as a module for the CI smoke check::

    python -m repro.verification.batched_diff --experiments E1 E2 E7 E9 \\
        --quick --sample 0.5
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.batched.support import group_specs
from repro.runner.spec import TrialSpec, execute_trial

#: ExecutionResult fields compared per replayed trial.  This is the whole
#: dataclass — bit-identity means *no* observable field may differ, not
#: just the decision-level ones.
RESULT_FIELDS = (
    "n", "t", "inputs", "outputs", "crashed", "windows_elapsed",
    "steps_elapsed", "first_decision_window", "first_decision_step",
    "message_chain_length", "messages_sent", "messages_delivered",
    "total_resets", "total_coin_flips", "agreement_violated",
    "validity_violated", "configurations", "trace",
)


@dataclass
class DiffMismatch:
    """One replayed trial whose batched result differed from the oracle."""

    index: int
    spec: TrialSpec
    fields: Dict[str, Tuple[Any, Any]]  # name -> (batched, oracle)

    def describe(self) -> str:
        parts = ", ".join(
            f"{name}: batched={got!r} oracle={want!r}"
            for name, (got, want) in sorted(self.fields.items()))
        return (f"spec[{self.index}] ({self.spec.protocol} vs "
                f"{self.spec.adversary}, n={self.spec.n}): {parts}")


@dataclass
class DiffReport:
    """Outcome of one differential pass over a spec list."""

    total: int = 0
    batched: int = 0
    fallback: int = 0
    quarantined: int = 0
    replayed: int = 0
    mismatches: List[DiffMismatch] = field(default_factory=list)
    fallback_reasons: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.mismatches)} MISMATCHES"
        return (f"{self.total} specs: {self.batched} batched "
                f"({self.quarantined} quarantined), {self.fallback} "
                f"fallback; {self.replayed} replayed against the "
                f"per-trial oracle: {status}")


def _compare(index: int, spec: TrialSpec, batched_result: Any,
             oracle_result: Any) -> Optional[DiffMismatch]:
    fields: Dict[str, Tuple[Any, Any]] = {}
    for name in RESULT_FIELDS:
        got = getattr(batched_result, name)
        want = getattr(oracle_result, name)
        if got != want:
            fields[name] = (got, want)
    if fields:
        return DiffMismatch(index=index, spec=spec, fields=fields)
    return None


def diff_specs(specs: Sequence[TrialSpec], *, sample: float = 1.0,
               sample_seed: int = 0) -> DiffReport:
    """Run ``specs`` on the batched engine and oracle-replay a sample.

    Groups through :func:`~repro.batched.support.group_specs`, the same
    function the executor uses, so the trials it checks are the trials a
    real ``--backend batched`` run vectorizes.  Fallback trials are not
    replayed — they already *run* on the oracle.

    Args:
        specs: the trial specs to execute.
        sample: fraction of each batch to replay through
            ``execute_trial`` (at least one trial per batch; ``1.0``
            replays every batched trial).
        sample_seed: seed for the deterministic sample draw.
    """
    if not 0.0 < sample <= 1.0:
        raise ValueError(f"sample must be in (0, 1], got {sample}")
    from repro.batched.engine import BatchedWindowEngine

    specs = list(specs)
    report = DiffReport(total=len(specs))
    rng = random.Random(sample_seed)

    plan = group_specs(specs)
    report.fallback = len(plan.per_trial)
    report.fallback_reasons = dict(plan.reasons)
    for _, members in plan.groups:
        results, quarantined = \
            BatchedWindowEngine([specs[i] for i in members]).run()
        executed = [local for local in range(len(members))
                    if local not in quarantined]
        report.batched += len(executed)
        report.quarantined += len(quarantined)
        report.fallback += len(quarantined)
        if quarantined:
            reason = "quarantined mid-batch"
            report.fallback_reasons[reason] = \
                report.fallback_reasons.get(reason, 0) + len(quarantined)
        count = max(1, round(len(executed) * sample)) if executed else 0
        for local in sorted(rng.sample(executed, min(count, len(executed)))):
            index = members[local]
            report.replayed += 1
            mismatch = _compare(index, specs[index], results[local],
                                execute_trial(specs[index]))
            if mismatch is not None:
                report.mismatches.append(mismatch)
    return report


def diff_experiment_cells(name: str, *, quick: bool = True,
                          params: Optional[Dict[str, Any]] = None,
                          sample: float = 1.0,
                          sample_seed: int = 0) -> DiffReport:
    """Differential-test one registered experiment's cell grid.

    Expands the experiment's (quick) parameter grid into the exact specs
    ``repro run`` would submit and hands them to :func:`diff_specs`.
    """
    from repro.experiments import get_experiment

    experiment = get_experiment(name)
    cells = experiment.cells(params, quick=quick)
    specs = [spec for cell in cells for spec in cell.specs]
    return diff_specs(specs, sample=sample, sample_seed=sample_seed)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CI entry point: differential-check experiments' quick grids."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.verification.batched_diff",
        description="Replay sampled batched-backend trials through the "
                    "per-trial oracle and assert bit-identical results.")
    parser.add_argument("--experiments", nargs="+", default=["E1", "E2"],
                        help="experiment names to check (default: E1 E2)")
    parser.add_argument("--quick", action="store_true",
                        help="use the quick (smoke-sized) parameter grid")
    parser.add_argument("--sample", type=float, default=1.0,
                        help="fraction of each batch to replay "
                             "(default: 1.0 = everything)")
    parser.add_argument("--sample-seed", type=int, default=0,
                        help="seed for the sample draw (default: 0)")
    args = parser.parse_args(argv)

    failed = False
    for name in args.experiments:
        report = diff_experiment_cells(
            name, quick=args.quick, sample=args.sample,
            sample_seed=args.sample_seed)
        print(f"{name}: {report.summary()}")
        for reason, count in sorted(report.fallback_reasons.items()):
            print(f"  fallback[{reason}]: {count}")
        for mismatch in report.mismatches[:10]:
            print(f"  MISMATCH {mismatch.describe()}")
        failed = failed or not report.ok
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    raise SystemExit(main())


__all__ = [
    "DiffMismatch",
    "DiffReport",
    "RESULT_FIELDS",
    "diff_experiment_cells",
    "diff_specs",
    "main",
]
