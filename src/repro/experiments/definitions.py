"""The eight registered experiments (E1–E8) of EXPERIMENTS.md.

Each ``_eN_cells`` builder expands a resolved parameter grid into
:class:`~repro.experiments.base.Cell` objects.  **Seed-draw order is part
of the contract**: every call into the master-seeded ``rng`` happens in the
exact order the pre-registry serial loops made it (adversary kwargs before
engine seed, trial by trial), so the rows stay bit-identical to their
historical output at the same master seed (``tests/golden/``).  Do not
reorder the draws.  New experiments are free of this constraint and should
prefer :func:`repro.runner.derive_seed`.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.product_measure import (ProductDistribution,
                                            verify_talagrand)
from repro.analysis.statistics import fit_exponential, summarize_trials
from repro.core.analysis import split_vote_analysis
from repro.core.lower_bound import lower_bound_report
from repro.core.reset_tolerant import ResetTolerantAgreement
from repro.core.talagrand import lower_bound_constants
from repro.core.thresholds import (default_thresholds, max_tolerable_t,
                                   threshold_grid)
from repro.experiments.base import Cell, Experiment, Row
from repro.protocols.ben_or import BenOrAgreement
from repro.protocols.committee import CommitteeElectionProtocol, failure_rate
from repro.runner import (TrialSpec, correctness_flags, measure,
                          message_chain_length, undecided_windows,
                          windows_to_first_decision)
from repro.simulation.trace import ExecutionResult
from repro.workloads.inputs import split, standard_workloads, unanimous


def _seeded_kwargs(rng: random.Random,
                   extra: Optional[Dict] = None) -> Dict:
    """Adversary kwargs with a freshly drawn 32-bit seed."""
    kwargs: Dict[str, Any] = {"seed": rng.getrandbits(32)}
    if extra:
        kwargs.update(extra)
    return kwargs


# ----------------------------------------------------------------------
# E1: Theorem 4 feasibility — correctness and termination sweep.
# ----------------------------------------------------------------------
# The strongly adaptive adversary battery of E1: display name ->
# (registry name, kwargs builder).  Builders draw from the experiment's
# master-seeded stream exactly when a trial is described, preserving the
# historical draw order.
_E1_ADVERSARIES: Tuple[Tuple[str, str, Any], ...] = (
    ("benign", "benign", None),
    ("random", "random-scheduler",
     lambda rng: _seeded_kwargs(rng, {"reset_probability": 0.5})),
    ("silencing", "silencing", None),
    ("split-vote", "split-vote", _seeded_kwargs),
    ("adaptive-resetting", "adaptive-resetting", _seeded_kwargs),
)


def _e1_row(results: Sequence[ExecutionResult], *, n: int, t: int,
            workload: str, adversary: str) -> Row:
    agreement_ok, validity_ok, terminated = correctness_flags(results)
    windows_used = [result.windows_elapsed for result in results]
    return {
        "experiment": "E1",
        "n": n,
        "t": t,
        "workload": workload,
        "adversary": adversary,
        "agreement_ok": agreement_ok,
        "validity_ok": validity_ok,
        "terminated": terminated,
        "mean_windows": sum(windows_used) / len(windows_used),
        "max_windows_observed": max(windows_used),
    }


def _e1_cells(params: Dict[str, Any], rng: random.Random) -> List[Cell]:
    cells: List[Cell] = []
    for n in params["ns"]:
        t = max_tolerable_t(n)
        for workload_name, inputs in standard_workloads(
                n, seed=rng.getrandbits(32)).items():
            for display_name, adversary, kwargs_builder in _E1_ADVERSARIES:
                tag = ("E1", n, workload_name, display_name)
                specs = tuple(TrialSpec(
                    protocol="reset-tolerant", adversary=adversary,
                    n=n, t=t, inputs=tuple(inputs),
                    adversary_kwargs=(kwargs_builder(rng)
                                      if kwargs_builder else {}),
                    seed=rng.getrandbits(32),
                    max_windows=params["max_windows"],
                    stop_when="all", tag=tag)
                    for _ in range(params["trials"]))
                cells.append(Cell(
                    key=tag, specs=specs,
                    build_row=partial(_e1_row, n=n, t=t,
                                      workload=workload_name,
                                      adversary=display_name)))
    return cells


# ----------------------------------------------------------------------
# E2: exponential running time against the split-vote adversary.
# ----------------------------------------------------------------------
def _e2_row(results: Sequence[ExecutionResult], *, n: int, t: int,
            trials: int, analytic_windows: float) -> Row:
    # Specs interleave (split, unanimous) per trial; un-interleave them.
    windows = measure(results[0::2], windows_to_first_decision)
    unanimous_windows = measure(results[1::2], windows_to_first_decision)
    summary = summarize_trials(windows)
    return {
        "experiment": "E2",
        "n": n,
        "t": t,
        "inputs": "split",
        "trials": trials,
        "mean_windows": summary.mean,
        "median_windows": summary.median,
        "max_windows": summary.maximum,
        "analytic_expected_windows": analytic_windows,
        "unanimous_mean_windows":
            sum(unanimous_windows) / len(unanimous_windows),
        "fit_growth_rate_per_processor": None,
        "fit_r_squared": None,
    }


def _e2_cells(params: Dict[str, Any], rng: random.Random) -> List[Cell]:
    adversary = ("adaptive-resetting" if params["use_resets"]
                 else "split-vote")
    cells: List[Cell] = []
    for n in params["ns"]:
        t = max_tolerable_t(n)
        if t == 0:
            continue
        thresholds = default_thresholds(n, t)
        analytic = split_vote_analysis(thresholds)
        inputs = split(n)
        specs: List[TrialSpec] = []
        for _ in range(params["trials"]):
            specs.append(TrialSpec(
                protocol="reset-tolerant", adversary=adversary,
                n=n, t=t, inputs=tuple(inputs),
                adversary_kwargs=_seeded_kwargs(rng),
                seed=rng.getrandbits(32),
                max_windows=params["max_windows"],
                stop_when="first", tag=("E2", n, "split")))
            specs.append(TrialSpec(
                protocol="reset-tolerant", adversary="split-vote",
                n=n, t=t, inputs=tuple(unanimous(n, 1)),
                adversary_kwargs=_seeded_kwargs(rng),
                seed=rng.getrandbits(32),
                max_windows=params["max_windows"],
                stop_when="first", tag=("E2", n, "unanimous")))
        cells.append(Cell(
            key=("E2", n), specs=tuple(specs),
            build_row=partial(_e2_row, n=n, t=t, trials=params["trials"],
                              analytic_windows=analytic.expected_windows)))
    return cells


def _fit_row(template: Row, xs: Sequence[int],
             ys: Sequence[float]) -> List[Row]:
    """The synthetic exponential-fit row shared by E2 and E4."""
    if len(ys) < 2:
        return []
    fit = fit_exponential(xs, ys)
    row = dict(template)
    row["fit_growth_rate_per_processor"] = fit.b
    row["fit_r_squared"] = fit.r_squared
    return [row]


def _e2_finalize(rows: List[Row], params: Dict[str, Any]) -> List[Row]:
    return _fit_row(
        {"experiment": "E2-fit", "n": None, "t": None, "inputs": "split",
         "trials": params["trials"], "mean_windows": None,
         "median_windows": None, "max_windows": None,
         "analytic_expected_windows": None, "unanimous_mean_windows": None,
         "fit_growth_rate_per_processor": None, "fit_r_squared": None},
        [row["n"] for row in rows], [row["mean_windows"] for row in rows])


# ----------------------------------------------------------------------
# E3: lower-bound machinery checks (Lemmas 9, 11, 14 and Theorem 5 inputs).
# ----------------------------------------------------------------------
def _e3_row(results: Sequence[ExecutionResult], *, n: int, t: int,
            samples: int, separation_trials: int, seed: int) -> Row:
    report = lower_bound_report(
        ResetTolerantAgreement, n=n, t=t, samples=samples,
        separation_trials=separation_trials, seed=seed)
    return {
        "experiment": "E3",
        "n": n,
        "t": t,
        "decision_set_min_distance": report.separation.min_distance,
        "required_separation": report.separation.required,
        "separation_holds": report.separation.satisfied,
        "tau": report.tau,
        "hybrid_best_j": report.hybrid_best.j,
        "hybrid_best_worst_probability": report.hybrid_best.worst,
        "endpoint_worst_probability": report.endpoint_worst,
        "balanced_inputs_ones": sum(report.balanced_inputs.inputs),
        "balanced_zero_probability":
            report.balanced_inputs.zero_probability,
        "balanced_one_probability":
            report.balanced_inputs.one_probability,
    }


def _e3_cells(params: Dict[str, Any], rng: random.Random) -> List[Cell]:
    cells: List[Cell] = []
    for n in params["ns"]:
        t = max_tolerable_t(n)
        if t == 0:
            continue
        cells.append(Cell(
            key=("E3", n), specs=(),
            build_row=partial(
                _e3_row, n=n, t=t, samples=params["samples"],
                separation_trials=params["separation_trials"],
                seed=rng.getrandbits(32))))
    return cells


# ----------------------------------------------------------------------
# E4: crash-model lower bound on forgetful, fully communicative algorithms.
# ----------------------------------------------------------------------
def _e4_row(results: Sequence[ExecutionResult], *, n: int, t: int,
            trials: int) -> Row:
    chains = measure(results, message_chain_length)
    windows = measure(results, windows_to_first_decision)
    chain_summary = summarize_trials(chains)
    return {
        "experiment": "E4",
        "protocol": "ben-or",
        "n": n,
        "t": t,
        "trials": trials,
        "mean_message_chain": chain_summary.mean,
        "max_message_chain": chain_summary.maximum,
        "mean_windows": sum(windows) / len(windows),
        "forgetful": BenOrAgreement.forgetful,
        "fully_communicative": BenOrAgreement.fully_communicative,
        "fit_growth_rate_per_processor": None,
        "fit_r_squared": None,
    }


def _e4_cells(params: Dict[str, Any], rng: random.Random) -> List[Cell]:
    cells: List[Cell] = []
    for n in params["ns"]:
        t = max(1, int(params["fault_fraction"] * n))
        if t >= n / 2:
            t = (n - 1) // 2
        inputs = split(n)
        specs = tuple(TrialSpec(
            protocol="ben-or", adversary="crash-split-vote",
            n=n, t=t, inputs=tuple(inputs),
            adversary_kwargs=_seeded_kwargs(rng),
            seed=rng.getrandbits(32), max_windows=params["max_windows"],
            stop_when="first", tag=("E4", n))
            for _ in range(params["trials"]))
        cells.append(Cell(
            key=("E4", n), specs=specs,
            build_row=partial(_e4_row, n=n, t=t,
                              trials=params["trials"])))
    return cells


def _e4_finalize(rows: List[Row], params: Dict[str, Any]) -> List[Row]:
    return _fit_row(
        {"experiment": "E4-fit", "protocol": "ben-or", "n": None, "t": None,
         "trials": params["trials"], "mean_message_chain": None,
         "max_message_chain": None, "mean_windows": None, "forgetful": True,
         "fully_communicative": True,
         "fit_growth_rate_per_processor": None, "fit_r_squared": None},
        [row["n"] for row in rows],
        [row["mean_message_chain"] for row in rows])


# ----------------------------------------------------------------------
# E5: contrast with committee election (fast but non-adaptive, fallible).
# ----------------------------------------------------------------------
def _e5_row(results: Sequence[ExecutionResult], *, n: int, t: int,
            trials: int, nonadaptive_seed: int, adaptive_seed: int,
            sample_seed: int) -> Row:
    protocol = CommitteeElectionProtocol(n=n, t=t)
    inputs = split(n)
    nonadaptive_failures = failure_rate(protocol, inputs, trials=trials,
                                        adaptive=False,
                                        seed=nonadaptive_seed)
    adaptive_failures = failure_rate(protocol, inputs, trials=trials,
                                     adaptive=True, seed=adaptive_seed)
    sample = protocol.run(inputs, adaptive=False, seed=sample_seed)
    # The adaptive-safe alternative: the reset-tolerant algorithm's
    # analytic expected windows at the Theorem 4 fault bound.
    rt_t = max_tolerable_t(n)
    analytic_windows = (split_vote_analysis(default_thresholds(n, rt_t))
                        .expected_windows if rt_t > 0 else float("nan"))
    return {
        "experiment": "E5",
        "n": n,
        "t": t,
        "committee_size": protocol.committee_size,
        "committee_rounds": sample.communication_rounds,
        "committee_layers": sample.layers,
        "nonadaptive_failure_rate": nonadaptive_failures,
        "adaptive_failure_rate": adaptive_failures,
        "adaptive_safe_expected_windows": analytic_windows,
    }


def _e5_cells(params: Dict[str, Any], rng: random.Random) -> List[Cell]:
    cells: List[Cell] = []
    for n in params["ns"]:
        t = max(1, int(params["fault_fraction"] * n))
        cells.append(Cell(
            key=("E5", n), specs=(),
            build_row=partial(
                _e5_row, n=n, t=t, trials=params["trials"],
                nonadaptive_seed=rng.getrandbits(32),
                adaptive_seed=rng.getrandbits(32),
                sample_seed=rng.getrandbits(32))))
    return cells


# ----------------------------------------------------------------------
# E6: baseline protocols at their classical resilience bounds.
# ----------------------------------------------------------------------
def _e6_ben_or_row(results: Sequence[ExecutionResult], *, n: int, t: int,
                   workload: str, adversary: str) -> Row:
    agreement_ok, validity_ok, terminated = correctness_flags(results)
    windows_used = [result.windows_elapsed for result in results]
    return {
        "experiment": "E6",
        "protocol": "ben-or",
        "n": n,
        "t": t,
        "workload": workload,
        "adversary": adversary,
        "agreement_ok": agreement_ok,
        "validity_ok": validity_ok,
        "terminated": terminated,
        "mean_windows": sum(windows_used) / len(windows_used),
    }


def _e6_bracha_row(results: Sequence[ExecutionResult], *, n: int, t: int,
                   workload: str, adversary: str) -> Row:
    # Byzantine runs judge correctness over the honest processors only:
    # corrupted ones may "decide" anything.
    agreement_ok = validity_ok = terminated = True
    for result in results:
        honest = range(t, result.n)
        honest_outputs = {result.outputs[pid] for pid in honest}
        honest_values = {value for value in honest_outputs
                         if value is not None}
        honest_inputs = {result.inputs[pid] for pid in honest}
        agreement_ok &= len(honest_values) <= 1
        validity_ok &= honest_values.issubset(honest_inputs) \
            or not honest_values
        terminated &= None not in honest_outputs
    return {
        "experiment": "E6",
        "protocol": "bracha",
        "n": n,
        "t": t,
        "workload": workload,
        "adversary": adversary,
        "agreement_ok": agreement_ok,
        "validity_ok": validity_ok,
        "terminated": terminated,
        "mean_windows": None,
    }


def _e6_cells(params: Dict[str, Any], rng: random.Random) -> List[Cell]:
    cells: List[Cell] = []
    for n in params["ben_or_ns"]:
        t = (n - 1) // 2
        adversaries = (
            ("benign", "benign", None),
            ("crash-at-start", "static-crash",
             lambda rng, t=t: {"crash_schedule": {0: tuple(range(t))}}),
            ("crash-at-decision", "crash-at-decision", None),
            ("random", "random-scheduler", _seeded_kwargs),
        )
        for workload_name, inputs in (("split", split(n)),
                                      ("unanimous-1", unanimous(n, 1))):
            for display_name, adversary, kwargs_builder in adversaries:
                tag = ("E6", "ben-or", n, workload_name, display_name)
                specs = tuple(TrialSpec(
                    protocol="ben-or", adversary=adversary,
                    n=n, t=t, inputs=tuple(inputs),
                    adversary_kwargs=(kwargs_builder(rng)
                                      if kwargs_builder else {}),
                    seed=rng.getrandbits(32),
                    max_windows=params["max_windows"],
                    stop_when="all", tag=tag)
                    for _ in range(params["trials"]))
                cells.append(Cell(
                    key=tag, specs=specs,
                    build_row=partial(_e6_ben_or_row, n=n, t=t,
                                      workload=workload_name,
                                      adversary=display_name)))
    for n in params["bracha_ns"]:
        t = (n - 1) // 3
        for workload_name, inputs in (("split", split(n)),
                                      ("unanimous-0", unanimous(n, 0))):
            for strategy_name in ("silent", "flip", "equivocate",
                                  "random-values"):
                tag = ("E6", "bracha", n, workload_name, strategy_name)
                specs = []
                for _ in range(params["trials"]):
                    engine_seed = rng.getrandbits(32)
                    specs.append(TrialSpec(
                        protocol="bracha", adversary="byzantine",
                        n=n, t=t, inputs=tuple(inputs), seed=engine_seed,
                        adversary_kwargs={"corrupted": tuple(range(t)),
                                          "strategy": strategy_name,
                                          "seed": rng.getrandbits(32)},
                        engine="step", max_steps=params["max_steps"],
                        stop_when="all", tag=tag))
                cells.append(Cell(
                    key=tag, specs=tuple(specs),
                    build_row=partial(_e6_bracha_row, n=n, t=t,
                                      workload=workload_name,
                                      adversary=strategy_name)))
    return cells


# ----------------------------------------------------------------------
# E7: threshold ablation.
# ----------------------------------------------------------------------
def _e7_row(results: Sequence[ExecutionResult], *, n: int, t: int, config,
            adversary: str, trials: int) -> Row:
    violations = config.violations()
    agreement_ok, validity_ok, _ = correctness_flags(results)
    windows_used = [result.windows_elapsed for result in results]
    return {
        "experiment": "E7",
        "n": n,
        "t": t,
        "T1": config.t1,
        "T2": config.t2,
        "T3": config.t3,
        "constraints_ok": config.valid,
        "violated": "; ".join(violations) if violations else "-",
        "adversary": adversary,
        "agreement_ok": agreement_ok,
        "validity_ok": validity_ok,
        "decided_runs": sum(int(result.decided) for result in results),
        "trials": trials,
        "mean_windows": sum(windows_used) / len(windows_used),
    }


def _e7_cells(params: Dict[str, Any], rng: random.Random) -> List[Cell]:
    n = params["n"]
    t = max_tolerable_t(n)
    cells: List[Cell] = []
    # The grid can contain duplicate (T1, T2, T3) configurations, so the
    # cell key carries the grid index to keep the cells separate.
    for config_index, config in enumerate(threshold_grid(n, t)):
        for adversary in ("split-vote", "polarizing", "adaptive-resetting"):
            tag = ("E7", config_index, adversary)
            specs = tuple(TrialSpec(
                protocol="reset-tolerant", adversary=adversary,
                n=n, t=t, inputs=tuple(split(n)),
                adversary_kwargs=_seeded_kwargs(rng),
                protocol_kwargs={"thresholds": config,
                                 "validate_thresholds": False},
                seed=rng.getrandbits(32),
                max_windows=params["max_windows"],
                stop_when="all", tag=tag)
                for _ in range(params["trials"]))
            cells.append(Cell(
                key=tag, specs=specs,
                build_row=partial(_e7_row, n=n, t=t, config=config,
                                  adversary=adversary,
                                  trials=params["trials"])))
    return cells


# ----------------------------------------------------------------------
# E8: lower-bound constants and Talagrand spot checks.
# ----------------------------------------------------------------------
def _e8_curve_row(results: Sequence[ExecutionResult], *, c: float,
                  n: int) -> Row:
    constants = lower_bound_constants(c)
    return {
        "experiment": "E8",
        "c": round(c, 4),
        "n": n,
        "alpha": constants.alpha,
        "C": constants.big_c,
        "predicted_windows": constants.predicted_windows(n),
        "success_probability": constants.success_probability(n),
        "set": None,
        "radius": None,
        "P[A]*(1-P[B(A,d)])": None,
        "talagrand_bound": None,
        "inequality_holds": None,
    }


def _e8_talagrand_row(results: Sequence[ExecutionResult], *, n: int,
                      k: int, d: int) -> Row:
    distribution = ProductDistribution.uniform_bits(n)
    points = [point for point, _ in distribution.enumerate_support()
              if sum(point) <= k]
    check = verify_talagrand(distribution, points, radius=d, exact=True)
    return {
        "experiment": "E8-talagrand",
        "c": None,
        "n": n,
        "alpha": None,
        "C": None,
        "predicted_windows": None,
        "success_probability": None,
        "set": f"at most {k} ones",
        "radius": d,
        "P[A]*(1-P[B(A,d)])": check.product,
        "talagrand_bound": check.bound,
        "inequality_holds": check.satisfied,
    }


def _e8_cells(params: Dict[str, Any], rng: random.Random) -> List[Cell]:
    cells: List[Cell] = []
    for c in params["cs"]:
        for n in params["ns"]:
            cells.append(Cell(
                key=("E8", round(c, 4), n), specs=(),
                build_row=partial(_e8_curve_row, c=c, n=n)))
    # Talagrand spot check on a concrete product space: n fair coins, the
    # set A of points with at most k ones, radius d.
    for n, k, d in ((10, 2, 3), (11, 3, 4), (12, 3, 4)):
        cells.append(Cell(
            key=("E8-talagrand", n, k, d), specs=(),
            build_row=partial(_e8_talagrand_row, n=n, k=k, d=d)))
    return cells


# ----------------------------------------------------------------------
# E9: guided adversary search vs sampled and hand-written adversaries.
# ----------------------------------------------------------------------
# The randomized/adaptive adversaries the searched schedule is compared
# against, at a matched evaluation budget and on the same fixed engine
# seed, so every row answers "how undecided can this adversary keep the
# protocol on this execution context".
_E9_BASELINES: Tuple[str, ...] = ("schedule-fuzzer", "random-scheduler",
                                  "split-vote", "adaptive-resetting",
                                  "polarizing")


def _e9_search_params(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.search import resolve_search_params

    # verify=False: E9 measures hardness, not invariants, and skipping
    # trace recording roughly halves the searched cell's cost.
    return resolve_search_params(
        protocol="reset-tolerant", strategy=params["strategy"],
        objective="undecided-rounds", generations=params["generations"],
        population=params["population"], windows=params["windows"],
        seed=params["seed"], n=params["n"], verify=False)


def _e9_row_template(params: Dict[str, Any], adversary: str,
                     n: int, t: int) -> Row:
    return {
        "experiment": "E9",
        "n": n,
        "t": t,
        "adversary": adversary,
        "evaluations": params["generations"] * params["population"],
        "best_undecided_windows": None,
        "mean_undecided_windows": None,
        "decided_fraction": None,
        "analytic_expected_windows": None,
    }


def _e9_searched_row(results: Sequence[ExecutionResult], *,
                     params: Dict[str, Any], n: int, t: int) -> Row:
    # The search campaign's adaptive generations cannot be pre-declared
    # as specs, so this cell is analytic-style (no runner specs) and the
    # campaign fans its own generations out instead.  Campaign rows are
    # bit-identical across worker counts, so using the default worker
    # pool here never changes the row.
    from repro.search import run_search_campaign

    report = run_search_campaign(_e9_search_params(params), workers=None)
    scores = [row["score"] for row in report.rows]
    row = _e9_row_template(params, "searched", n, t)
    row["best_undecided_windows"] = report.best_score
    row["mean_undecided_windows"] = sum(scores) / len(scores)
    row["decided_fraction"] = \
        sum(1 for r in report.rows if r["decided"]) / len(report.rows)
    return row


def _e9_baseline_row(results: Sequence[ExecutionResult], *,
                     params: Dict[str, Any], adversary: str, n: int,
                     t: int) -> Row:
    scores = measure(results, undecided_windows)
    row = _e9_row_template(params, adversary, n, t)
    row["best_undecided_windows"] = max(scores)
    row["mean_undecided_windows"] = sum(scores) / len(scores)
    row["decided_fraction"] = \
        sum(1 for result in results if result.decided) / len(results)
    return row


def _e9_analytic_row(results: Sequence[ExecutionResult], *,
                     params: Dict[str, Any], n: int, t: int) -> Row:
    row = _e9_row_template(params, "analytic (split-vote)", n, t)
    row["evaluations"] = None
    row["analytic_expected_windows"] = split_vote_analysis(
        default_thresholds(n, t)).expected_windows
    return row


def _e9_cells(params: Dict[str, Any], rng: random.Random) -> List[Cell]:
    from repro.search import campaign_sampler, campaign_setup

    n = params["n"]
    t = max_tolerable_t(n)
    search_params = _e9_search_params(params)
    setup = campaign_setup(search_params)
    budget = params["generations"] * params["population"]
    cells: List[Cell] = [Cell(
        key=("E9", "searched"), specs=(),
        build_row=partial(_e9_searched_row, params=params, n=n, t=t))]
    sampler = campaign_sampler(search_params)
    for adversary in _E9_BASELINES:
        # The fuzzer baseline must sample from the same window
        # distribution the search mutates with, or the searched-vs-
        # sampled gap would partly measure a distribution mismatch.
        fuzz_kwargs = (
            {"reset_probability": sampler.reset_probability,
             "deliver_last_probability": sampler.deliver_last_probability}
            if adversary == "schedule-fuzzer" else {})
        specs = tuple(TrialSpec(
            protocol="reset-tolerant", adversary=adversary,
            n=n, t=t, inputs=setup.inputs,
            adversary_kwargs={"seed": rng.getrandbits(32), **fuzz_kwargs},
            seed=setup.seed, max_windows=params["windows"],
            stop_when="first", tag=("E9", adversary))
            for _ in range(budget))
        cells.append(Cell(
            key=("E9", adversary), specs=specs,
            build_row=partial(_e9_baseline_row, params=params,
                              adversary=adversary, n=n, t=t)))
    cells.append(Cell(
        key=("E9", "analytic"), specs=(),
        build_row=partial(_e9_analytic_row, params=params, n=n, t=t)))
    return cells


# ----------------------------------------------------------------------
# The experiment objects.
# ----------------------------------------------------------------------
EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment(
        name="E1", slug="feasibility",
        title="Theorem 4 feasibility sweep",
        description=(
            "Correctness and termination of the reset-tolerant algorithm "
            "(Theorem 4) for every n at the largest admissible t, every "
            "standard workload, and a battery of strongly adaptive "
            "adversaries (benign, random, silencing, split-vote, "
            "adaptive-resetting)."),
        defaults={"ns": (12, 18, 24), "trials": 3, "max_windows": 60000,
                  "seed": 0},
        quick_overrides={"ns": (12,), "trials": 1, "max_windows": 3000},
        build_cells=_e1_cells,
        row_schema=("experiment", "n", "t", "workload", "adversary",
                    "agreement_ok", "validity_ok", "terminated",
                    "mean_windows", "max_windows_observed"),
    ),
    Experiment(
        name="E2", slug="exponential-rounds",
        title="Exponential windows vs n (split inputs)",
        description=(
            "Acceptable windows until the first decision under the "
            "vote-splitting strongly adaptive adversary, against the "
            "analytic prediction of split_vote_analysis and an "
            "exponential fit across n — the Section 3 slowdown."),
        defaults={"ns": (12, 16, 20, 24), "trials": 5,
                  "max_windows": 200000, "use_resets": True, "seed": 0},
        quick_overrides={"ns": (12, 16), "trials": 3},
        build_cells=_e2_cells,
        finalize=_e2_finalize,
        row_schema=("experiment", "n", "t", "inputs", "trials",
                    "mean_windows", "median_windows", "max_windows",
                    "analytic_expected_windows", "unanimous_mean_windows",
                    "fit_growth_rate_per_processor", "fit_r_squared"),
    ),
    Experiment(
        name="E3", slug="lower-bound",
        title="Lower-bound machinery checks",
        description=(
            "Numerical checks of the Theorem 5 ingredients at small n: "
            "Hamming separation of the decision sets (Lemma 11), the "
            "Talagrand threshold tau, the hybrid-window interpolation "
            "(Lemma 14) and the balanced-input interpolation."),
        defaults={"ns": (8, 12), "samples": 6, "separation_trials": 8,
                  "seed": 0},
        quick_overrides={"ns": (8,), "samples": 4, "separation_trials": 6},
        build_cells=_e3_cells,
        parallel=False,
        row_schema=("experiment", "n", "t", "decision_set_min_distance",
                    "required_separation", "separation_holds", "tau",
                    "hybrid_best_j", "hybrid_best_worst_probability",
                    "endpoint_worst_probability", "balanced_inputs_ones",
                    "balanced_zero_probability",
                    "balanced_one_probability"),
    ),
    Experiment(
        name="E4", slug="crash-forgetful",
        title="Crash-model message chains (Ben-Or)",
        description=(
            "Message-chain length until the first decision of Ben-Or (a "
            "forgetful, fully communicative algorithm) under the "
            "vote-splitting crash-model adversary, with an exponential "
            "fit across n — Theorem 17."),
        defaults={"ns": (9, 13, 17, 21), "trials": 10,
                  "fault_fraction": 0.25, "max_windows": 200000, "seed": 0},
        quick_overrides={"ns": (9, 13), "trials": 4},
        build_cells=_e4_cells,
        finalize=_e4_finalize,
        row_schema=("experiment", "protocol", "n", "t", "trials",
                    "mean_message_chain", "max_message_chain",
                    "mean_windows", "forgetful", "fully_communicative",
                    "fit_growth_rate_per_processor", "fit_r_squared"),
    ),
    Experiment(
        name="E5", slug="committee",
        title="Committee election contrast",
        description=(
            "Kapron-style committee election: fast (polylog rounds) and "
            "correct against a non-adaptive adversary, but defeated "
            "almost surely by an adaptive one — versus the adaptive-safe "
            "algorithm's analytic exponential window count."),
        defaults={"ns": (32, 64, 128), "trials": 40, "fault_fraction": 0.2,
                  "seed": 0},
        quick_overrides={"ns": (32, 64), "trials": 25},
        build_cells=_e5_cells,
        parallel=False,
        row_schema=("experiment", "n", "t", "committee_size",
                    "committee_rounds", "committee_layers",
                    "nonadaptive_failure_rate", "adaptive_failure_rate",
                    "adaptive_safe_expected_windows"),
    ),
    Experiment(
        name="E6", slug="baselines",
        title="Baselines (Ben-Or crash, Bracha Byzantine)",
        description=(
            "Correctness of the baseline protocols at their classical "
            "resilience bounds: Ben-Or under crash failures (t < n/2) on "
            "the window engine, Bracha under Byzantine strategies "
            "(t < n/3) on the step engine."),
        defaults={"ben_or_ns": (9, 15), "bracha_ns": (7, 10), "trials": 3,
                  "max_windows": 5000, "max_steps": 400000, "seed": 0},
        quick_overrides={"ben_or_ns": (9,), "bracha_ns": (7,),
                         "trials": 1},
        build_cells=_e6_cells,
        row_schema=("experiment", "protocol", "n", "t", "workload",
                    "adversary", "agreement_ok", "validity_ok",
                    "terminated", "mean_windows"),
    ),
    Experiment(
        name="E7", slug="threshold-ablation",
        title="Threshold ablation",
        description=(
            "Effect of violating each Theorem 4 threshold constraint: "
            "valid (T1, T2, T3) settings never break agreement or "
            "validity, while selected violations lead to disagreement or "
            "non-termination within the window budget."),
        defaults={"n": 24, "trials": 4, "max_windows": 3000, "seed": 0},
        quick_overrides={"n": 18, "trials": 2, "max_windows": 1200},
        build_cells=_e7_cells,
        row_schema=("experiment", "n", "t", "T1", "T2", "T3",
                    "constraints_ok", "violated", "adversary",
                    "agreement_ok", "validity_ok", "decided_runs",
                    "trials", "mean_windows"),
    ),
    Experiment(
        name="E8", slug="constants",
        title="Theorem 5 constants + Talagrand checks",
        description=(
            "The Theorem 5 constants alpha = c^2/9 and C, the predicted "
            "window curves C * exp(alpha * n) with the adversary's "
            "success probability, plus exact Talagrand (Lemma 9) "
            "verifications on concrete product spaces."),
        defaults={"cs": (0.05, 0.1, 1.0 / 6.0), "ns": (50, 100, 200, 400),
                  "seed": 0},
        quick_overrides={"cs": (0.1, 1.0 / 6.0), "ns": (50, 100)},
        build_cells=_e8_cells,
        parallel=False,
        row_schema=("experiment", "c", "n", "alpha", "C",
                    "predicted_windows", "success_probability", "set",
                    "radius", "P[A]*(1-P[B(A,d)])", "talagrand_bound",
                    "inequality_holds"),
    ),
    Experiment(
        name="E9", slug="adversary-search",
        title="Guided adversary search vs sampled/hand-written adversaries",
        description=(
            "How undecided each adversary keeps the reset-tolerant "
            "protocol on one fixed execution context at a matched "
            "evaluation budget: a guided `repro.search` campaign "
            "(hill-climbing over admissible schedules, undecided-rounds "
            "objective) against equal-budget schedule-fuzzer sampling, "
            "the hand-written strongly adaptive adversaries, and the "
            "analytic exponential-window prediction of "
            "split_vote_analysis."),
        defaults={"n": 12, "generations": 25, "population": 8,
                  "windows": 240, "strategy": "hill-climb", "seed": 0},
        quick_overrides={"generations": 5, "population": 4, "windows": 60},
        build_cells=_e9_cells,
        row_schema=("experiment", "n", "t", "adversary", "evaluations",
                    "best_undecided_windows", "mean_undecided_windows",
                    "decided_fraction", "analytic_expected_windows"),
    ),
)


__all__ = ["EXPERIMENTS"]
