#!/usr/bin/env python3
"""Reproduce the exponential-slowdown claim (experiment E2) end to end.

Looks experiment E2 up in the registry (``repro.experiments``), sweeps the
system size ``n`` at the Theorem 4 fault bound ``t = ⌊(n-1)/6⌋``, runs the
reset-tolerant algorithm on split inputs against the strongly adaptive
adversary, and compares:

* the measured mean number of acceptable windows until the first decision,
* the analytic prediction from the binomial-tail model of
  :func:`repro.core.analysis.split_vote_analysis`,
* the Theorem 5 lower-bound curve ``C * exp(alpha * n)`` for the same fault
  fraction, and
* the (constant) window count for unanimous inputs.

The absolute numbers depend on the simulator, but the *shape* — exponential
growth in ``n`` for split inputs versus a single window for unanimous
inputs — is the paper's claim, and the exponential fit at the end makes it
quantitative.

The same sweep is available (with persistence and resume) as
``python -m repro run E2 [--quick]``.

Run with::

    python examples/exponential_slowdown.py [--quick]
"""

from __future__ import annotations

import argparse

from repro.tables import format_table
from repro.core.talagrand import lower_bound_constants
from repro.experiments import get_experiment


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller sweep for a fast demonstration")
    parser.add_argument("--trials", type=int, default=None,
                        help="trials per system size")
    args = parser.parse_args()

    if args.quick:
        ns = (12, 16, 20)
        trials = args.trials or 3
    else:
        ns = (12, 16, 20, 24)
        trials = args.trials or 5

    print("E2: windows to first decision, split inputs, strongly adaptive "
          "adversary")
    experiment = get_experiment("E2")
    rows = experiment.run(params={"ns": ns, "trials": trials,
                                  "use_resets": True, "seed": 42})
    data = [row for row in rows if row["experiment"] == "E2"]
    fit = [row for row in rows if row["experiment"] == "E2-fit"]

    constants = lower_bound_constants(1.0 / 6.0)
    for row in data:
        row["theorem5_lower_bound"] = constants.predicted_windows(row["n"])
    print(format_table(data, columns=[
        "n", "t", "mean_windows", "median_windows", "max_windows",
        "analytic_expected_windows", "theorem5_lower_bound",
        "unanimous_mean_windows"]))

    if fit:
        growth = fit[0]["fit_growth_rate_per_processor"]
        print(f"\nexponential fit: windows ~ exp({growth:.3f} * n), "
              f"R^2 = {fit[0]['fit_r_squared']:.3f}")
        print(f"Theorem 5 exponent for c = 1/6: alpha = "
              f"{constants.alpha:.4f} (the measured growth rate should be "
              f"at least this large)")


if __name__ == "__main__":
    main()
