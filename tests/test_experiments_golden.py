"""Fixed-seed golden tests: experiment rows stay bit-identical.

``tests/golden/experiment_rows.json`` was captured from the pre-registry
experiment functions (the hand-rolled serial loops) at small parameter
grids and fixed master seeds.  Every registered experiment, run with the
same parameters through :meth:`repro.experiments.base.Experiment.run`, must
keep reproducing those rows exactly, bit for bit.  Regenerate the fixture
only on a deliberate, documented behaviour change.
"""

import json
import os

import pytest

from repro.experiments import get_experiment

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden", "experiment_rows.json")

GOLDEN_EXPERIMENTS = ("E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8")


def _golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def _params(raw):
    return {key: (tuple(value) if isinstance(value, list) else value)
            for key, value in raw.items()}


@pytest.mark.parametrize("name", GOLDEN_EXPERIMENTS)
def test_experiment_rows_bit_identical(name):
    golden = _golden()[name]
    rows = get_experiment(name).run(params=_params(golden["params"]))
    assert rows == golden["rows"]


@pytest.mark.parametrize("name", ["E2", "E6"])
def test_serial_run_matches_golden_rows(name):
    """The serial in-process path reproduces the same rows."""
    golden = _golden()[name]
    params = _params(golden["params"])
    assert get_experiment(name).run(params=params, workers=0) \
        == golden["rows"]
