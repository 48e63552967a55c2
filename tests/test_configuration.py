"""Unit tests for configurations and Hamming-distance helpers."""

import pytest

from repro.simulation.configuration import Configuration, set_distance
from repro.simulation.errors import ConfigurationMismatchError


def make_config(inputs, outputs, extra=None):
    """Build a configuration from input/output bit lists."""
    extra = extra or [()] * len(inputs)
    return Configuration(states=tuple(
        (i, o, 0, e) for i, o, e in zip(inputs, outputs, extra)))


class TestDecisionStructure:
    def test_outputs_and_inputs(self):
        config = make_config([0, 1, 1], [None, 1, None])
        assert config.inputs() == (0, 1, 1)
        assert config.outputs() == (None, 1, None)

    def test_decided_values(self):
        config = make_config([0, 1], [0, 1])
        assert config.decided_values() == {0, 1}

    def test_has_decision(self):
        config = make_config([0, 1], [None, 1])
        assert config.has_decision()
        assert config.has_decision(1)
        assert not config.has_decision(0)

    def test_is_agreeing(self):
        assert make_config([0, 1], [1, 1]).is_agreeing()
        assert make_config([0, 1], [None, 1]).is_agreeing()
        assert not make_config([0, 1], [0, 1]).is_agreeing()

    def test_is_valid(self):
        assert make_config([0, 0], [0, None]).is_valid()
        assert not make_config([0, 0], [1, None]).is_valid()
        assert make_config([0, 1], [1, 1]).is_valid()
        # No decision at all is vacuously valid.
        assert make_config([0, 0], [None, None]).is_valid()

    def test_all_decided(self):
        assert make_config([0, 0], [0, 0]).all_decided()
        assert not make_config([0, 0], [0, None]).all_decided()

    def test_base_set_predicates(self):
        # Membership in Z_0^0 / Z_1^0 (Definition 10) is has_decision(v).
        zero = make_config([0, 1], [0, None])
        one = make_config([0, 1], [None, 1])
        assert zero.has_decision(0) and not zero.has_decision(1)
        assert one.has_decision(1) and not one.has_decision(0)


class TestHammingGeometry:
    def test_distance_counts_differing_coordinates(self):
        a = make_config([0, 0, 0], [None, None, None])
        b = make_config([0, 1, 1], [None, None, None])
        assert a.hamming_distance(b) == 2

    def test_distance_is_symmetric_and_zero_on_equal(self):
        a = make_config([0, 1], [None, 1])
        b = make_config([1, 1], [None, 1])
        assert a.hamming_distance(b) == b.hamming_distance(a)
        assert a.hamming_distance(a) == 0

    def test_differing_coordinates(self):
        a = make_config([0, 0, 0], [None, None, None])
        b = make_config([1, 0, 1], [None, None, None])
        assert a.differing_coordinates(b) == [0, 2]

    def test_mismatched_sizes_raise(self):
        a = make_config([0], [None])
        b = make_config([0, 1], [None, None])
        with pytest.raises(ConfigurationMismatchError):
            a.hamming_distance(b)

    def test_set_distance(self):
        a1 = make_config([0, 0, 0], [None, None, None])
        a2 = make_config([1, 1, 1], [None, None, None])
        b1 = make_config([0, 0, 1], [None, None, None])
        assert set_distance([a1, a2], [b1]) == 1

    def test_set_distance_empty_is_none(self):
        a = make_config([0], [None])
        assert set_distance([], [a]) is None
        assert set_distance([a], []) is None

    def test_point_to_set_distance(self):
        # Definition 6's point-to-set distance is the set distance of
        # the singleton {point}.
        point = make_config([0, 0], [None, None])
        others = [make_config([1, 1], [None, None]),
                  make_config([0, 1], [None, None])]
        assert set_distance([point], others) == 1
        assert set_distance([point], []) is None

    def test_len(self):
        assert len(make_config([0, 1, 0], [None, None, None])) == 3
