"""Configurations: joint snapshots of the n processor states.

The lower-bound proofs of Sections 4 and 5 reason about sets of reachable
configurations in the joint state space ``Sigma^n`` and about the Hamming
distance between configurations (the number of coordinates — processors —
whose local state differs).  This module provides the concrete configuration
snapshot type (whose :meth:`Configuration.has_decision` is membership in the
base decision sets ``Z_0^0`` and ``Z_1^0``) and the set distance of
Definition 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.simulation.errors import ConfigurationMismatchError


@dataclass(frozen=True, slots=True)
class Configuration:
    """An immutable snapshot of the joint state of ``n`` processors.

    Attributes:
        states: per-processor state fingerprints, as produced by
            :meth:`repro.protocols.base.Protocol.state_fingerprint`.  Each
            fingerprint is ``(input_bit, output_bit, reset_count, volatile)``.
    """

    states: Tuple[Tuple, ...]

    @property
    def n(self) -> int:
        """Number of processors in the configuration."""
        return len(self.states)

    # ------------------------------------------------------------------
    # Decision structure.
    # ------------------------------------------------------------------
    def outputs(self) -> Tuple[Optional[int], ...]:
        """The output bit of every processor (``None`` when undecided)."""
        return tuple(state[1] for state in self.states)

    def inputs(self) -> Tuple[int, ...]:
        """The input bit of every processor."""
        return tuple(state[0] for state in self.states)

    def decided_values(self) -> set:
        """The set of non-``None`` output values present."""
        return {output for output in self.outputs() if output is not None}

    def has_decision(self, value: Optional[int] = None) -> bool:
        """Whether some processor has decided (optionally a specific value)."""
        decided = self.decided_values()
        if value is None:
            return bool(decided)
        return value in decided

    def is_agreeing(self) -> bool:
        """True when no two processors have decided conflicting values.

        This is the safety predicate of measure-one correctness
        (Definition 2): any mixture of a single value and undecided markers
        is fine; both 0 and 1 appearing among outputs is a violation.
        """
        return len(self.decided_values()) <= 1

    def is_valid(self) -> bool:
        """True when every decided value equals some processor's input.

        Together with :meth:`is_agreeing`, this captures Definition 2:
        unanimous inputs force the unanimous value.
        """
        decided = self.decided_values()
        if not decided:
            return True
        inputs = set(self.inputs())
        return decided.issubset(inputs)

    def all_decided(self) -> bool:
        """Whether every processor has written its output bit."""
        return all(output is not None for output in self.outputs())

    # ------------------------------------------------------------------
    # Hamming geometry.
    # ------------------------------------------------------------------
    def hamming_distance(self, other: "Configuration") -> int:
        """Number of processors whose local state differs from ``other``."""
        if self.n != other.n:
            raise ConfigurationMismatchError(
                f"cannot compare configurations of sizes {self.n} and "
                f"{other.n}")
        return sum(1 for a, b in zip(self.states, other.states) if a != b)

    def differing_coordinates(self, other: "Configuration") -> List[int]:
        """Indices of the processors whose state differs from ``other``."""
        if self.n != other.n:
            raise ConfigurationMismatchError(
                f"cannot compare configurations of sizes {self.n} and "
                f"{other.n}")
        return [i for i, (a, b) in enumerate(zip(self.states, other.states))
                if a != b]

    def __len__(self) -> int:
        return len(self.states)


def set_distance(set_a: Iterable[Configuration],
                 set_b: Iterable[Configuration]) -> Optional[int]:
    """Minimum Hamming distance between two sets of configurations.

    This is the quantity ``Delta(A, B)`` of Definition 7.  Returns ``None``
    when either set is empty (the distance is undefined / infinite).
    """
    list_a = list(set_a)
    list_b = list(set_b)
    if not list_a or not list_b:
        return None
    return min(a.hamming_distance(b) for a in list_a for b in list_b)


__all__ = [
    "Configuration",
    "set_distance",
]
