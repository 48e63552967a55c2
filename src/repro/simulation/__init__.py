"""Asynchronous message-passing simulation substrate.

This package implements the execution model of Section 2 of the paper: a
complete network of ``n`` processors with dedicated channels, executions as
sequences of sending / receiving / resetting (and crash) steps, acceptable
windows for the strongly adaptive adversary, and configurations as joint
state snapshots used by the lower-bound machinery.  One
:class:`~repro.simulation.engine.Engine` executes both granularities: a
single step, or an acceptable window as a fixed arrangement of steps.
"""

from repro.simulation.configuration import Configuration, set_distance
from repro.simulation.engine import Engine, StepAdversary
from repro.simulation.errors import (AdversaryBudgetError,
                                     ConfigurationMismatchError,
                                     InvalidStepError, InvalidWindowError,
                                     ProtocolViolationError, SimulationError)
from repro.simulation.events import Step, StepType
from repro.simulation.message import Message
from repro.simulation.network import Network
from repro.simulation.processor import Processor
from repro.simulation.trace import ExecutionResult
from repro.simulation.windows import (WindowAdversary, WindowSpec,
                                      run_execution)

__all__ = [
    "Configuration",
    "set_distance",
    "Engine",
    "StepAdversary",
    "SimulationError",
    "InvalidWindowError",
    "InvalidStepError",
    "ProtocolViolationError",
    "AdversaryBudgetError",
    "ConfigurationMismatchError",
    "Step",
    "StepType",
    "Message",
    "Network",
    "Processor",
    "ExecutionResult",
    "WindowAdversary",
    "WindowSpec",
    "run_execution",
]
