"""Declarative experiment registry for the EXPERIMENTS.md tables.

Every experiment of the reproduction (E1–E8) is described as data — an
:class:`~repro.experiments.base.Experiment` with a parameter grid, a cell
builder over :mod:`repro.runner` trial specs, a row schema and an optional
finalizer — and registered by name, mirroring the protocol registry
(:mod:`repro.protocols.registry`) and the adversary registry
(:mod:`repro.adversaries.registry`).  The ``python -m repro`` CLI, the
benchmark suite and the examples all run experiments through
:meth:`Experiment.run`, the one grid-expansion path.

Quickstart::

    from repro.experiments import get_experiment

    rows = get_experiment("E2").run(quick=True)   # or params={...}
"""

from repro.experiments.base import Cell, Experiment, Row, cell_key_id

# The registry builds every experiment definition, and those import the
# numpy-backed statistics; fuzz and search campaigns use only ``base``, so
# the registry loads on first use (PEP 562).
_REGISTRY_NAMES = ("available_experiments", "get_experiment", "register")


def __getattr__(name: str):
    if name not in _REGISTRY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.experiments import registry

    return getattr(registry, name)


__all__ = [
    "Cell",
    "Experiment",
    "Row",
    "cell_key_id",
    "available_experiments",
    "get_experiment",
    "register",
]
