"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so
that callers can catch library failures with a single ``except`` clause
while still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """Base class for errors raised by the discrete-event engine."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or with an invalid delay."""


class NetworkError(ReproError):
    """Base class for errors raised by the network substrate."""


class AddressError(NetworkError):
    """An address was malformed or could not be resolved."""


class PortError(NetworkError):
    """A port number was out of range or already in use."""


class CodecError(NetworkError):
    """A packet or header failed to encode or decode."""


class SwitchError(ReproError):
    """Base class for errors raised by the programmable switch model."""


class PipelineConfigError(SwitchError):
    """The pipeline was configured inconsistently (stages, tables)."""


class StageAccessError(SwitchError):
    """A stateful object was accessed illegally for the PISA model.

    Raised when a register array is accessed twice within a single
    pipeline pass or from a stage other than the one it was allocated
    to.  These are exactly the hardware constraints that force the
    paper's shadow-table and recirculation designs.
    """


class TableError(SwitchError):
    """A match-action table was misused (bad key width, missing entry)."""


class ResourceBudgetError(SwitchError):
    """A switch program exceeded the modelled ASIC resource budget."""


class WorkloadError(ReproError):
    """A workload or distribution was configured with invalid values."""


class KVStoreError(ReproError):
    """A key-value store operation failed."""


class ExperimentError(ReproError):
    """An experiment harness was configured or invoked incorrectly."""
