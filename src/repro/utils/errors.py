"""Exception hierarchy for the MoE-Lightning reproduction.

All library-specific exceptions derive from :class:`ReproError` so callers can
catch the whole family with a single ``except`` clause while still being able
to distinguish configuration mistakes from runtime simulation failures.
"""


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ConfigurationError(ReproError):
    """A model, hardware or workload configuration is invalid.

    Raised during construction/validation of configuration dataclasses, e.g.
    a negative hidden dimension or a top-k larger than the number of experts.
    """


class InfeasiblePolicyError(ReproError):
    """A policy violates the GPU or CPU memory constraints.

    The policy optimizer raises this when the search space contains no
    feasible point (for example, the model does not fit in CPU + GPU memory),
    and the performance model raises it when asked to evaluate a policy that
    does not fit.
    """


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state.

    Examples: a task was scheduled on a busy exclusive channel, an event was
    emitted in the past, or a dependency cycle prevented progress.
    """


class ScheduleError(ReproError):
    """A pipeline schedule produced an invalid task graph."""


class MemoryManagerError(ReproError):
    """Paged memory allocation failed (out of pages, double free, bad page)."""


class KVCapacityError(MemoryManagerError):
    """A KV reservation does not fit, even after eviction; nothing changed."""
