"""Exception hierarchy for the repro library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ModelViolationError(ReproError):
    """An algorithm violated a rule of the CONGEST KT-rho model.

    Examples: sending to a node whose ID is not locally known, or sending
    a payload that cannot be encoded in the allowed number of words.
    """


class ComparisonDisciplineError(ModelViolationError):
    """A comparison-based algorithm performed a non-comparison operation
    on an ID-type variable (see Section 1.4.2 of the paper)."""


class UnknownNeighborError(ModelViolationError):
    """A node attempted to address a message to an ID outside its
    initial knowledge plus learned IDs."""


class ProtocolError(ReproError):
    """An algorithm reached an internally inconsistent state (a bug in a
    protocol implementation, not a model violation)."""


class SynchronizerBudgetError(ProtocolError):
    """The alpha-synchronizer's round budget T expired before the inner
    algorithm finished.  Distinct from a generic protocol bug because a
    too-small budget is a *recoverable* condition: the caller can retry
    with a larger T (what the api layer does when an asynchronous
    execution legitimately diverges from the shadow run that recorded
    the budgets — e.g. a different elected broadcast root)."""


class DistributedError(ReproError):
    """A failure in the distributed sweep layer (coordinator/worker
    communication): a lost connection, a malformed protocol message, or
    a sweep that could not be completed by the connected workers."""


class ProtocolMismatchError(DistributedError):
    """Coordinator and worker speak different protocol versions.

    The wire format is versioned precisely so that a newer coordinator
    *rejects* an older worker (and vice versa) instead of silently
    pooling records produced under different conventions."""


class WireError(ReproError):
    """A frame on the JSON-lines wire (:mod:`repro.wire`) that is not a
    JSON object or runs past the frame cap.  Clients report it in their
    own error type; servers drop the connection that sent it."""


class ServingError(ReproError):
    """A failure in the query-serving layer (``repro serve`` /
    ``repro query``): an unreachable or unresponsive server, a broken
    connection mid-query, or an invalid serving configuration."""


class VerificationError(ReproError):
    """A produced output (coloring / MIS / tree) failed verification."""


class ConvergenceError(ReproError):
    """A protocol failed to terminate within its round budget."""
