"""Shared exception hierarchy for the DrugTree reproduction.

Every error raised by the library derives from :class:`DrugTreeError` so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the subsystem that failed.
"""

from __future__ import annotations


class DrugTreeError(Exception):
    """Base class for every error raised by this library."""


class SequenceError(DrugTreeError):
    """Invalid protein sequence data (bad residue, empty sequence, ...)."""


class AlignmentError(DrugTreeError):
    """Pairwise or multiple alignment could not be computed."""


class TreeError(DrugTreeError):
    """Invalid phylogenetic tree structure or Newick text."""


class ChemError(DrugTreeError):
    """Invalid molecule, SMILES text, or chemical record."""


class SourceError(DrugTreeError):
    """A (simulated) remote data source failed to answer a request."""


class SourceUnavailableError(SourceError):
    """The source is temporarily unavailable (simulated outage)."""


class RateLimitError(SourceError):
    """The source rejected the request because of rate limiting."""

    #: Virtual seconds until the rejecting source's bucket holds a
    #: token again. An attribute, not a constructor argument: under
    #: the raiser's meter lock ``repro race`` reads any
    #: ``super().__init__`` as a call that may block.
    retry_after_s: float = 0.0


class BreakerOpenError(SourceError):
    """A circuit breaker is open: the call was skipped, not attempted.

    Raised *without* charging any virtual latency — the whole point of
    the breaker is that a dark source costs nothing to avoid.
    """


class DeadlineExceededError(SourceError):
    """The caller's virtual-time deadline expired before (or during)
    the fetch; remaining work was cancelled rather than charged."""


class ChaosError(SourceError):
    """A fault plan is invalid: a bad window, an unknown scenario name,
    a node scenario without nodes, or a replay of fewer than one tap —
    a mistake in the plan, never a fault it injected."""


class ClusterError(SourceError):
    """A cluster operation failed (quorum not reached, bad topology, ...).

    Subclasses :class:`SourceError` so the graceful-degradation paths
    built for federation faults (stale serving, chaos outcome counting)
    treat cluster failures the same way as any other remote fault.
    """


class NodeDownError(ClusterError):
    """A simulated cluster node was unreachable for one RPC (crashed or
    cut off by a network partition window)."""


class QuorumError(ClusterError):
    """Too few replicas answered to satisfy the read/write quorum."""


class StorageError(DrugTreeError):
    """Local storage layer failure (schema violation, missing table, ...)."""


class SchemaError(StorageError):
    """A row or value does not conform to a table schema."""


class QueryError(DrugTreeError):
    """Malformed query or a query referencing unknown entities.

    ``span`` is an optional ``(offset, length)`` character range into
    the DTQL text the error refers to, kept as a plain tuple so the
    core layer never depends on :mod:`repro.analysis`. Parser errors
    carry one whenever the offending token is known; errors raised
    while building a :class:`~repro.core.query.ast.Query` from
    programmatic dataclasses have no text to point into and leave it
    ``None``.

    ``code`` says what kind of error a query-building one is, as its
    DTQL diagnostic code (``DTQL002`` unknown column, ``DTQL003``
    unknown table, ``DTQL004`` ill-formed query; ``None`` for a plain
    syntax error), and ``name`` is the unknown column or table. Both
    survive :func:`~repro.core.query.parser.parse_query`'s re-wrap, so
    the semantic analyzer never reads a message to classify one.
    ``diagnostics`` holds the error findings of a query the semantic
    analyzer rejected.
    """

    def __init__(self, message: str = "",
                 span: "tuple[int, int] | None" = None,
                 code: str | None = None, name: str | None = None,
                 diagnostics: tuple = ()) -> None:
        super().__init__(message)
        self.span = span
        self.code = code
        self.name = name
        self.diagnostics = diagnostics


class ParseError(QueryError):
    """DTQL query text could not be parsed."""


class PlanError(QueryError):
    """The optimizer could not produce a physical plan for a query."""


class MobileError(DrugTreeError):
    """Mobile protocol or session failure."""


class UnknownSessionError(MobileError):
    """A request named a session the server does not hold.

    Raised both for session ids that never existed and for sessions the
    bounded session table already evicted as idle; the serving layer
    reacts by transparently reopening the session.
    """


class ServingError(DrugTreeError):
    """Multi-tenant serving layer failure (bad config, bad request)."""


class OverloadError(ServingError):
    """Admission control rejected the request before execution.

    Carries the machine-usable shed decision: ``reason`` is one of
    ``rate_limited`` / ``queue_full`` / ``overload``, and
    ``retry_after_s`` is the virtual-seconds hint after which the same
    request would plausibly be admitted. Rejections are charged ~zero
    virtual latency — shedding that costs latency would defeat its
    purpose.
    """

    def __init__(self, message: str = "", reason: str = "overload",
                 tenant: str = "", retry_after_s: float = 0.0) -> None:
        super().__init__(message)
        self.reason = reason
        self.tenant = tenant
        self.retry_after_s = retry_after_s


class WorkloadError(DrugTreeError):
    """Synthetic dataset or workload generation failure."""


class ObservabilityError(DrugTreeError):
    """Misuse of the tracing/metrics subsystem (bad buckets, span order)."""
