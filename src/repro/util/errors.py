"""Exception hierarchy shared by all :mod:`repro` subsystems."""


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class DataFormatError(ReproError):
    """A file (PCL, CDT, GTR/ATR, OBO, ...) violates its format contract.

    Carries optional location information so parsers can report the
    offending line to the user.
    """

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        location = ""
        if path is not None:
            location = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message + location)


class ValidationError(ReproError):
    """An argument or internal invariant check failed."""


class CommunicationError(ReproError):
    """A message-passing operation on the simulated cluster failed."""


class DeadlineExceeded(ReproError):
    """A request's monotonic deadline budget ran out before it completed.

    Distinct from :class:`RpcError`: a transport failure says "that hop
    broke, maybe retry elsewhere"; a spent deadline says "stop spending
    — the client's budget is gone" and must never trigger retries,
    failover, or in-process fallback work.
    """


class RpcError(CommunicationError):
    """A framed RPC exchange failed (dead node, timeout, bad frame)."""


class SearchError(ReproError):
    """A SPELL/annotation search could not be executed (e.g. empty query)."""


class UnknownDatasetError(SearchError):
    """A ``datasets`` filter names datasets the compendium does not hold.

    ``datasets`` is the sorted offending names and ``known_count`` how
    many datasets the compendium does hold; the API maps the error to
    the stable ``UNKNOWN_DATASET`` code with both in ``details``.  The
    message is the only positional argument, so the error survives the
    default exception pickling a process-pool worker's reply goes through.
    """

    def __init__(
        self, message: str, *, datasets: tuple[str, ...] = (), known_count: int = 0
    ) -> None:
        super().__init__(message)
        self.datasets = tuple(datasets)
        self.known_count = int(known_count)


class UnknownGeneError(SearchError):
    """No query gene exists in the searched scope (``UNKNOWN_GENE``).

    ``genes`` is the query, in the order it was given.
    """

    def __init__(self, message: str, *, genes: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.genes = tuple(genes)


class StoreError(ReproError):
    """A persistent index store is missing, corrupt, or format-incompatible."""


class StoreCorruptError(StoreError):
    """Shard bytes failed end-to-end integrity verification.

    Raised when a shard's on-disk bytes no longer hash to the sha256 its
    manifest recorded (bit rot, torn write, tampering) and no bound
    :class:`Dataset` source was available to rebuild from.  The damaged
    file has already been quarantined — this error is the *refusal* to
    serve, never a report of silently-served corruption.  The API maps
    it to the stable ``STORE_CORRUPT`` code (distinct from
    ``INDEX_STALE``: stale means rebuild-and-retry, corrupt means the
    bytes themselves are untrustworthy).

    ``datasets``/``files`` name what failed so operators can find the
    quarantined artifacts.
    """

    def __init__(
        self,
        message: str,
        *,
        datasets: tuple[str, ...] = (),
        files: tuple[str, ...] = (),
    ) -> None:
        super().__init__(message)
        self.datasets = tuple(datasets)
        self.files = tuple(files)


class StorePublishError(StoreError):
    """A store write could not be published atomically (ENOSPC, EIO, ...).

    The store on disk is whatever complete state it was in before the
    attempt — a failed publish never leaves a half-written manifest or
    shard under its final name."""


class OntologyError(ReproError):
    """The GO DAG or its annotations are inconsistent (cycles, bad ids)."""


class RenderError(ReproError):
    """A rendering request cannot be satisfied (bad geometry, empty pane)."""
