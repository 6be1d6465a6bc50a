"""The DrugTree mobile server: sessions, viewport navigation, queries.

Holds one :class:`~repro.core.drugtree.DrugTree` behind a
:class:`~repro.core.query.executor.QueryEngine` and serves per-client
sessions. Each response is framed through :mod:`repro.mobile.protocol`;
the server remembers the last view it sent each session so it can ship
deltas, and renders through the LOD module unless configured for
full-tree responses (the baselines of experiments E5/E6).

A viewport is rendered once per data version: its payload, encoded full
frame and visible leaves are memoized and shared read-only by every
session that navigates to it; the frame chosen between two memoized
views is memoized too. The memos are stamped with
:attr:`DrugTree.data_version` like every cached answer (see
:mod:`repro.core.query.cache`), so no memoized view is served after an
insert. Degraded renders are never memoized.

The server is safe for concurrent use by a worker pool: the bounded,
LRU-ordered session table is guarded by one table lock, each session's
view state by a per-session lock, and the detail-prefetch cache and the
render memos by a lock each — none of them ever held across a render,
an encode or a federation fetch.
Requests naming an evicted session raise a typed
:class:`~repro.errors.UnknownSessionError` so frontends (see
:mod:`repro.serving`) can transparently reopen.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.core.drugtree import DrugTree
from repro.core.query.executor import QueryEngine
from repro.errors import MobileError, QueryError, UnknownSessionError
from repro.mobile.lod import render_full, render_viewport
from repro.mobile.protocol import Message, delta_message, full_message
from repro.obs import WallTimer, get_metrics, get_tracer
from repro.sources.annotation import KIND_ANNOTATION
from repro.sources.protein import KIND_PROTEIN
from repro.sources.resilience import Deadline


#: Detail records retained before the prefetch cache drops the oldest
#: entries.
DETAIL_CACHE_CAPACITY = 4096
#: Memoized views, and separately memoized view-to-view frames,
#: retained before each memo drops its oldest entries.
RENDER_MEMO_CAPACITY = 4096
#: Viewport bounds used instead of ``lod_max_depth`` / ``lod_max_nodes``
#: while the federation is degraded (open breakers): ship a smaller tree
#: rather than an error.
DEGRADED_LOD_MAX_DEPTH = 2
DEGRADED_LOD_MAX_NODES = 60
#: Bound on concurrently open sessions; opening past it evicts the
#: least-recently-used session (a phone that went quiet).
MAX_SESSIONS = 10_000


@dataclass(frozen=True)
class ServerConfig:
    """Mobile-protocol feature toggles (E5/E6 knobs)."""

    use_lod: bool = True
    use_delta: bool = True
    lod_max_depth: int = 3
    lod_max_nodes: int = 200
    #: Prefetch remote details for visible leaves on every render
    #: (needs a federation scheduler on the server).
    prefetch_details: bool = True
    #: Virtual-seconds budget per tap that touches the federation;
    #: ``None`` disables deadlines (the historical behaviour). With a
    #: budget, remote work past it is cancelled and the response
    #: degrades instead of stalling.
    tap_deadline_s: float | None = None


@dataclass
class ServerResponse:
    """One served interaction: the message plus server-side cost."""

    message: Message
    server_wall_s: float
    payload_rows: int = 0
    #: "fresh" for a normal response; "degraded" when the answer was
    #: downgraded (partial details, reduced LOD), "stale" for a detail
    #: card built from the overlay's own columns.
    status: str = "fresh"


@dataclass(frozen=True, eq=False)
class _View:
    """One rendered viewport with its encoded full frame.

    Never mutated: a memoized view is shared by every session that
    navigates to it. ``serial`` names the render (frames between two
    views are memoized under their serials); it is ``None`` for a
    degraded render, which no other session ever sees.
    """

    payload: dict[str, Any]
    full: Message
    leaves: list[str]
    serial: int | None


@dataclass
class _Session:
    #: The view last sent, which the client holds (the delta base).
    view: _View | None = None
    #: Guards ``view`` against concurrent gestures on the same session.
    lock: threading.RLock = field(default_factory=threading.RLock,
                                  repr=False, compare=False)


class DrugTreeServer:
    """Serves viewport renders and DTQL queries to mobile clients."""

    def __init__(self, drugtree: DrugTree,
                 config: ServerConfig | None = None,
                 federation=None) -> None:
        self.drugtree = drugtree
        self.config = config or ServerConfig()
        #: Optional :class:`~repro.sources.scheduler.FetchScheduler`;
        #: enables viewport detail prefetch and remote detail columns
        #: in DTQL queries.
        self.federation = federation
        self.engine = QueryEngine(drugtree, federation=federation)
        #: Session table, ordered by last use (front = coldest).
        #: All access goes through ``_sessions_lock``; the lock is
        #: never held across a render or a federation fetch.
        self._sessions: OrderedDict[str, _Session] = OrderedDict()
        self._sessions_lock = threading.Lock()
        self._session_counter = itertools.count()
        self._root_name = self._pick_root_name()
        #: protein_id -> merged detail record, filled by the viewport
        #: prefetch so a details tap is served without a round-trip.
        #: Guarded by ``_details_lock``; fetches run outside the lock
        #: (two sessions missing the same leaf at once both fetch it
        #: rather than one waiting on a lock across the round-trip).
        self._details: dict[str, dict[str, Any]] = {}
        self._details_lock = threading.Lock()
        #: View key -> view, and (previous view serial, next view
        #: serial) -> chosen frame, every view rendered at data version
        #: ``_memo_version``. Guarded by ``_memo_lock``; renders and
        #: encodes run outside it (two sessions missing the same view
        #: at once both render it, and the later store wins).
        self._views: dict[tuple | None, _View] = {}
        self._frames: dict[tuple[int, int], Message] = {}
        self._memo_version = 0
        self._memo_lock = threading.Lock()
        self._view_serials = itertools.count()

    def _pick_root_name(self) -> str:
        root = self.drugtree.tree.root
        if root.name:
            return root.name
        # Fall back to the first named node covering the whole tree.
        for node in self.drugtree.tree.preorder():
            if node.name and not node.is_leaf:
                return node.name
        raise MobileError("tree has no named internal node to focus on")

    # -- session lifecycle ------------------------------------------------------

    def open_session(self) -> tuple[str, ServerResponse]:
        """Open a session; returns its id and the initial tree render.

        Opening is where the bounded session table sheds: sessions past
        :data:`MAX_SESSIONS` are evicted coldest-first, and later
        requests naming them raise
        :class:`~repro.errors.UnknownSessionError` so callers reopen.
        """
        session_id = f"s{next(self._session_counter)}"
        session = _Session()
        evicted = 0
        with self._sessions_lock:
            self._sessions[session_id] = session
            while len(self._sessions) > MAX_SESSIONS:
                self._sessions.popitem(last=False)
                evicted += 1
            open_count = len(self._sessions)
        metrics = get_metrics()
        if evicted:
            metrics.counter("mobile.sessions_evicted").inc(evicted)
        metrics.gauge("mobile.open_sessions").set(open_count)
        response = self._render(session, self._root_name)
        return session_id, response

    def close_session(self, session_id: str) -> None:
        with self._sessions_lock:
            self._sessions.pop(session_id, None)
            open_count = len(self._sessions)
        get_metrics().gauge("mobile.open_sessions").set(open_count)

    def _account(self, interaction: str,
                 response: ServerResponse) -> ServerResponse:
        """Meter one served interaction (bytes shipped, latency)."""
        metrics = get_metrics()
        metrics.counter("mobile.responses").inc()
        metrics.counter(f"mobile.responses.{interaction}").inc()
        metrics.counter("mobile.bytes_shipped").inc(
            response.message.wire_bytes
        )
        metrics.histogram("mobile.server_wall_s").observe(
            response.server_wall_s
        )
        return response

    def _session(self, session_id: str) -> _Session:
        with self._sessions_lock:
            session = self._sessions.get(session_id)
            if session is None:
                raise UnknownSessionError(
                    f"unknown session {session_id!r} "
                    "(never opened, closed, or evicted)"
                )
            self._sessions.move_to_end(session_id)
            return session

    # -- degradation helpers --------------------------------------------------

    def _federation_degraded(self) -> bool:
        """Any breaker currently not closed ⇒ serve smaller, not slower."""
        if self.federation is None or self.federation.breakers is None:
            return False
        return self.federation.breakers.open_fraction() > 0.0

    def _tap_deadline(self) -> Deadline | None:
        if (self.config.tap_deadline_s is None
                or self.federation is None):
            return None
        return Deadline(self.federation.clock,
                        self.config.tap_deadline_s)

    def _local_protein_card(self,
                            protein_id: str) -> dict[str, Any] | None:
        """The overlay's own columns for a protein (fallback card)."""
        table = self.drugtree.tables.get("proteins")
        if table is None:
            return None
        as_dict = table.schema.row_as_dict
        index = table.index_on("protein_id")
        if index is not None:
            for row_id in index.lookup(protein_id):
                return as_dict(table.get(row_id))
            return None
        for row in table.scan_rows():
            record = as_dict(row)
            if record.get("protein_id") == protein_id:
                return record
        return None

    # -- interactions ---------------------------------------------------------------

    def navigate(self, session_id: str, focus: str) -> ServerResponse:
        """Move the session viewport to *focus* and render it."""
        return self._render(self._session(session_id), focus)

    def query(self, session_id: str, dtql: str) -> ServerResponse:
        """Run a DTQL query on behalf of the session.

        The engine rejects a malformed tap (bad column from a stale
        client UI, type-mismatched literal, unparseable text) before any
        execution or fetch, so it never costs a source round-trip. The
        raised :class:`MobileError` carries the findings the engine's
        one analysis of the tap produced, machine-readable on
        ``.diagnostics``, so clients can highlight the offending span.
        """
        self._session(session_id)  # validates
        with get_tracer().span("mobile.query",
                               session=session_id) as span, \
                WallTimer() as timer:
            try:
                result = self.engine.execute(
                    dtql, deadline=self._tap_deadline())
            except QueryError as exc:
                if not exc.diagnostics:
                    raise  # the query was sound; running it failed
                get_metrics().counter("mobile.query_rejected").inc()
                error = MobileError(
                    "query rejected by semantic analysis: "
                    + "; ".join(d.render() for d in exc.diagnostics)
                )
                error.diagnostics = [d.as_dict() for d in exc.diagnostics]
                raise error from None
            payload = {"rows": result.rows,
                       "cache": result.cache_outcome}
            status = "fresh"
            if result.degraded:
                status = "degraded"
                payload["status"] = status
                if result.resilience:
                    payload["resilience"] = dict(result.resilience)
                get_metrics().counter("mobile.degraded_responses").inc()
            message = full_message(payload)
            span.set("rows", len(result.rows))
            span.set("wire_bytes", message.wire_bytes)
        return self._account("query", ServerResponse(
            message=message,
            server_wall_s=timer.elapsed_s,
            payload_rows=len(result.rows),
            status=status,
        ))

    def protein_details(self, session_id: str,
                        protein_id: str) -> ServerResponse:
        """Serve one protein's remote detail card (the details tap).

        Normally a cache hit: the viewport prefetch already pulled the
        structure and annotation records for every visible leaf. A miss
        (protein outside the rendered viewport) fetches on demand.

        When the tap is resilient (deadline set or breakers enabled)
        and only some sources answer, the card is served flagged
        ``degraded`` and not cached; when none can, it degrades to the
        overlay's own columns (flagged ``stale``) instead of erroring
        — the phone always gets *something* for a visible protein.
        """
        self._session(session_id)  # validates
        if self.federation is None:
            raise MobileError(
                "protein details need a federation scheduler "
                "(construct the server with federation=...)"
            )
        metrics = get_metrics()
        with get_tracer().span("mobile.protein_details",
                               session=session_id) as span, \
                WallTimer() as timer:
            with self._details_lock:
                details = self._details.get(protein_id)
            status = "fresh"
            if details is None:
                metrics.counter("mobile.prefetch.misses").inc()
                partial = self._prefetch_details([protein_id])
                with self._details_lock:
                    details = self._details.get(protein_id)
                if details is None and protein_id in partial:
                    details = partial[protein_id]
                    status = "degraded"
                    metrics.counter("mobile.degraded_responses").inc()
            else:
                metrics.counter("mobile.prefetch.hits").inc()
            if details is None and self.federation.degrades(
                    self.config.tap_deadline_s):
                card = self._local_protein_card(protein_id)
                if card is not None:
                    details = {
                        "organism": card.get("organism"),
                        "family": card.get("family"),
                        "ec_number": card.get("ec_number"),
                        "resolution": card.get("resolution"),
                        "source": "local-overlay",
                    }
                    status = "stale"
                    metrics.counter("mobile.degraded_responses").inc()
                    metrics.counter("mobile.details_from_overlay").inc()
            if details is None:
                raise MobileError(
                    f"no source has details for {protein_id!r}"
                )
            payload = {"protein_id": protein_id, "details": details}
            if status != "fresh":
                payload["status"] = status
            message = full_message(payload)
            span.set("wire_bytes", message.wire_bytes)
        return self._account("protein_details", ServerResponse(
            message=message,
            server_wall_s=timer.elapsed_s,
            payload_rows=1,
            status=status,
        ))

    # -- rendering ------------------------------------------------------------------

    def _visible_leaves(self, payload: dict[str, Any]) -> list[str]:
        return [
            entry["name"]
            for entry in payload.get("nodes", {}).values()
            if entry.get("leaf") and entry.get("name")
        ]

    def _prefetch_details(
            self, protein_ids: list[str]) -> dict[str, dict[str, Any]]:
        """Overlap protein + annotation pulls for the given leaves.

        The detail-cache lock is never held across the federation
        round-trip: two sessions prefetching the same viewport may both
        fetch, each paying its own round-trips. Whether a dark source
        raises or leaves its leaves without details is the scheduler's
        ``degrades`` policy. Only a batch in which both kinds came back
        fresh is cached; the cards of any other batch are returned for
        the caller to serve once, flagged, and are never stored — a
        record missing its annotations must not outlive the fault.
        """
        with self._details_lock:
            wanted = [pid for pid in protein_ids
                      if pid not in self._details]
        if not wanted:
            return {}
        metrics = get_metrics()
        metrics.counter("mobile.prefetch.batches").inc()
        metrics.counter("mobile.prefetch.keys").inc(len(wanted))
        requests = [
            (KIND_PROTEIN, wanted),
            (KIND_ANNOTATION, wanted),
        ]
        outcome = self.federation.fetch_all_resilient(
            requests, deadline=self._tap_deadline())
        proteins = outcome.records.get(KIND_PROTEIN, {})
        annotations = outcome.records.get(KIND_ANNOTATION, {})
        merged: dict[str, dict[str, Any]] = {}
        for pid in wanted:
            entry = proteins.get(pid)
            annotation = annotations.get(pid)
            if entry is None and annotation is None:
                continue
            merged[pid] = {
                "method": getattr(entry, "method", None),
                "resolution": getattr(entry, "resolution_angstrom",
                                      None),
                "organism": getattr(entry, "organism", None),
                "go_terms": list(getattr(annotation, "go_terms",
                                         ()) or ()),
                "keywords": list(getattr(annotation, "keywords",
                                         ()) or ()),
                "ec_number": getattr(annotation, "ec_number", None),
            }
        if outcome.degraded:
            return merged
        with self._details_lock:
            self._details.update(merged)
            while len(self._details) > DETAIL_CACHE_CAPACITY:
                self._details.pop(next(iter(self._details)))
        return {}

    def _render_payload(self, focus: str, max_depth: int,
                        max_nodes: int) -> dict[str, Any]:
        if self.config.use_lod:
            return render_viewport(self.drugtree, focus,
                                   max_depth=max_depth,
                                   max_nodes=max_nodes)
        return render_full(self.drugtree)

    def _degraded_view(self, focus: str) -> _View:
        # Breakers are open: serve a smaller viewport now rather than a
        # full one after the dark sources' timeouts (or not at all).
        payload = self._render_payload(
            focus,
            min(self.config.lod_max_depth, DEGRADED_LOD_MAX_DEPTH),
            min(self.config.lod_max_nodes, DEGRADED_LOD_MAX_NODES))
        payload["status"] = "degraded"
        return _View(payload, full_message(payload), [], None)

    def _view(self, focus: str) -> tuple[_View, bool]:
        """The memoized view of *focus* at the current data version
        (rendered on a miss); the flag says whether it was a hit."""
        max_depth = self.config.lod_max_depth
        max_nodes = self.config.lod_max_nodes
        key = (focus, max_depth, max_nodes) if self.config.use_lod else None
        # Read before rendering: a render that races an insert carries
        # the version before it and is never stored after.
        version = self.drugtree.data_version
        with self._memo_lock:
            self._restamp(version)
            view = self._views.get(key)
        if view is not None:
            return view, True
        payload = self._render_payload(focus, max_depth, max_nodes)
        view = _View(payload, full_message(payload),
                     self._visible_leaves(payload),
                     next(self._view_serials))
        with self._memo_lock:
            if version == self._memo_version:  # else older: not stored
                self._views[key] = view
                while len(self._views) > RENDER_MEMO_CAPACITY:
                    self._views.pop(next(iter(self._views)))
        return view, False

    def _restamp(self, version: int) -> None:
        """Empty the memos if *version* is newer (caller holds the lock)."""
        if version > self._memo_version:
            self._memo_version = version
            self._views.clear()
            self._frames.clear()

    def _frame(self, previous: _View, view: _View) -> tuple[Message, bool]:
        """The frame moving a client from *previous* to *view*, memoized
        when both views are; the flag says whether it was a hit."""
        key = (previous.serial, view.serial)
        shared = None not in key
        if shared:
            with self._memo_lock:
                message = self._frames.get(key)
            if message is not None:
                return message, True
        # Adaptive framing: a big viewport jump can make the delta
        # larger than the fresh payload — ship whichever is smaller.
        delta = delta_message(previous.payload, view.payload)
        message = (delta if delta.wire_bytes < view.full.wire_bytes
                   else view.full)
        if shared:
            with self._memo_lock:
                self._frames[key] = message
                while len(self._frames) > RENDER_MEMO_CAPACITY:
                    self._frames.pop(next(iter(self._frames)))
        return message, False

    def _render(self, session: _Session, focus: str) -> ServerResponse:
        with get_tracer().span("mobile.render", focus=focus) as span, \
                WallTimer() as timer:
            degraded = self._federation_degraded()
            if degraded:
                view, hit = self._degraded_view(focus), False
                get_metrics().counter("mobile.degraded_responses").inc()
                span.set("degraded", True)
            else:
                view, hit = self._view(focus)
                if (self.federation is not None
                        and self.config.prefetch_details):
                    # No speculative pulls into a dark federation;
                    # probes go through explicit details taps instead.
                    self._prefetch_details(view.leaves)
            with session.lock:
                previous = session.view
            message = view.full
            if self.config.use_delta and previous is not None:
                message, framed = self._frame(previous, view)
                hit = hit and framed
            with session.lock:
                session.view = view
            # "hit": no LOD walk, encode or diff ran for this gesture.
            span.set("memo", "skipped" if degraded
                     else "hit" if hit else "miss")
            span.set("wire_bytes", message.wire_bytes)
        return self._account("render", ServerResponse(
            message=message,
            server_wall_s=timer.elapsed_s,
            payload_rows=len(view.payload.get("nodes", {})),
            status="degraded" if degraded else "fresh",
        ))
