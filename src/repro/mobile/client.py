"""The simulated mobile client.

A :class:`MobileClient` talks to a :class:`DrugTreeServer` over a
:class:`~repro.mobile.network.NetworkLink`. Every gesture becomes one
request/response exchange whose *experienced latency* is the sum of

* the network transfer (virtual seconds, from the link model), and
* the server compute (real wall seconds).

The client maintains its local payload state by applying deltas, and
verifies it can actually decode what it received — the protocol tests
ride on that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import MobileError
from repro.mobile.network import NetworkLink
from repro.mobile.protocol import KIND_DELTA, apply_delta
from repro.mobile.server import DrugTreeServer, ServerResponse

#: Approximate uplink size of one gesture request (JSON command).
REQUEST_BYTES = 160


@dataclass
class Interaction:
    """One completed client gesture and its cost breakdown."""

    kind: str
    target: str
    bytes_down: int
    network_s: float
    server_wall_s: float
    rows: int = 0

    @property
    def experienced_latency_s(self) -> float:
        """What the user waits: transfer plus server compute."""
        return self.network_s + self.server_wall_s


@dataclass
class ClientState:
    """The client's reconstructed view of the server payload."""

    payload: dict[str, Any] = field(default_factory=dict)


class MobileClient:
    """A phone-side session over a simulated link."""

    def __init__(self, server: DrugTreeServer, link: NetworkLink) -> None:
        self.server = server
        self.link = link
        self.state = ClientState()
        self.interactions: list[Interaction] = []
        self.session_id, response = server.open_session()
        self._receive("open", "root", response)

    # -- gestures ---------------------------------------------------------------

    def tap_expand(self, node_name: str) -> Interaction:
        """Tap a collapsed clade to focus and expand it."""
        response = self.server.navigate(self.session_id, node_name)
        return self._receive("expand", node_name, response)

    def pan_to(self, node_name: str) -> Interaction:
        """Pan the viewport to a (sibling/ancestor) node."""
        response = self.server.navigate(self.session_id, node_name)
        return self._receive("pan", node_name, response)

    def run_query(self, dtql: str) -> Interaction:
        """Issue a DTQL query from the device."""
        response = self.server.query(self.session_id, dtql)
        return self._receive("query", dtql[:40], response,
                             is_view=False)

    def search_sequence(self, residues: str,
                        top_k: int = 5) -> Interaction:
        """Paste a sequence and ask where it belongs in the tree."""
        response = self.server.search_sequence(self.session_id,
                                               residues, top_k=top_k)
        return self._receive("sequence_search", residues[:20],
                             response, is_view=False)

    # -- bookkeeping ---------------------------------------------------------------

    def _receive(self, kind: str, target: str,
                 response: ServerResponse,
                 is_view: bool = True) -> Interaction:
        network_s = self.link.exchange(REQUEST_BYTES,
                                       response.message.wire_bytes)
        payload = response.message.payload()
        if is_view:
            if response.message.kind == KIND_DELTA:
                if not self.state.payload:
                    raise MobileError("received a delta with no base state")
                self.state.payload = apply_delta(self.state.payload,
                                                 payload)
            else:
                self.state.payload = payload
        interaction = Interaction(
            kind=kind,
            target=target,
            bytes_down=response.message.wire_bytes,
            network_s=network_s,
            server_wall_s=response.server_wall_s,
            rows=response.payload_rows,
        )
        self.interactions.append(interaction)
        return interaction

    # -- reporting -------------------------------------------------------------------

    @property
    def total_bytes_down(self) -> int:
        return sum(i.bytes_down for i in self.interactions)

    def latencies(self) -> list[float]:
        return [i.experienced_latency_s for i in self.interactions]
