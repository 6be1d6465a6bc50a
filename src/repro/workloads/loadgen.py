"""Open-loop load generation: thousands of phones in virtual time.

The serving experiments need traffic that behaves like a real install
base, not like a benchmark loop. Three properties matter:

* **Open loop** — gesture sessions arrive as a Poisson process whose
  rate is set by the *population*, not by the server's speed. When the
  server falls behind, arrivals keep coming; that is the regime where
  naive queueing collapses and admission control earns its keep.
* **Zipf skew** — navigation targets are drawn Zipf-distributed over
  the family's clades and proteins: a few hot clades soak most of the
  taps (which is what makes the shared cache front effective), with a
  long tail keeping it honest.
* **Sessions, not requests** — each arrival is a whole gesture session
  planned by the same Markov model experiment E5 replays
  (:func:`repro.mobile.workload.plan_session`), its taps spread by
  exponential think times.

Everything is drawn from seeded RNGs keyed by ``(seed, tenant index)``,
so a load description maps to one exact request list, bit-for-bit,
every run.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from repro.errors import ServingError
from repro.mobile.workload import plan_session
from repro.serving.frontend import Request

#: DTQL templates a session's query gestures instantiate (same shapes
#: as the E5 mobile replay, so the engine-side cost profile matches).
_QUERY_TEMPLATES = (
    "SELECT count(*), mean(p_affinity), max(p_affinity) "
    "IN SUBTREE '{clade}'",
    "SELECT ligand_id, p_affinity FROM bindings "
    "WHERE p_affinity >= {threshold} IN SUBTREE '{clade}' "
    "ORDER BY p_affinity DESC LIMIT 10",
)

#: Gestures per session (Markov-planned).
_SESSION_STEPS = 8
#: Fraction of render gestures that become details taps.
_DETAILS_FRACTION = 0.15
#: Zipf exponent of clade and protein popularity.
ZIPF_S = 1.1


class ZipfSampler:
    """Draw items with probability proportional to ``1 / rank**ZIPF_S``.

    Rank order is the order of *items*; the caller shuffles first if it
    wants a different popularity assignment. Sampling is O(log n) via a
    cumulative-weight table.
    """

    def __init__(self, items: Sequence[str]) -> None:
        if not items:
            raise ServingError("zipf sampler needs at least one item")
        self.items = list(items)
        weights = [1.0 / (rank ** ZIPF_S)
                   for rank in range(1, len(self.items) + 1)]
        self._cumulative = list(accumulate(weights))

    def sample(self, rng: random.Random) -> str:
        point = rng.random() * self._cumulative[-1]
        return self.items[bisect_left(self._cumulative, point)]


@dataclass(frozen=True)
class TenantLoad:
    """One tenant's offered traffic."""

    tenant_id: str
    #: Target offered request rate, requests per virtual second.
    rps: float

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ServingError("tenant load needs a tenant id")
        if self.rps <= 0:
            raise ServingError("tenant load rate must be positive")


@dataclass(frozen=True)
class LoadConfig:
    """Shape of one generated traffic interval."""

    tenants: tuple[TenantLoad, ...] = (TenantLoad("default", 20.0),)
    duration_s: float = 60.0
    #: Mean exponential think time between a session's gestures.
    think_mean_s: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ServingError("load needs at least one tenant")
        if self.duration_s <= 0:
            raise ServingError("load duration must be positive")
        if self.think_mean_s < 0:
            raise ServingError("think time must be >= 0")


def generate_load(clades: Sequence[str], proteins: Sequence[str],
                  config: LoadConfig | None = None) -> list[Request]:
    """Generate the full request list for one traffic interval.

    *clades* are render/query targets; *proteins* are details targets.
    Requests are returned unsorted (the frontend orders by arrival);
    ``seq`` breaks arrival ties deterministically.
    """
    config = config or LoadConfig()
    if not clades:
        raise ServingError("load generation needs clade names")
    if not proteins:
        raise ServingError("load generation needs protein ids")
    clade_sampler = ZipfSampler(clades)
    protein_sampler = ZipfSampler(proteins)
    requests: list[Request] = []
    seq = 0
    for tenant_index, load in enumerate(config.tenants):
        # Str seeds hash via SHA-512 — stable across processes, unlike
        # tuple seeds (salted ``hash()``).
        rng = random.Random(
            f"{config.seed}:{tenant_index}:{load.tenant_id}")
        # Sessions arrive Poisson at rps / steps, so the offered
        # *gesture* rate lands on the tenant's target.
        session_rate = load.rps / _SESSION_STEPS
        arrival = 0.0
        session_index = 0
        while True:
            arrival += rng.expovariate(session_rate)
            if arrival >= config.duration_s:
                break
            session_key = f"{load.tenant_id}-u{session_index}"
            session_index += 1
            plan = plan_session(
                _SESSION_STEPS,
                seed=(config.seed * 1_000_003
                      + tenant_index * 1_009 + session_index),
            )
            tap_at = arrival
            for kind in plan.kinds:
                if tap_at >= config.duration_s:
                    break
                requests.append(_gesture_request(
                    load.tenant_id, session_key, kind, tap_at, seq,
                    rng, clade_sampler, protein_sampler,
                ))
                seq += 1
                if config.think_mean_s > 0:
                    tap_at += rng.expovariate(
                        1.0 / config.think_mean_s)
    return requests


def _gesture_request(tenant_id: str, session_key: str, gesture: str,
                     arrival_s: float, seq: int, rng: random.Random,
                     clade_sampler: ZipfSampler,
                     protein_sampler: ZipfSampler) -> Request:
    """Resolve one Markov gesture kind into a concrete request."""
    if gesture == "query":
        clade = clade_sampler.sample(rng)
        template = rng.choice(_QUERY_TEMPLATES)
        dtql = template.format(
            clade=clade, threshold=round(rng.uniform(5.0, 7.5), 1))
        return Request(tenant=tenant_id, session=session_key,
                       kind="query", target=dtql,
                       arrival_s=arrival_s, seq=seq)
    # Renders (expand / pan) sometimes become details taps: the user
    # drilled down far enough to touch a leaf card.
    if rng.random() < _DETAILS_FRACTION:
        return Request(tenant=tenant_id, session=session_key,
                       kind="details",
                       target=protein_sampler.sample(rng),
                       arrival_s=arrival_s, seq=seq)
    return Request(tenant=tenant_id, session=session_key,
                   kind="render", target=clade_sampler.sample(rng),
                   arrival_s=arrival_s, seq=seq)
