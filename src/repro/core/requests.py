"""Polling requests and their lifecycle (paper Sec. III-D).

"We refer each packet as a polling request, or simply a request.  Initially,
each request is active.  When a request has been added to the schedule, it
becomes idle.  At the time slot when the packet should have been received by
the cluster head, if it is not received, the request will become active
again.  Otherwise, it will be deleted."

One request = one packet.  A sensor with *k* packets owns *k* requests, all
sharing its relaying path for the cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..routing.paths import RelayingPath, RoutingPlan

__all__ = ["RequestState", "PollRequest", "RequestPool"]


class RequestState(Enum):
    ACTIVE = "active"  # waiting to be added to the schedule
    IDLE = "idle"  # in the schedule, outcome not yet known
    DELETED = "deleted"  # packet received by the head


@dataclass
class PollRequest:
    """One packet awaiting delivery to the head."""

    request_id: int
    sensor: int
    path: RelayingPath
    state: RequestState = RequestState.ACTIVE
    start_slot: int | None = None  # slot of the current attempt's first hop
    attempts: int = 0

    @property
    def hop_count(self) -> int:
        return len(self.path) - 1

    def arrival_slot(self) -> int:
        """Slot in which the head receives this attempt's packet."""
        if self.start_slot is None:
            raise ValueError(f"request {self.request_id} is not scheduled")
        return self.start_slot + self.hop_count - 1

    def mark_scheduled(self, start_slot: int) -> None:
        if self.state is not RequestState.ACTIVE:
            raise ValueError(
                f"request {self.request_id} cannot be scheduled from {self.state}"
            )
        self.state = RequestState.IDLE
        self.start_slot = start_slot
        self.attempts += 1

    def mark_lost(self) -> None:
        """The expected arrival slot passed without the packet: re-activate."""
        if self.state is not RequestState.IDLE:
            raise ValueError(
                f"request {self.request_id} cannot be reactivated from {self.state}"
            )
        self.state = RequestState.ACTIVE
        self.start_slot = None

    def mark_delivered(self) -> None:
        if self.state is not RequestState.IDLE:
            raise ValueError(
                f"request {self.request_id} cannot be delivered from {self.state}"
            )
        self.state = RequestState.DELETED


class RequestPool:
    """All requests of one duty cycle, in the deterministic scan order.

    The paper scans "according to an arbitrarily predetermined order"; we
    fix it as ascending request id, which enumerates sensors in index order
    and a sensor's packets consecutively.  (Deep-first and shallow-first
    orders are exposed as alternatives for the ablation benchmarks; both
    sort stably, so they keep a sensor's packets consecutive too.)

    The on-line scheduler relies on a sensor's packets being consecutive
    for speed only, not for correctness: it probes one request per run of
    same-path requests, and any order yields the same schedule as
    probing every request (see ``OnlinePollingScheduler._fill_slot``).
    """

    def __init__(self, plan: RoutingPlan, order: str = "index"):
        self.plan = plan
        self.requests: list[PollRequest] = []
        rid = 0
        for sensor in sorted(plan.paths):
            n_packets = int(plan.cluster.packets[sensor])
            for _ in range(n_packets):
                self.requests.append(
                    PollRequest(request_id=rid, sensor=sensor, path=plan.paths[sensor])
                )
                rid += 1
        if order == "index":
            pass
        elif order == "deep-first":
            self.requests.sort(key=lambda r: (-r.hop_count, r.request_id))
        elif order == "shallow-first":
            self.requests.sort(key=lambda r: (r.hop_count, r.request_id))
        else:
            raise ValueError(f"unknown scan order {order!r}")

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self):
        return iter(self.requests)

    def by_id(self, request_id: int) -> PollRequest:
        for r in self.requests:
            if r.request_id == request_id:
                return r
        raise KeyError(f"no request {request_id}")

    def active(self) -> list[PollRequest]:
        return [r for r in self.requests if r.state is RequestState.ACTIVE]

    def idle(self) -> list[PollRequest]:
        return [r for r in self.requests if r.state is RequestState.IDLE]

    def all_deleted(self) -> bool:
        return all(r.state is RequestState.DELETED for r in self.requests)

    def total_attempts(self) -> int:
        return sum(r.attempts for r in self.requests)
