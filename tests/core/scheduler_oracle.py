"""Reference scheduler that the production Table 1 scan is checked against.

:class:`LiteralTableOneScheduler` fills each slot the way paper Table 1
reads: it scans every ACTIVE request of the pool, one probe per pending
packet, in the pool's predetermined order, and inserts a request when its
whole no-delay pipeline fits — no node used twice in any slot, no slot
over M, and ``oracle.compatible`` true for every extended group.  It keeps
no scan list of its own (the active set is read off the request states),
no per-offset context and no sequence memo.

Everything around the fill — arrivals, loss draws, retry budgets, miss
streaks, blacklisting and in-cycle failover — is inherited unchanged, so a
correct production scheduler is indistinguishable from this oracle: the
same transmissions in every slot, the same deliveries, write-offs and
failovers, and the same number of real oracle queries.
"""

from __future__ import annotations

from repro.core import OnlinePollingScheduler, RequestState

__all__ = ["LiteralTableOneScheduler"]


class LiteralTableOneScheduler(OnlinePollingScheduler):
    """Table 1 with one probe per pending request and direct oracle calls."""

    def _fill_slot(self, t: int, draw_loss: bool = True) -> None:
        m = self.oracle.max_group_size
        active = [r for r in self.pool.requests if r.state is RequestState.ACTIVE]
        for req in active:
            if len(self.schedule.group_at(t)) >= m:
                return
            if self._fits(req, t):
                self._insert(req, t, draw_loss=draw_loss)

    def _fits(self, req, t: int) -> bool:
        path = req.path
        for k in range(len(path) - 1):
            group = self.schedule.group_at(t + k)
            if len(group) >= self.oracle.max_group_size:
                return False
            busy = {tx.sender for tx in group} | {tx.receiver for tx in group}
            if path[k] in busy or path[k + 1] in busy:
                return False
            links = [tx.link for tx in group] + [(path[k], path[k + 1])]
            if not self.oracle.compatible(links):
                return False
        return True
