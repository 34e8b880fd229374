"""Reference min-max-load solvers that the production solver is checked against.

Both oracles answer every feasibility probe *cold*: they rebuild the
node-split network at the probed capacities and solve it from zero flow
with Edmonds-Karp.  That is the original, obviously-correct way to run the
search of paper Sec. III-A, without the warm-start engine of
``repro.routing.minmax``.

* :func:`cold_ek_solve` bisects the sorted candidate capacities (uniform
  δ, or the energy-aware ``{k / e_i}`` set).
* :func:`linear_search_solve` is the paper's own loop: δ = lo, lo+1, ...
  until every source saturates (uniform case only).

Both decompose the last feasible network.  EK from zero on a fresh build is
the canonical flow, so a correct production solve must equal the oracle
exactly.  The benchmarks import :func:`cold_ek_solve` as the cold baseline
that warm-start Dinic is timed against.
"""

from __future__ import annotations

import numpy as np

from repro.routing.maxflow import FlowNetwork
from repro.routing.minmax import (
    FlowSolution,
    RoutingInfeasible,
    SolveStats,
    _build_network,
    _decompose,
)
from repro.topology import Cluster

__all__ = ["cold_feasible", "cold_ek_solve", "linear_search_solve"]


def cold_feasible(cluster: Cluster, caps: np.ndarray) -> FlowNetwork | None:
    """Rebuild at *caps*, solve from zero with EK; the saturating network or None."""
    net, _, _ = _build_network(cluster, cluster.packets, caps)
    if net.max_flow(0, 1) == cluster.total_packets:
        return net
    return None


def _solution(
    cluster: Cluster,
    net: FlowNetwork,
    caps: np.ndarray,
    delta: int | None,
    stats: SolveStats,
) -> FlowSolution:
    flow_paths, loads = _decompose(cluster, net)
    if delta is None:  # energy-aware: the max normalized load achieved
        energy = cluster.energy
        max_load = float(
            max((loads[i] / energy[i] for i in range(cluster.n_sensors)), default=0.0)
        )
    else:
        max_load = delta
    return FlowSolution(
        cluster=cluster,
        max_load=max_load,
        loads=loads,
        flow_paths=flow_paths,
        capacities=caps,
        stats=stats,
    )


def _trivial(cluster: Cluster) -> FlowSolution:
    n = cluster.n_sensors
    return FlowSolution(
        cluster=cluster,
        max_load=0,
        loads=np.zeros(n, dtype=np.int64),
        flow_paths={},
        capacities=np.zeros(n, dtype=np.int64),
        stats=SolveStats(),
    )


def cold_ek_solve(cluster: Cluster, energy_aware: bool = False) -> FlowSolution:
    """Bisect the candidate capacities with one cold EK solve per probe.

    The last feasible probe's network is kept, so the optimum is decomposed
    without a duplicate solve: ``stats.max_flow_calls == stats.probes``.
    """
    total = cluster.total_packets
    if total == 0:
        return _trivial(cluster)
    n = cluster.n_sensors
    energy = cluster.energy
    if energy_aware:
        lams = np.unique(
            np.arange(1, total + 1, dtype=np.float64)[:, None] / energy[None, :]
        )
        count = len(lams)
        caps_at = lambda k: np.floor(lams[k] * energy + 1e-9).astype(np.int64)
    else:
        lo = max(1, int(cluster.packets.max()))
        count = total - lo + 1
        caps_at = lambda k: np.full(n, lo + k, dtype=np.int64)
    stats = SolveStats()
    best: tuple[int, FlowNetwork] | None = None
    low, high = 0, count - 1
    while low <= high:
        mid = (low + high) // 2
        stats.probes += 1
        stats.max_flow_calls += 1
        net = cold_feasible(cluster, caps_at(mid))
        if net is None:
            low = mid + 1
        else:
            best = (mid, net)
            high = mid - 1
    if best is None:
        raise RoutingInfeasible("no feasible capacity up to total packets")
    k, net = best
    delta = None if energy_aware else lo + k
    return _solution(cluster, net, caps_at(k), delta, stats)


def linear_search_solve(cluster: Cluster) -> FlowSolution:
    """The paper's δ++ loop from the largest own demand, probing cold."""
    total = cluster.total_packets
    if total == 0:
        return _trivial(cluster)
    stats = SolveStats()
    delta = max(1, int(cluster.packets.max()))
    while delta <= total:
        caps = np.full(cluster.n_sensors, delta, dtype=np.int64)
        stats.probes += 1
        stats.max_flow_calls += 1
        net = cold_feasible(cluster, caps)
        if net is not None:
            return _solution(cluster, net, caps, delta, stats)
        delta += 1
    raise RoutingInfeasible("no feasible δ up to total packets")
