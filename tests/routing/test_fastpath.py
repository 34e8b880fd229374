"""Fast-path tests: Dinic vs Edmonds-Karp, and the warm-start solver vs
the cold reference in ``flow_oracle.py``.

The contract under test (see DESIGN.md §7): the production solve returns a
:class:`FlowSolution` bit-for-bit identical to the cold rebuild-per-probe
Edmonds-Karp oracle, builds its network exactly once, and the oracle (the
benchmarks' cold baseline) pays no duplicate final solve.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.routing import FlowNetwork, RoutingInfeasible, solve_min_max_load
from repro.routing import minmax
from repro.routing.minmax import _WarmEngine
from repro.topology import Cluster, uniform_square

from .flow_oracle import cold_ek_solve, cold_feasible, linear_search_solve


@st.composite
def random_flow_instance(draw):
    n = draw(st.integers(3, 9))
    n_edges = draw(st.integers(1, 24))
    edges = []
    for _ in range(n_edges):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u == v:
            continue
        cap = draw(st.integers(0, 12))
        edges.append((u, v, cap))
    return n, edges


def _twin_networks(n, edges):
    a, b = FlowNetwork(n), FlowNetwork(n)
    for u, v, cap in edges:
        a.add_edge(u, v, cap)
        b.add_edge(u, v, cap)
    return a, b


@given(random_flow_instance())
@settings(max_examples=60, deadline=None)
def test_dinic_matches_edmonds_karp(instance):
    n, edges = instance
    ek, dinic = _twin_networks(n, edges)
    assert ek.max_flow(0, n - 1) == dinic.max_flow(0, n - 1, method="dinic")


@given(random_flow_instance(), st.integers(0, 10))
@settings(max_examples=40, deadline=None)
def test_limited_solve_reaches_min_of_limit_and_max(instance, limit):
    n, edges = instance
    ek, limited = _twin_networks(n, edges)
    full = ek.max_flow(0, n - 1)
    got = limited.max_flow(0, n - 1, method="dinic", limit=limit)
    assert got == min(limit, full) or (got >= limit and got <= full)


def test_incremental_augment_after_capacity_raise():
    """The warm-start invariant on a concrete network: raising a capacity
    keeps the existing flow, and re-solving only adds the increment."""
    g = FlowNetwork(3)
    mid = g.add_edge(0, 1, 2)
    g.add_edge(1, 2, 10)
    assert g.max_flow(0, 2, method="dinic") == 2
    g.set_capacity(mid, 7)
    assert g.edge_flow(mid) == 2  # prior flow untouched
    assert g.max_flow(0, 2, method="dinic") == 5  # only the increment
    assert g.flow_value(0) == 7


def test_snapshot_restore_roundtrip():
    g = FlowNetwork(3)
    g.add_edge(0, 1, 4)
    g.add_edge(1, 2, 4)
    g.max_flow(0, 2)
    snap = g.snapshot_flow()
    g.reset_flow()
    assert g.flow_value(0) == 0
    g.restore_flow(snap)
    assert g.flow_value(0) == 4
    with pytest.raises(ValueError):
        g.restore_flow([0])


def test_invalid_method_rejected():
    g = FlowNetwork(2)
    g.add_edge(0, 1, 1)
    with pytest.raises(ValueError):
        g.max_flow(0, 1, method="push-relabel")


def _random_cluster(seed: int, n: int = 10) -> Cluster:
    dep = uniform_square(n, seed=seed)
    rng = np.random.default_rng(seed)
    packets = rng.integers(0, 4, size=n)
    c = Cluster.from_deployment(dep).with_packets(packets)
    c.energy[:] = rng.uniform(0.3, 1.0, size=n)
    return c


def _assert_same_solution(sol, ref):
    assert sol.max_load == ref.max_load
    assert (sol.loads == ref.loads).all()
    assert sol.flow_paths == ref.flow_paths
    assert (sol.capacities == ref.capacities).all()


@given(st.integers(0, 10_000), st.integers(3, 20), st.booleans())
@settings(max_examples=60, deadline=None)
def test_production_matches_cold_ek_oracle(seed, n, energy_aware):
    """The warm-start Dinic solve equals the cold rebuild-per-probe EK
    oracle on every output field, uniform and energy-aware."""
    c = _random_cluster(seed, n=n)
    try:
        ref = cold_ek_solve(c, energy_aware=energy_aware)
    except RoutingInfeasible:
        with pytest.raises(RoutingInfeasible):
            solve_min_max_load(c, energy_aware=energy_aware)
        return
    _assert_same_solution(solve_min_max_load(c, energy_aware=energy_aware), ref)


@given(st.integers(0, 25))
@settings(max_examples=15, deadline=None)
def test_warm_probes_match_cold_solves(seed):
    """Every feasibility verdict the warm engine hands the search equals a
    from-scratch solve at the same capacities."""
    c = _random_cluster(seed, n=8)
    total = c.total_packets
    if total == 0:
        return
    rng = np.random.default_rng(seed + 1000)
    eng = _WarmEngine(c)
    # A deliberately non-monotone probe schedule (up, down, repeats).
    for _ in range(8):
        caps = rng.integers(0, max(2, total + 1), size=c.n_sensors).astype(np.int64)
        warm_verdict = eng.probe(caps)
        cold_verdict = cold_feasible(c, caps) is not None
        assert warm_verdict == cold_verdict


def test_solve_counts_cold_engine_has_no_duplicate_solve():
    """The historical bug: the binary search proved `best` feasible, then
    re-ran the solve from scratch for the decomposition.  The cold oracle
    keeps the last feasible network, so solves == probes — the baseline
    the warm-start speedup is measured against pays no extra solve."""
    c = _random_cluster(3)
    sol = cold_ek_solve(c)
    assert sol.stats.max_flow_calls == sol.stats.probes
    ea = cold_ek_solve(c, energy_aware=True)
    assert ea.stats.max_flow_calls == ea.stats.probes


def test_solve_counts_warm_engine_builds_once(monkeypatch):
    builds = []
    real_build = minmax._build_network

    def counting_build(*args):
        builds.append(args)
        return real_build(*args)

    monkeypatch.setattr(minmax, "_build_network", counting_build)
    c = _random_cluster(4)
    for energy_aware in (False, True):
        builds.clear()
        sol = solve_min_max_load(c, energy_aware=energy_aware)
        assert sol.stats is not None
        assert len(builds) == 1
        # probes + exactly one canonical decomposition solve
        assert sol.stats.max_flow_calls == sol.stats.probes + 1


def test_warm_linear_search_never_resets():
    """The paper's δ++ loop is monotone, so every probe after the first
    must warm-start: driven through δ = lo, lo+1, ..., the warm engine's
    flow never shrinks, and it stops at the linear oracle's optimum."""
    c = _random_cluster(6)
    ref = linear_search_solve(c)
    eng = _WarmEngine(c)
    delta = max(1, int(c.packets.max()))
    flow = 0
    while not eng.probe(np.full(c.n_sensors, delta, dtype=np.int64)):
        assert eng._net.flow_value(0) >= flow
        flow = eng._net.flow_value(0)
        delta += 1
    assert delta == ref.max_load
    _assert_same_solution(solve_min_max_load(c), ref)


def test_repair_uses_warm_engine_by_default():
    from repro.routing.repair import repair_routing

    c = _random_cluster(7, n=12)
    result = repair_routing(c, dead=set())
    assert result.solution.stats is not None
    # The warm engine's signature: one solve per probe plus the canonical one.
    stats = result.solution.stats
    assert stats.max_flow_calls == stats.probes + 1
