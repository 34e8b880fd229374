"""Tests for min-max-load routing: optimality, decomposition, energy variant."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.routing import RoutingInfeasible, solve_min_max_load
from repro.routing.paths import validate_path
from repro.topology import HEAD, Cluster, uniform_square

from .flow_oracle import cold_feasible, linear_search_solve


def test_fig2_balances_loads(fig2_cluster):
    sol = solve_min_max_load(fig2_cluster)
    assert sol.max_load == 1
    assert sol.loads.tolist() == [1, 1, 1]


def test_chain_loads_accumulate(chain_cluster):
    sol = solve_min_max_load(chain_cluster)
    # chain: s0 forwards everything -> load 4, s1 -> 3, ...
    assert sol.max_load == 4
    assert sol.loads.tolist() == [4, 3, 2, 1]


def test_star_single_hop(star_cluster):
    sol = solve_min_max_load(star_cluster)
    assert sol.max_load == 2  # sensor 1 has two own packets
    plan = sol.routing_plan()
    for s in plan.active_sensors():
        assert plan.paths[s] == (s, HEAD)


def test_two_gateways_split_traffic():
    # 4 back sensors (2..5) can reach either gateway 0 or 1.
    c = Cluster.from_edges(
        6,
        sensor_edges=[(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5)],
        head_links=[0, 1],
        packets=[0, 0, 1, 1, 1, 1],
    )
    sol = solve_min_max_load(c)
    # optimal: each gateway relays two packets
    assert sol.max_load == 2
    assert sol.loads[0] == 2 and sol.loads[1] == 2


def test_linear_and_binary_search_agree():
    for seed in range(4):
        dep = uniform_square(10, seed=seed)
        c = Cluster.from_deployment(dep)
        a = solve_min_max_load(c)
        b = linear_search_solve(c)
        assert a.max_load == b.max_load


def test_decomposed_paths_are_valid_and_complete():
    for seed in range(4):
        dep = uniform_square(12, seed=seed)
        rng = np.random.default_rng(seed)
        c = Cluster.from_deployment(dep).with_packets(rng.integers(0, 4, size=12))
        sol = solve_min_max_load(c)
        for sensor, alternatives in sol.flow_paths.items():
            units = sum(u for _, u in alternatives)
            assert units == c.packets[sensor]
            for path, _ in alternatives:
                assert path[0] == sensor
                validate_path(c, path)


def test_loads_match_decomposed_paths():
    dep = uniform_square(10, seed=7)
    c = Cluster.from_deployment(dep)
    sol = solve_min_max_load(c)
    recomputed = np.zeros(10, dtype=np.int64)
    for alternatives in sol.flow_paths.values():
        for path, units in alternatives:
            for node in path[:-1]:
                recomputed[node] += units
    assert (recomputed == sol.loads).all()
    assert sol.loads.max() <= sol.max_load


def test_max_load_is_truly_minimal():
    """No routing can beat the returned delta (check via decrement)."""
    dep = uniform_square(9, seed=3)
    c = Cluster.from_deployment(dep)
    sol = solve_min_max_load(c)
    if sol.max_load > 1:
        caps = np.full(9, sol.max_load - 1, dtype=np.int64)
        assert cold_feasible(c, caps) is None


def test_zero_packets_trivial():
    c = Cluster.from_edges(3, [(0, 1)], [0], packets=[0, 0, 0])
    sol = solve_min_max_load(c)
    assert sol.max_load == 0 and not sol.flow_paths


def test_unreachable_sender_raises():
    c = Cluster.from_edges(3, [(0, 1)], [0], packets=[1, 1, 1])  # sensor 2 isolated
    with pytest.raises(RoutingInfeasible):
        solve_min_max_load(c)


def test_unreachable_but_silent_sensor_is_fine():
    c = Cluster.from_edges(3, [(0, 1)], [0], packets=[1, 1, 0])
    sol = solve_min_max_load(c)
    assert sol.max_load == 2  # s0 sends own + relays s1


def test_energy_aware_shifts_load_to_rich_sensors():
    # Two gateways; gateway 0 has 4x the energy of gateway 1.
    c = Cluster.from_edges(
        6,
        sensor_edges=[(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5)],
        head_links=[0, 1],
        packets=[0, 0, 1, 1, 1, 1],
    )
    c.energy[:] = [4.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    sol = solve_min_max_load(c, energy_aware=True)
    assert sol.loads[0] > sol.loads[1]
    # normalized load balanced: load0/4 vs load1/1
    assert sol.loads[0] / 4.0 <= sol.loads[1] + 1e-9 or sol.loads[1] <= 1


def test_energy_aware_matches_uniform_when_equal():
    dep = uniform_square(8, seed=1)
    c = Cluster.from_deployment(dep)
    uniform = solve_min_max_load(c)
    aware = solve_min_max_load(c, energy_aware=True)
    assert int(round(aware.max_load)) == uniform.max_load


def test_splitting_sensors_detection():
    dep = uniform_square(15, seed=2)
    c = Cluster.from_deployment(dep)
    sol = solve_min_max_load(c)
    flows = sol.next_hop_flows()
    for s in sol.splitting_sensors:
        assert len(flows[s]) > 1


@given(st.integers(0, 30))
@settings(max_examples=15, deadline=None)
def test_random_clusters_flow_invariants(seed):
    dep = uniform_square(8, seed=seed)
    rng = np.random.default_rng(seed)
    c = Cluster.from_deployment(dep).with_packets(rng.integers(0, 3, size=8))
    sol = solve_min_max_load(c)
    # invariant: max_load >= max over sensors of own packets
    assert sol.max_load >= int(c.packets.max(initial=0)) or c.total_packets == 0
    # invariant: every sensor's load >= its own packets
    assert (sol.loads >= c.packets).all() or c.total_packets == 0
    # invariant: total load = total hop count of all unit paths
    total_hops = sum(
        (len(p) - 1) * u for alts in sol.flow_paths.values() for p, u in alts
    )
    assert sol.loads.sum() == total_hops
