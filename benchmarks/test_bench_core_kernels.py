"""Micro-benchmarks of the computational kernels (profiling guardrails).

Not paper artifacts — these watch the hot paths the experiments lean on so
a future change that regresses them is caught by the benchmark run.
"""

import time

import numpy as np

from repro.core import OnlinePollingScheduler
from repro.mac.base import geometric_oracle
from repro.routing import FlowNetwork, solve_min_max_load
from repro.topology import Cluster, uniform_square
from tests.routing.flow_oracle import cold_ek_solve


def test_bench_maxflow_kernel(benchmark):
    rng = np.random.default_rng(0)
    n = 60
    g = FlowNetwork(n)
    for _ in range(400):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            g.add_edge(int(u), int(v), int(rng.integers(1, 10)))

    def solve():
        g.reset_flow()
        return g.max_flow(0, n - 1)

    value = benchmark(solve)
    assert value >= 0


def test_bench_maxflow_kernel_dinic(benchmark):
    rng = np.random.default_rng(0)
    n = 60
    g = FlowNetwork(n)
    for _ in range(400):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            g.add_edge(int(u), int(v), int(rng.integers(1, 10)))
    g2 = FlowNetwork(n)  # reference value via Edmonds-Karp on a twin
    for eid in range(0, len(g._edges), 2):
        u, v = g.edge_endpoints(eid)
        g2.add_edge(u, v, g._edges[eid].cap)
    expected = g2.max_flow(0, n - 1)

    def solve():
        g.reset_flow()
        return g.max_flow(0, n - 1, method="dinic")

    assert benchmark(solve) == expected


def test_bench_minmax_routing(benchmark):
    dep = uniform_square(40, seed=0)
    cluster = Cluster.from_deployment(dep)
    sol = benchmark(lambda: solve_min_max_load(cluster))
    assert sol.max_load >= 1


def _energy_cluster(n: int = 60, seed: int = 0) -> Cluster:
    dep = uniform_square(n, seed=seed)
    cluster = Cluster.from_deployment(dep)
    rng = np.random.default_rng(seed)
    cluster.energy[:] = rng.uniform(0.3, 1.0, size=n)
    return cluster


def _best_of(fn, reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_bench_minmax_energy_aware_warm_dinic(benchmark):
    """The warm-start receipt: the production solve vs cold Edmonds-Karp.

    Asserts (a) the production solve (warm-start Dinic probes) returns the
    same solution as the cold rebuild-per-probe EK oracle and (b) is at
    least 3x faster on the energy-aware δ/λ search, then records the
    production timing in the benchmark JSON.
    """
    cluster = _energy_cluster()
    cold = lambda: cold_ek_solve(cluster, energy_aware=True)
    warm = lambda: solve_min_max_load(cluster, energy_aware=True)
    sol_cold, sol_warm = cold(), warm()
    assert sol_cold.max_load == sol_warm.max_load
    assert (sol_cold.loads == sol_warm.loads).all()
    assert sol_cold.flow_paths == sol_warm.flow_paths

    t_cold = _best_of(cold)
    t_warm = _best_of(warm)
    assert t_cold >= 3.0 * t_warm, (
        f"warm-start speedup regressed: cold {t_cold*1e3:.1f} ms "
        f"vs warm {t_warm*1e3:.1f} ms ({t_cold/t_warm:.2f}x < 3x)"
    )
    benchmark(warm)


def test_bench_minmax_energy_aware_cold_ek(benchmark):
    """The cold EK oracle's timing, recorded so BENCH JSONs show both
    trajectories."""
    cluster = _energy_cluster()
    sol = benchmark(lambda: cold_ek_solve(cluster, energy_aware=True))
    assert sol.max_load > 0


def test_bench_online_scheduler_30_sensors(benchmark):
    dep = uniform_square(30, seed=0)
    geo = Cluster.from_deployment(dep)
    oracle, cluster = geometric_oracle(geo)
    cluster = cluster.with_packets(np.full(30, 3, dtype=np.int64))
    plan = solve_min_max_load(cluster).routing_plan()

    result = benchmark(lambda: OnlinePollingScheduler.poll(plan, oracle))
    assert result.pool.all_deleted()


def test_bench_event_kernel(benchmark):
    from repro.sim import Simulator

    def run():
        sim = Simulator()
        count = {"n": 0}

        def tick():
            count["n"] += 1
            if count["n"] < 20_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.001, tick)
        sim.run()
        return count["n"]

    assert benchmark(run) == 20_000
