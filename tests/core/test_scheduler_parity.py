"""Randomized parity: the production Table 1 scan against the literal one.

Every draw builds one small polling world — a random geometric cluster
with 1–4 packets per sensor, its min-max routing plan and optional k=1
backup paths — and runs it twice: once on :class:`OnlinePollingScheduler`,
once on :class:`LiteralTableOneScheduler`, each with its own oracle
instance.  The draw covers every scan order, M in {1, 2, 3}, the physical
and protocol models and random probed group tables (which, at M=3, are in
general not downward-closed: a compatible triple may contain an
incompatible pair), Bernoulli loss, retry budgets, dead-sensor detection
and in-cycle failover, under both ``run()`` and ``external_step`` with
random arrival sets.  The two runs must agree on every slot's
transmissions, every delivery, write-off, blacklisting and failover, the
attempt and slot counts, and the number of real oracle queries.

``REPRO_SCHED_PARITY_EXAMPLES`` sets the number of drawn worlds (the chaos
CI job runs a deeper profile than tier-1).
"""

from __future__ import annotations

import os
import random
from itertools import combinations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BernoulliLoss, OnlinePollingScheduler
from repro.interference import GroupTableOracle, ProtocolModelOracle
from repro.mac.base import geometric_oracle
from repro.routing import RoutingPlan, compute_backup_routes, solve_min_max_load
from repro.routing.backup import BackupRoutes
from repro.topology import HEAD, Cluster, uniform_square

from .scheduler_oracle import LiteralTableOneScheduler

MAX_EXAMPLES = int(os.environ.get("REPRO_SCHED_PARITY_EXAMPLES", "40"))
ORDERS = ("index", "deep-first", "shallow-first")
MAX_SLOTS = 20_000


@st.composite
def worlds(draw):
    n = draw(st.integers(3, 25))
    return {
        "n": n,
        "deploy_seed": draw(st.integers(0, 2**16)),
        "packets": draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)),
        "order": draw(st.sampled_from(ORDERS)),
        "m": draw(st.integers(1, 3)),
        "oracle": draw(st.sampled_from(("physical", "protocol", "table"))),
        "table_seed": draw(st.integers(0, 2**16)),
        "table_density": draw(st.sampled_from((0.2, 0.6, 0.9))),
        "loss_p": draw(st.sampled_from((0.0, 0.2, 0.5))),
        "retry_limit": draw(st.sampled_from((None, 2))),
        "dead_after": draw(st.sampled_from((None, 2))),
        "backups": draw(st.booleans()),
        "stepping": draw(st.sampled_from(("run", "external"))),
        "drive_seed": draw(st.integers(0, 2**16)),
    }


def _random_table(links, m: int, density: float, seed: int) -> dict:
    """Every single link usable; each node-disjoint group of 2..M compatible
    with probability *density*, drawn independently of its subgroups."""
    rng = random.Random(seed)
    table = {frozenset([link]): True for link in links}
    for size in range(2, m + 1):
        for group in combinations(links, size):
            nodes = [x for link in group for x in link]
            if len(set(nodes)) == len(nodes):
                table[frozenset(group)] = rng.random() < density
    return table


def build_world(w):
    """``(plan, backups, make_oracle)`` for a drawn world."""
    m = w["m"]
    geo = Cluster.from_deployment(uniform_square(w["n"], seed=w["deploy_seed"]))
    geo = geo.with_packets(np.array(w["packets"]))
    if w["oracle"] == "physical":
        _, cluster = geometric_oracle(geo, max_group_size=m)
    else:
        cluster = geo
    solution = solve_min_max_load(cluster)
    plan = solution.routing_plan()
    backups = compute_backup_routes(solution, k=1) if w["backups"] else None
    if w["oracle"] == "physical":
        return plan, backups, lambda: geometric_oracle(geo, max_group_size=m)[0]
    if w["oracle"] == "protocol":
        return plan, backups, lambda: ProtocolModelOracle(cluster, max_group_size=m)
    paths = list(plan.paths.values())
    if backups is not None:
        paths += [p for bundle in backups.backups.values() for p in bundle]
    links = sorted({(p[k], p[k + 1]) for p in paths for k in range(len(p) - 1)})
    table = _random_table(links, m, w["table_density"], w["table_seed"])
    return plan, backups, lambda: GroupTableOracle(table, max_group_size=m)


def _slots(schedule) -> list:
    return [
        [(tx.sender, tx.receiver, tx.request_id, tx.hop_index) for tx in group]
        for group in schedule.slots
    ]


def outcome(sched, slots_elapsed: int, error: str | None = None) -> dict:
    return {
        "error": error,
        "slots": _slots(sched.schedule),
        "delivered": dict(sched.schedule.delivered),
        "failed": sorted(sched.failed),
        "blacklisted": sorted(sched.blacklist),
        "failovers": list(sched.failover_events),
        "attempts": sched.pool.total_attempts(),
        "slots_elapsed": slots_elapsed,
        "queries": sched.oracle.query_count,
    }


def scheduler_pair(w, plan, backups, make_oracle):
    def build(cls):
        return cls(
            plan,
            make_oracle(),
            loss=BernoulliLoss(w["loss_p"], seed=w["drive_seed"]),
            order=w["order"],
            max_slots=MAX_SLOTS,
            retry_limit=w["retry_limit"],
            dead_after_misses=w["dead_after"],
            backups=backups,
        )

    return build(OnlinePollingScheduler), build(LiteralTableOneScheduler)


def drive_run(sched) -> dict:
    try:
        result = sched.run()
    except RuntimeError as exc:  # max_slots reached: both sides must agree
        return outcome(sched, -1, str(exc))
    assert result.failed_ids == frozenset(sched.failed)
    assert result.blacklisted == frozenset(sched.blacklist)
    assert result.failovers == tuple(sched.failover_events)
    assert result.total_attempts == sched.pool.total_attempts()
    return outcome(sched, result.slots_elapsed)


def drive_external(prod, ref, drop_p: float, seed: int) -> tuple[dict, dict]:
    """Step both schedulers with the same randomly thinned arrival sets."""
    rng = random.Random(seed)
    delivered: set[int] = set()
    t = 0
    while t < MAX_SLOTS and not (prod.all_done and ref.all_done):
        got = prod.external_step(t, delivered)
        want = ref.external_step(t, delivered)
        assert _slots_of(got) == _slots_of(want), f"slot {t} diverged"
        assert prod.all_done == ref.all_done
        delivered = {
            tx.request_id
            for tx in got
            if tx.receiver == HEAD and rng.random() >= drop_p
        }
        t += 1
    return outcome(prod, t), outcome(ref, t)


def _slots_of(group) -> list:
    return [(tx.sender, tx.receiver, tx.request_id, tx.hop_index) for tx in group]


@settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(worlds())
def test_scan_matches_literal_table_one(w):
    plan, backups, make_oracle = build_world(w)
    prod, ref = scheduler_pair(w, plan, backups, make_oracle)
    if w["stepping"] == "run":
        got, want = drive_run(prod), drive_run(ref)
    else:
        got, want = drive_external(prod, ref, w["loss_p"], w["drive_seed"])
    assert got == want


# -- a fixed world that reaches reactivation and failover ---------------------------


def _fixed_world():
    """Sensor 2 (three packets) relays through 0, with a backup through 1;
    sensor 3 (two packets) is head-adjacent."""
    cluster = Cluster.from_edges(
        4,
        sensor_edges=[(0, 2), (1, 2)],
        head_links=[0, 1, 3],
        packets=[0, 0, 3, 2],
    )
    plan = RoutingPlan(cluster, {2: (2, 0, HEAD), 3: (3, HEAD)})
    backups = BackupRoutes(k=1, backups={2: ((2, 1, HEAD),)})
    return plan, backups


def _script(kind):
    """Drop sensor 2's first packet on its first two arrivals (the second
    loss exhausts the budget and fails sensor 2 over onto relay 1)."""
    plan, backups = _fixed_world()
    links = [(2, 0), (0, HEAD), (2, 1), (1, HEAD), (3, HEAD)]
    table = {frozenset([link]): True for link in links}
    table[frozenset([(2, 0), (3, HEAD)])] = True
    table[frozenset([(2, 1), (3, HEAD)])] = True
    sched = kind(
        plan, GroupTableOracle(table, max_group_size=2),
        retry_limit=2, backups=backups,
    )
    dropped = 0
    delivered: set[int] = set()
    t = 0
    while not sched.all_done and t < 100:
        group = sched.external_step(t, delivered)
        delivered = set()
        for tx in group:
            if tx.receiver != HEAD:
                continue
            if tx.request_id == 0 and dropped < 2:
                dropped += 1
            else:
                delivered.add(tx.request_id)
        t += 1
    return sched, outcome(sched, t)


def test_reactivation_and_failover_match_literal_table_one():
    prod, got = _script(OnlinePollingScheduler)
    _, want = _script(LiteralTableOneScheduler)
    assert got == want
    assert prod.all_done and not prod.failed
    # The failover re-stamped sensor 2 mid-phase, onto relay 1.
    assert [(e.sensor, e.new_path) for e in prod.failover_events] == [(2, (2, 1, HEAD))]
    # Request 0 was re-polled ahead of its sensor's still-pending packets:
    # its retry starts before request 1's first attempt.
    starts: dict[int, list[int]] = {}
    for t, group in enumerate(prod.schedule.slots):
        for tx in group:
            if tx.hop_index == 0:
                starts.setdefault(tx.request_id, []).append(t)
    assert len(starts[0]) == 3
    assert starts[0][1] < starts[1][0]
