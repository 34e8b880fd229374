"""The benchmark's three workloads: inputs from a seed, one unit, its checks.

Every workload is a closed loop in one process: the next unit starts when
the previous one has finished.  The program sees only the configs,
deployments and trial lists built here.

* ``cluster_poll`` -- one polling cluster on the vector slot engine at the
  heavy corner of Fig. 7a.  The scheduler and the slot engine do the work;
  the PHY is bypassed.
* ``field_handoff`` -- four clusters on one shared medium with mobility and
  periodic field re-forming.  Every slot runs scalar (``index_map``
  fallback), so the PHY does the work and the scheduler barely matters.
* ``figure_sweep`` -- ``run_sweep`` over a fixed grid of short Fig. 7c and
  Fig. 7a trials with a result cache, a checkpoint journal and a campaign
  feed, then resume passes that read the journal back.  The only workload
  where routing, the runner and the feed do most of the work.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

# Only what every workload needs is imported here; each workload imports
# its own entry points in build(), so the sweep's process holds no more of
# the program than a sweep script would.  Entry points are called through
# their modules, so the traced run's patches are what the calls reach.
from repro import validate
from repro.topology.deployment import uniform_square

POOL = 4
"""Deployments per simulation workload.  Units visit them round-robin in an
order the run seed shuffles.

Deployment cost spreads widely (one field deployment takes 1.6 times as
long as another), and a run has room for only 9-17 units, so a pool drawn
afresh from each seed would make a run's median depend on which deployments
the seed drew.  The pool's geometry is therefore the same for every seed: the
seed relabels the sensors and applies one of the square's eight symmetries
to each deployment the benchmark builds, so every seed gives the program
different inputs that take the same work.  ``field_handoff`` draws its
deployment inside the program from its config seed, so there the run seed
only orders the pool."""

FALLBACK_REASONS = ("index_map", "tracer", "channels", "garble_callback")
"""Every reason ``repro.mac.vector_engine`` gives for a scalar phase."""


@dataclass
class Outcome:
    """What one unit produced, as the checks and the metrics see it."""

    fingerprint: str
    problems: list[str]
    sim_s: float
    trials: int
    counters: dict[str, float] = field(default_factory=dict)


def derived_seeds(name: str, seed: int, n: int) -> list[int]:
    rng = random.Random(f"{name}/{seed}")
    return [rng.randrange(2**31) for _ in range(n)]


def base_pool(name: str) -> list[int]:
    """The seed-independent config seeds of a simulation workload's pool."""
    return derived_seeds(name, 0, POOL)


def shuffled(items: list, name: str, seed: int) -> list:
    items = list(items)
    random.Random(f"{name}/{seed}/order").shuffle(items)
    return items


def symmetric_variant(dep, rng: random.Random):
    """*dep* under one of the eight symmetries of its square about the
    centre (where the head sits), with the sensors relabelled."""
    half = dep.side / 2.0
    xy = dep.positions - half
    k = rng.randrange(8)
    if k & 4:
        xy = xy[:, ::-1]
    for _ in range(k & 3):
        xy = np.column_stack((-xy[:, 1], xy[:, 0]))
    order = list(range(dep.n_sensors))
    rng.shuffle(order)
    return dep.with_positions(xy[order] + half)


def digest(payload: Any) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _energies(transceivers) -> list[tuple[int, str]]:
    seen: dict[int, str] = {}
    for trx in transceivers:
        seen.setdefault(trx.node, trx.meter.consumed_j.hex())
    return sorted(seen.items())


def _conservation(generated: int, delivered: int, violations) -> list[str]:
    problems = []
    if delivered > generated:
        problems.append(f"delivered {delivered} > generated {generated}")
    for v in violations:
        problems.append(f"invariant violation: {v}")
    return problems


def _mac_counters(macs) -> dict[str, float]:
    counters: dict[str, float] = {"vector_slots": 0, "scalar_slots": 0}
    for reason in FALLBACK_REASONS:
        counters[f"fallback.{reason}"] = 0
    for mac in macs:
        counters["vector_slots"] += mac.vector_slots
        counters["scalar_slots"] += mac.scalar_slots
        for reason, count in mac.engine_fallbacks.items():
            key = f"fallback.{reason}"
            if key not in counters:
                raise RuntimeError(f"unknown scalar fallback reason {reason!r}")
            counters[key] += count
    return counters


class Workload:
    name: str
    default_seeds: tuple[int, ...] = (1, 2, 3)
    held_out_seed: int

    def build(self, seed: int) -> list[Any]:
        """The run's inputs (imports of the program are already done)."""
        raise NotImplementedError

    def execute(self, inp: Any, workdir: Path, sequential: bool = False) -> tuple[list[float], Any]:
        """Run one unit; returns its timed regions (the unit's wall first)
        and the raw result for :meth:`check`.  *sequential* asks a unit that
        would use several processes to use one."""
        raise NotImplementedError

    def check(self, inp: Any, raw: Any) -> Outcome:
        raise NotImplementedError


def _timed(fn, *args):
    mark = validate.MONITOR.mark()
    start = perf_counter()
    result = fn(*args)
    wall = perf_counter() - start
    return [wall], (result, validate.MONITOR.since(mark))


class ClusterPoll(Workload):
    name = "cluster_poll"
    held_out_seed = 1101

    def build(self, seed):
        from repro.net import cluster_sim

        self.sim = cluster_sim
        rng = random.Random(f"{self.name}/{seed}/variant")
        inputs = []
        for s in base_pool(self.name):
            cfg = cluster_sim.PollingSimConfig(n_sensors=60, rate_bps=80.0, n_cycles=8, seed=s)
            dep = uniform_square(
                cfg.n_sensors, seed=s, side=cfg.side_m, comm_range=cfg.sensor_range_m
            )
            inputs.append((cfg, symmetric_variant(dep, rng)))
        return shuffled(inputs, self.name, seed)

    def execute(self, inp, workdir, sequential=False):
        return _timed(self.sim.run_polling_simulation, *inp)

    def check(self, inp, raw):
        res, violations = raw
        trxs = res.phy.transceivers
        collisions = sum(t.frames_garbled for t in trxs)
        problems = _conservation(res.packets_generated, res.packets_delivered, violations)
        if res.throughput_ratio != 1.0:
            problems.append(f"throughput_ratio {res.throughput_ratio} != 1.0")
        fp = digest(
            {
                "energies": _energies(trxs),
                "generated": res.packets_generated,
                "delivered": res.packets_delivered,
                "collisions": collisions,
            }
        )
        return Outcome(fp, problems, res.elapsed, 1, _mac_counters([res.mac]))


class FieldHandoff(Workload):
    name = "field_handoff"
    held_out_seed = 2202

    def build(self, seed):
        from repro.net import multicluster_sim

        self.sim = multicluster_sim
        return [
            multicluster_sim.MultiClusterConfig(
                n_sensors=90,
                n_heads=4,
                field_m=420.0,
                n_cycles=8,
                mobility_speed_mps=2.0,
                handoff="periodic",
                seed=s,
            )
            for s in shuffled(base_pool(self.name), self.name, seed)
        ]

    def execute(self, inp, workdir, sequential=False):
        return _timed(self.sim.run_multicluster_simulation, inp)

    def check(self, inp, raw):
        res, violations = raw
        trxs = [t for mac in res.macs for t in mac.phy.transceivers]
        problems = _conservation(res.packets_generated, res.packets_delivered, violations)
        fp = digest(
            {
                "energies": _energies(trxs),
                "generated": res.packets_generated,
                "delivered": res.packets_delivered,
                "collisions": res.collisions,
            }
        )
        counters = _mac_counters(res.macs)
        counters["field_reforms"] = res.field_reforms
        counters["handoffs"] = res.field_handoffs
        return Outcome(fp, problems, res.elapsed, 1, counters)


FIG7C_SIZES = (30, 40)
FIG7C_PER_SIZE = 10
FIG7A_POINTS = ((20, 20.0), (30, 20.0), (20, 40.0), (30, 40.0))
FIG7A_PER_POINT = 5
FIG7A_CYCLES = 4
FIG7A_CYCLE_S = 10.0  # passed explicitly, so simulated time is known exactly
RESUME_PASSES = 3


class FigureSweep(Workload):
    """One unit is one cold pass over the trial grid in a fresh directory,
    followed by :data:`RESUME_PASSES` resume passes over the same trials.

    The grid is fixed and the seed draws every trial's deployment seed, so
    all seeds cost about the same.  As in a sweep script, the parent
    imports the runner but not the figure modules, so every forked trial
    imports its experiment.  Trials run on up to two workers (at most
    ``nproc``); a *sequential* unit runs them one at a time, so that the
    parent only waits while a trial runs and per-layer self times can
    partition the wall.
    """

    name = "figure_sweep"
    held_out_seed = 4404

    def build(self, seed):
        from repro.experiments import runner

        self.runner = runner
        runner.code_version()
        draws = iter(derived_seeds(self.name, seed, 1000))
        trials = [
            runner.Trial("fig7c", {"sizes": [n], "seeds": [next(draws)]})
            for n in FIG7C_SIZES
            for _ in range(FIG7C_PER_SIZE)
        ]
        trials += [
            runner.Trial(
                "fig7a",
                {
                    "sizes": [n],
                    "rates": [r],
                    "seeds": [next(draws)],
                    "n_cycles": FIG7A_CYCLES,
                    "cycle_length": FIG7A_CYCLE_S,
                },
            )
            for n, r in FIG7A_POINTS
            for _ in range(FIG7A_PER_POINT)
        ]
        return [shuffled(trials, self.name, seed)]

    def execute(self, trials, workdir, sequential=False):
        runner = self.runner
        root = Path(tempfile.mkdtemp(dir=workdir, prefix="sweep-"))
        workers = 1 if sequential else min(2, len(os.sched_getaffinity(0)))
        kwargs = dict(processes=workers, checkpoint=root / "journal.jsonl", campaign_dir=root / "feed")
        try:
            start = perf_counter()
            cold = runner.run_sweep(trials, cache=runner.SweepCache(root / "cache"), **kwargs)
            walls = [perf_counter() - start]
            resumed = []
            for _ in range(RESUME_PASSES):
                start = perf_counter()
                resumed.append(
                    runner.run_sweep(
                        trials, cache=runner.SweepCache(root / "cache"), resume=True, **kwargs
                    )
                )
                walls.append(perf_counter() - start)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return walls, (cold, resumed)

    def check(self, trials, raw):
        cold, resumed = raw
        problems = [
            f"trial {t.experiment} {t.kwargs} failed: {r.error}"
            for t, r in zip(trials, cold)
            if isinstance(r, self.runner.TrialFailure)
        ]
        if len(cold) != len(trials):
            problems.append(f"{len(cold)} results for {len(trials)} trials")
        for i, rows in enumerate(resumed):
            if rows != cold:
                problems.append(f"resume pass {i} rows differ from the cold pass")
        sim_s = sum(
            t.kwargs["n_cycles"] * t.kwargs["cycle_length"] * len(t.kwargs["seeds"])
            for t in trials
            if t.experiment == "fig7a"
        )
        return Outcome(digest(cold), problems, sim_s, len(trials))


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (ClusterPoll(), FieldHandoff(), FigureSweep())
}
