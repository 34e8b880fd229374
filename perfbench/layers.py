"""Module -> layer map and the in-memory span tracer of the traced run.

Each :class:`Hook` names one public symbol under ``src/repro`` and the
layer (the package under ``repro``) its time belongs to.  :func:`install`
replaces every hooked symbol with a wrapper for the length of a traced
unit and :func:`uninstall` puts the originals back, so untraced units run
the program's own code.  A hooked symbol that no longer exists raises
:class:`MissingSymbol`: a rename can never silently drop a layer.

Wrapper kinds:

``span``
    counts the call and opens a frame of its layer, unless the caller is
    already in that layer (then it only counts, which leaves self time
    unchanged and keeps the hot PHY and oracle paths cheap to trace).
``timed``
    always opens a frame and also sums the call's inclusive time under the
    symbol's name (journal appends, feed emits, ...).
``count``
    counts the call and opens no frame; its time stays with the caller.
``resolver``
    a span whose call imports modules (the runner resolving an experiment
    in a forked worker); afterwards it wraps the hooks of modules that were
    not loaded before.
``callback``
    wraps the callback passed to a registration method so that, when the
    radio later calls it, the MAC code behind it is charged to ``sim`` like
    every other MAC process body.
``child``
    the body of a forked sweep worker: resets the inherited tracer, runs
    the trial under an ``experiments`` frame and writes the worker's totals
    to :attr:`Tracer.child_dir`, where :meth:`Tracer.absorb_children` folds
    them back into the parent.

A layer's self time is the time its frames span minus the time covered by
frames of its callees.  Frames nest strictly inside one process; forked
workers run while the parent waits, so the parent's layer loses the union
of their intervals.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from stats import union_length

LAYERS = (
    "sim",
    "radio",
    "mac",
    "core",
    "interference",
    "routing",
    "topology",
    "metrics",
    "experiments",
    "obs",
    "net",
)


class MissingSymbol(RuntimeError):
    """A symbol of the layer map no longer exists in the program."""


@dataclass(frozen=True)
class Hook:
    layer: str
    module: str
    name: str  # "function" or "Class.method"
    kind: str = "span"


def _observe_compatible(tracer: "Tracer", args, result, before) -> None:
    tracer.counts["oracle_queries"] += args[0].query_count - before


def _observe_external_step(tracer: "Tracer", args, result, before) -> None:
    tracer.counts["core_transmissions"] += len(result)


def _observe_scheduler_run(tracer: "Tracer", args, result, before) -> None:
    tracer.counts["core_run_slots"] += result.slots_elapsed
    tracer.counts["core_transmissions"] += sum(len(s) for s in result.schedule.slots)


def _observe_get_entry(tracer: "Tracer", args, result, before) -> None:
    if result is not None:
        tracer.counts["cache_hits"] += 1


_BEFORE: dict[str, Callable[[tuple], Any]] = {
    "CompatibilityOracle.compatible": lambda args: args[0].query_count,
}
_OBSERVE: dict[str, Callable[..., None]] = {
    "CompatibilityOracle.compatible": _observe_compatible,
    "OnlinePollingScheduler.external_step": _observe_external_step,
    "OnlinePollingScheduler.run": _observe_scheduler_run,
    "SweepCache.get_entry": _observe_get_entry,
}

LAYER_MAP: tuple[Hook, ...] = (
    # sim: the kernel loop and process resumption.  Every event goes through
    # ``at`` (``schedule`` delegates to it), so ``at`` counts events.
    Hook("sim", "repro.sim.kernel", "Simulator.run"),
    Hook("sim", "repro.sim.kernel", "Simulator.at", "count"),
    Hook("sim", "repro.sim.kernel", "Simulator.schedule", "count"),
    Hook("sim", "repro.sim.process", "Process._step"),
    # radio: the shared medium, transceivers and energy meters, including
    # the callbacks the kernel and the medium invoke directly.
    Hook("radio", "repro.radio.channel", "RadioMedium.begin_transmission"),
    Hook("radio", "repro.radio.channel", "RadioMedium._end_transmission"),
    Hook("radio", "repro.radio.channel", "RadioMedium.in_air_power_at"),
    Hook("radio", "repro.radio.channel", "RadioMedium.carrier_busy"),
    Hook("radio", "repro.radio.channel", "RadioMedium.update_positions"),
    Hook("radio", "repro.radio.channel", "RadioMedium.hearing_matrix"),
    Hook("radio", "repro.radio.transceiver", "Transceiver.transmit"),
    Hook("radio", "repro.radio.transceiver", "Transceiver.sleep"),
    Hook("radio", "repro.radio.transceiver", "Transceiver.wake"),
    Hook("radio", "repro.radio.transceiver", "Transceiver.carrier_busy"),
    Hook("radio", "repro.radio.transceiver", "Transceiver.finalize"),
    Hook("radio", "repro.radio.transceiver", "Transceiver._refresh_rx_state"),
    Hook("radio", "repro.radio.transceiver", "Transceiver._tx_finished"),
    Hook("radio", "repro.radio.transceiver", "Transceiver.deliver", "count"),
    Hook("radio", "repro.radio.transceiver", "Transceiver.deliver_garbled", "count"),
    Hook("radio", "repro.radio.transceiver", "Transceiver.on_receive", "callback"),
    Hook("radio", "repro.radio.transceiver", "Transceiver.on_garbled", "callback"),
    Hook("radio", "repro.radio.energy", "EnergyMeter.change_state"),
    # mac: the vector slot engine and the head's re-form / adopt paths.
    Hook("mac", "repro.mac.vector_engine", "VectorPhaseEngine.try_slot"),
    Hook("mac", "repro.mac.vector_engine", "VectorPhaseEngine.flush"),
    Hook("mac", "repro.mac.pollmac", "PollingClusterMac.reform_membership"),
    Hook("mac", "repro.mac.pollmac", "PollingClusterMac.adopt_sensors"),
    # core: the online scheduler, ack planning and sector partitioning.
    Hook("core", "repro.core.online", "OnlinePollingScheduler.external_step"),
    Hook("core", "repro.core.online", "OnlinePollingScheduler.run"),
    Hook("core", "repro.core.online", "OnlinePollingScheduler.poll"),
    Hook("core", "repro.core.ack", "plan_ack_collection"),
    Hook("core", "repro.core.sectors", "partition_into_sectors"),
    # interference: compatibility queries and SINR evaluations.
    Hook("interference", "repro.interference.base", "CompatibilityOracle.compatible"),
    Hook("interference", "repro.interference.physical", "PhysicalModelOracle.sinr"),
    # routing: min-max flow solves, max-flow calls, repairs and backups.
    Hook("routing", "repro.routing.minmax", "solve_min_max_load"),
    Hook("routing", "repro.routing.maxflow", "FlowNetwork.max_flow"),
    Hook("routing", "repro.routing.repair", "repair_routing"),
    Hook("routing", "repro.routing.backup", "compute_backup_routes"),
    # topology: deployment, forming and field re-forming.
    Hook("topology", "repro.topology.deployment", "uniform_square"),
    Hook("topology", "repro.topology.forming", "form_clusters"),
    Hook("topology", "repro.topology.handoff", "plan_field_reform"),
    Hook("topology", "repro.topology.handoff", "serving_staleness"),
    # metrics: the slot-level active-time model and the lifetime model.
    Hook("metrics", "repro.metrics.activetime", "simulate_active_time"),
    Hook("metrics", "repro.metrics.lifetime", "evaluate_lifetime_ratio"),
    # experiments: the sweep runner, its journal and its result cache.
    Hook("experiments", "repro.experiments.runner", "run_sweep", "timed"),
    Hook("experiments", "repro.experiments.runner", "SweepCheckpoint.append", "timed"),
    Hook("experiments", "repro.experiments.runner", "SweepCheckpoint.load", "timed"),
    Hook("experiments", "repro.experiments.runner", "SweepCache.put", "timed"),
    Hook("experiments", "repro.experiments.runner", "SweepCache.get_entry"),
    Hook("experiments", "repro.experiments.runner", "code_version"),
    Hook("experiments", "repro.experiments.runner", "_resilient_child", "child"),
    Hook("experiments", "repro.experiments.runner", "resolve_experiment", "resolver"),
    # obs: the campaign feed.
    Hook("obs", "repro.obs.campaign", "CampaignFeed.emit", "timed"),
    Hook("obs", "repro.obs.campaign", "CampaignFeed.emit_trial"),
    Hook("obs", "repro.obs.campaign", "host_fingerprint"),
    # net: the run_* orchestrators; their self time is everything they do
    # outside the layers above (PHY assembly, traffic set-up, coordinators).
    Hook("net", "repro.net.cluster_sim", "run_polling_simulation"),
    Hook("net", "repro.net.multicluster_sim", "run_multicluster_simulation"),
)


class Tracer:
    """Frames on a stack, folded into per-layer totals as they close.

    Spans are kept in memory as running sums, never as a per-call log: a
    traced field run makes hundreds of thousands of PHY calls.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.child_dir: Path | None = None
        self.patched: set[Hook] = set()
        self.patches: list[tuple[Any, str, Any]] = []
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []  # [layer, start, covered]
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def enter(self, layer: str) -> list:
        frame = [layer, self.clock(), 0.0]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        """Close the innermost frame; returns its duration."""
        end = self.clock()
        top = self.stack.pop()
        if top is not frame:
            raise RuntimeError("trace frames closed out of order")
        duration = end - frame[1]
        self.self_s[frame[0]] += duration - frame[2]
        if self.stack:
            self.stack[-1][2] += duration
        return duration

    def absorb(self, report: dict) -> None:
        """Add another tracer's totals (a forked worker's) to these."""
        for key, value in report["self_s"].items():
            self.self_s[key] += value
        for key, value in report["incl_s"].items():
            self.incl_s[key] += value
        for key, value in report["counts"].items():
            self.counts[key] += value

    def report(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "counts": dict(self.counts),
        }

    def absorb_children(self, reports: list[dict]) -> None:
        """Fold forked workers' totals in and take their time off the parent.

        Each report carries the worker's ``interval`` and the ``parent_layer``
        that was open in this process when it forked.  That layer was only
        waiting while the workers ran, so it loses the union of their
        intervals; workers that overlapped each other are not subtracted
        twice.
        """
        by_layer: dict[str, list[tuple[float, float]]] = defaultdict(list)
        for rep in reports:
            self.absorb(rep)
            if rep["parent_layer"] is not None:
                by_layer[rep["parent_layer"]].append(tuple(rep["interval"]))
        for layer, intervals in by_layer.items():
            self.self_s[layer] -= union_length(intervals)

    def collect_children(self) -> None:
        """Absorb and delete every worker report under :attr:`child_dir`."""
        if self.child_dir is None:
            return
        paths = sorted(self.child_dir.glob("child-*.json"))
        self.absorb_children([json.loads(p.read_text()) for p in paths])
        for p in paths:
            p.unlink()


def _wrap(tracer: Tracer, hook: Hook, fn: Callable) -> Callable:
    # tracer.counts and tracer.stack are looked up on every call, never
    # captured: a forked worker's reset() replaces them.
    layer, key = hook.layer, hook.name
    before = _BEFORE.get(key)
    observe = _OBSERVE.get(key)

    if hook.kind == "count":
        def wrapper(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)

    elif hook.kind == "callback":
        def wrapper(self, callback, *args, **kwargs):
            tracer.counts[key] += 1
            return fn(self, _frame_callback(tracer, "sim", callback), *args, **kwargs)

    elif hook.kind == "child":
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1][0] if tracer.stack else None
            tracer.reset()
            start = tracer.clock()
            frame = tracer.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
                rep = tracer.report()
                rep["interval"] = [start, tracer.clock()]
                rep["parent_layer"] = parent
                out = tracer.child_dir / f"child-{os.getpid()}-{time.monotonic_ns()}.json"
                out.write_text(json.dumps(rep))

    elif hook.kind == "resolver":
        def wrapper(*args, **kwargs):
            tracer.counts[key] += 1
            frame = tracer.enter(layer)
            try:
                result = fn(*args, **kwargs)
                install(tracer)
            finally:
                tracer.exit(frame)
            return result

    else:
        timed = hook.kind == "timed"

        def wrapper(*args, **kwargs):
            tracer.counts[key] += 1
            st = tracer.stack
            if not timed and st and st[-1][0] == layer:
                if before is None and observe is None:
                    return fn(*args, **kwargs)
                token = before(args) if before is not None else None
                result = fn(*args, **kwargs)
                observe(tracer, args, result, token)
                return result
            token = before(args) if before is not None else None
            frame = tracer.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer.exit(frame)
                if timed:
                    tracer.incl_s[key] += duration
            if observe is not None:
                observe(tracer, args, result, token)
            return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", key)
    return wrapper


def _frame_callback(tracer: Tracer, layer: str, callback: Callable) -> Callable:
    def framed(*args, **kwargs):
        st = tracer.stack
        if st and st[-1][0] == layer:
            return callback(*args, **kwargs)
        frame = tracer.enter(layer)
        try:
            return callback(*args, **kwargs)
        finally:
            tracer.exit(frame)

    return framed


def _resolve(hook: Hook) -> tuple[Any, str, Any]:
    """(owner, attribute, raw value) for a hook, or raise MissingSymbol."""
    try:
        module = importlib.import_module(hook.module)
    except ImportError as exc:
        raise MissingSymbol(f"{hook.module} cannot be imported: {exc}") from exc
    owner: Any = module
    *path, attr = hook.name.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise MissingSymbol(f"{hook.module}.{hook.name}: no {part!r}")
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None:
        raise MissingSymbol(f"{hook.module}.{hook.name} does not exist")
    return owner, attr, raw


def check_map(hooks: tuple[Hook, ...] = LAYER_MAP) -> None:
    """Raise MissingSymbol unless every hooked symbol exists."""
    for hook in hooks:
        if hook.layer not in LAYERS:
            raise ValueError(f"unknown layer {hook.layer!r} for {hook.name}")
        _resolve(hook)


def install(tracer: Tracer, hooks: tuple[Hook, ...] = LAYER_MAP) -> None:
    """Wrap every hooked symbol of an imported module not wrapped yet,
    including module-level aliases that other ``repro`` modules imported.

    Modules not imported yet are left alone: the sweep's parent must not
    import what its forked workers import per trial.  The ``resolver`` hook
    wraps them once a worker has imported them.
    """
    for hook in hooks:
        if hook in tracer.patched or hook.module not in sys.modules:
            continue
        owner, attr, raw = _resolve(hook)
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(_wrap(tracer, hook, raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(_wrap(tracer, hook, raw.__func__))
        else:
            wrapped = _wrap(tracer, hook, raw)
        tracer.patched.add(hook)
        tracer.patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
        if not isinstance(owner, type):
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or mod is None or not mod_name.startswith("repro"):
                    continue
                for alias, value in list(vars(mod).items()):
                    if value is raw:
                        tracer.patches.append((mod, alias, raw))
                        setattr(mod, alias, wrapped)


def uninstall(tracer: Tracer) -> None:
    for owner, attr, raw in reversed(tracer.patches):
        setattr(owner, attr, raw)
    tracer.patches.clear()
    tracer.patched.clear()


if __name__ == "__main__":
    # Run from a fresh interpreter so the check imports nothing into the
    # benchmark's own process: python3 perfbench/layers.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    check_map()
