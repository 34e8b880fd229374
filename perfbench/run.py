#!/usr/bin/env python3
"""Repository benchmark: end-to-end simulator workloads and a per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload cluster_poll --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the program untouched.
``--trace 1`` runs each input twice, once as is and once with the layer map
of ``layers.py`` installed, and reports per-layer self times and counts.
Human-readable report lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--record-golden`` rewrites ``golden.json`` from the default
seeds.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import layers
from stats import balanced_median, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
WORK = ROOT / ".perfbench-work"

SETUP_PROBES = 7
"""Fresh interpreters timed per untraced run for ``setup_s``.  One runs
before the first unit and the others after the first units, so that they
sample the whole run rather than one moment of it; the median is reported."""

MIN_VISITS = 2
"""An untraced run visits every input of its pool at least this often."""

CAL_LOOPS = 60_000
CAL_REF_S = 0.08
CAL_ELASTICITY = 0.5
"""The host-speed calibration: a fixed pure-Python loop of ``CAL_LOOPS``
iterations, timed before the first setup probe and after every probe and
every unit.  The bounded times are multiplied by ``CAL_REF_S`` over the
run's median loop time, raised to ``CAL_ELASTICITY``, because the
program's times move with the host's speed only about half as steeply as
the loop's do (README.md)."""

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
"""The bounded end-to-end metrics.  ``wall_tail_s`` and the rates derived
from ``wall_s`` are report lines only (README.md)."""

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in layers.LAYERS},
    "sim.events_scheduled": "count",
    "radio.transmissions": "count",
    "radio.in_air_power_calls": "count",
    "radio.energy_state_changes": "count",
    "radio.collisions": "count",
    "radio.decode_ratio": "ratio",
    "radio.decode_attempts": "count",
    "mac.vector_slots": "count",
    "mac.scalar_slots": "count",
    "mac.vector_slot_ratio": "ratio",
    "mac.slots": "count",
    "mac.scalar_fallback.index_map": "count",
    "mac.scalar_fallback.tracer": "count",
    "mac.scalar_fallback.channels": "count",
    "mac.scalar_fallback.garble_callback": "count",
    "core.steps": "count",
    "core.oracle_queries": "count",
    "core.transmissions": "count",
    "core.queries_per_transmission": "ratio",
    "interference.compat_calls": "count",
    "interference.memo_hit_ratio": "ratio",
    "routing.solves": "count",
    "routing.maxflow_calls": "count",
    "routing.repairs": "count",
    "routing.backup_solves": "count",
    "topology.field_reforms": "count",
    "topology.handoffs": "count",
    "experiments.journal_append_s": "s",
    "experiments.journal_load_s": "s",
    "experiments.cache_put_s": "s",
    "experiments.cache_hit_ratio": "ratio",
    "experiments.cache_lookups": "count",
    "experiments.parent_wait_s": "s",
    "experiments.resume_s": "s",
    "obs.feed_records": "count",
    "obs.feed_emit_s": "s",
    "traced_wall_s": "s",
    "untraced_wall_s": "s",
    "residual_s": "s",
    "trace_overhead_ratio": "ratio",
    "traced_units": "count",
}


@dataclass
class Books:
    """Units attempted and failed, and the first fingerprint of each input."""

    golden: list[str] | None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    first: dict[int, str] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


@dataclass
class Unit:
    walls: list[float]
    outcome: object
    cpu_s: float


def run_unit(
    wl, inputs, k: int, workdir: Path, books: Books, tracer=None, sequential: bool = False
) -> Unit | None:
    """Run unit *k* and check it; a failed unit is booked and returns None.

    With a *tracer* the layer map is installed for the unit's execution
    only; the checks always run untraced.
    """
    idx = k % len(inputs)
    books.attempted += 1
    try:
        cpu = time.process_time()
        if tracer is None:
            walls, raw = wl.execute(inputs[idx], workdir, sequential)
        else:
            layers.install(tracer)
            try:
                walls, raw = wl.execute(inputs[idx], workdir, sequential)
            finally:
                layers.uninstall(tracer)
                tracer.collect_children()
        cpu = time.process_time() - cpu
        outcome = wl.check(inputs[idx], raw)
    except Exception as exc:  # a unit that raises is an operation failed
        books.fail(f"unit {k} (input {idx}): {type(exc).__name__}: {exc}")
        return None
    problems = list(outcome.problems)
    first = books.first.setdefault(idx, outcome.fingerprint)
    if outcome.fingerprint != first:
        problems.append(f"input {idx} gave a different fingerprint on a repeat")
    if books.golden is not None and idx < len(books.golden):
        if outcome.fingerprint != books.golden[idx]:
            problems.append(f"input {idx} fingerprint differs from golden.json")
    if problems:
        books.fail(f"unit {k} (input {idx}): " + "; ".join(problems))
        return None
    return Unit(walls, outcome, cpu)


def setup_probe(workload: str, seed: int) -> float:
    """Time one fresh interpreter from start to inputs built."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed (exit {code}, said {line!r})")
    return elapsed


def calibrate() -> float:
    """Host time of the calibration loop, which uses no code of the program."""
    # With the collector off, the heap the program left behind cannot slow
    # the loop down.
    gc.disable()
    try:
        start = time.perf_counter()
        heap, table, acc = [], {}, 0.0
        for i in range(CAL_LOOPS):
            key = (i * 7919) % 1009
            table[key] = table.get(key, 0) + 1
            heapq.heappush(heap, (key * 0.5, i))
            if len(heap) > 64:
                acc += heapq.heappop(heap)[0]
        return time.perf_counter() - start
    finally:
        gc.enable()


def untraced(
    wl, inputs, seconds: float, workdir: Path, books: Books, seed: int
) -> tuple[dict, list[str]]:
    """Units for *seconds* (probes and calibrations not counted), every input
    visited at least :data:`MIN_VISITS` times, with the setup probes and the
    calibrations between them."""
    walls, extras, sim_s, trials = [], [], 0.0, 0
    per_input: dict[int, list[float]] = {}
    cals = [calibrate()]
    setup: list[float] = []

    def probe() -> None:
        setup.append(setup_probe(wl.name, seed))
        cals.append(calibrate())

    probe()
    start = time.perf_counter()
    aside_s = 0.0  # probes and calibrations inside the measuring window
    k = 0
    while k < MIN_VISITS * len(inputs) or time.perf_counter() - start - aside_s < seconds:
        unit = run_unit(wl, inputs, k, workdir, books)
        if unit is not None:
            per_input.setdefault(k % len(inputs), []).append(unit.walls[0])
            walls.append(unit.walls[0])
            extras.extend(unit.walls[1:])
            sim_s += unit.outcome.sim_s
            trials += unit.outcome.trials
        k += 1
        aside = time.perf_counter()
        cals.append(calibrate())
        if len(setup) < SETUP_PROBES:
            probe()
        aside_s += time.perf_counter() - aside
    while len(setup) < SETUP_PROBES:
        probe()
    if not walls:
        raise RuntimeError("every unit failed: " + "; ".join(books.problems[:3]))
    n = len(walls)
    cal = median(cals)
    scale = (CAL_REF_S / cal) ** CAL_ELASTICITY
    wall = balanced_median(per_input)
    metrics = {
        "setup_s": median(setup) * scale,
        "wall_s": wall * scale,
        "trials_per_s": trials / n / wall,
        "sim_s_per_s": sim_s / n / wall,
    }
    per_input_text = ", ".join(f"{median(v):.4f}" for _, v in sorted(per_input.items()))
    tail_at = tail(walls)
    lines = [
        f"host speed: calibration loop median {cal:.4f} s over {len(cals)} samples; "
        f"bounded times are scaled by ({CAL_REF_S} / {cal:.4f}) ** {CAL_ELASTICITY} = {scale:.4f}",
        f"setup_s: {metrics['setup_s']:.4f} s scaled; unscaled median {median(setup):.4f} s "
        f"over {len(setup)} fresh interpreters",
        f"wall_s: {metrics['wall_s']:.4f} s scaled; unscaled {wall:.4f} s, the mean over "
        f"{len(per_input)} inputs of each input's median (n={n} units; per-input "
        f"medians {per_input_text})",
        f"wall_tail_s: p{tail_at[0]} {tail_at[1]:.4f} s (n={n}, "
        f"{n - (n * tail_at[0] + 99) // 100} samples beyond)"
        if tail_at else f"wall_tail_s: none (n={n}; a percentile with ten samples beyond needs 11)",
        f"trials_per_s: {metrics['trials_per_s']:.3f} ({trials / n:g} trials per unit "
        f"at the unscaled wall_s; {trials / sum(walls):.3f} over all {n} units)",
        f"sim_s_per_s: {metrics['sim_s_per_s']:.2f} ({sim_s / n:g} simulated s per unit "
        f"at the unscaled wall_s)",
    ]
    if extras:
        lines.append(
            f"resume_s: median {median(extras) * 1e3:.2f} ms over n={len(extras)} resume passes"
        )
    return metrics, lines


def traced(wl, inputs, seconds: float, workdir: Path, books: Books) -> tuple[dict, list[str]]:
    """Pairs of one untraced and one traced unit on the same input,
    alternating which runs first; the repeat check makes the traced
    fingerprint equal the untraced one.  Both units of a pair run
    sequentially (one sweep worker), so that forked workers never overlap
    and the layers' self times partition the traced wall."""
    from workloads import FALLBACK_REASONS

    # Every hooked symbol must exist; checked in a fresh interpreter so this
    # process imports no module a sweep's forked trials import themselves.
    subprocess.run([sys.executable, str(HERE / "layers.py")], cwd=ROOT, check=True)
    tracer = layers.Tracer()
    tracer.child_dir = workdir / "trace"
    tracer.child_dir.mkdir()
    plain_walls, traced_walls, resumes = [], [], []
    counters: dict[str, float] = {}
    wait_s = 0.0
    # One untimed unit first, so neither side of the first pair pays the
    # process's first-call costs and every module a unit imports is loaded
    # before the first install().
    run_unit(wl, inputs, 0, workdir, books, sequential=True)
    start = time.perf_counter()
    pair = 0
    while pair < 2 or time.perf_counter() - start < seconds:
        for with_trace in ((False, True) if pair % 2 == 0 else (True, False)):
            unit = run_unit(
                wl, inputs, pair + 1, workdir, books, tracer if with_trace else None, True
            )
            if unit is None:
                continue
            if with_trace:
                traced_walls.append(sum(unit.walls))
                wait_s += sum(unit.walls) - unit.cpu_s
                for key, value in unit.outcome.counters.items():
                    counters[key] = counters.get(key, 0) + value
            else:
                plain_walls.append(sum(unit.walls))
                resumes.extend(unit.walls[1:])
        pair += 1
    if not traced_walls or not plain_walls:
        raise RuntimeError("every unit failed: " + "; ".join(books.problems[:3]))
    n = len(traced_walls)
    c = tracer.counts

    def per_unit(value: float) -> float:
        return value / n

    def ratio(num: float, base: float) -> float:
        return num / base if base else 0.0

    m: dict[str, float] = {}
    for layer in layers.LAYERS:
        m[f"{layer}.self_s"] = per_unit(tracer.self_s.get(layer, 0.0))
    delivered, garbled = c["Transceiver.deliver"], c["Transceiver.deliver_garbled"]
    slots = counters.get("vector_slots", 0) + counters.get("scalar_slots", 0)
    lookups = c["SweepCache.get_entry"]
    m.update({
        "sim.events_scheduled": per_unit(c["Simulator.at"]),
        "radio.transmissions": per_unit(c["RadioMedium.begin_transmission"]),
        "radio.in_air_power_calls": per_unit(c["RadioMedium.in_air_power_at"]),
        "radio.energy_state_changes": per_unit(c["EnergyMeter.change_state"]),
        "radio.collisions": per_unit(garbled),
        "radio.decode_ratio": ratio(delivered, delivered + garbled),
        "radio.decode_attempts": per_unit(delivered + garbled),
        "mac.vector_slots": per_unit(counters.get("vector_slots", 0)),
        "mac.scalar_slots": per_unit(counters.get("scalar_slots", 0)),
        "mac.vector_slot_ratio": ratio(counters.get("vector_slots", 0), slots),
        "mac.slots": per_unit(slots),
        "core.steps": per_unit(c["OnlinePollingScheduler.external_step"] + c["core_run_slots"]),
        "core.oracle_queries": per_unit(c["oracle_queries"]),
        "core.transmissions": per_unit(c["core_transmissions"]),
        "core.queries_per_transmission": ratio(c["oracle_queries"], c["core_transmissions"]),
        "interference.compat_calls": per_unit(c["CompatibilityOracle.compatible"]),
        "interference.memo_hit_ratio": ratio(
            c["CompatibilityOracle.compatible"] - c["oracle_queries"],
            c["CompatibilityOracle.compatible"],
        ),
        "routing.solves": per_unit(c["solve_min_max_load"]),
        "routing.maxflow_calls": per_unit(c["FlowNetwork.max_flow"]),
        "routing.repairs": per_unit(c["repair_routing"]),
        "routing.backup_solves": per_unit(c["compute_backup_routes"]),
        "topology.field_reforms": per_unit(counters.get("field_reforms", 0)),
        "topology.handoffs": per_unit(counters.get("handoffs", 0)),
        "experiments.journal_append_s": per_unit(tracer.incl_s["SweepCheckpoint.append"]),
        "experiments.journal_load_s": per_unit(tracer.incl_s["SweepCheckpoint.load"]),
        "experiments.cache_put_s": per_unit(tracer.incl_s["SweepCache.put"]),
        "experiments.cache_hit_ratio": ratio(c["cache_hits"], lookups),
        "experiments.cache_lookups": per_unit(lookups),
        "experiments.parent_wait_s": per_unit(wait_s) if c["run_sweep"] else 0.0,
        "experiments.resume_s": median(resumes) if resumes else 0.0,
        "obs.feed_records": per_unit(c["CampaignFeed.emit"]),
        "obs.feed_emit_s": per_unit(tracer.incl_s["CampaignFeed.emit"]),
    })
    for reason in FALLBACK_REASONS:
        m[f"mac.scalar_fallback.{reason}"] = per_unit(counters.get(f"fallback.{reason}", 0))
    layer_sum = sum(m[f"{layer}.self_s"] for layer in layers.LAYERS)
    m["traced_wall_s"] = per_unit(sum(traced_walls))
    m["untraced_wall_s"] = sum(plain_walls) / len(plain_walls)
    m["residual_s"] = m["traced_wall_s"] - layer_sum
    m["trace_overhead_ratio"] = m["traced_wall_s"] / m["untraced_wall_s"]
    m["traced_units"] = float(n)
    if m["residual_s"] < -1e-3 * m["traced_wall_s"]:
        raise RuntimeError(
            f"layer self times sum past the traced wall ({layer_sum:.4f} s > "
            f"{m['traced_wall_s']:.4f} s): the accounting double-counts"
        )
    wall = m["traced_wall_s"]
    shares = sorted(
        ((m[f"{layer}.self_s"] / wall, layer) for layer in layers.LAYERS), reverse=True
    )
    lines = [
        f"traced units: {n}; traced wall {wall:.4f} s per unit vs untraced "
        f"{m['untraced_wall_s']:.4f} s (overhead x{m['trace_overhead_ratio']:.2f})",
        "layer self-time shares of the traced wall: "
        + ", ".join(f"{layer} {share:.1%}" for share, layer in shares if share >= 0.0005)
        + f", residual {m['residual_s'] / wall:.2%}",
        f"layer self times + residual = {layer_sum + m['residual_s']:.4f} s "
        f"= traced wall {wall:.4f} s",
    ]
    return m, lines


def record_golden() -> int:
    from workloads import WORKLOADS

    golden: dict[str, dict[str, list[str]]] = {}
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        for name, wl in WORKLOADS.items():
            golden[name] = {}
            for seed in wl.default_seeds:
                inputs = wl.build(seed)
                books = Books(golden=None)
                prints = []
                for k in range(len(inputs)):
                    unit = run_unit(wl, inputs, k, workdir, books)
                    if unit is None:
                        raise RuntimeError(f"{name} seed {seed}: {books.problems[-1]}")
                    prints.append(unit.outcome.fingerprint)
                golden[name][str(seed)] = prints
                print(f"{name} seed {seed}: {len(prints)} fingerprints", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _remove_work_root()
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def _remove_work_root() -> None:
    try:
        WORK.rmdir()
    except OSError:
        pass  # another run still uses it, or it never existed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    # The default invariant mode, pinned so every run checks the same way.
    os.environ["REPRO_VALIDATE"] = "warn"
    sys.path.insert(0, str(SRC))
    if args.record_golden:
        return record_golden()

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if args.setup_probe:
        wl.build(args.seed)
        print("ready", flush=True)
        return 0

    import warnings

    from repro.validate import InvariantWarning

    # Violations are counted from the monitor, not read off the console.
    warnings.simplefilter("ignore", InvariantWarning)
    inputs = wl.build(args.seed)
    golden = None
    if GOLDEN.is_file():
        golden = json.loads(GOLDEN.read_text()).get(wl.name, {}).get(str(args.seed))
    books = Books(golden=golden)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        if args.trace:
            values, lines = traced(wl, inputs, args.seconds, workdir, books)
            units = PER_LAYER
        else:
            values, lines = untraced(wl, inputs, args.seconds, workdir, books, args.seed)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            lines.append(f"peak_rss_mb: {values['peak_rss_mb']:.1f}")
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _remove_work_root()
    seeds = "default" if args.seed in wl.default_seeds else (
        "held-out" if args.seed == wl.held_out_seed else "other")
    print(f"workload {wl.name}, seed {args.seed} ({seeds}; golden "
          f"{'checked' if golden else 'absent'}), trace {args.trace}")
    for line in lines:
        print("  " + line)
    share = books.failed / books.attempted
    print(f"  ops_failed: {share:.4f} ({books.failed} of {books.attempted} units)")
    for problem in books.problems[:10]:
        print(f"  FAILED {problem}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": books.failed == 0,
        "attempted": books.attempted,
        "failed": books.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
