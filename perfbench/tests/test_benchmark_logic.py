"""Tests of the benchmark's own logic: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
from stats import balanced_median, tail, union_length  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- self time ---------------------------------------------------------------


def test_self_time_of_nested_frames_partitions_the_wall():
    clock = FakeClock()
    tr = layers.Tracer(clock)
    outer = tr.enter("net")  # t=0..10
    clock.now = 2.0
    mid = tr.enter("radio")  # t=2..5
    clock.now = 3.0
    inner = tr.enter("net")  # t=3..4, nested back in the outer layer
    clock.now = 4.0
    tr.exit(inner)
    clock.now = 5.0
    tr.exit(mid)
    clock.now = 6.0
    side = tr.enter("sim")  # t=6..8
    clock.now = 8.0
    tr.exit(side)
    clock.now = 10.0
    tr.exit(outer)
    assert tr.self_s == {"net": pytest.approx(6.0), "radio": 2.0, "sim": 2.0}
    assert sum(tr.self_s.values()) == pytest.approx(10.0)


def test_self_time_subtracts_the_union_of_overlapping_children():
    clock = FakeClock()
    tr = layers.Tracer(clock)
    sweep = tr.enter("experiments")  # t=0..10, waits on two workers
    clock.now = 1.0
    emit = tr.enter("obs")  # t=1..2, in the parent
    clock.now = 2.0
    tr.exit(emit)
    clock.now = 10.0
    tr.exit(sweep)
    workers = [
        {"self_s": {"routing": 3.0, "experiments": 1.0}, "incl_s": {}, "counts": {"x": 1},
         "interval": [3.0, 7.0], "parent_layer": "experiments"},
        {"self_s": {"routing": 4.0}, "incl_s": {}, "counts": {"x": 2},
         "interval": [5.0, 9.0], "parent_layer": "experiments"},
    ]
    tr.absorb_children(workers)
    # The parent waited over [3, 9]: six seconds, not the eight the two
    # overlapping workers ran for.
    assert tr.self_s["experiments"] == pytest.approx(10 - 1 - 6 + 1.0)
    assert tr.self_s["obs"] == pytest.approx(1.0)
    assert tr.self_s["routing"] == pytest.approx(7.0)
    assert tr.counts["x"] == 3


def _fake_program(clock: FakeClock) -> types.ModuleType:
    """Functions that call each other through the module, as the program's
    modules do, and advance the fake clock by the work they do."""
    mod = types.ModuleType("perfbench_fake_program")

    def work(seconds):
        clock.now += seconds

    def leaf():
        work(1.0)

    def helper():
        work(0.5)
        mod.leaf()  # same layer: counted, no new frame

    def record():
        work(0.25)

    def outer():
        work(2.0)
        mod.helper()
        mod.leaf()
        mod.record()
        return "done"

    mod.leaf, mod.helper, mod.record, mod.outer = leaf, helper, record, outer
    return mod


def test_installed_wrappers_attribute_self_time_and_restore(monkeypatch):
    clock = FakeClock()
    mod = _fake_program(clock)
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    hooks = (
        layers.Hook("net", mod.__name__, "outer"),
        layers.Hook("routing", mod.__name__, "helper"),
        layers.Hook("routing", mod.__name__, "leaf"),
        layers.Hook("obs", mod.__name__, "record", "timed"),
    )
    original = mod.outer
    tr = layers.Tracer(clock)
    layers.install(tr, hooks)
    try:
        assert mod.outer() == "done"
    finally:
        layers.uninstall(tr)
    assert mod.outer is original and not tr.patched
    assert tr.self_s == {
        "net": pytest.approx(2.0),
        "routing": pytest.approx(2.5),
        "obs": pytest.approx(0.25),
    }
    assert (tr.counts["helper"], tr.counts["leaf"], tr.counts["record"]) == (1, 2, 1)
    assert tr.incl_s == {"record": pytest.approx(0.25)}


def test_missing_symbol_fails_loudly():
    with pytest.raises(layers.MissingSymbol):
        layers.check_map((layers.Hook("sim", "repro.sim.kernel", "Simulator.no_such_method"),))
    with pytest.raises(layers.MissingSymbol):
        layers.check_map((layers.Hook("sim", "repro.no_such_module", "anything"),))


def test_every_symbol_of_the_layer_map_exists():
    layers.check_map()
    assert {hook.layer for hook in layers.LAYER_MAP} == set(layers.LAYERS)


# -- order statistics ----------------------------------------------------------


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail(list(range(10))) is None
    assert tail([float(v) for v in range(11)]) == (9, 0.0)
    assert tail([float(v) for v in range(20)]) == (50, 9.0)
    values = [float(v) for v in range(100)]
    assert tail(values) == (90, 89.0)
    p, value = tail(list(reversed(values)))
    assert (p, value) == (90, 89.0)
    for n in range(11, 300, 7):
        p, value = tail([float(v) for v in range(n)])
        beyond = n - (int(value) + 1)
        assert beyond >= 10
        if p < 99:
            nxt = -(-(p + 1) * n // 100)
            assert n - nxt < 10


def test_balanced_median_weights_every_input_equally():
    cheap, dear = [1.0, 1.1, 0.9], [3.0, 2.9, 3.1]
    assert balanced_median({0: cheap, 1: dear}) == pytest.approx(2.0)
    # One more visit of either input leaves it where it was.
    assert balanced_median({0: cheap + [1.0], 1: dear}) == pytest.approx(2.0)
    assert balanced_median({0: cheap, 1: dear + [3.0]}) == pytest.approx(2.0)
    assert balanced_median({0: [], 1: dear}) == 3.0
    with pytest.raises(ValueError):
        balanced_median({})


def test_calibration_times_the_loop_and_restores_the_collector():
    import gc

    assert run.calibrate() > 0
    assert gc.isenabled()


def test_union_length():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 4), (1, 2), (3, 6)]) == 6.0
    assert union_length([(5, 9), (3, 7)]) == 6.0


# -- output checks ----------------------------------------------------------------


class FakeWorkload:
    name = "fake"

    def __init__(self, prints):
        self.prints = iter(prints)

    def execute(self, inp, workdir, sequential=False):
        return [0.01], inp

    def check(self, inp, raw):
        from workloads import Outcome

        fp = next(self.prints)
        if isinstance(fp, Exception):
            raise fp
        return Outcome(fp, [], 1.0, 1)


def test_unit_failures_are_booked(tmp_path):
    books = run.Books(golden=["a", "b"])
    wl = FakeWorkload(["a", "x", "a", "y", RuntimeError("boom")])
    inputs = ["i0", "i1"]
    assert run.run_unit(wl, inputs, 0, tmp_path, books) is not None
    assert run.run_unit(wl, inputs, 1, tmp_path, books) is None  # golden says "b"
    assert run.run_unit(wl, inputs, 2, tmp_path, books) is not None  # input 0 again
    assert run.run_unit(wl, inputs, 4, tmp_path, books) is None  # input 0 changed
    assert run.run_unit(wl, inputs, 5, tmp_path, books) is None  # raised
    assert (books.attempted, books.failed) == (5, 3)


def test_perturbed_golden_fingerprint_is_a_failure(tmp_path):
    from workloads import WORKLOADS

    wl = WORKLOADS["cluster_poll"]
    seed = wl.default_seeds[0]
    golden = json.loads(run.GOLDEN.read_text())[wl.name][str(seed)]
    inputs = wl.build(seed)
    books = run.Books(golden=golden)
    assert run.run_unit(wl, inputs, 0, tmp_path, books) is not None, books.problems
    flipped = golden[0][:-1] + ("0" if golden[0][-1] != "0" else "1")
    books = run.Books(golden=[flipped] + golden[1:])
    assert run.run_unit(wl, inputs, 0, tmp_path, books) is None
    assert books.failed == 1 and "golden" in books.problems[0]


def test_default_seeds_have_golden_fingerprints_and_held_out_seeds_do_not():
    from workloads import WORKLOADS

    golden = json.loads(run.GOLDEN.read_text())
    for name, wl in WORKLOADS.items():
        assert sorted(golden[name]) == sorted(str(s) for s in wl.default_seeds)
        assert str(wl.held_out_seed) not in golden[name]


# -- contract ------------------------------------------------------------------------


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
