"""Unit regressions for the vector engine's bit-exactness plumbing.

The batch path's never-diverge contract (DESIGN.md §12) hangs on details
that are invisible to normal correctness testing — IEEE summation order,
fancy-vs-basic indexing, zero-dt handling.  These tests pin each one at
the unit level with inputs chosen so any reordering *visibly* changes the
last bits, catching "harmless" refactors (e.g. swapping ``ordered_sum``
for ``ndarray.sum``) long before a golden-fingerprint run would.
"""

import numpy as np
import pytest

from repro.mac.vector_engine import VectorRadioBank, _as_index, ordered_sum
from repro.radio.energy import EnergyMeter, EnergyParams, RadioState

# Magnitudes straddling ~2^53 in relative spread: the order in which these
# are added determines which low bits survive, so left-to-right and
# pairwise-tree accumulation give different float results.
ADVERSARIAL = [1e16, 1.0, -1e16, 1.0, 3.0, 1e-8, 7e7, -3.0, 1e16, 1e-8]


def _columns(n_radios=5, seed=0, repeats=30):
    # > 128 terms: numpy's pairwise-summation blocking only reassociates
    # above its block size, so shorter lists would sum sequentially and
    # the divergence test below would lose its teeth.
    rng = np.random.default_rng(seed)
    cols = []
    for base in ADVERSARIAL * repeats:
        cols.append(base * (1.0 + 0.1 * rng.standard_normal(n_radios)))
    return cols


def test_ordered_sum_matches_scalar_left_to_right():
    cols = _columns()
    got = ordered_sum(cols)
    for i in range(cols[0].size):
        acc = float(cols[0][i])
        for col in cols[1:]:
            acc = acc + float(col[i])  # one IEEE add per step, scalar order
        assert got[i] == acc
        assert float(got[i]).hex() == acc.hex()


def test_ordered_sum_diverges_from_pairwise_reduction():
    # The proof the test above has teeth: numpy's reduction reassociates
    # (pairwise summation), which rounds differently on this input.  If
    # this ever starts passing with equality, the adversarial input has
    # gone stale and the left-to-right test no longer guards anything.
    cols = _columns()
    ordered = ordered_sum(cols)
    # The tempting refactor: stack the columns and sum along the fast
    # axis.  That contiguous reduction is where numpy applies pairwise
    # (blocked) summation, so the last bits differ.
    stacked = np.ascontiguousarray(np.vstack(cols).T)
    pairwise = stacked.sum(axis=1)
    assert not np.array_equal(ordered, pairwise)


def test_ordered_sum_empty_and_ownership():
    assert ordered_sum([]) is None
    first = np.array([1.0, 2.0])
    out = ordered_sum([first])
    assert np.array_equal(out, first)
    out[0] = 99.0  # must be a copy, never a view into the cached column
    assert first[0] == 1.0


def test_as_index_contiguous_becomes_slice():
    idx = np.array([3, 4, 5, 6])
    out = _as_index(idx)
    assert out == slice(3, 7)
    base = np.arange(10) * 1.5
    assert np.array_equal(base[out], base[idx])


def test_as_index_noncontiguous_and_singleton_pass_through():
    gap = np.array([1, 2, 5])
    assert _as_index(gap) is gap
    single = np.array([4])
    assert _as_index(single) is single


def test_as_index_requires_sorted_input():
    # The contiguity check (last - first + 1 == size) is only meaningful on
    # sorted input: this permutation satisfies it yet is NOT the span
    # {1, 2, 3}.  Callers must sort first (see _GroupCache.t2_ix) — this
    # test documents the hazard so the precondition is never "simplified"
    # away.
    unsorted = np.array([1, 3, 2, 4, 5])
    out = _as_index(unsorted)
    assert isinstance(out, slice)  # the check passes...
    base = np.arange(10) * 2.0
    assert np.array_equal(base[out], np.sort(base[unsorted]))  # ...as a SET
    assert not np.array_equal(base[out], base[unsorted])  # ...not as a SEQ


class _StubMedium:
    """The per-node RX mirror a bank republishes into on store()."""

    def __init__(self, n):
        self.is_rx = np.zeros(n, dtype=bool)

    def publish_rx(self, node, busy):
        self.is_rx[node] = busy


class _StubTrx:
    """Just enough transceiver surface for VectorRadioBank."""

    def __init__(self, params, state, last_change, consumed, node=0, medium=None):
        self.node = node
        self.medium = medium or _StubMedium(node + 1)
        self.meter = EnergyMeter(params=params)
        self.meter.state = state
        self.meter.last_change = last_change
        self.meter.consumed_j = consumed
        self._listening = True
        self._listen_since = last_change
        self.frames_sent = 0
        self.frames_received = 0
        self.frames_garbled = 0


def test_bank_shift_replays_meter_bit_for_bit():
    # Heterogeneous power params + an awkward consumed_j offset so the
    # multiply-add rounding is exercised, not just zeros.
    medium = _StubMedium(6)
    radios = []
    meters = []
    for i in range(6):
        params = EnergyParams(idle_w=13.5e-3 * (1 + 0.013 * i))
        radios.append(
            _StubTrx(params, RadioState.IDLE, 0.1 + i * 1e-7, 0.3 + i * 0.07, i, medium)
        )
        ref = EnergyMeter(params=params)
        ref.state = RadioState.IDLE
        ref.last_change = 0.1 + i * 1e-7
        ref.consumed_j = 0.3 + i * 0.07
        meters.append(ref)

    bank = VectorRadioBank(radios)
    bank.load()
    from repro.mac.vector_engine import IDLE, RX

    t1 = 0.1 + 1.0 / 3.0  # not exactly representable: real rounding happens
    bank.shift(np.arange(6), t1, IDLE, RX)
    # dt == 0 second shift on radio 0: exact +0.0, same as the scalar
    # meter's else-branch (which skips the add entirely).
    bank.shift(np.array([0]), t1, RX, RX)
    bank.store()

    for i, (trx, ref) in enumerate(zip(radios, meters)):
        ref.change_state(RadioState.RX, t1)
        if i == 0:
            ref.change_state(RadioState.RX, t1)
        assert trx.meter.consumed_j.hex() == ref.consumed_j.hex()
        assert trx.meter.last_change == ref.last_change
        assert trx.meter.state is ref.state
        assert trx.meter.dwell_s == ref.dwell_s
    assert medium.is_rx.all()  # every radio was stored in RX


def test_bank_shift_empty_index_is_noop():
    radios = [_StubTrx(EnergyParams(), RadioState.IDLE, 0.0, 0.0)]
    bank = VectorRadioBank(radios)
    bank.load()
    before = bank.consumed.copy()
    bank.shift(np.array([], dtype=np.int64), 5.0, 1, 2)
    assert np.array_equal(bank.consumed, before)


def test_bank_store_republishes_listen_and_rx_state_on_the_medium():
    # store() writes the radios' meter states and listen flags back; the
    # medium's per-node arrays (what its carrier-sense flips read) must
    # follow, including for radios registered out of node-id order.
    from repro.radio import RadioMedium, Transceiver, TwoRayGround
    from repro.sim import Simulator

    sim = Simulator()
    medium = RadioMedium(
        sim=sim,
        positions=np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]]),
        tx_power_w=np.full(3, 1e-2),
        propagation=TwoRayGround(ht=0.3, hr=0.3),
    )
    radios = [Transceiver(sim, medium, node) for node in (2, 0, 1)]
    bank = VectorRadioBank(radios)
    bank.load()
    from repro.mac.vector_engine import RX, SLEEP

    bank.state[0] = RX  # node 2
    bank.state[1] = SLEEP  # node 0
    bank.listening[1] = False
    bank.store()
    assert medium.is_rx.tolist() == [False, False, True]
    assert medium.listening.tolist() == [False, True, True]
    assert radios[0].state is RadioState.RX and not radios[1].listened_through(0.0, 0.0)


# -- scalar-fallback accounting ------------------------------------------------


def test_multicluster_fallbacks_counted_with_reason():
    """Channel-isolated clusters batch without a fallback; a field whose
    clusters share one channel runs scalar and says why."""
    from repro import obs
    from repro.net import MultiClusterConfig, run_multicluster_simulation

    tel = obs.Telemetry()
    with obs.use(tel):
        res = run_multicluster_simulation(
            MultiClusterConfig(n_cycles=2, seed=0, engine="vector")
        )
    assert len(set(res.channels.tolist())) == len(res.macs)
    for mac in res.macs:
        assert mac.engine_fallbacks == {}
        assert mac.vector_slots > 0
    assert not any(k.startswith("engine.scalar_fallback.") for k in tel.metrics.names())

    for mode in ("token", "uncoordinated"):
        tel = obs.Telemetry()
        with obs.use(tel):
            res = run_multicluster_simulation(
                MultiClusterConfig(n_cycles=2, seed=0, mode=mode, engine="vector")
            )
        for mac in res.macs:
            assert mac.vector_slots == 0
            assert set(mac.engine_fallbacks) == {"channels"}
            assert mac.engine_fallbacks["channels"] > 0
        assert "engine.scalar_fallback.index_map" not in tel.metrics
        assert tel.metrics.counter("engine.scalar_fallback.channels").value == sum(
            mac.engine_fallbacks["channels"] for mac in res.macs
        )


def _isolated_field(**kwargs):
    """A finished channels-mode field whose clusters each own a channel."""
    from repro.net import MultiClusterConfig, run_multicluster_simulation

    res = run_multicluster_simulation(
        MultiClusterConfig(**{"n_cycles": 1, "seed": 0, **kwargs})
    )
    assert len(set(res.channels.tolist())) == len(res.macs)
    return res


def test_cluster_sharing_its_channel_with_one_foreign_radio_falls_back():
    from repro.mac.vector_engine import maybe_vector_engine

    res = _isolated_field()
    mac, other = res.macs[0], res.macs[1]
    med = mac.phy.medium
    engine = maybe_vector_engine(mac, 80)
    assert engine is not None
    # One radio of another cluster retunes onto this cluster's channel: the
    # per-slot re-check turns the slot scalar, the next phase falls back.
    med.set_channel(other.phy.index_map[0], int(med.channels[mac.phy.index_map[0]]))
    assert engine.try_slot({}, []) is False
    assert engine.scalar_slots == 1 and engine.vector_slots == 0
    assert maybe_vector_engine(mac, 80) is None
    assert mac.engine_fallbacks == {"channels": 1}


def test_isolated_slot_needs_a_quiet_channel_and_idle_listeners():
    from repro.mac.vector_engine import maybe_vector_engine
    from repro.radio.channel import ActiveTransmission

    res = _isolated_field()
    mac = res.macs[0]
    med = mac.phy.medium
    engine = maybe_vector_engine(mac, 80)
    assert engine._isolated_now()
    # A frame of this roster still in the air: the channel is busy.
    head = mac.phy.index_map[-1]
    med._active.append(ActiveTransmission(sender=head, frame=None, start=0.0, end=1.0))
    assert not engine._isolated_now()
    med._active.pop()
    # A listener retuned onto the channel mid-reception still draws RX
    # power; the replay would integrate it as IDLE.
    node = next(g for g in mac.phy.index_map if med.listening[g])
    med.is_rx[node] = True
    assert not engine._isolated_now()
    med.is_rx[node] = False
    assert engine._isolated_now()


@pytest.mark.parametrize(
    "knob, value",
    [("frame_error_rate", 0.1), ("cs_threshold", 0.0), ("link_loss", object())],
)
def test_shared_medium_with_shared_randomness_or_no_carrier_floor_falls_back(knob, value):
    from repro.mac.vector_engine import maybe_vector_engine

    res = _isolated_field()
    mac = res.macs[0]
    setattr(mac.phy.medium, knob, value)
    assert maybe_vector_engine(mac, 80) is None
    assert mac.engine_fallbacks == {"index_map": 1}


def test_stale_wake_timer_of_a_handed_in_sensor_blocks_its_new_cluster():
    """Events are classified by the radio they touch, not by who armed
    them: a wake timer left over from the sensor's old cluster belongs to
    the cluster that holds the radio now."""
    from repro.mac.vector_engine import _foreign_events
    from repro.net import MultiClusterConfig, run_multicluster_simulation

    res = run_multicluster_simulation(
        MultiClusterConfig(n_cycles=3, seed=0, handoff="periodic", mobility_speed_mps=3.0)
    )
    move = next(e for e in res.handoff_events if e.state == "committed")
    src, dst = res.macs[move.src], res.macs[move.dst]
    trx = dst.phy.transceivers[list(dst.phy.index_map).index(move.sensor)]
    sim = dst.sim
    handle = sim.at(sim.now + 1e-3, trx.wake)
    for_dst = _foreign_events(dst, frozenset(dst.phy.index_map))
    for_src = _foreign_events(src, frozenset(src.phy.index_map))
    assert not for_dst(handle)
    assert for_src(handle)
    assert not sim.quiet_until(sim.now + 1e-2, for_dst)
    assert sim.quiet_until(sim.now + 1e-2, for_src)
    # A process step of the destination head is foreign to the source,
    # and an unclassifiable callback belongs to everyone.
    step = sim.at(sim.now + 1e-3, dst.process._step, None, None)
    assert for_src(step) and not for_dst(step)
    step.cancel()
    handle.cancel()
    blind = sim.at(sim.now + 1e-3, lambda: None)
    assert not for_src(blind) and not for_dst(blind)


def test_geometry_store_drops_entries_of_a_replaced_rx_power():
    """Mobility replaces rx_power each epoch; the store keeps only entries
    pinned to the current matrix instead of one generation per epoch."""
    from repro.faults import FaultPlan, Mobility
    from repro.net.cluster_sim import PollingSimConfig, run_polling_simulation

    res = run_polling_simulation(
        PollingSimConfig(
            n_sensors=12, n_cycles=5, seed=1, fault_plan=FaultPlan(mobility=Mobility(speed_mps=0.4))
        )
    )
    store = res.mac._vector_geom
    assert res.mac.vector_slots > 0 and store
    rxp = res.phy.medium.rx_power
    assert all(entry.rxp is rxp for entry in store.values())

    res = _isolated_field(n_cycles=3, mobility_speed_mps=2.0)
    for mac in res.macs:
        assert all(entry.rxp is mac.phy.medium.rx_power for entry in mac._vector_geom.values())


def test_shared_medium_decode_order_follows_registration():
    """Responders begin in the medium's registration order, which a shared
    medium's roster need not follow; the poll geometry mirrors it."""
    from repro.mac.base import (
        GROUND_SENSOR_PROPAGATION,
        ClusterPhy,
        geometric_oracle,
        sensor_power_for_range,
    )
    from repro.mac.pollmac import PollingClusterMac
    from repro.mac.vector_engine import maybe_vector_engine
    from repro.radio import RadioMedium, Transceiver
    from repro.sim import Simulator
    from repro.sim.trace import Tracer
    from repro.topology.cluster import Cluster
    from repro.topology.deployment import uniform_square

    dep = uniform_square(10, seed=3, side=80.0, comm_range=60.0)
    _, discovered = geometric_oracle(Cluster.from_deployment(dep))
    sim = Simulator()
    n = discovered.n_sensors
    positions = np.vstack([discovered.positions, discovered.head_position[None, :]])
    power = sensor_power_for_range(GROUND_SENSOR_PROPAGATION, 60.0, 1e-11)
    tx = np.full(n + 1, power)
    tx[n] = 4.0 * power
    medium = RadioMedium(sim, positions, tx, GROUND_SENSOR_PROPAGATION, tracer=Tracer())
    order = list(reversed(range(n + 1)))
    radios = {g: Transceiver(sim, medium, g) for g in order}
    phy = ClusterPhy(
        sim=sim, cluster=discovered, medium=medium,
        transceivers=[radios[g] for g in range(n + 1)], tracer=medium.tracer,
        index_map=list(range(n + 1)),
    )
    mac = PollingClusterMac(phy)
    engine = maybe_vector_engine(mac, 80)
    assert engine is not None
    engine.bank.load()
    engine._bind_caches()
    nodes = engine._build_poll_cache().ok_nodes
    assert len(nodes) > 1
    assert nodes == sorted(nodes, reverse=True)


def test_scalar_request_is_not_a_fallback():
    from repro.net import MultiClusterConfig, run_multicluster_simulation

    res = run_multicluster_simulation(
        MultiClusterConfig(n_cycles=2, seed=0, engine="scalar")
    )
    for mac in res.macs:
        assert mac.engine_fallbacks == {}
