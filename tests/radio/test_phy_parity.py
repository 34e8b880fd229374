"""Randomized parity: the array-shaped medium against the per-radio fan-out.

Every draw builds the same small world twice — once on the production
:class:`RadioMedium`, once on :class:`FanoutRadioMedium` — and replays the
same script of overlapping transmissions, sleeps, wakes, stuns, crashes,
mid-air retunes and moves, carrier-sense probes and in-callback reactions.
The two runs must agree bit for bit: per-radio energy floats and dwell
times, the ordered delivery and garble sequences, the tracer stream, the
frame-error RNG and the bursty-link chains.

``REPRO_PHY_PARITY_EXAMPLES`` sets the number of drawn worlds (the chaos CI
job runs a deeper profile than tier-1).

The whole-run checks swap the oracle medium into a multi-cluster field run
(periodic handoff under mobility; a head crash inside the handoff window)
and into a short S-MAC run (the carrier-sense path), and compare
fingerprints with the production medium.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.gilbert import GilbertElliottLoss
from repro.net import MultiClusterConfig, run_multicluster_simulation
from repro.net.smac_sim import SmacSimConfig, run_smac_simulation
from repro.radio import BROADCAST_ADDR, Frame, FrameType, RadioMedium, Transceiver
from repro.radio.propagation import TwoRayGround
from repro.sim import Simulator
from repro.sim.trace import Tracer

from .phy_oracle import FanoutRadioMedium

MAX_EXAMPLES = int(os.environ.get("REPRO_PHY_PARITY_EXAMPLES", "40"))
TICK = 0.5e-3  # script time grain: an 80-byte frame is 6.4 ticks of air
ACTIONS = ("tx", "tx", "tx", "tx", "sleep", "wake", "stun", "fail", "retune", "move", "cs")
REACTIONS = (None, None, "echo", "retune", "retune-next", "move", "sleep")


@st.composite
def worlds(draw):
    n = draw(st.integers(2, 14))
    n_ch = draw(st.integers(1, 3))
    coord = st.integers(0, 24).map(lambda k: 5.0 * k)  # coincident spots allowed
    positions = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
    moved = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
    registered = draw(st.permutations(range(n)))
    n_reg = draw(st.integers(max(1, n - 2), n))
    events = draw(
        st.lists(
            st.tuples(
                st.integers(0, 30),
                st.sampled_from(ACTIONS),
                st.integers(0, n - 1),
                st.integers(0, 3),
            ),
            min_size=4,
            max_size=40,
        )
    )
    return {
        "positions": positions,
        "moved": moved,
        "tx_power": draw(st.lists(st.sampled_from([1e-2, 3e-2, 1e-3]), min_size=n, max_size=n)),
        "channels": draw(st.lists(st.integers(0, n_ch - 1), min_size=n, max_size=n)),
        "n_ch": n_ch,
        "order": list(registered[:n_reg]),
        "asleep": draw(st.lists(st.sampled_from([False, False, True]), min_size=n, max_size=n)),
        "reactions": draw(st.lists(st.sampled_from(REACTIONS), min_size=n, max_size=n)),
        "events": events,
        "fer": draw(st.sampled_from([0.0, 0.0, 0.2])),
        "bursty": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**16)),
        # a zero CS threshold makes even an empty channel sound busy
        "cs": draw(st.sampled_from([1e-12, 1e-12, 0.0])),
    }


def replay(medium_cls, w) -> dict:
    """Run the world's script on *medium_cls*; return everything observable."""
    sim = Simulator()
    tracer = Tracer(keep_records=True)
    medium = medium_cls(
        sim=sim,
        positions=np.array(w["positions"], dtype=float),
        tx_power_w=np.array(w["tx_power"]),
        propagation=TwoRayGround(ht=0.3, hr=0.3),
        bitrate_bps=200_000.0,
        tracer=tracer,
        frame_error_rate=w["fer"],
        error_seed=w["seed"],
        cs_threshold_w=w.get("cs", 1e-12),
    )
    if w["bursty"]:
        medium.link_loss = GilbertElliottLoss(
            p_good_to_bad=0.3, p_bad_to_good=0.3, loss_bad=0.7,
            coherence_s=TICK, seed=w["seed"],
        )
    for node, ch in enumerate(w["channels"]):
        medium.set_channel(node, ch)
    radios: dict[int, Transceiver] = {}
    log: list = []

    def retune(node):
        medium.set_channel(node, (int(medium.channels[node]) + 1) % w["n_ch"])

    def transmit(node, tag, size):
        trx = radios[node]
        if not (trx.is_sleeping or trx.is_transmitting):
            trx.transmit(Frame(FrameType.DATA, node, BROADCAST_ADDR, size, payload=tag))

    def on_rx(node, frame, power):
        log.append(("rx", node, frame.payload, power.hex()))
        reaction = w["reactions"][node]
        if reaction == "echo" and frame.payload[0] != "echo":
            transmit(node, ("echo", node, frame.payload), 12)
        elif reaction == "retune":
            retune(node)
        elif reaction == "retune-next":  # retunes a radio the decode pass may not have reached
            retune((node + 1) % len(w["positions"]))
        elif reaction == "move":
            medium.update_positions(np.array(w["moved"], dtype=float))
        elif reaction == "sleep":
            radios[node].sleep()

    for node in w["order"]:
        trx = Transceiver(sim, medium, node, start_asleep=w["asleep"][node])
        trx.on_receive(lambda f, p, node=node: on_rx(node, f, p))
        trx.on_garbled(lambda f, node=node: log.append(("garbled", node, f.payload)))
        radios[node] = trx

    def act(i, action, node, arg):
        trx = radios.get(node)
        if action == "retune":
            retune(node)
        elif action == "move":
            src = w["moved"] if arg % 2 else w["positions"]
            medium.update_positions(np.array(src, dtype=float))
        elif trx is None:
            return
        elif action == "tx":
            transmit(node, ("tx", i), (12, 24, 80, 80)[arg])
        elif action == "sleep" and not trx.is_transmitting:
            trx.sleep()
        elif action == "wake":
            trx.wake()
        elif action == "stun":
            trx.stun((1 + arg) * TICK * 3)
        elif action == "fail" and arg == 0:
            trx.fail()
        elif action == "cs":
            log.append(("cs", node, trx.carrier_busy()))

    for i, (tick, action, node, arg) in enumerate(w["events"]):
        sim.at(tick * TICK, act, i, action, node, arg)
    sim.run()
    for trx in radios.values():
        trx.finalize()
    link = medium.link_loss
    return {
        "meters": [
            (
                node,
                trx.meter.state.value,
                trx.meter.consumed_j.hex(),
                [(s.value, d.hex()) for s, d in trx.meter.dwell_s.items()],
                trx.frames_sent,
                trx.frames_received,
                trx.frames_garbled,
            )
            for node, trx in radios.items()
        ],
        "log": log,
        "trace": [(r.time.hex(), r.kind, r.node, r.detail) for r in tracer.records],
        "rng": medium._error_rng.bit_generator.state,
        "links": None if link is None else sorted(
            (key, c.state, c.steps_taken, c.frames_seen, c.frames_lost)
            for key, c in link._chains.items()
        ),
    }


@settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(worlds())
def test_array_medium_matches_fanout_oracle(w):
    assert replay(RadioMedium, w) == replay(FanoutRadioMedium, w)


def test_replay_exercises_the_decode_paths():
    """A fixed busy world reaches deliveries, garbles and busy probes."""
    w = {
        "positions": [(0.0, 0.0), (20.0, 0.0), (40.0, 0.0), (20.0, 20.0)],
        "moved": [(0.0, 0.0), (25.0, 0.0), (40.0, 5.0), (20.0, 30.0)],
        "tx_power": [1e-2] * 4,
        "channels": [0, 0, 0, 0],
        "n_ch": 2,
        "order": [2, 0, 3, 1],
        "asleep": [False] * 4,
        "reactions": [None, "echo", "retune", None],
        "events": [(0, "tx", 0, 2), (1, "cs", 1, 0), (2, "tx", 2, 2), (20, "tx", 0, 2),
                   (21, "move", 0, 1), (40, "tx", 3, 2)],
        "fer": 0.2,
        "bursty": True,
        "seed": 7,
    }
    out = replay(RadioMedium, w)
    kinds = {entry[0] for entry in out["log"]}
    assert {"rx", "garbled", "cs"} <= kinds
    assert out == replay(FanoutRadioMedium, w)


# -- whole runs with the oracle swapped in ------------------------------------------


def _field_fingerprint(res) -> str:
    seen, energies = set(), []
    for mac in res.macs:
        for trx in mac.phy.transceivers:
            if id(trx) not in seen:
                seen.add(id(trx))
                energies.append((trx.node, trx.meter.consumed_j.hex()))
    payload = {
        "delivered": res.packets_delivered,
        "generated": res.packets_generated,
        "collisions": res.collisions,
        "elapsed": res.elapsed.hex(),
        "handoffs": [(e.time.hex(), e.sensor, e.src, e.dst, e.state) for e in res.handoff_events],
        "energies": sorted(energies),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


FIELD_RUNS = {
    "periodic-mobility": MultiClusterConfig(
        n_cycles=4, seed=1, mobility_speed_mps=2.0, handoff="periodic",
    ),
    "crash-in-handoff-window": MultiClusterConfig(
        n_cycles=4, seed=2, mobility_speed_mps=3.0, handoff="staleness",
        handoff_head_step_m=4.0, head_failover=True, head_crashes=((1, 2 * 6.0 - 0.1),),
    ),
}


@pytest.mark.parametrize("name", sorted(FIELD_RUNS))
def test_field_run_matches_with_oracle_medium(name, monkeypatch):
    cfg = FIELD_RUNS[name]
    want = _field_fingerprint(run_multicluster_simulation(cfg))
    monkeypatch.setattr("repro.net.multicluster_sim.RadioMedium", FanoutRadioMedium)
    assert _field_fingerprint(run_multicluster_simulation(cfg)) == want


def test_smac_run_matches_with_oracle_medium(monkeypatch):
    cfg = SmacSimConfig(n_sensors=12, rate_bps=20.0, duration=6.0, warmup=1.0, seed=3)

    def fingerprint(res):
        return (
            res.packets_generated,
            res.packets_delivered,
            res.control_frames,
            [t.meter.consumed_j.hex() for t in res.net.phy.transceivers],
        )

    want = fingerprint(run_smac_simulation(cfg))
    monkeypatch.setattr("repro.mac.base.RadioMedium", FanoutRadioMedium)
    assert fingerprint(run_smac_simulation(cfg)) == want


def test_callback_retune_is_seen_by_the_rest_of_the_decode_pass():
    """A delivery callback that retunes a radio not yet visited takes it out
    of the frame, exactly as the per-radio loop would."""
    w = {
        "positions": [(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)],
        "moved": [(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)],
        "tx_power": [1e-2] * 3,
        "channels": [0, 0, 0],
        "n_ch": 2,
        "order": [0, 1, 2],
        "asleep": [False] * 3,
        "reactions": [None, "retune-next", None],
        "events": [(0, "tx", 0, 2)],
        "fer": 0.0,
        "bursty": False,
        "seed": 0,
    }
    out = replay(RadioMedium, w)
    assert [(e[0], e[1]) for e in out["log"]] == [("rx", 1)]
    assert out == replay(FanoutRadioMedium, w)


def test_zero_cs_threshold_keeps_listeners_busy_on_an_empty_channel():
    """With ``cs_threshold_w=0`` even silence reaches the threshold, so a
    listening radio stays RX after the last frame ends, as it does when each
    radio re-sums its own in-air power."""
    w = {
        "positions": [(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)],
        "moved": [(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)],
        "tx_power": [1e-2] * 3,
        "channels": [0, 0, 1],
        "n_ch": 2,
        "order": [0, 1, 2],
        "asleep": [False] * 3,
        "reactions": [None] * 3,
        "events": [(0, "tx", 0, 2), (4, "sleep", 2, 0), (6, "wake", 2, 0)],
        "fer": 0.0,
        "bursty": False,
        "seed": 0,
        "cs": 0.0,
    }
    out = replay(RadioMedium, w)
    assert [m[1] for m in out["meters"]] == ["rx", "rx", "rx"]
    assert out == replay(FanoutRadioMedium, w)
