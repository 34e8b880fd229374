"""Randomized vector-vs-scalar parity on the shared multi-cluster medium.

Channel-isolated clusters batch their clean slots while the other
clusters' frames, timers and process steps run through the event path
(DESIGN.md §12).  Every draw runs one multi-cluster field twice — once
with ``engine="vector"``, once with the scalar oracle — and both must
agree bit for bit: per-radio energy floats (``float.hex``), generated and
delivered counts, per-head delivery timestamps, collisions and the
handoff event log.

The draws cover every coordination mode, 2–5 heads, field size, mobility
speed, the three handoff policies, head crashes with and without
failover, and the traffic rate.  At least one draw must actually run
vector slots, or the comparison would hold vacuously.

``REPRO_FIELD_PARITY_EXAMPLES`` sets the number of drawn fields (the
handoff chaos CI job runs a deeper profile than tier-1).
"""

from __future__ import annotations

import dataclasses
import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net import MultiClusterConfig, run_multicluster_simulation

MAX_EXAMPLES = int(os.environ.get("REPRO_FIELD_PARITY_EXAMPLES", "10"))
CYCLE = 4.0


@st.composite
def fields(draw):
    n_heads = draw(st.integers(2, 5))
    n_cycles = draw(st.integers(2, 4))
    # Crash instants cluster where they can hurt: inside a duty cycle's
    # polling phases (the first half second) and inside the handoff
    # prepare->commit window just before a boundary.
    crash_at = st.tuples(
        st.integers(0, n_cycles - 1),
        st.sampled_from([0.03, 0.08, 0.15, 0.3, 0.5, 1.5, CYCLE - 0.1]),
    ).map(lambda kt: kt[0] * CYCLE + kt[1])
    crashes = draw(
        st.lists(
            st.tuples(st.integers(0, n_heads - 1), crash_at),
            max_size=2,
            unique_by=lambda c: c[0],
        )
    )
    return MultiClusterConfig(
        n_sensors=draw(st.integers(8 * n_heads, 12 * n_heads)),
        n_heads=n_heads,
        field_m=draw(st.sampled_from([200.0, 260.0, 320.0])),
        rate_bps=draw(st.sampled_from([10.0, 20.0, 40.0])),
        cycle_length=CYCLE,
        n_cycles=n_cycles,
        seed=draw(st.integers(0, 2**16)),
        mode=draw(st.sampled_from(["channels", "channels", "token", "uncoordinated"])),
        mobility_speed_mps=draw(st.sampled_from([0.0, 1.0, 3.0])),
        handoff=draw(st.sampled_from(["off", "staleness", "periodic"])),
        head_crashes=tuple(crashes),
        head_failover=draw(st.booleans()),
    )


def observe(cfg: MultiClusterConfig) -> tuple[dict, int]:
    """Everything the engines must agree on, and the vector slots run."""
    res = run_multicluster_simulation(cfg)
    energies: dict[int, str] = {}
    for mac in res.macs:
        for trx in mac.phy.transceivers:
            energies.setdefault(trx.node, trx.meter.consumed_j.hex())
    out = {
        "energies": sorted(energies.items()),
        "generated": res.packets_generated,
        "delivered": res.packets_delivered,
        "failed": res.packets_failed,
        "collisions": res.collisions,
        "deliveries": [
            [(t.hex(), origin) for t, origin in mac.delivery_times] for mac in res.macs
        ],
        "handoffs": [
            (e.time.hex(), e.sensor, e.src, e.dst, e.state) for e in res.handoff_events
        ],
    }
    return out, sum(mac.vector_slots for mac in res.macs)


def test_field_engines_bit_identical():
    vector_runs = []

    @settings(
        max_examples=MAX_EXAMPLES,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(fields())
    def check(cfg):
        vec, vec_slots = observe(cfg)
        sca, sca_slots = observe(dataclasses.replace(cfg, engine="scalar"))
        assert sca_slots == 0
        assert vec == sca, f"engines diverged on {cfg}"
        vector_runs.append(vec_slots)

    check()
    assert any(vector_runs), "no drawn field ran a vector slot"
