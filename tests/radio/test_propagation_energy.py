"""Tests for propagation models and energy accounting."""

import numpy as np
import pytest

from repro.radio import (
    EnergyMeter,
    EnergyParams,
    FreeSpace,
    LogNormalShadowing,
    RadioState,
    TwoRayGround,
    range_for_threshold,
)


# --- propagation ---------------------------------------------------------------

def test_free_space_inverse_square():
    m = FreeSpace()
    assert m.gain(20.0) == pytest.approx(m.gain(10.0) / 4.0)


def test_two_ray_matches_friis_below_crossover():
    m = TwoRayGround(ht=1.5, hr=1.5)
    f = FreeSpace()
    d = m.crossover_distance * 0.5
    assert m.gain(d) == pytest.approx(f.gain(d))


def test_two_ray_fourth_power_above_crossover():
    m = TwoRayGround(ht=0.3, hr=0.3)
    d = m.crossover_distance * 4
    assert m.gain(2 * d) == pytest.approx(m.gain(d) / 16.0)


def test_two_ray_continuous_at_crossover():
    m = TwoRayGround()
    d = m.crossover_distance
    assert m.gain(d * 0.999) == pytest.approx(m.gain(d * 1.001), rel=0.02)


def test_gain_matrix_matches_scalar():
    m = TwoRayGround(ht=0.3, hr=0.3)
    dist = np.array([[0.0, 10.0], [10.0, 0.0]])
    g = m.gain_matrix(dist)
    assert g[0, 1] == pytest.approx(m.gain(10.0))
    assert g[0, 0] == 0.0  # diagonal zeroed, not inf


def test_gain_positive_distance_required():
    with pytest.raises(ValueError):
        TwoRayGround().gain(0.0)
    with pytest.raises(ValueError):
        FreeSpace().gain(-5.0)


def test_shadowing_symmetric_and_reproducible():
    m = LogNormalShadowing(sigma_db=6.0, seed=3)
    dist = np.full((4, 4), 50.0)
    np.fill_diagonal(dist, 0.0)
    g1 = m.gain_matrix(dist)
    g2 = LogNormalShadowing(sigma_db=6.0, seed=3).gain_matrix(dist)
    assert np.allclose(g1, g2)
    assert np.allclose(g1, g1.T)  # link fades identically both ways
    # different seed, different fades
    g3 = LogNormalShadowing(sigma_db=6.0, seed=4).gain_matrix(dist)
    assert not np.allclose(g1, g3)


def test_shadowing_makes_coverage_non_disc():
    """The Sec. III-B point: same distance, different link quality."""
    m = LogNormalShadowing(sigma_db=8.0, seed=1)
    dist = np.full((6, 6), 60.0)
    np.fill_diagonal(dist, 0.0)
    g = m.gain_matrix(dist)
    off = g[~np.eye(6, dtype=bool)]
    assert off.max() / off.min() > 2.0  # equal-distance links differ a lot


def test_range_for_threshold_inverts_gain():
    m = TwoRayGround(ht=0.3, hr=0.3)
    tx = 1e-3
    rng = range_for_threshold(m, tx, rx_threshold_w=1e-11)
    assert tx * m.gain(rng) == pytest.approx(1e-11, rel=1e-6)
    with pytest.raises(ValueError):
        range_for_threshold(m, -1.0, 1e-11)


# --- energy ------------------------------------------------------------------------

def test_energy_params_defaults_sane():
    p = EnergyParams()
    p.validate()
    assert p.sleep_w < p.idle_w < p.tx_w
    assert p.rx_w == pytest.approx(p.idle_w * 1.05, rel=0.05)
    assert p.tx_w == pytest.approx(p.idle_w * 1.4, rel=0.05)


def test_energy_meter_integrates_dwell():
    p = EnergyParams()
    m = EnergyMeter(params=p, state=RadioState.IDLE, last_change=0.0)
    m.change_state(RadioState.TX, now=2.0)  # 2 s idle
    m.change_state(RadioState.SLEEP, now=3.0)  # 1 s tx
    m.finalize(now=10.0)  # 7 s sleep
    assert m.dwell_s[RadioState.IDLE] == pytest.approx(2.0)
    assert m.dwell_s[RadioState.TX] == pytest.approx(1.0)
    assert m.dwell_s[RadioState.SLEEP] == pytest.approx(7.0)
    expected = 2.0 * p.idle_w + 1.0 * p.tx_w + 7.0 * p.sleep_w
    assert m.consumed_j == pytest.approx(expected)
    assert m.active_time_s() == pytest.approx(3.0)


def test_energy_meter_rejects_time_travel():
    m = EnergyMeter(params=EnergyParams(), last_change=5.0)
    with pytest.raises(ValueError):
        m.change_state(RadioState.TX, now=1.0)


def test_energy_meter_battery():
    p = EnergyParams(battery_j=1e-3)
    m = EnergyMeter(params=p, state=RadioState.TX, last_change=0.0)
    m.finalize(now=1.0)  # tx for 1 s >> 1 mJ
    assert m.depleted
    assert m.remaining_j == 0.0


def test_energy_breakdown_sums_to_total():
    m = EnergyMeter(params=EnergyParams(), state=RadioState.RX, last_change=0.0)
    m.change_state(RadioState.IDLE, now=1.5)
    m.finalize(now=4.0)
    assert sum(m.breakdown().values()) == pytest.approx(m.consumed_j)


def test_energy_params_validation():
    with pytest.raises(ValueError):
        EnergyParams(sleep_w=1.0, idle_w=0.5).validate()
    with pytest.raises(ValueError):
        EnergyParams(idle_w=-1.0).validate()


def test_radio_state_identity_hash_keeps_meter_dicts_and_pickling():
    import pickle

    assert RadioState.__hash__ is object.__hash__
    m = EnergyMeter(params=EnergyParams())
    m.change_state(RadioState.RX, 1.0)
    m.change_state(RadioState.TX, 3.0)
    m.change_state(RadioState.SLEEP, 3.5)
    m.finalize(4.0)
    order = ["sleep", "idle", "rx", "tx"]
    assert [s.value for s in m.dwell_s] == order
    assert list(m.breakdown()) == order
    assert m.dwell_s[RadioState.IDLE] == 1.0 and m.dwell_s[RadioState.RX] == 2.0
    assert {RadioState("rx"): 1}[RadioState.RX] == 1
    # Members unpickle to the same singletons, so a pickled meter's dwell
    # table is still keyed by the live members.
    back = pickle.loads(pickle.dumps(m))
    assert all(a is b for a, b in zip(back.dwell_s, RadioState))
    assert back.dwell_s == m.dwell_s and back.consumed_j == m.consumed_j
    assert back.breakdown() == m.breakdown()
    assert pickle.loads(pickle.dumps(RadioState.TX)) is RadioState.TX
