"""Per-node energy accounting.

The paper's energy argument rests on the state power ratios of typical
sensor radios (its ref. [9], Raghunathan et al.): sleeping is orders of
magnitude cheaper than any active state, and idle listening costs nearly as
much as receiving — which is why minimizing *active time* (Fig. 7a) is the
right proxy for energy.  Defaults follow the widely used Stargate/WLAN-class
ratios idle : rx : tx = 1 : 1.05 : 1.4 with sleep at ~0.1% of idle.

An :class:`EnergyMeter` integrates power over state dwell times; the radio
state machine drives it on every state change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = ["RadioState", "EnergyParams", "EnergyMeter"]


class RadioState(Enum):
    SLEEP = "sleep"
    IDLE = "idle"  # listening, nothing decodable in the air
    RX = "rx"
    TX = "tx"

    # Members are singletons, so identity hashing is consistent with Enum's
    # identity equality; it skips Enum.__hash__'s Python-level hash of the
    # name on every meter dict access (two per state change).
    __hash__ = object.__hash__


@dataclass(frozen=True)
class EnergyParams:
    """State power draws in watts."""

    sleep_w: float = 15e-6
    idle_w: float = 13.5e-3
    rx_w: float = 14.2e-3  # ~1.05x idle
    tx_w: float = 18.9e-3  # ~1.4x idle
    battery_j: float = 100.0

    def power(self, state: RadioState) -> float:
        # Branch chain instead of a throwaway dict: this sits on the meter's
        # per-state-change hot path (IDLE and RX dominate polling runs).
        if state is RadioState.IDLE:
            return self.idle_w
        if state is RadioState.RX:
            return self.rx_w
        if state is RadioState.TX:
            return self.tx_w
        if state is RadioState.SLEEP:
            return self.sleep_w
        raise KeyError(state)

    def validate(self) -> None:
        if min(self.sleep_w, self.idle_w, self.rx_w, self.tx_w) <= 0:
            raise ValueError("all state powers must be positive")
        if self.sleep_w >= self.idle_w:
            raise ValueError("sleep power should be far below idle power")


@dataclass
class EnergyMeter:
    """Integrates one node's energy use across radio states."""

    params: EnergyParams
    state: RadioState = RadioState.IDLE
    last_change: float = 0.0
    consumed_j: float = 0.0
    dwell_s: dict[RadioState, float] = field(
        default_factory=lambda: {s: 0.0 for s in RadioState}
    )

    def change_state(self, new_state: RadioState, now: float) -> None:
        """Account the time spent in the old state, switch to the new one."""
        if now < self.last_change:
            raise ValueError(
                f"time ran backwards: {now} < {self.last_change}"
            )
        self._integrate(now)
        self.state = new_state

    def _integrate(self, now: float) -> None:
        dt = now - self.last_change
        if dt > 0:
            self.consumed_j += self.params.power(self.state) * dt
            self.dwell_s[self.state] += dt
            self.last_change = now
        else:
            self.last_change = now

    def finalize(self, now: float) -> None:
        """Close the books at simulation end."""
        self._integrate(now)

    @property
    def remaining_j(self) -> float:
        return max(0.0, self.params.battery_j - self.consumed_j)

    @property
    def depleted(self) -> bool:
        return self.consumed_j >= self.params.battery_j

    def active_time_s(self) -> float:
        """Total time not asleep (the Fig. 7a quantity)."""
        return (
            self.dwell_s[RadioState.IDLE]
            + self.dwell_s[RadioState.RX]
            + self.dwell_s[RadioState.TX]
        )

    def breakdown(self) -> dict[str, float]:
        """Energy per state in joules (reporting helper)."""
        return {
            s.value: self.params.power(s) * self.dwell_s[s] for s in RadioState
        }
