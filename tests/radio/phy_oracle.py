"""Reference shared medium that the production PHY is checked against.

:class:`FanoutRadioMedium` is the original, obviously-correct medium: on
every change of the air it asks each registered radio, one by one, to
re-sum the in-air power it hears and flip RX/IDLE; at the end of each frame
it runs the full decode predicate (channel, sensitivity, listen window,
SINR against the summed interferers, frame errors, bursty link loss) for
every registered radio in registration order.

The production :class:`repro.radio.RadioMedium` computes the same answers
from arrays and visits only the radios that can change.  A correct
production medium is indistinguishable from this oracle: the same energy
floats, the same deliveries and garbles in the same order, the same tracer
stream and the same random draws.
"""

from __future__ import annotations

from repro.radio.channel import ActiveTransmission, RadioMedium

__all__ = ["FanoutRadioMedium"]


class FanoutRadioMedium(RadioMedium):
    """The per-radio fan-out medium (one Python visit per radio per change)."""

    def _end_transmission(self, record: ActiveTransmission) -> None:
        self._active.remove(record)
        now = self.sim.now
        self.tracer.emit(now, "phy_tx_end", node=record.sender, frame=record.frame.ftype.value)
        for node, trx in self._transceivers.items():
            if node == record.sender:
                continue
            outcome = self._decode_outcome(node, record, trx)
            if outcome == "ok":
                self.tracer.emit(
                    now, "phy_rx_ok", node=node, frame=record.frame.ftype.value
                )
                trx.deliver(record.frame, float(self.rx_power[node, record.sender]))
            elif outcome == "collision":
                self.tracer.emit(
                    now, "phy_rx_collision", node=node, frame=record.frame.ftype.value
                )
                trx.deliver_garbled(record.frame)
        self._notify_activity()

    def _decode_outcome(self, node: int, record: ActiveTransmission, trx) -> str:
        """'ok', 'collision' (audible but broken), or 'inaudible'."""
        if self.channels[node] != self.channels[record.sender]:
            return "inaudible"
        signal = float(self.rx_power[node, record.sender])
        if signal < self.rx_sensitivity:
            return "inaudible"
        if not trx.listened_through(record.start, record.end):
            return "inaudible"
        interference = sum(
            float(self.rx_power[node, other.sender])
            for other in record.interferers
            if other.sender != node and self.channels[other.sender] == self.channels[node]
        )
        if signal < self.beta * (self.noise + interference):
            return "collision"
        if self.frame_error_rate > 0.0 and self._error_rng.random() < self.frame_error_rate:
            return "collision"
        if self.link_loss is not None and self.link_loss.frame_fails(
            node, record.sender, self.sim.now
        ):
            return "collision"
        return "ok"

    def _notify_activity(self) -> None:
        for trx in self._transceivers.values():
            trx._refresh_rx_state()
