"""The shared wireless medium: SINR capture, collisions, carrier sense.

One :class:`RadioMedium` serves all nodes of a simulation.  Node *i*'s
position and transmit power live in arrays; pairwise receive powers are the
vectorized product of tx power and propagation gain (computed once — nodes
are static, as in the paper).

Reception semantics (matching ns-2's capture behavior closely enough for
the reproduced shapes):

* a frame is decodable at node *r* iff its receive power clears the
  sensitivity threshold, *r* listened continuously for the whole airtime,
  and the SINR against the **sum** of all overlapping transmissions clears
  the capture threshold *beta* — accumulated interference, not pairwise
  (the Sec. III-B / Fig. 3 point);
* carrier sense reports busy when total in-air power at the node exceeds
  the CS threshold (S-MAC's CSMA needs this);
* the medium is oblivious to addressing: every listener that decodes gets
  the frame, and the MAC filters by destination (overhearing costs energy,
  exactly the waste the paper attributes to contention MACs).

Array-shaped state (DESIGN.md §7): the medium keeps, per node, the channel,
whether the radio is listening, and whether it is drawing RX power.  On
every change of the air (a frame starts or ends) it builds the in-air power
every node sees as one left-to-right sum of ``rx_power`` columns over the
frames in the air, in the order they started (:func:`ordered_sum`), and
flips only the listening radios whose busy verdict changed.  At a frame's
end one vectorized mask picks the radios that could decode it (same channel,
above sensitivity, not the sender); the listen-window, SINR, frame-error and
link-loss checks then run for those alone, in registration order.

Equality guarantee: this is bit-for-bit the per-radio fan-out it replaced
(``tests/radio/phy_oracle.py``): the same ``float`` adds in the same order
(a masked column adds an exact ``0.0``, as does ``rx_power``'s zero
diagonal), the same ``change_state`` calls, the same decode order, random
draws, tracer records and callbacks.  ``set_channel`` and
``update_positions`` refresh no radio: a retuned or moved radio keeps its
RX/IDLE state until the air next changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..sim.kernel import Simulator
from ..sim.trace import Tracer
from ..sim.units import transmission_time
from .energy import RadioState
from .packet import Frame

__all__ = ["RadioMedium", "ActiveTransmission", "ordered_sum"]


def ordered_sum(columns):
    """Left-to-right elementwise sum of 1-D float arrays.

    Matches the scalar path's sequential ``total += x`` accumulation
    bit-for-bit: each add rounds exactly like the corresponding Python
    float add.  ``np.add.reduce`` / ``ndarray.sum`` must NOT be used here —
    their pairwise reassociation produces different last-bit results.
    Returns ``None`` for an empty sequence (the caller treats it as the
    scalar path's literal ``0``).
    """
    it = iter(columns)
    try:
        acc = next(it).copy()
    except StopIteration:
        return None
    for col in it:
        acc = acc + col
    return acc


@dataclass
class ActiveTransmission:
    """A frame currently in the air."""

    sender: int
    frame: Frame
    start: float
    end: float
    # every other transmission that overlapped this one in the air, in the
    # order the overlaps began (the SINR sums over them)
    interferers: list["ActiveTransmission"] = field(default_factory=list)


class RadioMedium:
    """The broadcast channel shared by all nodes."""

    def __init__(
        self,
        sim: Simulator,
        positions: np.ndarray,
        tx_power_w: np.ndarray,
        propagation,
        bitrate_bps: float = 200_000.0,
        rx_sensitivity_w: float = 1e-11,
        cs_threshold_w: float = 1e-12,
        capture_beta: float = 10.0,
        noise_w: float = 1e-13,
        tracer: Tracer | None = None,
        frame_error_rate: float = 0.0,
        error_seed: int = 0,
    ):
        self.sim = sim
        self.positions = np.asarray(positions, dtype=np.float64)
        self.n_nodes = self.positions.shape[0]
        tx_power_w = np.asarray(tx_power_w, dtype=np.float64)
        if tx_power_w.shape != (self.n_nodes,):
            raise ValueError(
                f"tx_power_w must have shape ({self.n_nodes},), got {tx_power_w.shape}"
            )
        self.bitrate = float(bitrate_bps)
        self.rx_sensitivity = float(rx_sensitivity_w)
        self.cs_threshold = float(cs_threshold_w)
        self.beta = float(capture_beta)
        self.noise = float(noise_w)
        self.tracer = tracer or Tracer()
        # Kept so mobility can recompute rx_power from moved positions.
        self.tx_power_w = tx_power_w
        self.propagation = propagation
        # rx_power[r, s]: what r sees when s transmits.
        self.rx_power = self._compute_rx_power()
        if not 0.0 <= frame_error_rate < 1.0:
            raise ValueError(f"frame error rate must be in [0,1), got {frame_error_rate}")
        self.frame_error_rate = float(frame_error_rate)
        self._error_rng = np.random.default_rng(error_seed)
        # Radio channel per node (Sec. V-G: adjacent clusters on different
        # channels).  Same-channel transmissions interfere; cross-channel
        # ones are mutually invisible.
        self.channels = np.zeros(self.n_nodes, dtype=np.int64)
        # Per-node radio state the transceivers publish.  ``listening`` is
        # written on every listen edge.  ``is_rx`` mirrors ``meter.state is
        # RX`` for every listening radio (elsewhere it is meaningless): the
        # only writers are publish_rx, called on each RX/IDLE settle outside
        # the medium, and _notify_activity's own flips.  _notify_activity
        # reads it to find the radios whose busy verdict changed, so a
        # listening radio's meter must never leave RX/IDLE without it.
        self.listening = np.zeros(self.n_nodes, dtype=bool)
        self.is_rx = np.zeros(self.n_nodes, dtype=bool)
        self._active: list[ActiveTransmission] = []
        self._transceivers: dict[int, "object"] = {}
        # Registered nodes in registration order: the order radios flip and
        # decode in.
        self._reg_nodes = np.zeros(0, dtype=np.int64)
        # Bumped by set_channel/update_positions, so a decode pass notices a
        # delivery callback that retuned or moved radios.
        self._geometry_epoch = 0
        # Per-sender views of the geometry, dropped whenever it changes.
        self._columns: dict[int, np.ndarray] = {}
        self._audible: dict[int, list[tuple[int, int, float]]] = {}
        # Optional per-link loss process (e.g. Gilbert–Elliott bursty fading)
        # consulted in the decode path: anything with
        # ``frame_fails(receiver, sender, now) -> bool``.  None = clean links.
        self.link_loss = None

    def _compute_rx_power(self) -> np.ndarray:
        diff = self.positions[:, np.newaxis, :] - self.positions[np.newaxis, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        gains = self.propagation.gain_matrix(dist)
        rx = gains * self.tx_power_w[np.newaxis, :]
        np.fill_diagonal(rx, 0.0)
        return rx

    def update_positions(self, positions: np.ndarray) -> None:
        """Move nodes: replace positions and receive powers (mobility).

        ``rx_power`` is *replaced*, never mutated in place: consumers that
        captured the old array (the head's planning oracle) deliberately keep
        seeing the topology as it was when they were built — that staleness
        is the physical reality of a plan computed before the nodes moved,
        and a re-cluster pass is what refreshes it.  The medium itself (the
        ground truth every decode consults through ``self.rx_power``) always
        uses the current geometry.
        """
        positions = np.asarray(positions, dtype=np.float64)
        if positions.shape != self.positions.shape:
            raise ValueError(
                f"positions must have shape {self.positions.shape}, "
                f"got {positions.shape}"
            )
        self.positions = positions.copy()
        self.rx_power = self._compute_rx_power()
        self._geometry_changed()

    # -- registration -------------------------------------------------------------

    def register(self, node: int, transceiver) -> None:
        if node in self._transceivers:
            raise ValueError(f"node {node} already registered")
        self._transceivers[node] = transceiver
        self._reg_nodes = np.append(self._reg_nodes, np.int64(node))
        self._audible.clear()

    def publish_rx(self, node, busy) -> None:
        """Record that listening radio(s) *node* settled RX (*busy*) or IDLE.

        *node* and *busy* may be scalars or matching index/bool arrays.
        """
        self.is_rx[node] = busy

    def set_channel(self, node: int, channel: int) -> None:
        """Assign a node's radio channel (default: everyone on channel 0)."""
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range")
        self.channels[node] = int(channel)
        self._geometry_changed()

    def _geometry_changed(self) -> None:
        self._geometry_epoch += 1
        self._columns.clear()
        self._audible.clear()

    # -- queries -------------------------------------------------------------------

    def airtime(self, frame: Frame) -> float:
        return transmission_time(frame.size_bytes, self.bitrate)

    def in_air_power_at(self, node: int) -> float:
        """Total power node currently sees from active same-channel senders."""
        total = 0.0
        ch = self.channels[node]
        for tx in self._active:
            if tx.sender == node:
                continue
            if self.channels[tx.sender] != ch:
                continue
            total += float(self.rx_power[node, tx.sender])
        return total

    def air_quiet(self) -> bool:
        """True when no frame is in the air."""
        return not self._active

    def carrier_busy(self, node: int) -> bool:
        """Carrier-sense: anything audible above the CS threshold?"""
        return self.in_air_power_at(node) >= self.cs_threshold

    def hears(self, receiver: int, sender: int) -> bool:
        """Static link predicate (power alone clears sensitivity & capture)."""
        p = float(self.rx_power[receiver, sender])
        return p >= self.rx_sensitivity and p >= self.beta * self.noise

    def hearing_matrix(self) -> np.ndarray:
        """Boolean static connectivity of the whole medium."""
        ok = (self.rx_power >= self.rx_sensitivity) & (
            self.rx_power >= self.beta * self.noise
        )
        np.fill_diagonal(ok, False)
        return ok

    # -- transmission lifecycle ------------------------------------------------------

    def begin_transmission(self, sender: int, frame: Frame) -> ActiveTransmission:
        """Called by the sender's transceiver; returns the in-air record."""
        now = self.sim.now
        record = ActiveTransmission(
            sender=sender, frame=frame, start=now, end=now + self.airtime(frame)
        )
        # Mutual interference bookkeeping with everything already in the air.
        for other in self._active:
            other.interferers.append(record)
            record.interferers.append(other)
        self._active.append(record)
        self.tracer.emit(now, "phy_tx_start", node=sender, frame=frame.ftype.value)
        self.sim.at(record.end, self._end_transmission, record)
        self._notify_activity()
        return record

    def _end_transmission(self, record: ActiveTransmission) -> None:
        self._active.remove(record)
        now = self.sim.now
        sender = record.sender
        ftype = record.frame.ftype.value
        self.tracer.emit(now, "phy_tx_end", node=sender, frame=ftype)
        # Deliver to every radio that could decode it, in registration order.
        trxs = self._transceivers
        for node, signal, interference in self._decode_candidates(record):
            trx = trxs[node]
            outcome = self._decode_candidate(node, signal, interference, record, trx)
            if outcome == "ok":
                self.tracer.emit(now, "phy_rx_ok", node=node, frame=ftype)
                trx.deliver(record.frame, float(self.rx_power[node, sender]))
            elif outcome == "collision":
                self.tracer.emit(now, "phy_rx_collision", node=node, frame=ftype)
                trx.deliver_garbled(record.frame)
        self._notify_activity()

    def _decode_candidates(self, record: ActiveTransmission):
        """``(node, signal, interference)`` for the radios that could decode
        *record*'s frame.

        Yields, in registration order, the registered radios on the sender's
        channel whose receive power clears sensitivity, with the summed
        same-channel power of the frames that overlapped it (the ordered
        column sum; the literal ``0`` when nothing overlapped).  A delivery
        callback that retunes or moves radios re-draws both over the radios
        not yet visited, so the filter never skips a radio the full
        per-radio predicate would have reached.
        """
        start = 0
        while True:
            epoch = self._geometry_epoch
            hits = self._audible_to(record.sender)
            interf = ordered_sum(self._air_column(o.sender) for o in record.interferers)
            interf = None if interf is None or not hits else interf.tolist()
            for pos, node, signal in hits:
                if pos < start:
                    continue
                yield node, signal, 0 if interf is None else interf[node]
                if self._geometry_epoch != epoch:
                    start = pos + 1
                    break
            else:
                return

    def _audible_to(self, sender: int) -> list[tuple[int, int, float]]:
        """``(registration position, node, rx power)`` of every registered
        radio on *sender*'s channel above sensitivity (cached per geometry)."""
        hits = self._audible.get(sender)
        if hits is None:
            reg = self._reg_nodes
            ch = self.channels
            sig = self.rx_power[reg, sender]
            pos = np.flatnonzero(
                (ch[reg] == ch[sender]) & (sig >= self.rx_sensitivity) & (reg != sender)
            )
            hits = list(zip(pos.tolist(), reg[pos].tolist(), sig[pos].tolist()))
            self._audible[sender] = hits
        return hits

    def _air_column(self, sender: int) -> np.ndarray:
        """What every node hears of *sender*: ``rx_power[:, sender]`` with
        other channels masked to 0.0 (cached per geometry)."""
        col = self._columns.get(sender)
        if col is None:
            ch = self.channels
            col = np.where(ch == ch[sender], self.rx_power[:, sender], 0.0)
            self._columns[sender] = col
        return col

    def _decode_candidate(
        self, node: int, signal: float, interference: float,
        record: ActiveTransmission, trx,
    ) -> str:
        """'ok', 'collision' (audible but broken), or 'inaudible' for a radio
        already known to share the sender's channel and clear sensitivity."""
        if not trx.listened_through(record.start, record.end):
            return "inaudible"  # asleep or transmitting; never heard it
        if signal < self.beta * (self.noise + interference):
            return "collision"
        if self.frame_error_rate > 0.0 and self._error_rng.random() < self.frame_error_rate:
            return "collision"  # random bit errors: audible but undecodable
        if self.link_loss is not None and self.link_loss.frame_fails(
            node, record.sender, self.sim.now
        ):
            return "collision"  # bursty fade: audible but undecodable
        return "ok"

    def _notify_activity(self) -> None:
        """Flip the listening radios whose busy verdict changed.

        Busy means the in-air power at the radio reaches the CS threshold.
        Flips run through each radio's meter in registration order.
        """
        power = ordered_sum(self._air_column(tx.sender) for tx in self._active)
        if power is None:
            power = 0.0  # silence: what the per-radio scalar sum starts from
        is_rx = self.is_rx
        flip = self.listening & ((power >= self.cs_threshold) != is_rx)
        if not flip.any():
            return
        is_rx ^= flip
        reg = self._reg_nodes
        order = reg[flip[reg]]
        now = self.sim.now
        trxs = self._transceivers
        for node, rx in zip(order.tolist(), is_rx[order].tolist()):
            trxs[node].meter.change_state(RadioState.RX if rx else RadioState.IDLE, now)
