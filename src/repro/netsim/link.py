"""Point-to-point links with rate, propagation delay, queueing, and loss.

Each direction of a link is modelled independently: a FIFO drop-tail
queue feeding a transmitter that serializes packets at ``rate_bps``.
``set_down()``/``set_up()`` model outages (packets in flight are lost,
by an epoch checked at delivery: a posted delivery is never cancelled);
an optional Bernoulli loss process and a reordering process are driven by
a seeded RNG for reproducibility.

Middlebox hooks: a list of transformers per direction, applied at the
moment a packet is accepted for transmission.  A transformer receives the
datagram and returns a (possibly rewritten) datagram, ``None`` to drop,
or a list of datagrams (to inject extra packets, e.g. spurious RSTs).
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Union

import numpy as _np

from repro.netsim.packet import Datagram
from repro.obs import keys as obs_keys

TransformResult = Union[Datagram, None, List[Datagram]]
Transformer = Callable[[Datagram], TransformResult]


class _Direction:
    """State for one direction of a link."""

    def __init__(self) -> None:
        self.next_free_time = 0.0
        self.queued_packets = 0
        self.transformers: list = []
        self.up = True
        # Outage epoch: bumped on every set_down() of this direction.  A
        # packet captures the epoch when it is accepted; if the epoch has
        # moved by delivery time the link went down while the packet was
        # queued or propagating, and the packet is lost (``dropped_down``)
        # even if the link is back up by then.
        self.down_epoch = 0


class Link:
    """A bidirectional point-to-point link between two interfaces."""

    def __init__(
        self,
        sim,
        rate_bps: float = 100e6,
        delay: float = 0.001,
        queue_packets: int = 100,
        loss_rate: float = 0.0,
        reorder_rate: float = 0.0,
        reorder_extra_delay: float = 0.005,
        seed: int = 0,
        name: str = "",
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        if not 0.0 <= reorder_rate < 1.0:
            raise ValueError("reorder rate must be in [0, 1)")
        self.sim = sim
        self.rate_bps = rate_bps
        self.delay = delay
        self.queue_packets = queue_packets
        self.loss_rate = loss_rate
        self.reorder_rate = reorder_rate
        self.reorder_extra_delay = reorder_extra_delay
        self.name = name
        self._rng = random.Random(seed)
        self._endpoints: list = [None, None]  # two Interface objects
        self._directions = {0: _Direction(), 1: _Direction()}
        # Counters for experiments.
        self.stats = dict.fromkeys(obs_keys.LINK_STATS, 0)
        # Optional observability hookup (see observe()).
        self._obs_queue = None
        self._obs_tracer = None
        self._obs_component = ""

    def observe(self, obs) -> None:
        """Record this link's queue depths and its drop/outage events in
        an ``Observability`` hub (its counts stay in ``stats``).  Pure
        observation: the data path is unchanged whether or not a hub is
        attached."""
        self._obs_component = obs_keys.link_component(self.name)
        self._obs_queue = obs.telemetry.histogram(
            self._obs_component, obs_keys.LINK_QUEUE_DEPTH
        )
        self._obs_tracer = obs.tracer

    def _obs_drop(self, reason: str, datagram: Datagram) -> None:
        if self._obs_tracer is not None:
            self._obs_tracer.point(
                self._obs_component, reason, size=datagram.size
            )

    # -- wiring ------------------------------------------------------------

    def attach(self, interface) -> int:
        """Attach an interface; returns its endpoint index (0 or 1)."""
        for index in (0, 1):
            if self._endpoints[index] is None:
                self._endpoints[index] = interface
                return index
        raise ValueError("link already has two endpoints")

    def endpoint(self, index: int):
        """The interface attached at endpoint ``index`` (0 or 1)."""
        return self._endpoints[index]

    def add_transformer(self, from_interface, transformer: Transformer) -> None:
        """Install a middlebox transformer on the direction leaving ``from_interface``."""
        self._directions[self._index_of(from_interface)].transformers.append(
            transformer
        )

    def remove_transformer(self, from_interface, transformer: Transformer) -> bool:
        """Uninstall a transformer (middlebox churn); True if it was present."""
        transformers = self._directions[self._index_of(from_interface)].transformers
        if transformer not in transformers:
            return False
        transformers.remove(transformer)
        return True

    def _index_of(self, interface) -> int:
        for index in (0, 1):
            if self._endpoints[index] is interface:
                return index
        raise ValueError("interface not attached to this link")

    # -- outages -------------------------------------------------------------

    @property
    def up(self) -> bool:
        """True when both directions are up (back-compat view)."""
        return self._directions[0].up and self._directions[1].up

    def _selected_directions(self, direction: Optional[int]):
        if direction is None:
            return self._directions.values()
        return (self._directions[direction],)

    def set_down(self, direction: Optional[int] = None) -> None:
        """Take the link (or one direction of it) down.

        Packets already queued or propagating on an affected direction
        are lost and counted in ``dropped_down`` — an outage kills what
        is on the wire, it does not park it.  ``direction`` is the
        endpoint index (0/1) whose *outgoing* traffic dies; None means
        both directions (a full outage).
        """
        for state in self._selected_directions(direction):
            state.up = False
            state.down_epoch += 1
        if self._obs_tracer is not None:
            self._obs_tracer.point(
                self._obs_component, "link_down",
                direction=-1 if direction is None else direction,
            )

    def set_up(self, direction: Optional[int] = None) -> None:
        for state in self._selected_directions(direction):
            state.up = True
            state.next_free_time = self.sim.now
        if self._obs_tracer is not None:
            self._obs_tracer.point(
                self._obs_component, "link_up",
                direction=-1 if direction is None else direction,
            )

    # -- data path -----------------------------------------------------------

    def transmit(self, from_interface, datagram: Datagram) -> None:
        """Accept a datagram for transmission out of ``from_interface``."""
        # Inlined _index_of: this runs once per packet per hop.
        endpoints = self._endpoints
        if endpoints[0] is from_interface:
            index = 0
        elif endpoints[1] is from_interface:
            index = 1
        else:
            raise ValueError("interface not attached to this link")
        direction = self._directions[index]

        for transformer in direction.transformers:
            result = transformer(datagram)
            if result is None:
                return
            if isinstance(result, list):
                for extra in result:
                    self._enqueue(index, extra)
                return
            datagram = result
        self._enqueue(index, datagram)

    def _enqueue(self, index: int, datagram: Datagram) -> None:
        direction = self._directions[index]
        if not direction.up:
            self.stats["dropped_down"] += 1
            self._obs_drop("dropped_down", datagram)
            return
        if direction.queued_packets >= self.queue_packets:
            self.stats["dropped_queue"] += 1
            self._obs_drop("dropped_queue", datagram)
            return
        if self.loss_rate and self._rng.random() < self.loss_rate:
            self.stats["dropped_loss"] += 1
            self._obs_drop("dropped_loss", datagram)
            return

        now = self.sim.now
        tx_time = datagram.size * 8 / self.rate_bps
        start = direction.next_free_time
        if start < now:
            start = now
        direction.next_free_time = start + tx_time
        direction.queued_packets += 1
        if self._obs_queue is not None:
            self._obs_queue.observe(direction.queued_packets)
        arrival_delay = (start + tx_time + self.delay) - now
        if self.reorder_rate and self._rng.random() < self.reorder_rate:
            # Reordering model: a packet takes a slow lane and arrives
            # behind packets transmitted after it.
            arrival_delay += self.reorder_extra_delay
            self.stats["reordered"] += 1
        self.sim.post(
            arrival_delay, self._deliver, index, datagram, direction.down_epoch
        )

    def transmit_batch(
        self, from_interface, datagrams: Sequence[Datagram]
    ) -> None:
        """Accept a burst of datagrams for transmission out of
        ``from_interface`` (the ``netsim.vectorq`` fast path).

        Semantically identical to calling :meth:`transmit` per datagram:
        same accept/drop decisions, same service-time chaining, same
        delivery times, bit-for-bit.  The batch form exists so the queue
        service computation (start/finish/arrival times for the whole
        burst) runs once in numpy instead of once per packet in Python.

        Bursts only vectorize on loss-free, reorder-free directions —
        both processes draw from the link RNG per packet, and preserving
        the scalar draw order matters more than the arithmetic win, so
        those configurations take the per-packet path unchanged.
        """
        if len(datagrams) == 1:
            self.transmit(from_interface, datagrams[0])
            return
        if self.loss_rate or self.reorder_rate:
            for datagram in datagrams:
                self.transmit(from_interface, datagram)
            return
        endpoints = self._endpoints
        if endpoints[0] is from_interface:
            index = 0
        elif endpoints[1] is from_interface:
            index = 1
        else:
            raise ValueError("interface not attached to this link")
        direction = self._directions[index]

        if direction.transformers:
            # Transformers see datagrams one at a time in burst order,
            # exactly as the scalar loop presents them; survivors (and
            # injected extras) proceed to the vectorized enqueue.
            survivors: List[Datagram] = []
            for datagram in datagrams:
                for transformer in direction.transformers:
                    result = transformer(datagram)
                    if result is None:
                        datagram = None
                        break
                    if isinstance(result, list):
                        survivors.extend(result)
                        datagram = None
                        break
                    datagram = result
                if datagram is not None:
                    survivors.append(datagram)
            datagrams = survivors
            if not datagrams:
                return
        self._enqueue_batch(index, datagrams)

    def _enqueue_batch(self, index: int, datagrams: Sequence[Datagram]) -> None:
        """Vectorized :meth:`_enqueue` for a loss-free, reorder-free
        direction (no RNG draws, so accept filtering and service-time
        math can phase-separate without changing observable behaviour)."""
        direction = self._directions[index]
        if not direction.up:
            for datagram in datagrams:
                self.stats["dropped_down"] += 1
                self._obs_drop("dropped_down", datagram)
            return
        room = self.queue_packets - direction.queued_packets
        if room <= 0:
            accepted: Sequence[Datagram] = ()
            overflow = datagrams
        elif room < len(datagrams):
            accepted = datagrams[:room]
            overflow = datagrams[room:]
        else:
            accepted = datagrams
            overflow = ()
        for datagram in overflow:
            self.stats["dropped_queue"] += 1
            self._obs_drop("dropped_queue", datagram)
        if not accepted:
            return

        now = self.sim.now
        # Chained service times for the whole burst in one accumulate.
        # ``np.add.accumulate`` folds strictly left to right, so every
        # partial sum is the same float the scalar loop's
        # ``start + tx_time`` chain produces — this is what keeps the
        # fast path bit-identical, where a naive cumsum would drift by
        # an ulp and fork the pcap digest.
        start0 = direction.next_free_time
        if start0 < now:
            start0 = now
        tx_times = _np.empty(len(accepted) + 1, dtype=_np.float64)
        tx_times[0] = start0
        tx_times[1:] = [datagram.size for datagram in accepted]
        tx_times[1:] *= 8.0
        tx_times[1:] /= self.rate_bps
        finishes = _np.add.accumulate(tx_times)[1:]
        arrival_delays = ((finishes + self.delay) - now).tolist()
        direction.next_free_time = float(finishes[-1])

        base_depth = direction.queued_packets
        direction.queued_packets = base_depth + len(accepted)
        if self._obs_queue is not None:
            observe = self._obs_queue.observe
            for depth in range(base_depth + 1, base_depth + len(accepted) + 1):
                observe(depth)
        epoch = direction.down_epoch
        post = self.sim.post
        deliver = self._deliver
        for datagram, arrival_delay in zip(accepted, arrival_delays):
            post(arrival_delay, deliver, index, datagram, epoch)

    def _deliver(self, index: int, datagram: Datagram, epoch: int) -> None:
        direction = self._directions[index]
        direction.queued_packets -= 1
        if not direction.up or epoch != direction.down_epoch:
            # Down right now, or went down at least once while this
            # packet was queued/propagating: either way it is an outage
            # loss, distinct from Bernoulli loss (``dropped_loss``).
            self.stats["dropped_down"] += 1
            self._obs_drop("dropped_down", datagram)
            return
        destination = self._endpoints[1 - index]
        if destination is None or not destination.up:
            return
        stats = self.stats
        stats["delivered"] += 1
        stats["bytes_delivered"] += datagram.size
        destination.node.receive(datagram, destination)
