"""Point-to-point links with bandwidth, propagation delay and FIFO queueing.

A :class:`Link` is unidirectional: it serializes items one at a time at its
bandwidth (a 1-server queueing station), then delivers each item to the
receive callback after the propagation delay.  A :class:`DuplexLink` is the
pair of opposite directions, which is how the testbed wires host↔switch and
switch↔controller cables.

Links support *taps*: observer callbacks invoked on every transmission,
which is how the tcpdump-like capture layer counts control-path bytes
without the link knowing anything about metrics.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..simkit import ServiceStation, Simulator, transmission_delay

#: Receiver signature: receives the transported item.
Receiver = Callable[[Any], None]
#: Tap signature: (time, item, size_bytes).
Tap = Callable[[float, Any, int], None]


class Link:
    """A unidirectional serial link."""

    def __init__(self, sim: Simulator, name: str, bandwidth_bps: float,
                 propagation_delay: float = 5e-6):
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        if propagation_delay < 0:
            raise ValueError(
                f"propagation delay must be >= 0, got {propagation_delay}")
        self.sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.propagation_delay = propagation_delay
        self._station = ServiceStation(sim, f"{name}.tx", servers=1)
        self._receiver: Optional[Receiver] = None
        self._taps: list[Tap] = []
        self._idle_listeners: list[Callable[[], None]] = []
        #: Cumulative bytes and items accepted for transmission.
        self.bytes_sent = 0
        self.items_sent = 0

    def connect(self, receiver: Receiver) -> None:
        """Attach the receiving end.  Must be called before any send."""
        self._receiver = receiver

    def add_tap(self, tap: Tap) -> None:
        """Observe every transmission (called at serialization start)."""
        self._taps.append(tap)

    def add_idle_listener(self, listener: Callable[[], None]) -> None:
        """Notify ``listener`` whenever the transmitter drains.

        Used by egress schedulers that hold their own queues and hand the
        link exactly one frame at a time.
        """
        self._idle_listeners.append(listener)

    def send(self, item: Any, size_bytes: int) -> None:
        """Queue ``item`` for transmission; delivery is asynchronous."""
        if self._receiver is None:
            raise RuntimeError(f"link {self.name!r} has no receiver connected")
        if size_bytes <= 0:
            raise ValueError(f"size must be positive, got {size_bytes}")
        self.bytes_sent += size_bytes
        self.items_sent += 1
        if self._taps:
            now = self.sim._now
            for tap in self._taps:
                tap(now, item, size_bytes)
        service = transmission_delay(size_bytes, self.bandwidth_bps)
        self._station.submit(item, service, self._transmitted)

    def _transmitted(self, item: Any) -> None:
        self.sim.schedule(self.propagation_delay, self._deliver, item)
        station = self._station
        if not station._busy and not station._queue:
            for listener in self._idle_listeners:
                listener()

    def _deliver(self, item: Any) -> None:
        assert self._receiver is not None
        self._receiver(item)

    @property
    def queue_length(self) -> int:
        """Items waiting behind the one being serialized."""
        return self._station.queue_length

    @property
    def backlog(self) -> int:
        """Items queued plus the one in serialization, if any."""
        return self._station.backlog

    def utilization_percent(self) -> float:
        """Share of time the link spent transmitting, in percent."""
        return self._station.utilization_percent()

    def reset_accounting(self) -> None:
        """Restart byte counters and the utilization window."""
        self.bytes_sent = 0
        self.items_sent = 0
        self._station.reset_accounting()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Link({self.name!r}, {self.bandwidth_bps / 1e6:.0f}Mbps, "
                f"backlog={self.backlog})")


class DuplexLink:
    """Two opposite :class:`Link` directions forming one cable."""

    def __init__(self, sim: Simulator, name: str, bandwidth_bps: float,
                 propagation_delay: float = 5e-6):
        self.name = name
        self.forward = Link(sim, f"{name}.fwd", bandwidth_bps,
                            propagation_delay)
        self.reverse = Link(sim, f"{name}.rev", bandwidth_bps,
                            propagation_delay)

    def connect(self, forward_receiver: Receiver,
                reverse_receiver: Receiver) -> None:
        """Attach both ends: forward delivers to one, reverse to the other."""
        self.forward.connect(forward_receiver)
        self.reverse.connect(reverse_receiver)

    def reset_accounting(self) -> None:
        """Restart accounting on both directions."""
        self.forward.reset_accounting()
        self.reverse.reset_accounting()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DuplexLink({self.name!r})"
