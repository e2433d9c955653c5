"""ChaosEngine: executes a :class:`~repro.faults.plan.FaultPlan` on live links.

The engine owns the mapping from abstract fault kinds to concrete link
mutations: flaps call ``Link.set_down``/``set_up`` (per direction where
asked), windowed middlebox faults install a transformer at the start
instant and remove it at the end (middlebox churn — the box appears
mid-session and later vanishes), loss bursts temporarily raise the
link's Bernoulli loss rate, and NAT rebinds snapshot the flows alive at
the rebind instant and kill exactly those.

Everything runs on the simulator clock, so a given (topology seed,
plan) pair replays identically — which is what lets the invariant
checker make hard assertions about recovery behaviour.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.faults.plan import (
    KIND_BLACKHOLE,
    KIND_CLIENT_STAMPEDE,
    KIND_CORRUPT_BURST,
    KIND_FLAP,
    KIND_LOSS_BURST,
    KIND_MEMORY_PRESSURE,
    KIND_NAT_REBIND,
    KIND_RST_STORM,
    KIND_SERVER_CRASH,
    KIND_SERVER_RESTART,
    KIND_SLOW_READER,
    KIND_STRIP_OPTIONS,
    KIND_TICKET_KEY_ROTATION,
    Fault,
    FaultPlan,
)
from repro.netsim.middlebox import (
    OptionStripper,
    PayloadCorruptor,
    _parse_tcp,
    _reserialize,
)
from repro.tcp.segment import Flags, TcpSegment


class Blackhole:
    """Transformer that silently eats every packet while installed.

    Distinct from a link flap: the link stays nominally up (no
    ``dropped_down`` accounting, no carrier-loss signal a stack could
    react to) — traffic just vanishes, the way a misconfigured firewall
    or a routing black hole behaves.
    """

    def __init__(self) -> None:
        self.dropped = 0

    def __call__(self, datagram):
        self.dropped += 1
        return None


class RstStorm:
    """Transformer that replaces every Nth TCP packet with a forged RST.

    Unlike :class:`repro.netsim.middlebox.RstInjector` (one targeted
    kill after a byte threshold), a storm sprays RSTs at whatever flows
    are active while it lasts — modelling the documented behaviour of
    censorship boxes and broken traffic shapers.  The RST carries the
    victim packet's own sequence numbers, so it lands in-window.
    """

    def __init__(self, every: int = 1) -> None:
        self.every = max(1, every)
        self._count = 0
        self.forged = 0

    def __call__(self, datagram):
        segment = _parse_tcp(datagram)
        if segment is None:
            return datagram
        self._count += 1
        if self._count % self.every:
            return datagram
        rst = TcpSegment(
            src_port=segment.src_port,
            dst_port=segment.dst_port,
            seq=segment.seq,
            ack=segment.ack,
            flags=Flags.RST | Flags.ACK,
            window=0,
        )
        self.forged += 1
        return [_reserialize(datagram, rst)]


class NatRebinder:
    """Transformer modelling a NAT that forgets its bindings mid-session.

    While armed it passively records TCP 4-tuples.  ``rebind()``
    snapshots the flows known at that instant as *stale*: their packets
    are dropped from then on (the NAT no longer has a translation for
    them), while flows first seen after the rebind pass untouched (new
    connections re-establish a binding).  This is the failure mode the
    paper's JOIN mechanism exists to recover from.
    """

    def __init__(self) -> None:
        self._seen: set = set()
        self._stale: set = set()
        self.rebinds = 0
        self.dropped = 0

    @staticmethod
    def _flow(datagram, segment) -> tuple:
        return (datagram.src, segment.src_port, datagram.dst, segment.dst_port)

    def rebind(self) -> None:
        self._stale |= self._seen
        self._seen = set()
        self.rebinds += 1

    def __call__(self, datagram):
        segment = _parse_tcp(datagram)
        if segment is None:
            return datagram
        flow = self._flow(datagram, segment)
        if flow in self._stale:
            self.dropped += 1
            return None
        self._seen.add(flow)
        return datagram


class ChaosEngine:
    """Schedules a fault plan against a set of paths.

    ``paths`` is a sequence with one entry per path; an entry is either a
    single ``Link`` or a list of links (multi-hop paths apply each fault
    to every hop).  Faults with ``path=None`` hit all paths.
    """

    def __init__(self, sim, paths: Sequence, endpoints=None,
                 workloads=None) -> None:
        self.sim = sim
        self.paths: List[list] = [
            list(entry) if isinstance(entry, (list, tuple)) else [entry]
            for entry in paths
        ]
        # Endpoint-fault targets (ServerEndpoint instances).  For
        # endpoint kinds, ``fault.path`` indexes this list instead of
        # ``paths`` (None = every endpoint).
        self.endpoints: List = list(endpoints) if endpoints else []
        # Workload-fault targets: objects speaking the chaos workload
        # protocol (``stampede``/``slow_reader_start``/``slow_reader_end``/
        # ``memory_pressure_start``/``memory_pressure_end``).  For
        # workload kinds, ``fault.path`` indexes this list (None = all).
        self.workloads: List = list(workloads) if workloads else []
        # Workload windows currently open, for teardown mid-window:
        # (workload, kind) entries.
        self._workload_open: list = []
        # Chronological record of every action taken: (time, kind, path,
        # phase) where phase is "start"/"end" ("fire" for instant faults).
        self.log: list = []
        self._saved_loss: dict = {}
        # NAT rebinders are armed lazily, one per (link, direction), the
        # first time a nat_rebind fault touches that direction — they
        # must watch traffic *before* the rebind instant to know which
        # flows to kill, so arming happens at apply() time.
        self._rebinders: dict = {}
        # Transformers currently installed by windowed faults, so
        # teardown() can remove stragglers when a run ends mid-window.
        self._installed: list = []

    # -- plan execution ----------------------------------------------------

    def apply(self, plan: FaultPlan) -> None:
        """Schedule every fault in ``plan`` relative to the current clock."""
        for fault in plan:
            if fault.kind == KIND_NAT_REBIND:
                # Arm the observer now so pre-rebind flows are recorded.
                for link, direction in self._targets(fault):
                    self._arm_rebinder(link, direction)
            self.sim.schedule(
                max(0.0, fault.at - self.sim.now), self._start, fault
            )

    _INSTANT_KINDS = frozenset(
        (KIND_NAT_REBIND, KIND_SERVER_CRASH, KIND_TICKET_KEY_ROTATION,
         KIND_CLIENT_STAMPEDE)
    )

    def _start(self, fault: Fault) -> None:
        handler = {
            KIND_FLAP: self._start_flap,
            KIND_BLACKHOLE: self._start_install,
            KIND_CORRUPT_BURST: self._start_install,
            KIND_RST_STORM: self._start_install,
            KIND_STRIP_OPTIONS: self._start_install,
            KIND_LOSS_BURST: self._start_loss,
            KIND_NAT_REBIND: self._fire_nat_rebind,
            KIND_SERVER_CRASH: self._fire_server_crash,
            KIND_SERVER_RESTART: self._start_server_restart,
            KIND_TICKET_KEY_ROTATION: self._fire_rotation,
            KIND_CLIENT_STAMPEDE: self._fire_stampede,
            KIND_SLOW_READER: self._start_slow_reader,
            KIND_MEMORY_PRESSURE: self._start_memory_pressure,
        }[fault.kind]
        self._note(fault, "fire" if fault.kind in self._INSTANT_KINDS else "start")
        handler(fault)

    def _note(self, fault: Fault, phase: str) -> None:
        self.log.append((self.sim.now, fault.kind, fault.path, phase))

    # -- targeting helpers -------------------------------------------------

    def _links_for(self, fault: Fault) -> list:
        if fault.path is None:
            return [link for path in self.paths for link in path]
        return self.paths[fault.path]

    def _directions(self, fault: Fault) -> tuple:
        return (0, 1) if fault.direction is None else (fault.direction,)

    def _targets(self, fault: Fault) -> Iterable[tuple]:
        for link in self._links_for(fault):
            for direction in self._directions(fault):
                yield link, direction

    # -- kind handlers -----------------------------------------------------

    def _start_flap(self, fault: Fault) -> None:
        for link in self._links_for(fault):
            link.set_down(fault.direction)
        self.sim.schedule(fault.duration, self._end_flap, fault)

    def _end_flap(self, fault: Fault) -> None:
        for link in self._links_for(fault):
            link.set_up(fault.direction)
        self._note(fault, "end")

    _FACTORIES = {
        KIND_BLACKHOLE: lambda params: Blackhole(),
        KIND_CORRUPT_BURST: lambda params: PayloadCorruptor(
            every=params.get("every", 1)
        ),
        KIND_RST_STORM: lambda params: RstStorm(every=params.get("every", 1)),
        KIND_STRIP_OPTIONS: lambda params: OptionStripper(
            kinds=params.get("kinds", ())
        ),
    }

    def _start_install(self, fault: Fault) -> None:
        installed = []
        for link, direction in self._targets(fault):
            transformer = self._FACTORIES[fault.kind](fault.params)
            link.add_transformer(link.endpoint(direction), transformer)
            installed.append((link, direction, transformer))
        self._installed.extend(installed)
        self.sim.schedule(fault.duration, self._end_install, fault, installed)

    def _end_install(self, fault: Fault, installed: list) -> None:
        for entry in installed:
            link, direction, transformer = entry
            link.remove_transformer(link.endpoint(direction), transformer)
            if entry in self._installed:
                self._installed.remove(entry)
        self._note(fault, "end")

    def _start_loss(self, fault: Fault) -> None:
        links = self._links_for(fault)
        for link in links:
            # Remember the pre-burst rate once even if bursts overlap.
            self._saved_loss.setdefault(id(link), link.loss_rate)
            link.loss_rate = float(fault.params.get("loss", 0.3))
        self.sim.schedule(fault.duration, self._end_loss, fault, links)

    def _end_loss(self, fault: Fault, links: list) -> None:
        for link in links:
            link.loss_rate = self._saved_loss.pop(id(link), 0.0)
        self._note(fault, "end")

    def _arm_rebinder(self, link, direction: int) -> NatRebinder:
        key = (id(link), direction)
        rebinder = self._rebinders.get(key)
        if rebinder is None:
            rebinder = NatRebinder()
            link.add_transformer(link.endpoint(direction), rebinder)
            self._rebinders[key] = rebinder
        return rebinder

    def _fire_nat_rebind(self, fault: Fault) -> None:
        for link, direction in self._targets(fault):
            self._arm_rebinder(link, direction).rebind()

    # -- endpoint handlers -------------------------------------------------

    def _endpoints_for(self, fault: Fault) -> list:
        if not self.endpoints:
            raise ValueError(
                f"fault kind {fault.kind!r} needs ChaosEngine(endpoints=...)"
            )
        if fault.path is None:
            return list(self.endpoints)
        return [self.endpoints[fault.path]]

    def _fire_server_crash(self, fault: Fault) -> None:
        for endpoint in self._endpoints_for(fault):
            endpoint.crash()

    def _start_server_restart(self, fault: Fault) -> None:
        targets = self._endpoints_for(fault)
        for endpoint in targets:
            endpoint.crash()
        self.sim.schedule(fault.duration, self._end_server_restart, fault, targets)

    def _end_server_restart(self, fault: Fault, targets: list) -> None:
        rotate = bool(fault.params.get("rotate_keys", False))
        for endpoint in targets:
            endpoint.restart(rotate_keys=rotate)
        self._note(fault, "end")

    def _fire_rotation(self, fault: Fault) -> None:
        for endpoint in self._endpoints_for(fault):
            endpoint.rotate_ticket_key()

    # -- workload handlers -------------------------------------------------

    def _workloads_for(self, fault: Fault) -> list:
        if not self.workloads:
            raise ValueError(
                f"fault kind {fault.kind!r} needs ChaosEngine(workloads=...)"
            )
        if fault.path is None:
            return list(self.workloads)
        return [self.workloads[fault.path]]

    def _fire_stampede(self, fault: Fault) -> None:
        count = int(fault.params.get("count", 20))
        for workload in self._workloads_for(fault):
            workload.stampede(count)

    def _start_slow_reader(self, fault: Fault) -> None:
        targets = self._workloads_for(fault)
        for workload in targets:
            workload.slow_reader_start()
            self._workload_open.append((workload, KIND_SLOW_READER))
        self.sim.schedule(fault.duration, self._end_slow_reader, fault, targets)

    def _end_slow_reader(self, fault: Fault, targets: list) -> None:
        for workload in targets:
            workload.slow_reader_end()
            self._workload_open.remove((workload, KIND_SLOW_READER))
        self._note(fault, "end")

    def _start_memory_pressure(self, fault: Fault) -> None:
        factor = float(fault.params.get("factor", 0.25))
        targets = self._workloads_for(fault)
        for workload in targets:
            workload.memory_pressure_start(factor)
            self._workload_open.append((workload, KIND_MEMORY_PRESSURE))
        self.sim.schedule(
            fault.duration, self._end_memory_pressure, fault, targets
        )

    def _end_memory_pressure(self, fault: Fault, targets: list) -> None:
        for workload in targets:
            workload.memory_pressure_end()
            self._workload_open.remove((workload, KIND_MEMORY_PRESSURE))
        self._note(fault, "end")

    # -- teardown ----------------------------------------------------------

    def teardown(self) -> None:
        """Restore the world after a run ends mid-fault.

        Guarantees: no transformer installed by a windowed fault is left
        on any link, loss rates are back at their pre-burst values, NAT
        rebinders are disarmed, and crashed endpoints are restarted
        (without key rotation — teardown repairs, it does not mutate
        policy).  Idempotent; every repair is logged as a "teardown"
        phase so post-run analysis can tell repairs from plan actions.
        """
        for entry in list(self._installed):
            link, direction, transformer = entry
            link.remove_transformer(link.endpoint(direction), transformer)
            self.log.append((self.sim.now, "transformer", None, "teardown"))
        self._installed.clear()
        for link_id in list(self._saved_loss):
            # The links dict keys by id(); find the live object via paths.
            for path in self.paths:
                for link in path:
                    if id(link) == link_id:
                        link.loss_rate = self._saved_loss.pop(link_id)
                        self.log.append(
                            (self.sim.now, "loss_rate", None, "teardown")
                        )
                        break
            self._saved_loss.pop(link_id, None)
        for (link_id, direction), rebinder in list(self._rebinders.items()):
            for path in self.paths:
                for link in path:
                    if id(link) == link_id:
                        link.remove_transformer(
                            link.endpoint(direction), rebinder
                        )
                        self.log.append(
                            (self.sim.now, "nat_rebinder", None, "teardown")
                        )
                        break
        self._rebinders.clear()
        for index, endpoint in enumerate(self.endpoints):
            if endpoint.crashed:
                endpoint.restart()
                self.log.append(
                    (self.sim.now, KIND_SERVER_RESTART, index, "teardown")
                )
        for workload, kind in list(self._workload_open):
            if kind == KIND_SLOW_READER:
                workload.slow_reader_end()
            else:
                workload.memory_pressure_end()
            self.log.append((self.sim.now, kind, None, "teardown"))
        self._workload_open.clear()

    # -- introspection -----------------------------------------------------

    def describe(self) -> dict:
        return {
            "paths": len(self.paths),
            "endpoints": len(self.endpoints),
            "workloads": len(self.workloads),
            "actions": len(self.log),
            "rebinders": len(self._rebinders),
            "installed": len(self._installed),
        }
