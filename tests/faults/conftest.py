"""Harness for the fault-injection scenario matrix.

Every scenario follows the same shape: build an N-path world, establish
the session on all paths, start a transfer, let a :class:`ChaosEngine`
execute a fixed-seed :class:`FaultPlan` against the links, run to
quiescence, then push the run through :func:`check_invariants`.

Every test here also runs under the three per-packet oracles of
``tests/shortcut_oracles.py``: whatever the fault does to the wire, a
segment the receiving stack uses equals the parse of its bytes, a send
progress that does not pump leaves nothing a pump would have done, and
a payload built on read is the bytes its segment had when sent.
"""

import pytest

from repro.faults import (
    ChaosEngine,
    DeliveryRecorder,
    TrackerAudit,
    check_invariants,
)
from repro.netsim.scenarios import multi_path_network

from tests.core.conftest import World
from tests.shortcut_oracles import materialize_oracle, parse_oracle, pump_gate_oracle


@pytest.fixture(autouse=True)
def _shortcut_oracles():
    with parse_oracle(), pump_gate_oracle(), materialize_oracle():
        yield


def fault_world(paths=2, seed=7, rate_bps=5e6, **overrides):
    """An N-path client/server world; ``overrides`` patch both contexts."""
    topo = multi_path_network(paths=paths, rate_bps=rate_bps, seed=seed)
    world = World(topo.net, topo.client, topo.server, seed=seed, **overrides)
    world.topo = topo
    return world


def establish_paths(world, until=2.0):
    """Handshake on path 0, JOIN every further path; returns the world."""
    topo = world.topo
    world.client.connect(topo.server_addrs[0], src=topo.client_addrs[0])
    world.client.handshake()
    world.run(until=1.0)
    assert world.client.handshake_complete
    for index in range(1, len(topo.links)):
        conn_id = world.client.connect(
            topo.server_addrs[index], src=topo.client_addrs[index]
        )
        world.client.handshake(conn_id=conn_id)
    world.run(until=until)
    return world


def run_scenario(world, plan, payload, until=90.0, allow_terminal=False,
                 slack=2.0):
    """Send ``payload`` while ``plan`` executes; return (report, engine).

    The transfer starts immediately (t = now); the plan's fault times are
    absolute simulator times, so schedule them into the transfer window.
    """
    recorder = DeliveryRecorder(world.server_session)
    audit = TrackerAudit(world.server_session.tracker)
    stream = world.client.stream_new()
    world.client.streams_attach()
    world.client.send(stream, payload)
    engine = ChaosEngine(world.sim, world.topo.links)
    engine.apply(plan)
    world.run(until=until)
    report = check_invariants(
        {stream: payload},
        recorder,
        world.server_session,
        audit=audit,
        allow_terminal=allow_terminal,
        slack=slack,
    )
    return report, engine
