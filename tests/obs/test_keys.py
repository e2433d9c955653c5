"""The central telemetry key registry stays consistent with its users."""

from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.obs import keys


def test_link_stats_registry_matches_link_stats_dict():
    link = Link(Simulator(), rate_bps=1e6, delay=0.001)
    assert tuple(link.stats) == keys.LINK_STATS


def test_session_component_helper():
    assert keys.session_component(True) == keys.COMP_SESSION_SERVER
    assert keys.session_component(False) == keys.COMP_SESSION_CLIENT


def test_link_component_helper():
    assert keys.link_component("") == keys.LINK_COMPONENT_PREFIX
    assert keys.link_component("a--b") == "link.a--b"


def test_every_static_key_is_registered():
    # Every metric-key constant is in the registry (components are not
    # metric keys).
    static = {
        value
        for name, value in vars(keys).items()
        if name.isupper()
        and isinstance(value, str)
        and not name.startswith("COMP_")
        and not name.endswith("_PREFIX")
    }
    assert static and static <= keys.ALL_KEYS, sorted(static - keys.ALL_KEYS)


def test_unknown_key_is_not_registered():
    assert "totally.made_up" not in keys.ALL_KEYS
    assert "" not in keys.ALL_KEYS
    # Session events and fault actions have no counter family: they are
    # recorded once, on the session's timeline and the chaos log.
    assert not any(key.startswith(("event.", "faults.")) for key in keys.ALL_KEYS)


def test_no_key_copies_a_fact_another_store_holds():
    # Failover outcomes live on the session timeline, resumption on the
    # TLS flags, delivered bytes on the connection, memory in
    # ``session_memory_bytes()``, pool counts in ``SessionPool.stats()``
    # and recovery times in ``RecoveryResult.ttr``.  Counts live on their
    # owner: rejects, guard trips and flow control in the session's and
    # the listener's ``stats``, admission in ``AdmissionController.counts()``
    # (DESIGN 4b).  What is left is two histograms and the link stats.
    assert keys.ALL_KEYS == {keys.RECORD_BYTES, keys.LINK_QUEUE_DEPTH,
                             *keys.LINK_STATS}
    for component in ("COMP_POOL", "COMP_SERVER", "COMP_OVERLOAD", "COMP_RECOVERY"):
        assert not hasattr(keys, component)


def test_all_keys_has_no_duplicate_spellings():
    # frozenset dedups silently; rebuild the tuple form to detect
    # constants that accidentally share a spelling.
    names = [
        value
        for name, value in vars(keys).items()
        if name.isupper()
        and isinstance(value, str)
        and not name.endswith("_PREFIX")
    ]
    assert len(names) == len(set(names)), sorted(names)
