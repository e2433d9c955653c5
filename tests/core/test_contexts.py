"""Per-stream cryptographic contexts and trial decryption (section 2.3)."""

import pytest

from repro.core.contexts import CONTROL_STREAM_ID, ContextManager
from repro.crypto.hkdf import hkdf_expand_label
from repro.tls.record import ContentType, record_header


def _exporter_pair():
    """Two context managers sharing one exporter (client and server)."""
    secret = b"\x42" * 32

    def exporter(label, context, length):
        return hkdf_expand_label(secret, label[:12], context, length)

    return (
        ContextManager(exporter, is_client=True),
        ContextManager(exporter, is_client=False),
    )


def _seal(manager, stream_id, conn_id, ttype, plaintext):
    cipher = manager.send_context(stream_id, conn_id)
    inner = plaintext + bytes([ttype])
    header = record_header(ContentType.APPLICATION_DATA, len(inner) + 16)
    sealed = cipher.aead.encrypt(cipher.next_nonce(), inner, header)
    cipher.advance()
    return header[:0] + sealed  # body only (no header on the wire here)


def test_peers_derive_matching_contexts():
    client, server = _exporter_pair()
    client.install(1, 0, b"token")
    server.install(1, 0, b"token")
    sealed = _seal(client, 1, 0, 0x30, b"hello")
    opened = server.open_record(0, sealed)
    assert opened is not None
    stream_id, ttype, plaintext = opened
    assert (stream_id, ttype, plaintext) == (1, 0x30, b"hello")


def test_trial_decryption_finds_correct_stream():
    client, server = _exporter_pair()
    for stream_id in (CONTROL_STREAM_ID, 1, 3, 5):
        client.install(stream_id, 0, b"tok")
        server.install(stream_id, 0, b"tok")
    sealed = _seal(client, 5, 0, 0x30, b"for stream five")
    stream_id, ttype, plaintext = server.open_record(0, sealed)
    assert stream_id == 5
    assert plaintext == b"for stream five"
    assert server.trial_decryptions >= 1


def test_streams_have_distinct_keys():
    client, _ = _exporter_pair()
    client.install(1, 0, b"tok")
    client.install(3, 0, b"tok")
    key1 = client.send_context(1, 0).keys.key
    key3 = client.send_context(3, 0).keys.key
    assert key1 != key3


def test_directions_have_distinct_keys():
    client, server = _exporter_pair()
    client.install(1, 0, b"tok")
    server.install(1, 0, b"tok")
    assert client.send_context(1, 0).keys.key == server.recv_context(1, 0).keys.key
    assert client.send_context(1, 0).keys.key != client.recv_context(1, 0).keys.key


def test_same_stream_different_connection_distinct_keys():
    client, _ = _exporter_pair()
    client.install(1, 0, b"primary-token")
    client.install(1, 1, b"join-cookie")
    assert (
        client.send_context(1, 0).keys.key != client.send_context(1, 1).keys.key
    )


def test_forged_record_rejected_and_counted():
    client, server = _exporter_pair()
    client.install(1, 0, b"tok")
    server.install(1, 0, b"tok")
    sealed = bytearray(_seal(client, 1, 0, 0x30, b"x"))
    sealed[0] ^= 0xFF
    assert server.open_record(0, bytes(sealed)) is None
    assert server.forgery_suspects == 1


def test_failed_trial_does_not_desync_other_streams():
    """A forgery attempt must not advance any context's nonce."""
    client, server = _exporter_pair()
    for stream_id in (1, 3):
        client.install(stream_id, 0, b"tok")
        server.install(stream_id, 0, b"tok")
    garbage = b"\x00" * 40
    assert server.open_record(0, garbage) is None
    # Genuine records still decrypt afterwards.
    sealed = _seal(client, 3, 0, 0x30, b"still fine")
    assert server.open_record(0, sealed)[2] == b"still fine"


def test_remove_connection_drops_contexts():
    client, _ = _exporter_pair()
    client.install(1, 0, b"a")
    client.install(1, 1, b"b")
    client.remove_connection(0)
    assert client.send_context(1, 0) is None
    assert client.send_context(1, 1) is not None


def test_remove_stream_drops_all_its_contexts():
    client, _ = _exporter_pair()
    client.install(1, 0, b"a")
    client.install(1, 1, b"b")
    client.install(3, 0, b"a")
    client.remove_stream(1)
    assert client.streams_on(0) == [3]


def test_candidates_sorted_control_first():
    client, _ = _exporter_pair()
    client.install(5, 0, b"t")
    client.install(CONTROL_STREAM_ID, 0, b"t")
    client.install(1, 0, b"t")
    candidates = client.recv_candidates(0)
    assert [stream_id for stream_id, _ in candidates] == [CONTROL_STREAM_ID, 1, 5]


def test_ordered_records_per_context_decrypt_in_sequence():
    client, server = _exporter_pair()
    client.install(1, 0, b"tok")
    server.install(1, 0, b"tok")
    records = [_seal(client, 1, 0, 0x30, f"msg{i}".encode()) for i in range(5)]
    for i, sealed in enumerate(records):
        _, _, plaintext = server.open_record(0, sealed)
        assert plaintext == f"msg{i}".encode()


def test_context_affinity_never_changes_the_stream_a_record_opens_to():
    # Trying the previous record's context first is a lookup-order
    # optimisation: every record must still open to the stream that
    # sealed it, whatever stream came before, and a run on one stream
    # costs one trial per record once the affinity is set.
    client, server = _exporter_pair()
    for stream_id in (CONTROL_STREAM_ID, 1, 3, 5):
        client.install(stream_id, 0, b"tok")
        server.install(stream_id, 0, b"tok")
    for stream_id in (5, 5, 1, 3, 5, CONTROL_STREAM_ID, 1):
        sealed = _seal(client, stream_id, 0, 0x30, bytes([stream_id]))
        assert server.open_record(0, sealed) == (stream_id, 0x30, bytes([stream_id]))
    before = server.trial_decryptions
    for _ in range(4):
        sealed = _seal(client, 5, 0, 0x30, b"bulk")
        assert server.open_record(0, sealed) == (5, 0x30, b"bulk")
    # The first of the run finds stream 5 last of four; the rest hit it first.
    assert server.trial_decryptions - before == 4 + 3
    assert server.forgery_suspects == 0


def test_trial_order_across_stream_churn_on_two_connections(monkeypatch):
    """The order in which contexts are tried is observable (it is what
    ``trial_decryptions`` and ``core.trial_open_ratio`` count): the
    context that opened the connection's previous record first, then the
    rest in stream-id order.  Held, record by record, to a model kept
    here while streams come and go on two connections."""
    from repro.tls.record import RecordDecoder

    client, server = _exporter_pair()
    tried = []
    real_decrypt_with = RecordDecoder.decrypt_with

    def recording_decrypt_with(state, ciphertext):
        tried.append(names[id(state)])
        return real_decrypt_with(state, ciphertext)

    monkeypatch.setattr(
        RecordDecoder, "decrypt_with", staticmethod(recording_decrypt_with)
    )
    names = {}          # id(recv CipherState) -> (stream, conn)
    installed = set()   # the model: (stream, conn) pairs with a context
    affinity = {}       # the model: conn -> stream that opened its last record
    expected_trials = expected_forgeries = 0

    donors = _exporter_pair()  # derive states to hand to install_external

    def install(stream_id, conn_id, external=False):
        for manager, donor in zip((client, server), donors):
            if external:
                donor.install(stream_id, conn_id, b"tok%d" % conn_id)
                manager.install_external(
                    stream_id, conn_id,
                    donor.send_context(stream_id, conn_id),
                    donor.recv_context(stream_id, conn_id),
                )
            else:
                manager.install(stream_id, conn_id, b"tok%d" % conn_id)
        names[id(server.recv_context(stream_id, conn_id))] = (stream_id, conn_id)
        installed.add((stream_id, conn_id))

    def remove_stream(stream_id):
        client.remove_stream(stream_id)
        server.remove_stream(stream_id)
        installed.difference_update({k for k in installed if k[0] == stream_id})
        for conn_id in [c for c, s in affinity.items() if s == stream_id]:
            del affinity[conn_id]

    def remove_connection(conn_id):
        client.remove_connection(conn_id)
        server.remove_connection(conn_id)
        installed.difference_update({k for k in installed if k[1] == conn_id})
        affinity.pop(conn_id, None)

    def model_order(conn_id):
        streams = sorted(s for s, c in installed if c == conn_id)
        last = affinity.get(conn_id)
        if last in streams:
            streams.remove(last)
            streams.insert(0, last)
        return [(s, conn_id) for s in streams]

    def record(stream_id, conn_id, forged=False):
        nonlocal expected_trials, expected_forgeries
        sealed = _seal(client, stream_id, conn_id, 0x30, b"r%d" % stream_id)
        order = model_order(conn_id)
        if forged:
            # The sender's sequence number moved on, the receiver's did
            # not: open the genuine record too so the pair stays in step.
            damaged = bytes([sealed[0] ^ 1]) + sealed[1:]
            del tried[:]
            assert server.open_record(conn_id, damaged) is None
            assert tried == order
            expected_trials += len(order)
            expected_forgeries += 1
        del tried[:]
        assert server.open_record(conn_id, sealed)[0] == stream_id
        assert tried == order[: order.index((stream_id, conn_id)) + 1]
        expected_trials += len(tried)
        affinity[conn_id] = stream_id
        assert server.trial_decryptions == expected_trials
        assert server.forgery_suspects == expected_forgeries

    # Every structural change below lands while the connection's
    # affinity is settled (two records in a row from one stream), i.e.
    # while an implementation that remembers the order has it remembered.
    install(CONTROL_STREAM_ID, 0)
    install(5, 0)
    install(1, 0)
    record(5, 0)                      # no affinity yet: 0, 1, 5
    record(5, 0)                      # 5 first
    record(CONTROL_STREAM_ID, 0)      # 5, then 0
    install(CONTROL_STREAM_ID, 1)     # a second connection joins
    install(1, 1)
    install(5, 1)
    record(1, 1)                      # its own order, untouched by conn 0's
    record(1, 1)
    record(1, 0)                      # conn 0 still prefers 0: 0, 1
    record(1, 0)
    install(3, 0)                     # a stream added mid-affinity
    install(3, 1)
    record(5, 0)                      # 1, 0, 3, 5: the newcomer has its slot
    record(3, 1)                      # 1, 0, 3
    record(3, 1, forged=True)         # every context tried, none opens
    record(3, 0)
    record(3, 0)
    remove_stream(3)                  # both affinity streams go away
    record(5, 0)                      # back to plain stream-id order
    record(1, 1)
    record(1, 1)
    remove_stream(1)
    record(5, 1)
    install(1, 0)                     # re-added: fresh context, same slot
    install(1, 1)
    record(1, 0)
    record(CONTROL_STREAM_ID, 1, forged=True)
    record(5, 0)
    record(5, 0)
    remove_connection(0)
    record(5, 1)
    record(5, 1)
    install(7, 1, external=True)      # adopted, not derived: same rules
    record(7, 1)                      # 5, 0, 1, 7
    record(1, 1)
    assert server.open_record(0, _seal(client, 5, 1, 0x30, b"x")) is None
    assert server.trial_decryptions == expected_trials  # conn 0 has no contexts
    assert server.forgery_suspects == expected_forgeries + 1
