"""Planted API001 violations: broken fastpath/scalar pair contracts."""

from repro import fastpath


def mix_fast(data: bytes, key: bytes) -> int:
    return len(data) + len(key)


def mix_scalar(data: bytes) -> int:
    return len(data)


def mix(data: bytes, key: bytes) -> int:
    # planted: drifted signatures (fast takes key, scalar does not);
    # also: the registered crypto.batch cross-check never calls mix_fast.
    if fastpath.enabled("crypto.batch"):
        return mix_fast(data, key)
    return mix_scalar(data)


def pack_scalar(items, cap):
    return list(items)[:cap]


def pack(items, cap):
    # planted: both branches call the scalar — the fast path is dead.
    if fastpath.enabled("netsim.vectorq"):
        return pack_scalar(items, cap)
    return pack_scalar(items, cap)


def route_fast(items, cap):
    return items[:cap]


def route_scalar(items, cap):
    return items[:cap]


def route(items, cap):
    # planted: netsim.vectorq's registered cross-check never references
    # route_fast, so the equivalence claim is unverified.
    if fastpath.enabled("netsim.vectorq"):
        return route_fast(items, cap)
    return route_scalar(items, cap)
