"""FP001 fixture: a gate on a flag that FEATURES never declared."""

from repro import fastpath


def gate():
    return fastpath.flags["bogus.flag"]


def dynamic_gate(name):
    return fastpath.flags[name]


def forced(name):
    with fastpath.overridden(name, False):
        return gate()
