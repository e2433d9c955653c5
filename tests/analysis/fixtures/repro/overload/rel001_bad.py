"""REL001 fixture: shed/reject paths that never increment a counter.

The path segment ``repro/overload/`` puts this module in the rule's
scope; both methods match the ``reject*``/``shed*`` naming convention
and neither increments a count it keeps, so each must produce a finding.
"""


class UncountedGate:
    def reject_overload(self, depth):
        # BAD: a refusal that counts nothing — offered load can
        # no longer be reconciled against admissions + rejections.
        return depth > 4

    def shed_oldest(self, sessions):
        # BAD: silently drops a session without counting the shed.
        victim = min(sessions, key=lambda s: s.deadline)
        sessions.remove(victim)
        return victim

    def shed_count(self):
        # Exempt: plain getter, not a shedding path.
        return 0
