"""One hypothesis profile for the whole suite, loaded unconditionally.

Derandomized with no example database, so every property test draws the
same examples on every run and the suite's outcome is a function of the
commit.  No deadline: a slow host must not turn a pass into a failure.
An explicit ``@settings`` keeps its own budget and inherits the rest.
"""

from hypothesis import settings

settings.register_profile("repro", derandomize=True, database=None, deadline=None)
settings.load_profile("repro")
