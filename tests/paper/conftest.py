"""Every paper test starts from rewound process-global counters.

The packet-id and session counters feed wire bytes and session seeds, so
without the rewind a test's outcome would depend on which tests ran
before it in the process.  With it, each test runs as it does alone and
the exact sim-clock pins hold anywhere in the suite.
"""

import pytest

from repro.analysis import reset_process_globals


@pytest.fixture(autouse=True)
def _rewound_counters():
    reset_process_globals()
