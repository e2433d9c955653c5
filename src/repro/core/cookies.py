"""Connection identifiers and one-time JOIN cookies (paper section 2.4).

The server mints a connection identifier (CONNID) and a list of random
128-bit cookies, delivered to the client inside the encrypted
ServerHello flight.  A cookie authorizes exactly one JOIN: "when the
server receives a valid cookie, it accepts the attachment [...] and
discards the cookie".  The cookie count bounds the number of extra
connections, defusing the denial-of-service vector the paper notes for
Multipath TCP.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.utils.rng import random_bytes

COOKIE_LENGTH = 16  # 128 bits, per the paper
CONNID_LENGTH = 16
# Cookies a server hands out with the handshake, and again after every
# JOIN to replenish the one it consumed (plus cover for attempts that
# burned a cookie without completing).
COOKIE_BATCH = 4


class CookieJar:
    """Server-side cookie issuance and single-use validation."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._valid: set = set()
        self.consumed = 0
        self.rejected = 0

    def mint(self, count: Optional[int] = None) -> List[bytes]:
        count = COOKIE_BATCH if count is None else count
        cookies = [random_bytes(self._rng, COOKIE_LENGTH) for _ in range(count)]
        self._valid.update(cookies)
        return cookies

    def consume(self, cookie: bytes) -> bool:
        """Validate and discard; a replayed cookie fails."""
        if cookie in self._valid:
            self._valid.discard(cookie)
            self.consumed += 1
            return True
        self.rejected += 1
        return False

    def outstanding(self) -> int:
        return len(self._valid)


class CookiePurse:
    """Client-side stash of cookies received from the server."""

    def __init__(self) -> None:
        self._cookies: List[bytes] = []

    def deposit(self, cookies: List[bytes]) -> None:
        self._cookies.extend(cookies)

    def withdraw(self) -> Optional[bytes]:
        if not self._cookies:
            return None
        return self._cookies.pop(0)

    def __len__(self) -> int:
        return len(self._cookies)


def mint_connection_id(rng: random.Random) -> bytes:
    return random_bytes(rng, CONNID_LENGTH)
