"""Exception hierarchy shared across the reproduction.

The decode plane follows a fail-closed contract: every wire parser in
the repository (TCP segments and options, TLS records and handshake
messages, TCPLS control frames, JOIN/cookie bodies, QUIC packets) may
raise only the typed :class:`DecodeError` family on hostile or damaged
input.  ``DecodeError`` subclasses :class:`ProtocolViolation`, so every
pre-existing ``except ProtocolViolation`` recovery site (connection
teardown, segment drop, handshake abort) handles the new hierarchy
unchanged — while the parser campaign asserts the tighter contract.
"""

from __future__ import annotations

import struct


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ProtocolViolation(ReproError):
    """A peer (or a middlebox) sent something the protocol forbids."""


class CryptoError(ReproError):
    """Authentication failure or malformed cryptographic input."""


class DecodeError(ProtocolViolation):
    """A wire parser rejected its input.

    This is the *only* exception family parsers are allowed to raise on
    malformed bytes — ``struct.error``, ``IndexError`` and friends must
    never escape a decode path (see :func:`decode_guard`).
    """


class TruncatedInput(DecodeError):
    """The buffer ended before the encoding it claims to carry."""


class LengthMismatch(DecodeError):
    """A declared length field disagrees with the actual buffer bounds."""


class InvalidValue(DecodeError):
    """A field holds a value the encoding forbids (bad enum, bad text)."""


class UnknownType(DecodeError):
    """A type/kind discriminator names nothing this stack implements."""


class MessageTooLarge(DecodeError):
    """A declared or actual size exceeds the layer's hard limit."""


class ReentrancyError(ReproError):
    """An event handler re-entered ``Simulator.run`` from inside the loop.

    Re-entry interleaves two drain loops over one heap: the inner call
    advances the clock and pops events the outer loop believes are still
    pending, corrupting the (time, seq) execution order determinism rests
    on.  Handlers must ``schedule()`` continuations, never ``run()``."""


class GuardLimitExceeded(ProtocolViolation):
    """A resource-exhaustion guard tripped (buffer cap, stream cap,
    transcript limit, JOIN rate limit).  Subclasses ``ProtocolViolation``
    so the same fail-closed teardown sites apply; the refusing session
    or listener counts it separately as ``stats["guard_tripped"]``."""


# Exceptions a sloppy parser might leak on attacker-shaped bytes.  A
# ``decode_guard`` block converts all of them into typed DecodeErrors.
_STRAY_DECODE_EXCEPTIONS = (
    struct.error,
    IndexError,
    KeyError,
    OverflowError,
    UnicodeDecodeError,
    ValueError,
)


class decode_guard:
    """Fail-closed boundary for a parser body.

    Typed decode errors pass through untouched; any stray low-level
    exception from slicing/unpacking/str-decoding is converted into an
    :class:`InvalidValue` naming the parser, so callers can rely on the
    ``DecodeError``-only contract.

    A slotted class, not a ``@contextmanager`` generator: parsers enter
    one per call (three per received TCP segment).
    """

    __slots__ = ("what",)

    def __init__(self, what: str) -> None:
        self.what = what

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, traceback) -> bool:
        if (
            exc_type is not None
            and issubclass(exc_type, _STRAY_DECODE_EXCEPTIONS)
            and not issubclass(exc_type, DecodeError)
        ):
            raise InvalidValue(f"{self.what}: {exc}") from exc
        return False
