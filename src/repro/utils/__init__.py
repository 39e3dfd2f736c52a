"""Shared low-level utilities: hashing, wire encoding, statistics."""

from repro.utils.hashing import (
    DerivedHasher,
    sha256,
    short_id,
)
from repro.utils.siphash import siphash24
from repro.utils.serialization import (
    compact_size,
    compact_size_len,
    read_compact_size,
)
from repro.utils.stats import (
    chernoff_delta,
    wilson_interval,
)

__all__ = [
    "DerivedHasher",
    "sha256",
    "short_id",
    "siphash24",
    "compact_size",
    "compact_size_len",
    "read_compact_size",
    "chernoff_delta",
    "wilson_interval",
]
