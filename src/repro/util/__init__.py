"""Shared utilities: errors, seeded RNG, timing, validation helpers.

Every subsystem in :mod:`repro` builds on this package.  It deliberately
contains no genomics- or visualization-specific logic so it can be reused
freely without import cycles.
"""

from repro.util.errors import (
    ReproError,
    DataFormatError,
    ValidationError,
    CommunicationError,
)
from repro.util.lru import LruCache
from repro.util.rng import default_rng, spawn_rngs
from repro.util.timing import Stopwatch
from repro.util.validation import (
    require,
    require_positive,
    require_in_range,
    require_shape,
    require_same_length,
)
from repro.util.formatting import human_bytes, human_count, format_table

__all__ = [
    "ReproError",
    "DataFormatError",
    "ValidationError",
    "CommunicationError",
    "LruCache",
    "default_rng",
    "spawn_rngs",
    "Stopwatch",
    "require",
    "require_positive",
    "require_in_range",
    "require_shape",
    "require_same_length",
    "human_bytes",
    "human_count",
    "format_table",
]
