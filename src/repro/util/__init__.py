"""Shared utilities: UTC date handling, deterministic sub-seeding and
durable file writes (:mod:`repro.util.durable`)."""

from repro.util.dates import (
    HOUR,
    DAY,
    WEEK,
    parse_utc,
    quarterly_snapshot_times,
    utc_timestamp,
    year_fraction,
)
from repro.util.determinism import derive_rng, derive_seed

__all__ = [
    "DAY",
    "HOUR",
    "WEEK",
    "derive_rng",
    "derive_seed",
    "parse_utc",
    "quarterly_snapshot_times",
    "utc_timestamp",
    "year_fraction",
]
