"""UTC timestamp helpers.

All simulator timestamps are integer seconds since the Unix epoch, UTC.
The paper's snapshot cadence (quarterly: 15th 8am, 15th 4pm, 16th 8am,
22nd 8am of Jan/Apr/Jul/Oct) is encoded here so analyses and benches
share one definition.
"""

from __future__ import annotations

import calendar
from datetime import datetime, timezone
from typing import Tuple

HOUR = 3600
DAY = 24 * HOUR
WEEK = 7 * DAY

#: Months in which the paper takes quarterly snapshots.
QUARTER_MONTHS = (1, 4, 7, 10)

#: (day, hour) offsets of the four snapshots within a quarter month.
QUARTER_SNAPSHOT_OFFSETS: Tuple[Tuple[int, int], ...] = (
    (15, 8),
    (15, 16),
    (16, 8),
    (22, 8),
)


def utc_timestamp(year: int, month: int = 1, day: int = 1, hour: int = 0,
                  minute: int = 0, second: int = 0) -> int:
    """Epoch seconds for a UTC wall-clock time."""
    return calendar.timegm((year, month, day, hour, minute, second, 0, 0, 0))


def parse_utc(text: str) -> int:
    """Parse ``"YYYY-MM-DD"`` or ``"YYYY-MM-DD HH:MM"`` as UTC."""
    for fmt in ("%Y-%m-%d %H:%M:%S", "%Y-%m-%d %H:%M", "%Y-%m-%d"):
        try:
            parsed = datetime.strptime(text, fmt)
        except ValueError:
            continue
        return int(parsed.replace(tzinfo=timezone.utc).timestamp())
    raise ValueError(f"unrecognised UTC datetime {text!r}")


def year_fraction(timestamp: int) -> float:
    """Timestamp as a fractional year, e.g. mid-2014 -> ~2014.5."""
    moment = datetime.fromtimestamp(timestamp, tz=timezone.utc)
    start = utc_timestamp(moment.year)
    end = utc_timestamp(moment.year + 1)
    return moment.year + (timestamp - start) / (end - start)


def quarter_start(timestamp: int) -> int:
    """Timestamp of the first instant of the containing calendar quarter."""
    moment = datetime.fromtimestamp(timestamp, tz=timezone.utc)
    month = QUARTER_MONTHS[(moment.month - 1) // 3]
    return utc_timestamp(moment.year, month, 1)
