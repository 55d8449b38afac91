"""Tests for UTC date helpers."""

import pytest

from repro.engine.jobs import suite_times
from repro.util.dates import (
    DAY,
    HOUR,
    WEEK,
    parse_utc,
    quarter_start,
    utc_timestamp,
    year_fraction,
)


class TestTimestamps:
    def test_epoch(self):
        assert utc_timestamp(1970, 1, 1) == 0

    def test_known_instant(self):
        # 2004-01-15 08:00 UTC
        assert utc_timestamp(2004, 1, 15, 8) == 1074153600

    def test_parse_variants(self):
        assert parse_utc("2004-01-15") == utc_timestamp(2004, 1, 15)
        assert parse_utc("2004-01-15 08:00") == utc_timestamp(2004, 1, 15, 8)
        assert parse_utc("2004-01-15 08:00:30") == utc_timestamp(2004, 1, 15, 8, 0, 30)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_utc("yesterday")

    def test_constants(self):
        assert DAY == 24 * HOUR
        assert WEEK == 7 * DAY


class TestYearFraction:
    def test_start_of_year(self):
        assert year_fraction(utc_timestamp(2010, 1, 1)) == pytest.approx(2010.0)

    def test_midyear(self):
        assert year_fraction(utc_timestamp(2010, 7, 2)) == pytest.approx(2010.5, abs=0.01)


class TestQuarters:
    def test_snapshot_cadence(self):
        january = suite_times(2004, 1, True)
        assert january == (
            utc_timestamp(2004, 1, 15, 8),
            utc_timestamp(2004, 1, 15, 16),
            utc_timestamp(2004, 1, 16, 8),
            utc_timestamp(2004, 1, 22, 8),
        )

    def test_quarter_start(self):
        assert quarter_start(utc_timestamp(2010, 2, 20)) == utc_timestamp(2010, 1, 1)
        assert quarter_start(utc_timestamp(2010, 12, 31)) == utc_timestamp(2010, 10, 1)
