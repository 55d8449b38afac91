"""A pybgpstream-shaped query API.

The paper's pipeline consumes BGP data through BGPStream; this class
reproduces the interface over either a :class:`RecordArchive` on disk
or a live :class:`~repro.simulation.scenario.SimulatedInternet`, so
analysis code is one ``data_source=`` away from running on real data.

Typical use::

    stream = BGPStream(
        source,
        record_type="rib",
        from_time="2024-10-15 08:00",
        until_time="2024-10-15 08:00",
        collectors=["rrc00"],
    )
    for record in stream.records():
        ...
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Union

from repro.bgp.messages import RouteRecord
from repro.net.prefix import AF_INET
from repro.obs import traced_records
from repro.stream.archive import RecordArchive
from repro.util.dates import parse_utc

TimeLike = Union[int, str]


def _as_timestamp(when: Optional[TimeLike]) -> Optional[int]:
    if when is None:
        return None
    return parse_utc(when) if isinstance(when, str) else int(when)


class BGPStream:
    """Iterate route records from an archive or a simulator.

    Parameters mirror pybgpstream: ``record_type`` ("rib"/"update"),
    ``from_time``/``until_time`` (inclusive), plus optional project and
    collector filters.  ``family`` selects IPv4 or IPv6 when the source
    is a simulator (archives already store what was rendered).
    """

    def __init__(
        self,
        source,
        record_type: str = "rib",
        from_time: Optional[TimeLike] = None,
        until_time: Optional[TimeLike] = None,
        project: Optional[str] = None,
        collectors: Optional[Sequence[str]] = None,
        family: int = AF_INET,
    ):
        if record_type not in ("rib", "update"):
            raise ValueError(f"unknown record type {record_type!r}")
        self.source = source
        self.record_type = record_type
        self.from_time = _as_timestamp(from_time)
        self.until_time = _as_timestamp(until_time)
        self.project = project
        self.collectors = set(collectors) if collectors else None
        self.family = family

    # ------------------------------------------------------------------

    def _matches(self, record: RouteRecord) -> bool:
        if self.project and record.project != self.project:
            return False
        if self.collectors and record.collector not in self.collectors:
            return False
        return True

    def _from_archive(self, archive: RecordArchive) -> Iterator[RouteRecord]:
        for record in archive.records(
            project=self.project,
            record_type=self.record_type,
            from_time=self.from_time,
            until_time=self.until_time,
        ):
            if self._matches(record):
                yield record

    def _from_simulator(self, simulator) -> Iterator[RouteRecord]:
        if self.from_time is None:
            raise ValueError("from_time is required when reading a simulator")
        if self.record_type == "rib":
            for record in simulator.rib_records(self.from_time, family=self.family):
                if self._matches(record):
                    yield record
        else:
            until = self.until_time
            if until is None:
                raise ValueError("until_time is required for update streams")
            if until <= self.from_time:
                return  # a simulated window under 1 s holds no updates
            hours = (until - self.from_time) / 3600.0
            for record in simulator.update_records(
                self.from_time, hours=hours, family=self.family
            ):
                if self._matches(record):
                    yield record

    def records(self) -> Iterator[RouteRecord]:
        """Stream matching records (a traced ``mrt-decode`` stage)."""
        if isinstance(self.source, RecordArchive):
            yield from traced_records(
                self._from_archive(self.source), source="archive"
            )
        elif hasattr(self.source, "rib_records"):
            yield from traced_records(
                self._from_simulator(self.source), source="simulated"
            )
        else:
            raise TypeError(
                f"unsupported source {type(self.source).__name__}; "
                "expected RecordArchive or SimulatedInternet"
            )

    def elements(self) -> Iterator[tuple]:
        """Stream (record, element) pairs, pybgpstream-style."""
        for record in self.records():
            for element in record.elements:
                yield record, element

    def __iter__(self) -> Iterator[RouteRecord]:
        return self.records()
