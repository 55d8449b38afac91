"""The live window's ``Pr_full`` against §3.3's full correlation.

``window_correlation`` reads the entering partition's own prefix index
and pools atom-level hits; the oracle here is the sweep's
``update_correlation`` with its atom-level counts pooled over all
sizes (:func:`overall_pr_full`).  The two must agree on every input.
"""

from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.attributes import PathAttributes
from repro.bgp.messages import ElementType, RouteElement, RouteRecord
from repro.core.atoms import AtomSet
from repro.core.update_correlation import (
    GROUP_ATOM,
    UpdateCorrelation,
    update_correlation,
)
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.stream import live
from repro.stream.live import LiveConfig, LivePipeline
from repro.stream.windows import window_correlation
from tests.core.test_update_correlation_properties import (
    PREFIXES,
    atoms_from_labels,
    labelings,
)
from tests.stream.test_live import PEERS, W, full_stream, update_record

#: Prefixes no atom of the generated partitions holds.
OUTSIDE = [Prefix.parse(f"172.16.{i}.0/24") for i in range(2)]

MAX_SIZES = [None, 1, 2, 7]


def overall_pr_full(
    correlation: UpdateCorrelation, kind: str = GROUP_ATOM
) -> Optional[float]:
    """Aggregate ``Pr_full`` across all sizes of one group kind.

    Full and partial appearances are pooled over every group of
    ``kind`` observed; None when no group was touched at all.
    """
    n_all = 0
    n_total = 0
    for counts in correlation.groups.get(kind, {}).values():
        n_all += counts.n_all
        n_total += counts.n_all + counts.n_partial
    if n_total == 0:
        return None
    return n_all / n_total


def oracle(atoms, records, max_size):
    return overall_pr_full(update_correlation(atoms, records, max_size=max_size))


def record(record_type, timestamp, cells):
    """One record over ``cells``: (prefix, withdrawn) pairs."""
    attributes = PathAttributes(ASPath.from_asns([1, 9]))
    if record_type == "rib":
        elements = [
            RouteElement(ElementType.RIB, prefix, attributes)
            for prefix, _ in cells
        ]
    else:
        elements = [
            RouteElement(ElementType.WITHDRAWAL, prefix)
            if withdrawn
            else RouteElement(ElementType.ANNOUNCEMENT, prefix, attributes)
            for prefix, withdrawn in cells
        ]
    return RouteRecord(
        record_type, "ris", "rrc00", 1, "10.0.0.1", timestamp, elements
    )


cells = st.lists(
    st.tuples(st.sampled_from(PREFIXES + OUTSIDE), st.booleans()),
    min_size=1,
    max_size=8,
)
record_specs = st.lists(
    st.tuples(st.sampled_from(["update"] * 5 + ["rib"]), cells),
    max_size=12,
)


@given(labelings, record_specs, st.sampled_from(MAX_SIZES))
@settings(max_examples=150, deadline=None)
def test_equals_the_full_correlation(labels, specs, max_size):
    atoms = atoms_from_labels(labels)
    records = [
        record(record_type, timestamp, chosen)
        for timestamp, (record_type, chosen) in enumerate(specs)
    ]
    assert window_correlation(atoms, records, max_size=max_size) == oracle(
        atoms, records, max_size
    )


def whole_atom_stream():
    """``full_stream()`` plus one record carrying a whole atom, so a
    window also sees a full hit."""
    stream = full_stream()
    stream.insert(5, update_record(PEERS[2], 160, announced=[
        ("10.0.3.0/24", "3 6 8"), ("10.0.4.0/24", "3 6 8"),
        ("10.0.6.0/24", "3 6 8"),
    ]))
    return stream


@pytest.mark.parametrize("max_size", MAX_SIZES)
@pytest.mark.parametrize("stream, uncapped", [
    (full_stream, [0.0, 0.0, 0.0]),
    (whole_atom_stream, [1 / 3, 0.0, 0.0]),
])
def test_every_live_window_equals_the_oracle(
    monkeypatch, stream, uncapped, max_size
):
    """Each window's reported value is the oracle's over exactly the
    partition and records the pipeline handed over."""
    calls = []

    def spy(atoms, records, max_size=None):
        records = list(records)
        value = window_correlation(atoms, records, max_size=max_size)
        calls.append((value, oracle(atoms, records, max_size), len(records)))
        return value

    monkeypatch.setattr(live, "window_correlation", spy)
    run = LivePipeline(
        stream(), LiveConfig(window_seconds=W, correlation_max_size=max_size)
    ).run()
    assert len(calls) == len(run.windows) == 3
    for window, (value, expected, records) in zip(run.windows, calls):
        assert records == window.records
        assert value == expected
        assert window.pr_full == expected
    if max_size is None:
        assert [window.pr_full for window in run.windows] == uncapped


def test_a_live_replay_builds_no_origin_groups(monkeypatch):
    grouped = []
    by_origin = AtomSet.atoms_by_origin

    def spy(self):
        grouped.append(self)
        return by_origin(self)

    monkeypatch.setattr(AtomSet, "atoms_by_origin", spy)
    run = LivePipeline(whole_atom_stream(), LiveConfig(window_seconds=W)).run()
    assert [window.pr_full for window in run.windows] == [1 / 3, 0.0, 0.0]
    assert grouped == []
