"""Dirty-set economy of the live ``AtomIndex``.

``repro live`` keeps one ``AtomIndex`` current over an update replay
and, at each window boundary, recomputes keys only for the prefixes
the window touched.  That pays only while the dirty set stays a small
share of the table, so this benchmark replays a ``repro simulate
--update-hours`` archive through ``LivePipeline`` with window parity on
(every boundary also proves the index equals a cold ``compute_atoms``)
and asserts that the mean per-window dirty set is at most a third of
the mean visible prefixes.  Timing is never asserted.
"""

from itertools import chain

from repro.cli import main
from repro.stream.archive import RecordArchive
from repro.stream.bgpstream import BGPStream
from repro.stream.live import LiveConfig, LivePipeline


def test_live_dirty_set_economy(tmp_path):
    archive_dir = tmp_path / "archive"
    assert main(["simulate", "--scale", "2000", "--update-hours", "4",
                 "--archive", str(archive_dir)]) == 0
    archive = RecordArchive(archive_dir)
    records = chain(
        BGPStream(archive, record_type="rib").records(),
        BGPStream(archive, record_type="update").records(),
    )
    run = LivePipeline(records, LiveConfig(parity="window")).run()

    windows = run.windows
    assert windows and run.parity_checks == len(windows)
    dirty_mean = sum(w.dirty for w in windows) / len(windows)
    prefix_mean = sum(w.prefixes for w in windows) / len(windows)
    print(f"\nlive replay: {len(windows)} windows, mean dirty set "
          f"{dirty_mean:.1f} of {prefix_mean:.1f} visible prefixes")
    assert dirty_mean * 3 <= prefix_mean
