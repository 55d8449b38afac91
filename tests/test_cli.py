"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


COMMON = ["--scale", "400", "--peer-scale", "0.03", "--seed", "5"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_requires_archive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate"])

    def test_family_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["atoms", "--family", "5"])

    def test_live_rejects_negative_store_merge_every(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                ["live", "--archive", "a", "--store-merge-every", "-1"]
            )
        assert exit_info.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value, message", [
        ("--mrai", "-5", "must be a finite number >= 0"),
        ("--mrai", "nan", "must be a finite number >= 0"),
        ("--mrai", "inf", "must be a finite number >= 0"),
        ("--snapshot-at", "-30", "must be a finite number >= 0"),
        ("--snapshot-at", "nan", "must be a finite number >= 0"),
        ("--max-events", "-3", "must be >= 0"),
    ])
    def test_converge_rejects_inputs_it_cannot_honour(
            self, capsys, option, value, message):
        with pytest.raises(SystemExit) as exit_info:
            main(["converge", option, value] + COMMON)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: {message}" in err

    @pytest.mark.parametrize("command, option, value, message", [
        ("trend", "--scale", "0", "must be >= 1"),
        ("trend", "--scale", "-5", "must be >= 1"),
        ("trend", "--step", "0", "must be >= 1"),
        ("trend", "--step", "-1", "must be >= 1"),
        ("trend", "--peer-scale", "nan", "must be a finite number >= 0"),
        ("trend", "--peer-scale", "-1", "must be a finite number >= 0"),
        ("atoms", "--scale", "0", "must be >= 1"),
        ("converge", "--peer-scale", "inf", "must be a finite number >= 0"),
        ("simulate", "--update-hours", "nan", "must be a finite number >= 0"),
        ("simulate", "--update-hours", "-3", "must be a finite number >= 0"),
        ("simulate", "--update-hours", "inf", "must be a finite number >= 0"),
        ("simulate", "--update-hours", "0.0002", "a 0.0002 h window rounds to 0 s"),
        ("simulate", "--update-hours", "1e306",
         "a 1e+306 h window ends after 4294967295"),
    ])
    def test_sweep_inputs_rejected(self, tmp_path, capsys, command, option,
                                   value, message):
        argv = [command] + COMMON + [option, value]
        if command == "simulate":
            argv += ["--archive", str(tmp_path / "archive")]
        if command == "trend":
            argv += ["--first-year", "2006", "--last-year", "2006",
                     "--no-stability"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"argument {option}: {message}" in capsys.readouterr().err
        if command == "simulate":
            assert not (tmp_path / "archive").exists()

    @pytest.mark.parametrize("command", [["trend"], ["store", "build", "s"]])
    def test_year_range_must_not_run_backwards(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main(command + COMMON + ["--first-year", "2010",
                                     "--last-year", "2005"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--first-year 2010 is after --last-year 2005" in err

    @pytest.mark.parametrize(
        "command", [["atoms"], ["trend"], ["store", "build", "s"]]
    )
    def test_incremental_flag_is_gone(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(command + ["--incremental"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --incremental" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["trend"], ["store", "build", "s"]])
    def test_checkpoint_flag_is_gone(self, capsys, command):
        """A sweep resumes through ``--cache-dir``; the log is gone."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(command + ["--checkpoint", "F"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --checkpoint F" in (
            capsys.readouterr().err
        )


class TestCommands:
    def test_atoms_from_simulation(self, capsys):
        code = main(["atoms", "--start", "2010-01-15 08:00"] + COMMON)
        out = capsys.readouterr().out
        assert code == 0
        assert "Policy atom statistics" in out
        assert "Number of atoms" in out

    def test_atoms_with_formation(self, capsys):
        code = main(
            ["atoms", "--start", "2010-01-15 08:00", "--formation"] + COMMON
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Formation distance" in out

    def test_simulate_then_atoms_roundtrip(self, tmp_path, capsys):
        archive = tmp_path / "arch"
        code = main(
            ["simulate", "--start", "2010-01-15 08:00", "--archive", str(archive),
             "--update-hours", "1"] + COMMON
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "RIB dump files" in out and "update dump files" in out

        code = main(["atoms", "--archive", str(archive)] + COMMON)
        out = capsys.readouterr().out
        assert code == 0
        assert str(archive) in out

    def test_trend(self, capsys):
        code = main(
            ["trend", "--first-year", "2006", "--last-year", "2008",
             "--step", "2", "--no-stability"] + COMMON
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Longitudinal atom trend" in out
        assert "2006" in out and "2008" in out

    def test_v6_atoms(self, capsys):
        code = main(
            ["atoms", "--start", "2020-01-15 08:00", "--family", "6"] + COMMON
        )
        assert code == 0
        assert "Policy atom statistics" in capsys.readouterr().out


class TestEngineFlags:
    TREND = ["trend", "--first-year", "2006", "--last-year", "2007",
             "--step", "1", "--no-stability"] + COMMON

    def test_parser_accepts_engine_flags(self):
        args = build_parser().parse_args(
            self.TREND + ["--jobs", "4", "--progress", "--cache-dir", "/tmp/c"]
        )
        assert args.jobs == 4 and args.progress
        assert str(args.cache_dir) == "/tmp/c"

    def test_jobs_default_is_serial(self):
        args = build_parser().parse_args(self.TREND)
        assert args.jobs == 1 and not args.progress
        assert args.cache_dir is None

    def test_trend_parallel_matches_serial_output(self, capsys):
        assert main(self.TREND) == 0
        serial = capsys.readouterr().out
        assert main(self.TREND + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_trend_with_cache_and_progress(self, tmp_path, capsys):
        argv = self.TREND + ["--cache-dir", str(tmp_path), "--progress"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "2 computed" in first.err and "0 cache hits" in first.err

        assert main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out  # cached rerun prints the same table
        assert "2 cache hits" in second.err
        assert "100% reuse" in second.err

    def test_atoms_accepts_jobs_flag(self, capsys):
        code = main(
            ["atoms", "--start", "2010-01-15 08:00", "--jobs", "2"] + COMMON
        )
        assert code == 0
        assert "Policy atom statistics" in capsys.readouterr().out

    def test_trend_checkpoint_written(self, tmp_path, capsys):
        """``--cache-dir`` keeps one entry per finished quarter."""
        from repro.engine.cache import ResultCache

        assert main(self.TREND + ["--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert len(ResultCache(tmp_path)) == 2

    def test_killed_trend_resumes_from_the_cache(self, tmp_path, capsys):
        """A rerun after a partial sweep prints the uncached table and
        answers the finished quarter from the cache."""
        assert main(self.TREND) == 0
        uncached = capsys.readouterr().out
        cache = ["--cache-dir", str(tmp_path), "--progress"]
        partial = self.TREND[:]
        partial[partial.index("--last-year") + 1] = "2006"
        assert main(partial + cache) == 0
        capsys.readouterr()

        assert main(self.TREND + cache) == 0
        resumed = capsys.readouterr()
        assert resumed.out == uncached
        assert "[engine] 2006-01: cache (0.00s, " in resumed.err
        assert "[engine] 2007-01: computed (" in resumed.err
        summary = resumed.err.splitlines()[-1]
        assert summary.startswith("2 jobs: 1 computed, 1 cache hits (50% reuse)")
        assert "resumed" not in resumed.err

    def test_progress_summary_is_read_from_the_trace(self, tmp_path, capsys):
        """With ``--trace`` the summary reads the exported tracer; without
        it a private tracer is installed and removed again."""
        from repro.obs import NULL_TRACER, get_tracer, load_trace

        trace = tmp_path / "t.jsonl"
        assert main(self.TREND + ["--progress", "--trace", str(trace)]) == 0
        traced = capsys.readouterr().err.splitlines()[-1]
        assert traced.startswith("2 jobs: 2 computed, 0 cache hits (0% reuse)")
        counters = load_trace(trace).counters
        assert f"| {counters['engine.records']:,} records |" in traced

        assert main(self.TREND + ["--progress"]) == 0
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            "2 jobs: 2 computed"
        )
        assert get_tracer() is NULL_TRACER


class TestStoreErrorExits:
    """Missing or corrupt stores exit 2 with one line — no traceback.

    ``repro store query`` and ``repro serve`` both open the store up
    front; every StoreError must surface as a single ``store error:``
    stderr line and exit code 2.
    """

    def _corrupt_store(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        (root / "manifest.json").write_text("{ not json", encoding="utf-8")
        return root

    def test_store_query_missing_store(self, tmp_path, capsys):
        code = main(
            ["store", "query", str(tmp_path / "nowhere"), "10.0.0.0/8"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("store error:")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_store_query_corrupt_store(self, tmp_path, capsys):
        code = main(
            ["store", "query", str(self._corrupt_store(tmp_path)),
             "10.0.0.0/8"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("store error:")
        assert len(captured.err.strip().splitlines()) == 1

    def test_serve_missing_store(self, tmp_path, capsys):
        code = main(["serve", str(tmp_path / "nowhere")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("store error:")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_serve_corrupt_store(self, tmp_path, capsys):
        code = main(["serve", str(self._corrupt_store(tmp_path))])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("store error:")
        assert len(captured.err.strip().splitlines()) == 1

    def test_store_info_missing_store(self, tmp_path, capsys):
        code = main(["store", "info", str(tmp_path / "nowhere")])
        assert code == 2
        assert capsys.readouterr().err.startswith("store error:")

    @pytest.mark.parametrize("prefix", ["10.0.0.0/33", "garbage", "::/129"])
    def test_store_query_rejects_malformed_prefix(self, capsys, prefix):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["store", "query", "s", prefix])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument prefix: " in err
        assert "Traceback" not in err

    def test_store_query_passes_prefix_text_verbatim(self):
        args = build_parser().parse_args(["store", "query", "s", "1.2.3.4"])
        assert args.prefix == "1.2.3.4"

    def test_serve_parser_accepts_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "/tmp/store", "--host", "0.0.0.0", "--port", "9000",
             "--cache-entries", "16", "--check"]
        )
        assert args.host == "0.0.0.0"
        assert args.port == 9000
        assert args.cache_entries == 16
        assert args.check is True


class TestLiveCheckpointErrorExits:
    """A checkpoint ``repro live`` cannot resume exits 2 with one
    ``checkpoint error:`` line — no traceback."""

    def _killed_run(self, tmp_path):
        from repro.stream.archive import RecordArchive
        from tests.stream.test_live import full_stream

        archive = tmp_path / "archive"
        RecordArchive(archive).write_dump(full_stream())
        ckpt = tmp_path / "ckpt"
        argv = ["live", "--archive", str(archive), "--window", "100",
                "--checkpoint-dir", str(ckpt)]
        assert main(argv + ["--max-windows", "1"]) == 0
        return argv, ckpt

    def _assert_one_line(self, capsys, argv, fragment):
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("checkpoint error:")
        assert len(err.strip().splitlines()) == 1
        assert fragment in err

    def test_config_mismatch(self, tmp_path, capsys):
        argv, _ = self._killed_run(tmp_path)
        argv[argv.index("--window") + 1] = "60"
        self._assert_one_line(capsys, argv, "different live configuration")

    def test_corrupt_state_file(self, tmp_path, capsys):
        argv, ckpt = self._killed_run(tmp_path)
        (ckpt / "state.json").write_text("{not json", encoding="utf-8")
        self._assert_one_line(capsys, argv, "corrupt checkpoint state")

    def test_version_1_checkpoint_directory(self, tmp_path, capsys):
        import json

        argv, ckpt = self._killed_run(tmp_path)
        state = json.loads((ckpt / "state.json").read_text())
        state.update(version=1, rib_file="rib-00000001.jsonl.gz")
        (ckpt / "state.json").write_text(json.dumps(state))
        (ckpt / "rib-00000001.jsonl.gz").write_bytes(b"")
        self._assert_one_line(capsys, argv, "checkpoint version 1 ")


@pytest.mark.parametrize("command", [["atoms"] + COMMON, ["live"]])
def test_missing_archive_exits_2_and_creates_nothing(tmp_path, capsys, command):
    """``--archive`` at a path that does not exist is one error line."""
    missing = tmp_path / "typo"
    code = main(command + ["--archive", str(missing)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"archive error: no archive at {missing}\n"
    assert captured.out == ""
    assert not missing.exists()


def test_profile_malformed_trace_exits_2(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    trace.write_text('{"type": "meta", "version": 1}\n[1, 2]\n')
    assert main(["profile", str(trace)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "cannot read trace: line 2: expected an object, got list\n"
    )
    assert captured.out == ""


def test_live_progress_starts_no_tracer(tmp_path, capsys, monkeypatch):
    """``repro live --progress`` narrates windows without tracing."""
    import repro.cli
    from repro.stream.archive import RecordArchive
    from tests.stream.test_live import full_stream

    archive = tmp_path / "archive"
    RecordArchive(archive).write_dump(full_stream())

    def no_tracer():
        raise AssertionError("repro live --progress started a tracer")

    monkeypatch.setattr(repro.cli, "Tracer", no_tracer)
    argv = ["live", "--archive", str(archive), "--window", "100", "--progress"]
    assert main(argv) == 0
    assert " closed @ " in capsys.readouterr().err


class TestConverge:
    """``repro converge`` runs the event engine end to end."""

    ARGS = ["converge", "--start", "2004-01-15"] + COMMON

    def test_parser_defaults(self):
        args = build_parser().parse_args(["converge"])
        assert args.scenario == "quiet"
        assert args.mrai == 30.0
        assert args.parity is True
        assert args.snapshot_at is None

    def test_no_parity_flag(self):
        args = build_parser().parse_args(["converge", "--no-parity"])
        assert args.parity is False

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["converge", "--scenario", "nope"])

    def test_quiet_scenario_reaches_parity(self, capsys):
        code = main(self.ARGS)
        out = capsys.readouterr().out
        assert code == 0
        assert "quiescence parity ok" in out

    def test_flap_storm_with_snapshots(self, capsys):
        code = main(
            self.ARGS + ["--scenario", "flap-storm", "--snapshot-at", "120"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "flap-storm:" in out
        assert "snapshot at t+120s" in out
        assert "quiescence parity ok" in out

    def test_max_events_budget(self, capsys):
        code = main(
            self.ARGS + ["--scenario", "flap-storm", "--max-events", "3"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("converge error:")

    def test_archive_feeds_live(self, tmp_path, capsys):
        archive = tmp_path / "conv"
        code = main(
            self.ARGS
            + ["--scenario", "flap-storm", "--archive", str(archive)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "archived" in out and "update record(s)" in out

        code = main(
            ["live", "--archive", str(archive), "--window", "60",
             "--parity", "off"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Live window metrics" in out

    def test_trace_has_sim_counters(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        code = main(self.ARGS + ["--trace", str(trace)])
        capsys.readouterr()
        assert code == 0
        counters = {
            record["name"]: record["value"]
            for record in map(json.loads, trace.read_text().splitlines())
            if record.get("type") == "counter"
        }
        assert counters.get("sim.routers", 0) > 0
        assert counters.get("sim.events", 0) > 0
        assert counters.get("sim.messages", 0) > 0
