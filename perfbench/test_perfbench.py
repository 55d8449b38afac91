"""Self-test of the benchmark: every workload at reduced scale, and each
check shown to catch a planted error.

    python3 -m pytest perfbench -q

The workloads run through ``perfbench/run.py --smoke`` exactly as the
benchmark command runs them, only on smaller inputs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, workloads  # noqa: E402
from perfbench.layers import TARGETS, SpanRecorder, install  # noqa: E402


def _run(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_and_checks(workload, trace):
    result = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--smoke")
    assert result["correct"] is True
    assert result["attempted"] >= 2
    if workload == "live":
        # The known fault: window buckets fail, the partition check of
        # each replay passes.
        assert 0 < result["failed"] < result["attempted"]
    else:
        assert result["failed"] == 0
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
    if trace == "0":
        assert set(result["metrics"]) == {"setup_s", "peak_rss_mb", "op_s"}
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_failed_share_is_independent_of_seed_and_length():
    shares = set()
    for seed, seconds in (("1", "1"), ("2", "3")):
        result = _run("--workload", "live", "--seed", seed,
                      "--seconds", seconds, "--smoke")
        shares.add(result["failed"] / result["attempted"])
    assert len(shares) == 1


def test_missing_source_exits_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_every_layer_target_resolves():
    import repro.cli  # noqa: F401

    installation = install(SpanRecorder())
    try:
        assert installation.missing == []
    finally:
        installation.remove()
    assert len(TARGETS) == len({(m, p) for m, p, _, _ in TARGETS})


def test_self_time_excludes_wrapped_children():
    recorder = SpanRecorder()
    outer = recorder.open("a")
    inner = recorder.open("b")
    recorder.close(inner)
    recorder.close(outer)
    recorder.spans[outer][1:3] = [0.0, 10.0]
    recorder.spans[inner][1:3] = [2.0, 5.0]
    assert recorder.self_times() == {"a": 7.0, "b": 3.0}


# ----------------------------------------------------------------------
# planted errors
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep_store(tmp_path_factory):
    work = tmp_path_factory.mktemp("sweep")
    sweep = workloads.SweepWorkload(5, work, workloads.SMOKE)
    output = sweep.operation(sweep.setup())
    return output


def test_corrupted_atom_partition_is_caught(sweep_store):
    from repro.store import AtomStore

    with AtomStore(sweep_store["store"]) as store:
        entry = store.snapshots()[-1]
        rows = checks.store_rows(store, entry.key)
    assert checks.partition_problems(
        entry.key, rows, entry.prefixes, entry.atom_count) == []
    ids = sorted({row[1] for row in rows})
    assert len(ids) >= 2
    # Move one prefix into another atom: its path column no longer
    # matches its atom's.
    prefix, atom_id, vector = rows[0]
    other = next(i for i in ids if i != atom_id)
    planted = [(prefix, other, vector)] + rows[1:]
    assert checks.partition_problems(
        entry.key, planted, entry.prefixes, entry.atom_count)
    # Merge two atoms outright: the manifest count disagrees too.
    merged = [(p, ids[0] if a == ids[1] else a, v) for p, a, v in rows]
    assert checks.partition_problems(
        entry.key, merged, entry.prefixes, entry.atom_count)


def test_wrong_trend_rows_are_caught(sweep_store):
    import dataclasses

    results = sweep_store["results"]
    counts = {
        f"{int(r.year)}-01": (r.stats.n_prefixes, r.stats.n_atoms)
        for r in results
    }
    assert checks.sweep_result_problems(results, counts) == [[]] * len(results)
    bad = dataclasses.replace(
        results[0], formation_shares={1: 0.5, 2: 0.4})
    rows = checks.sweep_result_problems([bad] + results[1:], counts)
    assert rows[0] and not any(rows[1:])
    off = dict(counts)
    first = next(iter(off))
    off[first] = (off[first][0] + 1, off[first][1])
    assert checks.sweep_result_problems(results, off)[0]
    assert checks.sweep_result_problems(results[1:], counts)[-1]


def test_sweep_verify_counts_failed_snapshots_and_rows(sweep_store, tmp_path,
                                                        monkeypatch):
    import dataclasses

    clean = workloads.SweepWorkload(5, tmp_path, workloads.SMOKE)
    verdict = clean.verify(sweep_store)
    snapshots = 4 * len(workloads.SMOKE.sweep_years)
    assert verdict.attempted == snapshots + len(workloads.SMOKE.sweep_years)
    assert (verdict.failed, verdict.problems) == (0, [])

    # A corrupted partition in one snapshot of the checked repetition:
    # that snapshot fails, and fails again in every later repetition.
    planted = workloads.SweepWorkload(5, tmp_path, workloads.SMOKE)
    original = checks.store_rows
    target = None

    def store_rows(store, key):
        rows = original(store, key)
        nonlocal target
        if target is None and len({row[1] for row in rows}) >= 2:
            target = key
            other = next(r[1] for r in rows if r[1] != rows[0][1])
            rows = [(rows[0][0], other, rows[0][2])] + rows[1:]
        return rows

    monkeypatch.setattr(checks, "store_rows", store_rows)
    first = planted.verify(sweep_store)
    monkeypatch.setattr(checks, "store_rows", original)
    assert first.failed == 1 and first.problems
    again = planted.verify(sweep_store)
    assert (again.failed, again.problems) == (1, [])

    # A later repetition whose trend row differs from the first's.
    changed = dict(sweep_store)
    changed["results"] = [dataclasses.replace(
        sweep_store["results"][0], formation_shares={1: 1.0})
    ] + sweep_store["results"][1:]
    differs = clean.verify(changed)
    assert differs.failed == 1 and differs.problems


def test_wrong_response_body_is_caught(sweep_store):
    from repro.serve.http import encode_body
    from repro.serve.service import AtomQueryService
    from repro.store import AtomStore

    with AtomStore(sweep_store["store"]) as store:
        atom_sets = {entry.key: store.atoms(entry.key)
                     for entry in store.snapshots()}
        index = checks.prefix_index(atom_sets)
        service = AtomQueryService(store)
        key = next(iter(atom_sets))
        atom = atom_sets[key].atoms[0]
        cidr = str(sorted(atom.prefixes, key=str)[0])
        cases = {
            ("prefix", key, cidr): service.prefix_query(cidr, snapshot=key),
            ("atom", key, "0"): service.atom_query(0, snapshot=key),
            ("stats",): service.stats(),
        }
        for request, payload in cases.items():
            body = encode_body(payload)
            assert checks.response_problems(
                request, 200, body, atom_sets, index) == []
            assert checks.response_problems(
                request, 500, body, atom_sets, index)
        wrong = json.loads(encode_body(cases[("prefix", key, cidr)]))
        wrong["atom"]["id"] += 1
        assert checks.response_problems(
            ("prefix", key, cidr), 200, json.dumps(wrong).encode(),
            atom_sets, index)
        wrong = json.loads(encode_body(cases[("atom", key, "0")]))
        wrong["atom"]["prefixes"] = wrong["atom"]["prefixes"][1:] + ["10.0.0.0/8"]
        assert checks.response_problems(
            ("atom", key, "0"), 200, json.dumps(wrong).encode(),
            atom_sets, index)
        wrong = json.loads(encode_body(cases[("stats",)]))
        wrong["snapshots"][0]["atoms"] += 1
        assert checks.response_problems(
            ("stats",), 200, json.dumps(wrong).encode(), atom_sets, index)


def _payload(service, request):
    if request[0] == "prefix":
        return service.prefix_query(request[2], snapshot=request[1])
    if request[0] == "atom":
        return service.atom_query(int(request[2]), snapshot=request[1])
    return service.stats()


def test_serve_verify_counts_failed_requests(sweep_store, tmp_path):
    from repro.serve.http import encode_body
    from repro.serve.service import AtomQueryService
    from repro.store import AtomStore

    with AtomStore(sweep_store["store"]) as store:
        atom_sets = {entry.key: store.atoms(entry.key)
                     for entry in store.snapshots()}
        requests = workloads.request_mix(atom_sets, 1, 40)
        service = AtomQueryService(store)
        bodies = [encode_body(_payload(service, r)) for r in requests]

    def serve_workload():
        serve = workloads.ServeWorkload(1, tmp_path, workloads.SMOKE, ROOT)
        serve.atom_sets, serve.requests = atom_sets, requests
        return serve

    right = {"results": [(200, body, 0.0) for body in bodies]}
    # The last response's body is another request's.
    other = next(b for b in bodies if b != bodies[-1])
    wrong = {"results": right["results"][:-1] + [(200, other, 0.0)]}

    serve = serve_workload()
    verdict = serve.verify(right)
    assert (verdict.attempted, verdict.failed, verdict.problems) == (40, 0, [])
    later = serve.verify(wrong)
    assert later.failed == 1 and later.problems
    # A wrong body in the checked pass fails in every later pass too.
    serve = serve_workload()
    first = serve.verify(wrong)
    assert first.failed == 1 and first.problems
    assert serve.verify(wrong).failed == 1


def test_wrong_window_count_is_caught():
    buckets = {10: 5, 11: 3, 13: 1}
    assert checks.window_failures(buckets, [(10, 5), (11, 3), (13, 1)]) == []
    assert len(checks.window_failures(buckets, [(10, 5), (11, 4), (13, 1)])) == 1
    assert len(checks.window_failures(buckets, [(10, 5), (13, 1)])) == 1
    assert len(checks.window_failures(buckets, [(10, 9)])) == 3


def test_live_replay_partition_and_known_fault(tmp_path):
    live = workloads.LiveWorkload(1, tmp_path, workloads.SMOKE)
    live.setup()
    output = live.operation()
    verdict = live.verify(output)
    assert verdict.problems == []
    # Records are read one collector after another, so no window
    # matches its bucket.
    assert verdict.failed == verdict.attempted - 1
    peers, expected = live._expected
    planted = dict(expected)
    group = next(iter(planted))
    planted[group] = tuple(reversed(planted[group]))
    run = output["run"]
    if len(set(planted[group])) > 1:
        assert checks.live_partition_problems(
            run.atoms, run.vantage_points, peers, planted)
    split = dict(expected)
    big = max(split, key=len)
    if len(big) > 1:
        vector = split.pop(big)
        members = sorted(big, key=str)
        split[frozenset(members[:1])] = vector
        split[frozenset(members[1:])] = vector
        assert checks.live_partition_problems(
            run.atoms, run.vantage_points, peers, split)


def test_valley_and_loop_paths_are_caught():
    from types import SimpleNamespace

    # 1 is the provider of 2 and 3; 2 and 3 peer; 4 is 3's customer.
    rel = {
        1: {2: -1, 3: -1},
        2: {1: 1, 3: 0},
        3: {1: 1, 2: 0, 4: -1},
        4: {3: 1},
    }

    def problems(router, path):
        routers = {router: SimpleNamespace(
            loc_rib={(0, 0): (SimpleNamespace(path=path), None)})}
        return checks.path_problems(routers, rel.get)

    assert problems(4, (3, 1, 2)) == []      # up, up, down
    assert problems(2, (3, 4)) == []         # peer, down
    assert problems(2, (3, 3, 4)) == []      # prepending is no loop
    assert problems(1, (2, 3, 4))            # down, then peer: a valley
    assert problems(2, (3, 1))               # peer, then up: a valley
    assert problems(2, (3, 4, 3))            # a loop
    assert problems(2, (4,))                 # not a link
