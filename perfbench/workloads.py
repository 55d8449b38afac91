"""The four workloads: inputs, the timed operation, and its checks.

Each workload drives the program through the calls its CLI command
makes, with the CLI's default engine, exchange and shard settings:

* ``sweep``    — ``repro trend --store-dir`` (serial engine sweep);
* ``live``     — ``repro simulate --update-hours 8`` then ``repro live``;
* ``serve``    — ``repro trend --store-dir`` then ``repro serve``;
* ``converge`` — ``repro converge --scenario flap-storm``.

A workload object exposes ``setup()`` (input generation, timed as
``setup_s``), ``operation()`` (one timed repetition from fresh program
objects), ``verify(output)`` (attempted, failed, problems) and
``release(output)``.  A workload set up once per run also has
``teardown()``, which removes the previous set-up's server and files
before the next set-up is timed.  The repetition loop lives in
:mod:`perfbench.run`.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection
from itertools import chain
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.longitudinal import LongitudinalStudy
from repro.engine.jobs import clear_worker_state
from repro.engine.scheduler import ExecutionEngine
from repro.net.prefix import AF_INET
from repro.simulation.events import quiescence_parity
from repro.simulation.scenario import SimulatedInternet
from repro.store import AtomStore
from repro.stream.archive import RecordArchive
from repro.stream.bgpstream import BGPStream
from repro.stream.live import LiveConfig, LivePipeline
from repro.topology.evolution import WorldParams
from repro.util.dates import parse_utc

from perfbench import checks

clock = time.monotonic


@dataclass(frozen=True)
class Scale:
    """World and input sizes of one benchmark scale."""

    sweep_scale: int = 2000
    sweep_peer_scale: float = 0.015
    sweep_years: Tuple[int, ...] = tuple(range(2004, 2025, 5))
    live_scale: int = 1000
    live_peer_scale: float = 0.03
    live_hours: float = 8.0
    live_checkpoint_every: int = 4
    #: serve stores a sweep of the sweep workload's world over these years
    serve_years: Tuple[int, ...] = tuple(range(2004, 2025, 5))
    serve_requests: int = 2000
    converge_scale: int = 1200
    converge_peer_scale: float = 0.03
    #: times each once-per-run set-up is repeated (median reported)
    setups: int = 3


FULL = Scale()
SMOKE = Scale(
    sweep_scale=2500, sweep_years=(2004, 2014, 2024),
    live_scale=2500, live_hours=2.0, live_checkpoint_every=2,
    serve_years=(2004, 2014), serve_requests=200,
    converge_scale=2500, setups=1,
)

#: World seed of every workload (the CLI's default).  The simulated
#: Internet is fixed, as the paper's is: two world seeds differ in cost
#: by up to 76%, two converge days by 59% (the flapped units change)
#: and two sweep quarters by 17% in work, each more than a regression
#: bound.  ``--seed`` draws the serve workload's request sequence; the
#: live archive must not depend on it at all, because its window check
#: fails on a known fault and a failure count that moved with the seed
#: could not be compared between runs.
WORLD_SEED = 20250701
LIVE_START = "2016-01-15 08:00"
WINDOW_SECONDS = 900
CONVERGE_AT = "2016-01-15 00:00"
SCENARIO = "flap-storm"
#: Request mix of the serve workload: endpoint shares and Zipf exponent.
#: Both are assumptions, not measured traffic; README.md ("Inputs")
#: gives their origin and the hit ratio and pass time at neighbouring
#: values.
MIX = (("prefix", 0.70), ("atom", 0.25), ("stats", 0.05))
ZIPF_S = 0.6


def world_params(seed: int, scale: int, peer_scale: float,
                 collector_scale: float = 0.3) -> WorldParams:
    """``repro``'s CLI world (``_world_params``) at a given scale."""
    return WorldParams(
        seed=seed,
        as_scale=1.0 / scale,
        prefix_scale=1.0 / scale,
        peer_scale=peer_scale,
        collector_scale=collector_scale,
        min_fullfeed_peers=8,
    )


@dataclass
class Verdict:
    """What the checks made of one repetition's output."""

    attempted: int
    failed: int = 0
    #: correctness problems (a failed known-fault operation is not one)
    problems: List[str] = field(default_factory=list)


def _fresh_dir(parent: Path, name: str) -> Path:
    path = parent / name
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

class SweepWorkload:
    """A serial quarterly sweep written to an atom store.

    Every repetition builds its world (set-up), then sweeps it into a
    new store.  The serve workload builds its store the same way.
    """

    name = "sweep"
    per_repetition_setup = True

    def __init__(self, seed: int, work: Path, scale: Scale,
                 years: Optional[Tuple[int, ...]] = None):
        self.params = world_params(WORLD_SEED, scale.sweep_scale,
                                   scale.sweep_peer_scale)
        self.years = list(scale.sweep_years if years is None else years)
        self.work = work
        self._count = 0
        #: per snapshot key (fingerprint, failed), then per trend row
        #: (row, failed), from the first repetition
        self._reference: Optional[Tuple[Dict[str, Tuple[Any, bool]],
                                        List[Tuple[Any, bool]]]] = None

    def setup(self) -> Dict[str, Any]:
        clear_worker_state()
        self._count += 1
        return {
            "internet": SimulatedInternet(
                self.params, start=f"{self.years[0]}-01-01"
            ),
            "engine": ExecutionEngine(),
            "store": _fresh_dir(self.work, f"store-{self._count}"),
        }

    def operation(self, state: Dict[str, Any]) -> Dict[str, Any]:
        study = LongitudinalStudy(
            state["internet"], family=AF_INET, engine=state["engine"],
            store_dir=state["store"],
        )
        state["results"] = study.run_years(self.years, with_stability=True)
        return state

    def verify(self, output: Dict[str, Any]) -> Verdict:
        """One operation per stored snapshot and one per trend row.

        The first repetition is checked in full.  In every repetition a
        snapshot or row fails when it failed its check in the first, or
        differs from the first's, or is missing.
        """
        results = output["results"]
        rows = [
            (r.year, r.stats, sorted(r.formation_shares.items()),
             sorted(r.stability.items()), sorted(r.feed.items()))
            for r in results
        ]
        problems: List[str] = []
        with AtomStore(output["store"], verify=True) as store:
            entries = store.snapshots()
            prints = checks.snapshot_fingerprints(output["store"], entries)
            if self._reference is None:
                problems = self._check(store, entries, results, prints, rows)
        snapshots, trend = self._reference
        expected = 4 * len(self.years)
        keys = set(snapshots) | set(prints)
        verdict = Verdict(attempted=max(expected, len(keys)) + len(self.years),
                          problems=problems)
        verdict.failed = max(0, expected - len(keys))
        differ = 0
        for key in keys:
            fingerprint, failed = snapshots.get(key, (None, True))
            same = prints.get(key) == fingerprint
            differ += not same
            verdict.failed += failed or not same
        for index in range(len(self.years)):
            row, failed = trend[index] if index < len(trend) else (None, True)
            same = (rows[index] if index < len(rows) else None) == row
            differ += not same
            verdict.failed += failed or not same
        if differ:
            verdict.problems.append(
                f"{differ} snapshot(s) or trend row(s) differ from the "
                "first repetition")
        return verdict

    def _check(self, store, entries, results, prints, rows) -> List[str]:
        """Check the first repetition in full and keep it as reference."""
        problems: List[str] = []
        snapshots: Dict[str, Tuple[Any, bool]] = {}
        base_counts: Dict[str, Tuple[int, int]] = {}
        for entry in entries:
            stored = checks.store_rows(store, entry.key)
            found = checks.partition_problems(
                entry.key, stored, entry.prefixes, entry.atom_count)
            problems += found
            snapshots[entry.key] = (prints[entry.key], bool(found))
            if entry.role == "base":
                base_counts[entry.label] = (
                    len(stored), len({row[2] for row in stored}))
        if len(entries) != 4 * len(self.years):
            problems.append(
                f"store holds {len(entries)} snapshots, expected "
                f"{4 * len(self.years)}")
        per_row = checks.sweep_result_problems(results, base_counts)
        for found in per_row:
            problems += found
        trend = [(row, bool(found)) for row, found in zip(rows, per_row)]
        self._reference = (snapshots, trend)
        return problems

    def release(self, output: Dict[str, Any]) -> None:
        shutil.rmtree(output["store"], ignore_errors=True)
        output.clear()


# ----------------------------------------------------------------------
# live
# ----------------------------------------------------------------------

class LiveWorkload:
    """A checkpointed ``LivePipeline`` replay of a four-collector archive."""

    name = "live"
    per_repetition_setup = False

    def __init__(self, seed: int, work: Path, scale: Scale):
        # The archive is seed-independent; see LIVE_START.
        self.params = world_params(WORLD_SEED, scale.live_scale,
                                   scale.live_peer_scale, collector_scale=0.2)
        self.hours = scale.live_hours
        self.every = scale.live_checkpoint_every
        self.work = work
        self.archive_dir: Optional[Path] = None
        self._count = 0
        self._expected: Optional[Tuple[Any, Any]] = None
        self._buckets: Optional[Dict[int, int]] = None
        #: (window results and final partition, whether its check failed)
        self._reference: Optional[Tuple[Any, bool]] = None

    def teardown(self) -> None:
        if self.archive_dir is not None:
            shutil.rmtree(self.archive_dir, ignore_errors=True)
            self.archive_dir = None

    def setup(self) -> Path:
        """``repro simulate --update-hours 8`` into a new archive."""
        self._count += 1
        path = _fresh_dir(self.work, f"archive-{self._count}")
        stamp = parse_utc(LIVE_START)
        internet = SimulatedInternet(self.params, start=stamp)
        archive = RecordArchive(path)
        archive.write_dump(internet.rib_records(stamp, family=AF_INET),
                           dump_timestamp=stamp)
        archive.write_dump(
            internet.update_records(stamp, hours=self.hours, family=AF_INET),
            dump_timestamp=stamp,
        )
        self.archive_dir = path
        return path

    def _archive_records(self):
        archive = RecordArchive(self.archive_dir)
        return chain(archive.records(record_type="rib"),
                     archive.records(record_type="update"))

    def operation(self, state: Any = None) -> Dict[str, Any]:
        self._count += 1
        checkpoints = _fresh_dir(self.work, f"checkpoint-{self._count}")
        archive = RecordArchive(self.archive_dir)
        records = chain(
            BGPStream(archive, record_type="rib").records(),
            BGPStream(archive, record_type="update").records(),
        )
        config = LiveConfig(
            window_seconds=WINDOW_SECONDS,
            checkpoint_dir=checkpoints,
            checkpoint_every=self.every,
        )
        run = LivePipeline(records, config).run()
        return {"run": run, "checkpoints": checkpoints}

    def verify(self, output: Dict[str, Any]) -> Verdict:
        run = output["run"]
        if self._expected is None:
            self._expected = checks.replay_partition(self._archive_records())
            self._buckets = checks.update_buckets(
                self._archive_records(), WINDOW_SECONDS)
        assert self._buckets is not None
        failures = checks.window_failures(
            self._buckets, [(w.index, w.records) for w in run.windows])
        verdict = Verdict(attempted=1 + len(self._buckets),
                          failed=len(failures))
        shape = (
            [w.as_dict(deterministic_only=True) for w in run.windows],
            None if run.atoms is None
            else sorted(sorted(map(str, a.prefixes)) for a in run.atoms),
        )
        if self._reference is None:
            peers, expected = self._expected
            verdict.problems += checks.live_partition_problems(
                run.atoms, run.vantage_points, peers, expected)
            self._reference = (shape, bool(verdict.problems))
        elif shape != self._reference[0]:
            verdict.problems.append("replay differs from the first")
        if run.checkpoints < 1 or not run.parity_checks:
            verdict.problems.append(
                f"{run.checkpoints} checkpoints, {run.parity_checks} "
                "parity checks")
        if verdict.problems or self._reference[1]:
            verdict.failed += 1
        output["checkpoint_bytes"] = sum(
            path.stat().st_size for path in output["checkpoints"].rglob("*")
            if path.is_file())
        return verdict

    def release(self, output: Dict[str, Any]) -> None:
        shutil.rmtree(output["checkpoints"], ignore_errors=True)
        output.clear()


# ----------------------------------------------------------------------
# converge
# ----------------------------------------------------------------------

class ConvergeWorkload:
    """``repro converge --scenario flap-storm``: build to parity."""

    name = "converge"
    per_repetition_setup = True

    def __init__(self, seed: int, work: Path, scale: Scale):
        self.params = world_params(WORLD_SEED, scale.converge_scale,
                                   scale.converge_peer_scale)
        self._reference: Optional[Tuple[Any, ...]] = None

    def setup(self) -> SimulatedInternet:
        return SimulatedInternet(self.params, start=CONVERGE_AT)

    def operation(self, sim: SimulatedInternet) -> Dict[str, Any]:
        run = sim.converge(CONVERGE_AT, scenario=SCENARIO, family=AF_INET)
        final = run.run_to_quiescence()
        parity = quiescence_parity(run, sim.engine)
        return {"sim": sim, "run": run, "final": final, "parity": parity}

    def verify(self, output: Dict[str, Any]) -> Verdict:
        run, sim = output["run"], output["sim"]
        verdict = Verdict(attempted=1)
        verdict.problems += [f"parity: {line}" for line in output["parity"]]
        if not any(line.startswith(f"{SCENARIO}:") and "cycles" in line
                   for line in run.narration):
            verdict.problems.append(f"no {SCENARIO} perturbation scheduled")
        verdict.problems += checks.path_problems(
            run.routers, sim.world.graph.neighbors)
        shape = (output["final"], run.mutations, len(run.routers))
        if self._reference is None:
            self._reference = shape
        elif shape != self._reference:
            verdict.problems.append("repetition differs from the first")
        if verdict.problems:
            verdict.failed = 1
        return verdict

    def release(self, output: Dict[str, Any]) -> None:
        output.clear()


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------

def request_mix(atom_sets: Dict[str, Any], seed: int, count: int
                ) -> List[Tuple[str, ...]]:
    """A seeded Zipf mix of prefix, atom and stats requests.

    Keys of each endpoint get a fixed popularity rank; ``seed`` draws
    the sequence from that Zipf distribution, so a few keys are hot and
    most of the key space is cold.
    """
    ranking = random.Random(WORLD_SEED)
    rng = random.Random(seed)
    keys: Dict[str, List[Tuple[str, ...]]] = {"prefix": [], "atom": [],
                                              "stats": [("stats",)]}
    for key, atoms in atom_sets.items():
        for atom in atoms:
            keys["atom"].append(("atom", key, str(atom.atom_id)))
            for prefix in sorted(atom.prefixes, key=str):
                keys["prefix"].append(("prefix", key, str(prefix)))
    weights: Dict[str, List[float]] = {}
    for kind, pool in keys.items():
        ranking.shuffle(pool)
        weights[kind] = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(pool))]
    kinds = [kind for kind, _ in MIX]
    shares = [share for _, share in MIX]
    requests = []
    for kind in rng.choices(kinds, weights=shares, k=count):
        requests.append(rng.choices(keys[kind], weights=weights[kind])[0])
    return requests


def request_path(request: Tuple[str, ...]) -> str:
    if request[0] == "prefix":
        return f"/v1/prefix/{request[2]}?snapshot={request[1]}"
    if request[0] == "atom":
        return f"/v1/atom/{request[2]}?snapshot={request[1]}"
    return "/v1/stats"


class ServerProcess:
    """``repro serve`` as a child process on an ephemeral port."""

    def __init__(self, root: Path, store: Path, spans: Optional[Path] = None):
        self.errors = store.parent / f"{store.name}.serve-stderr"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["PYTHONUNBUFFERED"] = "1"
        if spans is None:
            command = [sys.executable, "-m", "repro.cli"]
        else:
            command = [sys.executable, "-m", "perfbench.serve_child", str(spans)]
        command += ["serve", str(store), "--port", "0"]
        with open(self.errors, "w", encoding="utf-8") as errors:
            self.process = subprocess.Popen(
                command, cwd=root, env=env, stdout=subprocess.PIPE,
                stderr=errors, text=True,
            )
        line = self.process.stdout.readline()
        if " on http://" not in line:
            self.stop()
            raise RuntimeError(
                f"repro serve did not start: {line!r} "
                f"{self.errors.read_text(encoding='utf-8')[-2000:]}")
        address = line.split(" on http://", 1)[1].split()[0]
        host, _, port = address.rpartition(":")
        self.host, self.port = host, int(port)
        self._wait_healthy()

    def _wait_healthy(self, timeout: float = 30.0) -> None:
        deadline = clock() + timeout
        while clock() < deadline:
            try:
                self.health()
                return
            except OSError:
                time.sleep(0.01)
        raise RuntimeError("repro serve never answered /healthz")

    def health(self) -> Dict[str, Any]:
        connection = HTTPConnection(self.host, self.port, timeout=10)
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            body = response.read()
            if response.status != 200:
                raise OSError(f"/healthz answered {response.status}")
            return json.loads(body)
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the serve process")

    def stop(self) -> None:
        """SIGINT (graceful shutdown), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


class ServeWorkload:
    """Two keep-alive connections replaying a fixed Zipf request mix."""

    name = "serve"
    per_repetition_setup = False
    connections = 2

    def __init__(self, seed: int, work: Path, scale: Scale, root: Path):
        self.seed = seed
        self.sweep = SweepWorkload(seed, work, scale, years=scale.serve_years)
        self.count = scale.serve_requests
        self.root = root
        self.server: Optional[ServerProcess] = None
        self.store: Optional[Path] = None
        self.atom_sets: Dict[str, Any] = {}
        self.requests: List[Tuple[str, ...]] = []
        #: (status, body, whether its check failed) of the first pass
        self.reference: Optional[List[Tuple[int, bytes, bool]]] = None
        self.spans: Optional[Path] = None

    def teardown(self) -> None:
        self.close()
        if self.store is not None:
            shutil.rmtree(self.store, ignore_errors=True)
            self.store = None

    def setup(self) -> ServerProcess:
        """``repro trend --store-dir`` then ``repro serve`` until healthy."""
        import repro.store.writer as writer

        captured: Dict[str, Any] = {}
        original = writer.write_part

        def capture(root, key, snapshots, *args, **kwargs):
            for snapshot in snapshots:
                captured[snapshot["key"]] = snapshot["atoms"]
            return original(root, key, snapshots, *args, **kwargs)

        state = self.sweep.setup()
        writer.write_part = capture
        try:
            self.sweep.operation(state)
        finally:
            writer.write_part = original
        self.store = state["store"]
        self.atom_sets = captured
        self.server = ServerProcess(self.root, self.store, self.spans)
        return self.server

    def restart(self, spans: Optional[Path]) -> None:
        """Serve the same store from a new process (the traced one)."""
        self.close()
        self.spans = spans
        assert self.store is not None
        self.server = ServerProcess(self.root, self.store, spans)

    def prepare(self) -> None:
        self.requests = request_mix(self.atom_sets, self.seed, self.count)
        self.paths = [request_path(r) for r in self.requests]

    def operation(self, state: Any = None) -> Dict[str, Any]:
        """One pass of the request sequence; returns its measurements."""
        assert self.server is not None
        before = self.server.health()["cache"]["hits"]
        results: List[Optional[Tuple[int, bytes, float]]] = [None] * len(self.paths)
        errors: List[BaseException] = []

        def client(offset: int) -> None:
            connection = HTTPConnection(self.server.host, self.server.port,
                                        timeout=30)
            try:
                for index in range(offset, len(self.paths), self.connections):
                    sent = clock()
                    connection.request("GET", self.paths[index])
                    response = connection.getresponse()
                    body = response.read()
                    results[index] = (response.status, body, clock() - sent)
            except BaseException as error:  # reported by the caller
                errors.append(error)
            finally:
                connection.close()

        threads = [threading.Thread(target=client, args=(offset,))
                   for offset in range(self.connections)]
        started = clock()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ended = clock()
        if errors:
            raise RuntimeError(f"client failed: {errors[0]!r}")
        after = self.server.health()["cache"]["hits"]
        return {"results": results, "window": (started, ended),
                "latencies": [row[2] for row in results if row is not None],
                "hits": after - before}

    def verify(self, output: Dict[str, Any]) -> Verdict:
        """One operation per request: the first pass is checked in full;
        a request fails when it failed there or its response differs."""
        results = output["results"]
        verdict = Verdict(attempted=len(results))
        if self.reference is None:
            index = checks.prefix_index(self.atom_sets)
            self.reference = []
            for request, (status, body, _) in zip(self.requests, results):
                problems = checks.response_problems(
                    request, status, body, self.atom_sets, index)
                verdict.problems += problems[:1]
                self.reference.append((status, body, bool(problems)))
        differ = 0
        for (status, body, _), (status0, body0, failed) in zip(
                results, self.reference):
            same = (status, body) == (status0, body0)
            differ += not same
            verdict.failed += failed or not same
        if differ:
            verdict.problems.append(
                f"{differ} response(s) differ from the first pass")
        return verdict

    def release(self, output: Dict[str, Any]) -> None:
        output.clear()

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


def build(name: str, seed: int, work: Path, scale: Scale, root: Path):
    if name == "sweep":
        return SweepWorkload(seed, work, scale)
    if name == "live":
        return LiveWorkload(seed, work, scale)
    if name == "converge":
        return ConvergeWorkload(seed, work, scale)
    if name == "serve":
        return ServeWorkload(seed, work, scale, root)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sweep", "live", "serve", "converge")
