"""One run of the end-to-end scenario for one workload.

    set-up      generate the seeded inputs, launch ``repro.cli serve`` durably
                on the base instance, wait for ``/ready`` (repeated; median)
    commit      one closed-loop writer POSTs the delta batches while one
                closed-loop reader GETs beside it
    crash       SIGKILL after ``kill_after`` commits, relaunch on the durable
                directory alone, time to ``/ready`` (the crashed directory is
                recovered several times from a copy; median); post the rest
    read        quiescent: two closed-loop keep-alive connections issue
                /resolve, /cluster, /same 1:1:1 for a fixed window
    drain       SIGTERM, wait for a clean exit
    match       in this process: cover build + grid run on the final instance,
                repeated for a fixed window
    verify      every output against an independent reference

All load is closed loop and comes from this one process (at most two client
threads), over ``http.client`` connections with their default socket options.
The server is a separate process started through the program's CLI; every
wait on it has a timeout and it is killed in ``finally``.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.blocking import CanopyBlocker
from repro.core import EMFramework
from repro.datasets import save_dataset
from repro.matchers import MLNMatcher, RulesMatcher
from repro.obs import registry as obs_registry
from repro.obs import trace

import boundary
from workloads import Inputs, Workload, make_inputs

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
MATCHERS = {"mln": MLNMatcher, "rules": RulesMatcher}

SETUP_REPEATS = 3
RECOVER_REPEATS = 3
LAUNCH_TIMEOUT = 120.0      # launch or recovery to /ready
HTTP_TIMEOUT = 30.0         # any single request
EXIT_TIMEOUT = 60.0         # SIGTERM to process exit
SERVER_LIFETIME = 175.0     # --duration: a server orphaned by a killed
                            # benchmark drains itself after this long
_LISTENING = re.compile(r"listening on http://[^:\s]+:(\d+)")


class BenchmarkFailure(Exception):
    """An operation failed or an output was wrong; the run reports no result."""


# ----------------------------------------------------------------- server
class Server:
    """One ``repro.cli serve`` process and the client side of talking to it."""

    def __init__(self, workdir: Path, tag: str, serve_args: List[str],
                 traced: bool):
        self.stdout_path = workdir / f"{tag}.out"
        self.stderr_path = workdir / f"{tag}.err"
        self.trace_path = workdir / f"{tag}.trace.jsonl"
        if traced:
            command = [sys.executable, str(HERE / "server.py"), "serve",
                       "--trace-out", str(self.trace_path)]
        else:
            command = [sys.executable, "-m", "repro.cli", "serve"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env.pop("REPRO_TRACE", None)
        self.launched_at = time.perf_counter()
        with open(self.stdout_path, "wb") as out, \
                open(self.stderr_path, "wb") as err:
            self.process = subprocess.Popen(
                command + ["--port", "0", "--duration", str(SERVER_LIFETIME)]
                + serve_args,
                stdout=out, stderr=err, env=env, cwd=str(workdir))
        self.port: Optional[int] = None

    def failure(self, what: str) -> BenchmarkFailure:
        tail = self.stderr_path.read_text(errors="replace")[-800:]
        return BenchmarkFailure(f"server {what}; stderr tail:\n{tail}")

    def wait_ready(self) -> float:
        """Seconds from launch until ``GET /ready`` answers 200."""
        deadline = self.launched_at + LAUNCH_TIMEOUT
        while self.port is None:
            found = _LISTENING.search(self.stdout_path.read_text(errors="replace"))
            if found:
                self.port = int(found.group(1))
            elif self.process.poll() is not None:
                raise self.failure(f"exited {self.process.returncode} before listening")
            elif time.perf_counter() > deadline:
                raise self.failure("never printed its listening line")
            else:
                time.sleep(0.005)
        while True:
            if self.process.poll() is not None:
                raise self.failure(f"exited {self.process.returncode} before ready")
            if time.perf_counter() > deadline:
                raise self.failure("never became ready")
            try:
                status, _ = request(self.connect(), "GET", "/ready", close=True)
            except OSError:
                status = None
            if status == 200:
                return time.perf_counter() - self.launched_at
            time.sleep(0.02)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=HTTP_TIMEOUT)

    def scrape(self) -> Tuple[dict, Dict[str, float]]:
        """``/metrics`` as the JSON document and as flat Prometheus samples."""
        _, document = request(self.connect(), "GET", "/metrics", close=True)
        connection = self.connect()
        try:
            connection.request("GET", "/metrics", headers={"Accept": "text/plain"})
            text = connection.getresponse().read().decode("utf-8")
        finally:
            connection.close()
        samples = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, value = line.rsplit(" ", 1)
                samples[name] = float(value)
        return document, samples

    def dump_trace(self) -> Path:
        """Ask a traced server for its span buffer (SIGUSR1) and wait for it."""
        target = Path(str(self.trace_path) + ".usr1")
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + HTTP_TIMEOUT
        while not target.exists():
            if time.perf_counter() > deadline or self.process.poll() is not None:
                raise self.failure("did not dump its trace on SIGUSR1")
            time.sleep(0.01)
        return target

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=EXIT_TIMEOUT)

    def drain(self) -> float:
        """SIGTERM; seconds until the process has exited cleanly."""
        started = time.perf_counter()
        self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=EXIT_TIMEOUT)
        except subprocess.TimeoutExpired:
            raise self.failure("did not exit after SIGTERM") from None
        if code != 0:
            raise self.failure(f"exited {code} after SIGTERM")
        return time.perf_counter() - started


def request(connection: http.client.HTTPConnection, method: str, path: str,
            body: Optional[dict] = None, close: bool = False
            ) -> Tuple[int, dict]:
    try:
        if body is None:
            connection.request(method, path)
        else:
            connection.request(method, path, body=json.dumps(body),
                               headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        if close:
            connection.close()


# ------------------------------------------------------------------ clients
class ReadLog:
    """What one closed-loop reader saw: latency, status and payload per read."""

    def __init__(self):
        self.latencies: List[float] = []
        self.failed = 0
        self.answers: List[Tuple[str, tuple, dict]] = []
        self.error: Optional[BaseException] = None

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.failed


def read_loop(server: Server, ids: List[str], offset: int,
              keep_going: Callable[[], bool], log: ReadLog) -> None:
    """/resolve, /cluster, /same in turn over ``ids`` until told to stop."""
    try:
        connection = server.connect()
        index = offset
        while keep_going():
            first = ids[index % len(ids)]
            second = ids[(index + 1) % len(ids)]
            kind = ("resolve", "cluster", "same")[index % 3]
            path = f"/same?a={first}&b={second}" if kind == "same" \
                else f"/{kind}/{first}"
            started = time.perf_counter()
            try:
                status, payload = request(connection, "GET", path)
            except (OSError, http.client.HTTPException, ValueError):
                status, payload = None, {}
                connection.close()
                connection = server.connect()
            elapsed = time.perf_counter() - started
            if status == 200:
                log.latencies.append(elapsed)
                log.answers.append((kind, (first, second), payload))
            else:
                log.failed += 1
            index += 1
        connection.close()
    except BaseException as error:  # surfaced by the thread's owner
        log.error = error


def run_readers(server: Server, ids: List[str], count: int,
                keep_going: Callable[[], bool]) -> Tuple[List[ReadLog], List[threading.Thread]]:
    logs = [ReadLog() for _ in range(count)]
    threads = [threading.Thread(target=read_loop, daemon=True,
                                args=(server, ids, n * len(ids) // count,
                                      keep_going, logs[n]))
               for n in range(count)]
    for thread in threads:
        thread.start()
    return logs, threads


def join_readers(logs: List[ReadLog], threads: List[threading.Thread]) -> None:
    for thread, log in zip(threads, logs):
        thread.join(timeout=HTTP_TIMEOUT * 2)
        if thread.is_alive():
            raise BenchmarkFailure("a reader thread did not finish")
        if log.error is not None:
            raise BenchmarkFailure(f"a reader thread died: {log.error!r}")


def post_batches(server: Server, inputs: Inputs, start: int, stop: int,
                 latencies: List[float]) -> int:
    """POST batches ``start+1 .. stop`` (``wait=true``); returns failures.

    Each commit is followed by an untimed read that must already report the
    new epoch: the round trip of the POST is delta-to-visible latency.
    """
    failed = 0
    connection = server.connect()
    probe = server.connect()
    try:
        for number in range(start + 1, stop + 1):
            started = time.perf_counter()
            status, answer = request(connection, "POST", "/deltas",
                                     {"ops": inputs.batches[number - 1],
                                      "wait": True})
            elapsed = time.perf_counter() - started
            if status != 200:
                failed += 1
                continue
            latencies.append(elapsed)
            if answer.get("epoch") != number:
                raise BenchmarkFailure(
                    f"batch {number} was answered with epoch {answer.get('epoch')}")
            status, seen = request(probe, "GET", f"/resolve/{inputs.read_ids[0]}")
            if status != 200 or seen["epoch"] < number:
                raise BenchmarkFailure(
                    f"batch {number} committed but a read still saw {seen}")
    finally:
        connection.close()
        probe.close()
    return failed


# -------------------------------------------------------------- match phase
def match_once(workload: Workload, inputs: Inputs):
    """Cover build + grid run on the final instance: (seconds, matches)."""
    started = time.perf_counter()
    with trace.span("e2e.match"):
        framework = EMFramework(MATCHERS[workload.matcher](), inputs.final.store,
                                store_backend="compact", blocker=CanopyBlocker())
        result = framework.run_grid(workload.scheme, executor=workload.executor,
                                    workers=workload.workers)
    return time.perf_counter() - started, result.matches


def pairs_digest(matches) -> str:
    lines = sorted(f"{pair.first}|{pair.second}" for pair in matches)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def reference_digest(workload: Workload, inputs: Inputs, golden: Dict[str, str],
                     golden_key: str) -> str:
    """The digest the grid run must reproduce.

    A recorded golden digest when there is one for this workload, size and
    seed; otherwise the sequential scheme (queue-driven, dict store: a
    different code path from the round-based grid over the compact store).
    """
    if golden_key in golden:
        return golden[golden_key]
    framework = EMFramework(MATCHERS[workload.matcher](), inputs.final.store,
                            blocker=CanopyBlocker())
    return pairs_digest(framework.run(workload.scheme).matches)


# ------------------------------------------------------------- verification
def check_reads(logs: List[ReadLog], matches, final_epoch: int) -> None:
    """Quiescent reads against the union-find of the verified match set."""
    cluster_of: Dict[str, set] = {}
    for pair in matches:
        merged = cluster_of.get(pair.first, {pair.first}) \
            | cluster_of.get(pair.second, {pair.second})
        for member in merged:
            cluster_of[member] = merged
    for log in logs:
        for kind, (first, second), payload in log.answers:
            cluster = cluster_of.get(first, {first})
            if kind == "resolve":
                good = payload["canonical"] == min(cluster)
            elif kind == "cluster":
                good = payload["members"] == sorted(cluster)
            else:
                good = payload["same"] == (second in cluster)
            if not good or payload["epoch"] != final_epoch:
                raise BenchmarkFailure(
                    f"wrong answer to {kind} {first} {second}: {payload}")


def verify_durable(durable_dir: Path, workload: Workload):
    """Recovered standing matches == cold batch run on the final instance."""
    from repro.durability import DurableStreamSession
    session = DurableStreamSession.recover(durable_dir)
    try:
        if session.batches_applied != workload.batches:
            raise BenchmarkFailure(
                f"durable state holds {session.batches_applied} batches, "
                f"posted {workload.batches}")
        if not session.verify():
            raise BenchmarkFailure(
                "recovered standing matches differ from the cold batch run")
        return session.matches
    finally:
        session.close(checkpoint=False)


# ------------------------------------------------------------------ the run
def run(workload: Workload, seed: int, seconds: float, traced: bool,
        workdir: Path, golden: Dict[str, str], golden_key: str) -> dict:
    """Run the scenario once; returns raw measurements (see ``metrics.py``).

    Raises :class:`BenchmarkFailure` when anything is wrong.
    """
    if traced:
        boundary.install()
    servers: List[Server] = []
    raw: dict = {}
    setups = 1 if traced else SETUP_REPEATS
    recoveries = 1 if traced else RECOVER_REPEATS

    def launch(tag: str, args: List[str]) -> Server:
        server = Server(workdir, tag, ["--matcher", workload.matcher,
                                       "--checkpoint-every",
                                       str(workload.checkpoint_every)] + args,
                        traced)
        servers.append(server)
        return server

    try:
        # ---- set-up: inputs + durable server up, several times over
        setup_samples = []
        for attempt in range(setups):
            started = time.perf_counter()
            inputs = make_inputs(workload, seed)
            save_dataset(inputs.base, workdir / "base.json")
            durable_dir = workdir / f"durable{attempt}"
            server = launch(f"serve{attempt}", ["--dataset", str(workdir / "base.json"),
                                                "--durable-dir", str(durable_dir)])
            server.wait_ready()
            setup_samples.append(time.perf_counter() - started)
            if attempt + 1 < setups:
                server.kill()
                shutil.rmtree(durable_dir)
        raw["setup_samples"] = setup_samples
        raw["entities"] = len(inputs.final.store.entity_ids())
        raw["ops_per_batch"] = statistics.mean(len(b) for b in inputs.batches)

        # ---- commit phase: 1 writer + 1 reader, both closed loop
        commits: List[float] = []
        writing = threading.Event()
        writing.set()
        beside, threads = run_readers(server, inputs.read_ids, 1, writing.is_set)
        try:
            post_failed = post_batches(server, inputs, 0, workload.kill_after, commits)
        finally:
            writing.clear()
            join_readers(beside, threads)

        # ---- crash, then recover the same crashed state several times over
        scrapes = [server.scrape()]
        traces = [server.dump_trace()] if traced else []
        server.kill()
        crashed = workdir / "crashed"
        shutil.copytree(durable_dir, crashed)
        recover_samples = []
        for attempt in range(recoveries):
            if attempt:
                server.kill()
                shutil.rmtree(durable_dir)
                shutil.copytree(crashed, durable_dir)
            server = launch(f"recover{attempt}", ["--durable-dir", str(durable_dir)])
            recover_samples.append(server.wait_ready())
        raw["recover_samples"] = recover_samples
        post_failed += post_batches(server, inputs, workload.kill_after,
                                    workload.batches, commits)
        raw["commit_latencies"] = commits

        # ---- quiescent read window: 2 closed-loop connections
        read_seconds = seconds * (1.0 - workload.match_share)
        read_started = time.perf_counter()
        read_until = read_started + read_seconds
        quiet, threads = run_readers(server, inputs.read_ids, 2,
                                     lambda: time.perf_counter() < read_until)
        join_readers(quiet, threads)
        raw["read_window_s"] = time.perf_counter() - read_started

        # ---- drain
        scrapes.append(server.scrape())
        final_epoch = scrapes[-1][0]["epoch"]
        if final_epoch != workload.batches:
            raise BenchmarkFailure(
                f"final epoch is {final_epoch}, posted {workload.batches}")
        replayed = scrapes[-1][1].get("wal_replayed_batches_total")
        if replayed != workload.replay_tail:
            raise BenchmarkFailure(
                f"recovery replayed {replayed} batches, the crash left "
                f"{workload.replay_tail} in the WAL tail")
        raw["drain_s"] = server.drain()
        if traced:
            traces.append(server.trace_path)
        raw["scrapes"] = scrapes

        # ---- match phase: in this process, for a fixed window
        match_until = time.perf_counter() + seconds * workload.match_share
        match_samples: List[float] = []      # untraced iterations
        traced_samples: List[float] = []
        match_spans: List[List[dict]] = []
        match_counters: List[Dict[str, float]] = []
        digests = set()
        while not match_samples or time.perf_counter() < match_until:
            elapsed, matches = match_once(workload, inputs)
            match_samples.append(elapsed)
            digests.add(pairs_digest(matches))
            if traced:
                before = counter_values()
                trace.enable()
                try:
                    elapsed, matches = match_once(workload, inputs)
                    match_spans.append(trace.spans())
                finally:
                    trace.disable()
                after = counter_values()
                match_counters.append({name: after[name] - before.get(name, 0.0)
                                       for name in after})
                traced_samples.append(elapsed)
                digests.add(pairs_digest(matches))
        raw["match_samples"] = match_samples
        raw["traced_match_samples"] = traced_samples
        raw["match_spans"] = match_spans
        raw["match_counters"] = match_counters

        # ---- verification (untimed)
        expected = reference_digest(workload, inputs, golden, golden_key)
        if digests != {expected}:
            raise BenchmarkFailure(
                f"match pairs digest {sorted(digests)} != reference {expected}")
        raw["digest"] = expected
        standing = verify_durable(durable_dir, workload)
        check_reads(quiet, standing, workload.batches)

        raw["server_spans"] = [[json.loads(line)
                                for line in path.read_text().splitlines() if line]
                               for path in traces]
        raw["beside"] = beside[0]
        raw["quiet"] = quiet
        raw["attempted"] = (len(match_samples) + len(traced_samples)
                            + workload.batches + recoveries
                            + beside[0].attempted
                            + sum(log.attempted for log in quiet))
        raw["failed"] = post_failed + beside[0].failed \
            + sum(log.failed for log in quiet)
        usage = [resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
        raw["peak_rss_kb"] = max(usage)
        return raw
    finally:
        for server in servers:
            try:
                server.kill()
            except Exception:  # keep killing the others; the run failed anyway
                pass


def counter_values() -> Dict[str, float]:
    """Unlabelled counters of this process's registry, by name."""
    values = {}
    for name, entry in obs_registry.registry().snapshot().items():
        if entry["kind"] == "counter" and () in entry["values"]:
            values[name] = float(entry["values"][()])
    return values
