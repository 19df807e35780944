"""The benchmark's workloads: what runs, how it is timed, how it is checked.

Three workloads are sweeps run in this process on a
:class:`~repro.experiments.runner.SweepRunner`, one grid after another
(a *job* is one grid, as one ``repro sweep`` invocation would run it).
The fourth, ``serve``, starts ``repro serve`` in its own process and
drives it with two closed-loop HTTP clients (a *job* is one POSTed
grid). Every job's records are checked against a reference before any
timing counts; see :func:`expected_digests`.

A timed sweep run repeats whole cycles through a fixed list of grids
drawn from the workload seed. Cell cost depends on the grid seeds (a
``churn`` cell can cost several times as much at one seed as at
another), so a run that sampled one grid would measure its seeds more
than the code, and a run that stopped mid-cycle would measure a mix of
grids that depends on how fast the program ran.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import multiprocessing
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: The seed whose record digests are pinned in ``digests.json``.
DEFAULT_SEED = 0

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Sleep between record polls that returned nothing new (seconds).
POLL_S = 0.005

#: Concurrent closed-loop serve clients (one connection each).
SERVE_CLIENTS = 2

#: Serve jobs whose per-cell times are fetched after the window, evenly
#: spaced over it (each summary request takes ~40 ms).
SUMMARY_SAMPLE = 25

#: A sweep job during which the hypervisor took more than this share of
#: the machine's CPU time (``steal`` in /proc/stat) is run once more, and
#: the run under less steal counts in the medians; a ``serve`` job is left
#: out of the latency percentiles (see :meth:`RunResult.measured`). On
#: the 2-CPU reference VM steal comes in bursts of 5-25% that slow a
#: ``population-sharded`` cell by up to 2x, and once by 4x (its two
#: shard processes run in lockstep). Outside
#: bursts it reads 0-4%; jobs there run within the usual spread, and
#: running them again would only lengthen the run.
STEAL_LIMIT = 0.05

#: A timed sweep run makes at least this many whole cycles through its
#: grids, so every grid runs at least twice and must repeat its digest
#: (one cycle where every grid is checked against a reference run; see
#: :attr:`Workload.min_cycles`).
MIN_CYCLES = 2

#: ...unless its window has lasted this long (or three times
#: ``--seconds``, if longer): then it ends with the current cycle, so
#: that a run on a host that has slowed 4x still exits within 180 s.
DEADLINE_S = 60.0

#: Jobs are run again for steal only this long (times ``--seconds``)
#: into a run: a ``population-sharded`` cycle outlasts the window.
RERUN_WINDOW = 1.5

TERMINAL = ("completed", "failed", "cancelled")

POPULATION_AXES = {"kind": ["grid"], "sizes": [225],
                   "protocols": ["arppath"], "endpoints_per_port": [100],
                   "pairs": [16], "probes": [16]}
CHURN_AXES = {"topology": ["grid"],
              "protocols": ["arppath", "stp", "spb", "controller"],
              "duration": [120.0], "flap_rate": [1.0], "fps": [100.0],
              "crashes": [4], "migrations": [4]}
SERVE_AXES = {"rows": [2], "cols": [2], "rounds": [1]}


@dataclass(frozen=True)
class Workload:
    """One named workload: a grid, its seed count and its pool size."""

    name: str
    scenario: str
    axes: Dict[str, List[Any]]
    #: Grid seeds per job, and the grids of one cycle of a timed run.
    seeds: int
    grids: int
    #: SweepRunner pool size.
    jobs: int
    #: An axis that must not change the records: its column is dropped
    #: and the rows must equal a run of the same cells without it.
    invariant: Optional[str] = None

    def grid_seeds(self, seed: int, grid: int = 0) -> List[int]:
        """Grid number *grid*'s seeds, drawn from the workload seed."""
        rng = random.Random(seed)
        drawn = [rng.randrange(1 << 31)
                 for _ in range(self.seeds * (grid + 1))]
        return drawn[self.seeds * grid:]

    def cells(self, seed: int, grid: int = 0) -> list:
        from repro.experiments import runner
        return runner.expand_grid([self.scenario],
                                  self.grid_seeds(seed, grid), self.axes)

    @property
    def min_cycles(self) -> int:
        """Whole cycles a timed run makes at least: one where each grid
        is compared with the same cells run without the invariant axis,
        else :data:`MIN_CYCLES`, so that each grid repeats its digest."""
        return 1 if self.invariant is not None else MIN_CYCLES

    def without_invariant(self) -> "Workload":
        """The same cells without the invariant axis, on a 2-worker pool."""
        axes = {k: v for k, v in self.axes.items() if k != self.invariant}
        return replace(self, axes=axes, jobs=2, invariant=None)


# A population or churn cycle takes about half of a 20 s window on the
# 2-CPU reference VM.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("population", "scale", POPULATION_AXES, seeds=2, grids=4,
             jobs=2),
    # One seed per job: a cycle then draws its first-record and median
    # job times from six grids, not three (churn cell cost depends on
    # the seed: about one seed in 40 gives an stp cell 10-30x the usual).
    Workload("churn", "churn", CHURN_AXES, seeds=1, grids=6, jobs=2),
    Workload("serve", "proxy", SERVE_AXES, seeds=8, grids=1, jobs=1),
    # One cell per job: a 2-cell job at jobs=1 would halve the samples
    # a run's medians are taken over. Eight grids in one cycle (~27 s):
    # a sharded cell's cost depends on its seed by up to ~15% (how evenly
    # the flows fall on the two shards), and a median over three seeds
    # moved with the workload seed.
    Workload("population-sharded", "scale",
             dict(POPULATION_AXES, shards=[2]), seeds=1, grids=8, jobs=1,
             invariant="shards"),
)}


# -- records and digests -------------------------------------------------

def ndjson(lines: List[str]) -> bytes:
    """Record lines as the NDJSON bytes ``repro serve`` streams."""
    return "".join(line + "\n" for line in lines).encode("utf-8")


def digest(lines: List[str]) -> str:
    return hashlib.sha256(ndjson(lines)).hexdigest()


def strip_key(lines: List[str], key: str) -> List[str]:
    """Lines re-serialized without *key* (canonical form kept)."""
    from repro.metrics.report import record_line
    out = []
    for line in lines:
        row = json.loads(line)
        row.pop(key, None)
        out.append(record_line(row))
    return out


def pinned_digests() -> Dict[str, List[str]]:
    """Per workload, the digest of each grid at the default seed."""
    with open(HERE / "digests.json") as handle:
        return json.load(handle)


def reference_digests(workload: Workload, seed: int, grids: List[int]
                      ) -> Dict[int, str]:
    """Each grid's record digest from one bare SweepRunner over all of
    *grids* (so a pool overlaps cells of different grids)."""
    from repro.experiments import runner
    from repro.metrics.report import record_line
    cells, grid_of = [], {}
    for grid in grids:
        for cell in workload.cells(seed, grid):
            grid_of[len(cells)] = grid
            cells.append(replace(cell, index=len(cells)))
    report = runner.SweepRunner(cells, jobs=workload.jobs).run()
    if not report.ok:
        raise RuntimeError(f"{workload.name}: reference grid failed:\n"
                           + report.errors[0].error)
    lines: Dict[int, List[str]] = {grid: [] for grid in grids}
    for result in report.cells:
        lines[grid_of[result.cell.index]] += [record_line(row)
                                              for row in result.rows]
    return {grid: digest(grid_lines) for grid, grid_lines in lines.items()}


def expected_digests(workload: Workload, seed: int, grids: List[int]
                     ) -> Tuple[Dict[int, str], str]:
    """The digest each of *grids* must match, and where it comes from.

    At the default seed they are the pinned ones. At any other seed the
    ``serve`` and ``population-sharded`` jobs are compared with a
    reference run of every grid they ran (a bare in-process SweepRunner,
    or the same cells unsharded). The other sweeps get no entries: a
    grid without an entry must repeat its first digest, and a timed run
    of them runs every grid at least twice (:data:`MIN_CYCLES`), unless
    the host is so slow that the first cycle overran
    :data:`DEADLINE_S`.
    """
    if seed == DEFAULT_SEED:
        pins = pinned_digests()[workload.name]
        return {grid: pins[grid] for grid in grids}, "pinned"
    if workload.invariant is not None:
        return (reference_digests(workload.without_invariant(), seed, grids),
                f"the same cells without {workload.invariant}")
    if workload.name == "serve":
        return reference_digests(workload, seed, grids), "SweepRunner"
    return {}, "each grid's first run"


# -- statistics ------------------------------------------------------------

def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated *q* quantile of *values* (0 <= q <= 1)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_quantile(n: int, q: float = 0.9) -> float:
    """The highest quantile <= *q* with at least 10 samples beyond it.

    With fewer than 20 samples no quantile above the median has ten
    beyond it, and the median is reported.
    """
    if n <= 0:
        return 0.5
    return max(0.5, min(q, 1.0 - 10.0 / n))


def peak_rss_mib() -> float:
    """Highest RSS of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KiB on Linux


def cpu_ticks() -> Optional[Tuple[int, int]]:
    """(all, steal) CPU ticks of the machine so far, or None if unknown."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    ticks = [int(field) for field in fields[1:]]
    return sum(ticks), (ticks[7] if len(ticks) > 7 else 0)


def steal_share(before: Optional[Tuple[int, int]],
                after: Optional[Tuple[int, int]]) -> float:
    """Share of the CPU time stolen between two :func:`cpu_ticks`."""
    if before and after and after[0] > before[0]:
        return (after[1] - before[1]) / (after[0] - before[0])
    return 0.0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    path = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


# -- job samples -------------------------------------------------------------

@dataclass
class Job:
    """One finished job as the client saw it."""

    wall_s: float
    first_record_s: float
    grid: int = 0
    cell_s: List[float] = field(default_factory=list)
    cells: int = 0
    ok: bool = True
    digest: str = ""
    error: str = ""
    job_id: Optional[int] = None
    #: Highest RSS of any process that served the job (MiB).
    peak_rss_mib: float = 0.0
    #: Share of the machine's CPU time stolen by the hypervisor meanwhile.
    steal: float = 0.0
    #: A run of the same grid right after it takes its place in the
    #: medians (see :data:`STEAL_LIMIT`).
    replaced: bool = False


@dataclass
class RunResult:
    """Everything one timed window produced."""

    jobs: List[Job]
    wall_s: float
    #: Jobs ran one at a time (sweeps), not from concurrent clients.
    serial: bool = True
    setup_s: List[float] = field(default_factory=list)
    expected: Dict[int, str] = field(default_factory=dict)
    source: str = ""
    server_stats: Dict[str, Any] = field(default_factory=dict)
    server_jobs: List[Dict[str, Any]] = field(default_factory=list)
    polls: int = 0
    poll_hits: int = 0

    def grids(self) -> List[int]:
        return sorted({job.grid for job in self.jobs})

    def check(self) -> None:
        """Mark every job whose records do not match the reference."""
        expected = dict(self.expected)
        for job in self.jobs:
            if not job.ok:
                continue
            want = expected.setdefault(job.grid, job.digest)
            if job.digest != want:
                job.ok = False
                job.error = (f"grid {job.grid} record digest "
                             f"{job.digest[:16]} != {want[:16]} "
                             f"({self.source})")

    @property
    def failed(self) -> int:
        return sum(not job.ok for job in self.jobs)

    def measured(self) -> List[Job]:
        """The successful jobs the medians are taken over.

        Concurrent (serve) jobs under CPU steal are left out as long as
        at least half of the successful jobs remain. They all did the
        same work, so this changes no mix; a serve job lasts ~0.2 s, and
        a burst of steal moves the tail percentiles of a whole run.
        """
        ok = [job for job in self.jobs if job.ok and not job.replaced]
        if self.serial:
            return ok
        clean = [job for job in ok if job.steal <= STEAL_LIMIT]
        return clean if 2 * len(clean) >= len(ok) else ok

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        """The end-to-end metrics over the successful jobs.

        Serial jobs (sweeps) report rates as the median job's rate: a
        rare slow cell (an stp ``churn`` cell can take 10x the usual)
        would otherwise move a whole run's window rate by a third.
        Concurrent jobs (serve) report rates over the window, counting
        every successful job.
        """
        ok = self.measured()
        walls = [job.wall_s for job in ok]
        cells = [s for job in ok for s in job.cell_s]
        tail = tail_quantile(len(walls))
        if self.serial:
            cells_rate = percentile([job.cells / job.wall_s for job in ok],
                                    0.5)
            jobs_rate = percentile([1.0 / wall for wall in walls], 0.5)
        else:
            done = [job for job in self.jobs if job.ok]
            cells_rate = sum(job.cells for job in done) / self.wall_s
            jobs_rate = len(done) / self.wall_s
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "cells_per_s": (cells_rate, "cells/s"),
            "cell_s_p50": (percentile(cells, 0.5), "s"),
            "jobs_per_s": (jobs_rate, "jobs/s"),
            "job_s_p50": (percentile(walls, 0.5), "s"),
            "job_s_p90": (percentile(walls, tail), "s"),
            "first_record_s_p50": (
                percentile([job.first_record_s for job in ok], 0.5), "s"),
            "peak_rss_mib": (
                percentile([job.peak_rss_mib for job in ok], 0.5), "MiB"),
        }


# -- sweep workloads --------------------------------------------------------

SETUP_SNIPPET = (
    "import sys\n"
    "from repro.experiments import registry, runner\n"
    "registry.load_all()\n"
    "runner.expand_grid([sys.argv[1]], [0], {})\n")


def sweep_setup_s(workload: Workload) -> float:
    """One fresh process from start until a grid could be submitted."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_SNIPPET, workload.scenario],
                   env=child_env(), check=True, cwd=ROOT)
    return time.perf_counter() - start


def run_sweep_job(workload: Workload, cells: list, grid: int = 0) -> Job:
    """One grid through SweepRunner, in a child process of its own.

    The child gives each job its own peak RSS (the kernel keeps only a
    running maximum over all of a process's children). It is forked,
    as SweepRunner forks its pool workers, so it inherits the imported
    program and any installed tracing wrappers.
    """
    reader, writer = multiprocessing.Pipe(duplex=False)
    child = multiprocessing.Process(target=_sweep_job_main,
                                    args=(workload, cells, grid, writer))
    child.start()
    writer.close()
    try:
        job = reader.recv()
    except EOFError:
        job = Job(wall_s=0.0, first_record_s=0.0, grid=grid, ok=False,
                  error="job process died")
    finally:
        reader.close()
        child.join()
    return job


def _sweep_job_main(workload: Workload, cells: list, grid: int,
                    conn: Any) -> None:
    job = _sweep_job(workload, cells, grid)
    job.peak_rss_mib = peak_rss_mib()
    conn.send(job)
    conn.close()


def _sweep_job(workload: Workload, cells: list, grid: int) -> Job:
    from repro.experiments import runner
    from repro.metrics.report import record_line
    start = time.perf_counter()
    first: Optional[float] = None
    results = []
    for result in runner.SweepRunner(cells, jobs=workload.jobs).stream():
        if first is None and result.rows:
            first = time.perf_counter() - start
        results.append(result)
    wall = time.perf_counter() - start
    results.sort(key=lambda r: r.cell.index)
    lines = [record_line(row) for r in results for row in r.rows]
    if workload.invariant is not None:
        lines = strip_key(lines, workload.invariant)
    errors = [r.error for r in results if not r.ok]
    return Job(wall_s=wall, first_record_s=wall if first is None else first,
               grid=grid, cell_s=[r.elapsed for r in results],
               cells=len(results),
               ok=not errors and len(results) == len(cells),
               digest=digest(lines), error=(errors or [""])[0])


def run_sweep(workload: Workload, seed: int, seconds: float,
              grids: int, between: Optional[Callable[[Job], None]] = None,
              min_cycles: int = MIN_CYCLES) -> RunResult:
    """Whole cycles of one job per grid over *grids* grids, up to the
    cycle boundary nearest to *seconds* (at least *min_cycles*, unless
    past :data:`DEADLINE_S`).

    Every run so measures the same mix of grids, however fast the
    program is. A job under CPU steal is run once more (see
    :data:`STEAL_LIMIT`); both runs are checked, and the one under less
    steal is measured.
    """
    cells = [workload.cells(seed, grid) for grid in range(grids)]
    jobs: List[Job] = []
    start = time.perf_counter()
    cycles = 0
    while True:
        cycle_start = time.perf_counter()
        for grid in range(grids):
            for rerun in (False, True):
                job = _steal_timed_job(workload, cells[grid], grid)
                jobs.append(job)
                if between is not None:
                    between(job)
                if rerun:
                    first = jobs[-2]
                    if job.steal > first.steal:
                        first.replaced, job.replaced = False, True
                    break
                if not job.ok or job.steal <= STEAL_LIMIT or \
                        time.perf_counter() - start >= RERUN_WINDOW * seconds:
                    break
                job.replaced = True
        cycles += 1
        now = time.perf_counter()
        if now - start >= max(DEADLINE_S, 3 * seconds):
            break
        if cycles >= min_cycles and \
                now - start + (now - cycle_start) / 2 >= seconds:
            break
    return RunResult(jobs=jobs, wall_s=time.perf_counter() - start)


def _steal_timed_job(workload: Workload, cells: list, grid: int) -> Job:
    before = cpu_ticks()
    job = run_sweep_job(workload, cells, grid)
    job.steal = steal_share(before, cpu_ticks())
    return job


# -- serve workload -----------------------------------------------------------

def serve_spec(workload: Workload, seed: int) -> Dict[str, Any]:
    return {"scenario": workload.scenario,
            "seeds": workload.grid_seeds(seed), "set": workload.axes}


class Daemon:
    """``repro serve`` in its own process, on an ephemeral port."""

    def __init__(self, workdir: Path, trace_dir: Optional[Path] = None):
        self.workdir = workdir
        stamp = time.monotonic_ns()
        self.log = workdir / f"serve-{stamp}.log"
        db = workdir / f"serve-{stamp}.db"
        serve = ["serve", "--host", "127.0.0.1", "--port", "0",
                 "--db", str(db), "--log-file", str(self.log)]
        if trace_dir is None:
            argv = [sys.executable, "-m", "repro.cli"] + serve
        else:
            argv = [sys.executable, str(HERE / "tracedaemon.py"),
                    str(trace_dir)] + serve
        self.port = 0
        started = time.perf_counter()
        self.proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                     stdout=subprocess.DEVNULL)
        try:
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - started

    def _wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.proc.returncode}")
            if not self.port and self.log.exists():
                for line in self.log.read_text().splitlines():
                    if '"started"' in line:
                        self.port = int(json.loads(line)["port"])
            if self.port:
                conn = self.connect()
                try:
                    if request(conn, "GET", "/v1/health")[0] == 200:
                        return
                except OSError:
                    pass
                finally:
                    conn.close()
            time.sleep(0.002)
        raise RuntimeError("repro serve did not become ready")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=60)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def request(conn: http.client.HTTPConnection, method: str, path: str,
            body: Optional[Dict[str, Any]] = None
            ) -> Tuple[int, Dict[str, str], bytes]:
    payload = None if body is None else json.dumps(body).encode("utf-8")
    headers = {} if payload is None else {
        "Content-Type": "application/json"}
    conn.request(method, path, body=payload, headers=headers)
    response = conn.getresponse()
    data = response.read()
    return response.status, {k.lower(): v for k, v in
                             response.getheaders()}, data


class ServeClient:
    """One closed-loop client: submit, poll records to the end, repeat."""

    def __init__(self, daemon: Daemon, spec: Dict[str, Any], cells: int):
        self.daemon = daemon
        self.spec = spec
        self.cells = cells
        self.jobs: List[Job] = []
        self.polls = 0
        self.poll_hits = 0
        self.conn = daemon.connect()

    def run_job(self) -> Job:
        """POST the grid, then poll its records until the job is terminal
        and a poll brings nothing new: a poll can report a terminal
        state while records appended just before it are still unread
        (the daemon reads the state after fetching), so the first
        terminal response is not the end of the stream. The job's time
        ends at its last record."""
        ticks = cpu_ticks()
        start = time.perf_counter()
        first: Optional[float] = None
        last: Optional[float] = None
        try:
            status, _, data = request(self.conn, "POST", "/v1/jobs",
                                      self.spec)
            if status != 202:
                raise RuntimeError(f"POST /v1/jobs -> {status}")
            job_id = int(json.loads(data)["job"]["id"])
            body = b""
            offset = 0
            while True:
                status, headers, data = request(
                    self.conn, "GET",
                    f"/v1/jobs/{job_id}/records?offset={offset}")
                if status != 200:
                    raise RuntimeError(f"GET records -> {status}")
                self.polls += 1
                if data:
                    self.poll_hits += 1
                    last = time.perf_counter() - start
                    if first is None:
                        first = last
                    body += data
                offset = int(headers["x-next-offset"])
                state = headers["x-job-state"]
                if state in TERMINAL and not data:
                    break
                if not data:
                    time.sleep(POLL_S)
        except (OSError, http.client.HTTPException, RuntimeError,
                ValueError, KeyError) as error:
            self.conn.close()
            self.conn = self.daemon.connect()
            wall = time.perf_counter() - start
            return Job(wall_s=wall, first_record_s=wall, ok=False,
                       error=f"{type(error).__name__}: {error}")
        wall = time.perf_counter() - start if last is None else last
        return Job(wall_s=wall,
                   first_record_s=wall if first is None else first,
                   cells=self.cells, ok=state == "completed",
                   digest=hashlib.sha256(body).hexdigest(),
                   error="" if state == "completed" else f"job {state}",
                   job_id=job_id, steal=steal_share(ticks, cpu_ticks()))

    def loop(self, until: float) -> None:
        while time.perf_counter() < until or not self.jobs:
            self.jobs.append(self.run_job())

    def close(self) -> None:
        self.conn.close()


def serve_setup_s(workdir: Path) -> float:
    """One fresh daemon from process start until it answers HTTP."""
    daemon = Daemon(workdir)
    daemon.stop()
    return daemon.ready_s


def drive_serve(daemon: Daemon, workload: Workload, seed: int,
                seconds: float, observe: bool) -> RunResult:
    """Closed-loop clients against a running daemon for *seconds*.

    *observe* also reads the daemon's own counters (``/v1/stats``, job
    timestamps) after the window; the traced run uses them.
    """
    spec = serve_spec(workload, seed)
    clients = [ServeClient(daemon, spec, cells=workload.seeds)
               for _ in range(SERVE_CLIENTS)]
    start = time.perf_counter()
    threads = [threading.Thread(target=client.loop,
                                args=(start + seconds,))
               for client in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    jobs = [job for client in clients for job in client.jobs]
    result = RunResult(jobs=jobs, wall_s=wall, serial=False,
                       polls=sum(c.polls for c in clients),
                       poll_hits=sum(c.poll_hits for c in clients))
    conn = clients[0].conn
    if observe:
        _, _, data = request(conn, "GET", "/v1/stats")
        result.server_stats = json.loads(data)
        _, _, data = request(conn, "GET", "/v1/jobs?limit=1000")
        result.server_jobs = json.loads(data)["jobs"]
    else:
        step = max(len(jobs) // SUMMARY_SAMPLE, 1)
        for job in jobs[::step]:
            if job.job_id is None:
                continue
            status, _, data = request(
                conn, "GET", f"/v1/jobs/{job.job_id}/summary")
            if status == 200:
                job.cell_s = [cell["elapsed_s"] for cell in
                              json.loads(data)["summary"]["cells"]]
    for client in clients:
        client.close()
    return result
