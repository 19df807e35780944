"""The repository benchmark: one workload per run, or all of them.

    python3 perfbench/run.py --workload population --seed 0 --seconds 20
    python3 perfbench/run.py --workload serve --seed 7 --trace 1
    python3 perfbench/run.py --workload all

With ``--trace 0`` a run times the workload for ``--seconds`` and
reports the end-to-end metrics; with ``--trace 1`` it runs one job
untraced, then wraps every layer (:mod:`tracing`) and reports per-layer
metrics per job, the tracing overhead and any drift in counts that
must repeat exactly. Every job's records are checked first; the last
line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import workloads as wl
from workloads import ROOT, Workload

#: Where runs keep scratch files and the counts of earlier traced runs.
STATE = ROOT / ".perfbench"

Metrics = Dict[str, Tuple[float, str]]


def code_hash() -> str:
    """Identifies the program and benchmark code a traced run measured."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", wl.HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def setup_samples(workload: Workload, workdir: Path) -> List[float]:
    if workload.name == "serve":
        return [wl.serve_setup_s(workdir) for _ in range(wl.SETUP_REPEATS)]
    return [wl.sweep_setup_s(workload) for _ in range(wl.SETUP_REPEATS)]


def timed(workload: Workload, seed: int, seconds: float,
          workdir: Path) -> Tuple[wl.RunResult, Metrics]:
    """The untraced run: end-to-end metrics."""
    setups = setup_samples(workload, workdir)
    if workload.name == "serve":
        daemon = wl.Daemon(workdir)
        try:
            result = wl.drive_serve(daemon, workload, seed, seconds,
                                    observe=False)
        finally:
            daemon.stop()
    else:
        result = wl.run_sweep(workload, seed, seconds, workload.grids,
                              min_cycles=workload.min_cycles)
    result.setup_s = setups
    if workload.name == "serve":
        peak = wl.peak_rss_mib()  # one daemon served every job
        for job in result.jobs:
            job.peak_rss_mib = peak
    result.expected, result.source = wl.expected_digests(
        workload, seed, result.grids())
    result.check()
    return result, result.end_to_end()


def traced(workload: Workload, seed: int, seconds: float,
           workdir: Path) -> Tuple[wl.RunResult, Metrics, List[str]]:
    """The traced run: per-layer metrics, overhead and drift."""
    import tracing
    spans_dir = workdir / "spans"
    spans_dir.mkdir()
    if workload.name == "serve":
        plain, result, totals, per_job = traced_serve(
            workload, seed, seconds, workdir, spans_dir)
        serve = {"stats": result.server_stats, "jobs": result.server_jobs,
                 "polls": result.polls, "poll_hits": result.poll_hits}
        pool = 2  # the daemon's default job workers
    else:
        plain, result, totals, per_job = traced_sweep(
            workload, seed, seconds, spans_dir)
        serve, pool = None, workload.jobs
    result.jobs += plain.jobs
    result.expected, result.source = wl.expected_digests(workload, seed,
                                                         [0])
    result.check()
    traced_jobs = len(result.jobs) - len(plain.jobs)
    metrics = tracing.layer_metrics(totals, traced_jobs, result.wall_s,
                                    pool, serve)
    overhead = (statistics.median(j.wall_s for j in result.jobs[:traced_jobs])
                / statistics.median(j.wall_s for j in plain.jobs))
    spans = STATE / f"spans-{workload.name}-{seed}.json"
    spans.write_text(json.dumps(totals, indent=1, sort_keys=True))
    print(f"spans (name: [calls, total s, self s]) and counts: {spans}")
    problems = tracing.drift(per_job, totals)
    problems += cross_run_drift(workload, seed, per_job[0])
    metrics["trace.overhead"] = (overhead, "ratio")
    metrics["trace.drift"] = (float(len(problems)), "count")
    return result, metrics, problems


def traced_sweep(workload: Workload, seed: int, seconds: float,
                 spans_dir: Path):
    import tracing
    cells = workload.cells(seed)
    plain_job = wl.run_sweep_job(workload, cells)
    plain = wl.RunResult(jobs=[plain_job], wall_s=plain_job.wall_s)
    recorder = tracing.Recorder(str(spans_dir)).install()
    per_grid: List[Dict[str, Any]] = []
    try:
        result = wl.run_sweep(
            workload, seed, max(seconds - plain_job.wall_s, 0.0), grids=1,
            between=lambda job: per_grid.append(recorder.collect()))
    finally:
        recorder.uninstall()
    totals: Dict[str, Any] = {}
    for grid in per_grid:
        tracing.merge(totals, grid)
    per_job = [tracing.deterministic_counts(g["spans"], g["counts"])
               for g in per_grid]
    return plain, result, totals, per_job


def traced_serve(workload: Workload, seed: int, seconds: float,
                 workdir: Path, spans_dir: Path):
    import tracing
    daemon = wl.Daemon(workdir)
    try:
        plain = wl.drive_serve(daemon, workload, seed, seconds / 3,
                               observe=False)
    finally:
        daemon.stop()
    daemon = wl.Daemon(workdir, trace_dir=spans_dir)
    try:
        result = wl.drive_serve(daemon, workload, seed, seconds * 2 / 3,
                                observe=True)
    finally:
        daemon.stop()
    totals = tracing.Recorder(str(spans_dir)).collect()
    jobs = max(len(result.jobs), 1)
    per_job = [[value / jobs for value in tracing.deterministic_counts(
        totals.get("spans", {}), totals.get("counts", {}))]]
    return plain, result, totals, per_job


def cross_run_drift(workload: Workload, seed: int,
                    counts: List[float]) -> List[str]:
    """Compare one job's counts with an earlier traced run of the same
    code, workload and seed in this checkout (recording them if none)."""
    path = STATE / "counts" / f"{code_hash()}-{workload.name}-{seed}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != counts:
            return [f"counts {counts} != {earlier} from an earlier run "
                    f"of the same code ({path.name})"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts))
    return []


def report(name: str, seed: int, result: wl.RunResult, metrics: Metrics,
           problems: List[str]) -> Dict[str, Any]:
    """Print the readable report and return the result object."""
    ok_jobs = [job for job in result.jobs if job.ok]
    digests = sorted({job.digest for job in ok_jobs})
    print(f"workload {name}  seed {seed}  jobs {len(result.jobs)}  "
          f"window {result.wall_s:.2f}s")
    print(f"records sha256 {' '.join(digests) or '-'}  "
          f"(checked against {result.source}"
          f"{', pinned default seed' if seed == wl.DEFAULT_SEED else ''})")
    print("job seconds (CPU steal) " + " ".join(
        f"{job.wall_s:.3f}({job.steal:.1%})" for job in result.jobs[:50]))
    rerun = sum(job.replaced for job in result.jobs)
    left_out = len([job for job in result.jobs if job.ok]) - rerun \
        - len(result.measured())
    if rerun or left_out:
        print(f"{rerun} jobs run again and {left_out} left out of the "
              f"medians: CPU steal above {wl.STEAL_LIMIT:.0%} while they "
              f"ran")
    for job in result.jobs:
        if not job.ok:
            print(f"FAILED job: {job.error}")
    for problem in problems:
        print(f"DRIFT {problem}")
    failed = result.failed
    attempted = max(len(result.jobs), 1)
    print(f"  {'fail_ratio':<36} {failed / attempted:>14.6g} ratio")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<36} {value:>14.6g} {unit}")
    return {"correct": failed == 0 and not problems,
            "attempted": attempted, "failed": failed,
            "metrics": {key: {"value": value, "unit": unit}
                        for key, (value, unit) in metrics.items()}}


def run_one(args: argparse.Namespace) -> Dict[str, Any]:
    workload = wl.WORKLOADS[args.workload]
    workdir = STATE / f"run-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            result, metrics, problems = traced(workload, args.seed,
                                               args.seconds, workdir)
        else:
            result, metrics = timed(workload, args.seed, args.seconds,
                                    workdir)
            problems = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report(workload.name, args.seed, result, metrics, problems)


def run_all(args: argparse.Namespace) -> Dict[str, Any]:
    """Every workload in its own process; metrics keyed workload.metric."""
    combined: Dict[str, Any] = {"correct": True, "attempted": 0,
                                "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        part = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for key, value in part["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def _exit_on_sigterm(signum: int, frame: Any) -> None:
    """SIGTERM unwinds the main process, so ``finally`` blocks stop the
    daemon and pool; forked children die as they would by default."""
    if os.getpid() != _MAIN_PID:
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)
        return
    raise SystemExit(128 + signum)


_MAIN_PID = os.getpid()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(wl.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED,
                        help="workload seed; the records of the default "
                             "seed are pinned in digests.json")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer traced run")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from repro.experiments import registry
    registry.load_all()
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
