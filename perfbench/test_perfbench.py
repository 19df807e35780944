"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

import hashlib
import importlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import tracing
import workloads as wl
from repro.experiments import registry, runner
from repro.metrics.report import record_line

registry.load_all()

TINY = {"kind": ["grid"], "sizes": [9], "protocols": ["arppath"],
        "pairs": [1], "probes": [1]}


class FakeClock:
    """perf_counter stand-in that moves only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_wrapped_calls(tmp_path, monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracing.time, "perf_counter", clock)
    recorder = tracing.Recorder(str(tmp_path))

    def leaf():
        clock.now += 2.0

    wrapped_leaf = recorder.wrap("b:leaf", leaf)

    def middle():
        clock.now += 1.0
        wrapped_leaf()
        wrapped_leaf()

    wrapped_middle = recorder.wrap("a:middle", middle)

    def outer():
        clock.now += 0.5
        wrapped_middle()
        clock.now += 0.25

    recorder.wrap("a:outer", outer)()
    spans = recorder.snapshot()["spans"]
    assert spans["b:leaf"] == [2, 4.0, 4.0]
    assert spans["a:middle"] == [1, 5.0, 1.0]
    assert spans["a:outer"] == [1, 5.75, 0.75]
    # Self times add up to the outermost span's time.
    assert sum(row[2] for row in spans.values()) == 5.75
    assert tracing._layer_self(spans, "a") == 1.75


def test_uninstall_restores_every_original(tmp_path):
    originals = {}
    for module_name, path, *_ in tracing.TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        originals[(module_name, path)] = owner.__dict__.get(attr)
    shard = importlib.import_module("repro.netsim.shard")
    shard_pack = shard.pack_frame
    execute_cell = runner.execute_cell

    recorder = tracing.Recorder(str(tmp_path)).install()
    try:
        from repro.netsim.link import Link
        assert hasattr(Link.transmit, "__wrapped__")
        assert shard.pack_frame is not shard_pack
        assert runner.execute_cell is not execute_cell
    finally:
        recorder.uninstall()

    assert recorder.patched() == []
    for (module_name, path), original in originals.items():
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        assert owner.__dict__.get(attr) is original, path
    assert shard.pack_frame is shard_pack
    assert runner.execute_cell is execute_cell


def _rows(cells, jobs):
    report = runner.SweepRunner(cells, jobs=jobs).run()
    assert report.ok
    return [record_line(row) for row in report.rows()]


def test_traced_pool_run_reports_worker_spans_and_same_records(tmp_path):
    cells = runner.expand_grid(["scale"], [1, 2], TINY)
    plain = _rows(cells, jobs=2)
    recorder = tracing.Recorder(str(tmp_path)).install()
    try:
        traced = _rows(cells, jobs=2)
        totals = recorder.collect()
    finally:
        recorder.uninstall()
    assert traced == plain
    spans = totals["spans"]
    # Both cells ran in forked pool workers; their spans came back.
    assert spans["experiments.runner:execute_cell"][0] == 2
    assert spans["netsim.link:transmit"][0] > 0
    assert totals["counts"]["records"] == len(plain)
    assert len(totals["cells"]) == 2
    assert list(tmp_path.iterdir()) == []  # collected files are removed


def test_deterministic_counts_repeat_and_drift_is_flagged(tmp_path):
    cells = runner.expand_grid(["scale"], [3], TINY)
    recorder = tracing.Recorder(str(tmp_path)).install()
    try:
        grids = []
        for _ in range(2):
            _rows(cells, jobs=1)
            grids.append(recorder.collect())
    finally:
        recorder.uninstall()
    per_job = [tracing.deterministic_counts(g["spans"], g["counts"])
               for g in grids]
    totals = tracing.merge(tracing.merge({}, grids[0]), grids[1])
    assert per_job[0] == per_job[1]
    assert tracing.drift(per_job, totals) == []
    changed = [list(per_job[0]), list(per_job[1])]
    changed[1][0] += 1
    assert len(tracing.drift(changed, totals)) == 1
    totals["cells"][1][1][1] += 1
    assert any("cell" in p for p in tracing.drift(per_job, totals))


def test_digest_check_rejects_one_altered_byte():
    lines = _rows(runner.expand_grid(["proxy"], [0, 1],
                                     wl.SERVE_AXES), jobs=1)
    good = wl.ndjson(lines)
    bad = bytearray(good)
    bad[len(bad) // 2] ^= 0x01
    result = wl.RunResult(
        jobs=[wl.Job(wall_s=1.0, first_record_s=0.5,
                     digest=hashlib.sha256(body).hexdigest())
              for body in (good, bytes(bad), good)],
        wall_s=3.0, expected={0: wl.digest(lines)}, source="test")
    result.check()
    assert [job.ok for job in result.jobs] == [True, False, True]
    assert result.failed == 1


def test_each_grid_repeats_its_first_digest_without_a_pin():
    result = wl.RunResult(
        jobs=[wl.Job(wall_s=1.0, first_record_s=1.0, grid=g, digest=d)
              for g, d in ((0, "aa"), (1, "bb"), (0, "aa"), (1, "ab"))],
        wall_s=4.0)
    result.check()
    assert [job.ok for job in result.jobs] == [True, True, True, False]


def test_sweep_runs_whole_cycles_and_reruns_a_job_under_steal(monkeypatch):
    # Each job takes 1 s of a 3 s window. CPU ticks (all, steal) are read
    # before and after each job: the second job of each cycle sees 10%
    # steal, and only the one inside the window is run again.
    steals = iter([0, 0, 0, 10, 10, 10, 10, 10, 10, 20])
    total = iter(range(0, 1000, 100))
    monkeypatch.setattr(wl, "cpu_ticks",
                        lambda: (next(total), next(steals)))
    clock = FakeClock()
    monkeypatch.setattr(wl.time, "perf_counter", clock)

    def job(workload, cells, grid):
        clock.now += 1.0
        return wl.Job(wall_s=1.0, first_record_s=1.0, grid=grid)
    monkeypatch.setattr(wl, "run_sweep_job", job)
    tiny = wl.Workload("tiny", "scale", TINY, seeds=1, grids=2, jobs=1)
    result = wl.run_sweep(tiny, 5, 3.0, grids=2)
    assert [job.grid for job in result.jobs] == [0, 1, 1, 0, 1]
    assert [job.replaced for job in result.jobs] == [
        False, True, False, False, False]
    assert [job.grid for job in result.measured()] == [0, 1, 0, 1]
    assert result.jobs[-1].steal == pytest.approx(0.1)

    # Of a job and its re-run, the one under less steal counts.
    steals = iter([0, 10, 10, 30, 30, 30])
    total = iter(range(0, 1000, 100))
    clock.now = 0.0
    one = wl.Workload("one", "scale", TINY, seeds=1, grids=1, jobs=1)
    result = wl.run_sweep(one, 5, 3.0, grids=1)
    assert [job.steal for job in result.jobs] == pytest.approx(
        [0.1, 0.2, 0.0])
    assert [job.replaced for job in result.jobs] == [False, True, False]

    # A first cycle that overruns the deadline is the only one.
    monkeypatch.setattr(wl, "cpu_ticks", lambda: None)
    clock.now = 0.0
    # One cycle is enough where each grid is checked against the same
    # cells without the invariant axis.
    sharded = wl.Workload("sharded", "scale", dict(TINY, shards=[2]), seeds=1,
                          grids=4, jobs=1, invariant="shards")
    assert (tiny.min_cycles, sharded.min_cycles) == (2, 1)
    assert len(wl.run_sweep(sharded, 5, 3.0, grids=4,
                            min_cycles=sharded.min_cycles).jobs) == 4
    assert len(wl.run_sweep(sharded, 5, 3.0, grids=4).jobs) == 8
    clock.now = 0.0
    slow = wl.Workload("slow", "scale", TINY, seeds=1, grids=61, jobs=1)
    assert len(wl.run_sweep(slow, 5, 3.0, grids=61).jobs) == 61


def test_serve_latencies_leave_out_jobs_under_steal_while_half_remain():
    def run(steals):
        return wl.RunResult(jobs=[
            wl.Job(wall_s=1.0 + 10 * steal, first_record_s=1.0, cells=1,
                   cell_s=[1.0], steal=steal) for steal in steals],
            wall_s=10.0, serial=False, setup_s=[1.0])
    noisy = run([0.0, 0.1, 0.0, 0.0])
    assert len(noisy.measured()) == 3
    metrics = noisy.end_to_end()
    assert metrics["job_s_p90"][0] == pytest.approx(1.0)
    assert metrics["jobs_per_s"][0] == pytest.approx(0.4)  # all 4 jobs
    assert len(run([0.1, 0.1, 0.1, 0.0]).measured()) == 4


class _FakeDaemon:
    """Just enough of workloads.Daemon for a ServeClient."""

    def __init__(self, handler):
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()

    def connect(self):
        return wl.Daemon.connect(self)

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()


def _handler(submit_status, final_state="completed"):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, *args):
            pass

        def _reply(self, status, body, headers=()):
            self.send_response(status)
            self.send_header("Content-Length", str(len(body)))
            for key, value in headers:
                self.send_header(key, value)
            self.end_headers()
            self.wfile.write(body)

        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            self._reply(submit_status, json.dumps(
                {"job": {"id": 1}}).encode())

        def do_GET(self):
            # Two records; the first poll already says the job is
            # terminal but carries only one of them.
            offset = int(self.path.rpartition("=")[2])
            body = [b'{"a":1}\n', b'{"b":2}\n', b""][min(offset, 2)]
            self._reply(200, body, [("X-Job-State", final_state),
                                    ("X-Next-Offset",
                                     str(offset + (1 if body else 0)))])
    return Handler


@pytest.mark.parametrize("status,state,ok", [
    (202, "completed", True),
    (500, "completed", False),   # HTTP error on submit
    (202, "failed", False),      # the job itself failed
])
def test_serve_client_counts_http_errors_as_failed_jobs(status, state, ok):
    daemon = _FakeDaemon(_handler(status, state))
    try:
        client = wl.ServeClient(daemon, {"scenario": "proxy"}, cells=1)
        job = client.run_job()
        client.close()
    finally:
        daemon.close()
    assert job.ok is ok
    if ok:
        # Polling went on past the first terminal response.
        assert job.digest == hashlib.sha256(
            b'{"a":1}\n{"b":2}\n').hexdigest()
        assert client.polls == 3


def test_tail_quantile_keeps_ten_samples_beyond():
    assert wl.tail_quantile(200) == 0.9
    assert wl.tail_quantile(50) == pytest.approx(0.8)
    assert wl.tail_quantile(6) == 0.5


def test_histogram_p50_interpolates_inside_the_bucket():
    stats = {"latency": {"/a": {"buckets_ms": [1.0, 2.0, 5.0, "+inf"],
                                "counts": [0, 4, 4, 0]}}}
    assert tracing.histogram_p50(stats) == pytest.approx(2.0)
    stats["latency"]["/a"]["counts"] = [0, 2, 6, 0]
    assert tracing.histogram_p50(stats) == pytest.approx(3.0)


def test_metric_names_match_benchmark_json():
    with open(wl.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    result = wl.RunResult(jobs=[wl.Job(wall_s=1.0, first_record_s=1.0,
                                       cells=1, cell_s=[1.0])],
                          wall_s=1.0, setup_s=[1.0])
    emitted = {name: unit for name, (_, unit) in
               result.end_to_end().items()}
    assert emitted == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = tracing.layer_metrics({}, 1, 1.0, 1)
    emitted = {name: unit for name, (_, unit) in layers.items()}
    emitted.update({"trace.overhead": "ratio", "trace.drift": "count"})
    assert emitted == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert sorted(w["name"] for w in spec["workloads"]) \
        == sorted(wl.WORKLOADS)


def test_timed_run_fails_a_job_whose_records_differ(tmp_path, monkeypatch):
    import run
    tiny = wl.Workload("tiny", "scale", TINY, seeds=1, grids=2, jobs=1)
    monkeypatch.setattr(wl, "SETUP_REPEATS", 1)
    result, metrics = run.timed(tiny, 5, 0.0, tmp_path)
    assert [job.grid for job in result.jobs] == [0, 1, 0, 1]
    assert result.failed == 0 and result.source == "each grid's first run"
    monkeypatch.setattr(wl, "expected_digests",
                        lambda *args: ({0: "0" * 64}, "a wrong pin"))
    result, metrics = run.timed(tiny, 5, 0.0, tmp_path)
    assert [job.ok for job in result.jobs] == [False, True, False, True]
