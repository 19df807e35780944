"""Per-layer tracing for the benchmark, from outside the program.

:meth:`Recorder.install` wraps the public entry points of each layer (listed in
:data:`TARGETS`) at class or module level, before a workload builds
anything; :meth:`Recorder.uninstall` puts every original back. Nothing
under ``src/`` is edited: the wrappers time each call, keep a stack of
open spans per thread, and charge a span's time minus its children's
to the span as *self* time. Spans are aggregated in memory per name
(calls, total seconds, self seconds) — per-call records would not fit
in memory at millions of frame hops — and written out at the end.

Spans leave other processes as JSON files in the recorder's directory:

* forked pool workers write one file per cell (the pool terminates its
  workers, so nothing written at exit would survive);
* other forked children (shard processes) write one at exit;
* the traced serve daemon (:mod:`tracedaemon`) writes one at exit.

:meth:`Recorder.collect` merges the parent's own spans with every
file and deletes the files, so each collection covers the work done
since the previous one.
"""

from __future__ import annotations

import importlib
import itertools
import json
import multiprocessing.util
import os
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The counts that must repeat exactly for the same inputs and code.
DETERMINISTIC = ("netsim.engine.events", "netsim.link.transmits",
                 "core.table.ops", "netsim.shard.rounds",
                 "server.store.appends", "records")

_TABLE_OPS = ("get", "lock", "learn", "confirm", "refresh_lock", "remove",
              "guard_port", "set_guard", "flush_port", "expire")
_FAMILY_HOOKS = ("on_arp", "on_unicast", "on_broadcast", "on_control")
_BUILDER_OPS = ("add_bridge", "add_bridges", "add_host", "add_population",
                "link", "attach", "finalize_topology")


def _engine_before(args: tuple) -> Tuple[int, int, int]:
    sim = args[0]
    counts = sim.tracer.counts
    return sim.events_processed, counts["delivered"], counts["drop_queue"]


def _engine_after(state: "_ThreadState", args: tuple, result: Any,
                  before: Tuple[int, int, int]) -> None:
    # Tracer counters are reset between phases by some experiments, so
    # only the change within one run() call is trusted.
    now = _engine_before(args)
    counts = state.counts
    for key, new, old in zip(("engine.events", "link.delivered",
                              "link.queue_drops"),
                             now, before):
        counts[key] = counts.get(key, 0) + new - old


def _table_get_after(state: "_ThreadState", args: tuple, result: Any,
                     before: None) -> None:
    if result is not None:
        state.counts["table.hits"] = state.counts.get("table.hits", 0) + 1


def _arm_after(state: "_ThreadState", args: tuple, result: Any,
               before: None) -> None:
    state.counts["dynamics.events"] = \
        state.counts.get("dynamics.events", 0) + int(result)


def _append_after(state: "_ThreadState", args: tuple, result: Any,
                  before: None) -> None:
    job_id = str(args[1])
    state.job_appends[job_id] = state.job_appends.get(job_id, 0) + 1


#: (module, attribute path, span name, before hook, after hook). The
#: part of a span name before ``:`` is the layer, named after its module.
TARGETS: List[Tuple[str, str, str, Optional[Callable], Optional[Callable]]]
TARGETS = [
    ("repro.netsim.engine", "Simulator.run", "netsim.engine:run",
     _engine_before, _engine_after),
    ("repro.netsim.engine", "Simulator.run_below",
     "netsim.engine:run_below", _engine_before, _engine_after),
    ("repro.netsim.link", "Link.transmit", "netsim.link:transmit",
     None, None),
    ("repro.switching.base", "Bridge.handle_frame",
     "switching.base:handle_frame", None, None),
]
TARGETS += [(module, f"{cls}.{hook}", f"{layer}:{hook}", None, None)
            for module, cls, layer in (
                ("repro.core.bridge", "ArpPathBridge", "core.bridge"),
                ("repro.stp.bridge", "StpBridge", "stp.bridge"),
                ("repro.spb.bridge", "SpbBridge", "spb.bridge"),
                ("repro.switching.controller.bridge", "ControllerBridge",
                 "switching.controller"))
            for hook in _FAMILY_HOOKS]
TARGETS += [("repro.core.table", f"LockedAddressTable.{op}",
             f"core.table:{op}", None,
             _table_get_after if op == "get" else None)
            for op in _TABLE_OPS]
TARGETS += [
    ("repro.netsim.aging", "AgingStore.get", "netsim.aging:get",
     None, None),
    ("repro.hosts.host", "Host.handle_frame", "hosts.host:handle_frame",
     None, None),
    ("repro.hosts.population", "HostPopulation.handle_frame",
     "hosts.population:handle_frame", None, None),
    ("repro.netsim.shard", "ShardRuntime.run_until",
     "netsim.shard:run_until", None, None),
    ("repro.netsim.shard", "ProgressBoard.update", "netsim.shard:round",
     None, None),
    ("repro.netsim.sync", "Endpoint.send", "netsim.sync:send", None, None),
    ("repro.netsim.sync", "Endpoint.recv", "netsim.sync:recv", None, None),
    ("repro.netsim.sync", "pack_frame", "netsim.sync:pack_frame",
     None, None),
    ("repro.core.repair", "RepairManager.start", "core.repair:start",
     None, None),
    ("repro.core.repair", "RepairManager.complete", "core.repair:complete",
     None, None),
    ("repro.netsim.dynamics", "EventTimeline.arm", "netsim.dynamics:arm",
     None, _arm_after),
    ("repro.server.store", "Store.append_records", "server.store:append",
     None, _append_after),
    ("repro.server.store", "Store.fetch_records", "server.store:fetch",
     None, None),
]
TARGETS += [("repro.topology.builder", f"Network.{op}",
             f"topology.builder:{op}", None, None) for op in _BUILDER_OPS]
# execute_cell is added by Recorder.install: its hook needs the recorder.


class _ThreadState:
    """One thread's open-span stack and accumulators."""

    __slots__ = ("stack", "spans", "counts", "cells", "job_appends")

    def __init__(self) -> None:
        self.stack: List[float] = []
        self.clear()

    def clear(self) -> None:
        self.spans: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self.cells: List[Tuple[str, List[float]]] = []
        self.job_appends: Dict[str, int] = {}

    def deterministic(self) -> List[float]:
        """This thread's :data:`DETERMINISTIC` counts so far."""
        return deterministic_counts(self.spans, self.counts)


def _calls(spans: Dict[str, List[float]], prefix: str) -> float:
    return sum(row[0] for name, row in spans.items()
               if name.startswith(prefix))


def deterministic_counts(spans: Dict[str, List[float]],
                         counts: Dict[str, float]) -> List[float]:
    """Values of :data:`DETERMINISTIC`, in order, from raw accumulators."""
    return [counts.get("engine.events", 0),
            _calls(spans, "netsim.link:transmit"),
            _calls(spans, "core.table:"),
            _calls(spans, "netsim.shard:round"),
            _calls(spans, "server.store:append"),
            counts.get("records", 0)]


def merge(into: Dict[str, Any], part: Dict[str, Any]) -> Dict[str, Any]:
    """Add one snapshot (:meth:`Recorder.snapshot` shape) into another."""
    spans = into.setdefault("spans", {})
    for name, row in part.get("spans", {}).items():
        total = spans.setdefault(name, [0, 0.0, 0.0])
        for i in range(3):
            total[i] += row[i]
    counts = into.setdefault("counts", {})
    for key, value in part.get("counts", {}).items():
        counts[key] = counts.get(key, 0) + value
    into.setdefault("cells", []).extend(part.get("cells", []))
    appends = into.setdefault("job_appends", {})
    for key, value in part.get("job_appends", {}).items():
        appends[key] = appends.get(key, 0) + value
    return into


class Recorder:
    """Installs the wrappers and owns this process's accumulators."""

    def __init__(self, outdir: str):
        self.outdir = outdir
        self.forked = False
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._originals: List[Tuple[Any, str, Any]] = []
        self._flushes = itertools.count()

    # -- accumulators ---------------------------------------------------

    def _state(self) -> _ThreadState:
        state = _ThreadState()
        self._local.state = state
        with self._states_lock:
            self._states.append(state)
        return state

    def snapshot(self) -> Dict[str, Any]:
        """This process's merged accumulators, which are then cleared."""
        out: Dict[str, Any] = {}
        with self._states_lock:
            for state in self._states:
                merge(out, {"spans": state.spans, "counts": state.counts,
                            "cells": state.cells,
                            "job_appends": state.job_appends})
                state.clear()
        return json.loads(json.dumps(out))  # detach from live lists

    def flush(self) -> None:
        """Write this process's accumulators to a file and clear them."""
        data = self.snapshot()
        if not data.get("spans"):
            return
        name = f"{os.getpid()}-{next(self._flushes)}.json"
        tmp = os.path.join(self.outdir, "." + name)
        with open(tmp, "w") as handle:
            json.dump(data, handle)
        os.replace(tmp, os.path.join(self.outdir, name))

    def collect(self) -> Dict[str, Any]:
        """Own accumulators plus every other process's flushed file."""
        out = self.snapshot()
        for name in sorted(os.listdir(self.outdir)):
            if not name.endswith(".json") or name.startswith("."):
                continue
            path = os.path.join(self.outdir, name)
            with open(path) as handle:
                merge(out, json.load(handle))
            os.unlink(path)
        return out

    def _after_fork(self) -> None:
        # The child inherits the parent's totals; it reports only its
        # own work, once per cell (pool workers) or at exit.
        if not self._originals:
            return  # uninstalled: later forks are untraced
        self.forked = True
        self._flushes = itertools.count()
        for state in self._states:
            state.clear()
        multiprocessing.util.Finalize(None, self.flush, exitpriority=10)

    # -- wrapping -------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """*fn* timed as span *name*, with optional counting hooks."""
        local = self._local
        new_state = self._state
        perf = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            token = before(args) if before is not None else None
            stack = state.stack
            stack.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                row = state.spans.get(name)
                if row is None:
                    row = state.spans[name] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - child
            if after is not None:
                after(state, args, result, token)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def _cell_before(self, args: tuple) -> List[float]:
        # The wrapper has already made this thread's state.
        return self._local.state.deterministic()

    def _cell_after(self, state: _ThreadState, args: tuple, result: Any,
                    start: List[float]) -> None:
        counts = state.counts
        counts["records"] = counts.get("records", 0) + len(result.rows)
        counts["runner.busy_s"] = \
            counts.get("runner.busy_s", 0.0) + result.elapsed
        delta = [b - a for a, b in zip(start, state.deterministic())]
        state.cells.append((result.cell.label(), delta))
        if self.forked:
            self.flush()

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> "Recorder":
        """Wrap every target. Call before the workload builds anything."""
        targets = TARGETS + [("repro.experiments.runner", "execute_cell",
                              "experiments.runner:execute_cell",
                              self._cell_before, self._cell_after)]
        for module_name, path, span, before, after in targets:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                if attr in _FAMILY_HOOKS and attr not in owner.__dict__:
                    continue  # inherited; the family does not override it
                self._patch(owner, attr, self.wrap(
                    span, owner.__dict__[attr], before, after))
                continue
            original = getattr(module, path)
            wrapped = self.wrap(span, original, before, after)
            # A function imported by name elsewhere is bound there too.
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("repro") \
                        and other.__dict__.get(path) is original:
                    self._patch(other, path, wrapped)
        multiprocessing.util.register_after_fork(self, Recorder._after_fork)
        return self

    def uninstall(self) -> None:
        """Put back every original attribute, newest patch first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def patched(self) -> List[Tuple[Any, str, Any]]:
        """(owner, attribute, original) for every live patch."""
        return list(self._originals)


# -- per-layer metrics ------------------------------------------------------

def _layer_self(spans: Dict[str, List[float]], layer: str) -> float:
    return sum(row[2] for name, row in spans.items()
               if name.split(":")[0] == layer)


def _layer_total(spans: Dict[str, List[float]], prefix: str) -> float:
    return sum(row[1] for name, row in spans.items()
               if name.startswith(prefix))


def histogram_p50(stats: Dict[str, Any]) -> float:
    """Median request latency (ms) from ``GET /v1/stats`` histograms,
    interpolated linearly inside the bucket that holds it."""
    bounds: List[float] = []
    counts: List[int] = []
    for route in stats.get("latency", {}).values():
        if not bounds:
            bounds = [float(b) for b in route["buckets_ms"][:-1]]
            counts = [0] * len(route["counts"])
        counts = [a + b for a, b in zip(counts, route["counts"])]
    total = sum(counts)
    if not total:
        return 0.0
    target = total / 2.0
    seen = 0
    for index, count in enumerate(counts):
        if count and seen + count >= target:
            low = bounds[index - 1] if index else 0.0
            high = bounds[index] if index < len(bounds) else low
            return low + (high - low) * (target - seen) / count
        seen += count
    return bounds[-1]


def layer_metrics(totals: Dict[str, Any], jobs: int, wall_s: float,
                  pool: int, serve: Optional[Dict[str, Any]] = None
                  ) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics per job from merged traced accumulators.

    *wall_s* is the traced window, *pool* the number of cells that can
    run at once. *serve* carries what only the serve workload has:
    ``stats`` (``GET /v1/stats``), ``jobs`` (job rows with their
    timestamps), ``polls`` and ``poll_hits`` (client record polls).
    """
    spans = totals.get("spans", {})
    counts = totals.get("counts", {})
    per = max(jobs, 1)
    cells = max(_calls(spans, "experiments.runner:"), 1)
    events = counts.get("engine.events", 0)
    engine_s = _layer_total(spans, "netsim.engine:")
    transmits = _calls(spans, "netsim.link:transmit")
    gets = _calls(spans, "core.table:get")
    rounds = _calls(spans, "netsim.shard:round")
    busy = counts.get("runner.busy_s", 0.0)
    serve = serve or {}
    stats = serve.get("stats", {})
    rows = serve.get("jobs", [])

    def self_s(layer: str) -> Tuple[float, str]:
        return _layer_self(spans, layer) / per, "s"

    def count(value: float) -> Tuple[float, str]:
        return value / per, "count"

    def job_p50(start: str, end: str) -> Tuple[float, str]:
        spans_s = sorted(row[end] - row[start] for row in rows
                         if row.get(start) and row.get(end))
        return (statistics.median(spans_s) if spans_s else 0.0), "s"

    requests = sum(entry["count"] for entry in stats.get("requests", []))
    polls = serve.get("polls", 0)
    return {
        "netsim.engine.events": count(events),
        "netsim.engine.self_s": self_s("netsim.engine"),
        "netsim.engine.events_per_s": (events / engine_s if engine_s
                                       else 0.0, "1/s"),
        "netsim.link.transmits": count(transmits),
        "netsim.link.self_s": self_s("netsim.link"),
        "netsim.link.delivered_ratio": (
            counts.get("link.delivered", 0) / transmits if transmits
            else 0.0,
            "ratio"),
        "netsim.link.queue_drops": count(counts.get("link.queue_drops", 0)),
        "switching.base.frames": count(_calls(spans, "switching.base:")),
        "switching.base.self_s": self_s("switching.base"),
        "core.bridge.self_s": self_s("core.bridge"),
        "core.table.ops": count(_calls(spans, "core.table:")),
        "core.table.hit_ratio": (counts.get("table.hits", 0) / gets
                                 if gets else 0.0, "ratio"),
        "core.table.self_s": self_s("core.table"),
        "netsim.aging.self_s": self_s("netsim.aging"),
        "stp.bridge.self_s": self_s("stp.bridge"),
        "spb.bridge.self_s": self_s("spb.bridge"),
        "switching.controller.self_s": self_s("switching.controller"),
        "core.repair.repairs": count(_calls(spans, "core.repair:start")),
        "netsim.dynamics.events": count(counts.get("dynamics.events", 0)),
        "hosts.host.frames": count(_calls(spans, "hosts.host:")),
        "hosts.host.self_s": self_s("hosts.host"),
        "hosts.population.frames": count(_calls(spans,
                                                 "hosts.population:")),
        "hosts.population.self_s": self_s("hosts.population"),
        "topology.builder.build_s": (
            _layer_self(spans, "topology.builder") / cells, "s"),
        "netsim.shard.rounds": count(rounds),
        "netsim.shard.events_per_round": (events / rounds if rounds
                                          else 0.0, "count"),
        "netsim.sync.recv_wait_s": (
            _layer_total(spans, "netsim.sync:recv") / per, "s"),
        "netsim.sync.frames_packed": count(_calls(spans,
                                                  "netsim.sync:pack_frame")),
        "experiments.runner.busy_s": (busy / per, "s"),
        "experiments.runner.idle_share": (
            1.0 - busy / (wall_s * pool) if wall_s else 0.0, "ratio"),
        "experiments.runner.attempts": count(_calls(spans,
                                                    "experiments.runner:")),
        "server.jobs.queue_wait_s_p50": job_p50("created_at", "started_at"),
        "server.jobs.run_s_p50": job_p50("started_at", "finished_at"),
        "server.store.appends": count(_calls(spans, "server.store:append")),
        "server.store.append_s": (
            _layer_total(spans, "server.store:append") / per, "s"),
        "server.store.fetch_s": (
            _layer_total(spans, "server.store:fetch") / per, "s"),
        "server.http.requests": count(requests),
        "server.http.server_ms_p50": (histogram_p50(stats), "ms"),
        "server.http.poll_hit_ratio": (serve.get("poll_hits", 0) / polls
                                       if polls else 0.0, "ratio"),
        "records": count(counts.get("records", 0)),
    }


def drift(per_job: List[List[float]], totals: Dict[str, Any]) -> List[str]:
    """Deterministic counts that differ between repeats of the same work.

    *per_job* holds each job's :data:`DETERMINISTIC` vector (one entry
    per grid; the serve daemon reports one total, so its repeats are
    checked per cell instead). Cells with the same label must repeat
    their counts, and every serve job must append the same number of
    record batches.
    """
    problems = []
    for index, counts in enumerate(per_job[1:], start=1):
        if counts != per_job[0]:
            problems.append(f"job {index} counts {counts} != job 0 "
                            f"{per_job[0]}")
    seen: Dict[str, List[float]] = {}
    for label, counts in totals.get("cells", []):
        first = seen.setdefault(label, counts)
        if counts != first:
            problems.append(f"cell {label}: {counts} != {first}")
    appends = set(totals.get("job_appends", {}).values())
    if len(appends) > 1:
        problems.append(f"store appends per job differ: {sorted(appends)}")
    return problems
