"""One benchmark world in a fresh process: parse, build, run, export.

Started by run.py, never imported. Times each phase against `--t0`, the
parent's `time.perf_counter()` just before it started this process (on Linux
that clock is CLOCK_MONOTONIC, shared by all processes), and writes its
measurements and the post-run state of the world to `--result` as JSON.
With `--trace 1` it also wraps the simulator's layers (tracer.py), writes the
spans to `--spans`, and measures the bare event kernel afterwards.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

OUTPUT_FILES = ("taw.csv", "latency.csv", "episodes.log", "timeline.csv", "summary.json")
KERNEL_EVENTS = 100_000
KERNEL_REPEATS = 3


def output_sha256(out_dir: str) -> str:
    digest = hashlib.sha256()
    for name in OUTPUT_FILES:
        digest.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def world_state(world) -> dict:
    """What must be idle once World.run has returned, read from outside."""
    return {
        "nodes": [{
            "workers_busy": node.workers_busy,
            "queued": sum(1 for ctx in node.worker_queue if ctx.state == "queued"),
            "inflight": len(node.inflight),
            "parked": len(node.parked),
            "cpu_busy": node.cpu.busy,
            "cpu_pinned": node.cpu.pinned,
            "cpu_slots": node.cpu.slots,
            "cpu_queue": len(node.cpu.queue),
        } for node in world.nodes],
    }


def kernel_floor(event_loop_cls) -> float:
    """No-op events per second through a bare EventLoop (schedule + dispatch)."""
    rates = []
    for _ in range(KERNEL_REPEATS):
        loop = event_loop_cls()
        noop = lambda: None  # noqa: E731
        t0 = time.perf_counter()
        for at in range(KERNEL_EVENTS):
            loop.schedule(at, noop)
        loop.run_until(KERNEL_EVENTS)
        rates.append(KERNEL_EVENTS / (time.perf_counter() - t0))
    return statistics.median(rates)


def layer_metrics(tracer, world, before: dict, after: dict, run_s: float) -> dict:
    from tracer import RUN_LAYERS

    def delta(group):
        return tracer.delta(before, after, group)

    m = {}
    handler_calls, _ = delta("world.handler")
    if handler_calls != world.loop.dispatched:
        raise RuntimeError(f"traced {handler_calls} handlers but the loop "
                           f"dispatched {world.loop.dispatched} events")
    m["simcore.events"] = world.loop.dispatched
    m["simcore.scheduled"] = delta("simcore.schedule")[0]
    m["simcore.cancelled"] = delta("simcore.cancel")[0]
    lookups, m["runtime.lookup.s"] = delta("runtime.lookup")
    m["runtime.lookup.calls"] = lookups
    bound = after["bound"] - before["bound"]
    m["runtime.lookup.bound_ratio"] = bound / lookups if lookups else 0.0
    m["runtime.heap.calls"], m["runtime.heap.s"] = delta("runtime.heap")
    m["runtime.binding.calls"] = delta("runtime.binding")[0]
    m["cluster.route.calls"], m["cluster.route.s"] = delta("cluster.route")
    m["cluster.cpu.calls"], m["cluster.cpu.s"] = delta("cluster.cpu")
    m["cluster.cpu.overcommit"] = after["overcommits"] - before["overcommits"]
    m["cluster.failover.calls"] = delta("cluster.failover")[0]
    m["statestore.session.calls"], m["statestore.session.s"] = delta("statestore.session")
    m["statestore.tx.calls"], m["statestore.tx.s"] = delta("statestore.tx")
    m["app.fingerprint.calls"], m["app.fingerprint.s"] = delta("app.fingerprint")
    m["app.matrix.s"] = delta("app.matrix")[1]
    m["workload.ledger.calls"], m["workload.ledger.s"] = delta("workload.ledger")
    m["workload.client.s"] = delta("workload.client")[1]
    m["detect.classify.calls"], m["detect.classify.s"] = delta("detect.classify")
    m["detect.reports.sent"] = world.channel.sent
    m["detect.reports.delivered"] = world.channel.delivered
    m["faultlib.apply_recovery.calls"], m["faultlib.apply_recovery.s"] = \
        delta("faultlib.apply_recovery")
    m["faultlib.cured"] = after["cured"] - before["cured"]
    m["recoverymgr.ingest.calls"], m["recoverymgr.ingest.s"] = delta("recoverymgr.ingest")
    episodes = world.rm.episodes
    m["recoverymgr.episodes"] = len(episodes)
    m["recoverymgr.cured_ratio"] = \
        sum(1 for e in episodes if e.cured) / len(episodes) if episodes else 0.0
    m["recoverymgr.actions"] = sum(len(e.actions) for e in episodes)
    m["recoverymgr.rejuv.s"] = delta("recoverymgr.rejuv")[1]
    m["world.murb.calls"] = delta("world.murb")[0]
    m["world.full_restart.calls"] = delta("world.full_restart")[0]
    accounted = 0.0
    for layer in RUN_LAYERS:
        self_s = tracer.layer_delta(before, after, layer)
        m[f"{layer}.self_s"] = self_s
        accounted += self_s
    m["trace.run_s"] = run_s
    m["trace.unaccounted_s"] = run_s - accounted
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--scenario", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", required=True, help="path stem for the traced spans")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args()
    perf = time.perf_counter

    sys.path.insert(0, os.path.join(args.root, "src"))
    from murbsim import harness
    from murbsim.simcore import EventLoop
    from murbsim.world import World

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    with open(args.scenario, encoding="utf-8") as fh:
        text = fh.read()
    scenario = harness.parse_scenario(text)
    world = World(scenario)
    t_run = perf()
    before = tracer.snapshot() if tracer else None
    world.run()
    t_export = perf()
    after = tracer.snapshot() if tracer else None
    summary = harness.write_outputs(world, args.out)
    t_written = perf()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "wall_s": t_written - args.t0,
        "setup_s": t_run - args.t0,
        "export_s": t_written - t_export,
        "req_per_s": summary["totals"]["completed_requests"] / (t_export - t_run),
        "peak_rss_mb": rss_kb / 1024.0,
        "state": world_state(world),
        "output_sha256": output_sha256(args.out),
    }
    if tracer is not None:
        tracer.uninstall()
        layers = layer_metrics(tracer, world, before, after, t_export - t_run)
        for group in ("parse", "export_summary", "write"):
            g = tracer.groups.index(f"harness.{group}")
            layers[f"harness.{group}_s"] = tracer.self_s[g]
        layers["trace.spans"] = len(tracer.span_start)
        tracer.write_spans(args.spans)
        layers["simcore.noop_events_per_s"] = kernel_floor(EventLoop)
        result["layers"] = layers

    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
