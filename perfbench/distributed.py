"""Workload ``distrib``: two actors share one lease work directory.

Each cycle starts a fresh work dir.  One thread runs ``run_worker`` on
it while the caller runs ``run_study(executor=DistributedExecutor(...))``
as the initiator; each study has ~200k rows in ten or more shards, and
the lease TTLs, poll and heartbeat intervals are the defaults.  This is
the only workload with lease claims, heartbeats, shard records and
merge-on-read.  The actors start together and nothing is tuned to hide
lease races: ``distrib.useful_ratio`` and ``distrib.orphan_leases``
read exactly what happened.

The reference digest comes from an in-process ``run_study`` made
before the cycle's timing starts.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Any, Dict

from harness import Context, knob_spec, median, result_digest
from repro.distrib import LEASE_DIR_NAME, DistributedExecutor, run_worker
from repro.obs import Tracer
from repro.study import run_study

#: How long the worker waits for the initiator to publish the study.
_WAIT_S = 30.0

#: Longest a cycle's worker thread may outlive its initiator.
_JOIN_S = 60.0


def _lease_files(work_dir) -> int:
    leases = work_dir / LEASE_DIR_NAME
    if not leases.is_dir():
        return 0
    return sum(1 for path in leases.glob("shard-*.lease.json*"))


def _span_seconds(tracer: Tracer, *names: str) -> float:
    return sum(s.duration_s for s in tracer.spans if s.name in names)


def run(ctx: Context) -> None:
    rng = ctx.rng(3)
    chunk_rows = ctx.sizes.distrib_chunk_rows
    layers: Dict[str, list] = {name: [] for name in (
        "claims", "useful", "loaded", "skew",
    )}
    orphans = 0
    cycles = 0
    with ctx.analyze_loop():
        for index in ctx.cycles():
            cycles += 1
            spec = knob_spec(rng, ctx.sizes.distrib_axes)
            reference = result_digest(run_study(spec, cache=None))
            traced = ctx.traced_cycle(index)
            work_dir = ctx.work_dir / f"distrib-{index}"
            tracers = (Tracer(), Tracer()) if traced else (None, None)
            worker: Dict[str, Any] = {}

            def work() -> None:
                try:
                    worker["report"] = run_worker(
                        work_dir, worker_id="perfbench-worker",
                        wait_s=_WAIT_S, tracer=tracers[1],
                    )
                except Exception as exc:
                    worker["error"] = exc

            thread = threading.Thread(
                target=work, name="perfbench-distrib-worker"
            )
            ctx.attempt()
            thread.start()
            try:
                started = perf_counter()
                result = run_study(
                    spec,
                    executor=DistributedExecutor(
                        work_dir, worker_id="perfbench-initiator",
                        n_workers=2,
                    ),
                    chunk_rows=chunk_rows,
                    tracer=tracers[0],
                )
                finished = perf_counter()
            except Exception as exc:
                ctx.fail(f"distrib study {index}: {exc!r}")
                continue
            finally:
                thread.join(timeout=_JOIN_S)
            left = _lease_files(work_dir)
            orphans += left
            try:
                ctx.expect(not thread.is_alive(),
                           f"worker still running after {_JOIN_S:g} s")
                ctx.expect("error" not in worker,
                           f"worker failed: {worker.get('error')!r}")
                ctx.expect(
                    result_digest(ctx.tamper("study", result)) == reference,
                    "merged result digest differs from in-process run_study",
                )
                ctx.expect(left == 0, f"{left} lease file(s) left behind")
            except Exception as exc:
                ctx.fail(f"distrib study {index}: {exc}")
                continue
            ctx.study(len(result), finished - started,
                      finished - started, traced)
            if not traced:
                continue
            initiator = tracers[0]
            counts = [t.counters_snapshot() for t in tracers]
            computed = [c.get("distrib.shards.computed", 0) for c in counts]
            shards = -(-len(result) // chunk_rows)
            layers["claims"].append(
                sum(c.get("distrib.leases.claimed", 0) for c in counts))
            layers["loaded"].append(
                sum(c.get("distrib.shards.loaded", 0) for c in counts))
            layers["useful"].append(shards / max(1, sum(computed)))
            layers["skew"].append(
                max(computed) / max(1e-9, sum(computed) / len(computed)))
            planner = _span_seconds(initiator, "study.compile",
                                    "shard.compile")
            engine = _span_seconds(initiator, "shard.evaluate")
            runner = _span_seconds(initiator, "study.merge", "study.select")
            ctx.record("study.distributed", "distrib", started, finished,
                       computed=computed[0])
            ctx.layer_time["distrib"] -= planner + engine + runner
            ctx.layer_time["study.planner"] += planner
            ctx.layer_time["batch.engine"] += engine
            ctx.layer_time["study.runner"] += runner
    n = len(layers["claims"])
    if n:
        ctx.set_layer("distrib.claims", median(layers["claims"]), n)
        ctx.set_layer("distrib.useful_ratio", median(layers["useful"]), n)
        ctx.set_layer("distrib.loaded_shards", median(layers["loaded"]), n)
        ctx.set_layer("distrib.actor_skew", median(layers["skew"]), n)
    ctx.set_layer("distrib.orphan_leases", orphans, cycles)
