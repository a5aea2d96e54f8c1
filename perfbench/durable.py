"""Workload ``durable``: a checkpointed study, resumed, saved and loaded.

Each cycle runs one ~50k-row study with ``checkpoint=`` through
``ParallelExecutor(n_workers=nproc)`` on the default backend with a
fixed ``chunk_rows``, resumes it from the finished checkpoint, and
sends the result through ``StudyResult.save`` and ``load``.  The path
is bound by serialization and checkpoint I/O.

``study_p50_s`` is the checkpointed run; ``rows_per_s`` charges the
whole cycle.  A traced cycle adds one probe: the same chunked run with
a tracer and without a checkpoint, which gives the shard timings and
the base that ``checkpoint.write_s`` is measured against.
"""

from __future__ import annotations

import os
import shutil
from time import perf_counter

from harness import Context, knob_spec, median
from repro.batch import ParallelExecutor
from repro.obs import Tracer
from repro.study import StudyResult, run_study


def setup(ctx: Context) -> ParallelExecutor:
    """Warm the pool ``setup_repeats`` times; keep the last one."""
    samples = ctx.setup.setdefault("pool_warm_s", [])
    executor = None
    for _ in range(ctx.sizes.setup_repeats):
        if executor is not None:
            executor.close()
        executor = ParallelExecutor(n_workers=os.cpu_count())
        started = perf_counter()
        executor.warm_up()
        samples.append(perf_counter() - started)
    return executor


def _dir_bytes(path) -> int:
    return sum(entry.stat().st_size for entry in path.iterdir())


def run(ctx: Context) -> None:
    rng = ctx.rng(2)
    chunk_rows = ctx.sizes.durable_chunk_rows
    layers = {name: [] for name in (
        "shards", "shard_s", "write", "resume", "ckpt_bytes", "ratio",
        "encode", "decode", "result_bytes",
    )}
    with setup(ctx) as executor, ctx.analyze_loop():
        for index in ctx.cycles():
            spec = knob_spec(rng, ctx.sizes.durable_axes)
            traced = ctx.traced_cycle(index)
            checkpoint = ctx.work_dir / f"checkpoint-{index}"
            saved = ctx.work_dir / f"result-{index}.json"
            ctx.attempt()
            try:
                if traced:
                    probe = Tracer()
                    started = perf_counter()
                    run_study(spec, executor=executor,
                              chunk_rows=chunk_rows, tracer=probe)
                    plain_s = perf_counter() - started
                t0 = perf_counter()
                first = run_study(spec, executor=executor,
                                  chunk_rows=chunk_rows,
                                  checkpoint=checkpoint)
                t1 = perf_counter()
                resumed = run_study(spec, executor=executor,
                                    chunk_rows=chunk_rows,
                                    checkpoint=checkpoint, resume=True)
                t2 = perf_counter()
                first.save(saved)
                t3 = perf_counter()
                loaded = StudyResult.load(saved)
                t4 = perf_counter()
                ctx.expect(ctx.tamper("study", resumed).equals(first),
                           "resumed result differs from the "
                           "checkpointed one")
                ctx.expect(loaded.equals(first),
                           "loaded result differs from the saved one")
            except Exception as exc:
                ctx.fail(f"durable study {index}: {exc!r}")
                continue
            finally:
                ckpt_bytes = _dir_bytes(checkpoint) if checkpoint.exists() else 0
                result_bytes = saved.stat().st_size if saved.exists() else 0
                shutil.rmtree(checkpoint, ignore_errors=True)
                saved.unlink(missing_ok=True)
            rows = len(first)
            ctx.study(rows, t1 - t0, t4 - t0, traced)
            if not traced:
                continue
            ctx.record("study.checkpointed", "batch.executor", t0, t1)
            ctx.record("study.resume", "batch.executor", t1, t2)
            ctx.record("result.save", "study.result", t2, t3)
            ctx.record("result.load", "study.result", t3, t4)
            tasks = [s for s in probe.spans if s.name == "shard.task"]
            layers["shards"].append(len(tasks))
            layers["shard_s"].extend(s.duration_s for s in tasks)
            layers["write"].append((t1 - t0) - plain_s)
            layers["resume"].append(t2 - t1)
            layers["ratio"].append((t2 - t1) / plain_s)
            layers["ckpt_bytes"].append(ckpt_bytes / rows)
            layers["encode"].append(t3 - t2)
            layers["decode"].append(t4 - t3)
            layers["result_bytes"].append(result_bytes / rows)
    n = len(layers["write"])
    if n:
        for metric, key in (
            ("executor.shards", "shards"),
            ("executor.shard_s_p50", "shard_s"),
            ("checkpoint.write_s", "write"),
            ("checkpoint.resume_s", "resume"),
            ("checkpoint.bytes_per_row", "ckpt_bytes"),
            ("checkpoint.resume_over_recompute", "ratio"),
            ("result.encode_s", "encode"),
            ("result.decode_s", "decode"),
            ("result.bytes_per_row", "result_bytes"),
        ):
            ctx.set_layer(metric, median(layers[key]), len(layers[key]))
