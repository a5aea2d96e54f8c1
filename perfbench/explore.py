"""Workload ``explore``: the Skyline design sweep, in process.

One closed-loop caller runs ``run_study`` with the default cache on a
sequence of distinct ~1M-row ``compute_tdp_w`` x ``compute_runtime_s``
grids with seeded axis values, ranked ``top_k=10``.  Its time goes to
the planner, the engine and the selection step; it does no I/O, so
encoding, checkpoint, lease and serve changes should leave it alone.

A traced cycle makes the same study as three public calls, one per
layer: ``compile_spec``, ``evaluate_matrix`` (which fills the default
cache) and ``run_study`` on the compiled plan (which then finds the
batch in the cache and only selects).
"""

from __future__ import annotations

from time import perf_counter

from harness import TOP_K, Context, knob_spec, median
from repro.batch import DEFAULT_CACHE, evaluate_matrix
from repro.io.serialization import batch_results_equal
from repro.study import compile_spec, run_study


def _decomposed(ctx: Context, spec, samples):
    with ctx.timed("study.planner", "planner.compile", samples["planner"]):
        plan = compile_spec(spec)
    samples["rows"].append(len(plan))
    before = DEFAULT_CACHE.stats_snapshot()
    with ctx.timed("batch.engine", "engine.evaluate", samples["engine"],
                   rows=len(plan)):
        evaluate_matrix(
            plan.matrix,
            knee_fraction=spec.knee_fraction,
            tolerance=spec.tolerance,
        )
    window = DEFAULT_CACHE.stats_snapshot().delta(before)
    samples["hits"].append(window.hits)
    samples["lookups"].append(window.hits + window.misses)
    with ctx.timed("study.runner", "runner.select", samples["select"]):
        return run_study(plan)


def run(ctx: Context) -> None:
    rng = ctx.rng(1)
    samples = {name: [] for name in
               ("planner", "engine", "select", "hits", "lookups", "rows")}
    with ctx.analyze_loop():
        for index in ctx.cycles():
            spec = knob_spec(rng, ctx.sizes.explore_axes)
            traced = ctx.traced_cycle(index)
            ctx.attempt()
            try:
                started = perf_counter()
                if traced:
                    result = _decomposed(ctx, spec, samples)
                else:
                    result = run_study(spec)
                elapsed = perf_counter() - started
                result = ctx.tamper("study", result)
                top = result.batch.top_k(TOP_K, by="safe_velocity")
                ctx.expect(
                    batch_results_equal(result.selected, top),
                    "top-k rows differ from BatchResult.top_k on the "
                    "same batch",
                )
            except Exception as exc:
                ctx.fail(f"explore study {index}: {exc!r}")
                continue
            ctx.study(len(result), elapsed, elapsed, traced)
    n = len(samples["engine"])
    if n:
        ctx.set_layer("planner.compile_s", median(samples["planner"]), n)
        ctx.set_layer("engine.evaluate_s", median(samples["engine"]), n)
        ctx.set_layer(
            "engine.rows_per_s",
            sum(samples["rows"]) / sum(samples["engine"]), n,
        )
        lookups = sum(samples["lookups"])
        ctx.set_layer(
            "cache.hit_rate",
            sum(samples["hits"]) / lookups if lookups else 0.0, lookups,
        )
        ctx.set_layer("runner.select_s", median(samples["select"]), n)
