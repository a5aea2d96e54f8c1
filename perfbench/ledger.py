"""The benchmark's metric catalogue: every end-to-end and per-layer metric.

``BENCHMARK.json`` at the repository root lists the same names, units
and directions (the self-test checks that the two agree); this module
adds what that file has no room for.  Each per-layer metric names the
layer it measures and the end-to-end metrics and workloads it is
expected to move, so a change to one layer can name, before any code
is written, which numbers should move and which should not.

A layer a workload does not exercise reads 0 in that workload's ledger,
with a sample count of 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

WORKLOADS = ("explore", "durable", "distrib", "serve-mix")

#: One-line reason each workload exists (mirrored in BENCHMARK.json).
WORKLOAD_WHY = {
    "explore": (
        "in-process Skyline sweeps of distinct ~1M-row grids: planner, "
        "engine and selection only, no I/O"
    ),
    "durable": (
        "checkpointed ParallelExecutor study, resumed, then saved and "
        "loaded: bound by serialization and checkpoint I/O"
    ),
    "distrib": (
        "initiator and worker threads share a lease work dir: the only "
        "workload with claims, heartbeats, shard records, merge-on-read"
    ),
    "serve-mix": (
        "open-loop /v1/analyze beside closed-loop 50k-row studies over "
        "HTTP: small reads mixed with large results"
    ),
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float


#: Metrics a user of the pipeline sees, printed on every workload (the
#: README defines each).  ``error_rate`` (failed / attempted) reads 0 on
#: a healthy run and a gated metric may not read 0, so it is gated as
#: ``success_pct`` = 100 x (1 - error_rate) and printed beside it.  The
#: bounds sit above the run-to-run spread measured on a 2-CPU host whose
#: speed drifts by about 10% between runs.
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("rows_per_s", "rows/s", "higher", 0.25),
    EndToEnd("study_p50_s", "s", "lower", 0.25),
    EndToEnd("analyze_p50_ms", "ms", "lower", 0.25),
    EndToEnd("analyze_tail_ms", "ms", "lower", 0.25),
    EndToEnd("analyze_slo_pct", "%", "higher", 0.25),
    EndToEnd("success_pct", "%", "higher", 0.01),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.2),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    layer: str
    #: ``(end-to-end metric, workload)`` pairs this metric should move.
    moves: Tuple[Tuple[str, str], ...]


_EXPLORE_STUDY = (("study_p50_s", "explore"), ("rows_per_s", "explore"))
_SERVE_ANALYZE = (
    ("analyze_p50_ms", "serve-mix"), ("analyze_tail_ms", "serve-mix"),
)
_DISTRIB_STUDY = (("study_p50_s", "distrib"), ("rows_per_s", "distrib"))

PER_LAYER: Tuple[PerLayer, ...] = (
    PerLayer("planner.compile_s", "s", "lower", "study.planner",
             _EXPLORE_STUDY),
    PerLayer("engine.evaluate_s", "s", "lower", "batch.engine",
             (("rows_per_s", "explore"),)),
    PerLayer("engine.rows_per_s", "rows/s", "higher", "batch.engine",
             (("rows_per_s", "explore"),)),
    PerLayer("cache.hit_rate", "ratio", "higher", "batch.cache",
             (("study_p50_s", "serve-mix"),)),
    PerLayer("runner.select_s", "s", "lower", "study.runner",
             (("study_p50_s", "explore"),)),
    PerLayer("result.encode_s", "s", "lower", "study.result",
             (("study_p50_s", "durable"), ("study_p50_s", "serve-mix"),
              ("analyze_tail_ms", "serve-mix"))),
    PerLayer("result.decode_s", "s", "lower", "study.result",
             (("study_p50_s", "durable"), ("study_p50_s", "serve-mix"))),
    PerLayer("result.bytes_per_row", "B/row", "lower", "study.result",
             (("study_p50_s", "durable"), ("analyze_tail_ms", "serve-mix"))),
    PerLayer("executor.shards", "count", "lower", "batch.executor",
             (("study_p50_s", "durable"),)),
    PerLayer("executor.shard_s_p50", "s", "lower", "batch.executor",
             (("study_p50_s", "durable"),)),
    PerLayer("checkpoint.write_s", "s", "lower", "batch.executor",
             (("study_p50_s", "durable"),)),
    PerLayer("checkpoint.resume_s", "s", "lower", "batch.executor",
             (("rows_per_s", "durable"),)),
    PerLayer("checkpoint.bytes_per_row", "B/row", "lower", "batch.executor",
             (("study_p50_s", "durable"),)),
    PerLayer("checkpoint.resume_over_recompute", "ratio", "lower",
             "batch.executor", (("rows_per_s", "durable"),)),
    PerLayer("distrib.claims", "count", "lower", "distrib", _DISTRIB_STUDY),
    PerLayer("distrib.useful_ratio", "ratio", "higher", "distrib",
             _DISTRIB_STUDY),
    PerLayer("distrib.loaded_shards", "count", "lower", "distrib",
             _DISTRIB_STUDY),
    PerLayer("distrib.actor_skew", "ratio", "lower", "distrib",
             _DISTRIB_STUDY),
    PerLayer("distrib.orphan_leases", "count", "lower", "distrib",
             _DISTRIB_STUDY),
    PerLayer("serve.analyze_inproc_ms", "ms", "lower", "serve",
             _SERVE_ANALYZE),
    PerLayer("serve.analyze_transport_ms", "ms", "lower", "serve",
             _SERVE_ANALYZE),
    PerLayer("serve.queue_wait_s", "s", "lower", "serve",
             (("study_p50_s", "serve-mix"),)),
    PerLayer("serve.result_fetch_s", "s", "lower", "serve",
             (("study_p50_s", "serve-mix"),) + _SERVE_ANALYZE),
    PerLayer("serve.result_bytes", "B", "lower", "serve",
             (("study_p50_s", "serve-mix"),)),
    PerLayer("serve.status_fetch_s", "s", "lower", "serve",
             _SERVE_ANALYZE + (("analyze_slo_pct", "serve-mix"),)),
    PerLayer("serve.coalesced_ratio", "ratio", "higher", "serve",
             (("study_p50_s", "serve-mix"),)),
    PerLayer("serve.rejected", "count", "lower", "serve",
             (("success_pct", "serve-mix"),)),
    PerLayer("loadgen.late_ms_max", "ms", "lower", "loadgen", ()),
    PerLayer("obs.trace_overhead_pct", "%", "lower", "obs", ()),
)


def benchmark_document() -> dict:
    """``BENCHMARK.json`` as this catalogue defines it."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 25,
        "workloads": [
            {"name": name, "why": WORKLOAD_WHY[name]} for name in WORKLOADS
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
