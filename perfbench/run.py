"""End-to-end pipeline benchmark: four workloads and a per-layer ledger.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload explore --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: it prints every per-layer
metric, the workload's bound layer (the layer with the largest share of
the traced study time) and the tracing overhead.  Both print a
human-readable report, write the full record (samples, host facts,
failures) under ``.perfbench-out/``, and end with one JSON line::

    {"correct": true, "attempted": 548, "failed": 0, "metrics": {...}}

The exit code is 0 when every output matched its reference, 1 when any
did not, and 2 when the working directory is not a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Where runs write their records and scratch files, under the checkout.
OUT_DIR = ".perfbench-out"


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    from ledger import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _workload(name: str):
    import distributed
    import durable
    import explore
    import serve_mix

    return {"explore": explore, "durable": durable,
            "distrib": distributed, "serve-mix": serve_mix}[name]


def _end_to_end(ctx) -> Dict[str, Tuple[float, int, str]]:
    """``name -> (value, samples, note)`` for every end-to-end metric."""
    from harness import ANALYZE_LIMIT_MS, median, tail

    setup = sum(median(v) for v in ctx.setup.values())
    setup_n = min(len(v) for v in ctx.setup.values())
    setup_note = " + ".join(
        f"{name} {median(v):.4f}" for name, v in ctx.setup.items()
    )
    studies = ctx.studies
    busy = sum(s["busy_s"] for s in studies)
    rows = sum(s["rows"] for s in studies)
    fresh = [s["seconds"] for s in studies if s["fresh"]]
    sent = ctx.analyze
    latencies = [r["latency_s"] * 1e3 for r in sent if r["ok"]]
    pct, tail_ms = tail(latencies)
    met = sum(1 for r in sent if r["ok"]
              and r["latency_s"] * 1e3 <= ANALYZE_LIMIT_MS)
    failed = len(ctx.failures)
    error_rate = failed / ctx.attempted if ctx.attempted else 1.0
    transport = "HTTP" if ctx.analyze_http else "in-process run_analyze"
    return {
        "setup_s": (setup, setup_n, setup_note),
        "rows_per_s": (rows / busy if busy else 0.0, len(studies),
                       f"{rows} rows over {busy:.3f} s in program calls"),
        "study_p50_s": (median(fresh), len(fresh),
                        "studies, repeats answered without computing "
                        "excluded"),
        "analyze_p50_ms": (median(latencies), len(latencies), transport),
        "analyze_tail_ms": (tail_ms, len(latencies), f"p{pct:g}"),
        "analyze_slo_pct": (100.0 * met / len(sent) if sent else 0.0,
                            len(sent),
                            f"sent within {ANALYZE_LIMIT_MS:g} ms"),
        "success_pct": (100.0 * (1.0 - error_rate), ctx.attempted,
                        f"error_rate {error_rate:g}: {failed} of "
                        f"{ctx.attempted} operations failed"),
        "peak_rss_mb": (ctx.peak_rss_mb, 1, "ru_maxrss at window end"),
    }


def _finish_layers(ctx) -> None:
    """Fill the per-layer metrics every workload measures the same way."""
    from harness import median

    if ctx.analyze:
        ctx.set_layer("loadgen.late_ms_max",
                      max(r["late_s"] for r in ctx.analyze) * 1e3,
                      len(ctx.analyze))
    inproc = median(ctx.inproc_ms)
    ctx.set_layer("serve.analyze_inproc_ms", inproc, len(ctx.inproc_ms))
    served = [r["service_s"] * 1e3 for r in ctx.analyze if r["ok"]]
    if ctx.analyze_http and served:
        ctx.set_layer("serve.analyze_transport_ms",
                      median(served) - inproc, len(served))
    per_row = {
        flag: [s["busy_s"] / s["rows"] for s in ctx.studies
               if s["traced"] is flag]
        for flag in (True, False)
    }
    if per_row[True] and per_row[False]:
        ctx.set_layer(
            "obs.trace_overhead_pct",
            100.0 * (median(per_row[True]) / median(per_row[False]) - 1.0),
            len(per_row[True]) + len(per_row[False]),
        )


def _bound_layer(ctx) -> Tuple[Optional[str], Dict[str, float]]:
    if ctx.traced_s <= 0:
        return None, {}
    shares = {layer: seconds / ctx.traced_s
              for layer, seconds in ctx.layer_time.items()}
    bound = max(shares, key=shares.get) if shares else None
    return bound, shares


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    root: Path,
    sizes: Any = None,
    tamper: Optional[Callable[[str, Any], Any]] = None,
) -> Tuple[Dict[str, Any], List[str]]:
    """Run one workload; returns the result record and the report lines."""
    from harness import FULL, Context, host_facts, import_seconds
    from ledger import END_TO_END, PER_LAYER

    sizes = sizes or FULL
    out_dir = root / OUT_DIR
    work_dir = out_dir / f"work-{os.getpid()}-{workload}"
    work_dir.mkdir(parents=True, exist_ok=True)
    facts = host_facts()
    ctx = Context(seed, seconds, trace, sizes, work_dir, tamper=tamper)
    try:
        ctx.setup["import_s"] = import_seconds(root, sizes.setup_repeats)
        _workload(workload).run(ctx)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    _finish_layers(ctx)
    e2e = _end_to_end(ctx)
    bound, shares = _bound_layer(ctx)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    lines = [
        f"perfbench workload={workload} seed={seed} seconds={seconds:g} "
        f"trace={int(trace)} window_s={ctx.window_s:.3f}",
        "host " + " ".join(f"{k}={v}" for k, v in facts.items()),
    ]
    units = {m.name: m.unit for m in END_TO_END + PER_LAYER}
    if not trace:
        metrics = {m.name: e2e[m.name][0] for m in END_TO_END}
        for name, (value, n, note) in e2e.items():
            lines.append(f"{name:<34} {value:>14.6g} {units[name]:<7} "
                         f"n={n:<6} {note}")
    else:
        metrics = {m.name: ctx.layer.get(m.name, 0.0) for m in PER_LAYER}
        for m in PER_LAYER:
            moves = ", ".join(f"{e}@{w}" for e, w in m.moves) or "-"
            lines.append(
                f"{m.name:<34} {metrics[m.name]:>14.6g} {m.unit:<7} "
                f"n={ctx.layer_n.get(m.name, 0):<6} [{m.layer}] "
                f"moves {moves}"
            )
        ranked = sorted(shares.items(), key=lambda kv: -kv[1])
        spread = ", ".join(f"{layer} {share:.1%}" for layer, share in ranked)
        lines.append(
            f"bound layer: {bound or 'none'} of {ctx.traced_s:.3f} s traced "
            f"study time ({spread or 'no traced study'}, unattributed "
            f"{1.0 - sum(shares.values()):.1%})"
        )
    for message in ctx.failures[:10]:
        lines.append(f"FAILED {message}")
    correct = not ctx.failures
    result = {
        "correct": correct,
        "attempted": ctx.attempted,
        "failed": len(ctx.failures),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "window_s": ctx.window_s, "host": facts,
        "end_to_end": {k: {"value": v, "samples": n, "note": note}
                       for k, (v, n, note) in e2e.items()},
        "per_layer": {m.name: {"value": ctx.layer.get(m.name, 0.0),
                               "samples": ctx.layer_n.get(m.name, 0)}
                      for m in PER_LAYER},
        "bound_layer": bound, "layer_shares": shares,
        "setup": ctx.setup, "studies": ctx.studies,
        "analyze": ctx.analyze,
        "failures": ctx.failures, "result": result,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1))
    lines.append(f"record {OUT_DIR}/{tag}.json")
    if ctx.tracer is not None:
        from repro.obs import write_trace_jsonl

        write_trace_jsonl(out_dir / f"{tag}-spans.jsonl", ctx.tracer)
        lines.append(f"spans {OUT_DIR}/{tag}-spans.jsonl")
    return result, lines


def exit_code(result: Dict[str, Any]) -> int:
    """0 when every output matched its reference, else 1."""
    return 0 if result["correct"] else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {root} is not a checkout of this repository "
              "(no src/repro); run from its root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    result, lines = measure(args.workload, args.seed, args.seconds,
                            bool(args.trace), root)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return exit_code(result)


if __name__ == "__main__":
    raise SystemExit(main())
