"""Workload ``serve-mix``: small analyze reads beside large study results.

One in-process ``ServerHandle`` runs the default ``ServeConfig`` (port
0).  The benchmark holds two connections to it: the open-loop
``POST /v1/analyze`` generator of :mod:`harness`, and a closed-loop
study client that submits ~50k-row specs (every fourth repeats an
earlier one), polls ``/result`` until it holds the text, then makes one
``GET /v1/studies/{id}``.  A result-path change that speeds studies up
but stalls analyze shows here, and so does the event-loop stall of the
status endpoint.

Served results carry the run's ``telemetry`` member, which no other run
can reproduce; with it removed the text must equal the in-process
``to_json()`` of the same spec.  Those references are computed after
the window, so they do not compete with the server for the interpreter.
"""

from __future__ import annotations

import json
from time import perf_counter, sleep
from typing import Any, Dict, List, Optional, Tuple

from harness import Context, knob_spec, median, text_digest
from repro.batch import DEFAULT_CACHE
from repro.errors import StudyQueueFullError
from repro.serve import ServeClient, ServeConfig, ServerHandle
from repro.study import StudyResult, run_study, study_size

#: Where the served text's run-specific member starts.
_TELEMETRY = ', "telemetry": '

#: Poll interval on ``/result``, as in ``ServeClient.wait_result``.
_POLL_S = 0.05

#: Every this many studies, one repeats an earlier spec.
_REPEAT_EVERY = 4

#: Longest one study may take before it counts as failed.
_STUDY_TIMEOUT_S = 120.0


def setup(ctx: Context) -> ServerHandle:
    """Start the server until ready ``setup_repeats`` times; keep the last."""
    samples = ctx.setup.setdefault("server_ready_s", [])
    handle: Optional[ServerHandle] = None
    for _ in range(ctx.sizes.setup_repeats):
        if handle is not None:
            handle.stop()
        started = perf_counter()
        handle = ServerHandle(ServeConfig(port=0)).start()
        with ServeClient(port=handle.port) as probe:
            probe.wait_ready()
        samples.append(perf_counter() - started)
    return handle


def _split_telemetry(text: str) -> Tuple[str, Optional[str]]:
    at = text.rfind(_TELEMETRY)
    if at < 0:
        return text, None
    return text[:at] + "}", text[at + len(_TELEMETRY):-1]


def _fetch_result(client: ServeClient, study_id: str,
                  deadline: float) -> Tuple[str, float]:
    """Poll ``/result`` until it returns the text; also returns how long
    the answering request took."""
    while True:
        started = perf_counter()
        text = client.result_text(study_id)
        elapsed = perf_counter() - started
        if text is not None:
            return text, elapsed
        if perf_counter() > deadline:
            raise TimeoutError(f"study {study_id} not done in time")
        sleep(_POLL_S)


def _event_seconds(events: List[Dict[str, Any]], *names: str) -> float:
    return sum(e["dur_us"] for e in events if e["name"] in names) * 1e-6


def _charge_layers(ctx: Context, handle: ServerHandle, study_id: str,
                   telemetry: Optional[str], marks: Dict[str, float],
                   layers: Dict[str, list]) -> None:
    """Split one traced fresh study across the layers it crossed."""
    record = handle.server.store.get(study_id)
    created, started = record.created_clock, record.started_clock
    finished = record.finished_clock
    events = json.loads(telemetry)["events"] if telemetry else []
    executed = max((e["start_us"] + e["dur_us"] for e in events
                    if e["tid"] == 0), default=0) * 1e-6
    layers["queue"].append(started - created)
    execution = {
        "study.planner": _event_seconds(events, "study.compile",
                                        "shard.compile"),
        "batch.engine": _event_seconds(events, "shard.evaluate"),
        "study.runner": _event_seconds(events, "study.merge",
                                       "study.select"),
    }
    for layer, seconds in execution.items():
        ctx.layer_time[layer] += seconds
    ctx.record("result.encode", "study.result", started + executed, finished)
    # Serve is charged the rest of the caller's wait: submit, queueing,
    # polling, the result fetch and the status request.
    ctx.record("serve.study", "serve", marks["t0"], marks["t2"],
               queue_s=started - created, status_s=marks["t2"] - marks["t1"])
    ctx.layer_time["serve"] -= (
        sum(execution.values()) + (finished - started - executed)
    )


def _verify(ctx: Context, specs, served, layers) -> None:
    """Compare every served text with the in-process ``to_json()``."""
    references: Dict[int, str] = {}
    for entry in served:
        key = entry["key"]
        if key not in references:
            result = run_study(specs[key], cache=None)
            started = perf_counter()
            text = result.to_json()
            layers["encode"].append(perf_counter() - started)
            references[key] = text_digest(text)
            layers["bytes_per_row"].append(len(text) / len(result))
            if ctx.trace and len(layers["decode"]) < 3:
                started = perf_counter()
                StudyResult.from_json(text)
                layers["decode"].append(perf_counter() - started)
        if references[key] != entry["digest"]:
            ctx.fail(f"serve-mix study {entry['index']}: /result text "
                     "differs from the in-process to_json()")
            continue
        ctx.study(entry["rows"], entry["study_s"], entry["busy_s"],
                  entry["traced"], fresh=entry["fresh"])


def run(ctx: Context) -> None:
    rng = ctx.rng(4)
    specs = []
    served: List[Dict[str, Any]] = []
    layers: Dict[str, list] = {name: [] for name in (
        "queue", "fetch", "bytes", "status", "encode", "decode",
        "bytes_per_row",
    )}
    submitted = coalesced = rejected = 0
    handle = setup(ctx)
    cache_before = DEFAULT_CACHE.stats_snapshot()
    studies = ServeClient(port=handle.port, timeout_s=60.0)
    analyze = ServeClient(port=handle.port, timeout_s=60.0)
    try:
        with ctx.analyze_loop(analyze.analyze):
            for index in ctx.cycles():
                fresh = index % _REPEAT_EVERY != _REPEAT_EVERY - 1
                if fresh:
                    specs.append(knob_spec(rng, ctx.sizes.serve_axes))
                    key = len(specs) - 1
                else:
                    key = int(rng.integers(len(specs)))
                spec = specs[key]
                doc = spec.to_dict()
                traced = ctx.traced_cycle(index, _REPEAT_EVERY)
                ctx.attempt()
                try:
                    t0 = perf_counter()
                    submitted += 1
                    ack = studies.submit(doc)
                    coalesced += bool(ack["coalesced"])
                    study_id = ack["study_id"]
                    text, fetch_s = _fetch_result(
                        studies, study_id, t0 + _STUDY_TIMEOUT_S)
                    t1 = perf_counter()
                    status = studies.status(study_id)
                    t2 = perf_counter()
                    text = ctx.tamper("study", text)
                    body, telemetry = _split_telemetry(text)
                    ctx.expect(
                        status["state"] == "done" and status["result_ready"],
                        f"status reads {status['state']!r} after /result",
                    )
                    ctx.expect(status["spec_digest"] == spec.content_digest(),
                               "status names another spec digest")
                except StudyQueueFullError as exc:
                    rejected += 1
                    ctx.fail(f"serve-mix study {index}: refused: {exc}")
                    continue
                except Exception as exc:
                    ctx.fail(f"serve-mix study {index}: {exc!r}")
                    continue
                served.append({
                    "index": index, "key": key, "digest": text_digest(body),
                    "rows": study_size(spec), "study_s": t1 - t0,
                    "busy_s": t2 - t0, "traced": traced if fresh else None,
                    "fresh": fresh,
                })
                if traced:
                    layers["fetch"].append(fetch_s)
                    layers["bytes"].append(len(text.encode("utf-8")))
                    layers["status"].append(t2 - t1)
                    if fresh:
                        _charge_layers(
                            ctx, handle, study_id, telemetry,
                            {"t0": t0, "t1": t1, "t2": t2},
                            layers,
                        )
    finally:
        studies.close()
        analyze.close()
        handle.stop()
    window = DEFAULT_CACHE.stats_snapshot().delta(cache_before)
    _verify(ctx, specs, served, layers)
    if not ctx.trace:
        return
    lookups = window.hits + window.misses
    ctx.set_layer("cache.hit_rate",
                  window.hits / lookups if lookups else 0.0, lookups)
    for metric, key in (
        ("serve.queue_wait_s", "queue"),
        ("serve.result_fetch_s", "fetch"),
        ("serve.result_bytes", "bytes"),
        ("serve.status_fetch_s", "status"),
        ("result.encode_s", "encode"),
        ("result.decode_s", "decode"),
        ("result.bytes_per_row", "bytes_per_row"),
    ):
        ctx.set_layer(metric, median(layers[key]), len(layers[key]))
    ctx.set_layer("serve.coalesced_ratio",
                  coalesced / submitted if submitted else 0.0, submitted)
    ctx.set_layer("serve.rejected", rejected, submitted)
