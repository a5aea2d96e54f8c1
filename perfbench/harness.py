"""Shared machinery for the pipeline benchmark's workloads.

A :class:`Context` carries one run: its seed, its measurement window,
the samples the workload records, the per-layer ledger and the tally of
attempted and failed operations.

Every workload answers small analyze requests besides its studies.  On
``serve-mix`` they are ``POST /v1/analyze`` calls from
:class:`AnalyzeLoop`, an open-loop generator whose latencies run from
each request's scheduled send time, so a stall also counts against the
requests queued behind it.  The other workloads have no server: after
each study cycle the caller answers as many requests as the same rate
would have sent during the cycle, in process through ``run_analyze``.
They are the control on which serve changes should move nothing.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.obs import Tracer, maybe_span
from repro.serve import parse_analyze_request, run_analyze
from repro.study import DesignSpec, RankClause, StudySpec
from repro.uav.registry import UAV_PRESETS

#: Analyze requests per second on serve-mix.  Its one analyze connection
#: must drain the requests that queue behind each status-request stall;
#: at 15/s it sometimes could not, and its backlog grew for the rest of
#: the run.
ANALYZE_RATE_HZ = 6.0

#: In-process analyze requests per second of study time on the other
#: workloads.  The first request after a study runs on cold caches; at
#: this rate those stay a small share, clear of the tail percentile.
PROBE_RATE_HZ = 20.0

#: The analyze latency limit behind ``analyze_slo_pct``.
ANALYZE_LIMIT_MS = 250.0

#: Compute runtimes the analyze requests cover, seconds per decision.
ANALYZE_RUNTIMES_S = (0.005, 0.02, 0.05, 0.1, 0.2)

#: Candidate tail percentiles, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Top-k every study ranks by.
TOP_K = 10

#: Imports a fresh interpreter times for ``setup_s``.
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); "
    "t = time.perf_counter(); "
    "import repro.study, repro.batch, repro.distrib, repro.serve; "
    "print(time.perf_counter() - t)"
)


@dataclass(frozen=True)
class Sizes:
    """Workload dimensions; ``FULL`` is measured, ``TINY`` self-tests."""

    explore_axes: Tuple[int, int]
    durable_axes: Tuple[int, int]
    durable_chunk_rows: int
    distrib_axes: Tuple[int, int]
    distrib_chunk_rows: int
    serve_axes: Tuple[int, int]
    setup_repeats: int


FULL = Sizes(
    explore_axes=(1000, 1000),
    durable_axes=(100, 500),
    durable_chunk_rows=25_000,
    distrib_axes=(400, 500),
    distrib_chunk_rows=20_000,
    serve_axes=(200, 250),
    setup_repeats=3,
)

TINY = Sizes(
    explore_axes=(20, 25),
    durable_axes=(20, 50),
    durable_chunk_rows=500,
    distrib_axes=(20, 50),
    distrib_chunk_rows=100,
    serve_axes=(10, 20),
    setup_repeats=1,
)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def median(values: List[float]) -> float:
    return float(np.median(values)) if values else 0.0


def tail(values: List[float]) -> Tuple[float, float]:
    """``(percentile, value)``: the highest ladder percentile that has at
    least ten samples beyond it (the median when none has)."""
    n = len(values)
    eligible = [p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10]
    pct = eligible[-1] if eligible else TAIL_LADDER[0]
    return pct, float(np.percentile(values, pct)) if values else 0.0


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------
def knob_spec(rng: np.random.Generator, axes: Tuple[int, int]) -> StudySpec:
    """A ``compute_tdp_w`` x ``compute_runtime_s`` grid with seeded values."""
    n_tdp, n_runtime = axes
    tdp = np.sort(rng.uniform(1.0, 30.0, n_tdp))
    runtime = np.sort(
        np.exp(rng.uniform(np.log(0.002), np.log(0.5), n_runtime))
    )
    return StudySpec(
        design=DesignSpec.knob_axes(
            axes={"compute_tdp_w": tdp, "compute_runtime_s": runtime}
        ),
        rank=RankClause(by="safe_velocity", top_k=TOP_K),
    )


def analyze_pool() -> List[Dict[str, Any]]:
    """Analyze bodies over every UAV preset and :data:`ANALYZE_RUNTIMES_S`."""
    return [
        {"uav": uav, "runtime_s": runtime_s}
        for uav in sorted(UAV_PRESETS)
        for runtime_s in ANALYZE_RUNTIMES_S
    ]


class Order:
    """A seeded order over a pool: one permutation after another, so
    every run sends each request equally often."""

    def __init__(self, rng: np.random.Generator, size: int) -> None:
        self._rng = rng
        self._size = size
        self._pending: List[int] = []

    def next(self) -> int:
        if not self._pending:
            self._pending = list(self._rng.permutation(self._size))
        return int(self._pending.pop())


def canonical(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True)


def result_digest(result: Any) -> str:
    """A digest over every column, the selection and the spec of a
    :class:`~repro.study.StudyResult`."""
    h = hashlib.blake2b(digest_size=16)
    h.update(result.spec.canonical_json().encode("utf-8"))
    batch = result.batch
    h.update(repr((batch.knee_fraction, batch.tolerance,
                   batch.matrix.labels, result.axes)).encode("utf-8"))
    arrays = list(batch.matrix.columns()) + [
        batch.roof_velocity, batch.knee_hz, batch.knee_velocity,
        batch.action_throughput_hz, batch.safe_velocity,
        batch.bound_codes, batch.status_codes,
        result.selected_indices, result.total_mass_g, result.compute_tdp_w,
    ]
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def text_digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


# ---------------------------------------------------------------------------
# Host facts and set-up probes
# ---------------------------------------------------------------------------
def host_facts() -> Dict[str, Any]:
    """Facts later numbers are normalised by, including the time of a
    fixed numpy loop run in this process."""
    data = np.arange(1 << 20, dtype=np.float64)
    times = []
    for _ in range(5):
        started = perf_counter()
        for _ in range(4):
            float(np.sqrt(data * data + 1.0).sum())
        times.append(perf_counter() - started)
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calibration_s": median(times),
    }


def import_seconds(root: Path, repeats: int) -> List[float]:
    """Time ``import repro`` in fresh interpreters started in ``root``."""
    samples = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            cwd=root, capture_output=True, text=True, timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# The run context
# ---------------------------------------------------------------------------
class CheckFailed(Exception):
    """An output differed from its reference."""


def _no_tamper(kind: str, value: Any) -> Any:
    return value


class Context:
    """One benchmark run: inputs, window, samples, ledger and tally."""

    def __init__(
        self,
        seed: int,
        seconds: float,
        trace: bool,
        sizes: Sizes,
        work_dir: Path,
        tamper: Optional[Callable[[str, Any], Any]] = None,
    ) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.sizes = sizes
        self.work_dir = work_dir
        self.tamper = tamper or _no_tamper
        self.tracer = Tracer() if trace else None
        self.setup: Dict[str, List[float]] = {}
        self.studies: List[Dict[str, Any]] = []
        self.analyze: List[Dict[str, Any]] = []
        self.analyze_http = False
        self.inproc_ms: List[float] = []
        self.layer: Dict[str, float] = {}
        self.layer_n: Dict[str, int] = {}
        self.layer_time: Dict[str, float] = defaultdict(float)
        self.traced_s = 0.0
        self.attempted = 0
        self.failures: List[str] = []
        self._tally_lock = threading.Lock()
        self.window_s = 0.0
        self.peak_rss_mb = 0.0
        self._probe: Optional["AnalyzeProbe"] = None

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    # -- the measurement window ----------------------------------------
    def cycles(self) -> Iterator[int]:
        """Cycle indices while the next cycle is predicted to end at
        most half a cycle past the window; a traced run makes at least
        one traced and one untraced cycle."""
        minimum = 2 if self.trace else 1
        durations: List[float] = []
        started = perf_counter()
        index = 0
        while True:
            elapsed = perf_counter() - started
            if index >= minimum and elapsed + median(durations) / 2 > self.seconds:
                break
            cycle_started = perf_counter()
            yield index
            durations.append(perf_counter() - cycle_started)
            if self._probe is not None:
                self._probe.answer(round(PROBE_RATE_HZ * durations[-1]))
            index += 1
        self.window_s = perf_counter() - started
        self.peak_rss_mb = peak_rss_mb()

    def traced_cycle(self, index: int, block: int = 1) -> bool:
        """Odd blocks of ``block`` cycles of a traced run are traced; the
        rest, untraced, give the baseline for ``obs.trace_overhead_pct``.
        A workload whose cycles follow a pattern passes its period, so
        both halves hold the same mix."""
        return self.trace and (index // block) % 2 == 1

    # -- recording -----------------------------------------------------
    def attempt(self) -> None:
        with self._tally_lock:
            self.attempted += 1

    def fail(self, message: str) -> None:
        with self._tally_lock:
            self.failures.append(message)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            raise CheckFailed(message)

    def study(
        self,
        rows: int,
        seconds: float,
        busy_s: float,
        traced: Optional[bool],
        fresh: bool = True,
    ) -> None:
        """One verified study: ``seconds`` until the caller held the
        result, ``busy_s`` the caller spent in program calls for it.
        ``traced=None`` keeps it out of the tracing-overhead baseline;
        ``fresh=False`` (a repeat answered without computing) keeps it
        out of ``study_p50_s``."""
        self.studies.append(
            {"rows": rows, "seconds": seconds, "busy_s": busy_s,
             "traced": traced, "fresh": fresh}
        )
        if traced:
            self.traced_s += busy_s

    @contextmanager
    def timed(
        self,
        layer: str,
        name: str,
        into: Optional[List[float]] = None,
        **attributes: Any,
    ) -> Iterator[None]:
        """Time one call into ``layer`` as a span, charge it to the
        layer's share, and append its duration to ``into``."""
        with maybe_span(self.tracer, name, layer=layer, **attributes):
            started = perf_counter()
            try:
                yield
            finally:
                elapsed = perf_counter() - started
                self.layer_time[layer] += elapsed
                if into is not None:
                    into.append(elapsed)

    def record(self, name: str, layer: str, start: float, end: float,
               **attributes: Any) -> None:
        """Charge an already-timed call to ``layer`` and keep its span."""
        self.layer_time[layer] += end - start
        if self.tracer is not None:
            self.tracer.record_clock(name, start, end, layer=layer,
                                     **attributes)

    def set_layer(self, name: str, value: float, samples: int) -> None:
        self.layer[name] = float(value)
        self.layer_n[name] = int(samples)

    # -- the analyze generator -----------------------------------------
    def analyze_requests(self) -> List[Tuple[Dict[str, Any], str]]:
        """The analyze pool with in-process reference replies; also
        times ``run_analyze`` for ``serve.analyze_inproc_ms``."""
        pool = []
        for body in analyze_pool():
            started = perf_counter()
            reply = run_analyze(parse_analyze_request(body))
            self.inproc_ms.append((perf_counter() - started) * 1e3)
            pool.append((body, canonical(reply)))
        for body, _ in pool * 3:
            started = perf_counter()
            run_analyze(parse_analyze_request(body))
            self.inproc_ms.append((perf_counter() - started) * 1e3)
        return pool

    @contextmanager
    def analyze_loop(
        self, send: Optional[Callable[[Dict[str, Any]], Any]] = None
    ) -> Iterator[None]:
        """Answer analyze requests while the enclosed block runs.

        With ``send`` (deliver one body, return the reply document) an
        :class:`AnalyzeLoop` sends them on its own thread; without it,
        :meth:`cycles` answers them in process between cycles.
        """
        pool = self.analyze_requests()
        if send is None:
            self._probe = AnalyzeProbe(self, pool)
            try:
                yield
            finally:
                self._probe = None
            return
        self.analyze_http = True
        loop = AnalyzeLoop(self, send, pool)
        loop.start()
        try:
            yield
        finally:
            loop.stop()

    def answer(self, body: Dict[str, Any], reference: str,
               send: Callable[[Dict[str, Any]], Any], due: float) -> None:
        """Send one analyze request due at ``due`` and check its reply."""
        self.attempt()
        sent = perf_counter()
        ok = False
        try:
            reply = send(body)
            done = perf_counter()
            ok = canonical(self.tamper("analyze", reply)) == reference
            if not ok:
                self.fail(f"analyze reply for {body} differs from "
                          "run_analyze")
        except Exception as exc:  # a failed request is a miss
            done = perf_counter()
            self.fail(f"analyze {body} raised {exc!r}")
        self.analyze.append(
            {"late_s": sent - due, "latency_s": done - due,
             "service_s": done - sent, "ok": ok}
        )


def _run_analyze(body: Dict[str, Any]) -> Any:
    return run_analyze(parse_analyze_request(body))


class AnalyzeProbe:
    """Answer seeded analyze requests in process, one after another."""

    def __init__(self, ctx: Context,
                 pool: List[Tuple[Dict[str, Any], str]]) -> None:
        self._ctx = ctx
        self._pool = pool
        self._order = Order(ctx.rng(98), len(pool))

    def answer(self, count: int) -> None:
        for _ in range(max(1, count)):
            body, reference = self._pool[self._order.next()]
            self._ctx.answer(body, reference, _run_analyze, perf_counter())


class AnalyzeLoop:
    """Send analyze requests at :data:`ANALYZE_RATE_HZ` on one thread.

    One request is in flight at a time (one connection), so a stalled
    reply delays the requests scheduled behind it; each request's
    latency runs from its scheduled time.
    """

    def __init__(
        self,
        ctx: Context,
        send: Callable[[Dict[str, Any]], Any],
        pool: List[Tuple[Dict[str, Any], str]],
    ) -> None:
        self._ctx = ctx
        self._send = send
        self._pool = pool
        self._order = Order(ctx.rng(98), len(pool))
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="perfbench-analyze", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=120)
        if self._thread.is_alive():
            self._ctx.fail("analyze generator did not stop within 120 s")

    def _run(self) -> None:
        ctx = self._ctx
        period = 1.0 / ANALYZE_RATE_HZ
        started = perf_counter()
        index = 0
        while True:
            due = started + index * period
            wait_s = due - perf_counter()
            if wait_s > 0 and self._stop.wait(wait_s):
                return
            if self._stop.is_set():
                return
            body, reference = self._pool[self._order.next()]
            ctx.answer(body, reference, self._send, due)
            index += 1
