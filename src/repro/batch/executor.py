"""Sharded, parallel execution of batch evaluations.

:func:`~repro.batch.engine.evaluate_matrix` is a single vectorized
pass: one process, one allocation the size of the whole grid.  This
module scales that pass out without changing a single bit of the
result:

* :func:`iter_chunks` splits a :class:`~repro.batch.matrix.DesignMatrix`
  *or* a declarative :class:`~repro.study.spec.StudySpec` into
  row-range shards.  Spec shards are never materialized in the parent:
  each worker rebuilds only its ``[start, stop)`` rows by Cartesian
  index arithmetic (:func:`~repro.batch.grid.cartesian_slice` via
  :func:`~repro.study.planner.compile_chunk`), so a 10M-point grid
  needs ``O(chunk_rows)`` memory per worker, not ``O(N)``.
* :class:`ParallelExecutor` fans shards out over
  :mod:`concurrent.futures` workers — ``backend="process"`` (true
  parallelism, fresh per-worker caches), ``"thread"`` (shared cache,
  no pickling) or ``"serial"`` (chunked streaming in-process).
* :func:`evaluate_matrix_sharded` / :func:`evaluate_spec_sharded`
  merge per-shard results back into one
  :class:`~repro.batch.result.BatchResult` with stable global row
  indices (:func:`~repro.batch.result.concat_results`), and
  :func:`top_k_sharded` folds shards into a global top-k as they
  complete (:func:`~repro.batch.result.merge_top_k`), keeping ``O(k)``
  state so fleet-scale winners never require fleet-scale memory.
* :class:`CheckpointStore` persists each completed shard as one JSONL
  record next to a manifest
  (see :func:`repro.io.serialization.shard_manifest_to_dict` for the
  wire format), so an interrupted million-point study resumes from its
  completed shards instead of restarting.

Every worker process starts with a *fresh*
:data:`~repro.batch.engine.DEFAULT_CACHE` — a forked snapshot of the
parent's cache is cleared by the worker initializer, so cross-spec
state can never leak between runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.knee import DEFAULT_KNEE_FRACTION
from ..errors import ConfigurationError, ShardExecutionError
from ..io.serialization import (
    shard_manifest_to_dict,
    shard_record_from_dict,
    shard_record_to_dict,
)
from ..obs.progress import Progress, ProgressCallback
from ..obs.tracer import Tracer, maybe_span
from .engine import DEFAULT_CACHE, clear_default_cache, evaluate_matrix
from .matrix import DesignMatrix
from .result import BatchResult, concat_results, merge_top_k

#: Execution backends a :class:`ParallelExecutor` accepts.
BACKENDS = ("process", "thread", "serial")

#: Hard ceiling on rows per shard (bounds peak memory per worker).
DEFAULT_CHUNK_ROWS = 65536

#: Extra accounting columns study shards carry alongside the result.
EXTRA_COLUMNS = ("total_mass_g", "compute_tdp_w")

_MANIFEST_NAME = "manifest.json"


# ---------------------------------------------------------------------------
# Shards: the unit of work and its result
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Shard:
    """One row-range unit of work; ``task`` is the picklable worker payload."""

    index: int
    start: int
    stop: int
    task: Dict[str, Any]

    def __len__(self) -> int:
        return self.stop - self.start


# eq=False: ndarray fields; identity semantics, like BatchResult.
@dataclass(frozen=True, eq=False)
class ShardResult:
    """One shard's evaluated rows.

    ``local_indices`` is ``None`` for a full shard (rows are exactly
    ``[start, stop)``) or the shard-local row indices of a reduced
    (top-k) shard; :attr:`global_indices` maps either onto the full
    grid.
    """

    index: int
    start: int
    stop: int
    batch: BatchResult
    local_indices: Optional[np.ndarray] = None
    extras: Optional[Dict[str, np.ndarray]] = None
    #: The worker's shipped observability payload (``{"events",
    #: "counters", "elapsed_s"}``) when a traced shard ran in a worker
    #: *process*; ``None`` otherwise — untraced runs and in-process
    #: (serial/thread) shards, whose spans land directly in the parent
    #: tracer.  Not part of the checkpoint wire format —
    #: timings of a past run are not needed to resume it.
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def global_indices(self) -> np.ndarray:
        if self.local_indices is None:
            return np.arange(self.start, self.stop, dtype=np.intp)
        return self.start + np.asarray(self.local_indices, dtype=np.intp)


def shard_ranges(total_rows: int, chunk_rows: int) -> List[Tuple[int, int]]:
    """The ``[start, stop)`` row ranges ``chunk_rows`` splits a grid into."""
    if chunk_rows < 1:
        raise ConfigurationError(
            f"chunk_rows must be >= 1, got {chunk_rows}"
        )
    if total_rows < 0:
        raise ConfigurationError(
            f"total_rows must be >= 0, got {total_rows}"
        )
    return [
        (start, min(start + chunk_rows, total_rows))
        for start in range(0, max(total_rows, 1), chunk_rows)
    ]


def default_chunk_rows(total_rows: int, n_workers: int) -> int:
    """A chunk size giving each worker ~4 shards, capped for memory.

    The cap (:data:`DEFAULT_CHUNK_ROWS`) bounds per-worker peak memory
    on huge grids; the ~4-shards-per-worker target keeps the pool load
    balanced when shard costs vary.
    """
    target = math.ceil(max(total_rows, 1) / max(1, 4 * n_workers))
    return max(1, min(DEFAULT_CHUNK_ROWS, target))


def _matrix_digest(
    matrix: DesignMatrix, knee_fraction: float, tolerance: float
) -> str:
    """A cross-process-stable content digest of a matrix evaluation.

    Unlike :meth:`DesignMatrix.content_hash` (whose label component
    uses Python's per-process string hashing), labels are digested
    byte-wise here: checkpoint manifests must survive interpreter
    restarts.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(len(matrix).to_bytes(8, "little"))
    for column in matrix.columns():
        # Same bytes as ``column.tobytes()`` (columns are owned
        # C-contiguous copies), without the copy.
        digest.update(memoryview(column).cast("B"))
    if matrix.labels is not None:
        for label in matrix.labels:
            digest.update(label.encode("utf-8"))
            digest.update(b"\x00")
    digest.update(repr((knee_fraction, tolerance)).encode("ascii"))
    return digest.hexdigest()


def _spec_digest(spec: Any) -> str:
    """A canonical-JSON digest of a study spec (restart-stable)."""
    return spec.content_digest()


def _reduce_clause(
    k: Optional[int], by: str, descending: bool
) -> Optional[Dict[str, Any]]:
    if k is None:
        return None
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    return {"k": int(k), "by": by, "descending": bool(descending)}


def iter_chunks(
    source: Union[DesignMatrix, "Any"],
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    knee_fraction: Optional[float] = None,
    tolerance: float = 0.05,
    reduce: Optional[Dict[str, Any]] = None,
) -> Iterator[Shard]:
    """Stream the row-range shards of a matrix or a study spec.

    For a :class:`DesignMatrix`, each shard's task carries slices of
    the parent's columns (``O(chunk_rows)`` pickled bytes per shard).
    For a :class:`~repro.study.spec.StudySpec`, the task carries only
    the spec and the ``[start, stop)`` range — the worker rebuilds its rows
    by index arithmetic, so the full grid never exists in the parent;
    the spec's own ``knee_fraction``/``tolerance`` apply.

    ``reduce`` (``{"k", "by", "descending"}``) asks each worker to
    return only its shard-local top-k rows, the streaming-reduction
    mode :func:`top_k_sharded` builds on.
    """
    from ..study.spec import StudySpec

    if isinstance(source, DesignMatrix):
        resolved = knee_fraction
        if resolved is None:
            resolved = (
                source.knee_fraction
                if source.knee_fraction is not None
                else DEFAULT_KNEE_FRACTION
            )
        for index, (start, stop) in enumerate(
            shard_ranges(len(source), chunk_rows)
        ):
            yield Shard(
                index=index,
                start=start,
                stop=stop,
                task={
                    "kind": "matrix",
                    "index": index,
                    "start": start,
                    "stop": stop,
                    "columns": {
                        name: column[start:stop]
                        for name, column in zip(
                            source.column_names, source.columns()
                        )
                    },
                    "labels": (
                        source.labels[start:stop]
                        if source.labels is not None
                        else None
                    ),
                    "matrix_knee_fraction": source.knee_fraction,
                    "knee_fraction": resolved,
                    "tolerance": tolerance,
                    "reduce": reduce,
                },
            )
        return
    if isinstance(source, StudySpec):
        from ..study.planner import study_size

        for index, (start, stop) in enumerate(
            shard_ranges(study_size(source), chunk_rows)
        ):
            yield Shard(
                index=index,
                start=start,
                stop=stop,
                task={
                    "kind": "study",
                    "index": index,
                    "spec": source,
                    "start": start,
                    "stop": stop,
                    "knee_fraction": source.knee_fraction,
                    "tolerance": source.tolerance,
                    "reduce": reduce,
                },
            )
        return
    raise ConfigurationError(
        "iter_chunks takes a DesignMatrix or a StudySpec, got "
        f"{type(source).__name__}"
    )


# ---------------------------------------------------------------------------
# The worker side
# ---------------------------------------------------------------------------
def _init_worker() -> None:
    """Worker-process initializer: start from a fresh default cache.

    A forked worker inherits a snapshot of the parent's
    :data:`~repro.batch.engine.DEFAULT_CACHE` — entries *and*
    hit/miss counters.  Content addressing makes inherited hits
    technically correct, but a snapshot pins the parent's memory in
    every worker and makes cache statistics meaningless, so workers
    always begin empty.
    """
    clear_default_cache()


def _evaluate_shard(task: Dict[str, Any]) -> Dict[str, Any]:
    """Evaluate one shard task (runs in a worker, or inline).

    Any failure re-raises as a
    :class:`~repro.errors.ShardExecutionError` carrying the shard
    index and ``[start, stop)`` row range (the original exception
    stays attached as ``__cause__``): a bare worker traceback from a
    process pool says nothing about *which* rows died, and re-running
    just that range is the first debugging step.
    """
    try:
        return _evaluate_shard_task(task)
    except ShardExecutionError:
        raise
    except Exception as exc:
        index = task.get("index")
        start, stop = task.get("start"), task.get("stop")
        where = (
            f" (rows [{start}, {stop}))"
            if start is not None and stop is not None
            else ""
        )
        raise ShardExecutionError(
            f"shard {index}{where} failed: "
            f"{type(exc).__name__}: {exc}",
            shard_index=index,
            start=start,
            stop=stop,
        ) from exc


def _evaluate_shard_task(task: Dict[str, Any]) -> Dict[str, Any]:
    # In-process workers (serial/thread) get a ``tracer`` view of the
    # parent's tracer and record directly — same process, same epoch.
    # Process workers only see ``trace``: they build their own tracer
    # and ship its spans home as wire dicts for the parent to absorb.
    tracer = task.get("tracer")
    local = None
    if tracer is None and task.get("trace"):
        tracer = local = Tracer()
    shard_started = perf_counter() if tracer is not None else 0.0
    with maybe_span(tracer, "shard.compile"):
        if task["kind"] == "matrix":
            matrix = DesignMatrix.from_arrays(
                **task["columns"],
                labels=task["labels"],
                knee_fraction=task["matrix_knee_fraction"],
            )
            extras: Dict[str, np.ndarray] = {}
        else:
            from ..study.planner import compile_chunk

            plan = compile_chunk(task["spec"], task["start"], task["stop"])
            matrix = plan.matrix
            extras = {
                "total_mass_g": plan.total_mass_g,
                "compute_tdp_w": plan.compute_tdp_w,
            }
    # In-process (serial) streaming exists to bound memory by the chunk
    # size; memoizing every chunk in the shared default cache would
    # quietly pin the whole grid again, so streaming shards opt out.
    # Worker processes keep the (fresh, bounded) per-worker cache.
    with maybe_span(tracer, "shard.evaluate", rows=len(matrix)):
        result = evaluate_matrix(
            matrix,
            knee_fraction=task["knee_fraction"],
            tolerance=task["tolerance"],
            cache=None if task.get("streaming") else DEFAULT_CACHE,
            tracer=tracer,
        )
    local_indices: Optional[np.ndarray] = None
    reduce = task.get("reduce")
    if reduce is not None:
        with maybe_span(tracer, "shard.reduce", k=reduce["k"]):
            local_indices = result.top_k_indices(
                reduce["k"], reduce["by"], reduce["descending"]
            )
            result = result.take(local_indices)
            extras = {
                name: column[local_indices]
                for name, column in extras.items()
            }
    outcome: Dict[str, Any] = {
        "batch": result,
        "local_indices": local_indices,
        "extras": extras,
    }
    if tracer is not None:
        elapsed = perf_counter() - shard_started
        if local is None:
            outcome["elapsed_s"] = elapsed
        else:
            outcome["telemetry"] = {
                "events": local.to_events(),
                "counters": local.counters_snapshot(),
                "elapsed_s": elapsed,
            }
    return outcome


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------
class ParallelExecutor:
    """Fan shards out over serial, thread, or process workers.

    The pool is created lazily on first use and reused across calls
    (warm pools amortize process start-up over many studies); call
    :meth:`close` — or use the instance as a context manager — to shut
    it down.  ``backend="serial"`` evaluates shards inline, one at a
    time, which is the chunked *streaming* mode: peak memory is one
    chunk, not one grid.
    """

    def __init__(
        self,
        n_workers: Optional[int] = None,
        backend: str = "process",
    ) -> None:
        if backend not in BACKENDS:
            known = ", ".join(BACKENDS)
            raise ConfigurationError(
                f"unknown executor backend {backend!r}; backends: {known}"
            )
        if n_workers is None:
            n_workers = os.cpu_count() or 1
        if n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        self.n_workers = int(n_workers)
        self.backend = backend
        self._pool: Optional[Any] = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down (the executor may be reused after)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _ensure_pool(self) -> Any:
        if self._pool is None:
            if self.backend == "process":
                from concurrent.futures import ProcessPoolExecutor

                self._pool = ProcessPoolExecutor(
                    max_workers=self.n_workers, initializer=_init_worker
                )
            else:
                from concurrent.futures import ThreadPoolExecutor

                self._pool = ThreadPoolExecutor(
                    max_workers=self.n_workers
                )
        return self._pool

    def warm_up(self) -> None:
        """Spin the worker pool up eagerly (e.g. before benchmarking)."""
        if self.backend == "serial":
            return
        pool = self._ensure_pool()
        wait([pool.submit(os.getpid) for _ in range(self.n_workers)])

    def map_shards(
        self,
        shards: Iterable[Shard],
        tracer: Optional[Tracer] = None,
    ) -> Iterator[ShardResult]:
        """Evaluate shards, yielding results as they complete.

        Completion order is arbitrary for parallel backends; consumers
        that need global order collect by :attr:`ShardResult.index`.

        ``tracer`` opts workers into span recording: each shard
        contributes a parent-side ``shard.task`` span (dispatch →
        result receipt, with ``queue_wait_s``/``compute_s``
        attributes) and its worker-side spans
        (``shard.compile``/``shard.evaluate``/…) under
        ``tid = shard_index + 1``, plus a ``shards.completed``
        counter, worker cache counters, and a running ``rows_per_s``
        gauge.  In-process workers (serial and thread backends) record
        those spans directly into ``tracer`` via
        :meth:`~repro.obs.tracer.Tracer.track`; process workers ship
        them home as wire dicts (rebased on absorption, and also
        exposed as :attr:`ShardResult.telemetry`).
        """
        rows_done = 0
        started = perf_counter()
        overrides: Dict[str, Any] = (
            {"trace": True} if tracer is not None else {}
        )
        # Serial and thread backends share the parent's DEFAULT_CACHE:
        # memoizing every chunk there would pin (up to) the whole grid
        # in the process-wide cache against the caller's wishes.  Only
        # process workers — with their own fresh, bounded caches —
        # memoize chunks.
        in_process = self.backend in ("serial", "thread")
        if in_process:
            overrides["streaming"] = True

        def worker_task(shard: Shard) -> Dict[str, Any]:
            task = {**shard.task, **overrides}
            if tracer is not None and in_process:
                # Same process, same epoch: record spans directly onto
                # the shard's track instead of shipping wire dicts.
                task["tracer"] = tracer.track(shard.index + 1)
            return task

        # Metric handles are stable objects; resolve them once instead
        # of taking the tracer's registry lock on every shard.
        rate_gauge = (
            tracer.gauge("rows_per_s") if tracer is not None else None
        )
        completed_counter = (
            tracer.counter("shards.completed") if tracer is not None else None
        )

        def finish(
            shard: Shard,
            outcome: Dict[str, Any],
            dispatch_clock: float,
            finish_clock: float,
        ) -> ShardResult:
            """Record the parent-side view of one shard; wrap its result."""
            nonlocal rows_done
            rows_done += len(shard)
            if tracer is not None:
                telemetry = outcome.get("telemetry")
                worker_s = (
                    outcome.get("elapsed_s")
                    if telemetry is None
                    else telemetry.get("elapsed_s")
                )
                attrs: Dict[str, Any] = {
                    "shard": shard.index, "rows": len(shard)
                }
                if worker_s is not None:
                    attrs["compute_s"] = round(worker_s, 6)
                    attrs["queue_wait_s"] = round(
                        max(0.0, finish_clock - dispatch_clock - worker_s), 6
                    )
                tracer.record_clock(
                    "shard.task", dispatch_clock, finish_clock, **attrs
                )
                if telemetry:  # process workers: merge the wire payload
                    if telemetry.get("events"):
                        tracer.absorb(
                            telemetry["events"],
                            tid=shard.index + 1,
                            end_clock=finish_clock,
                            shard=shard.index,
                        )
                    if telemetry.get("counters"):
                        tracer.merge_counters(telemetry["counters"])
                completed_counter.add()
            elapsed = perf_counter() - started
            if rate_gauge is not None and elapsed > 0:
                rate_gauge.set(rows_done / elapsed)
            return ShardResult(
                index=shard.index,
                start=shard.start,
                stop=shard.stop,
                batch=outcome["batch"],
                local_indices=outcome["local_indices"],
                extras=outcome["extras"],
                telemetry=outcome.get("telemetry"),
            )

        if self.backend == "serial":
            for shard in shards:
                dispatched = perf_counter()
                outcome = _evaluate_shard(worker_task(shard))
                yield finish(shard, outcome, dispatched, perf_counter())
            return
        pool = self._ensure_pool()
        future_to_shard: Dict[Future, Shard] = {}
        dispatch_clock: Dict[Future, float] = {}
        for shard in shards:
            future = pool.submit(_evaluate_shard, worker_task(shard))
            future_to_shard[future] = shard
            dispatch_clock[future] = perf_counter()
        pending = set(future_to_shard)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                shard = future_to_shard[future]
                outcome = future.result()
                yield finish(
                    shard, outcome, dispatch_clock[future], perf_counter()
                )


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ShardManifest:
    """The identity of one sharded run, pinned to its checkpoint dir.

    Resume only reuses shard files whose manifest matches the incoming
    run field-for-field — same source digest, chunking and evaluation
    contract — so a checkpoint directory can never silently feed rows
    from a different study.  Serialized by
    :func:`repro.io.serialization.shard_manifest_to_dict`.
    """

    kind: str  # "study" | "matrix"
    digest: str
    total_rows: int
    chunk_rows: int
    n_shards: int
    knee_fraction: Optional[float]
    tolerance: float
    reduce: Optional[Dict[str, Any]] = None


class CheckpointStore:
    """One JSONL record per completed shard, plus a pinning manifest.

    Layout: ``<dir>/manifest.json`` and ``<dir>/shard-<index>.jsonl``
    (each a single JSON line; a record is only visible after an atomic
    rename, so an interrupt mid-write never corrupts a visible shard).
    Unreadable shard files are skipped — their rows are simply
    recomputed — while a missing or mismatched manifest is a hard
    :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(
        self, directory: Union[str, Path], manifest: ShardManifest
    ) -> None:
        self.directory = Path(directory)
        self.manifest = manifest
        self.skipped: List[str] = []

    # -- construction --------------------------------------------------
    @staticmethod
    def peek_manifest(directory: Union[str, Path]) -> Optional[ShardManifest]:
        """The manifest already in ``directory``, if a readable one exists."""
        from ..io.serialization import shard_manifest_from_dict

        path = Path(directory) / _MANIFEST_NAME
        if not path.exists():
            return None
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(
                f"checkpoint manifest {path} is unreadable: {exc}"
            ) from exc
        return shard_manifest_from_dict(data)

    @classmethod
    def open(
        cls,
        directory: Union[str, Path],
        manifest: ShardManifest,
        must_exist: bool = False,
    ) -> "CheckpointStore":
        """Bind a checkpoint directory to this run's manifest.

        A fresh directory is created and stamped; an existing one must
        match the incoming manifest exactly.  ``must_exist=True`` (the
        ``--resume`` contract) additionally rejects a directory without
        a manifest instead of silently starting over.
        """
        directory = Path(directory)
        existing = cls.peek_manifest(directory)
        if existing is None:
            if must_exist:
                raise ConfigurationError(
                    f"cannot resume: no checkpoint manifest at "
                    f"{directory / _MANIFEST_NAME}"
                )
            directory.mkdir(parents=True, exist_ok=True)
            _atomic_write(
                directory / _MANIFEST_NAME,
                json.dumps(shard_manifest_to_dict(manifest)) + "\n",
            )
        elif existing != manifest:
            mismatched = [
                f"{name} (checkpoint has {getattr(existing, name)!r}, "
                f"this run has {getattr(manifest, name)!r})"
                for name in manifest.__dataclass_fields__
                if getattr(existing, name) != getattr(manifest, name)
            ]
            raise ConfigurationError(
                f"checkpoint directory {directory} was written by a "
                f"different run: manifest field(s) do not match: "
                f"{'; '.join(mismatched)} "
                "(pass a fresh directory, or re-run with the original "
                "spec and chunking)"
            )
        return cls(directory, manifest)

    # -- shard records -------------------------------------------------
    def shard_path(self, index: int) -> Path:
        return self.directory / f"shard-{index:06d}.jsonl"

    def write(self, result: ShardResult) -> None:
        """Persist one completed shard atomically (write + rename)."""
        record = json.dumps(shard_record_to_dict(result))
        _atomic_write(self.shard_path(result.index), record + "\n")

    def load_completed(self) -> Dict[int, ShardResult]:
        """Every reusable shard record, keyed by shard index.

        Records that fail to parse or validate (a partial write from a
        hard kill predating the atomic rename, manual edits) are noted
        in :attr:`skipped` and recomputed rather than trusted.
        """
        completed: Dict[int, ShardResult] = {}
        for path in sorted(self.directory.glob("shard-*.jsonl")):
            result = self._read_record(path)
            if result is not None:
                completed[result.index] = result
        return completed

    def load_shard(self, index: int) -> Optional[ShardResult]:
        """The record for one shard, if a valid one is on disk.

        Same validation contract as :meth:`load_completed`, scoped to a
        single index — the distributed executor polls with this to pick
        up shards finished by *other* workers without re-reading the
        whole directory.  An invalid or misfiled record reads as
        "absent" (and is noted in :attr:`skipped`), so a torn record is
        recomputed, never trusted.
        """
        path = self.shard_path(index)
        if not path.exists():
            return None
        result = self._read_record(path)
        if result is not None and result.index != index:
            self.skipped.append(
                f"{path.name}: record index {result.index} does not match "
                f"file name"
            )
            return None
        return result

    def _read_record(self, path: Path) -> Optional[ShardResult]:
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            result = shard_record_from_dict(data)
            # The manifest's uniform chunking fully determines every
            # shard's row range, so a record whose range disagrees
            # with its index (a hand-edited or misfiled record)
            # would silently misplace rows if trusted.
            start = result.index * self.manifest.chunk_rows
            stop = min(
                start + self.manifest.chunk_rows,
                self.manifest.total_rows,
            )
            if not (
                0 <= result.index < self.manifest.n_shards
                and (result.start, result.stop) == (start, stop)
            ):
                raise ConfigurationError(
                    f"row range [{result.start}, {result.stop}) does "
                    f"not match shard {result.index} of the manifest "
                    f"chunking ([{start}, {stop}))"
                )
        except (OSError, json.JSONDecodeError, ConfigurationError) as exc:
            self.skipped.append(f"{path.name}: {exc}")
            return None
        return result


def _atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via a rename, safe for racing writers.

    Each writer stages to its own temp name (pid + thread id), so two
    actors publishing the same record — a stolen distrib shard, or
    ``manifest.json``/``spec.json`` written by every joining worker —
    never rename each other's temp file away.  The ``.tmp`` suffix
    keeps the staging file out of the ``shard-*.jsonl`` record glob.
    """
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp"
    )
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# Drivers: shard -> evaluate -> merge
# ---------------------------------------------------------------------------
def _stream_results(
    shards: Sequence[Shard],
    executor: Optional[ParallelExecutor],
    checkpoint: Optional[CheckpointStore],
    tracer: Optional[Tracer] = None,
    progress: Optional[ProgressCallback] = None,
) -> Iterator[ShardResult]:
    """Yield shard results (checkpointed first, then freshly computed).

    Progress accounting lives here, not in ``map_shards``, so shards
    restored from a checkpoint count toward the same done/total a
    resumed run reports; checkpoint persistence is timed as
    ``checkpoint.write`` spans.
    """
    completed: Dict[int, ShardResult] = (
        checkpoint.load_completed() if checkpoint is not None else {}
    )
    total = len(shards)
    rows_total = sum(len(s) for s in shards)
    done = 0
    rows_done = 0
    started = perf_counter()

    def advance(result: ShardResult) -> ShardResult:
        nonlocal done, rows_done
        done += 1
        rows_done += result.stop - result.start
        if progress is not None:
            progress(
                Progress(
                    done=done,
                    total=total,
                    rows_done=rows_done,
                    rows_total=rows_total,
                    elapsed_s=perf_counter() - started,
                )
            )
        return result

    for index in sorted(completed):
        if tracer is not None:
            tracer.counter("shards.resumed").add()
        yield advance(completed[index])
    remaining = [s for s in shards if s.index not in completed]
    if not remaining:
        return
    own = executor is None
    executor = executor or ParallelExecutor(backend="serial")
    try:
        for result in executor.map_shards(remaining, tracer=tracer):
            if checkpoint is not None:
                write_started = perf_counter()
                checkpoint.write(result)
                if tracer is not None:
                    tracer.record_clock(
                        "checkpoint.write",
                        write_started,
                        perf_counter(),
                        shard=result.index,
                    )
                    tracer.counter("checkpoint.writes").add()
            yield advance(result)
    finally:
        if own:
            executor.close()


def _collect_ordered(
    shards: Sequence[Shard],
    executor: Optional[ParallelExecutor],
    checkpoint: Optional[CheckpointStore],
    tracer: Optional[Tracer] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[ShardResult]:
    results = {
        r.index: r
        for r in _stream_results(
            shards, executor, checkpoint, tracer=tracer, progress=progress
        )
    }
    missing = [s.index for s in shards if s.index not in results]
    if missing:  # pragma: no cover - internal invariant
        raise ConfigurationError(
            f"shard(s) {missing} produced no result"
        )
    return [results[s.index] for s in shards]


def _open_checkpoint(
    checkpoint_dir: Optional[Union[str, Path]],
    resume: bool,
    kind: str,
    digest: str,
    total_rows: int,
    chunk_rows: Optional[int],
    n_workers: int,
    knee_fraction: Optional[float],
    tolerance: float,
    reduce: Optional[Dict[str, Any]],
) -> Tuple[Optional[CheckpointStore], int]:
    """Resolve the chunk size and bind the checkpoint dir, if any.

    On resume, an unspecified ``chunk_rows`` adopts the manifest's, so
    ``--resume <dir>`` picks up exactly where the original invocation
    left off even if the worker count changed.
    """
    if resume and checkpoint_dir is None:
        raise ConfigurationError("resume requires a checkpoint directory")
    if checkpoint_dir is not None and chunk_rows is None:
        existing = CheckpointStore.peek_manifest(checkpoint_dir)
        if existing is not None:
            chunk_rows = existing.chunk_rows
    if chunk_rows is None:
        chunk_rows = default_chunk_rows(total_rows, n_workers)
    elif chunk_rows < 1:
        raise ConfigurationError(
            f"chunk_rows must be >= 1, got {chunk_rows}"
        )
    if checkpoint_dir is None:
        return None, chunk_rows
    manifest = ShardManifest(
        kind=kind,
        digest=digest,
        total_rows=total_rows,
        chunk_rows=chunk_rows,
        n_shards=len(shard_ranges(total_rows, chunk_rows)),
        knee_fraction=knee_fraction,
        tolerance=tolerance,
        reduce=reduce,
    )
    store = CheckpointStore.open(
        checkpoint_dir, manifest, must_exist=resume
    )
    return store, chunk_rows


def evaluate_matrix_sharded(
    matrix: DesignMatrix,
    knee_fraction: Optional[float] = None,
    tolerance: float = 0.05,
    executor: Optional[ParallelExecutor] = None,
    chunk_rows: Optional[int] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    tracer: Optional[Tracer] = None,
    progress: Optional[ProgressCallback] = None,
) -> BatchResult:
    """Sharded :func:`~repro.batch.engine.evaluate_matrix`.

    Bitwise identical to the one-pass engine (every kernel is
    elementwise, so chunk boundaries cannot change a single double).
    Prefer calling ``evaluate_matrix(..., executor=...)``, which also
    consults the result cache.  ``tracer``/``progress`` opt into
    per-shard spans and completion callbacks (see
    :meth:`ParallelExecutor.map_shards`).
    """
    if knee_fraction is None:
        knee_fraction = (
            matrix.knee_fraction
            if matrix.knee_fraction is not None
            else DEFAULT_KNEE_FRACTION
        )
    n_workers = executor.n_workers if executor is not None else 1
    checkpoint, chunk_rows = _open_checkpoint(
        checkpoint_dir,
        resume,
        kind="matrix",
        digest=_matrix_digest(matrix, knee_fraction, tolerance),
        total_rows=len(matrix),
        chunk_rows=chunk_rows,
        n_workers=n_workers,
        knee_fraction=knee_fraction,
        tolerance=tolerance,
        reduce=None,
    )
    shards = list(
        iter_chunks(
            matrix,
            chunk_rows=chunk_rows,
            knee_fraction=knee_fraction,
            tolerance=tolerance,
        )
    )
    ordered = _collect_ordered(
        shards, executor, checkpoint, tracer=tracer, progress=progress
    )
    with maybe_span(tracer, "study.merge", shards=len(ordered)):
        # Reuse the caller's matrix rather than reassembling a second
        # full-size copy from the chunk matrices.
        return concat_results([r.batch for r in ordered], matrix=matrix)


def evaluate_spec_sharded(
    spec: Any,
    executor: Optional[ParallelExecutor] = None,
    chunk_rows: Optional[int] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    tracer: Optional[Tracer] = None,
    progress: Optional[ProgressCallback] = None,
) -> Tuple[BatchResult, Dict[str, np.ndarray]]:
    """Evaluate a :class:`~repro.study.spec.StudySpec` shard by shard.

    Workers rebuild only their own rows (Cartesian index arithmetic),
    evaluate them, and ship the result columns back; the merged batch
    plus the study's accounting columns (:data:`EXTRA_COLUMNS`) come
    back exactly as :func:`~repro.study.planner.compile_spec` +
    ``evaluate_matrix`` would produce them in one pass.
    """
    from ..study.planner import study_size
    from ..study.spec import StudySpec

    if not isinstance(spec, StudySpec):
        raise ConfigurationError(
            f"evaluate_spec_sharded takes a StudySpec, got "
            f"{type(spec).__name__}"
        )
    n_workers = executor.n_workers if executor is not None else 1
    with maybe_span(tracer, "study.compile") as compile_span:
        total_rows = study_size(spec)
        checkpoint, chunk_rows = _open_checkpoint(
            checkpoint_dir,
            resume,
            kind="study",
            digest=_spec_digest(spec),
            total_rows=total_rows,
            chunk_rows=chunk_rows,
            n_workers=n_workers,
            knee_fraction=spec.knee_fraction,
            tolerance=spec.tolerance,
            reduce=None,
        )
        shards = list(iter_chunks(spec, chunk_rows=chunk_rows))
        compile_span.set(rows=total_rows, shards=len(shards))
    ordered = _collect_ordered(
        shards, executor, checkpoint, tracer=tracer, progress=progress
    )
    with maybe_span(tracer, "study.merge", shards=len(ordered)):
        batch = concat_results([r.batch for r in ordered])
        extras = {
            name: np.concatenate([r.extras[name] for r in ordered])
            for name in EXTRA_COLUMNS
        }
    return batch, extras


def top_k_sharded(
    source: Union[DesignMatrix, Any],
    k: int,
    by: str = "safe_velocity",
    descending: bool = True,
    knee_fraction: Optional[float] = None,
    tolerance: float = 0.05,
    executor: Optional[ParallelExecutor] = None,
    chunk_rows: Optional[int] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    tracer: Optional[Tracer] = None,
    progress: Optional[ProgressCallback] = None,
) -> Tuple[np.ndarray, BatchResult]:
    """The global top-k of a grid, streamed shard by shard.

    Each worker returns only its shard-local winners, and completed
    shards fold into a running candidate set of at most ``k`` rows
    (:func:`~repro.batch.result.merge_top_k`), so peak memory is one
    chunk plus ``O(k)`` — never the full grid — and per-shard IPC is
    ``O(k)`` instead of ``O(chunk_rows)``.  Returns
    ``(global_row_indices, result)``, identical to evaluating the full
    grid and calling ``top_k(k, by, descending)``.
    """
    from ..study.spec import StudySpec

    reduce = _reduce_clause(k, by, descending)
    if isinstance(source, DesignMatrix):
        if knee_fraction is None:
            knee_fraction = (
                source.knee_fraction
                if source.knee_fraction is not None
                else DEFAULT_KNEE_FRACTION
            )
        kind, digest = "matrix", _matrix_digest(
            source, knee_fraction, tolerance
        )
        total = len(source)
    elif isinstance(source, StudySpec):
        from ..study.planner import study_size

        kind, digest = "study", _spec_digest(source)
        total = study_size(source)
        knee_fraction = source.knee_fraction
        tolerance = source.tolerance
    else:
        raise ConfigurationError(
            "top_k_sharded takes a DesignMatrix or a StudySpec, got "
            f"{type(source).__name__}"
        )
    n_workers = executor.n_workers if executor is not None else 1
    checkpoint, chunk_rows = _open_checkpoint(
        checkpoint_dir,
        resume,
        kind=kind,
        digest=digest,
        total_rows=total,
        chunk_rows=chunk_rows,
        n_workers=n_workers,
        knee_fraction=knee_fraction,
        tolerance=tolerance,
        reduce=reduce,
    )
    shards = iter_chunks(
        source,
        chunk_rows=chunk_rows,
        knee_fraction=knee_fraction,
        tolerance=tolerance,
        reduce=reduce,
    )
    running: Optional[Tuple[np.ndarray, BatchResult]] = None
    for result in _stream_results(
        list(shards), executor, checkpoint, tracer=tracer, progress=progress
    ):
        candidate = (result.global_indices, result.batch)
        parts = [candidate] if running is None else [running, candidate]
        with maybe_span(tracer, "study.merge", k=k, shard=result.index):
            running = merge_top_k(parts, k, by=by, descending=descending)
    assert running is not None  # shard_ranges yields >= 1 range
    return running
