"""The distributed executor: N hosts pulling shards of one study.

:class:`DistributedExecutor` exposes the same ``map_shards`` contract
as :class:`~repro.batch.executor.ParallelExecutor`, so it plugs into
``run_study(executor=)`` unchanged — but instead of fanning shards out
to a local pool it *pulls* them from a shared work directory under the
lease protocol (see :mod:`repro.distrib.lease` and
``docs/distributed-protocol.md``):

1. publish (or adopt) the work dir's manifest + ``spec.json``;
2. loop over unfinished shards: skip ones whose record exists, claim a
   lease, compute, publish the record atomically, release;
3. when only remotely-leased shards remain, poll for their records
   (re-claiming any whose lease expires);
4. sweep leftover leases once every shard record exists.

A shard is *done* when its record file exists — never when a lease
says so — which is what makes every crash recoverable: the claim →
compute → record → release sequence can stop anywhere and another
worker resumes from the record check.
"""

from __future__ import annotations

import os
import socket
import threading
import zlib
from pathlib import Path
from time import sleep
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from ..batch.executor import (
    CheckpointStore,
    Shard,
    ShardManifest,
    ShardResult,
    _atomic_write,
    _evaluate_shard,
)
from ..errors import ConfigurationError, StaleLeaseError
from ..obs.tracer import Tracer, maybe_span
from .lease import DEFAULT_LEASE_TTL_S, LeaseStore

#: Name of the published spec file next to ``manifest.json`` — joining
#: workers rebuild their shard list from it.
SPEC_FILE_NAME = "spec.json"

#: Fault-injection knob for crash tests and the CI smoke: a float
#: number of seconds to sleep *inside* each shard computation (after
#: the lease is claimed, before the record is written), widening the
#: window in which a kill lands mid-shard.
INJECT_DELAY_ENV = "REPRO_DISTRIB_INJECT_SHARD_DELAY_S"


def default_worker_id() -> str:
    """A host-and-process-unique worker id, e.g. ``"host-a-12041"``."""
    return f"{socket.gethostname()}-{os.getpid()}"


def _injected_delay_s() -> float:
    raw = os.environ.get(INJECT_DELAY_ENV)
    if not raw:
        return 0.0
    try:
        return max(0.0, float(raw))
    except ValueError:
        return 0.0


class _HeartbeatPump:
    """A daemon thread refreshing every lease this worker holds.

    Heartbeats continue while the drive loop is deep inside a shard
    computation, so a slow shard is not mistaken for a dead worker.
    A heartbeat that discovers its lease stolen simply drops the index
    — the compute thread learns the same thing at release time.
    """

    def __init__(
        self,
        leases: LeaseStore,
        interval_s: float,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self._leases = leases
        self._interval_s = interval_s
        self._tracer = tracer
        self._held: Set[int] = set()
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def add(self, index: int) -> None:
        with self._lock:
            self._held.add(index)

    def discard(self, index: int) -> None:
        with self._lock:
            self._held.discard(index)

    def start(self) -> None:
        self._wake.clear()
        self._thread = threading.Thread(
            target=self._run, name="distrib-heartbeat", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._wake.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def _run(self) -> None:
        while not self._wake.wait(self._interval_s):
            with self._lock:
                held = sorted(self._held)
            for index in held:
                try:
                    self._leases.heartbeat(index)
                except StaleLeaseError:
                    if self._tracer is not None:
                        self._tracer.counter("distrib.leases.stale").add()
                    self.discard(index)
                except OSError:  # pragma: no cover - transient fs hiccup
                    pass


def _release_quietly(
    leases: LeaseStore, index: int, tracer: Optional[Tracer]
) -> None:
    """Release a lease, absorbing a takeover (the record settles it)."""
    try:
        leases.release(index)
    except StaleLeaseError:
        if tracer is not None:
            tracer.counter("distrib.leases.stale").add()


def _rotated(indices: List[int], owner: str) -> List[int]:
    """The index list rotated by a stable per-owner offset.

    Workers starting simultaneously would otherwise all race for shard
    0, then shard 1, …, paying a failed-claim syscall per collision;
    distinct starting offsets spread the first claims apart.  This is
    an ordering heuristic only — claims stay safe in any order.
    """
    if not indices:
        return indices
    offset = zlib.crc32(owner.encode("utf-8")) % len(indices)
    return indices[offset:] + indices[:offset]


def _drive(
    store: CheckpointStore,
    leases: LeaseStore,
    shards: Iterable[Shard],
    evaluate: Callable[[Shard], ShardResult],
    poll_interval_s: float,
    pump: _HeartbeatPump,
    tracer: Optional[Tracer] = None,
) -> Iterator[Tuple[str, ShardResult]]:
    """Pull shards to completion, yielding ``(event, result)`` pairs.

    Events: ``"resumed"`` (record predated this call), ``"loaded"``
    (another worker published the record while we ran), ``"computed"``
    (this worker evaluated it).  The loop terminates when every shard
    in ``shards`` has a record; it never returns early, so the caller
    always sees a complete result set.
    """
    pending: Dict[int, Shard] = {shard.index: shard for shard in shards}
    for index in sorted(store.load_completed()):
        if index not in pending:
            continue
        result = store.load_shard(index)
        if result is None:  # pragma: no cover - raced with a torn write
            continue
        del pending[index]
        leases.sweep((index,))
        if tracer is not None:
            tracer.counter("distrib.shards.resumed").add()
        yield "resumed", result
    while pending:
        progressed = False
        for index in _rotated(sorted(pending), leases.owner):
            if index not in pending:  # pragma: no cover - defensive
                continue
            result = store.load_shard(index)
            if result is not None:
                del pending[index]
                leases.sweep((index,))
                progressed = True
                if tracer is not None:
                    tracer.counter("distrib.shards.loaded").add()
                yield "loaded", result
                continue
            if leases.try_claim(index) is None:
                continue
            # Re-check under the lease: the record may have landed (and
            # its holder released) between our probe and our claim.
            result = store.load_shard(index)
            if result is None:
                pump.add(index)
                try:
                    delay_s = _injected_delay_s()
                    if delay_s > 0:
                        sleep(delay_s)
                    result = evaluate(pending[index])
                    store.write(result)
                except BaseException:
                    _release_quietly(leases, index, tracer)
                    raise
                finally:
                    pump.discard(index)
                event = "computed"
                counter = "distrib.shards.computed"
            else:
                event = "loaded"
                counter = "distrib.shards.loaded"
            _release_quietly(leases, index, tracer)
            del pending[index]
            progressed = True
            if tracer is not None:
                tracer.counter(counter).add()
            yield event, result
        if pending and not progressed:
            if tracer is not None:
                tracer.counter("distrib.wait_polls").add()
            with maybe_span(tracer, "distrib.wait", pending=len(pending)):
                sleep(poll_interval_s)
    # Every shard has a record now; any surviving lease (ours released
    # above, a crashed worker's otherwise) is litter.
    leases.sweep([shard.index for shard in shards])


def _study_evaluator(
    tracer: Optional[Tracer],
) -> Callable[[Shard], ShardResult]:
    """Build the in-process shard evaluator (serial-backend semantics).

    Streaming mode keeps peak memory at one chunk (matching the serial
    backend: the process-wide default cache must not quietly pin the
    whole grid), and an in-process tracer track records worker-side
    spans directly.
    """

    def evaluate(shard: Shard) -> ShardResult:
        task: Dict[str, Any] = {**shard.task, "streaming": True}
        if tracer is not None:
            task["tracer"] = tracer.track(shard.index + 1)
        outcome = _evaluate_shard(task)
        return ShardResult(
            index=shard.index,
            start=shard.start,
            stop=shard.stop,
            batch=outcome["batch"],
            local_indices=outcome["local_indices"],
            extras=outcome["extras"],
        )

    return evaluate


def resolve_study_manifest(
    work_dir: Union[str, Path], shards: List[Shard]
) -> Tuple[ShardManifest, Any]:
    """The work dir's manifest for these shards (adopted or inferred).

    An existing manifest wins — the incoming shard list must then match
    its digest and chunking (mismatches name both values).  On a fresh
    directory the manifest is inferred from the shard list, which must
    cover ``[0, total_rows)`` contiguously: a distributed work dir
    advertises the *whole* study to joining workers, so seeding it from
    a partial shard list would strand them.  Returns
    ``(manifest, spec)``.
    """
    if not shards:
        raise ConfigurationError(
            "distributed execution needs at least one shard"
        )
    for shard in shards:
        if shard.task.get("kind") != "study":
            raise ConfigurationError(
                "distributed execution requires StudySpec shards (their "
                "tasks are rebuilt from the spec on any host); got a "
                f"{shard.task.get('kind')!r} shard — run the study via "
                "a StudySpec instead of a materialized DesignMatrix"
            )
    ordered = sorted(shards, key=lambda shard: shard.index)
    first = ordered[0]
    spec = first.task["spec"]
    digest = spec.content_digest()
    existing = CheckpointStore.peek_manifest(work_dir)
    if existing is not None:
        if existing.digest != digest:
            raise ConfigurationError(
                f"work dir {Path(work_dir)} holds a different study: "
                f"manifest digest is {existing.digest!r}, this run's "
                f"spec digest is {digest!r} (pass a fresh --work-dir, "
                "or re-run with the original spec)"
            )
        return existing, spec
    expected_start = 0
    for shard in ordered:
        if shard.start != expected_start:
            raise ConfigurationError(
                f"cannot seed a distributed work dir from a partial "
                f"shard list: rows [{expected_start}, {shard.start}) "
                "are missing"
            )
        expected_start = shard.stop
    if ordered[0].index != 0 or ordered[-1].index != len(ordered) - 1:
        raise ConfigurationError(
            "cannot seed a distributed work dir from a partial shard "
            "list: shard indices must run 0..n-1"
        )
    manifest = ShardManifest(
        kind="study",
        digest=digest,
        total_rows=ordered[-1].stop,
        chunk_rows=len(ordered[0]),
        n_shards=len(ordered),
        knee_fraction=first.task["knee_fraction"],
        tolerance=first.task["tolerance"],
        reduce=first.task["reduce"],
    )
    return manifest, spec


def publish_spec(work_dir: Union[str, Path], spec: Any) -> None:
    """Write ``spec.json`` next to the manifest (idempotent, atomic).

    Joining workers rebuild the shard list from it; an existing file is
    verified by digest rather than overwritten, so two initiators
    racing on one directory cannot disagree silently.
    """
    path = Path(work_dir) / SPEC_FILE_NAME
    if path.exists():
        from ..study.spec import StudySpec

        found = StudySpec.from_json(path.read_text(encoding="utf-8"))
        if found.content_digest() != spec.content_digest():
            raise ConfigurationError(
                f"work dir {Path(work_dir)} already publishes a "
                f"different spec: {SPEC_FILE_NAME} digest is "
                f"{found.content_digest()!r}, this run's spec digest "
                f"is {spec.content_digest()!r}"
            )
        return
    _atomic_write(path, spec.to_json(indent=2) + "\n")


class DistributedExecutor:
    """Pull shards of one study from a shared work directory.

    Drop-in for :class:`~repro.batch.executor.ParallelExecutor` in
    ``run_study(executor=)``: ``map_shards`` yields every requested
    shard's result, computing the ones this worker wins leases for and
    absorbing records other workers publish.  ``n_workers`` is the
    *expected fleet size* — it only informs default chunk sizing, never
    correctness; workers may join and leave freely.
    """

    def __init__(
        self,
        work_dir: Union[str, Path],
        worker_id: Optional[str] = None,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        n_workers: int = 1,
        poll_interval_s: Optional[float] = None,
        heartbeat_interval_s: Optional[float] = None,
    ) -> None:
        if not lease_ttl_s > 0:
            raise ConfigurationError(
                f"lease_ttl_s must be > 0, got {lease_ttl_s}"
            )
        if n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        if poll_interval_s is None:
            poll_interval_s = min(1.0, lease_ttl_s / 4.0)
        if not poll_interval_s > 0:
            raise ConfigurationError(
                f"poll_interval_s must be > 0, got {poll_interval_s}"
            )
        if heartbeat_interval_s is None:
            heartbeat_interval_s = lease_ttl_s / 3.0
        if not 0 < heartbeat_interval_s <= lease_ttl_s / 2.0:
            raise ConfigurationError(
                f"heartbeat_interval_s must be in (0, lease_ttl_s/2] "
                f"so a live worker can never look dead, got "
                f"{heartbeat_interval_s} against ttl {lease_ttl_s}"
            )
        self.work_dir = Path(work_dir)
        self.worker_id = worker_id or default_worker_id()
        self.lease_ttl_s = float(lease_ttl_s)
        self.n_workers = int(n_workers)
        self.poll_interval_s = float(poll_interval_s)
        self.heartbeat_interval_s = float(heartbeat_interval_s)

    def __enter__(self) -> "DistributedExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """No pool to tear down; present for executor-contract parity."""

    def map_shards(
        self,
        shards: Iterable[Shard],
        tracer: Optional[Tracer] = None,
    ) -> Iterator[ShardResult]:
        """Yield every requested shard's result via the lease protocol.

        Results arrive in completion order (resumed records first),
        exactly like ``ParallelExecutor.map_shards``; consumers needing
        global order collect by :attr:`ShardResult.index`.  The call
        blocks until *all* requested shards have records, re-claiming
        stragglers whose leases expire along the way.
        """
        shard_list = list(shards)
        if not shard_list:
            return
        manifest, spec = resolve_study_manifest(self.work_dir, shard_list)
        self._check_chunking(manifest, shard_list)
        store = CheckpointStore.open(self.work_dir, manifest)
        publish_spec(self.work_dir, spec)
        leases = LeaseStore(
            self.work_dir,
            manifest.digest,
            self.worker_id,
            lease_ttl_s=self.lease_ttl_s,
            tracer=tracer,
        )
        pump = _HeartbeatPump(
            leases, self.heartbeat_interval_s, tracer=tracer
        )
        pump.start()
        try:
            for _event, result in _drive(
                store,
                leases,
                shard_list,
                _study_evaluator(tracer),
                self.poll_interval_s,
                pump,
                tracer=tracer,
            ):
                yield result
        finally:
            pump.stop()

    def _check_chunking(
        self, manifest: ShardManifest, shard_list: List[Shard]
    ) -> None:
        """Reject shards cut differently than the work dir's manifest."""
        for shard in shard_list:
            start = shard.index * manifest.chunk_rows
            stop = min(start + manifest.chunk_rows, manifest.total_rows)
            if (
                shard.index >= manifest.n_shards
                or (shard.start, shard.stop) != (start, stop)
            ):
                raise ConfigurationError(
                    f"shard {shard.index} rows [{shard.start}, "
                    f"{shard.stop}) do not match the work dir manifest "
                    f"chunking (chunk_rows={manifest.chunk_rows}, "
                    f"expected [{start}, {stop})); pass "
                    f"chunk_rows={manifest.chunk_rows} or a fresh "
                    "work dir"
                )
