"""Sharded executor suite: chunking, parallel fan-out, merges,
checkpoints, cache hygiene and the study CLI's scaling flags.

The load-bearing property throughout: every sharded/parallel path is
*bitwise* identical to the single-process ``evaluate_matrix`` /
``run_study`` it replaces (the kernels are elementwise, so chunk
boundaries cannot change a double).  Process-backed tests are kept
small and few — they exercise real worker processes, which are slow to
spawn on CI — while the property suites run on the serial backend.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import (
    BatchCache,
    DEFAULT_CACHE,
    CheckpointStore,
    DesignMatrix,
    ParallelExecutor,
    cartesian_product,
    cartesian_row_count,
    cartesian_slice,
    clear_default_cache,
    concat_results,
    default_chunk_rows,
    evaluate_matrix,
    evaluate_matrix_sharded,
    evaluate_spec_sharded,
    iter_chunks,
    merge_top_k,
    scenario_grid,
    shard_ranges,
    top_k_sharded,
)
from repro.batch.executor import (
    DEFAULT_CHUNK_ROWS,
    _atomic_write,
    _evaluate_shard,
    _init_worker,
    _matrix_digest,
)
from repro.errors import ConfigurationError
from repro.io.serialization import (
    batch_results_equal,
    design_matrices_equal,
    shard_manifest_from_dict,
)
from repro.skyline.cli import main as cli_main
from repro.study import (
    DesignSpec,
    ScenarioSpec,
    StudySpec,
    compile_chunk,
    compile_spec,
    run_study,
    study_axes,
    study_size,
)
from repro.uav.registry import get_preset


def _grid(n_rows: int = 120) -> DesignMatrix:
    rng = np.random.default_rng(7)
    return DesignMatrix.from_arrays(
        sensing_range_m=rng.uniform(2.0, 20.0, n_rows),
        a_max=rng.uniform(5.0, 50.0, n_rows),
        f_sensor_hz=rng.uniform(15.0, 90.0, n_rows),
        f_compute_hz=rng.uniform(0.5, 500.0, n_rows),
        f_control_hz=rng.uniform(50.0, 400.0, n_rows),
    )


def _knob_spec(**kwargs) -> StudySpec:
    return StudySpec(
        design=DesignSpec.knob_axes(
            axes={
                "compute_tdp_w": (1.0, 10.0, 30.0),
                "compute_runtime_s": (0.01, 0.1, 0.4),
                "payload_weight_g": (0.0, 150.0),
            }
        ),
        **kwargs,
    )


# ---------------------------------------------------------------------------
# Cartesian index arithmetic
# ---------------------------------------------------------------------------
class TestCartesianSlice:
    @given(
        sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_slices_match_full_product(self, sizes, data):
        axes = {
            f"axis{i}": np.linspace(1.0, 2.0 + i, n)
            for i, n in enumerate(sizes)
        }
        total = cartesian_row_count(axes)
        start = data.draw(st.integers(0, total))
        stop = data.draw(st.integers(start, total))
        full = cartesian_product(axes)
        part = cartesian_slice(axes, start, stop)
        for name in axes:
            np.testing.assert_array_equal(
                part[name], full[name][start:stop]
            )

    def test_chunks_reassemble_the_grid(self):
        axes = {"a": (1.0, 2.0, 3.0), "b": (4.0, 5.0), "c": (6.0, 7.0)}
        full = cartesian_product(axes)
        for chunk in (1, 2, 5, 12, 100):
            parts = [
                cartesian_slice(axes, start, stop)
                for start, stop in shard_ranges(
                    cartesian_row_count(axes), chunk
                )
            ]
            for name in axes:
                np.testing.assert_array_equal(
                    np.concatenate([p[name] for p in parts]), full[name]
                )

    def test_out_of_range_slice_is_an_error(self):
        axes = {"a": (1.0, 2.0)}
        with pytest.raises(ConfigurationError, match="out of range"):
            cartesian_slice(axes, 0, 3)
        with pytest.raises(ConfigurationError, match="out of range"):
            cartesian_slice(axes, -1, 1)

    def test_needs_at_least_one_axis(self):
        with pytest.raises(ConfigurationError, match="at least one axis"):
            cartesian_slice({}, 0, 0)
        with pytest.raises(ConfigurationError, match="at least one axis"):
            cartesian_row_count({})


class TestShardRanges:
    def test_covers_every_row_once(self):
        for total, chunk in ((10, 3), (10, 10), (10, 100), (1, 1), (7, 2)):
            ranges = shard_ranges(total, chunk)
            rows = [i for s, e in ranges for i in range(s, e)]
            assert rows == list(range(total))
            assert all(e - s <= chunk for s, e in ranges)

    def test_chunk_rows_validated(self):
        with pytest.raises(ConfigurationError, match="chunk_rows"):
            shard_ranges(10, 0)

    def test_default_chunk_rows_bounds(self):
        assert default_chunk_rows(10_000_000, 4) == DEFAULT_CHUNK_ROWS
        assert default_chunk_rows(100, 4) == 7  # ~4 shards per worker
        assert default_chunk_rows(1, 1) == 1


# ---------------------------------------------------------------------------
# Matrix chunking and merging
# ---------------------------------------------------------------------------
class TestMatrixChunks:
    def test_chunks_concat_back_bitwise(self):
        matrix = _grid(57)
        shards = list(iter_chunks(matrix, chunk_rows=13))
        assert [s.index for s in shards] == list(range(len(shards)))
        assert shards[-1].stop == len(matrix)
        rebuilt = DesignMatrix.concat(
            [
                DesignMatrix.from_arrays(
                    **s.task["columns"],
                    labels=s.task["labels"],
                    knee_fraction=s.task["matrix_knee_fraction"],
                )
                for s in shards
            ]
        )
        assert design_matrices_equal(matrix, rebuilt)

    def test_concat_rejects_mixed_labels_and_knees(self):
        plain = _grid(4)
        labelled = DesignMatrix.from_arrays(
            *plain.columns(), labels=[f"r{i}" for i in range(4)]
        )
        kneed = DesignMatrix.from_arrays(*plain.columns(), knee_fraction=0.7)
        with pytest.raises(ConfigurationError, match="labelled"):
            DesignMatrix.concat([plain, labelled])
        with pytest.raises(ConfigurationError, match="knee fractions"):
            DesignMatrix.concat([plain, kneed])
        with pytest.raises(ConfigurationError, match="at least one"):
            DesignMatrix.concat([])

    def test_concat_results_rejects_mixed_contracts(self):
        matrix = _grid(6)
        a = evaluate_matrix(matrix, tolerance=0.05, cache=None)
        b = evaluate_matrix(matrix, tolerance=0.10, cache=None)
        with pytest.raises(ConfigurationError, match="contracts"):
            concat_results([a, b])
        assert concat_results([a]) is a


class TestShardedEvaluate:
    @given(
        n_rows=st.integers(1, 60),
        chunk=st.integers(1, 70),
    )
    @settings(max_examples=40, deadline=None)
    def test_serial_sharding_is_bitwise_identical(self, n_rows, chunk):
        matrix = _grid(n_rows)
        reference = evaluate_matrix(matrix, cache=None)
        sharded = evaluate_matrix_sharded(matrix, chunk_rows=chunk)
        assert batch_results_equal(reference, sharded)

    def test_thread_backend_identical(self):
        matrix = _grid(90)
        reference = evaluate_matrix(matrix, cache=None)
        with ParallelExecutor(n_workers=3, backend="thread") as executor:
            sharded = evaluate_matrix(
                matrix, cache=None, executor=executor, chunk_rows=17
            )
        assert batch_results_equal(reference, sharded)

    def test_process_backend_identical(self):
        matrix = _grid(80)
        reference = evaluate_matrix(matrix, cache=None)
        with ParallelExecutor(n_workers=2, backend="process") as executor:
            sharded = evaluate_matrix(
                matrix, cache=None, executor=executor, chunk_rows=23
            )
        assert batch_results_equal(reference, sharded)

    def test_labels_survive_sharding(self):
        plain = _grid(20)
        matrix = DesignMatrix.from_arrays(
            *plain.columns(), labels=[f"design-{i}" for i in range(20)]
        )
        sharded = evaluate_matrix_sharded(matrix, chunk_rows=7)
        assert sharded.matrix.labels == matrix.labels

    def test_identical_chunks_each_evaluate(self, monkeypatch):
        column = np.full(30, 10.0)
        matrix = DesignMatrix.from_arrays(
            column, column, column, column, column
        )
        calls = []
        import repro.batch.executor as executor_module

        original = executor_module._evaluate_shard
        monkeypatch.setattr(
            executor_module,
            "_evaluate_shard",
            lambda task: calls.append(1) or original(task),
        )
        result = evaluate_matrix_sharded(matrix, chunk_rows=10)
        assert len(calls) == 3  # no content dedupe: one evaluation per shard
        reference = evaluate_matrix(matrix, cache=None)
        assert batch_results_equal(reference, result)

    def test_sharded_result_lands_in_the_cache(self):
        matrix = _grid(40)
        cache = BatchCache()
        sharded = evaluate_matrix(matrix, cache=cache, chunk_rows=11)
        again = evaluate_matrix(matrix, cache=cache)
        assert again is sharded  # cache hit on the single-pass path


# ---------------------------------------------------------------------------
# Top-k merging
# ---------------------------------------------------------------------------
class TestTopKMerge:
    def test_merge_equals_full_top_k_with_ties(self):
        # Duplicate every row so ties straddle shard boundaries.
        base = _grid(30)
        matrix = base.take(np.repeat(np.arange(30), 2))
        full = evaluate_matrix(matrix, cache=None)
        for k in (1, 5, 17, 60, 200):
            expected = full.top_k(k)
            indices, merged = top_k_sharded(matrix, k, chunk_rows=7)
            assert batch_results_equal(expected, merged)
            np.testing.assert_array_equal(
                indices, full.top_k_indices(k)
            )

    @given(
        k=st.integers(1, 25),
        chunk=st.integers(1, 40),
        by=st.sampled_from(("safe_velocity", "knee_hz")),
        descending=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_streamed_top_k_property(self, k, chunk, by, descending):
        matrix = _grid(33)
        full = evaluate_matrix(matrix, cache=None)
        expected = full.top_k(k, by=by, descending=descending)
        indices, merged = top_k_sharded(
            matrix, k, by=by, descending=descending, chunk_rows=chunk
        )
        assert batch_results_equal(expected, merged)
        np.testing.assert_array_equal(
            indices, full.top_k_indices(k, by=by, descending=descending)
        )

    def test_top_k_over_a_spec_never_materializes(self):
        spec = _knob_spec()
        full = run_study(spec, cache=None).batch
        indices, merged = top_k_sharded(spec, 4, chunk_rows=5)
        assert batch_results_equal(full.top_k(4), merged)

    def test_merge_top_k_validates(self):
        result = evaluate_matrix(_grid(5), cache=None)
        with pytest.raises(ConfigurationError, match="k must be >= 1"):
            merge_top_k([(np.arange(5), result)], 0)
        with pytest.raises(ConfigurationError, match="at least one"):
            merge_top_k([], 3)
        with pytest.raises(ConfigurationError, match="indices"):
            merge_top_k([(np.arange(3), result)], 3)


# ---------------------------------------------------------------------------
# Sharded studies
# ---------------------------------------------------------------------------
class TestShardedStudies:
    @given(chunk=st.integers(1, 30))
    @settings(max_examples=25, deadline=None)
    def test_knob_study_identical_at_any_chunking(self, chunk):
        spec = _knob_spec()
        single = run_study(spec, cache=None)
        sharded = run_study(spec, cache=None, chunk_rows=chunk)
        assert single.equals(sharded)

    def test_scenarios_identical(self):
        spec = _knob_spec(
            scenarios=ScenarioSpec(
                extra_payload_g=(0.0, 75.0), a_max_scale=(1.0, 0.8)
            )
        )
        single = run_study(spec, cache=None)
        for chunk in (1, 5, 11, 1000):
            assert single.equals(run_study(spec, cache=None, chunk_rows=chunk))

    def test_single_axis_labels_identical(self):
        spec = StudySpec(
            design=DesignSpec.knob_axes(
                axes={"compute_runtime_s": (0.01, 0.1, 0.25, 1.0)}
            )
        )
        single = run_study(spec, cache=None)
        sharded = run_study(spec, cache=None, chunk_rows=3)
        assert single.equals(sharded)
        assert sharded.batch.matrix.labels == single.batch.matrix.labels

    def test_presets_and_fleet_identical(self):
        presets = StudySpec(
            design=DesignSpec.presets(
                uav_names=("dji-spark", "asctec-pelican"),
                compute_names=("intel-ncs", "jetson-tx2"),
                algorithm_names=("dronet",),
            )
        )
        fleet = StudySpec(
            design=DesignSpec.fleet(
                uavs=(get_preset("dji-spark"), get_preset("asctec-pelican")),
                f_compute_hz=(5.0, 50.0),
            ),
            scenarios=ScenarioSpec(compute_redundancy=(1.0, 2.0)),
        )
        for spec in (presets, fleet):
            single = run_study(spec, cache=None)
            assert single.equals(run_study(spec, cache=None, chunk_rows=3))

    def test_process_study_identical(self):
        spec = _knob_spec()
        single = run_study(spec, cache=None)
        with ParallelExecutor(n_workers=2, backend="process") as executor:
            parallel = run_study(
                spec, cache=None, executor=executor, chunk_rows=5
            )
        assert single.equals(parallel)

    def test_study_axes_and_size_match_the_planner(self):
        for spec in (
            _knob_spec(),
            _knob_spec(scenarios=ScenarioSpec(extra_payload_g=(0.0, 10.0))),
            StudySpec(
                design=DesignSpec.presets(
                    uav_names=("dji-spark",),
                    compute_names=("intel-ncs", "jetson-tx2"),
                    algorithm_names=("dronet", "trailnet"),
                )
            ),
        ):
            plan = compile_spec(spec)
            assert study_axes(spec) == plan.axes
            assert study_size(spec) == len(plan)

    def test_compile_chunk_validates_range(self):
        spec = _knob_spec()
        with pytest.raises(ConfigurationError, match="out of range"):
            compile_chunk(spec, 0, study_size(spec) + 1)
        with pytest.raises(ConfigurationError, match="out of range"):
            compile_chunk(spec, 3, 3)

    def test_sharded_plan_input(self):
        spec = _knob_spec()
        plan = compile_spec(spec)
        single = run_study(plan, cache=None)
        sharded = run_study(plan, cache=None, chunk_rows=4)
        assert single.equals(sharded)


# ---------------------------------------------------------------------------
# Checkpoints and resume
# ---------------------------------------------------------------------------
class TestCheckpoints:
    def test_matrix_digest_keeps_the_manifest_byte_stream(self):
        # Manifests written before the digest hashed column views must
        # still match, or their checkpoints would stop resuming.
        def tobytes_digest(matrix, knee_fraction, tolerance):
            digest = hashlib.blake2b(digest_size=16)
            digest.update(len(matrix).to_bytes(8, "little"))
            for column in matrix.columns():
                digest.update(column.tobytes())
            if matrix.labels is not None:
                for label in matrix.labels:
                    digest.update(label.encode("utf-8"))
                    digest.update(b"\x00")
            digest.update(repr((knee_fraction, tolerance)).encode("ascii"))
            return digest.hexdigest()

        grid = _grid(40)
        for matrix in (
            grid,
            grid.take(np.arange(39, -1, -3)),
            grid.take([]),
            DesignMatrix.from_arrays(
                10.0, (1.0, 2.0), 60.0, 100.0, labels=("a", "\u00e9")
            ),
        ):
            assert _matrix_digest(matrix, 0.5, 0.05) == tobytes_digest(
                matrix, 0.5, 0.05
            )

    def test_checkpoint_writes_manifest_and_shards(self, tmp_path):
        spec = _knob_spec()
        run_study(spec, cache=None, chunk_rows=5, checkpoint=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        parsed = shard_manifest_from_dict(manifest)
        assert parsed.total_rows == study_size(spec)
        assert parsed.chunk_rows == 5
        shard_files = sorted(tmp_path.glob("shard-*.jsonl"))
        assert len(shard_files) == parsed.n_shards
        record = json.loads(shard_files[0].read_text())
        assert record["start"] == 0 and record["stop"] == 5

    def test_resume_reuses_completed_shards(self, tmp_path, monkeypatch):
        spec = _knob_spec()
        first = run_study(spec, cache=None, chunk_rows=5, checkpoint=tmp_path)
        shard_files = sorted(tmp_path.glob("shard-*.jsonl"))
        shard_files[1].unlink()  # simulate an interrupted run

        calls = []
        import repro.batch.executor as executor_module

        original = executor_module._evaluate_shard
        monkeypatch.setattr(
            executor_module,
            "_evaluate_shard",
            lambda task: calls.append(task) or original(task),
        )
        resumed = run_study(
            spec, cache=None, chunk_rows=5, checkpoint=tmp_path, resume=True
        )
        assert len(calls) == 1  # only the missing shard re-ran
        assert first.equals(resumed)

    def test_resume_adopts_the_manifest_chunking(self, tmp_path):
        spec = _knob_spec()
        first = run_study(spec, cache=None, chunk_rows=7, checkpoint=tmp_path)
        resumed = run_study(spec, cache=None, checkpoint=tmp_path, resume=True)
        assert first.equals(resumed)

    def test_resume_without_a_manifest_is_a_clean_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no checkpoint manifest"):
            run_study(
                _knob_spec(),
                cache=None,
                checkpoint=tmp_path / "missing",
                resume=True,
            )

    def test_resume_without_a_directory_is_an_error(self):
        with pytest.raises(ConfigurationError, match="checkpoint directory"):
            run_study(_knob_spec(), cache=None, resume=True)

    def test_corrupt_shard_is_recomputed_not_trusted(self, tmp_path):
        spec = _knob_spec()
        first = run_study(spec, cache=None, chunk_rows=5, checkpoint=tmp_path)
        shard = sorted(tmp_path.glob("shard-*.jsonl"))[2]
        shard.write_text("{ definitely not json\n")
        resumed = run_study(
            spec, cache=None, chunk_rows=5, checkpoint=tmp_path, resume=True
        )
        assert first.equals(resumed)
        assert json.loads(shard.read_text())["index"] == 2  # rewritten

    def test_misfiled_shard_record_is_recomputed_not_trusted(self, tmp_path):
        """A record whose range disagrees with its index (hand-edited,
        misfiled) must be recomputed — trusting it would silently
        misplace rows in the merge."""
        spec = _knob_spec()
        first = run_study(spec, cache=None, chunk_rows=5, checkpoint=tmp_path)
        shards = sorted(tmp_path.glob("shard-*.jsonl"))
        record = json.loads(shards[2].read_text())
        shards[2].write_text(json.dumps({**record, "index": 1}) + "\n")
        resumed = run_study(
            spec, cache=None, chunk_rows=5, checkpoint=tmp_path, resume=True
        )
        assert first.equals(resumed)

    def test_corrupt_manifest_is_a_clean_error(self, tmp_path):
        spec = _knob_spec()
        run_study(spec, cache=None, chunk_rows=5, checkpoint=tmp_path)
        (tmp_path / "manifest.json").write_text("{ nope")
        with pytest.raises(ConfigurationError, match="manifest .* unreadable"):
            run_study(
                spec, cache=None, chunk_rows=5,
                checkpoint=tmp_path, resume=True,
            )

    def test_mismatched_manifest_is_rejected(self, tmp_path):
        run_study(_knob_spec(), cache=None, chunk_rows=5, checkpoint=tmp_path)
        other = StudySpec(
            design=DesignSpec.knob_axes(
                axes={"compute_tdp_w": (2.0, 20.0)}
            )
        )
        with pytest.raises(ConfigurationError, match="different run"):
            run_study(
                other, cache=None, chunk_rows=5,
                checkpoint=tmp_path, resume=True,
            )
        with pytest.raises(ConfigurationError, match="different run"):
            run_study(
                _knob_spec(), cache=None, chunk_rows=6,
                checkpoint=tmp_path, resume=True,
            )

    def test_checkpointed_top_k_resumes(self, tmp_path):
        matrix = _grid(40)
        expected = evaluate_matrix(matrix, cache=None).top_k(5)
        top_k_sharded(matrix, 5, chunk_rows=10, checkpoint_dir=tmp_path)
        indices, merged = top_k_sharded(
            matrix, 5, chunk_rows=10, checkpoint_dir=tmp_path, resume=True
        )
        assert batch_results_equal(expected, merged)

    def test_manifest_wire_format_validation(self):
        with pytest.raises(ConfigurationError, match="'version'"):
            shard_manifest_from_dict({"version": 99})
        with pytest.raises(ConfigurationError, match="'kind'"):
            shard_manifest_from_dict(
                {
                    "version": 1, "kind": "nonsense", "digest": "x",
                    "total_rows": 1, "chunk_rows": 1, "n_shards": 1,
                    "knee_fraction": None, "tolerance": 0.05,
                    "reduce": None,
                }
            )
        with pytest.raises(ConfigurationError, match="must be a mapping"):
            shard_manifest_from_dict([1, 2])

    def test_racing_writers_of_one_record_both_succeed(
        self, tmp_path, monkeypatch
    ):
        """A second writer publishing the same path mid-write is harmless.

        Two distrib actors can both compute one shard (a steal, or a
        lease race).  The second writer here stages and renames its
        copy between the first writer's staging and its rename; with a
        shared temp name the first rename would find its file gone.
        """
        import os
        import threading

        target = tmp_path / "shard-00000.jsonl"
        real_replace = os.replace
        racers = []
        racer_errors = []

        def racing_writer():
            try:
                _atomic_write(target, "second\n")
            except Exception as exc:  # surfaced by the assert below
                racer_errors.append(exc)

        def replace_after_a_racing_writer(src, dst):
            if not racers:
                racers.append(threading.Thread(target=racing_writer))
                racers[0].start()
                racers[0].join(timeout=30)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_after_a_racing_writer)
        _atomic_write(target, "first\n")
        assert not racers[0].is_alive() and racer_errors == []
        assert target.read_text(encoding="utf-8") == "first\n"
        assert [path.name for path in tmp_path.iterdir()] == [target.name]


# ---------------------------------------------------------------------------
# Cache hygiene (the DEFAULT_CACHE satellite bugfix)
# ---------------------------------------------------------------------------
class TestCacheHygiene:
    def test_worker_initializer_starts_from_an_empty_cache(self):
        matrix = _grid(8)
        evaluate_matrix(matrix)  # populate DEFAULT_CACHE
        assert len(DEFAULT_CACHE) >= 1
        _init_worker()  # what every worker process runs on start-up
        assert len(DEFAULT_CACHE) == 0
        assert DEFAULT_CACHE.stats.hits == 0

    def test_clear_default_cache_is_the_public_reset(self):
        evaluate_matrix(_grid(6))
        clear_default_cache()
        assert len(DEFAULT_CACHE) == 0

    def test_concurrent_specs_never_cross_contaminate(self):
        """Back-to-back sharded runs of different specs each match
        their own single-process reference — no stale cross-spec hits
        from shared worker/module state."""
        spec_a = _knob_spec()
        spec_b = StudySpec(
            design=DesignSpec.knob_axes(
                axes={
                    "compute_tdp_w": (2.0, 20.0, 29.0),
                    "compute_runtime_s": (0.02, 0.2, 0.3),
                    "payload_weight_g": (10.0, 160.0),
                }
            )
        )
        reference_a = run_study(spec_a, cache=None)
        reference_b = run_study(spec_b, cache=None)
        with ParallelExecutor(n_workers=2, backend="thread") as executor:
            for _ in range(2):
                assert reference_a.equals(
                    run_study(spec_a, executor=executor, chunk_rows=5)
                )
                assert reference_b.equals(
                    run_study(spec_b, executor=executor, chunk_rows=5)
                )

    def test_in_process_backends_never_pin_chunks_in_the_cache(self):
        """Serial and thread shards must honor the memory contract:
        chunk results never land in the process-wide default cache
        (only the process backend memoizes, in its own workers)."""
        matrix = _grid(60)
        reference = evaluate_matrix(matrix, cache=None)
        for backend in ("serial", "thread"):
            clear_default_cache()
            with ParallelExecutor(n_workers=2, backend=backend) as executor:
                result = evaluate_matrix(
                    matrix, cache=None, executor=executor, chunk_rows=10
                )
            assert batch_results_equal(reference, result)
            assert len(DEFAULT_CACHE) == 0, backend

    def test_worker_shard_evaluation_uses_a_scoped_key(self):
        """Two shards with identical row *shapes* but different values
        must never collide in the worker cache."""
        clear_default_cache()
        spec = _knob_spec()
        shards = list(iter_chunks(spec, chunk_rows=6))
        first = _evaluate_shard(shards[0].task)
        second = _evaluate_shard(shards[1].task)
        assert not batch_results_equal(first["batch"], second["batch"])


# ---------------------------------------------------------------------------
# Executor surface validation
# ---------------------------------------------------------------------------
class TestExecutorValidation:
    def test_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="backend"):
            ParallelExecutor(backend="gpu")

    def test_bad_worker_count(self):
        with pytest.raises(ConfigurationError, match="n_workers"):
            ParallelExecutor(n_workers=0)

    def test_bad_chunk_rows_names_the_knob(self):
        with pytest.raises(ConfigurationError, match="chunk_rows"):
            evaluate_matrix_sharded(_grid(4), chunk_rows=0)
        with pytest.raises(ConfigurationError, match="chunk_rows"):
            list(iter_chunks(_grid(4), chunk_rows=-1))

    def test_iter_chunks_rejects_unknown_sources(self):
        with pytest.raises(ConfigurationError, match="DesignMatrix or a"):
            list(iter_chunks(object(), chunk_rows=4))
        with pytest.raises(ConfigurationError, match="StudySpec"):
            evaluate_spec_sharded(object())
        with pytest.raises(ConfigurationError, match="StudySpec"):
            top_k_sharded(object(), 3)

    def test_scenario_grid_roundtrip_through_spec_chunks(self):
        spec = _knob_spec()
        chunks = [
            compile_chunk(spec, start, stop)
            for start, stop in shard_ranges(study_size(spec), 4)
        ]
        merged = DesignMatrix.concat([c.matrix for c in chunks])
        assert design_matrices_equal(compile_spec(spec).matrix, merged)


# ---------------------------------------------------------------------------
# CLI: scaling flags, exit codes, resume failure modes
# ---------------------------------------------------------------------------
class TestStudyCLIScaling:
    def _spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(_knob_spec().to_json())
        return str(path)

    def test_workers_flag_runs_sharded(self, capsys, tmp_path):
        code = cli_main(
            [
                "study", "--spec", self._spec_file(tmp_path),
                "--workers", "2", "--backend", "thread",
                "--chunk-rows", "5", "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["batch"]["safe_velocity"]) == 18

    def test_bad_workers_exits_2_naming_the_flag(self, capsys):
        code = cli_main(
            ["study", "--knob", "compute_tdp_w", "--values", "1", "5",
             "--workers", "0"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--workers" in err and "0" in err

    def test_bad_chunk_rows_exits_2_naming_the_flag(self, capsys):
        code = cli_main(
            ["study", "--knob", "compute_tdp_w", "--values", "1", "5",
             "--chunk-rows", "-3"]
        )
        assert code == 2
        assert "--chunk-rows" in capsys.readouterr().err

    def test_backend_without_workers_exits_2(self, capsys):
        code = cli_main(
            ["study", "--knob", "compute_tdp_w", "--values", "1", "5",
             "--backend", "thread"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--backend" in err and "--workers" in err

    def test_checkpoint_then_resume(self, capsys, tmp_path):
        spec = self._spec_file(tmp_path)
        ckpt = tmp_path / "ckpt"
        assert cli_main(
            ["study", "--spec", spec, "--chunk-rows", "5",
             "--checkpoint", str(ckpt)]
        ) == 0
        capsys.readouterr()
        assert cli_main(
            ["study", "--spec", spec, "--resume", str(ckpt)]
        ) == 0
        assert "18 designs" in capsys.readouterr().out

    def test_resume_missing_dir_is_a_clean_error(self, capsys, tmp_path):
        code = cli_main(
            ["study", "--spec", self._spec_file(tmp_path),
             "--resume", str(tmp_path / "never-written")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_resume_corrupt_dir_is_a_clean_error(self, capsys, tmp_path):
        spec = self._spec_file(tmp_path)
        ckpt = tmp_path / "ckpt"
        assert cli_main(
            ["study", "--spec", spec, "--chunk-rows", "5",
             "--checkpoint", str(ckpt)]
        ) == 0
        (ckpt / "manifest.json").write_text("{ broken")
        capsys.readouterr()
        code = cli_main(["study", "--spec", spec, "--resume", str(ckpt)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "manifest" in err
        assert "Traceback" not in err

    def test_checkpoint_and_resume_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(
                ["study", "--knob", "compute_tdp_w", "--values", "1",
                 "--checkpoint", str(tmp_path), "--resume", str(tmp_path)]
            )


# ---------------------------------------------------------------------------
# Shard failure context (ShardExecutionError)
# ---------------------------------------------------------------------------
class TestShardFailureContext:
    def _failing_shard(self, index: int = 3) -> "Shard":
        # Mismatched column lengths make DesignMatrix.from_arrays raise
        # inside the worker — a genuine in-shard failure that survives
        # pickling to a process pool.
        from repro.batch import Shard

        return Shard(
            index=index,
            start=10,
            stop=20,
            task={
                "kind": "matrix",
                "index": index,
                "start": 10,
                "stop": 20,
                "columns": {
                    "sensing_range_m": np.full(10, 10.0),
                    "a_max": np.full(10, 50.0),
                    "f_sensor_hz": np.full(10, 60.0),
                    "f_compute_hz": np.full(3, 100.0),  # wrong length
                    "f_control_hz": np.full(10, 200.0),
                },
                "labels": None,
                "matrix_knee_fraction": None,
                "knee_fraction": 0.85,
                "tolerance": 0.05,
            },
        )

    def test_serial_failure_names_shard_and_row_range(self):
        from repro.errors import ShardExecutionError

        executor = ParallelExecutor(n_workers=1, backend="serial")
        with pytest.raises(ShardExecutionError) as excinfo:
            list(executor.map_shards([self._failing_shard()]))
        err = excinfo.value
        assert err.shard_index == 3
        assert (err.start, err.stop) == (10, 20)
        assert "shard 3" in str(err)
        assert "[10, 20)" in str(err)
        # The original failure stays attached for debugging.
        assert isinstance(err.__cause__, ConfigurationError)

    def test_process_pool_failure_keeps_shard_context(self):
        # Regression: a worker-process traceback used to surface as a
        # bare ConfigurationError with no hint of which rows died.
        from repro.errors import ShardExecutionError

        with ParallelExecutor(n_workers=1, backend="process") as executor:
            with pytest.raises(ShardExecutionError) as excinfo:
                list(executor.map_shards([self._failing_shard(index=7)]))
        err = excinfo.value
        assert err.shard_index == 7
        assert (err.start, err.stop) == (10, 20)
        assert "shard 7" in str(err)

    def test_shard_error_is_picklable_with_fields(self):
        import pickle

        from repro.errors import ShardExecutionError

        err = ShardExecutionError(
            "shard 2 (rows [4, 8)) failed", shard_index=2, start=4, stop=8
        )
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, ShardExecutionError)
        assert clone.shard_index == 2
        assert (clone.start, clone.stop) == (4, 8)
        assert str(clone) == str(err)

    def test_wrapper_does_not_double_wrap(self, monkeypatch):
        import repro.batch.executor as executor_module
        from repro.errors import ShardExecutionError

        inner = ShardExecutionError("already wrapped", shard_index=1)

        def explode(task):
            raise inner

        monkeypatch.setattr(
            executor_module, "_evaluate_shard_task", explode
        )
        with pytest.raises(ShardExecutionError) as excinfo:
            executor_module._evaluate_shard({"index": 0})
        assert excinfo.value is inner


# ---------------------------------------------------------------------------
# Observability: tracer + progress through the executor stack
# ---------------------------------------------------------------------------
class TestExecutorObservability:
    def test_sharded_matrix_records_phase_spans(self):
        from repro.obs import Tracer

        matrix = _grid(40)
        tracer = Tracer()
        result = evaluate_matrix_sharded(
            matrix, chunk_rows=11, tracer=tracer
        )
        names = set(tracer.span_names())
        assert {
            "shard.compile", "shard.evaluate", "shard.task",
            "engine.evaluate", "study.merge",
        } <= names
        # Worker-side rows attributes sum to the grid size.
        rows = sum(
            s.attributes["rows"]
            for s in tracer.spans
            if s.name == "shard.evaluate"
        )
        assert rows == len(matrix)
        assert tracer.counters_snapshot()["shards.completed"] == 4
        # Tracing never perturbs the numbers.
        assert batch_results_equal(
            result, evaluate_matrix(matrix, cache=None)
        )

    def test_spec_sharded_records_compile_span_with_totals(self):
        from repro.obs import Tracer

        tracer = Tracer()
        evaluate_spec_sharded(_knob_spec(), chunk_rows=5, tracer=tracer)
        compile_spans = [
            s for s in tracer.spans if s.name == "study.compile"
        ]
        assert len(compile_spans) == 1
        assert compile_spans[0].attributes["rows"] == 18
        assert compile_spans[0].attributes["shards"] == 4

    def test_worker_spans_land_on_shard_tracks(self):
        from repro.obs import Tracer

        tracer = Tracer()
        evaluate_matrix_sharded(_grid(30), chunk_rows=10, tracer=tracer)
        worker_tids = {
            s.tid for s in tracer.spans if s.name == "shard.evaluate"
        }
        assert worker_tids == {1, 2, 3}  # shard index + 1
        driver_tids = {
            s.tid for s in tracer.spans if s.name == "shard.task"
        }
        assert driver_tids == {0}

    def test_process_workers_ship_telemetry_home(self):
        from repro.obs import Tracer

        matrix = _grid(24)
        tracer = Tracer()
        with ParallelExecutor(n_workers=2, backend="process") as executor:
            result = evaluate_matrix_sharded(
                matrix, executor=executor, chunk_rows=12, tracer=tracer
            )
        names = set(tracer.span_names())
        assert "shard.evaluate" in names  # absorbed from the workers
        task_spans = [s for s in tracer.spans if s.name == "shard.task"]
        assert len(task_spans) == 2
        for span in task_spans:
            assert span.attributes["compute_s"] >= 0.0
            assert span.attributes["queue_wait_s"] >= 0.0
        counters = tracer.counters_snapshot()
        assert counters["rows.evaluated"] == len(matrix)
        assert batch_results_equal(
            result, evaluate_matrix(matrix, cache=None)
        )

    def test_shard_results_carry_worker_telemetry(self):
        from repro.batch import iter_chunks
        from repro.obs import Tracer

        shards = list(iter_chunks(_grid(20), chunk_rows=10))
        with ParallelExecutor(n_workers=2, backend="process") as executor:
            results = list(executor.map_shards(shards, tracer=Tracer()))
        for result in results:
            assert result.telemetry is not None
            assert result.telemetry["elapsed_s"] >= 0.0
            assert any(
                e["name"] == "shard.evaluate"
                for e in result.telemetry["events"]
            )

    def test_in_process_shards_record_directly(self):
        # Serial/thread workers share the parent's process and epoch:
        # their spans land straight in the tracer (exact times, shard
        # tracks), and the ShardResult ships no wire payload at all.
        from repro.batch import iter_chunks
        from repro.obs import Tracer

        executor = ParallelExecutor(n_workers=1, backend="serial")
        shards = list(iter_chunks(_grid(20), chunk_rows=10))
        tracer = Tracer()
        results = list(executor.map_shards(shards, tracer=tracer))
        for result in results:
            assert result.telemetry is None
        evaluate_tids = {
            s.tid for s in tracer.spans if s.name == "shard.evaluate"
        }
        assert evaluate_tids == {1, 2}
        task_spans = [s for s in tracer.spans if s.name == "shard.task"]
        assert len(task_spans) == 2
        for span in task_spans:
            assert span.attributes["compute_s"] >= 0.0
            assert span.attributes["queue_wait_s"] >= 0.0
        assert tracer.counters_snapshot()["rows.evaluated"] == 20
        # Untraced runs carry none either.
        for result in executor.map_shards(shards):
            assert result.telemetry is None

    def test_progress_fires_per_shard_with_row_totals(self):
        from repro.obs import Progress

        snapshots = []
        matrix = _grid(35)
        evaluate_matrix_sharded(
            matrix, chunk_rows=10, progress=snapshots.append
        )
        assert [p.done for p in snapshots] == [1, 2, 3, 4]
        assert all(isinstance(p, Progress) for p in snapshots)
        assert all(p.total == 4 for p in snapshots)
        assert all(p.rows_total == len(matrix) for p in snapshots)
        assert snapshots[-1].rows_done == len(matrix)
        assert snapshots[-1].fraction == 1.0

    def test_progress_counts_checkpoint_restored_shards(self, tmp_path):
        snapshots = []
        matrix = _grid(30)
        evaluate_matrix_sharded(
            matrix, chunk_rows=10, checkpoint_dir=tmp_path
        )
        evaluate_matrix_sharded(
            matrix,
            chunk_rows=10,
            checkpoint_dir=tmp_path,
            progress=snapshots.append,
        )
        # Every shard resumes from the checkpoint, yet progress still
        # walks to completion.
        assert [p.done for p in snapshots] == [1, 2, 3]
        assert snapshots[-1].rows_done == len(matrix)

    def test_resumed_shards_counted_in_tracer(self, tmp_path):
        from repro.obs import Tracer

        matrix = _grid(30)
        evaluate_matrix_sharded(
            matrix, chunk_rows=10, checkpoint_dir=tmp_path
        )
        tracer = Tracer()
        evaluate_matrix_sharded(
            matrix, chunk_rows=10, checkpoint_dir=tmp_path, tracer=tracer
        )
        assert tracer.counters_snapshot()["shards.resumed"] == 3

    def test_checkpoint_writes_traced(self, tmp_path):
        from repro.obs import Tracer

        tracer = Tracer()
        evaluate_matrix_sharded(
            _grid(30), chunk_rows=10, checkpoint_dir=tmp_path, tracer=tracer
        )
        assert tracer.counters_snapshot()["checkpoint.writes"] == 3
        assert "checkpoint.write" in tracer.span_names()

    def test_top_k_sharded_traced(self):
        from repro.obs import Tracer

        matrix = _grid(40)
        tracer = Tracer()
        indices, batch = top_k_sharded(
            matrix, k=5, chunk_rows=10, tracer=tracer
        )
        names = set(tracer.span_names())
        assert "shard.reduce" in names
        assert "study.merge" in names
        reference_indices, reference = top_k_sharded(
            matrix, k=5, chunk_rows=10
        )
        np.testing.assert_array_equal(indices, reference_indices)
        assert batch_results_equal(batch, reference)


# ---------------------------------------------------------------------------
# CLI observability flags
# ---------------------------------------------------------------------------
class TestStudyCLIObservability:
    def _spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(_knob_spec().to_json())
        return str(path)

    def test_traced_sharded_study_emits_chrome_trace(
        self, capsys, tmp_path
    ):
        # The acceptance path: a sharded study with --trace writes a
        # valid Chrome trace whose spans cover every phase and whose
        # per-shard row counts sum to the grid size.
        trace = tmp_path / "trace.json"
        code = cli_main(
            [
                "study", "--spec", self._spec_file(tmp_path),
                "--workers", "2", "--backend", "thread",
                "--chunk-rows", "5", "--trace", str(trace), "--json",
            ]
        )
        assert code == 0
        doc = json.loads(trace.read_text())
        events = doc["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert {
            "study.compile", "shard.evaluate", "study.merge",
            "study.select",
        } <= names
        rows = sum(
            e["args"]["rows"]
            for e in events
            if e["ph"] == "X" and e["name"] == "shard.evaluate"
        )
        assert rows == 18  # the full 3 x 3 x 2 grid, exactly once
        # stdout stays pure JSON, telemetry included.
        data = json.loads(capsys.readouterr().out)
        assert data["telemetry"]["counters"]["shards.completed"] == 4

    def test_metrics_and_progress_go_to_stderr(self, capsys, tmp_path):
        code = cli_main(
            [
                "study", "--spec", self._spec_file(tmp_path),
                "--chunk-rows", "5", "--metrics", "--progress", "--json",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout still parses
        assert "shards 4/4" in captured.err  # progress reached the end
        assert "shard.evaluate" in captured.err  # metrics table
        assert "rows.evaluated" in captured.err

    def test_untraced_study_carries_no_telemetry(self, capsys, tmp_path):
        code = cli_main(
            ["study", "--spec", self._spec_file(tmp_path), "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert "telemetry" not in data
