"""Benchmark: scalar-loop vs. batch F-1 evaluation at fleet scale.

Two end-to-end comparisons:

* **engine** — the same design grids through the per-point
  :class:`~repro.core.model.F1Model` loop and the vectorized
  :mod:`repro.batch` engine (evaluation only).
* **assembly** — whole knob sweeps through the per-point
  ``Knobs.build_uav().f1(...)`` idiom and the columnar
  :class:`~repro.batch.assembly.KnobMatrix` chain (assembly *plus*
  evaluation), the regime `sweep_grid` multi-knob studies live in.

Each runs at 1k / 10k / 100k points, asserting the batch path wins by
the required margin at 10k and above.  A third comparison — **study**
— runs the same knob grid through the declarative
:mod:`repro.study` layer (spec construction + planner compile +
dispatch) and asserts the abstraction costs < 5% over the raw
``KnobMatrix`` + ``evaluate_matrix`` path at 100k points, so the
spec-first API can never quietly become a tax.  A fourth —
**study-ranked** — times a ``top_k=10`` study that keys a cache
against ``evaluate_matrix`` on the same compiled plan, so neither a
full sort nor a slow cache key can come back unnoticed.  Set
``REPRO_RECORD_BENCH=1`` to append the measured numbers to
``benchmarks/results/bench_batch.json`` so the bench trajectory keeps
populating across machines and revisions.  Set ``REPRO_BENCH_SMOKE=1``
(CI does) to run tiny grids that exercise every code path without
timing assertions, so the benchmark code itself cannot rot; adding
``REPRO_BENCH_OUT=<dir>`` (the CI regression gate does) records a
smoke-speed run at small-but-stable sizes into ``<dir>`` for
``check_regression.py`` (see ``_recording.py``).
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from _recording import GATE, SMOKE, record
from repro.batch import (
    DesignMatrix,
    KnobMatrix,
    cartesian_product,
    evaluate_matrix,
    scenario_grid,
)
from repro.skyline.knobs import Knobs

if SMOKE:
    SIZES = (1_000,) if GATE else (64,)
else:
    SIZES = (1_000, 10_000, 100_000)

#: Required end-to-end advantage of the columnar assembly chain at 10k+
#: points (the acceptance bar; measured speedups are far higher).
MIN_ASSEMBLY_SPEEDUP = 10.0

#: Allowed relative overhead of the declarative study layer (spec
#: compile + dispatch) over the raw assembly + evaluation it plans.
MAX_STUDY_OVERHEAD = 0.05

#: Rows a ranked study keeps, and the allowed overhead of that study
#: (cache key + top-k selection) over the evaluation it ranks.  At 100k
#: points on 2 vCPUs with SHA extensions the study measured ~1.4; a
#: full sort of all rows, or a blake2b digest of copied columns, each
#: measured 1.9-3.7.
RANKED_TOP_K = 10
MAX_RANKED_STUDY_OVERHEAD = 1.75

#: Timed runs per side (best of): a 1k-point smoke run is ~0.1 ms.
RANKED_REPEATS = 10


def _grid(n_points: int) -> DesignMatrix:
    """A representative scenario grid with exactly ``n_points`` rows."""
    per_axis = max(2, round(n_points ** (1.0 / 4.0)))
    grid = scenario_grid(
        sensing_range_m=np.linspace(2.0, 20.0, per_axis),
        a_max=np.linspace(5.0, 50.0, per_axis),
        f_sensor_hz=np.linspace(15.0, 90.0, per_axis),
        f_compute_hz=np.geomspace(1.0, 1000.0, per_axis),
    )
    if len(grid) < n_points:
        raise AssertionError(f"grid too small: {len(grid)} < {n_points}")
    return grid.take(np.arange(n_points))


def _knob_columns(n_points: int) -> dict:
    """Three crossed Table II knob axes, truncated to ``n_points``."""
    per_axis = int(np.ceil(n_points ** (1.0 / 3.0)))
    columns = cartesian_product(
        {
            "compute_tdp_w": np.linspace(1.0, 30.0, per_axis),
            "compute_runtime_s": np.geomspace(0.002, 0.5, per_axis),
            "payload_weight_g": np.linspace(0.0, 500.0, per_axis),
        }
    )
    return {name: column[:n_points] for name, column in columns.items()}


def _scalar_loop(matrix: DesignMatrix) -> np.ndarray:
    """The pre-batch consumer idiom: one F1Model per design point."""
    velocities = np.empty(len(matrix))
    for i in range(len(matrix)):
        model = matrix.model_at(i)
        velocities[i] = model.safe_velocity
        _ = model.knee.throughput_hz
        _ = model.bound
    return velocities


def _scalar_assembly_loop(base: Knobs, columns: dict) -> np.ndarray:
    """The pre-assembly sweep idiom: build_uav + f1 per knob point."""
    n = len(next(iter(columns.values())))
    velocities = np.empty(n)
    for i in range(n):
        knobs = replace(
            base, **{name: float(col[i]) for name, col in columns.items()}
        )
        model = knobs.build_uav().f1(knobs.f_compute_hz)
        velocities[i] = model.safe_velocity
        _ = model.knee.throughput_hz
        _ = model.bound
    return velocities


def _batch_assembly(base: Knobs, columns: dict):
    """The columnar chain: KnobMatrix assembly + one engine pass."""
    matrix = KnobMatrix.from_base(base, **columns).assemble()
    return evaluate_matrix(matrix, cache=None)


def _time(fn, *args):
    fn(*args)  # warm-up
    start = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - start, value


def _measure_engine(n_points: int) -> dict:
    matrix = _grid(n_points)
    scalar_s, scalar_velocities = _time(_scalar_loop, matrix)
    batch_s, result = _time(
        lambda m: evaluate_matrix(m, cache=None), matrix
    )
    np.testing.assert_allclose(
        result.safe_velocity, scalar_velocities, atol=1e-9
    )
    return {
        "points": n_points,
        "scalar_s": round(scalar_s, 6),
        "batch_s": round(batch_s, 6),
        "speedup": round(scalar_s / batch_s, 1),
    }


def _measure_assembly(n_points: int) -> dict:
    base = Knobs()
    columns = _knob_columns(n_points)
    scalar_s, scalar_velocities = _time(
        _scalar_assembly_loop, base, columns
    )
    batch_s, result = _time(_batch_assembly, base, columns)
    np.testing.assert_allclose(
        result.safe_velocity[: scalar_velocities.size],
        scalar_velocities,
        atol=1e-9,
    )
    return {
        "points": n_points,
        "scalar_s": round(scalar_s, 6),
        "batch_s": round(batch_s, 6),
        "speedup": round(scalar_s / batch_s, 1),
    }


def _record(benchmark: str, rows: list) -> None:
    record("bench_batch.json", benchmark, rows)


def _print_rows(title: str, rows: list) -> None:
    for row in rows:
        print(
            f"[{title}] {row['points']:>7} points: "
            f"scalar {row['scalar_s']:.4f}s, "
            f"batch {row['batch_s']:.4f}s ({row['speedup']}x)"
        )


def test_bench_batch_vs_scalar():
    rows = [_measure_engine(n) for n in SIZES]
    _print_rows("engine", rows)
    _record("engine", rows)
    if SMOKE:
        return
    for row in rows:
        if row["points"] >= 10_000:
            assert row["batch_s"] < row["scalar_s"], row


def test_bench_assembly_vs_scalar():
    rows = [_measure_assembly(n) for n in SIZES]
    _print_rows("assembly", rows)
    _record("assembly", rows)
    if SMOKE:
        return
    for row in rows:
        if row["points"] >= 10_000:
            assert row["speedup"] >= MIN_ASSEMBLY_SPEEDUP, row


def test_bench_batch_100k_under_one_second():
    n_points = 1_000 if SMOKE else 100_000
    matrix = _grid(n_points)
    elapsed, _ = _time(lambda m: evaluate_matrix(m, cache=None), matrix)
    if not SMOKE:
        assert elapsed < 1.0, f"100k-point evaluation took {elapsed:.3f}s"


def _study_axes(n_points: int) -> dict:
    """Three crossed knob axes as plain value tuples (spec input)."""
    per_axis = int(np.ceil(n_points ** (1.0 / 3.0)))
    return {
        "compute_tdp_w": tuple(np.linspace(1.0, 30.0, per_axis)),
        "compute_runtime_s": tuple(np.geomspace(0.002, 0.5, per_axis)),
        "payload_weight_g": tuple(np.linspace(0.0, 500.0, per_axis)),
    }


def _raw_knob_run(base: Knobs, axes: dict):
    """What the planner compiles to, wired by hand (the baseline)."""
    columns = cartesian_product(axes)
    matrix = KnobMatrix.from_base(base, **columns).assemble()
    return evaluate_matrix(matrix, cache=None)


def _study_run(axes: dict):
    """The declarative path: spec -> plan -> result, cache off."""
    from repro.study import DesignSpec, StudySpec, run_study

    spec = StudySpec(design=DesignSpec.knob_axes(axes=axes))
    return run_study(spec, cache=None)


def _best_of(fn, *args, repeats: int = 3) -> float:
    fn(*args)  # warm-up
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_study_overhead():
    """Spec compile + dispatch must stay < 5% over raw evaluate_matrix."""
    n_points = (1_000 if GATE else 64) if SMOKE else 100_000
    axes = _study_axes(n_points)
    raw_s = _best_of(_raw_knob_run, Knobs(), axes)
    study_s = _best_of(_study_run, axes)
    overhead = study_s / raw_s - 1.0
    per_axis = len(axes["compute_tdp_w"])
    row = {
        "points": per_axis ** 3,
        "raw_s": round(raw_s, 6),
        "study_s": round(study_s, 6),
        "overhead": round(overhead, 4),
    }
    print(
        f"[study] {row['points']:>7} points: raw {raw_s:.4f}s, "
        f"study {study_s:.4f}s ({overhead:+.1%} overhead)"
    )
    _record("study", [row])
    if SMOKE:
        return
    assert overhead < MAX_STUDY_OVERHEAD, row


def _ranked_plans(n_points: int, count: int) -> list:
    """``count`` compiled plans of one ``top_k`` study.

    Each plan holds its own matrix object: a matrix digests its
    content once, so reusing one would time the cache key only once.
    """
    from repro.study import DesignSpec, RankClause, StudySpec, compile_spec

    spec = StudySpec(
        design=DesignSpec.knob_axes(axes=_study_axes(n_points)),
        rank=RankClause(by="safe_velocity", top_k=RANKED_TOP_K),
    )
    return [compile_spec(spec) for _ in range(count)]


def test_bench_ranked_study_overhead():
    """A ranked study costs little more than the evaluation it ranks.

    Both sides start from a compiled plan.  The study adds the cache
    key (a digest of every column; each run misses a fresh cache, as
    distinct grids do) and the top-k selection to ``evaluate_matrix``.
    A full sort of all rows or a copying digest would each push it past
    the margin.
    """
    from repro.batch import BatchCache
    from repro.study import run_study

    n_points = (1_000 if GATE else 64) if SMOKE else 100_000
    plans = _ranked_plans(n_points, RANKED_REPEATS + 1)
    spec = plans[0].spec
    raw_s = _best_of(
        lambda: evaluate_matrix(
            plans[0].matrix,
            knee_fraction=spec.knee_fraction,
            tolerance=spec.tolerance,
            cache=None,
        ),
        repeats=RANKED_REPEATS,
    )
    run_study(plans[0], cache=BatchCache())  # warm-up
    ranked_s = float("inf")
    for plan in plans[1:]:
        start = time.perf_counter()
        run_study(plan, cache=BatchCache())
        ranked_s = min(ranked_s, time.perf_counter() - start)
    overhead = ranked_s / raw_s - 1.0
    row = {
        "points": len(plans[0]),
        "raw_s": round(raw_s, 6),
        "study_s": round(ranked_s, 6),
        "overhead": round(overhead, 4),
    }
    print(
        f"[study-ranked] {row['points']:>7} points: evaluate "
        f"{raw_s:.4f}s, top-{RANKED_TOP_K} study {ranked_s:.4f}s "
        f"({overhead:+.1%} overhead)"
    )
    _record("study-ranked", [row])
    if SMOKE:
        return
    assert overhead < MAX_RANKED_STUDY_OVERHEAD, row


def test_bench_sweep_grid_end_to_end():
    """sweep_grid stays wired front to back (smoke-sized on purpose)."""
    from repro.skyline.sweep import sweep_grid

    grid = sweep_grid(
        Knobs(),
        {
            "compute_tdp_w": np.linspace(1.0, 30.0, 4),
            "compute_runtime_s": np.geomspace(0.002, 0.5, 4),
            "payload_weight_g": np.linspace(0.0, 500.0, 3),
        },
    )
    assert grid.shape == (4, 4, 3)
    assert sum(grid.bound_counts().values()) == len(grid)


def test_bench_batch_cache_makes_repeats_free(benchmark):
    from repro.batch import BatchCache

    n_points = 1_000 if SMOKE else 100_000
    matrix = _grid(n_points)
    cache = BatchCache()
    evaluate_matrix(matrix, cache=cache)  # populate

    result = benchmark(evaluate_matrix, matrix, cache=cache)
    assert len(result) == n_points
    assert cache.stats.hits >= 1
