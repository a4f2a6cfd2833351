"""The graph-level plan optimizer: fusion, arena, level schedule.

The optimizer's contract is bit-exactness: a fused, arena-allocated
plan must produce integer-identical blobs to the naive
one-step-per-layer plan AND to the per-sample ``forward_raw`` path,
across every zoo benchmark — including the recurrent (hopfield) and
branchy (concat/eltwise) topologies.  These tests pin that contract,
the buffer-arena recycling behaviour, the serving gauges, and the
schema-2 bench report plumbing.
"""

import json
import sys
import threading

import numpy as np
import pytest

from repro import api
from repro.sim.plan import BufferArena, ExecutionPlan
from repro.sim.quantized import QuantizedExecutor
from repro.zoo import BENCHMARKS, benchmark_graph

BRANCHY = ("squeezenet_tiny", "resnet_tiny")

_EXECUTORS: dict = {}


def _executor(name: str) -> QuantizedExecutor:
    """One executor per zoo net, shared across tests in this module."""
    if name not in _EXECUTORS:
        artifacts = api.build(benchmark_graph(name), fraction=0.2)
        _EXECUTORS[name] = QuantizedExecutor(
            graph=artifacts.graph,
            weights=artifacts.weights,
            blob_formats=artifacts.program.blob_formats,
            weight_format=(artifacts.program.weight_format
                           or artifacts.design.datapath.weight_format),
            luts=artifacts.program.luts,
        )
    return _EXECUTORS[name]


def _plan(executor: QuantizedExecutor, optimize: str) -> ExecutionPlan:
    return ExecutionPlan.build(
        executor.graph,
        executor._shapes,
        executor._order,
        executor._quantized_weights,
        executor.blob_formats,
        executor.weight_format,
        executor._lut,
        optimize=optimize,
    )


def _random_batch(executor: QuantizedExecutor, count: int,
                  seed: int) -> list:
    input_blob = executor.graph.inputs()[0].tops[0]
    dims = executor._shapes[input_blob].dims
    rng = np.random.default_rng(seed)
    return [rng.uniform(-1.0, 1.0, dims) for _ in range(count)]


class TestFusedBitExact:
    """Fused == naive == per-sample, integer for integer, zoo-wide."""

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    @pytest.mark.parametrize("batch", [1, 3, 16])
    def test_fused_matches_naive(self, name, batch):
        executor = _executor(name)
        naive, fused = _plan(executor, "naive"), _plan(executor, "fused")
        stacked = executor.stack_batch(
            _random_batch(executor, batch, seed=101 + batch))
        naive_state: dict = {}
        expected = naive.forward_batch_raw(stacked, naive_state)
        all_state: dict = {}
        all_blobs = fused.forward_batch_raw(stacked, all_state,
                                            keep="all")
        out_state: dict = {}
        output_only = fused.forward_batch_raw(stacked, out_state,
                                              keep="output")
        for blob, values in expected.items():
            np.testing.assert_array_equal(
                values, all_blobs[blob], err_msg=f"{name}:{blob}")
        (output_blob,) = output_only
        np.testing.assert_array_equal(expected[output_blob],
                                      output_only[output_blob])
        # Recurrent state (hopfield) must evolve identically too.
        assert set(naive_state) == set(all_state) == set(out_state)
        for key, values in naive_state.items():
            np.testing.assert_array_equal(values, all_state[key])
            np.testing.assert_array_equal(values, out_state[key])

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_fused_matches_per_sample_forward_raw(self, name):
        executor = _executor(name)
        fused = _plan(executor, "fused")
        batch = _random_batch(executor, 3, seed=7)
        singles = []
        for sample in batch:
            executor.reset_state()
            singles.append(executor.forward_raw(sample))
        stacked = executor.stack_batch(batch)
        batched = fused.forward_batch_raw(stacked, {}, keep="all")
        for index, raw in enumerate(singles):
            for blob, values in raw.items():
                np.testing.assert_array_equal(
                    values, batched[blob][index],
                    err_msg=f"{name}:{blob} sample {index}")


class TestBranchParallelDeterminism:
    """Branchy plans flushed from many threads at once are bit-identical
    to serial flushes: serving workers share one fused plan and its
    buffer arena."""

    @pytest.mark.parametrize("name", BRANCHY)
    def test_parallel_equals_serial(self, name):
        executor = _executor(name)
        fused = _plan(executor, "fused")
        threads = 6
        # Different batch sizes per thread put several arena size
        # classes under contention at once.
        batches = [executor.stack_batch(
            _random_batch(executor, 1 + index % 4, seed=13 + index))
            for index in range(threads)]
        serial = [fused.forward_batch_raw(batch, {}, keep="output")
                  for batch in batches]
        start = threading.Barrier(threads)
        results: list[list] = [[] for _ in range(threads)]

        def flush(index: int) -> None:
            start.wait(timeout=30)
            for _ in range(5):
                results[index].append(fused.forward_batch_raw(
                    batches[index], {}, keep="output"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=flush, args=(index,))
                       for index in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        for expected, flushed in zip(serial, results):
            assert len(flushed) == 5
            for threaded in flushed:
                for blob, values in expected.items():
                    np.testing.assert_array_equal(values, threaded[blob])
        assert fused.arena.snapshot()["in_use_bytes"] == 0

    def test_squeezenet_has_parallel_levels(self):
        fused = _plan(_executor("squeezenet_tiny"), "fused")
        stats = fused.stats()
        assert stats["max_level_width"] > 1
        assert stats["levels"] < stats["total_steps"]

    def test_naive_plan_is_sequential(self):
        naive = _plan(_executor("squeezenet_tiny"), "naive")
        stats = naive.stats()
        assert stats["fused_steps"] == 0
        assert stats["max_level_width"] == 1
        assert stats["levels"] == stats["total_steps"]


class TestPlanStats:
    def test_fusion_counts(self):
        fused = _plan(_executor("mnist"), "fused")
        stats = fused.stats()
        assert stats["optimize"] == "fused"
        assert 0 < stats["fused_steps"] < stats["total_steps"]

    def test_arena_peak_populates_after_flush(self):
        executor = _executor("mnist")
        fused = _plan(executor, "fused")
        stacked = executor.stack_batch(_random_batch(executor, 4, seed=3))
        fused.forward_batch_raw(stacked, {}, keep="output")
        stats = fused.stats()
        assert stats["peak_arena_bytes"] > 0
        assert stats["arena_pool_bytes"] >= stats["peak_arena_bytes"]

    def test_invalid_optimize_rejected(self):
        executor = _executor("mnist")
        with pytest.raises(Exception, match="optimize"):
            _plan(executor, "turbo")


class TestBufferArena:
    def test_release_then_take_reuses_block(self):
        arena = BufferArena()
        first = arena.take((64, 64), np.int64)
        base = first.base
        while base.base is not None:
            base = base.base
        arena.release(first)
        second = arena.take((64, 64), np.int64)
        again = second.base
        while again.base is not None:
            again = again.base
        assert again is base
        assert arena.snapshot()["misses"] == 1
        assert arena.snapshot()["takes"] == 2

    def test_size_classes_are_powers_of_two(self):
        arena = BufferArena()
        arena.take((3,), np.int64)  # 24 B -> 512 B minimum class
        assert arena.pool_bytes == 512
        arena.take((100,), np.int64)  # 800 B -> 1024 B class
        assert arena.pool_bytes == 512 + 1024

    def test_peak_tracks_concurrent_use(self):
        arena = BufferArena()
        a = arena.take((512,), np.int64)
        b = arena.take((512,), np.int64)
        peak = arena.peak_bytes
        arena.release(a)
        arena.release(b)
        arena.take((512,), np.int64)
        assert arena.peak_bytes == peak

    def test_release_of_foreign_array_is_noop(self):
        arena = BufferArena()
        arena.release(np.zeros(16, dtype=np.int64))
        assert arena.snapshot()["in_use_bytes"] == 0


class TestExecutorPlanOptimize:
    def test_plan_optimize_threads_to_plan(self):
        executor = _executor("mnist")
        naive_executor = QuantizedExecutor(
            graph=executor.graph,
            weights=executor.weights,
            blob_formats=executor.blob_formats,
            weight_format=executor.weight_format,
            luts=executor.luts,
            quantized_weights=executor.quantized_weights,
            plan_optimize="naive",
        )
        assert naive_executor.plan().optimize == "naive"
        assert executor.plan().optimize == "fused"

    def test_forward_batch_default_uses_output_only(self):
        executor = _executor("mnist")
        batch = _random_batch(executor, 2, seed=5)
        slim = executor.forward_batch(batch)
        full = executor.forward_batch(batch, all_blobs=True)
        assert len(slim) == 1
        (output_blob,) = slim
        assert len(full) > 1
        np.testing.assert_array_equal(slim[output_blob],
                                      full[output_blob])


class TestServingIntegration:
    def test_server_publishes_plan_gauges(self):
        from repro.runtime import CompiledModel, InferenceServer

        model = CompiledModel.from_zoo("mnist", fraction=0.2)
        server = InferenceServer(model, workers=1, max_batch_size=4,
                                 batch_timeout_s=0.001)
        with server:
            pending = [server.submit(inputs)
                       for inputs in model.random_requests(4, seed=2)]
            for request in pending:
                assert request.result().ok
        assert server.metrics.gauge("plan_total_steps").value > 0
        assert server.metrics.gauge("plan_fused_steps").value > 0
        assert server.metrics.gauge("plan_peak_arena_bytes").value > 0

    def test_peak_arena_gauge_follows_flushes(self, monkeypatch):
        """The step gauges are published once, at start; after every
        batch only the arena high-water gauge is refreshed, and it
        keeps following the arena past the first fused flush."""
        from repro.pipeline import reset_default_pipeline
        from repro.runtime import CompiledModel, InferenceServer

        reset_default_pipeline()  # a fresh plan, its arena unused
        stats_calls = []
        original = ExecutionPlan.stats
        monkeypatch.setattr(
            ExecutionPlan, "stats",
            lambda plan: stats_calls.append(plan) or original(plan))
        model = CompiledModel.from_zoo("mnist", fraction=0.2)
        server = InferenceServer(model, workers=1, max_batch_size=8,
                                 batch_timeout_s=0.05)
        gauge = server.metrics.gauge("plan_peak_arena_bytes")
        arena = model.execution_plan.arena
        requests = model.random_requests(9, seed=4)
        try:
            with server:
                assert server.submit(requests[0]).result().ok
                single = gauge.value
                assert single == arena.peak_bytes > 0
                pending = [server.submit(inputs) for inputs in requests[1:]]
                assert all(request.result().ok for request in pending)
                assert gauge.value == arena.peak_bytes > single
        finally:
            reset_default_pipeline()
        assert len(stats_calls) == 1

    def test_model_spec_optimize_is_part_of_key(self):
        from repro.gateway.registry import ModelSpec, ModelRegistry

        registry = ModelRegistry(capacity=4)
        fused = ModelSpec(model="mnist", optimize="fused")
        naive = ModelSpec(model="mnist", optimize="naive")
        assert registry.key_for(fused) != registry.key_for(naive)

    def test_model_spec_rejects_unknown_optimize(self):
        from repro.errors import GatewayError
        from repro.gateway.registry import ModelSpec

        with pytest.raises(GatewayError, match="optimize"):
            ModelSpec(model="mnist", optimize="turbo")


class TestBenchSchema:
    def test_runtime_counts_are_ints(self, tmp_path):
        from repro.runtime import run_bench

        report = run_bench("mnist", requests=6, workers=1,
                           max_batch_size=3, fraction=0.2, out="")
        for field in ("max_batch_size_seen", "max_queue_depth_seen",
                      "batches"):
            assert isinstance(report.runtime[field], int), field
        assert report.optimize == "fused"
        assert report.plan["fused_steps"] > 0
        assert report.peak_alloc_bytes > 0

    def test_load_normalizes_old_float_counts(self, tmp_path):
        from repro.runtime import load_bench_report

        legacy = {
            "model": "mnist",
            "runtime": {"max_batch_size_seen": 16.0,
                        "max_queue_depth_seen": 5.0,
                        "batches": 8.0,
                        "requests_per_s": 100.0},
            "batch_sweep": {"8": {"max_batch_size_seen": 8.0,
                                  "batches": 2.0}},
        }
        path = tmp_path / "BENCH_runtime.json"
        path.write_text(json.dumps(legacy))
        loaded = load_bench_report(str(path))
        assert loaded["runtime"]["max_batch_size_seen"] == 16
        assert isinstance(loaded["runtime"]["max_batch_size_seen"], int)
        assert isinstance(loaded["runtime"]["max_queue_depth_seen"], int)
        assert isinstance(loaded["batch_sweep"]["8"]["batches"], int)
        # Non-count floats stay floats.
        assert isinstance(loaded["runtime"]["requests_per_s"], float)

    def test_load_normalizes_schema_2_regimes(self, tmp_path):
        from repro.runtime import load_bench_report

        suite = {
            "schema": 2,
            "models": {
                "mnist": {
                    "fused": {"runtime": {"batches": 4.0}},
                    "naive": {"runtime": {"batches": 4.0}},
                    "comparison": {"bit_identical": True},
                },
            },
        }
        path = tmp_path / "BENCH_runtime.json"
        path.write_text(json.dumps(suite))
        loaded = load_bench_report(str(path))
        for regime in ("fused", "naive"):
            entry = loaded["models"]["mnist"][regime]["runtime"]
            assert isinstance(entry["batches"], int)

    def test_checked_in_report_is_schema_2(self):
        from pathlib import Path

        from repro.runtime import load_bench_report

        report = Path(__file__).resolve().parent.parent \
            / "BENCH_runtime.json"
        payload = load_bench_report(str(report))
        assert payload["schema"] == 2
        assert set(payload["models"]) >= {"mnist", "squeezenet_tiny"}
        for entry in payload["models"].values():
            comparison = entry["comparison"]
            assert comparison["bit_identical"] is True
            assert comparison["peak_alloc_bytes_fused"] \
                < comparison["peak_alloc_bytes_naive"]
        branchy = [payload["models"][name]["comparison"]
                   for name in ("squeezenet_tiny", "resnet_tiny")
                   if name in payload["models"]]
        assert branchy, "checked-in suite must include a branchy net"
        assert any(entry["fused_speedup"] >= 1.2 for entry in branchy)
