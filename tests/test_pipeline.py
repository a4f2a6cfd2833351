"""Tests for the stage-memoized build pipeline (repro.pipeline).

Two properties anchor everything here:

* **Transparency** — memoization never changes an answer.  Cold, warm,
  serial and pooled sweeps must be byte-identical, and the staged
  facade must equal a hand-wired monolithic chain.
* **Exactness** — a changed input invalidates exactly the stages that
  depend on it, no more and no fewer.
"""

import numpy as np
import pytest

from repro import api
from repro.dse import SweepPoint, SweepSpec, run_sweep
from repro.dse.bench import run_dse_bench
from repro.fixedpoint.format import QFormat
from repro.pipeline import (
    BuildPipeline,
    StageCache,
    default_pipeline,
    reset_default_pipeline,
    stage_key,
)
from repro.zoo.models import benchmark_graph


@pytest.fixture(scope="module")
def mnist():
    return benchmark_graph("mnist")


@pytest.fixture(autouse=True)
def fresh_default_pipeline():
    """Isolate each test from the process-wide stage cache."""
    reset_default_pipeline()
    yield
    reset_default_pipeline()


def _misses(pipe: BuildPipeline) -> dict[str, int]:
    return {stage: stats.misses for stage, stats in pipe.cache.stats.items()}


def _delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    return {stage: after.get(stage, 0) - before.get(stage, 0)
            for stage in after
            if after.get(stage, 0) != before.get(stage, 0)}


class TestStageKeys:
    def test_key_is_deterministic_and_field_sensitive(self):
        assert stage_key("weights", fp="abc", seed=0) == \
            stage_key("weights", fp="abc", seed=0)
        assert stage_key("weights", fp="abc", seed=0) != \
            stage_key("weights", fp="abc", seed=1)
        assert stage_key("weights", fp="abc", seed=0) != \
            stage_key("shapes", fp="abc", seed=0)

    def test_cache_is_bounded_lru(self):
        cache = StageCache(max_entries=2)
        for n in range(4):
            cache.get_or_build("s", str(n), lambda n=n: n)
        assert len(cache) == 2
        value, seconds = cache.get_or_build("s", "3", lambda: -1)
        assert value == 3 and seconds == 0.0  # newest survived


class TestStageInvalidation:
    """A changed input busts exactly the dependent stages."""

    def test_identical_build_hits_every_stage(self, mnist):
        pipe = BuildPipeline()
        api.build(mnist, fraction=0.2, pipeline=pipe)
        before = _misses(pipe)
        second = api.build(mnist, fraction=0.2, pipeline=pipe)
        assert _delta(before, _misses(pipe)) == {}
        assert all(second.stage_seconds[stage] == 0.0
                   for stage in ("nngen_s", "quantize_s", "compile_s"))

    def test_fraction_change_keeps_weight_stages(self, mnist):
        pipe = BuildPipeline()
        api.build(mnist, fraction=0.2, pipeline=pipe)
        before = _misses(pipe)
        api.build(mnist, fraction=0.4, pipeline=pipe)
        delta = _delta(before, _misses(pipe))
        # New budget: new datapath, design, compiled core.  Same seed
        # and weight format: the float weights survive, and the DRAM
        # image is rebuilt only if the realized SIMD width moved.
        assert {"datapath", "design", "compile"} <= set(delta)
        assert set(delta) <= {"datapath", "design", "compile", "dram"}
        assert "weights" not in delta

    def test_lane_caps_collapse_onto_one_design(self, mnist):
        pipe = BuildPipeline()
        api.build(mnist, fraction=0.2, pipeline=pipe)
        before = _misses(pipe)
        # mnist at 20% realizes 8 lanes; a cap of 1024 clamps to the
        # same effective datapath, so nothing new is built.
        api.build(mnist, fraction=0.2, max_lanes=1024, pipeline=pipe)
        assert _delta(before, _misses(pipe)) == {}

    def test_seed_change_busts_only_weight_values(self, mnist):
        pipe = BuildPipeline()
        api.build(mnist, fraction=0.2, seed=0, pipeline=pipe)
        before = _misses(pipe)
        api.build(mnist, fraction=0.2, seed=1, pipeline=pipe)
        delta = _delta(before, _misses(pipe))
        # Weight init and the quantized DRAM image depend on the seed;
        # the design and compiled core do not.
        assert set(delta) == {"weights", "dram"}

    def test_weight_format_change_busts_quantization_chain(self, mnist):
        pipe = BuildPipeline()
        api.build(mnist, fraction=0.2, pipeline=pipe)
        before = _misses(pipe)
        api.build(mnist, fraction=0.2, weight_format=QFormat(4, 11),
                  pipeline=pipe)
        delta = _delta(before, _misses(pipe))
        # The format reaches the datapath choice, the realized design,
        # its compiled core and the DRAM image — but seeded float
        # weights are format-independent.
        assert set(delta) == {"datapath", "design", "compile", "dram"}
        assert "weights" not in delta

    def test_timing_only_build_skips_weight_materialization(self, mnist):
        pipe = BuildPipeline()
        artifacts = api.build(mnist, fraction=0.2, weights=None,
                              pipeline=pipe)
        assert artifacts.weights is None
        assert artifacts.program.dram_image is None
        assert "weights" not in pipe.cache.stats
        assert "dram" not in pipe.cache.stats


class TestTransparency:
    """Memoization is invisible in the results."""

    def test_warm_build_equals_cold_build(self, mnist):
        pipe = BuildPipeline()
        cold = api.build(mnist, fraction=0.2, pipeline=pipe)
        warm = api.build(mnist, fraction=0.2, pipeline=pipe)
        assert cold == warm
        cold_out = api.simulate(cold).output
        warm_out = api.simulate(warm).output
        np.testing.assert_array_equal(cold_out, warm_out)

    def test_evicted_design_gets_the_compiled_agus(self, mnist):
        """A design re-realised after eviction, whose compiled core is
        still memoized, carries that core's reduced AGUs."""
        pipe = BuildPipeline()
        cold = api.build(mnist, fraction=0.2, weights=None, pipeline=pipe)
        pipe.cache._stores["design"].clear()
        rebuilt = api.build(mnist, fraction=0.2, weights=None, pipeline=pipe)
        assert rebuilt.design is not cold.design
        assert rebuilt.program is cold.program
        assert rebuilt.design.resource_report() == \
            cold.design.resource_report()
        for role in ("main", "data", "weight"):
            assert rebuilt.design.component(f"agu_{role}") is \
                cold.design.component(f"agu_{role}")

    def test_staged_build_equals_private_pipeline_build(self, mnist):
        shared = api.build(mnist, fraction=0.3)
        private = api.build(mnist, fraction=0.3,
                            pipeline=BuildPipeline(StageCache(max_entries=0)))
        # Component instances compare by identity; the content-addressed
        # design key is the value-level comparison.
        assert shared.stage_keys == private.stage_keys
        assert shared.design.datapath == private.design.datapath
        assert set(shared.weights) == set(private.weights)
        for name, tensors in shared.weights.items():
            for key, value in tensors.items():
                np.testing.assert_array_equal(value,
                                              private.weights[name][key])
        np.testing.assert_array_equal(
            api.simulate(shared).output, api.simulate(private).output)

    def test_plan_for_is_memoized_and_shared(self, mnist):
        pipe = BuildPipeline()
        artifacts = api.build(mnist, fraction=0.2, pipeline=pipe)
        assert pipe.plan_for(artifacts) is pipe.plan_for(artifacts)

    def test_shared_plan_outputs_match_private_plan(self, mnist):
        pipe = BuildPipeline()
        artifacts = api.build(mnist, fraction=0.2, pipeline=pipe)
        inputs = artifacts.random_input()
        shared = api.simulator(artifacts,
                               plan=pipe.plan_for(artifacts)).run(inputs)
        private = api.simulator(artifacts).run(inputs)
        np.testing.assert_array_equal(shared.output, private.output)


NETS = ("mnist", "ann0")
SWEEP_AXES = dict(fractions=(0.1, 0.3), max_lanes=(0, 8))


def _canonical(sweep):
    return [result.to_json() for result in sweep.results]


class TestSweepByteIdentity:
    """serial-cold == serial-warm == parallel(--jobs 2), per zoo net."""

    @pytest.mark.parametrize("net", NETS)
    def test_cold_warm_parallel_identical(self, net):
        graph = benchmark_graph(net)
        spec = SweepSpec(functional=True, **SWEEP_AXES)
        pipe = BuildPipeline()
        serial_cold = run_sweep(graph, spec, jobs=1, pipeline=pipe)
        serial_warm = run_sweep(graph, spec, jobs=1, pipeline=pipe)
        parallel = run_sweep(graph, spec, jobs=2,
                             pipeline=BuildPipeline(), use_pool=True)
        assert _canonical(serial_cold) == _canonical(serial_warm)
        assert _canonical(serial_cold) == _canonical(parallel)

    def test_seed_change_changes_functional_results_only(self):
        graph = benchmark_graph("mnist")
        base = run_sweep(graph, SweepSpec(functional=True,
                                          fractions=(0.2,), seed=0), jobs=1)
        other = run_sweep(graph, SweepSpec(functional=True,
                                           fractions=(0.2,), seed=1), jobs=1)
        (a,), (b,) = base.results, other.results
        assert a.cycles == b.cycles and a.lut == b.lut
        assert a.accuracy != b.accuracy


class TestSweepSharing:
    def test_exact_duplicates_are_deduped(self, mnist):
        point = SweepPoint(fraction=0.2)
        spec = SweepSpec.explicit([point, point, point])
        sweep = run_sweep(mnist, spec, jobs=1)
        assert sweep.deduped == 2
        first, *rest = [r.to_json() for r in sweep.results]
        assert all(entry == first for entry in rest)

    def test_clamped_caps_share_one_design(self, mnist):
        # mnist at 20% realizes 8 lanes: caps of 8 and above (and 0 =
        # uncapped) all clamp to the same effective datapath.
        spec = SweepSpec(fractions=(0.2,), max_lanes=(0, 8, 1024),
                         functional=True)
        sweep = run_sweep(mnist, spec, jobs=1)
        assert sweep.design_shared == 2
        jsons = [dict(r.to_json(), point=None) for r in sweep.results]
        assert jsons[0] == jsons[1] == jsons[2]

    def test_shared_results_match_independent_evaluation(self, mnist):
        from repro.dse.engine import evaluate_point
        spec = SweepSpec(fractions=(0.2,), max_lanes=(0, 1024),
                         functional=True)
        sweep = run_sweep(mnist, spec, jobs=1)
        for result in sweep.results:
            alone = evaluate_point(mnist, result.point, functional=True,
                                   pipeline=BuildPipeline())
            assert alone.to_json() == result.to_json()

    def test_stage_timings_surface_in_results(self, mnist):
        sweep = run_sweep(mnist, SweepSpec(fractions=(0.2, 0.4),
                                           functional=True), jobs=1)
        fresh = [r for r in sweep.results if r.stage_s]
        assert fresh, "fresh evaluations should carry stage timings"
        split = sweep.stage_split()
        assert split["build_s"] > 0.0
        for stage in ("nngen_s", "quantize_s", "compile_s", "plan_s"):
            assert stage in split
        assert "build" in sweep.render()


class TestDseBench:
    def test_bench_smoke_is_bit_identical(self, mnist):
        spec = SweepSpec(fractions=(0.1, 0.3), functional=True)
        report = run_dse_bench(mnist, spec, jobs=2,
                               validate_networks=["mnist"])
        assert report.bit_identical
        assert report.points == 2
        payload = report.to_json()
        for name in ("baseline", "serial_cold", "parallel_cold", "warm"):
            assert payload["passes"][name]["points_per_s"] > 0.0
        assert "speedup" in payload and "stage_split_s" in payload
        assert "points/s" in report.render()

    def test_wide_estimator_regimes(self, mnist):
        spec = SweepSpec(fractions=(0.1, 0.3), functional=True)
        report = run_dse_bench(mnist, spec, jobs=1,
                               validate_networks=["mnist"])
        payload = report.to_json()
        assert payload["schema"] == 2
        for name in ("analytic_cold", "analytic_warm", "hybrid_cold",
                     "hybrid", "exact_wide"):
            assert payload["passes"][name]["points_per_s"] > 0.0
        assert report.wide_points >= 500
        assert 0 < report.hybrid_replayed <= report.wide_points
        assert report.frontier_match
        assert report.estimator_accuracy["ok"]
        assert report.estimator_accuracy["max_rel_cycle_error"] <= 0.05
        assert "frontier identical to exact: yes" in report.render()

    def test_wide_regimes_can_be_disabled(self, mnist):
        spec = SweepSpec(fractions=(0.1,))
        report = run_dse_bench(mnist, spec, jobs=1, wide_min_points=0)
        payload = report.to_json()
        assert "hybrid" not in payload["passes"]
        assert report.wide_points == 0
        assert not report.estimator_accuracy
        assert "wide grid" not in report.render()

    def test_bench_report_round_trips_to_disk(self, mnist, tmp_path):
        import json
        spec = SweepSpec(fractions=(0.1,))
        report = run_dse_bench(mnist, spec, jobs=1)
        path = str(tmp_path / "BENCH_dse.json")
        report.write(path)
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle) == report.to_json()


class TestRuntimePlanSharing:
    def test_sessions_share_the_model_plan(self, mnist):
        from repro.runtime.model import CompiledModel
        model = CompiledModel.build(mnist, fraction=0.2)
        first = model.new_session()
        second = model.new_session()
        first.warm()
        second.warm()
        assert first._executor.plan() is second._executor.plan()

    def test_default_pipeline_shares_plans_across_models(self, mnist):
        from repro.runtime.model import CompiledModel
        a = CompiledModel.build(mnist, fraction=0.2)
        b = CompiledModel.build(mnist, fraction=0.2)
        assert a.execution_plan is b.execution_plan


class TestNumericBatchSweepKeys:
    """BENCH_runtime batch_sweep keys are strings; selection must not be."""

    def _report(self, sweep):
        from repro.runtime.bench import BenchReport
        return BenchReport(
            model="m", device="Z-7045", fraction=0.3, requests=8,
            workers=2, max_batch_size=8, functional=True, seed=0,
            sequential={"requests_per_s": 100.0},
            runtime={"requests_per_s": 150.0},
            batch_sweep=sweep,
        )

    def test_best_size_compares_numerically(self):
        report = self._report({
            "2": {"requests_per_s": 120.0},
            "10": {"requests_per_s": 300.0},
        })
        # String comparison would put "2" after "10" and could hide the
        # winner; numeric selection finds batch 10.
        assert report.best_batched_size == 10
        assert report.best_batched_speedup == 3.0

    def test_rate_ties_break_to_the_smallest_batch(self):
        report = self._report({
            "16": {"requests_per_s": 200.0},
            "4": {"requests_per_s": 200.0},
        })
        assert report.best_batched_size == 4

    def test_report_json_carries_the_best_size(self):
        import json
        payload = json.loads(self._report(
            {"8": {"requests_per_s": 220.0}}).to_json())
        assert payload["best_batched_size"] == 8
