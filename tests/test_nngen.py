"""Tests for the NN-Gen hardware generator: allocation and folding."""

import pytest

from repro.devices import Z7020, Z7045, budget_fraction
from repro.errors import ResourceError
from repro.fixedpoint.format import (
    DEFAULT_DATA_FORMAT,
    DEFAULT_WEIGHT_FORMAT,
    QFormat,
)
from repro.frontend.graph import graph_from_text
from repro.frontend.layers import LayerKind
from repro.frontend.shapes import infer_shapes, macs_for_layer
from repro.nngen import NNGen, build_folding_plan, choose_datapath
from repro.nngen.allocate import (
    NetworkNeeds,
    buffer_components,
    control_components,
    estimate_design_cost,
    functional_components,
    parallelism_caps,
)
from repro.nngen.design import DatapathConfig
from repro.pipeline import BuildPipeline
from repro.zoo.models import benchmark_graph

MLP_TEXT = """
name: "mlp"
layers { name: "data" type: DATA top: "data" param { dim: 16 } }
layers { name: "ip1" type: INNER_PRODUCT bottom: "data" top: "ip1" param { num_output: 32 } }
layers { name: "sig1" type: SIGMOID bottom: "ip1" top: "ip1" }
layers { name: "ip2" type: INNER_PRODUCT bottom: "ip1" top: "ip2" param { num_output: 8 } }
"""

LENET_TEXT = """
name: "lenet"
layers { name: "data" type: DATA top: "data" param { dim: 1 dim: 28 dim: 28 } }
layers { name: "conv1" type: CONVOLUTION bottom: "data" top: "conv1" param { num_output: 20 kernel_size: 5 stride: 1 } }
layers { name: "pool1" type: POOLING bottom: "conv1" top: "pool1" param { pool: MAX kernel_size: 2 stride: 2 } }
layers { name: "conv2" type: CONVOLUTION bottom: "pool1" top: "conv2" param { num_output: 50 kernel_size: 5 stride: 1 } }
layers { name: "pool2" type: POOLING bottom: "conv2" top: "pool2" param { pool: MAX kernel_size: 2 stride: 2 } }
layers { name: "ip1" type: INNER_PRODUCT bottom: "pool2" top: "ip1" param { num_output: 500 } }
layers { name: "relu1" type: RELU bottom: "ip1" top: "ip1" }
layers { name: "ip2" type: INNER_PRODUCT bottom: "ip1" top: "ip2" param { num_output: 10 } }
layers { name: "prob" type: SOFTMAX bottom: "ip2" top: "prob" }
"""


def small_config(lanes=4, simd=4):
    return DatapathConfig(lanes=lanes, simd=simd,
                          data_format=DEFAULT_DATA_FORMAT,
                          weight_format=DEFAULT_WEIGHT_FORMAT)


class TestChooseDatapath:
    def test_bigger_budget_bigger_datapath(self):
        graph = graph_from_text(LENET_TEXT)
        small = choose_datapath(graph, budget_fraction(Z7020, 0.1),
                                DEFAULT_DATA_FORMAT, DEFAULT_WEIGHT_FORMAT,
                                feature_demand_bits=1 << 18,
                                weight_demand_bits=1 << 18)
        large = choose_datapath(graph, budget_fraction(Z7045, 0.8),
                                DEFAULT_DATA_FORMAT, DEFAULT_WEIGHT_FORMAT,
                                feature_demand_bits=1 << 18,
                                weight_demand_bits=1 << 18)
        assert large.multipliers > small.multipliers

    def test_tiny_budget_rejected(self):
        graph = graph_from_text(MLP_TEXT)
        budget = budget_fraction(Z7020, 0.001)
        with pytest.raises(ResourceError):
            choose_datapath(graph, budget, DEFAULT_DATA_FORMAT,
                            DEFAULT_WEIGHT_FORMAT, 1 << 12, 1 << 12)

    @pytest.mark.parametrize("name", ("ann0", "mnist", "hopfield", "cmac",
                                      "mobilenet_tiny", "alexnet"))
    def test_priced_once_equals_whole_design_search(self, name):
        """The per-budget pass over one memoized candidate table picks
        exactly what pricing every whole design per budget picks, over
        the design-flow grid plus a budget nothing fits."""
        graph = benchmark_graph(name)
        pipe = BuildPipeline()
        fp = pipe.fingerprint(graph)
        for device in (Z7020, Z7045):
            for fraction in (0.001, 0.05, 0.1, 0.2, 0.3, 0.4, 0.8):
                budget = budget_fraction(device, fraction)
                for data_format in (QFormat(8, 8), QFormat(6, 10)):
                    expected = _whole_design_search(
                        graph, budget, data_format, DEFAULT_WEIGHT_FORMAT)
                    try:
                        chosen, _ = pipe.datapath(graph, fp, budget,
                                                  data_format,
                                                  DEFAULT_WEIGHT_FORMAT)
                    except ResourceError as error:
                        chosen = str(error)
                    assert chosen == expected, (device.name, fraction,
                                                data_format)
        # One table per format pair, shared by all fourteen budgets.
        assert len(pipe._candidate_tables) == 2


def _whole_design_search(graph, budget, data_format, weight_format):
    """Reference search: price every candidate's whole design (datapath,
    control and buffers) afresh for this budget; the error text when
    nothing fits."""
    feature, weight = NNGen._demands(graph, data_format, weight_format)
    needs = NetworkNeeds.of(graph)
    max_lanes, max_simd = parallelism_caps(graph)
    best = best_key = None
    for simd in (16, 8, 4, 2, 1):
        if simd > max_simd and simd > 1:
            continue
        lanes = 1
        while lanes <= min(512, max_lanes):
            config = DatapathConfig(lanes=lanes, simd=simd,
                                    data_format=data_format,
                                    weight_format=weight_format)
            lanes *= 2
            components = functional_components(config, needs)
            components.update(control_components(config, 16, 16))
            try:
                components.update(buffer_components(config, budget,
                                                    feature, weight))
            except ResourceError:
                continue
            if not estimate_design_cost(components).fits_in(budget.limit):
                continue
            key = (config.multipliers, simd)
            if best_key is None or key > best_key:
                best, best_key = config, key
    if best is None:
        return (f"budget {budget.label} ({budget.limit}) cannot fit even a "
                "1-lane datapath")
    return best


class TestFoldingPlanDense:
    def test_small_mlp_single_fold_per_layer(self):
        graph = graph_from_text(MLP_TEXT)
        plan = build_folding_plan(graph, small_config(lanes=64),
                                  feature_capacity_words=4096,
                                  weight_capacity_words=4096)
        counts = plan.fold_counts()
        assert counts["ip1"] == 1
        assert counts["ip2"] == 1
        assert counts["sig1"] == 1

    def test_output_folding_when_weight_buffer_small(self):
        graph = graph_from_text(MLP_TEXT)
        # ip1 is 16x32 = 512 weights; a 128-word buffer forces >= 4 folds.
        plan = build_folding_plan(graph, small_config(lanes=4),
                                  feature_capacity_words=4096,
                                  weight_capacity_words=128)
        assert plan.fold_counts()["ip1"] >= 4

    def test_input_folding_marks_partial(self):
        text = """
        layers { name: "data" type: DATA top: "d" param { dim: 1000 } }
        layers { name: "fc" type: INNER_PRODUCT bottom: "d" top: "fc" param { num_output: 4 } }
        """
        graph = graph_from_text(text)
        plan = build_folding_plan(graph, small_config(),
                                  feature_capacity_words=600,
                                  weight_capacity_words=600)
        folds = plan.for_layer("fc")
        assert len(folds) >= 2
        assert folds[0].partial
        assert not folds[-1].partial

    def test_macs_conserved_for_dense(self):
        graph = graph_from_text(MLP_TEXT)
        shapes = infer_shapes(graph)
        plan = build_folding_plan(graph, small_config(),
                                  feature_capacity_words=256,
                                  weight_capacity_words=64)
        for layer in ("ip1", "ip2"):
            spec = graph.layer(layer)
            expected = macs_for_layer(spec, shapes[spec.bottoms[0]],
                                      shapes[spec.tops[0]])
            got = sum(p.macs for p in plan.for_layer(layer))
            assert got == expected

    def test_outputs_covered_exactly(self):
        graph = graph_from_text(MLP_TEXT)
        plan = build_folding_plan(graph, small_config(lanes=4),
                                  feature_capacity_words=128,
                                  weight_capacity_words=48)
        covered = {}
        for phase in plan.for_layer("ip1"):
            if not phase.partial:
                covered.setdefault(phase.out_start, 0)
                covered[phase.out_start] += phase.out_count
        assert sum(covered.values()) == 32

    def test_recurrent_inputs_include_state(self):
        text = """
        layers { name: "data" type: DATA top: "d" param { dim: 10 } }
        layers { name: "rec" type: RECURRENT bottom: "d" top: "r"
                 param { num_output: 6 } connect { name: "l" direction: recurrent } }
        """
        graph = graph_from_text(text)
        plan = build_folding_plan(graph, small_config(lanes=64),
                                  feature_capacity_words=4096,
                                  weight_capacity_words=4096)
        fold = plan.for_layer("rec")[0]
        assert fold.macs == 6 * (10 + 6)


class TestFoldingPlanConv:
    def test_macs_conserved_for_conv(self):
        graph = graph_from_text(LENET_TEXT)
        shapes = infer_shapes(graph)
        plan = build_folding_plan(graph, small_config(),
                                  feature_capacity_words=8192,
                                  weight_capacity_words=4096)
        for layer in ("conv1", "conv2"):
            spec = graph.layer(layer)
            expected = macs_for_layer(spec, shapes[spec.bottoms[0]],
                                      shapes[spec.tops[0]])
            got = sum(p.macs for p in plan.for_layer(layer))
            assert got == expected

    def test_small_buffer_more_folds(self):
        graph = graph_from_text(LENET_TEXT)
        plan_big = build_folding_plan(graph, small_config(),
                                      feature_capacity_words=65536,
                                      weight_capacity_words=65536)
        plan_small = build_folding_plan(graph, small_config(),
                                        feature_capacity_words=2048,
                                        weight_capacity_words=512)
        assert len(plan_small) > len(plan_big)

    def test_overflowing_buffer_raises(self):
        graph = graph_from_text(LENET_TEXT)
        with pytest.raises(ResourceError):
            build_folding_plan(graph, small_config(),
                               feature_capacity_words=16,
                               weight_capacity_words=16)

    def test_pooling_folds_cover_channels(self):
        graph = graph_from_text(LENET_TEXT)
        plan = build_folding_plan(graph, small_config(),
                                  feature_capacity_words=1200,
                                  weight_capacity_words=4096)
        pool_folds = plan.for_layer("pool1")
        # 20 channels of 24x24 in + 12x12 out = 720 words per channel.
        assert len(pool_folds) > 1
        assert sum(p.out_count for p in pool_folds) == 20 * 12 * 12


class TestNNGenEndToEnd:
    def test_mlp_design_fits_budget(self):
        graph = graph_from_text(MLP_TEXT)
        budget = budget_fraction(Z7020, 0.3, label="test")
        design = NNGen().generate(graph, budget)
        assert design.resource_report().fits_in(budget.limit)

    def test_lenet_design_has_all_blocks(self):
        graph = graph_from_text(LENET_TEXT)
        design = NNGen().generate(graph, budget_fraction(Z7045, 0.5))
        names = set(design.components)
        assert "neurons" in names
        assert "pooling" in names
        assert "activation" in names
        assert "feature_buffer" in names
        assert "weight_buffer" in names
        assert "agu_main" in names
        assert "agu_data" in names
        assert "agu_weight" in names
        assert "coordinator" in names

    def test_mlp_has_no_pooling_unit(self):
        graph = graph_from_text(MLP_TEXT)
        design = NNGen().generate(graph, budget_fraction(Z7020, 0.3))
        assert "pooling" not in design.components
        assert "lrn" not in design.components

    def test_bigger_budget_faster_datapath(self):
        graph = graph_from_text(LENET_TEXT)
        small = NNGen().generate(graph, budget_fraction(Z7020, 0.15))
        large = NNGen().generate(graph, budget_fraction(Z7045, 0.8))
        assert large.datapath.multipliers > small.datapath.multipliers

    def test_folding_present(self):
        graph = graph_from_text(LENET_TEXT)
        design = NNGen().generate(graph, budget_fraction(Z7045, 0.4))
        assert len(design.folding) >= len(graph) - 1

    def test_summary_mentions_device(self):
        graph = graph_from_text(MLP_TEXT)
        design = NNGen().generate(graph, budget_fraction(Z7020, 0.3))
        assert "Z-7020" in design.summary()

    def test_generate_from_text(self):
        design = NNGen().generate_from_text(MLP_TEXT,
                                            budget_fraction(Z7020, 0.3))
        assert design.graph.name == "mlp"

    def test_component_lookup(self):
        design = NNGen().generate_from_text(MLP_TEXT,
                                            budget_fraction(Z7020, 0.3))
        assert design.component("neurons").lanes >= 1
        with pytest.raises(ResourceError):
            design.component("flux_capacitor")

    def test_sigmoid_network_gets_lut(self):
        design = NNGen().generate_from_text(MLP_TEXT,
                                            budget_fraction(Z7020, 0.3))
        activation = design.component("activation")
        assert activation.needs_lut


class TestFoldingReport:
    def test_report_lists_every_layer(self):
        graph = graph_from_text(LENET_TEXT)
        design = NNGen().generate(graph, budget_fraction(Z7045, 0.4))
        report = design.folding.report()
        for spec in graph.layers:
            if spec.kind is not LayerKind.DATA:
                assert spec.name in report

    def test_report_counts_consistent(self):
        graph = graph_from_text(MLP_TEXT)
        design = NNGen().generate(graph, budget_fraction(Z7020, 0.3))
        report = design.folding.report()
        # ip1 produces 32 outputs; the row must show them.
        ip1_line = next(l for l in report.splitlines()
                        if l.startswith("ip1"))
        assert "32" in ip1_line
