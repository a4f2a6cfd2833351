"""Integration tests for the DeepBurning compiler pipeline."""

import numpy as np
import pytest

from repro import api
from repro.compiler import DeepBurningCompiler
from repro.compiler.address import (
    AddressFlowGenerator,
    compress_stream,
    dense_reference_stream,
)
from repro.compiler.control import build_coordinator_program
from repro.compiler.memmap import build_memory_map
from repro.compiler.patterns import expand_patterns
from repro.devices import Z7020, Z7045, budget_fraction
from repro.errors import CompileError, LayoutError
from repro.fixedpoint.ops import quantize_to_ints
from repro.frontend.graph import graph_from_text
from repro.frontend.layers import LayerKind
from repro.nn.reference import init_weights
from repro.nngen import NNGen
from repro.zoo.models import BENCHMARKS, benchmark_graph

MLP_TEXT = """
name: "mlp"
layers { name: "data" type: DATA top: "data" param { dim: 16 } }
layers { name: "ip1" type: INNER_PRODUCT bottom: "data" top: "ip1" param { num_output: 32 } }
layers { name: "sig1" type: SIGMOID bottom: "ip1" top: "ip1" }
layers { name: "ip2" type: INNER_PRODUCT bottom: "ip1" top: "ip2" param { num_output: 8 } }
"""

CNN_TEXT = """
name: "cnn"
layers { name: "data" type: DATA top: "data" param { dim: 1 dim: 12 dim: 12 } }
layers { name: "conv1" type: CONVOLUTION bottom: "data" top: "conv1" param { num_output: 4 kernel_size: 3 stride: 1 } }
layers { name: "relu1" type: RELU bottom: "conv1" top: "conv1" }
layers { name: "pool1" type: POOLING bottom: "conv1" top: "pool1" param { pool: MAX kernel_size: 2 stride: 2 } }
layers { name: "ip1" type: INNER_PRODUCT bottom: "pool1" top: "ip1" param { num_output: 10 } }
layers { name: "prob" type: SOFTMAX bottom: "ip1" top: "prob" }
"""


@pytest.fixture(scope="module")
def mlp_design():
    return NNGen().generate(graph_from_text(MLP_TEXT),
                            budget_fraction(Z7020, 0.3))


@pytest.fixture(scope="module")
def cnn_design():
    return NNGen().generate(graph_from_text(CNN_TEXT),
                            budget_fraction(Z7045, 0.4))


class TestMemoryMap:
    def test_regions_disjoint(self, cnn_design):
        memory_map = build_memory_map(cnn_design.graph,
                                      cnn_design.datapath.simd)
        intervals = []
        for base, layout in memory_map.feature_regions.values():
            intervals.append((base, base + layout.total_elements))
        for region in memory_map.weight_regions.values():
            intervals.append((region.base_address,
                              region.base_address + region.total_elements))
        intervals.sort()
        for (a_start, a_end), (b_start, b_end) in zip(intervals, intervals[1:]):
            assert a_end <= b_start

    def test_total_covers_everything(self, cnn_design):
        memory_map = build_memory_map(cnn_design.graph,
                                      cnn_design.datapath.simd)
        last = max(
            [base + layout.total_elements
             for base, layout in memory_map.feature_regions.values()]
            + [r.base_address + r.total_elements
               for r in memory_map.weight_regions.values()]
        )
        assert memory_map.total_elements == last

    def test_pixel_addressing(self, cnn_design):
        memory_map = build_memory_map(cnn_design.graph,
                                      cnn_design.datapath.simd)
        addr = memory_map.address_of_pixel("data", 0, 0, 0)
        assert addr == memory_map.feature_base("data")

    def test_unknown_blob_rejected(self, cnn_design):
        memory_map = build_memory_map(cnn_design.graph,
                                      cnn_design.datapath.simd)
        from repro.errors import LayoutError
        with pytest.raises(LayoutError):
            memory_map.feature_base("ghost")


class TestAddressPlans:
    def test_every_phase_has_plan(self, cnn_design):
        memory_map = build_memory_map(cnn_design.graph,
                                      cnn_design.datapath.simd)
        plans = AddressFlowGenerator(cnn_design, memory_map).plans()
        assert len(plans) == len(cnn_design.folding)

    def test_dense_weight_pattern_matches_reference(self, mlp_design):
        memory_map = build_memory_map(mlp_design.graph,
                                      mlp_design.datapath.simd)
        plans = AddressFlowGenerator(mlp_design, memory_map).plans()
        weights = memory_map.weights("ip1")
        for plan in plans:
            if plan.phase.layer != "ip1":
                continue
            phase = plan.phase
            expected = dense_reference_stream(
                weights.base_address, weights.depth,
                phase.out_start, phase.out_count,
                phase.in_start, phase.in_count,
            )
            got = expand_patterns(plan.main_weight_reads)
            assert got == expected

    def test_dense_fetch_words_match_fold(self, mlp_design):
        memory_map = build_memory_map(mlp_design.graph,
                                      mlp_design.datapath.simd)
        plans = AddressFlowGenerator(mlp_design, memory_map).plans()
        for plan in plans:
            if plan.phase.kind.has_weights:
                assert (sum(p.footprint for p in plan.main_weight_reads)
                        == plan.phase.weight_words)

    def test_conv_feature_reads_in_region(self, cnn_design):
        memory_map = build_memory_map(cnn_design.graph,
                                      cnn_design.datapath.simd)
        plans = AddressFlowGenerator(cnn_design, memory_map).plans()
        for plan in plans:
            if plan.phase.layer != "conv1":
                continue
            base = memory_map.feature_base("data")
            layout = memory_map.feature_layout("data")
            for pattern in plan.main_feature_reads:
                assert pattern.start_address >= base
                assert pattern.max_address() < base + layout.total_elements

    def test_writes_target_output_region(self, cnn_design):
        memory_map = build_memory_map(cnn_design.graph,
                                      cnn_design.datapath.simd)
        plans = AddressFlowGenerator(cnn_design, memory_map).plans()
        for plan in plans:
            if plan.phase.layer != "conv1" or plan.phase.partial:
                continue
            base = memory_map.feature_base("conv1")
            layout = memory_map.feature_layout("conv1")
            for pattern in plan.main_writes:
                assert pattern.start_address >= base
                assert pattern.max_address() < base + layout.total_elements

    def test_partial_folds_do_not_write(self, mlp_design):
        memory_map = build_memory_map(mlp_design.graph,
                                      mlp_design.datapath.simd)
        plans = AddressFlowGenerator(mlp_design, memory_map).plans()
        for plan in plans:
            if plan.phase.partial:
                assert not plan.main_writes

    def test_events_unique(self, cnn_design):
        memory_map = build_memory_map(cnn_design.graph,
                                      cnn_design.datapath.simd)
        plans = AddressFlowGenerator(cnn_design, memory_map).plans()
        events = [plan.event for plan in plans]
        assert len(events) == len(set(events))

    def test_compress_stream_roundtrip(self):
        stream = dense_reference_stream(1000, 50, 4, 8, 10, 20)
        patterns = compress_stream(stream)
        assert expand_patterns(patterns) == stream
        assert len(patterns) == 1  # a dense block is one affine pattern

    def test_compress_empty_rejected(self):
        with pytest.raises(CompileError):
            compress_stream([])


class TestCoordinatorProgram:
    def test_one_state_per_phase(self, cnn_design):
        memory_map = build_memory_map(cnn_design.graph,
                                      cnn_design.datapath.simd)
        plans = AddressFlowGenerator(cnn_design, memory_map).plans()
        program = build_coordinator_program(cnn_design, plans)
        assert program.n_states == len(plans)

    def test_routes_use_existing_blocks(self, cnn_design):
        memory_map = build_memory_map(cnn_design.graph,
                                      cnn_design.datapath.simd)
        plans = AddressFlowGenerator(cnn_design, memory_map).plans()
        program = build_coordinator_program(cnn_design, plans)
        for state in program.states:
            for block in state.route:
                assert block in cnn_design.components

    def test_partial_folds_hold_accumulator(self, mlp_design):
        compiler = DeepBurningCompiler()
        program = compiler.compile(mlp_design)
        for state in program.coordinator.states:
            plan = program.plan_for(state.layer, state.phase_index)
            assert state.accumulate_hold == plan.phase.partial

    def test_pattern_indices_valid(self, cnn_design):
        memory_map = build_memory_map(cnn_design.graph,
                                      cnn_design.datapath.simd)
        plans = AddressFlowGenerator(cnn_design, memory_map).plans()
        program = build_coordinator_program(cnn_design, plans)
        for state in program.states:
            for idx in state.main_patterns:
                assert 0 <= idx < len(program.main_table)
            for idx in state.data_patterns:
                assert 0 <= idx < len(program.data_table)
            for idx in state.weight_patterns:
                assert 0 <= idx < len(program.weight_table)


class TestFullCompile:
    def test_compile_without_weights(self, mlp_design):
        program = DeepBurningCompiler().compile(mlp_design)
        assert program.dram_image is None
        assert program.coordinator.n_states == len(mlp_design.folding)
        assert "sigmoid" in program.luts

    def test_compile_with_weights_builds_image(self, mlp_design):
        weights = init_weights(mlp_design.graph, np.random.default_rng(0))
        program = DeepBurningCompiler().compile(mlp_design, weights=weights)
        assert program.dram_image is not None
        assert program.dram_image.size == program.memory_map.total_elements
        region = program.memory_map.weights("ip1")
        block = program.dram_image[region.base_address:
                                   region.base_address + region.weight_elements]
        assert np.any(block != 0)

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_dram_image_equals_linearized_reference(self, name):
        """Quantizing straight into the image slots gives the image that
        linearizing each layer (recurrent matrix appended per row) and
        quantizing the flat copy gives, on every zoo network."""
        artifacts = api.build(benchmark_graph(name))
        program = artifacts.program
        expected = np.zeros_like(program.dram_image)
        for spec in artifacts.graph.weighted_layers():
            entry = artifacts.weights[spec.name]
            region = program.memory_map.weights(spec.name)
            weight = np.asarray(entry["weight"], dtype=np.float64)
            if spec.kind is LayerKind.RECURRENT:
                weight = np.concatenate(
                    [weight.reshape(spec.num_output, -1),
                     entry["recurrent_weight"]], axis=1)
            flat = region.linearize(weight, entry.get("bias"))
            expected[region.base_address:
                     region.base_address + region.total_elements] = \
                quantize_to_ints(flat, program.weight_format)
        np.testing.assert_array_equal(program.dram_image, expected)

    def test_image_keeps_layout_size_errors(self, mlp_design):
        weights = init_weights(mlp_design.graph, np.random.default_rng(0))
        weights["ip1"]["bias"] = np.zeros(3)
        with pytest.raises(LayoutError, match="bias has 3 elements"):
            DeepBurningCompiler().compile(mlp_design, weights=weights)
        weights = init_weights(mlp_design.graph, np.random.default_rng(0))
        weights["ip1"]["weight"] = weights["ip1"]["weight"][:-1]
        with pytest.raises(LayoutError, match="weight tensor has"):
            DeepBurningCompiler().compile(mlp_design, weights=weights)

    def test_missing_weights_rejected(self, mlp_design):
        with pytest.raises(CompileError):
            DeepBurningCompiler().compile(mlp_design, weights={})

    def test_calibration_changes_formats(self, mlp_design):
        weights = init_weights(mlp_design.graph, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        inputs = [rng.uniform(-0.1, 0.1, 16) for _ in range(4)]
        program = DeepBurningCompiler().compile(
            mlp_design, weights=weights, calibration_inputs=inputs)
        # Small activations earn more fraction bits than the default Q7.8.
        assert program.blob_formats["data"].fraction_bits >= 8

    def test_relu_only_network_has_no_sigmoid_lut(self, cnn_design):
        program = DeepBurningCompiler().compile(cnn_design)
        # CNN uses ReLU + softmax; softmax maps through sigmoid LUT.
        assert set(program.luts) <= {"sigmoid", "tanh", "reciprocal_power"}

    def test_traffic_accounting(self, mlp_design):
        program = DeepBurningCompiler().compile(mlp_design)
        assert program.total_dram_traffic_words() > 0

    def test_summary_runs(self, mlp_design):
        program = DeepBurningCompiler().compile(mlp_design)
        assert "control program" in program.summary()

    def test_plan_lookup_missing(self, mlp_design):
        program = DeepBurningCompiler().compile(mlp_design)
        with pytest.raises(CompileError):
            program.plan_for("nope", 0)
