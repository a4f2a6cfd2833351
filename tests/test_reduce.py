"""Tests for AGU template reduction."""

import pytest

from repro import api
from repro.compiler import DeepBurningCompiler
from repro.compiler.patterns import AccessPattern
from repro.compiler.reduce import fields_for_patterns, reduce_agus
from repro.devices import Z7020, Z7045, budget_fraction
from repro.errors import CompileError
from repro.frontend.graph import graph_from_text
from repro.nngen import NNGen
from repro.pipeline import BuildPipeline
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
layers { name: "ip1" type: INNER_PRODUCT bottom: "conv1" top: "ip1" param { num_output: 10 } }
"""


class TestFieldsForPatterns:
    def test_simple_sweep_minimal_fields(self):
        pattern = AccessPattern(start_address=0, x_length=64)
        fields = fields_for_patterns([pattern])
        assert "stride" not in fields
        assert "y_length" not in fields
        assert "start_address" in fields

    def test_grid_needs_outer_fields(self):
        pattern = AccessPattern(start_address=0, x_length=8, y_length=4,
                                offset=100)
        fields = fields_for_patterns([pattern])
        assert "y_length" in fields
        assert "offset" in fields

    def test_union_over_patterns(self):
        simple = AccessPattern(start_address=0, x_length=8)
        strided = AccessPattern(start_address=0, x_length=8, stride=2)
        fields = fields_for_patterns([simple, strided])
        assert "stride" in fields

    def test_empty_pattern_list_gets_start(self):
        assert fields_for_patterns([]) == ("start_address",)

    def test_field_order_stable(self):
        from repro.components.agu import TEMPLATE_FIELDS
        pattern = AccessPattern(start_address=0, x_length=8, stride=2,
                                y_length=4, offset=64)
        fields = fields_for_patterns([pattern])
        assert list(fields) == sorted(fields, key=TEMPLATE_FIELDS.index)


class TestReduceInCompile:
    def test_compile_reduces_agus(self):
        graph = graph_from_text(MLP_TEXT)
        design = NNGen().generate(graph, budget_fraction(Z7020, 0.3))
        template_patterns = design.component("agu_main").n_patterns
        program = DeepBurningCompiler().compile(design)
        reduced = design.component("agu_main")
        # The dense MLP's main flows are a handful of distinct shapes.
        assert reduced.n_patterns <= len(program.coordinator.main_table)
        assert set(reduced.fields) <= {
            "start_address", "footprint", "x_length", "stride",
            "y_length", "offset"}

    def test_reduction_never_grows_cost(self):
        graph = graph_from_text(CNN_TEXT)
        design = NNGen().generate(graph, budget_fraction(Z7045, 0.3))
        before = design.component("agu_data").resource_cost()
        DeepBurningCompiler().compile(design)
        after = design.component("agu_data").resource_cost()
        assert after.lut <= before.lut
        assert after.ff <= before.ff

    def test_reduced_design_still_fits_budget(self):
        graph = graph_from_text(CNN_TEXT)
        budget = budget_fraction(Z7045, 0.3)
        design = NNGen().generate(graph, budget)
        DeepBurningCompiler().compile(design)
        assert design.resource_report().fits_in(budget.limit)

    def test_data_agu_keeps_needed_fields(self):
        graph = graph_from_text(MLP_TEXT)
        design = NNGen().generate(graph, budget_fraction(Z7020, 0.3))
        program = DeepBurningCompiler().compile(design)
        data_agu = design.component("agu_data")
        # The dense data flow replays the input per wave: needs y/offset.
        needed = fields_for_patterns(program.coordinator.data_table)
        assert set(data_agu.fields) == set(needed)

    def test_reduce_missing_agu_rejected(self):
        graph = graph_from_text(MLP_TEXT)
        design = NNGen().generate(graph, budget_fraction(Z7020, 0.3))
        program = DeepBurningCompiler().compile(design)
        del design.components["agu_main"]
        with pytest.raises(CompileError):
            reduce_agus(design, program.coordinator)

    def test_pattern_table_deduplicates_shapes(self):
        graph = graph_from_text(MLP_TEXT)
        design = NNGen().generate(graph, budget_fraction(Z7020, 0.3))
        program = DeepBurningCompiler().compile(design)
        weight_agu = design.component("agu_weight")
        # Folds of one layer share a pattern shape, so the hardware table
        # is no deeper than the number of distinct shapes.
        shapes, _ = _quadratic_reduction(program.coordinator.weight_table)
        assert weight_agu.n_patterns == shapes


def _quadratic_reduction(table):
    """The reference reduction: pairwise shape comparison over the table,
    fields unioned over every pattern."""
    if not table:
        table = [AccessPattern(start_address=0, x_length=1)]
    shapes = []
    for pattern in table:
        if not any(pattern.same_shape(s) for s in shapes):
            shapes.append(pattern)
    return len(shapes), fields_for_patterns(list(table))


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_reduction_matches_quadratic_oracle_on_zoo(name):
    artifacts = api.build(benchmark_graph(name), weights=None,
                          pipeline=BuildPipeline())
    coordinator = artifacts.program.coordinator
    tables = {"agu_main": coordinator.main_table,
              "agu_data": coordinator.data_table,
              "agu_weight": coordinator.weight_table}
    for instance, table in tables.items():
        agu = artifacts.design.component(instance)
        assert (agu.n_patterns, agu.fields) == _quadratic_reduction(table)
