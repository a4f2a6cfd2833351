"""The NN-Gen generator: script + constraint → accelerator design."""

from __future__ import annotations

from typing import Callable

from repro.components.library import ComponentLibrary, blocks_for_layer, \
    default_library
from repro.devices.device import ResourceBudget
from repro.errors import ResourceError, UnsupportedLayerError
from repro.fixedpoint.format import (
    DEFAULT_DATA_FORMAT,
    DEFAULT_WEIGHT_FORMAT,
    QFormat,
)
from repro.frontend.graph import NetworkGraph
from repro.frontend.layers import LayerKind
from repro.frontend.shapes import infer_shapes, weight_shape
from repro.nngen.allocate import (
    CandidateTable,
    NetworkNeeds,
    buffer_components,
    choose_datapath,
    control_components,
    functional_components,
)
from repro.nngen.design import AcceleratorDesign, DatapathConfig, FoldingPlan
from repro.nngen.folding import build_folding_plan


class NNGen:
    """The DeepBurning hardware generator (paper Fig. 3).

    Typical use::

        design = NNGen().generate(graph, budget)

    The returned design carries the configured component instances and
    the folding plan; pass it to
    :class:`~repro.compiler.compiler.DeepBurningCompiler` for the control
    program, and to :mod:`repro.rtl.emit` for Verilog.
    """

    def __init__(self, library: ComponentLibrary | None = None) -> None:
        self.library = library or default_library()

    def generate(
        self,
        graph: NetworkGraph,
        budget: ResourceBudget,
        data_format: QFormat = DEFAULT_DATA_FORMAT,
        weight_format: QFormat = DEFAULT_WEIGHT_FORMAT,
        max_lanes: int = 0,
        max_simd: int = 0,
        fold_capacity_scale: float = 1.0,
    ) -> AcceleratorDesign:
        """Generate an accelerator for ``graph`` within ``budget``.

        ``max_lanes`` / ``max_simd`` (0 = unbounded) cap the datapath
        search below what the budget would allow — the design-space
        explorer uses them to walk the narrow side of the frontier.
        ``fold_capacity_scale`` in (0, 1] shrinks the buffer capacity the
        folding planner may use, forcing deeper folding than the physical
        buffers require (a fold-depth knob for the explorer; the real
        buffers are unchanged, so the working sets still fit).

        Composition of the staged entry points the memoizing build
        pipeline (:mod:`repro.pipeline`) calls individually:
        :meth:`validate_knobs` → :meth:`datapath` → :meth:`apply_caps`
        → :meth:`realise_design`.
        """
        self.validate_knobs(max_lanes=max_lanes, max_simd=max_simd,
                            fold_capacity_scale=fold_capacity_scale)
        config = self.datapath(graph, budget, data_format=data_format,
                               weight_format=weight_format)
        config = self.apply_caps(config, max_lanes, max_simd)
        return self.realise_design(graph, budget, config,
                                   fold_capacity_scale)

    @staticmethod
    def validate_knobs(max_lanes: int = 0, max_simd: int = 0,
                       fold_capacity_scale: float = 1.0) -> None:
        """Reject out-of-range explorer knobs before any stage runs."""
        if not 0.0 < fold_capacity_scale <= 1.0:
            raise ResourceError(
                f"fold_capacity_scale {fold_capacity_scale} must be in (0, 1]"
            )
        if max_lanes < 0 or max_simd < 0:
            raise ResourceError(
                f"datapath caps must be non-negative, got "
                f"max_lanes={max_lanes} max_simd={max_simd}"
            )

    def datapath(self, graph: NetworkGraph, budget: ResourceBudget,
                 data_format: QFormat = DEFAULT_DATA_FORMAT,
                 weight_format: QFormat = DEFAULT_WEIGHT_FORMAT,
                 candidates: Callable[[], CandidateTable] | None = None,
                 ) -> DatapathConfig:
        """Validate the graph and choose the budget-driven datapath.

        Pure function of (graph, budget, formats) — the pipeline
        memoizes it so a cap sweep pays the datapath search once.
        ``candidates`` supplies the budget-independent
        :func:`~repro.nngen.allocate.datapath_candidates` table, called
        once the graph has validated; the pipeline passes its per-network
        memo so a budget sweep prices the candidates once.
        """
        graph.validate()
        self._check_layer_support(graph)
        feature_demand, weight_demand = self._demands(graph, data_format,
                                                      weight_format)
        return choose_datapath(
            graph, budget, data_format, weight_format,
            feature_demand_bits=feature_demand,
            weight_demand_bits=weight_demand,
            candidates=candidates() if candidates is not None else None,
        )

    def realise_design(self, graph: NetworkGraph, budget: ResourceBudget,
                       config: DatapathConfig,
                       fold_capacity_scale: float = 1.0,
                       ) -> AcceleratorDesign:
        """Realise a design for an (already capped) datapath choice.

        The datapath search estimates control cost from a nominal plan
        size; once the real folding plan exists, control may grow.  If
        the realised design overflows the budget, back the datapath off
        and re-fold until it fits.
        """
        shapes = infer_shapes(graph)
        feature_demand, weight_demand = self._demands(
            graph, config.data_format, config.weight_format)
        needs = NetworkNeeds.of(graph)
        while True:
            design = self._realise(graph, budget, config, needs, shapes,
                                   feature_demand, weight_demand,
                                   fold_capacity_scale)
            used = design.resource_report()
            if used.fits_in(budget.limit):
                return design
            if config.lanes > 1:
                config = DatapathConfig(
                    lanes=config.lanes // 2, simd=config.simd,
                    data_format=config.data_format,
                    weight_format=config.weight_format,
                    accumulator_width=config.accumulator_width,
                )
            elif config.simd > 1:
                config = DatapathConfig(
                    lanes=1, simd=config.simd // 2,
                    data_format=config.data_format,
                    weight_format=config.weight_format,
                    accumulator_width=config.accumulator_width,
                )
            else:
                raise ResourceError(
                    f"budget {budget.label} cannot fit the minimal design "
                    f"for '{graph.name}' (needs {used}, has {budget.limit})"
                )

    @staticmethod
    def apply_caps(config: DatapathConfig, max_lanes: int,
                   max_simd: int) -> DatapathConfig:
        lanes = min(config.lanes, max_lanes) if max_lanes else config.lanes
        simd = min(config.simd, max_simd) if max_simd else config.simd
        if lanes == config.lanes and simd == config.simd:
            return config
        return DatapathConfig(
            lanes=lanes, simd=simd,
            data_format=config.data_format,
            weight_format=config.weight_format,
            accumulator_width=config.accumulator_width,
        )

    def _realise(self, graph, budget, config, needs, shapes,
                 feature_demand, weight_demand,
                 fold_capacity_scale: float = 1.0) -> AcceleratorDesign:
        components = dict(functional_components(config, needs))
        buffers = buffer_components(config, budget, feature_demand,
                                    weight_demand)
        components.update(buffers)

        feature_buffer = buffers["feature_buffer"]
        weight_buffer = buffers["weight_buffer"]
        feature_capacity = (
            feature_buffer.depth_words * feature_buffer.word_bits
            // config.data_width
        )
        weight_capacity = (
            weight_buffer.depth_words * weight_buffer.word_bits
            // config.weight_width
        )
        feature_capacity = max(1, int(feature_capacity
                                      * fold_capacity_scale))
        weight_capacity = max(1, int(weight_capacity * fold_capacity_scale))
        folding = build_folding_plan(graph, config, feature_capacity,
                                     weight_capacity)

        # Control scales with the number of layer templates, not folds:
        # folds of one layer share a coordinator state parameterised by
        # the fold counter, exactly as AGU patterns are re-based per fold.
        layer_templates = len({phase.layer for phase in folding})
        components.update(control_components(
            config, n_phases=max(2, 2 * layer_templates),
            n_patterns=self._pattern_estimate(folding),
        ))

        return AcceleratorDesign(
            graph=graph,
            budget=budget,
            datapath=config,
            components=components,
            folding=folding,
            shapes=shapes,
        )

    def generate_from_text(self, script: str, budget: ResourceBudget,
                           **formats) -> AcceleratorDesign:
        """Deprecated: load the graph via :func:`repro.frontend.load`.

        Kept for one release; prefer
        ``NNGen().generate(repro.frontend.load(script), budget)``.
        """
        import warnings

        from repro.frontend import load

        warnings.warn(
            "NNGen.generate_from_text() is deprecated; use "
            "NNGen.generate(repro.frontend.load(script), budget)",
            DeprecationWarning,
            stacklevel=2,
        )
        return self.generate(load(script), budget, **formats)

    # ------------------------------------------------------------------

    def _check_layer_support(self, graph: NetworkGraph) -> None:
        for spec in graph.layers:
            blocks = blocks_for_layer(spec.kind)
            missing = [cls.MODULE for cls in blocks
                       if cls.MODULE not in self.library.blocks]
            if missing:
                raise UnsupportedLayerError(
                    f"layer '{spec.name}' ({spec.kind.value}) needs library "
                    f"blocks {missing} that are not registered"
                )

    @staticmethod
    def _demands(graph: NetworkGraph, data_format: QFormat,
                 weight_format: QFormat) -> tuple[int, int]:
        """Peak feature and weight working-set sizes, in bits."""
        shapes = infer_shapes(graph)
        feature_peak = 0
        weight_peak = 0
        for spec in graph.layers:
            live = 0
            for blob in (*spec.bottoms, *spec.tops):
                live += shapes[blob].size
            feature_peak = max(feature_peak, live)
            if spec.kind.has_weights and spec.bottoms:
                wshape = weight_shape(spec, shapes[spec.bottoms[0]])
                count = 1
                for dim in wshape:
                    count *= dim
                weight_peak = max(weight_peak, count)
        if feature_peak == 0:
            raise ResourceError("network moves no feature data")
        return (feature_peak * data_format.total_bits,
                max(1, weight_peak) * weight_format.total_bits)

    @staticmethod
    def _pattern_estimate(folding: FoldingPlan) -> int:
        """Distinct AGU patterns: one trio per layer kind/fold geometry.

        Folds of one layer share a pattern parameterised by start address,
        so the pattern count scales with layers, not folds.
        """
        distinct = {
            (phase.layer, phase.kind) for phase in folding
        }
        weighted = sum(
            3 if kind in (LayerKind.CONVOLUTION,
                          LayerKind.DEPTHWISE_CONVOLUTION,
                          LayerKind.INNER_PRODUCT,
                          LayerKind.RECURRENT, LayerKind.ASSOCIATIVE)
            else 2
            for _, kind in distinct
        )
        return max(1, weighted)
