"""The compiler driver: design (+ weights) → control program."""

from __future__ import annotations

import numpy as np

from repro.compiler.address import AddressFlowGenerator
from repro.compiler.control import build_coordinator_program
from repro.compiler.lut import (
    build_lut,
    lut_range_for_activation,
    lut_size_for_format,
)
from repro.compiler.memmap import build_memory_map
from repro.compiler.program import ControlProgram
from repro.compiler.reduce import reduce_agus
from repro.errors import CompileError
from repro.fixedpoint.calibrate import calibrate_format
from repro.fixedpoint.ops import quantize_to_ints
from repro.frontend.layers import LayerKind
from repro.frontend.shapes import infer_shapes
from repro.nn.reference import ReferenceNetwork
from repro.nngen.design import AcceleratorDesign


class DeepBurningCompiler:
    """Generates control flow, data layout and LUT content for a design.

    The compile step optionally takes trained ``weights`` (the
    ``{layer: {"weight", "bias"}}`` form) and ``calibration_inputs``; with
    them it quantizes the weights into the DRAM image and calibrates a
    fixed-point format per blob from a float-mode forward pass, exactly
    the preprocessing the paper runs on the ARM core.
    """

    def __init__(self, lut_entries: int | None = None) -> None:
        self.lut_entries = lut_entries

    def compile(
        self,
        design: AcceleratorDesign,
        weights: dict[str, dict[str, np.ndarray]] | None = None,
        calibration_inputs: list[np.ndarray] | None = None,
    ) -> ControlProgram:
        graph = design.graph
        memory_map = build_memory_map(graph, design.datapath.simd)
        generator = AddressFlowGenerator(design, memory_map)
        plans = generator.plans()
        coordinator = build_coordinator_program(design, plans)
        # With the pattern tables fixed, reduce the template AGUs to the
        # fields and table depth the network actually exercises.
        reduce_agus(design, coordinator)

        blob_formats = self._calibrate_blobs(design, weights,
                                             calibration_inputs)
        weight_format = design.datapath.weight_format
        luts = self._build_luts(design, blob_formats)
        dram_image = None
        if weights is not None:
            dram_image = self._build_dram_image(design, memory_map, weights,
                                                weight_format)
        return ControlProgram(
            design=design,
            memory_map=memory_map,
            coordinator=coordinator,
            address_plans=plans,
            blob_formats=blob_formats,
            weight_format=weight_format,
            luts=luts,
            dram_image=dram_image,
        )

    # ------------------------------------------------------------------

    def _calibrate_blobs(self, design, weights, calibration_inputs):
        graph = design.graph
        shapes = design.shapes or infer_shapes(graph)
        default = design.datapath.data_format
        formats = {blob: default for blob in shapes}
        if weights is None or not calibration_inputs:
            return formats
        net = ReferenceNetwork(graph, weights)
        samples: dict[str, list[np.ndarray]] = {blob: [] for blob in shapes}
        for item in calibration_inputs:
            net.reset_state()
            blobs = net.forward(np.asarray(item, dtype=np.float64))
            for blob, value in blobs.items():
                samples[blob].append(np.ravel(value))
        total_bits = default.total_bits
        for blob, collected in samples.items():
            if collected:
                stacked = np.concatenate(collected)
                try:
                    formats[blob] = calibrate_format(
                        stacked, total_bits=total_bits, headroom=2.0)
                except Exception:
                    formats[blob] = default
        return formats

    def _build_luts(self, design, blob_formats):
        """One Approx LUT image per LUT-backed function in the design."""
        luts = {}
        activation = design.components.get("activation")
        functions = []
        if activation is not None:
            functions = [f for f in activation.functions
                         if f in ("sigmoid", "tanh")]
        if "lrn" in design.components:
            functions.append("reciprocal_power")
        data_format = design.datapath.data_format
        for function in functions:
            if function == "reciprocal_power":
                low, high = 0.0, float(data_format.max_value)
            else:
                low, high = lut_range_for_activation(function)
            entries = self.lut_entries or lut_size_for_format(
                data_format, low, high)
            if function == "reciprocal_power":
                # Guard the open end of the power kernel's domain.
                low = 0.0
            luts[function] = build_lut(function, low, high, entries,
                                       value_format=data_format)
        return luts

    def _build_dram_image(self, design, memory_map, weights, weight_format):
        """Quantize weights into the element-addressed DRAM image.

        Each layer's weights and bias are quantized straight into their
        slots of the image (a recurrent layer's state-feedback matrix
        into the trailing columns of each row), so no flattened float
        copy of the parameters is ever made.  Feature regions are
        zero-initialised; the host writes the input blob before launch
        (the simulator's job).
        """
        image = np.zeros(memory_map.total_elements, dtype=np.int64)
        for spec in design.graph.weighted_layers():
            if spec.name not in weights:
                raise CompileError(
                    f"no trained weights supplied for layer '{spec.name}'"
                )
            entry = weights[spec.name]
            region = memory_map.weights(spec.name)
            rows, bias_slot = region.views(image)
            weight = np.asarray(entry["weight"], dtype=np.float64)
            bias = entry.get("bias")
            if spec.kind is LayerKind.RECURRENT:
                weight = weight.reshape(spec.num_output, -1)
                recurrent = np.asarray(entry["recurrent_weight"],
                                       dtype=np.float64)
                region.check_sizes(weight.size + recurrent.size, bias)
                split = weight.shape[1]
                quantize_to_ints(weight, weight_format, out=rows[:, :split])
                quantize_to_ints(recurrent, weight_format,
                                 out=rows[:, split:])
            else:
                region.check_sizes(weight.size, bias)
                quantize_to_ints(weight.reshape(rows.shape), weight_format,
                                 out=rows)
            if bias_slot is not None and bias is not None:
                quantize_to_ints(np.ravel(bias), weight_format,
                                 out=bias_slot)
        return image
