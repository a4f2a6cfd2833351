"""Fixed-point range analysis (pass "ranges").

Propagates worst-case raw-integer intervals through every layer of the
compiled network — no input data, no simulation.  Input blobs start at
the full range of their calibrated ``QFormat``; each layer maps the
interval exactly the way :class:`~repro.sim.quantized.QuantizedExecutor`
maps values (wide-accumulator MACs, shift-round-saturate requantization,
LUT clamping, recurrent feedback through the clipped state register).

The pass proves per layer that the declared accumulator register cannot
wrap, or reports the exact bit deficit when worst-case partial sums
exceed it:

* ``range.accumulator-overflow`` (ERROR) — one single product term
  already exceeds the declared accumulator width, so every MAC corrupts;
* ``range.model-wrap`` (ERROR) — the worst-case sum exceeds the 64-bit
  host accumulator of the functional model itself;
* ``range.accumulator-saturation`` (WARNING) — the worst-case sum needs
  more bits than the declared register (reported with the deficit);
* ``range.output-saturation`` (WARNING) — requantizing the accumulator
  to the output blob format may clip;
* ``range.lut-domain`` (WARNING) — a LUT input interval exceeds the
  sampled domain, so lookups clamp;
* ``range.accumulator-proof`` (INFO) — the no-wrap proof for a layer.

When the caller supplies weights the per-row worst case uses the actual
quantized values (``sum(w>0)*hi + sum(w<0)*lo``), read straight out of
the program's DRAM image when it carries one; otherwise the bound falls
back to the weight format's extreme magnitude on every term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.report import Finding, Severity
from repro.compiler.lut import lut_range_for_activation
from repro.compiler.program import ControlProgram
from repro.fixedpoint.format import QFormat
from repro.fixedpoint.ops import accumulator_format, quantize_to_ints
from repro.frontend.layers import LayerKind, LayerSpec, PoolMethod
from repro.frontend.shapes import weight_shape

#: Worst-case sums at or beyond this magnitude can wrap the functional
#: model's 64-bit host accumulator (one guard bit under ``2**63``).
INT64_SAFE_LIMIT = 1 << 62


@dataclass(frozen=True)
class Interval:
    """A closed raw-integer interval in some fixed-point format."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def max_abs(self) -> int:
        return max(abs(self.lo), abs(self.hi))

    def union(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def clip(self, fmt: QFormat) -> "Interval":
        return Interval(
            min(max(self.lo, fmt.min_int), fmt.max_int),
            min(max(self.hi, fmt.min_int), fmt.max_int),
        )

    @staticmethod
    def full(fmt: QFormat) -> "Interval":
        return Interval(fmt.min_int, fmt.max_int)


def _shift_bound(value: int, shift: int) -> int:
    """One endpoint through the connection box's shifting latch."""
    if shift > 0:
        return (value + (1 << (shift - 1))) >> shift
    if shift < 0:
        return value << -shift
    return value


def requantize_interval(interval: Interval, src: QFormat,
                        dst: QFormat) -> tuple[Interval, bool]:
    """Map an interval through ``requantize`` (monotonic, so endpoints
    suffice).  Returns the clipped interval and whether clipping was
    possible anywhere inside it."""
    shift = src.fraction_bits - dst.fraction_bits
    lo = _shift_bound(interval.lo, shift)
    hi = _shift_bound(interval.hi, shift)
    clips = lo < dst.min_int or hi > dst.max_int
    return Interval(lo, hi).clip(dst), clips


def _real_interval(interval: Interval, fmt: QFormat) -> tuple[float, float]:
    return interval.lo * fmt.scale, interval.hi * fmt.scale


def _quantized_real(lo: float, hi: float, fmt: QFormat) -> Interval:
    return Interval(math.floor(lo / fmt.scale),
                    math.ceil(hi / fmt.scale)).clip(fmt)


@dataclass(frozen=True)
class MacBound:
    """Worst-case accumulator interval of one MAC array."""

    acc: Interval
    #: Largest magnitude of one single product term.
    single_term: int
    terms: int
    exact: bool  # True when derived from the actual quantized weights


def _mac_bound(weight_raw: np.ndarray | None, rows: int, terms: int,
               bias_raw: np.ndarray | None, bias_shift: int,
               inputs: Interval, weight_fmt: QFormat, *,
               assume_bias: bool = True) -> MacBound:
    lo, hi = inputs.lo, inputs.hi
    max_abs_x = inputs.max_abs
    if weight_raw is not None and weight_raw.size:
        matrix = np.asarray(weight_raw, dtype=np.int64).reshape(rows, -1)
        terms = matrix.shape[1]
        pos = np.sum(np.maximum(matrix, 0), axis=1)
        neg = np.sum(np.minimum(matrix, 0), axis=1)
        acc_lo = min(int(p) * lo + int(n) * hi for p, n in zip(pos, neg))
        acc_hi = max(int(p) * hi + int(n) * lo for p, n in zip(pos, neg))
        single = int(np.max(np.abs(matrix))) * max_abs_x
        exact = True
    else:
        # No weights: every term at the weight format's extreme magnitude.
        max_abs_w = weight_fmt.max_int + 1  # covers min_int
        acc_hi = terms * max_abs_w * max_abs_x
        acc_lo = -acc_hi
        single = max_abs_w * max_abs_x
        exact = False
    if bias_raw is not None and bias_raw.size:
        acc_lo += int(np.min(bias_raw)) << bias_shift
        acc_hi += int(np.max(bias_raw)) << bias_shift
    elif not exact and assume_bias:
        worst_bias = (weight_fmt.max_int + 1) << bias_shift
        acc_lo -= worst_bias
        acc_hi += worst_bias
    return MacBound(Interval(acc_lo, acc_hi), single, terms, exact)


def _signed_bits(magnitude: int) -> int:
    """Bits needed to hold ``±magnitude`` in two's complement."""
    return max(2, magnitude.bit_length() + 1)


class _RangePass:
    def __init__(self, program: ControlProgram,
                 weights: dict[str, dict[str, np.ndarray]] | None) -> None:
        self.program = program
        design = program.design
        self.graph = design.graph
        self.shapes = design.shapes
        self.blob_formats = program.blob_formats
        self.weight_format = (program.weight_format
                              or design.datapath.weight_format)
        self.declared_width = design.datapath.accumulator_width
        self.findings: list[Finding] = []
        self.intervals: dict[str, Interval] = {}
        self._weights: dict[str, dict[str, np.ndarray]] = {}
        for spec in self.graph.weighted_layers():
            entry = (weights or {}).get(spec.name)
            if not entry:
                continue
            stored = self._stored(spec)
            self._weights[spec.name] = {
                key: stored[key] if key in stored
                else quantize_to_ints(values, self.weight_format)
                for key, values in entry.items()
            }

    def _stored(self, spec: LayerSpec) -> dict[str, np.ndarray]:
        """``spec``'s quantized parameters as views of the program's
        DRAM image, which the compiler filled with exactly these
        weights in this format (empty without an image)."""
        image = self.program.dram_image
        if image is None:
            return {}
        region = self.program.memory_map.weights(spec.name)
        rows, bias = region.views(image)
        stored = {"weight": rows}
        if spec.kind is LayerKind.RECURRENT:
            split = region.depth - spec.num_output
            stored = {"weight": rows[:, :split],
                      "recurrent_weight": rows[:, split:]}
        if bias is not None:
            stored["bias"] = bias
        return stored

    # -- helpers --------------------------------------------------------

    def _fmt(self, blob: str) -> QFormat:
        return self.blob_formats.get(
            blob, self.program.design.datapath.data_format)

    def _interval(self, blob: str) -> Interval:
        if blob not in self.intervals:
            # Unseen blob (graph input or unmodeled producer): assume the
            # full format range, which is always sound.
            self.intervals[blob] = Interval.full(self._fmt(blob))
        return self.intervals[blob]

    def _emit(self, rule: str, severity: Severity, where: str,
              message: str, **details: object) -> None:
        self.findings.append(Finding(rule=rule, severity=severity,
                                     where=where, message=message,
                                     details=details))

    # -- accumulator verdicts -------------------------------------------

    def _check_accumulator(self, spec: LayerSpec, bound: MacBound,
                           array: str) -> None:
        where = f"{spec.name}/{array}" if array != "weight" else spec.name
        worst = bound.acc.max_abs
        single_bits = _signed_bits(bound.single_term)
        sum_bits = _signed_bits(worst)
        basis = "actual quantized weights" if bound.exact \
            else "weight format bound"
        if single_bits > self.declared_width:
            self._emit(
                "range.accumulator-overflow", Severity.ERROR, where,
                f"a single product term needs {single_bits} bits but the "
                f"accumulator is {self.declared_width} bits wide — every "
                f"MAC wraps ({basis})",
                single_term_bits=single_bits,
                accumulator_width=self.declared_width,
            )
            return
        if worst >= INT64_SAFE_LIMIT:
            self._emit(
                "range.model-wrap", Severity.ERROR, where,
                f"worst-case partial sum needs {sum_bits} bits and can "
                f"wrap the 64-bit functional-model accumulator ({basis})",
                sum_bits=sum_bits, terms=bound.terms,
            )
            return
        if sum_bits > self.declared_width:
            self._emit(
                "range.accumulator-saturation", Severity.WARNING, where,
                f"worst-case sum over {bound.terms} terms needs {sum_bits} "
                f"bits, {sum_bits - self.declared_width} more than the "
                f"{self.declared_width}-bit accumulator ({basis})",
                sum_bits=sum_bits, bit_deficit=sum_bits - self.declared_width,
                terms=bound.terms,
            )
        else:
            self._emit(
                "range.accumulator-proof", Severity.INFO, where,
                f"worst-case sum over {bound.terms} terms fits in "
                f"{sum_bits} of the {self.declared_width} accumulator "
                f"bits ({basis})",
                sum_bits=sum_bits, terms=bound.terms,
            )

    def _check_lut_domain(self, spec: LayerSpec, function: str,
                          lo: float, hi: float) -> None:
        lut = self.program.luts.get(function)
        if lut is not None:
            low, high = lut.input_low, lut.input_high
        elif function == "reciprocal_power":
            low, high = 0.0, float(self._fmt(spec.bottoms[0]).max_value)
        else:
            low, high = lut_range_for_activation(function)
        if lo < low or hi > high:
            self._emit(
                "range.lut-domain", Severity.WARNING, spec.name,
                f"{function} input interval [{lo:.4g}, {hi:.4g}] exceeds "
                f"the sampled LUT domain [{low:.4g}, {high:.4g}]; "
                "out-of-domain lookups clamp",
                interval=[lo, hi], domain=[low, high], function=function,
            )

    # -- per-layer transfer functions -----------------------------------

    def _mac_output(self, spec: LayerSpec, bound: MacBound,
                    in_fmt: QFormat, out_fmt: QFormat) -> Interval:
        acc_fmt = accumulator_format(in_fmt, self.weight_format)
        out, clips = requantize_interval(bound.acc, acc_fmt, out_fmt)
        if clips:
            self._emit(
                "range.output-saturation", Severity.WARNING, spec.name,
                f"requantizing the accumulator to {out_fmt} can clip "
                "(worst-case interval exceeds the output format)",
                out_format=str(out_fmt),
            )
        return out

    def _dense_bound(self, spec: LayerSpec, array: str,
                     inputs: Interval) -> MacBound:
        params = self._weights.get(spec.name, {})
        weight = params.get(array)
        bias = params.get("bias") if array == "weight" else None
        out_size = self.shapes[spec.tops[0]].size if spec.tops \
            and spec.tops[0] in self.shapes else spec.num_output
        if array == "recurrent_weight":
            rows = terms = out_size or spec.num_output
            in_fmt = self._fmt(spec.tops[0])
            assume_bias = False
        else:
            in_fmt = self._fmt(spec.bottoms[0])
            assume_bias = spec.bias
            if weight is not None:
                rows = spec.num_output if spec.kind.is_convolution \
                    else out_size
                rows = rows or weight.shape[0]
                terms = 0
            else:
                shape = weight_shape(spec, self.shapes[spec.bottoms[0]])
                rows = shape[0]
                terms = int(np.prod(shape[1:]))
        acc_fmt = accumulator_format(in_fmt, self.weight_format)
        bias_shift = acc_fmt.fraction_bits - self.weight_format.fraction_bits
        return _mac_bound(weight, rows, terms, bias, bias_shift,
                          inputs, self.weight_format,
                          assume_bias=assume_bias)

    def _visit(self, spec: LayerSpec) -> None:
        kind = spec.kind
        if kind is LayerKind.DATA:
            for top in spec.tops:
                self.intervals[top] = Interval.full(self._fmt(top))
            return
        if not spec.tops:
            return
        out_fmt = self._fmt(spec.tops[0])
        in_blob = spec.bottoms[0] if spec.bottoms else spec.tops[0]
        in_fmt = self._fmt(in_blob)
        inputs = self._interval(in_blob)

        if kind.is_convolution or kind in (LayerKind.INNER_PRODUCT,
                                           LayerKind.ASSOCIATIVE):
            bound = self._dense_bound(spec, "weight", inputs)
            self._check_accumulator(spec, bound, "weight")
            out = self._mac_output(spec, bound, in_fmt, out_fmt)
        elif kind is LayerKind.RECURRENT:
            bound = self._dense_bound(spec, "weight", inputs)
            self._check_accumulator(spec, bound, "weight")
            # The state register is clipped to the output format every
            # step, so the full output range is a sound fixpoint for
            # the feedback path.
            feedback = self._dense_bound(spec, "recurrent_weight",
                                         Interval.full(out_fmt))
            self._check_accumulator(spec, feedback, "recurrent_weight")
            # drive + feedback are both requantized before the clipped
            # elementwise add, so the stored state spans the format.
            out = Interval.full(out_fmt)
        elif kind is LayerKind.POOLING:
            out, clips = requantize_interval(inputs, in_fmt, out_fmt)
            if spec.pool_method is PoolMethod.MAX and inputs.lo >= 0:
                out = Interval(max(out.lo, 0), max(out.hi, 0))
            if clips:
                self._emit(
                    "range.output-saturation", Severity.WARNING, spec.name,
                    f"pooled interval exceeds {out_fmt}; requantization "
                    "can clip", out_format=str(out_fmt))
        elif kind is LayerKind.RELU:
            positive = Interval(max(inputs.lo, 0), max(inputs.hi, 0))
            out, _ = requantize_interval(positive, in_fmt, out_fmt)
        elif kind in (LayerKind.SIGMOID, LayerKind.TANH):
            function = "sigmoid" if kind is LayerKind.SIGMOID else "tanh"
            lo, hi = _real_interval(inputs, in_fmt)
            self._check_lut_domain(spec, function, lo, hi)
            out = _quantized_real(0.0 if function == "sigmoid" else -1.0,
                                  1.0, out_fmt)
        elif kind is LayerKind.LRN:
            lo, hi = _real_interval(inputs, in_fmt)
            peak = max(abs(lo), abs(hi))
            self._check_lut_domain(spec, "reciprocal_power",
                                   0.0, spec.alpha * peak * peak)
            # y = x * scale with scale in (0, 1]: |y| <= |x|.
            out = _quantized_real(min(lo, 0.0), max(hi, 0.0), out_fmt)
        elif kind is LayerKind.DROPOUT:
            out, _ = requantize_interval(inputs, in_fmt, out_fmt)
        elif kind is LayerKind.SOFTMAX:
            out = _quantized_real(0.0, 1.0, out_fmt)
        elif kind is LayerKind.CLASSIFIER:
            size = self.shapes[in_blob].size if in_blob in self.shapes else 1
            out = Interval(0, max(0, size - 1))
        elif kind is LayerKind.ELTWISE:
            # Mirrors the executor exactly: each input is requantized to
            # the output format, then summed with saturation after every
            # addition, so endpoint arithmetic with per-step clipping is
            # the precise interval image.
            total: Interval | None = None
            clipped = False
            for blob in spec.bottoms:
                piece, clips = requantize_interval(
                    self._interval(blob), self._fmt(blob), out_fmt)
                clipped = clipped or clips
                if total is None:
                    total = piece
                else:
                    summed = Interval(total.lo + piece.lo,
                                      total.hi + piece.hi)
                    clipped = clipped or summed.lo < out_fmt.min_int \
                        or summed.hi > out_fmt.max_int
                    total = summed.clip(out_fmt)
            out = total if total is not None else Interval.full(out_fmt)
            if clipped:
                self._emit(
                    "range.output-saturation", Severity.WARNING, spec.name,
                    f"elementwise sum can saturate at {out_fmt} "
                    "(worst-case branch intervals exceed the output format)",
                    out_format=str(out_fmt))
        elif kind is LayerKind.CONCAT:
            merged: Interval | None = None
            for blob in spec.bottoms:
                piece, _ = requantize_interval(
                    self._interval(blob), self._fmt(blob), out_fmt)
                merged = piece if merged is None else merged.union(piece)
            out = merged if merged is not None else Interval.full(out_fmt)
        else:
            out = Interval.full(out_fmt)

        for top in spec.tops:
            self.intervals[top] = out

    def run(self) -> list[Finding]:
        for spec in self.graph.topological_order():
            self._visit(spec)
        return self.findings


def analyze_ranges(
    program: ControlProgram,
    weights: dict[str, dict[str, np.ndarray]] | None = None,
) -> list[Finding]:
    """Run the fixed-point range pass over one compiled program."""
    return _RangePass(program, weights).run()
