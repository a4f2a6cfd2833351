"""Per-design execution plan: the batched bit-level hot path.

A :class:`ExecutionPlan` is everything about one compiled design that a
forward propagation needs but that does not depend on the input: packed
``(Dout, Cin*k*k)`` int64 weight matrices, precomputed im2col
gather-index tensors per convolution layer, pre-resolved wide
accumulator formats with the bias already shifted into them, and the
shared Approx-LUT contents.  It is built once per
:class:`~repro.sim.quantized.QuantizedExecutor` (so once per serving
session) and replayed for every request.

:meth:`ExecutionPlan.forward_batch_raw` vectorizes every layer kernel
over a leading batch axis ``N``: a micro-batch of requests costs one
fancy-index plus one GEMM per convolution instead of ``N`` of each.  The
arithmetic is integer-exact against the per-sample reference path in
:mod:`repro.sim.quantized` — every blob it produces equals the
corresponding :meth:`~repro.sim.quantized.QuantizedExecutor.forward_raw`
blob with a leading batch dimension, which the test suite asserts
network by network.

On top of the per-layer kernels sits a graph-level plan optimizer
(``optimize="fused"``, the default) mirroring how NN-Gen folds layer
groups onto one datapath so data streams through conv→activation→pool
without round-tripping to memory:

* **Epilogue fusion** — each requantize / activation / dropout /
  pooling / LRN step with a single producer whose output nobody else
  reads is chained onto that producer into one :class:`PlanNode`;
  same-shape epilogues then run in place on the producer's buffer, so
  the intermediate value is never materialized as its own allocation.
* **Liveness-based buffer arena** — every value's last-use level is
  precomputed at build time and all step outputs and GEMM/im2col
  scratch are served from a size-classed recycling
  :class:`BufferArena`, replacing the per-flush ``np.empty`` / gather
  allocations of the naive plan.  The arena's high-water mark is
  reported through :meth:`ExecutionPlan.stats`.
* **Level schedule** — nodes are topologically levelled and run level
  by level, one node after another; the levels drive arena release.
  Concurrency comes from the serving workers, each flushing its own
  batch through the shared plan, not from threads inside one flush.

``optimize="naive"`` keeps one node per step, sequential order, and the
original allocate-per-step kernels — the exact pre-optimizer behavior,
kept as the benchmark baseline and the bit-exactness oracle.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, cast

import numpy as np
import numpy.typing as npt

from repro.compiler.lut import ApproxLUTContent
from repro.errors import SimulationError
from repro.fixedpoint.format import QFormat
from repro.fixedpoint.ops import (
    accumulator_format,
    dequantize,
    quantize_to_ints,
    requantize,
)
from repro.frontend.graph import NetworkGraph
from repro.frontend.layers import LayerKind, LayerSpec, PoolMethod
from repro.frontend.shapes import TensorShape, conv_groups
from repro.nn import functional as F

IntArray = npt.NDArray[np.int64]
FloatArray = npt.NDArray[np.float64]
AnyArray = npt.NDArray[Any]

#: Step kinds that may be folded onto their producer as an epilogue.
_EPILOGUE_KINDS = frozenset({
    LayerKind.RELU, LayerKind.SIGMOID, LayerKind.TANH, LayerKind.DROPOUT,
    LayerKind.POOLING, LayerKind.LRN,
})
#: Epilogues whose output has the producer's shape, so they can run in
#: place on the producer's buffer.
_INPLACE_KINDS = frozenset({
    LayerKind.RELU, LayerKind.SIGMOID, LayerKind.TANH, LayerKind.DROPOUT,
})
#: Step kinds whose results escape the flush (recurrent state persists
#: across calls; classifier indices go straight to the caller), so they
#: must never live on the arena.
_ESCAPING_KINDS = frozenset({LayerKind.RECURRENT, LayerKind.CLASSIFIER})


def _is_power_of_two(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


#: Largest integer float64 represents exactly (53-bit mantissa).
_FLOAT_EXACT_LIMIT = float(2 ** 53)


def _float_gemm_exact(reduce_dim: int, in_fmt: QFormat,
                      weight_fmt: QFormat) -> bool:
    """Whether a float64 BLAS GEMM reproduces the int64 matmul exactly.

    Every product of a data word and a weight word is an integer of at
    most ``in_bits + weight_bits`` magnitude, and any partial sum over
    the reduction axis is bounded by ``K * max|d| * max|w|``.  When that
    bound stays under 2^53 every intermediate value is an integer float64
    represents exactly, so dgemm returns the same integers as the int64
    kernel **regardless of its blocking or summation order** — and runs
    an order of magnitude faster, since numpy's integer matmul cannot
    use BLAS.
    """
    bound = float(reduce_dim) * float(in_fmt.max_int + 1) \
        * float(weight_fmt.max_int + 1)
    return bound < _FLOAT_EXACT_LIMIT


def _bias_in_accumulator(bias: IntArray | None, acc_fmt: QFormat,
                         weight_fmt: QFormat) -> IntArray | None:
    """The bias pre-shifted into the accumulator's fraction field."""
    if bias is None:
        return None
    shift = acc_fmt.fraction_bits - weight_fmt.fraction_bits
    return cast(IntArray, bias.astype(np.int64) << np.int64(shift))


# ----------------------------------------------------------------------
# Buffer arena

class BufferArena:
    """Size-classed recycling pool for flush-lifetime buffers.

    Blocks are flat ``uint8`` arrays in power-of-two size classes
    (minimum 512 bytes).  :meth:`take` hands out a typed, shaped view of
    a free block (allocating a new block only on a pool miss) and
    :meth:`release` returns the view's underlying block to its free
    list.  Blocks are owned forever once allocated, so across flushes a
    plan's working set stabilizes to a handful of reused blocks instead
    of fresh ``np.empty`` calls per layer per flush.

    Releasing an array the arena does not own is a no-op, so callers can
    uniformly release every value they are done with.  All bookkeeping
    is lock-protected; concurrent flushes (server worker threads
    sharing one plan) simply draw more blocks.
    """

    _MIN_BLOCK = 512

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._free: dict[int, list[npt.NDArray[np.uint8]]] = {}
        #: id() -> block for every block ever allocated; keeps blocks
        #: alive (ids stable) and marks ownership for :meth:`release`.
        self._blocks: dict[int, npt.NDArray[np.uint8]] = {}
        self._in_use_bytes = 0
        #: Total bytes of blocks ever allocated (the resident pool).
        self.pool_bytes = 0
        #: High-water mark of concurrently checked-out bytes.
        self.peak_bytes = 0
        self.takes = 0
        self.misses = 0

    @staticmethod
    def _class_for(nbytes: int) -> int:
        size = BufferArena._MIN_BLOCK
        while size < nbytes:
            size <<= 1
        return size

    def take(self, shape: tuple[int, ...], dtype: Any) -> AnyArray:
        """A writable ``shape``/``dtype`` array backed by a pool block."""
        dt = np.dtype(dtype)
        nbytes = dt.itemsize * math.prod(shape)
        if nbytes == 0:
            return np.empty(shape, dtype=dt)
        size_class = self._class_for(nbytes)
        with self._lock:
            stack = self._free.get(size_class)
            block = stack.pop() if stack else None
            self.takes += 1
            if block is None:
                self.misses += 1
            self._in_use_bytes += size_class
            if self._in_use_bytes > self.peak_bytes:
                self.peak_bytes = self._in_use_bytes
        if block is None:
            block = np.empty(size_class, dtype=np.uint8)
            with self._lock:
                self._blocks[id(block)] = block
                self.pool_bytes += size_class
        view = block[:nbytes].view(dt).reshape(shape)
        return cast(AnyArray, view)

    def release(self, array: AnyArray) -> None:
        """Return ``array``'s block to the pool; no-op if not arena-owned."""
        base: Any = array
        while isinstance(base, np.ndarray) and base.base is not None:
            base = base.base
        if not isinstance(base, np.ndarray) or base.dtype != np.uint8 \
                or base.ndim != 1:
            return
        block = cast(npt.NDArray[np.uint8], base)
        with self._lock:
            if id(block) not in self._blocks:
                return
            self._free.setdefault(block.nbytes, []).append(block)
            self._in_use_bytes -= block.nbytes

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                "pool_bytes": self.pool_bytes,
                "peak_bytes": self.peak_bytes,
                "in_use_bytes": self._in_use_bytes,
                "takes": self.takes,
                "misses": self.misses,
            }


class _Scratch:
    """One pooled block carved into a kernel's scratch views.

    A kernel needing several flush-lifetime temporaries pays one arena
    take/release round trip instead of one per buffer; carved views are
    64-byte aligned within the block.
    """

    __slots__ = ("_arena", "_block", "_offset")

    _ALIGN = 64

    @staticmethod
    def aligned(nbytes: int) -> int:
        return (nbytes + _Scratch._ALIGN - 1) & ~(_Scratch._ALIGN - 1)

    def __init__(self, arena: BufferArena, nbytes: int) -> None:
        self._arena = arena
        self._block = arena.take((nbytes,), np.uint8)
        self._offset = 0

    def carve(self, shape: tuple[int, ...], dtype: Any) -> AnyArray:
        dt = np.dtype(dtype)
        nbytes = dt.itemsize * math.prod(shape)
        start = self._offset
        self._offset = start + self.aligned(nbytes)
        view = self._block[start:start + nbytes].view(dt).reshape(shape)
        return cast(AnyArray, view)

    def close(self) -> None:
        self._arena.release(self._block)


@dataclass
class LayerStep:
    """One layer of the plan: spec plus its input-independent pieces."""

    spec: LayerSpec
    in_fmts: list[QFormat]
    out_fmt: QFormat
    #: Wide accumulator format for MAC layers (conv / FC / recurrent).
    acc_fmt: QFormat | None = None
    #: Packed weights, transposed for ``columns @ weight``: one
    #: ``(Cin/g*k*k, Dout/g)`` matrix per convolution group, or a single
    #: ``(In, Out)`` matrix for dense layers.  Stored as transposed
    #: views of C-contiguous ``(Out, In)`` packs — the F-contiguous
    #: right-hand side is what numpy's integer matmul kernel wants
    #: (contiguous along the reduction axis; ~8x faster than the
    #: C-contiguous transpose copy).
    weights: list[IntArray] = field(default_factory=list)
    #: float64 copies of ``weights`` when the accumulation provably fits
    #: the 53-bit mantissa (see :func:`_float_gemm_exact`); ``None``
    #: keeps the GEMM on the int64 kernel.
    float_weights: list[FloatArray] | None = None
    #: Bias already shifted into ``acc_fmt`` (full ``Dout`` vector).
    bias_acc: IntArray | None = None
    #: Transposed recurrent weight ``(Out, Out)`` for the feedback MAC.
    recurrent_t: IntArray | None = None
    float_recurrent: FloatArray | None = None
    recurrent_acc_fmt: QFormat | None = None
    #: im2col gather indices ``(out_h*out_w, Cin/g*k*k)`` into one
    #: group's zero-padded flattened image.
    gather: IntArray | None = None
    out_h: int = 0
    out_w: int = 0
    #: Shared Approx-LUT content for sigmoid/tanh/LRN scaling.
    lut: ApproxLUTContent | None = None
    # --- filled in by the plan optimizer ---------------------------------
    #: SSA value ids: one per bottom, one for the step's result.  Blob
    #: names are reused by Caffe-style in-place layers, so liveness and
    #: scheduling run on value ids, never on names.
    in_vids: list[int] = field(default_factory=list)
    out_vid: int = -1
    #: Whether this step was folded onto its producer as an epilogue.
    fused: bool = False
    #: Whether the step's result buffer may come from the arena in
    #: output-retention mode (its value does not escape the flush).
    use_arena: bool = False
    #: Whether the step may overwrite its (single) input buffer in
    #: output-retention mode.
    inplace: bool = False


@dataclass
class PlanNode:
    """One schedulable unit: an anchor step plus fused epilogues."""

    steps: list[int]
    level: int = 0


@dataclass
class ExecutionPlan:
    """Input-independent execution state for one compiled design."""

    input_blob: str
    input_fmt: QFormat
    input_dims: tuple[int, ...]
    output_blob: str
    steps: list[LayerStep]
    blob_formats: dict[str, QFormat]
    #: ``"fused"`` (epilogue fusion + arena + level scheduling) or
    #: ``"naive"`` (one node per step, allocate-per-step kernels).
    optimize: str = "fused"
    # --- built by _analyze -----------------------------------------------
    nodes: list[PlanNode] = field(default_factory=list)
    #: Node indices grouped by topological level, in execution order.
    levels: list[list[int]] = field(default_factory=list)
    #: Blob name per value id (vid 0 is the quantized network input).
    vid_blob: list[str] = field(default_factory=list)
    #: Element count per value id (without the batch axis).
    vid_elems: list[int] = field(default_factory=list)
    #: Final value id per blob name — what a keep-all flush returns.
    final_vids: dict[str, int] = field(default_factory=dict)
    output_vid: int = -1
    #: Canonical buffer groups from in-place epilogue aliasing:
    #: canonical vid -> every vid sharing its buffer.
    aliases: dict[int, list[int]] = field(default_factory=dict)
    #: Arena-owned canonical vids to release after each level.
    release_after_level: list[list[int]] = field(default_factory=list)
    arena: BufferArena | None = None
    fused_steps: int = 0

    # ------------------------------------------------------------------
    # Construction

    @staticmethod
    def build(
        graph: NetworkGraph,
        shapes: dict[str, TensorShape],
        order: list[LayerSpec],
        quantized_weights: dict[str, dict[str, IntArray]],
        blob_formats: dict[str, QFormat],
        weight_format: QFormat,
        lut_for: Callable[[str, QFormat], ApproxLUTContent],
        *,
        optimize: str = "fused",
    ) -> "ExecutionPlan":
        if optimize not in ("fused", "naive"):
            raise SimulationError(
                f"unknown plan optimize mode '{optimize}' "
                "(expected 'fused' or 'naive')")
        data_layers = graph.inputs()
        if len(data_layers) != 1:
            raise SimulationError("execution plan expects a single input")
        input_blob = data_layers[0].tops[0]
        steps: list[LayerStep] = []
        for spec in order:
            if spec.kind is LayerKind.DATA:
                continue
            in_fmts = [blob_formats[b] for b in spec.bottoms]
            out_fmt = blob_formats[spec.tops[0]] if spec.tops else in_fmts[0]
            step = LayerStep(spec=spec, in_fmts=in_fmts, out_fmt=out_fmt)
            params = quantized_weights.get(spec.name, {})
            kind = spec.kind
            if kind.is_convolution:
                ExecutionPlan._plan_conv(step, shapes[spec.bottoms[0]].dims,
                                         params, weight_format)
            elif kind in (LayerKind.INNER_PRODUCT, LayerKind.ASSOCIATIVE,
                          LayerKind.RECURRENT):
                step.acc_fmt = accumulator_format(in_fmts[0], weight_format)
                weight = params["weight"].reshape(spec.num_output, -1)
                step.weights = [
                    np.ascontiguousarray(weight, dtype=np.int64).T]
                if _float_gemm_exact(weight.shape[1], in_fmts[0],
                                     weight_format):
                    step.float_weights = [
                        step.weights[0].astype(np.float64)]
                step.bias_acc = _bias_in_accumulator(
                    params.get("bias"), step.acc_fmt, weight_format)
                if kind is LayerKind.RECURRENT:
                    step.recurrent_t = np.ascontiguousarray(
                        params["recurrent_weight"], dtype=np.int64).T
                    step.recurrent_acc_fmt = accumulator_format(
                        out_fmt, weight_format)
                    if _float_gemm_exact(step.recurrent_t.shape[0],
                                         out_fmt, weight_format):
                        step.float_recurrent = step.recurrent_t.astype(
                            np.float64)
            elif kind in (LayerKind.SIGMOID, LayerKind.TANH):
                function = "sigmoid" if kind is LayerKind.SIGMOID else "tanh"
                step.lut = lut_for(function, out_fmt)
            elif kind is LayerKind.LRN:
                step.lut = lut_for("reciprocal_power", in_fmts[0])
            steps.append(step)
        plan = ExecutionPlan(
            input_blob=input_blob,
            input_fmt=blob_formats[input_blob],
            input_dims=shapes[input_blob].dims,
            output_blob=graph.outputs()[-1].tops[0],
            steps=steps,
            blob_formats=blob_formats,
            optimize=optimize,
        )
        plan._analyze(shapes)
        return plan

    @staticmethod
    def _plan_conv(step: LayerStep, in_dims: tuple[int, ...],
                   params: dict[str, IntArray],
                   weight_format: QFormat) -> None:
        spec = step.spec
        weight = params["weight"]
        dout = weight.shape[0]
        groups = conv_groups(spec, in_dims[0])
        cin_per_group = in_dims[0] // groups
        dout_per_group = dout // groups
        step.acc_fmt = accumulator_format(step.in_fmts[0], weight_format)
        step.weights = [
            np.ascontiguousarray(
                weight[g * dout_per_group:(g + 1) * dout_per_group]
                .reshape(dout_per_group, -1), dtype=np.int64).T
            for g in range(groups)
        ]
        if _float_gemm_exact(step.weights[0].shape[0], step.in_fmts[0],
                             weight_format):
            step.float_weights = [w.astype(np.float64)
                                  for w in step.weights]
        step.bias_acc = _bias_in_accumulator(params.get("bias"),
                                             step.acc_fmt, weight_format)
        step.gather, step.out_h, step.out_w = F.im2col_indices(
            (cin_per_group, in_dims[1], in_dims[2]),
            spec.kernel_size, spec.stride, spec.pad)

    # ------------------------------------------------------------------
    # Plan optimizer: SSA values, fusion chains, levels, liveness

    def _analyze(self, shapes: dict[str, TensorShape]) -> None:
        fused_mode = self.optimize == "fused"
        # SSA value numbering over the Caffe-style blob namespace:
        # in-place layers (bottom == top) get a fresh vid per write, so
        # reordering and liveness never confuse two versions of a name.
        vid_blob: list[str] = [self.input_blob]
        vid_elems: list[int] = [int(math.prod(self.input_dims))]
        readers: list[list[int]] = [[]]
        writer: list[int] = [-1]
        current: dict[str, int] = {self.input_blob: 0}
        for i, step in enumerate(self.steps):
            step.in_vids = [current[b] for b in step.spec.bottoms]
            for v in step.in_vids:
                readers[v].append(i)
            top = step.spec.tops[0] if step.spec.tops else ""
            step.out_vid = len(vid_blob)
            vid_blob.append(top)
            shape = shapes.get(top)
            vid_elems.append(int(math.prod(shape.dims)) if shape else 0)
            readers.append([])
            writer.append(i)
            for name in step.spec.tops:
                current[name] = step.out_vid
        self.vid_blob = vid_blob
        self.vid_elems = vid_elems
        self.final_vids = dict(current)
        self.output_vid = current[self.output_blob]

        # Epilogue fusion: greedily chain each step with the single
        # reader of its value while that reader is a legal epilogue.
        # The network-output value always terminates a chain — it must
        # survive the flush as its own buffer.
        assigned = [False] * len(self.steps)
        chains: list[list[int]] = []
        for i in range(len(self.steps)):
            if assigned[i]:
                continue
            chain = [i]
            assigned[i] = True
            while fused_mode:
                value = self.steps[chain[-1]].out_vid
                if value == self.output_vid:
                    break
                value_readers = readers[value]
                if len(value_readers) != 1:
                    break
                j = value_readers[0]
                follower = self.steps[j]
                if assigned[j] or follower.spec.kind not in _EPILOGUE_KINDS \
                        or len(follower.spec.bottoms) != 1:
                    break
                chain.append(j)
                assigned[j] = True
            chains.append(chain)
        self.fused_steps = len(self.steps) - len(chains)
        self.nodes = [PlanNode(steps=chain) for chain in chains]

        # Topological levels over nodes.  A chain's only external
        # inputs are its anchor's inputs, and every producer node's
        # anchor precedes this node's anchor, so one forward sweep
        # resolves all levels.
        node_of_step: dict[int, int] = {}
        for ni, node in enumerate(self.nodes):
            for si in node.steps:
                node_of_step[si] = ni
        for ni, node in enumerate(self.nodes):
            level = 0
            for si in node.steps:
                for v in self.steps[si].in_vids:
                    w = writer[v]
                    if w >= 0 and node_of_step[w] != ni:
                        level = max(level, self.nodes[node_of_step[w]].level + 1)
            node.level = level
        if fused_mode:
            depth = max((node.level for node in self.nodes), default=-1)
            self.levels = [[] for _ in range(depth + 1)]
            for ni, node in enumerate(self.nodes):
                self.levels[node.level].append(ni)
        else:
            # Naive plans replay the original sequential step order.
            for ni, node in enumerate(self.nodes):
                node.level = ni
            self.levels = [[ni] for ni in range(len(self.nodes))]

        # In-place epilogues and buffer aliasing (output mode only).
        # An epilogue may overwrite its producer's buffer when shapes
        # match, the producer's value does not persist (recurrent state
        # does), and the result is not the network output.
        canonical = list(range(len(vid_blob)))
        if fused_mode:
            for chain in chains:
                for prev, cur in zip(chain, chain[1:]):
                    step = self.steps[cur]
                    step.fused = True
                    producer = self.steps[prev]
                    if step.spec.kind in _INPLACE_KINDS \
                            and producer.spec.kind not in _ESCAPING_KINDS \
                            and step.out_vid != self.output_vid:
                        step.inplace = True
                        canonical[step.out_vid] = canonical[step.in_vids[0]]
        for step in self.steps:
            step.use_arena = (
                fused_mode
                and not step.inplace
                and step.spec.kind not in _ESCAPING_KINDS
                and step.out_vid != self.output_vid
            )

        self.aliases = {}
        for v, c in enumerate(canonical):
            self.aliases.setdefault(c, []).append(v)

        # Liveness: each arena-owned canonical buffer is released after
        # the last level that reads any of its aliases.
        self.release_after_level = [[] for _ in self.levels]
        if fused_mode:
            self.arena = BufferArena()
            for c, group in self.aliases.items():
                if c == 0:
                    backed = True  # the quantized input lives on the arena
                else:
                    backed = self.steps[writer[c]].use_arena
                if not backed:
                    continue
                if c == 0:
                    last = 0
                else:
                    last = self.nodes[node_of_step[writer[c]]].level
                for v in group:
                    for r in readers[v]:
                        last = max(last, self.nodes[node_of_step[r]].level)
                self.release_after_level[last].append(c)

    # ------------------------------------------------------------------
    # Introspection

    def stats(self) -> dict[str, int | str]:
        """Optimizer and arena counters for metrics and bench tables."""
        arena = self.arena.snapshot() if self.arena is not None else {}
        return {
            "optimize": self.optimize,
            "total_steps": len(self.steps),
            "fused_steps": self.fused_steps,
            "levels": len(self.levels),
            "max_level_width": max((len(level) for level in self.levels),
                                   default=0),
            "peak_arena_bytes": arena.get("peak_bytes", 0),
            "arena_pool_bytes": arena.get("pool_bytes", 0),
        }

    def peak_alloc_bytes(self, batch_size: int) -> int:
        """Peak working-set bytes for one flush of ``batch_size``.

        Fused plans report the arena's measured high-water mark once a
        flush has run (warm it first).  Naive plans materialize every
        value for the whole flush, so their footprint is the analytic
        sum of all int64 value buffers.
        """
        if self.optimize == "fused" and self.arena is not None \
                and self.arena.peak_bytes > 0:
            return self.arena.peak_bytes
        return 8 * batch_size * sum(self.vid_elems)

    def summary(self) -> str:
        stats = self.stats()
        return (
            f"plan[{self.optimize}] steps={stats['total_steps']} "
            f"fused={stats['fused_steps']} levels={stats['levels']} "
            f"width={stats['max_level_width']} "
            f"peak_arena_bytes={stats['peak_arena_bytes']}"
        )

    # ------------------------------------------------------------------
    # Batched execution

    def forward_batch_raw(
        self,
        inputs: AnyArray,
        state: dict[str, IntArray],
        *,
        keep: str = "all",
    ) -> dict[str, IntArray]:
        """One vectorized forward pass; raw integer blobs, leading ``N``.

        ``state`` is the executor's recurrent-state dict; batched entries
        carry the batch dimension ``(N, Out)`` and evolve per sample.

        ``keep="all"`` materializes and returns every blob (the
        inspection contract: allocate-per-step kernels, no arena, no
        in-place writes).  ``keep="output"`` is the serving hot path:
        only the network output survives the flush, intermediate values
        live on the plan's arena and are recycled at their last-use
        level, and same-shape epilogues run in place.  Both retention
        modes and both optimize modes produce bit-identical values.
        Concurrent calls on one plan are safe: each flush keeps its
        values in its own list and draws buffers from the locked arena.
        """
        if keep not in ("all", "output"):
            raise SimulationError(
                f"unknown retention mode '{keep}' (expected 'all' or 'output')")
        hot = keep == "output" and self.optimize == "fused"
        arena = self.arena if hot else None
        values: list[AnyArray | None] = [None] * len(self.vid_blob)
        if arena is not None:
            source = np.asarray(inputs, dtype=np.float64)
            buffer = arena.take(source.shape, np.int64)
            values[0] = quantize_to_ints(source, self.input_fmt, out=buffer)
        else:
            values[0] = quantize_to_ints(inputs, self.input_fmt)
        for index, level in enumerate(self.levels):
            for ni in level:
                self._run_node(ni, values, state, arena)
            if arena is not None:
                for c in self.release_after_level[index]:
                    held = values[c]
                    if held is not None:
                        arena.release(held)
                    for v in self.aliases.get(c, [c]):
                        values[v] = None
        if keep == "output":
            output = values[self.output_vid]
            if output is None:
                raise SimulationError(
                    f"plan did not produce output blob '{self.output_blob}'")
            return {self.output_blob: cast(IntArray, output)}
        result: dict[str, IntArray] = {}
        for name, vid in self.final_vids.items():
            held = values[vid]
            if held is not None:
                result[name] = cast(IntArray, held)
        return result

    def _run_node(self, ni: int, values: list[AnyArray | None],
                  state: dict[str, IntArray],
                  arena: BufferArena | None) -> None:
        for si in self.nodes[ni].steps:
            step = self.steps[si]
            raw_inputs = [cast(AnyArray, values[v]) for v in step.in_vids]
            result = self._run_step(
                step, raw_inputs, state,
                arena=arena if step.use_arena else None,
                inplace=step.inplace and arena is not None,
            )
            values[step.out_vid] = result

    def _run_step(self, step: LayerStep, raw_inputs: list[AnyArray],
                  state: dict[str, IntArray],
                  arena: BufferArena | None = None,
                  inplace: bool = False) -> IntArray:
        spec = step.spec
        kind = spec.kind
        first = raw_inputs[0] if raw_inputs else None
        first_fmt = step.in_fmts[0] if step.in_fmts else step.out_fmt
        out_fmt = step.out_fmt

        if kind.is_convolution:
            return self._conv(step, cast(IntArray, first), arena)
        if kind is LayerKind.INNER_PRODUCT or kind is LayerKind.ASSOCIATIVE:
            return self._dense(step, cast(IntArray, first), arena)
        if kind is LayerKind.RECURRENT:
            return self._recurrent(step, cast(IntArray, first), state)
        if kind is LayerKind.POOLING:
            return self._pool(step, cast(IntArray, first), arena)
        if kind is LayerKind.RELU:
            assert first is not None
            if inplace:
                np.maximum(first, 0, out=first)
                requantize(first, first_fmt, out_fmt, out=first)
                return cast(IntArray, first)
            if arena is not None:
                out = cast(IntArray, arena.take(first.shape, np.int64))
                requantize(np.maximum(first, 0), first_fmt, out_fmt, out=out)
                return out
            return requantize(np.maximum(first, 0), first_fmt, out_fmt)
        if kind in (LayerKind.SIGMOID, LayerKind.TANH):
            assert first is not None and step.lut is not None
            values = step.lut.evaluate(dequantize(first, first_fmt))
            if inplace:
                quantize_to_ints(values, out_fmt, out=first)
                return cast(IntArray, first)
            if arena is not None:
                out = cast(IntArray, arena.take(first.shape, np.int64))
                return cast(IntArray,
                            quantize_to_ints(values, out_fmt, out=out))
            return quantize_to_ints(values, out_fmt)
        if kind is LayerKind.LRN:
            return self._lrn(step, cast(IntArray, first), arena)
        if kind is LayerKind.DROPOUT:
            assert first is not None
            if inplace:
                requantize(first, first_fmt, out_fmt, out=first)
                return cast(IntArray, first)
            if arena is not None:
                out = cast(IntArray, arena.take(first.shape, np.int64))
                return cast(IntArray,
                            requantize(first, first_fmt, out_fmt, out=out))
            return requantize(first, first_fmt, out_fmt)
        if kind is LayerKind.SOFTMAX:
            assert first is not None
            probabilities = F.softmax_batch(dequantize(first, first_fmt))
            if arena is not None:
                out = cast(IntArray,
                           arena.take(probabilities.shape, np.int64))
                return cast(IntArray,
                            quantize_to_ints(probabilities, out_fmt, out=out))
            return quantize_to_ints(probabilities, out_fmt)
        if kind is LayerKind.CLASSIFIER:
            return cast(IntArray,
                        F.argmax_classifier_batch(cast(IntArray, first),
                                                  spec.top_k))
        if kind is LayerKind.CONCAT:
            return self._concat(step, raw_inputs, arena)
        if kind is LayerKind.ELTWISE:
            return self._eltwise(step, raw_inputs, arena)
        raise SimulationError(f"batched execution has no rule for {kind}")

    def _conv(self, step: LayerStep, raw: IntArray,
              arena: BufferArena | None) -> IntArray:
        spec = step.spec
        count, channels = raw.shape[0], raw.shape[1]
        groups = conv_groups(spec, channels)
        cin_per_group = channels // groups
        height_p = raw.shape[2] + 2 * spec.pad
        width_p = raw.shape[3] + 2 * spec.pad
        use_float = step.float_weights is not None
        assert step.acc_fmt is not None and step.gather is not None
        if arena is None:
            padded = F.pad2d(raw, spec.pad)
            # (N, groups, Cin/g * Hp * Wp): one flat image slab per group.
            flat = padded.reshape(count, groups,
                                  cin_per_group * padded.shape[2]
                                  * padded.shape[3])
            if use_float:
                # Convert the (small) image slab once; the gathered
                # columns come out float64 and the GEMM goes through
                # BLAS.
                flat = flat.astype(np.float64)
            group_outputs = []
            offset = 0
            for g, weight_t in enumerate(step.weights):
                dout_per_group = weight_t.shape[1]
                columns = flat[:, g][:, step.gather]  # (N, P, Cin/g*k*k)
                if use_float:
                    assert step.float_weights is not None
                    reduce = columns.shape[-1]
                    acc = (columns.reshape(-1, reduce)
                           @ step.float_weights[g]).astype(np.int64)
                    acc = acc.reshape(count, -1, dout_per_group)
                else:
                    acc = columns @ weight_t          # (N, P, Dout/g)
                if step.bias_acc is not None:
                    acc = acc + step.bias_acc[offset:offset + dout_per_group]
                group_outputs.append(
                    acc.transpose(0, 2, 1).reshape(count, dout_per_group,
                                                   step.out_h, step.out_w))
                offset += dout_per_group
            acc = np.concatenate(group_outputs, axis=1)
            return requantize(acc, step.acc_fmt, step.out_fmt)
        # Arena path: identical arithmetic, all GEMM/gather scratch
        # carved out of one pooled block and the result buffer drawn
        # from (and returned to) the pool.
        patches = step.out_h * step.out_w
        kernel_elems = step.gather.shape[1]
        dout_per_group = step.weights[0].shape[1]
        dout = dout_per_group * groups
        if spec.kernel_size == 1 and spec.stride == 1 and spec.pad == 0:
            # Pointwise convolution: im2col is the identity, so skip the
            # gather entirely and GEMM ``(Dout/g, Cin/g) @ (N, Cin/g, P)``
            # straight into output layout.  Summation order differs from
            # the gathered GEMM but every intermediate is exact (the
            # float path is only enabled under the 2^53 bound), so the
            # integers are identical.
            return self._pointwise_conv(step, raw, arena, count, channels,
                                        groups, dout)
        group_bytes = 8 * count * patches * dout_per_group
        column_bytes = 8 * count * patches * kernel_elems
        need = _Scratch.aligned(column_bytes) \
            + _Scratch.aligned(8 * count * dout * patches) \
            + _Scratch.aligned(group_bytes)
        if use_float:
            need += _Scratch.aligned(8 * count * channels
                                     * height_p * width_p) \
                + _Scratch.aligned(group_bytes)
        scratch = _Scratch(arena, need)
        float_acc: AnyArray | None = None
        if use_float:
            # Pad straight into the float slab: one write pass instead
            # of int-pad-then-convert.
            float_pad = scratch.carve(
                (count, channels, height_p, width_p), np.float64)
            if spec.pad:
                float_pad.fill(0.0)
                float_pad[:, :, spec.pad:height_p - spec.pad,
                          spec.pad:width_p - spec.pad] = raw
            else:
                float_pad[...] = raw
            source: AnyArray = float_pad.reshape(
                count, groups, cin_per_group * height_p * width_p)
            float_acc = scratch.carve((count, patches, dout_per_group),
                                      np.float64)
        else:
            source = F.pad2d(raw, spec.pad).reshape(
                count, groups, cin_per_group * height_p * width_p)
        columns_buf = scratch.carve((count, patches, kernel_elems),
                                    np.float64 if use_float else np.int64)
        acc_full = scratch.carve((count, dout, patches), np.int64)
        acc_group = scratch.carve((count, patches, dout_per_group), np.int64)
        offset = 0
        for g in range(groups):
            np.take(source[:, g], step.gather, axis=1, out=columns_buf)
            if use_float:
                assert step.float_weights is not None \
                    and float_acc is not None
                np.matmul(columns_buf, step.float_weights[g], out=float_acc)
                np.copyto(acc_group, float_acc, casting="unsafe")
            else:
                np.matmul(columns_buf, step.weights[g], out=acc_group)
            if step.bias_acc is not None:
                acc_group += step.bias_acc[offset:offset + dout_per_group]
            np.copyto(acc_full[:, offset:offset + dout_per_group, :],
                      acc_group.transpose(0, 2, 1))
            offset += dout_per_group
        out = cast(IntArray, arena.take(
            (count, dout, step.out_h, step.out_w), np.int64))
        requantize(acc_full.reshape(count, dout, step.out_h, step.out_w),
                   step.acc_fmt, step.out_fmt, out=out)
        scratch.close()
        return out

    def _pointwise_conv(self, step: LayerStep, raw: IntArray,
                        arena: BufferArena, count: int, channels: int,
                        groups: int, dout: int) -> IntArray:
        """1x1 / stride-1 / pad-0 convolution without im2col.

        The patch axis is the flattened spatial axis, so the GEMM runs
        directly on the ``(N, Cin/g, H*W)`` input slab and the result
        lands in output layout ``(N, Dout, H*W)`` with no gather, no
        transpose pass and no concatenation.
        """
        assert step.acc_fmt is not None
        patches = step.out_h * step.out_w
        cin_per_group = channels // groups
        dout_per_group = dout // groups
        use_float = step.float_weights is not None
        data = raw.reshape(count, groups, cin_per_group, patches)
        need = _Scratch.aligned(8 * count * dout * patches)
        if use_float:
            need += _Scratch.aligned(8 * raw.size) \
                + _Scratch.aligned(8 * count * dout_per_group * patches)
        scratch = _Scratch(arena, need)
        acc = cast(IntArray, scratch.carve((count, dout, patches), np.int64))
        if use_float:
            assert step.float_weights is not None
            float_data = scratch.carve(
                (count, groups, cin_per_group, patches), np.float64)
            np.copyto(float_data, data)
            float_acc = scratch.carve((count, dout_per_group, patches),
                                      np.float64)
            for g in range(groups):
                # (Dout/g, Cin/g) @ (N, Cin/g, P) -> (N, Dout/g, P); the
                # stored weight is the (Cin/g, Dout/g) operand, so its
                # transpose is the row-major kernel matrix.
                np.matmul(step.float_weights[g].T, float_data[:, g],
                          out=float_acc)
                np.copyto(acc[:, g * dout_per_group:
                              (g + 1) * dout_per_group],
                          float_acc, casting="unsafe")
        else:
            for g in range(groups):
                np.matmul(step.weights[g].T, data[:, g],
                          out=acc[:, g * dout_per_group:
                                  (g + 1) * dout_per_group])
        if step.bias_acc is not None:
            acc += step.bias_acc[:, None]
        out = cast(IntArray, arena.take(
            (count, dout, step.out_h, step.out_w), np.int64))
        requantize(acc, step.acc_fmt, step.out_fmt,
                   out=out.reshape(count, dout, patches))
        scratch.close()
        return out

    def _dense(self, step: LayerStep, raw: IntArray,
               arena: BufferArena | None) -> IntArray:
        assert step.acc_fmt is not None
        flat = raw.reshape(raw.shape[0], -1)
        if arena is None:
            if step.float_weights is not None:
                acc = (flat.astype(np.float64)
                       @ step.float_weights[0]).astype(np.int64)
            else:
                acc = flat @ step.weights[0]
            if step.bias_acc is not None:
                acc = acc + step.bias_acc
            return requantize(acc, step.acc_fmt, step.out_fmt)
        count = flat.shape[0]
        dout = step.weights[0].shape[1]
        acc_bytes = 8 * count * dout
        need = _Scratch.aligned(acc_bytes)
        if step.float_weights is not None:
            need += _Scratch.aligned(8 * flat.size) \
                + _Scratch.aligned(acc_bytes)
        scratch = _Scratch(arena, need)
        acc_buf = cast(IntArray, scratch.carve((count, dout), np.int64))
        if step.float_weights is not None:
            float_flat = scratch.carve(flat.shape, np.float64)
            np.copyto(float_flat, flat)
            float_acc = scratch.carve((count, dout), np.float64)
            np.matmul(float_flat, step.float_weights[0], out=float_acc)
            np.copyto(acc_buf, float_acc, casting="unsafe")
        else:
            np.matmul(flat, step.weights[0], out=acc_buf)
        if step.bias_acc is not None:
            acc_buf += step.bias_acc
        out = cast(IntArray, arena.take((count, dout), np.int64))
        requantize(acc_buf, step.acc_fmt, step.out_fmt, out=out)
        scratch.close()
        return out

    def _recurrent(self, step: LayerStep, raw: IntArray,
                   state: dict[str, IntArray]) -> IntArray:
        # Recurrent results persist in ``state`` across flushes, so this
        # kernel always allocates off-arena.
        drive = self._dense(step, raw, None)
        previous = state.get(step.spec.name)
        if previous is not None:
            if previous.shape != drive.shape:
                raise SimulationError(
                    f"recurrent state for '{step.spec.name}' has shape "
                    f"{previous.shape}, batch expects {drive.shape}; call "
                    "reset_state() between batch shapes"
                )
            assert step.recurrent_acc_fmt is not None
            if step.float_recurrent is not None:
                echo = (previous.astype(np.float64)
                        @ step.float_recurrent).astype(np.int64)
            else:
                echo = previous @ step.recurrent_t
            feedback = requantize(echo, step.recurrent_acc_fmt,
                                  step.out_fmt)
            drive = np.clip(drive + feedback, step.out_fmt.min_int,
                            step.out_fmt.max_int)
        state[step.spec.name] = drive
        return drive

    def _pool(self, step: LayerStep, raw: IntArray,
              arena: BufferArena | None) -> IntArray:
        spec = step.spec
        in_fmt, out_fmt = step.in_fmts[0], step.out_fmt
        # The arena path skips the defensive astype copies (blobs are
        # always int64 already); the values are unchanged either way.
        if arena is not None and raw.dtype == np.int64:
            source = raw
        else:
            source = raw.astype(np.int64)
        if spec.pool_method is PoolMethod.MAX:
            count, channels, height, width = source.shape
            stride, kernel = spec.stride, spec.kernel_size
            # Caffe ceil-mode output size (see pool_windows_batch).
            out_h = -(-(height - kernel) // stride) + 1
            out_w = -(-(width - kernel) // stride) + 1
            fits = ((out_h - 1) * stride + kernel <= height
                    and (out_w - 1) * stride + kernel <= width)
            if arena is not None and spec.pad == 0 and fits:
                # Unpadded, non-overflowing max pooling reduces k*k
                # strided views of the input instead of materializing
                # the windows tensor: the max over identical window
                # members is unchanged.
                out = cast(IntArray, arena.take(
                    (count, channels, out_h, out_w), np.int64))
                span_h = stride * (out_h - 1) + 1
                span_w = stride * (out_w - 1) + 1
                for di in range(kernel):
                    for dj in range(kernel):
                        window = source[:, :, di:di + span_h:stride,
                                        dj:dj + span_w:stride]
                        if di == 0 and dj == 0:
                            np.copyto(out, window)
                        else:
                            np.maximum(out, window, out=out)
                return cast(IntArray,
                            requantize(out, in_fmt, out_fmt, out=out))
            # Padding never wins the max: pad with each sample's minimum.
            pad_values = raw.min(axis=(1, 2, 3)) \
                if spec.pad and raw.size else 0
            windows, _, _ = F.pool_windows_batch(
                source, spec.kernel_size, spec.stride, spec.pad, pad_values)
            pooled = windows.max(axis=(4, 5))
            if arena is not None:
                out = cast(IntArray, arena.take(pooled.shape, np.int64))
                return cast(IntArray,
                            requantize(pooled, in_fmt, out_fmt, out=out))
            return requantize(pooled, in_fmt, out_fmt)
        windows, _, _ = F.pool_windows_batch(
            source, spec.kernel_size, spec.stride, spec.pad, 0)
        sums = windows.sum(axis=(4, 5))
        if arena is None or sums.dtype != np.int64:
            sums = sums.astype(np.int64)
        area = spec.kernel_size * spec.kernel_size
        if _is_power_of_two(area):
            shift = area.bit_length() - 1
            averaged = (sums + (1 << (shift - 1))) >> np.int64(shift)
        else:
            reciprocal = int(round((1 << 15) / area))
            averaged = (sums * reciprocal + (1 << 14)) >> np.int64(15)
        if arena is not None:
            out = cast(IntArray, arena.take(averaged.shape, np.int64))
            return cast(IntArray,
                        requantize(averaged, in_fmt, out_fmt, out=out))
        averaged = averaged.astype(np.int64)
        return requantize(averaged, in_fmt, out_fmt)

    def _lrn(self, step: LayerStep, raw: IntArray,
             arena: BufferArena | None) -> IntArray:
        spec = step.spec
        assert step.lut is not None
        values = dequantize(raw, step.in_fmts[0])
        channels = values.shape[1]
        half = spec.local_size // 2
        squared = values ** 2
        scale_arg = np.zeros_like(values)
        for c in range(channels):
            lo, hi = max(0, c - half), min(channels, c + half + 1)
            scale_arg[:, c] = (spec.alpha / spec.local_size) \
                * squared[:, lo:hi].sum(axis=1)
        scale = step.lut.evaluate(scale_arg)
        if arena is not None:
            out = cast(IntArray, arena.take(raw.shape, np.int64))
            return cast(IntArray,
                        quantize_to_ints(values * scale, step.out_fmt,
                                         out=out))
        return quantize_to_ints(values * scale, step.out_fmt)

    def _concat(self, step: LayerStep, raw_inputs: list[AnyArray],
                arena: BufferArena | None) -> IntArray:
        out_fmt = step.out_fmt
        if arena is None:
            aligned = [requantize(raw, fmt, out_fmt)
                       for raw, fmt in zip(raw_inputs, step.in_fmts)]
            if all(a.ndim == 4 for a in aligned):
                return cast(IntArray, np.concatenate(aligned, axis=1))
            count = aligned[0].shape[0]
            return cast(IntArray, np.concatenate(
                [a.reshape(count, -1) for a in aligned], axis=1))
        count = raw_inputs[0].shape[0]
        if all(a.ndim == 4 for a in raw_inputs):
            widths = [a.shape[1] for a in raw_inputs]
            height, width = raw_inputs[0].shape[2], raw_inputs[0].shape[3]
            out = cast(IntArray, arena.take(
                (count, sum(widths), height, width), np.int64))
            offset = 0
            for raw, fmt, channels in zip(raw_inputs, step.in_fmts, widths):
                requantize(raw, fmt, out_fmt,
                           out=out[:, offset:offset + channels])
                offset += channels
            return out
        flats = [a.reshape(count, -1) for a in raw_inputs]
        out = cast(IntArray, arena.take(
            (count, sum(f.shape[1] for f in flats)), np.int64))
        offset = 0
        for flat, fmt in zip(flats, step.in_fmts):
            size = flat.shape[1]
            requantize(flat, fmt, out_fmt, out=out[:, offset:offset + size])
            offset += size
        return out

    def _eltwise(self, step: LayerStep, raw_inputs: list[AnyArray],
                 arena: BufferArena | None) -> IntArray:
        out_fmt = step.out_fmt
        if arena is None:
            # Bit-exact mirror of the per-sample rule in
            # repro.sim.quantized: requantize every branch to the output
            # format, then saturating integer sum.
            aligned = [requantize(raw, fmt, out_fmt).astype(np.int64)
                       for raw, fmt in zip(raw_inputs, step.in_fmts)]
            total = aligned[0]
            for other in aligned[1:]:
                total = np.clip(total + other, out_fmt.min_int,
                                out_fmt.max_int)
            return cast(IntArray, total)
        out = cast(IntArray, arena.take(raw_inputs[0].shape, np.int64))
        requantize(raw_inputs[0], step.in_fmts[0], out_fmt, out=out)
        scratch = cast(IntArray, arena.take(raw_inputs[0].shape, np.int64))
        for raw, fmt in zip(raw_inputs[1:], step.in_fmts[1:]):
            requantize(raw, fmt, out_fmt, out=scratch)
            np.add(out, scratch, out=out)
            np.clip(out, out_fmt.min_int, out_fmt.max_int, out=out)
        arena.release(scratch)
        return out
