"""Datapath sizing under the resource constraint.

NN-Gen decides "the best hardware configurations for the network and
resource constraint" (paper §1): here that is the (lanes, simd) shape of
the synergy-neuron array plus buffer capacities, chosen by exhaustive
search over power-of-two configurations, keeping the largest datapath
whose *whole design* (datapath + control + buffers) fits the budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.components.accumulator import AccumulatorArray
from repro.components.activation import ActivationUnit
from repro.components.agu import AGURole, AddressGenerationUnit
from repro.components.buffers import OnChipBuffer
from repro.components.classifier import KSorterClassifier
from repro.components.connection_box import ConnectionBox
from repro.components.coordinator import SchedulingCoordinator
from repro.components.dropout import DropOutUnit
from repro.components.lrn import LRNUnit
from repro.components.pooling import PoolingUnit
from repro.components.neuron import SynergyNeuronArray
from repro.devices.cost import ResourceCost
from repro.devices.device import ResourceBudget
from repro.errors import ResourceError
from repro.fixedpoint.format import QFormat
from repro.frontend.graph import NetworkGraph
from repro.frontend.layers import LayerKind
from repro.nngen.design import DatapathConfig

#: Fraction of budget BRAM granted to the two main buffers (the rest is
#: headroom for Approx LUTs and the coordinator context buffer).
BUFFER_BRAM_SHARE = 0.75

_SIMD_CHOICES = (16, 8, 4, 2, 1)


@dataclass(frozen=True)
class NetworkNeeds:
    """What the network requires of the shared datapath."""

    has_conv: bool
    has_pool: bool
    has_lrn: bool
    has_dropout: bool
    has_classifier: bool
    has_recurrent: bool
    activations: tuple[str, ...]
    max_kernel: int
    max_top_k: int

    @staticmethod
    def of(graph: NetworkGraph) -> "NetworkNeeds":
        kinds = {spec.kind for spec in graph.layers}
        activations = []
        if LayerKind.RELU in kinds:
            activations.append("relu")
        if LayerKind.SIGMOID in kinds or LayerKind.SOFTMAX in kinds:
            activations.append("sigmoid")
        if LayerKind.TANH in kinds:
            activations.append("tanh")
        pool_kernels = [
            spec.kernel_size for spec in graph.layers
            if spec.kind in (LayerKind.POOLING, LayerKind.INCEPTION)
            and spec.kernel_size
        ]
        top_ks = [spec.top_k for spec in graph.layers
                  if spec.kind is LayerKind.CLASSIFIER]
        return NetworkNeeds(
            has_conv=(LayerKind.CONVOLUTION in kinds
                      or LayerKind.DEPTHWISE_CONVOLUTION in kinds
                      or LayerKind.INCEPTION in kinds),
            has_pool=LayerKind.POOLING in kinds or LayerKind.INCEPTION in kinds,
            has_lrn=LayerKind.LRN in kinds,
            has_dropout=LayerKind.DROPOUT in kinds,
            has_classifier=(LayerKind.CLASSIFIER in kinds
                            or LayerKind.SOFTMAX in kinds),
            has_recurrent=bool(graph.recurrent_edges)
            or LayerKind.RECURRENT in kinds or LayerKind.ASSOCIATIVE in kinds,
            activations=tuple(activations) or ("relu",),
            max_kernel=max(pool_kernels, default=2),
            max_top_k=max(top_ks, default=1),
        )


def functional_components(
    config: DatapathConfig, needs: NetworkNeeds, prefix: str = ""
) -> dict[str, object]:
    """Instantiate the functional blocks a network needs at a datapath size."""
    data_w = config.data_width
    components: dict[str, object] = {}

    def add(component) -> None:
        components[component.instance] = component

    add(SynergyNeuronArray(
        f"{prefix}neurons", lanes=config.lanes, simd=config.simd,
        data_width=data_w, weight_width=config.weight_width,
        accumulate_width=config.accumulator_width,
    ))
    add(AccumulatorArray(f"{prefix}accumulators", lanes=config.lanes,
                         width=config.accumulator_width))
    add(ActivationUnit(f"{prefix}activation", lanes=config.lanes,
                       width=data_w, functions=needs.activations))
    add(ConnectionBox(
        f"{prefix}connection_box",
        in_ports=max(2, config.lanes), out_ports=max(2, config.lanes),
        width=data_w,
    ))
    if needs.has_pool:
        add(PoolingUnit(f"{prefix}pooling", lanes=max(1, config.lanes // 2),
                        max_kernel=needs.max_kernel, width=data_w))
    if needs.has_lrn:
        add(LRNUnit(f"{prefix}lrn", width=data_w))
    if needs.has_dropout:
        add(DropOutUnit(f"{prefix}dropout", lanes=config.lanes, width=data_w))
    if needs.has_classifier:
        add(KSorterClassifier(f"{prefix}classifier",
                              k=max(1, needs.max_top_k), width=data_w))
    return components


def control_components(
    config: DatapathConfig,
    n_phases: int,
    n_patterns: int,
    prefix: str = "",
) -> dict[str, object]:
    """The three AGUs and the coordinator for a given plan size."""
    components: dict[str, object] = {}
    for role in AGURole:
        agu = AddressGenerationUnit(
            f"{prefix}agu_{role.value}", role=role,
            n_patterns=max(1, n_patterns),
            burst_words=config.simd,
        )
        components[agu.instance] = agu
    coordinator = SchedulingCoordinator(
        f"{prefix}coordinator", n_states=max(2, n_phases),
    )
    components[coordinator.instance] = coordinator
    return components


def buffer_components(
    config: DatapathConfig,
    budget: ResourceBudget,
    feature_demand_bits: int,
    weight_demand_bits: int,
    prefix: str = "",
) -> dict[str, object]:
    """Size the double-buffered feature and weight memories.

    Each buffer gets half of the BRAM share, capped by actual demand —
    a tiny MLP does not monopolise a Z-7045's block RAM.
    """
    available = int(budget.limit.bram_bits * BUFFER_BRAM_SHARE)
    per_buffer = available // 2
    word_bits = config.simd * config.data_width
    weight_word_bits = config.lanes * config.simd * config.weight_width

    def sized(name: str, demand_bits: int, bits_per_word: int) -> OnChipBuffer:
        # Per-bank capacity: demand if it fits, otherwise everything we
        # are allowed (folding will tile the working set down to this).
        bank_bits = min(max(demand_bits, bits_per_word), per_buffer // 2)
        depth = max(1, bank_bits // bits_per_word)
        # Round depth to a power of two for cheap addressing.
        rounded = 1
        while rounded < depth:
            rounded *= 2
        if rounded * bits_per_word * 2 > per_buffer and rounded > 1:
            rounded //= 2
        return OnChipBuffer(name, depth_words=rounded,
                            word_bits=bits_per_word, banks=2)

    return {
        f"{prefix}feature_buffer": sized(f"{prefix}feature_buffer",
                                         feature_demand_bits, word_bits),
        f"{prefix}weight_buffer": sized(f"{prefix}weight_buffer",
                                        weight_demand_bits, weight_word_bits),
    }


def estimate_design_cost(components: dict[str, object]) -> ResourceCost:
    """Total cost of a component set."""
    return ResourceCost.total([c.resource_cost() for c in components.values()])


def _next_pow2(value: int) -> int:
    result = 1
    while result < value:
        result *= 2
    return result


def parallelism_caps(graph: NetworkGraph) -> tuple[int, int]:
    """Largest useful (lanes, simd) for a network.

    Lanes parallelise output values of one fold; simd parallelises the
    dot-product depth.  A datapath wider than the widest layer would
    idle, so NN-Gen never pays for it (this is why the tiny ANN rows of
    paper Table 3 use only a couple of DSPs).
    """
    from repro.frontend.shapes import conv_groups, infer_shapes
    shapes = infer_shapes(graph)
    max_outputs = 1
    max_depth = 1
    for spec in graph.layers:
        if spec.kind.is_convolution:
            out = shapes[spec.tops[0]]
            max_outputs = max(max_outputs, out.size)
            in_channels = shapes[spec.bottoms[0]].channels
            depth = spec.kernel_size ** 2 * (
                in_channels // conv_groups(spec, in_channels))
            max_depth = max(max_depth, depth)
        elif spec.kind.has_weights:
            max_outputs = max(max_outputs, spec.num_output)
            max_depth = max(max_depth, shapes[spec.bottoms[0]].size)
        elif spec.tops:
            max_outputs = max(max_outputs, shapes[spec.tops[0]].size)
    return _next_pow2(max_outputs), _next_pow2(max_depth)


#: ``(config, functional + control cost)`` for every datapath shape the
#: network can feed, in search order — the budget-independent part of
#: :func:`choose_datapath`.
CandidateTable = tuple[tuple[DatapathConfig, ResourceCost], ...]


def datapath_candidates(
    graph: NetworkGraph,
    data_format: QFormat,
    weight_format: QFormat,
    phase_estimate: int = 16,
) -> CandidateTable:
    """Price every power-of-two (lanes, simd) the network can feed.

    Widths are capped by the network's own parallelism — a datapath the
    model cannot feed is wasted area.  Functional blocks and control
    depend on the datapath shape and the network alone, so one table
    serves every budget; only the buffers are sized per budget.
    """
    needs = NetworkNeeds.of(graph)
    max_lanes, max_simd = parallelism_caps(graph)
    lane_options = []
    lanes = 1
    while lanes <= min(512, max_lanes):
        lane_options.append(lanes)
        lanes *= 2
    table = []
    for simd in _SIMD_CHOICES:
        if simd > max_simd and simd > 1:
            continue
        for lane_count in lane_options:
            config = DatapathConfig(
                lanes=lane_count, simd=simd,
                data_format=data_format, weight_format=weight_format,
            )
            components = functional_components(config, needs)
            components.update(control_components(config, phase_estimate,
                                                 phase_estimate))
            table.append((config, estimate_design_cost(components)))
    return tuple(table)


def choose_datapath(
    graph: NetworkGraph,
    budget: ResourceBudget,
    data_format: QFormat,
    weight_format: QFormat,
    feature_demand_bits: int,
    weight_demand_bits: int,
    phase_estimate: int = 16,
    candidates: CandidateTable | None = None,
) -> DatapathConfig:
    """Largest (lanes, simd) whose full design fits the budget.

    Preference order: more multipliers first, then wider simd (fewer
    lanes) because a wide simd amortises the feature port and matches
    Method-1 sub-block alignment.  ``candidates`` is the network's
    :func:`datapath_candidates` table (priced here when omitted); each
    candidate's buffers are sized for ``budget`` and added last, in the
    order :func:`estimate_design_cost` would sum the whole design.
    """
    if candidates is None:
        candidates = datapath_candidates(graph, data_format, weight_format,
                                         phase_estimate)
    best: DatapathConfig | None = None
    best_key: tuple[int, int] | None = None
    for config, cost in candidates:
        try:
            buffers = buffer_components(
                config, budget, feature_demand_bits, weight_demand_bits)
        except ResourceError:
            continue
        for buffer in buffers.values():
            cost = cost + buffer.resource_cost()
        if not cost.fits_in(budget.limit):
            continue
        key = (config.multipliers, config.simd)
        if best_key is None or key > best_key:
            best, best_key = config, key
    if best is None:
        raise ResourceError(
            f"budget {budget.label} ({budget.limit}) cannot fit even a "
            "1-lane datapath"
        )
    return best
