"""Staged build pipeline with content-addressed stage memoization.

:func:`repro.api.build` used to run the whole parse → NN-Gen → quantize
→ compile chain monolithically: every call paid for every stage, even
when forty design-space points shared the same network, seed and weight
format and differed only in the budget knobs.  :class:`BuildPipeline`
splits the flow into explicit stages — shape inference, weight init,
datapath selection, design realisation, control-program compilation,
DRAM-image quantization, execution-plan construction — and memoizes each
stage in a :class:`StageCache` under a key derived from *exactly* the
inputs that stage depends on:

========== =========================================================
stage      key components
========== =========================================================
shapes     graph fingerprint
weights    fingerprint, seed
qweights   fingerprint, seed, weight format
datapath   fingerprint, budget (device + limits + label), formats
design     fingerprint, budget, formats, *effective* lane/SIMD caps,
           fold-capacity scale
compile    design key (the control program is weight-independent when
           no calibration inputs are given)
dram       fingerprint, seed, weight format, SIMD alignment
plan       design key, seed
reference  fingerprint, seed (float forward for fidelity scoring)
========== =========================================================

Keying the design stage on the *effective* datapath caps (after
clamping against what the budget supports) means a sweep over
``max_lanes = 0, 8, 16, 32`` collapses onto the distinct realized
designs instead of re-generating byte-identical hardware four times.

Memoization is semantically transparent: a warm build returns
bit-identical artifacts to a cold one, which ``tests/test_pipeline.py``
asserts stage by stage.  Builds with ``calibration_inputs`` bypass the
cache entirely (their blob formats depend on the weight values), and
explicit trained-weight dicts share the weight-independent stages only.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from repro.compiler.compiler import DeepBurningCompiler
from repro.components.agu import AddressGenerationUnit
from repro.devices.device import (
    Device,
    ResourceBudget,
    budget_fraction,
    device_by_name,
)
from repro.fixedpoint.format import (
    DEFAULT_DATA_FORMAT,
    DEFAULT_WEIGHT_FORMAT,
    QFormat,
)
from repro.frontend.graph import NetworkGraph
from repro.frontend.shapes import infer_shapes
from repro.nn.reference import init_weights
from repro.nngen.allocate import CandidateTable, datapath_candidates
from repro.nngen.generator import NNGen

#: Stage names, in flow order (used by stats reporting and the docs).
STAGES = ("shapes", "weights", "qweights", "datapath", "design",
          "compile", "dram", "plan", "reference")


def stage_key(stage: str, **fields: object) -> str:
    """Content address of one stage evaluation: SHA-256 over the
    canonical JSON of the stage name and its key fields."""
    record = {"stage": stage, **fields}
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _budget_fields(budget: ResourceBudget) -> dict[str, object]:
    limit = budget.limit
    return {
        "device": budget.device.name,
        "dsp": limit.dsp,
        "lut": limit.lut,
        "ff": limit.ff,
        "bram_bits": limit.bram_bits,
        "label": budget.label,
    }


@dataclass
class StageStats:
    """Hit/miss/time accounting for one stage of one cache."""

    hits: int = 0
    misses: int = 0
    build_s: float = 0.0

    @property
    def total(self) -> int:
        return self.hits + self.misses


class StageCache:
    """Bounded, thread-safe LRU of memoized stage artifacts.

    One in-process cache can back many builds (the default pipeline
    shares one across every :func:`repro.api.build` call).  Entries are
    evicted least-recently-used per stage so a long-lived process — a
    serving runtime or a sweep over many networks — cannot grow without
    bound.  Stage builders run under the cache lock, so concurrent
    sessions asking for the same artifact build it exactly once.
    """

    def __init__(self, max_entries: int = 32) -> None:
        self.max_entries = max_entries
        self._stores: dict[str, OrderedDict[str, Any]] = {}
        self.stats: dict[str, StageStats] = {}
        self._lock = threading.RLock()

    def get_or_build(self, stage: str, key: str,
                     builder: Callable[[], Any]) -> tuple[Any, float]:
        """The memoized artifact plus the seconds spent building it
        (0.0 on a cache hit)."""
        with self._lock:
            store = self._stores.setdefault(stage, OrderedDict())
            stats = self.stats.setdefault(stage, StageStats())
            if key in store:
                store.move_to_end(key)
                stats.hits += 1
                return store[key], 0.0
            started = time.perf_counter()
            value = builder()
            elapsed = time.perf_counter() - started
            stats.misses += 1
            stats.build_s += elapsed
            store[key] = value
            while len(store) > self.max_entries:
                store.popitem(last=False)
            return value, elapsed

    def reserve(self, entries: int) -> None:
        """Raise the per-stage LRU bound to at least ``entries``.

        Wide design-space sweeps touch hundreds of distinct designs;
        a 32-entry LRU would thrash (every warm pass re-realising what
        the cold pass already built).  The sweep engine reserves its
        working-set size up front; the bound never shrinks, so a later
        small sweep cannot evict a bigger one's warm entries.
        """
        with self._lock:
            if entries > self.max_entries:
                self.max_entries = entries

    def clear(self) -> None:
        with self._lock:
            self._stores.clear()
            self.stats.clear()

    def __len__(self) -> int:
        with self._lock:
            return sum(len(store) for store in self._stores.values())


class BuildPipeline:
    """The staged, memoizing build flow behind :func:`repro.api.build`.

    Stateless apart from its :class:`StageCache`; one pipeline object is
    safe to share across threads and cheap to carry into forked sweep
    workers (the cache rides along copy-on-write).
    """

    def __init__(self, cache: StageCache | None = None) -> None:
        self.cache = cache or StageCache()
        # Live-object fingerprint memo: graph hashing costs ~0.3 ms and
        # a sweep asks for the same graph's digest once per point.  The
        # weakref guard makes an id() collision (new graph at a dead
        # graph's address) a recompute, never a wrong answer.
        self._fingerprints: dict[int, tuple[Any, str]] = {}
        self._candidate_tables: dict[tuple, CandidateTable] = {}

    # --- generic memoization ------------------------------------------

    def memo(self, stage: str, key_fields: dict[str, object],
             builder: Callable[[], Any]) -> Any:
        """Memoize an arbitrary artifact under this pipeline's cache."""
        value, _ = self.cache.get_or_build(stage, stage_key(stage,
                                                            **key_fields),
                                           builder)
        return value

    # --- individual stages --------------------------------------------

    def fingerprint(self, graph: NetworkGraph) -> str:
        """Memoized :meth:`NetworkGraph.fingerprint` of a live graph.

        The pipeline already assumes a graph's structure is frozen for
        the lifetime of its stage entries (every stage is keyed on this
        digest), so caching the digest per live object is free.
        """
        entry = self._fingerprints.get(id(graph))
        if entry is not None and entry[0]() is graph:
            return entry[1]
        fp = graph.fingerprint()
        if len(self._fingerprints) >= 16:
            self._fingerprints = {
                key: value for key, value in self._fingerprints.items()
                if value[0]() is not None}
        self._fingerprints[id(graph)] = (weakref.ref(graph), fp)
        return fp

    def shapes(self, graph: NetworkGraph, fp: str):
        value, _ = self.cache.get_or_build(
            "shapes", stage_key("shapes", fp=fp),
            lambda: infer_shapes(graph))
        return value

    def weights(self, graph: NetworkGraph, fp: str, seed: int):
        """Seeded Gaussian weights (the ``RANDOM_WEIGHTS`` default)."""
        value, elapsed = self.cache.get_or_build(
            "weights", stage_key("weights", fp=fp, seed=seed),
            lambda: init_weights(graph, np.random.default_rng(seed)))
        return value, elapsed

    def quantized_weights(self, graph: NetworkGraph, fp: str, seed: int,
                          weights, weight_format: QFormat):
        """The executor-form integer weights, shared across designs."""
        from repro.sim.quantized import QuantizedExecutor
        value, elapsed = self.cache.get_or_build(
            "qweights",
            stage_key("qweights", fp=fp, seed=seed,
                      weight_bits=[weight_format.integer_bits,
                                   weight_format.fraction_bits]),
            lambda: QuantizedExecutor.quantize_layer_weights(
                graph, weights, weight_format))
        return value, elapsed

    def datapath(self, graph: NetworkGraph, fp: str, budget: ResourceBudget,
                 data_format: QFormat, weight_format: QFormat):
        """The budget-driven datapath choice, before explorer caps."""
        key = stage_key(
            "datapath", fp=fp, budget=_budget_fields(budget),
            data_bits=[data_format.integer_bits, data_format.fraction_bits],
            weight_bits=[weight_format.integer_bits,
                         weight_format.fraction_bits],
        )
        gen = NNGen()
        return self.cache.get_or_build(
            "datapath", key,
            lambda: gen.datapath(
                graph, budget, data_format=data_format,
                weight_format=weight_format,
                candidates=lambda: self._datapath_candidates(
                    graph, fp, data_format, weight_format)))

    def _datapath_candidates(self, graph: NetworkGraph, fp: str,
                             data_format: QFormat, weight_format: QFormat):
        """The budget-independent datapath candidate table, memoized on
        (fingerprint, formats) for this pipeline's lifetime.

        Not a stage: a budget sweep reads it once per network and format
        pair, while a cold build on a fresh pipeline prices its
        candidates exactly once either way.  Only the ``datapath``
        stage builder calls this, under the stage cache's lock.
        """
        key = (fp, data_format.integer_bits, data_format.fraction_bits,
               weight_format.integer_bits, weight_format.fraction_bits)
        table = self._candidate_tables.get(key)
        if table is None:
            table = datapath_candidates(graph, data_format, weight_format)
            if len(self._candidate_tables) >= 16:
                self._candidate_tables.pop(next(iter(self._candidate_tables)))
            self._candidate_tables[key] = table
        return table

    def design_key(self, fp: str, budget: ResourceBudget, config,
                   fold_capacity_scale: float) -> str:
        """Content address of a *realized* design.

        Keyed on the effective (post-cap) datapath configuration, so cap
        values above what the budget supports collapse onto one entry.
        """
        return stage_key(
            "design", fp=fp, budget=_budget_fields(budget),
            data_bits=[config.data_format.integer_bits,
                       config.data_format.fraction_bits],
            weight_bits=[config.weight_format.integer_bits,
                         config.weight_format.fraction_bits],
            lanes=config.lanes, simd=config.simd,
            fold_capacity_scale=fold_capacity_scale,
        )

    def design(self, graph: NetworkGraph, fp: str, budget: ResourceBudget,
               data_format: QFormat, weight_format: QFormat,
               max_lanes: int = 0, max_simd: int = 0,
               fold_capacity_scale: float = 1.0):
        """datapath + realise, memoized; returns
        ``(design, design_key, seconds)``."""
        gen = NNGen()
        gen.validate_knobs(max_lanes=max_lanes, max_simd=max_simd,
                           fold_capacity_scale=fold_capacity_scale)
        config, choose_s = self.datapath(graph, fp, budget, data_format,
                                         weight_format)
        config = NNGen.apply_caps(config, max_lanes, max_simd)
        key = self.design_key(fp, budget, config, fold_capacity_scale)
        design, realise_s = self.cache.get_or_build(
            "design", key,
            lambda: gen.realise_design(graph, budget, config,
                                       fold_capacity_scale))
        return design, key, choose_s + realise_s

    def compile_core(self, design, design_key: str):
        """The weight-independent control program (``dram_image=None``).

        With no calibration inputs the coordinator program, address
        plans, memory map, blob formats and LUTs depend only on the
        design, so one compiled core serves every weight set.

        Compiling reduces the template AGUs of the design object it is
        given.  A core memoized for an earlier object of the same design
        key (the design stage evicted it and realised a fresh template)
        has its reduced AGUs re-installed into ``design``, so every
        caller's design carries the compiled resource bill.
        """
        key = stage_key("compile", design=design_key)
        core, seconds = self.cache.get_or_build(
            "compile", key,
            lambda: DeepBurningCompiler().compile(design, weights=None))
        if core.design is not design:
            for instance, component in core.design.components.items():
                if isinstance(component, AddressGenerationUnit):
                    design.components[instance] = component
        return core, seconds

    def dram_image(self, design, core, fp: str, seed: int,
                   weights, weight_format: QFormat,
                   memoize: bool = True):
        """The quantized weight DRAM image for one compiled core.

        The image layout depends on the memory map (graph × SIMD
        alignment), the weight values (fingerprint × seed) and the
        weight format — nothing else, so sweep points that differ only
        in budget knobs with the same SIMD width share one image.
        """
        builder = DeepBurningCompiler()

        def build() -> np.ndarray:
            return builder._build_dram_image(design, core.memory_map,
                                             weights, weight_format)

        if not memoize:
            started = time.perf_counter()
            return build(), time.perf_counter() - started
        key = stage_key(
            "dram", fp=fp, seed=seed,
            weight_bits=[weight_format.integer_bits,
                         weight_format.fraction_bits],
            simd=design.datapath.simd,
        )
        return self.cache.get_or_build("dram", key, build)

    # --- the composed flow --------------------------------------------

    def build(
        self,
        script_or_graph: "str | NetworkGraph",
        *,
        device: "str | Device" = "Z-7045",
        fraction: float = 0.3,
        budget: ResourceBudget | None = None,
        data_format: QFormat | None = None,
        weight_format: QFormat | None = None,
        max_lanes: int = 0,
        max_simd: int = 0,
        fold_capacity_scale: float = 1.0,
        weights="random",
        calibration_inputs: "list[np.ndarray] | None" = None,
        seed: int = 0,
        label: str = "",
    ):
        """Run the staged flow; same contract as :func:`repro.api.build`.

        Returns :class:`~repro.api.BuildArtifacts` whose
        ``stage_seconds`` records where the build time went (0.0 for
        memoized stages) and whose ``stage_keys`` lets downstream
        consumers (execution-plan reuse, the DSE engine) address the
        memoized intermediates.
        """
        from repro import api

        timings: dict[str, float] = {
            "parse_s": 0.0, "shapes_s": 0.0, "nngen_s": 0.0,
            "quantize_s": 0.0, "compile_s": 0.0, "plan_s": 0.0,
        }
        started = time.perf_counter()
        graph = api._as_graph(script_or_graph)
        timings["parse_s"] = time.perf_counter() - started
        if budget is None:
            if isinstance(device, str):
                device = device_by_name(device)
            budget = budget_fraction(device, fraction, label)
        data_format = data_format or DEFAULT_DATA_FORMAT
        weight_format = weight_format or DEFAULT_WEIGHT_FORMAT

        if isinstance(weights, str):
            if weights != api.RANDOM_WEIGHTS:
                raise ValueError(
                    f"weights must be a dict, None or "
                    f"'{api.RANDOM_WEIGHTS}', got '{weights}'"
                )
            seeded = True
        else:
            seeded = False

        if calibration_inputs:
            # Calibrated blob formats depend on the weight values and the
            # calibration set; run the legacy monolithic chain unmemoized.
            return self._build_uncached(
                graph, budget, data_format, weight_format, max_lanes,
                max_simd, fold_capacity_scale, weights if not seeded
                else init_weights(graph, np.random.default_rng(seed)),
                calibration_inputs, seed, timings)

        fp = self.fingerprint(graph)
        shape_t0 = time.perf_counter()
        shapes = self.shapes(graph, fp)
        timings["shapes_s"] = time.perf_counter() - shape_t0

        design, design_key, nngen_s = self.design(
            graph, fp, budget, data_format, weight_format,
            max_lanes=max_lanes, max_simd=max_simd,
            fold_capacity_scale=fold_capacity_scale)
        timings["nngen_s"] = nngen_s
        core, compile_s = self.compile_core(design, design_key)
        timings["compile_s"] = compile_s

        if seeded:
            weights, weights_s = self.weights(graph, fp, seed)
            timings["quantize_s"] += weights_s
        if weights is None:
            program = core  # a weightless core already has dram_image=None
        else:
            dram, dram_s = self.dram_image(
                design, core, fp, seed, weights, weight_format,
                memoize=seeded)
            timings["quantize_s"] += dram_s
            program = replace(core, dram_image=dram)

        return api.BuildArtifacts(
            graph=graph,
            shapes=shapes,
            design=design,
            program=program,
            budget=budget,
            weights=weights,
            seed=seed,
            stage_seconds=timings,
            stage_keys={"fingerprint": fp, "design": design_key,
                        "seeded": seeded},
        )

    def _build_uncached(self, graph, budget, data_format, weight_format,
                        max_lanes, max_simd, fold_capacity_scale, weights,
                        calibration_inputs, seed, timings):
        """The pre-memoization monolithic chain (calibration builds)."""
        from repro import api

        t0 = time.perf_counter()
        design = NNGen().generate(
            graph, budget,
            data_format=data_format, weight_format=weight_format,
            max_lanes=max_lanes, max_simd=max_simd,
            fold_capacity_scale=fold_capacity_scale,
        )
        timings["nngen_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        program = DeepBurningCompiler().compile(
            design, weights=weights, calibration_inputs=calibration_inputs)
        timings["compile_s"] = time.perf_counter() - t0
        return api.BuildArtifacts(
            graph=graph,
            shapes=infer_shapes(graph),
            design=design,
            program=program,
            budget=budget,
            weights=weights,
            seed=seed,
            stage_seconds=timings,
            stage_keys=None,
        )

    # --- downstream stages --------------------------------------------

    def plan_for(self, artifacts, optimize: str = "fused"):
        """The memoized :class:`~repro.sim.plan.ExecutionPlan`.

        Keyed on (design, seed, optimize) when the artifacts' weights
        came from the seeded init stage; artifacts carrying explicit
        trained weights get a private, unmemoized plan (their values
        are not content-addressable by seed).  ``optimize`` selects the
        plan mode (``"fused"`` or ``"naive"``) — distinct modes over
        one design are distinct cache entries.
        """
        from repro.sim.quantized import QuantizedExecutor

        if artifacts.weights is None:
            raise ValueError("an execution plan needs built weights")
        keys = artifacts.stage_keys or {}

        def build():
            executor = QuantizedExecutor.from_program(
                artifacts.program, artifacts.weights,
                quantized_weights=qweights, plan_optimize=optimize)
            return executor.plan()

        qweights = None
        if keys.get("seeded") and "design" in keys:
            qweights, q_s = self.quantized_weights(
                artifacts.graph, keys["fingerprint"], artifacts.seed,
                artifacts.weights,
                artifacts.program.weight_format
                or artifacts.design.datapath.weight_format)
            plan, plan_s = self.cache.get_or_build(
                "plan",
                stage_key("plan", design=keys["design"],
                          seed=artifacts.seed, optimize=optimize),
                build)
            if artifacts.stage_seconds is not None:
                artifacts.stage_seconds["plan_s"] = plan_s + q_s
            return plan
        started = time.perf_counter()
        plan = build()
        if artifacts.stage_seconds is not None:
            artifacts.stage_seconds["plan_s"] = \
                time.perf_counter() - started
        return plan

    def reference_output(self, artifacts):
        """Float-reference output for the artifacts' default input.

        Depends only on (network, seed) — every design point of one
        sweep shares it, so fidelity scoring pays the float forward
        pass once.
        """
        from repro.nn.reference import ReferenceNetwork

        keys = artifacts.stage_keys or {}
        def build() -> np.ndarray:
            return np.asarray(
                ReferenceNetwork(artifacts.graph, artifacts.weights)
                .output(artifacts.random_input()), dtype=float)

        if not keys.get("seeded"):
            return build()
        return self.memo(
            "reference",
            {"fp": keys["fingerprint"], "seed": artifacts.seed},
            build)


# --- the shared default -----------------------------------------------

_default_pipeline: BuildPipeline | None = None
_default_lock = threading.Lock()


def default_pipeline() -> BuildPipeline:
    """The process-wide pipeline behind :func:`repro.api.build`.

    Shared so repeated builds — serving sessions warm-starting, sweep
    follow-ups, tests — reuse each other's stages.  Forked sweep workers
    inherit whatever the parent primed, copy-on-write.
    """
    global _default_pipeline
    with _default_lock:
        if _default_pipeline is None:
            _default_pipeline = BuildPipeline()
        return _default_pipeline


def reset_default_pipeline() -> None:
    """Drop the shared cache (tests; long-lived processes under memory
    pressure)."""
    global _default_pipeline
    with _default_lock:
        _default_pipeline = None
